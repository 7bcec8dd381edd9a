"""The coarse GCell grid used by the global router.

A GCell groups a square block of detailed-routing tracks.  The global router
works on this coarse grid, producing per-net *guides* (sets of GCells per
layer) that the detailed routers then prefer to stay inside -- the paper's
flow computes "color cost by GR guide", i.e. the color-aware cost is only
evaluated within the guide region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.design import Design
from repro.geometry import GridPoint, Point, Rect


@dataclass(frozen=True, order=True)
class GCell:
    """A coarse grid cell address: ``(layer, gx, gy)``."""

    layer: int
    gx: int
    gy: int


class GCellGrid:
    """Coarse congestion grid over a design.

    Parameters
    ----------
    design:
        The design to cover.
    gcell_size:
        GCell edge length in DBU.
    capacity:
        Nominal number of routing tracks available across one GCell boundary
        per layer; congestion-aware global routing keeps usage below this.
    """

    def __init__(self, design: Design, gcell_size: int = 16, capacity: int = 6) -> None:
        if gcell_size <= 0:
            raise ValueError("gcell_size must be positive")
        self.design = design
        self.gcell_size = gcell_size
        self.capacity = capacity
        die = design.die_area
        self.origin = Point(die.xlo, die.ylo)
        self.num_layers = design.tech.num_layers
        self.num_gx = max(1, -(-die.width // gcell_size))
        self.num_gy = max(1, -(-die.height // gcell_size))
        # Edge usage between planar-adjacent gcells, keyed by the canonical
        # ``(lo, hi)`` pair of flat indices (see :meth:`index_of`).
        self._usage: Dict[Tuple[int, int], int] = {}
        # Effective boundary capacity per flat index, reduced by blockages.
        self._capacity: List[float] = self._effective_capacities()

    # -- geometry -----------------------------------------------------------

    def in_bounds(self, cell: GCell) -> bool:
        """Return ``True`` when *cell* lies inside the grid."""
        return (
            0 <= cell.layer < self.num_layers
            and 0 <= cell.gx < self.num_gx
            and 0 <= cell.gy < self.num_gy
        )

    def index_of(self, cell: GCell) -> int:
        """Return the flat index ``(layer * num_gx + gx) * num_gy + gy``.

        For in-bounds cells the flat order is the :class:`GCell` order, so a
        canonical ``(lo, hi)`` index pair names the same boundary as the
        canonical cell pair.
        """
        return (cell.layer * self.num_gx + cell.gx) * self.num_gy + cell.gy

    def cell_at(self, index: int) -> GCell:
        """Return the cell of flat *index* (inverse of :meth:`index_of`)."""
        rest, gy = divmod(index, self.num_gy)
        layer, gx = divmod(rest, self.num_gx)
        return GCell(layer, gx, gy)

    def cell_of_point(self, layer: int, point: Point) -> GCell:
        """Return the GCell containing *point* on *layer* (clamped to bounds)."""
        gx = min(max((point.x - self.origin.x) // self.gcell_size, 0), self.num_gx - 1)
        gy = min(max((point.y - self.origin.y) // self.gcell_size, 0), self.num_gy - 1)
        return GCell(layer, gx, gy)

    def cell_rect(self, cell: GCell) -> Rect:
        """Return the DBU rectangle covered by *cell*."""
        xlo = self.origin.x + cell.gx * self.gcell_size
        ylo = self.origin.y + cell.gy * self.gcell_size
        return Rect(xlo, ylo, xlo + self.gcell_size, ylo + self.gcell_size)

    def cells_covering(self, layer: int, rect: Rect) -> List[GCell]:
        """Return every GCell on *layer* overlapping *rect*."""
        lo = self.cell_of_point(layer, Point(rect.xlo, rect.ylo))
        hi = self.cell_of_point(layer, Point(rect.xhi, rect.yhi))
        cells = []
        for gx in range(lo.gx, hi.gx + 1):
            for gy in range(lo.gy, hi.gy + 1):
                cells.append(GCell(layer, gx, gy))
        return cells

    def neighbors(self, cell: GCell) -> Iterator[GCell]:
        """Yield planar and via neighbours of *cell*."""
        candidates = [
            GCell(cell.layer, cell.gx + 1, cell.gy),
            GCell(cell.layer, cell.gx - 1, cell.gy),
            GCell(cell.layer, cell.gx, cell.gy + 1),
            GCell(cell.layer, cell.gx, cell.gy - 1),
            GCell(cell.layer + 1, cell.gx, cell.gy),
            GCell(cell.layer - 1, cell.gx, cell.gy),
        ]
        for candidate in candidates:
            if self.in_bounds(candidate):
                yield candidate

    # -- congestion accounting ------------------------------------------------

    def _edge_key(self, a: GCell, b: GCell) -> Tuple[int, int]:
        i, j = self.index_of(a), self.index_of(b)
        return (i, j) if i <= j else (j, i)

    def usage(self, a: GCell, b: GCell) -> int:
        """Return the number of nets currently crossing the ``a``-``b`` boundary."""
        return self._usage.get(self._edge_key(a, b), 0)

    def add_usage(self, a: GCell, b: GCell, amount: int = 1) -> None:
        """Record *amount* additional nets crossing the ``a``-``b`` boundary."""
        self.add_index_usage(self.index_of(a), self.index_of(b), amount)

    def add_index_usage(self, i: int, j: int, amount: int = 1) -> None:
        """Flat-index form of :meth:`add_usage`."""
        key = (i, j) if i <= j else (j, i)
        self._usage[key] = self._usage.get(key, 0) + amount

    def effective_capacity(self, cell: GCell) -> float:
        """Return the boundary capacity of *cell* reduced by blockage coverage."""
        return self._capacity[self.index_of(cell)]

    def congestion_cost(self, a: GCell, b: GCell) -> float:
        """Return a smooth congestion penalty for crossing the ``a``-``b`` boundary."""
        i, j = self._edge_key(a, b)
        return self.index_congestion_cost(i, j)

    def index_congestion_cost(self, i: int, j: int) -> float:
        """Flat-index form of :meth:`congestion_cost` (``i < j``)."""
        capacities = self._capacity
        capacity = max(min(capacities[i], capacities[j]), 0.5)
        overflow = max(0.0, self._usage.get((i, j), 0) + 1 - capacity)
        return 1.0 + overflow * overflow

    def total_overflow(self) -> float:
        """Return the summed overflow over all boundaries (GR quality metric)."""
        capacities = self._capacity
        overflow = 0.0
        for (i, j), usage in self._usage.items():
            capacity = max(min(capacities[i], capacities[j]), 0.5)
            overflow += max(0.0, usage - capacity)
        return overflow

    def _effective_capacities(self) -> List[float]:
        """Return the per-cell capacity after blockage coverage, by flat index."""
        blocked = [0.0] * (self.num_layers * self.num_gx * self.num_gy)
        for shape in self.design.blockage_shapes():
            if not 0 <= shape.layer < self.num_layers:
                continue
            for cell in self.cells_covering(shape.layer, shape.rect):
                cell_rect = self.cell_rect(cell)
                overlap = cell_rect.intersection(shape.rect)
                if overlap is None or cell_rect.area == 0:
                    continue
                fraction = overlap.area / cell_rect.area
                index = self.index_of(cell)
                blocked[index] = min(1.0, blocked[index] + fraction)
        return [self.capacity * (1.0 - fraction) for fraction in blocked]
