"""Route guides: the interface between global and detailed routing.

A guide is, per net, a set of GCells (per layer) the detailed router should
stay inside.  The ISPD 2018/2019 contests deliver guides as rectangles per
layer in a ``.guide`` file; here the guide also answers point-membership
queries directly against detailed-grid coordinates so the detailed routers
can charge the out-of-guide penalty of the contest cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.geometry import Point, Rect
from repro.grid.gcell import GCell, GCellGrid


@dataclass
class RouteGuide:
    """The guide region of a single net."""

    net_name: str
    cells: Set[GCell] = field(default_factory=set)

    def add_cell(self, cell: GCell) -> None:
        """Include *cell* in the guide."""
        self.cells.add(cell)

    def add_cells(self, cells: Iterable[GCell]) -> None:
        """Include every cell of *cells* in the guide."""
        self.cells.update(cells)

    def covers_cell(self, cell: GCell) -> bool:
        """Return ``True`` when *cell* is part of the guide."""
        return cell in self.cells

    def layers(self) -> Set[int]:
        """Return the set of layers the guide touches."""
        return {cell.layer for cell in self.cells}

    def rectangles(self, gcell_grid: GCellGrid) -> List[Tuple[int, Rect]]:
        """Return the guide as per-cell ``(layer, rect)`` rectangles."""
        return [(cell.layer, gcell_grid.cell_rect(cell)) for cell in sorted(self.cells)]

    def expanded(self, gcell_grid: GCellGrid, margin: int = 1) -> "RouteGuide":
        """Return a guide grown by *margin* GCells in every direction.

        Detailed routers conventionally bloat guides slightly so pin access
        and small detours remain in-guide.
        """
        num_layers = gcell_grid.num_layers
        num_gx, num_gy = gcell_grid.num_gx, gcell_grid.num_gy
        # Plain ``(layer, gx, gy)`` tuples, converted to GCells once.  A dict
        # keeps first-insertion order, so the GCell set (and its iteration
        # order) follows the cell-by-cell walk below.
        grown: Dict[Tuple[int, int, int], None] = {}
        for cell in self.cells:
            layer, gx, gy = cell.layer, cell.gx, cell.gy
            if 0 <= layer < num_layers:
                xs = range(max(gx - margin, 0), min(gx + margin + 1, num_gx))
                ys = range(max(gy - margin, 0), min(gy + margin + 1, num_gy))
                for x in xs:
                    for y in ys:
                        grown[(layer, x, y)] = None
            # Guides should also cover the layers directly above/below so the
            # detailed router can drop vias without leaving the guide.
            if 0 <= gx < num_gx and 0 <= gy < num_gy:
                for other in (layer - 1, layer + 1):
                    if 0 <= other < num_layers:
                        grown[(other, gx, gy)] = None
        return RouteGuide(self.net_name, {GCell(*key) for key in grown})


class GuideSet:
    """All route guides of a design plus fast point membership queries."""

    def __init__(self, gcell_grid: GCellGrid) -> None:
        self.gcell_grid = gcell_grid
        self._guides: Dict[str, RouteGuide] = {}

    def __len__(self) -> int:
        return len(self._guides)

    def __contains__(self, net_name: str) -> bool:
        return net_name in self._guides

    def add(self, guide: RouteGuide) -> None:
        """Register the guide of ``guide.net_name`` (replacing any previous one)."""
        self._guides[guide.net_name] = guide

    def guide_of(self, net_name: str) -> Optional[RouteGuide]:
        """Return the guide of *net_name*, or ``None`` when absent."""
        return self._guides.get(net_name)

    def net_names(self) -> List[str]:
        """Return the guided net names, sorted for determinism."""
        return sorted(self._guides)

    def covers_point(self, net_name: str, layer: int, point: Point) -> bool:
        """Return ``True`` when *point* on *layer* lies inside the net's guide.

        Nets without a guide are treated as unguided: everything is
        considered in-guide so they incur no out-of-guide penalty.
        """
        guide = self._guides.get(net_name)
        if guide is None or not guide.cells:
            return True
        cell = self.gcell_grid.cell_of_point(layer, point)
        return guide.covers_cell(cell)

    def coverage_statistics(self) -> Dict[str, float]:
        """Return aggregate guide statistics for reports."""
        if not self._guides:
            return {"nets": 0, "mean_cells": 0.0, "max_cells": 0}
        sizes = [len(guide.cells) for guide in self._guides.values()]
        return {
            "nets": len(sizes),
            "mean_cells": sum(sizes) / len(sizes),
            "max_cells": max(sizes),
        }
