"""A congestion-aware global router producing per-net route guides.

The global router is deliberately simple -- its job in this reproduction is
to provide realistic GR guides for the detailed routers (the paper's flow
"calculate[s] color cost by GR guide"), not to compete with industrial GR:

1. compute a rectilinear Steiner topology per net (:mod:`repro.gr.steiner`),
2. route each 2-pin connection of the topology over the GCell grid with a
   congestion-penalised Dijkstra search (layer 0 is reserved for pin access,
   planar routing happens on layers 1+ in their preferred direction),
3. accumulate boundary usage so later nets avoid congested regions,
4. emit a :class:`~repro.gr.guide.GuideSet` with one expanded guide per net.
"""

from __future__ import annotations

import heapq
import logging
from typing import Dict, List, Tuple

from repro.design import Design, Net
from repro.geometry import Point
from repro.gr.guide import GuideSet, RouteGuide
from repro.gr.steiner import build_steiner_tree
from repro.grid.gcell import GCell, GCellGrid
from repro.utils import get_logger

_LOG = get_logger("gr.global_router")

_INF = float("inf")


class GlobalRouter:
    """Guide-producing global router over the GCell grid."""

    def __init__(
        self,
        design: Design,
        gcell_size: int = 16,
        capacity: int = 6,
        guide_margin: int = 1,
    ) -> None:
        self.design = design
        self.gcell_grid = GCellGrid(design, gcell_size=gcell_size, capacity=capacity)
        self.guide_margin = guide_margin
        self._planar_penalties = self._direction_penalties()

    # -- public API -----------------------------------------------------------

    def route(self) -> GuideSet:
        """Globally route every routable net and return the guide set.

        Nets are processed in increasing half-perimeter wirelength order so
        short nets (hard to detour) claim their resources first -- the usual
        net-ordering heuristic of sequential global routers.
        """
        guides = GuideSet(self.gcell_grid)
        nets = sorted(
            self.design.routable_nets(),
            key=lambda net: (net.half_perimeter_wirelength(), net.name),
        )
        for net in nets:
            guide = self.route_net(net)
            guides.add(guide.expanded(self.gcell_grid, self.guide_margin))
        if _LOG.isEnabledFor(logging.INFO):
            _LOG.info(
                "global routing done: %d nets, overflow %.1f",
                len(nets),
                self.gcell_grid.total_overflow(),
            )
        return guides

    def route_net(self, net: Net) -> RouteGuide:
        """Globally route one net and return its (unexpanded) guide."""
        grid = self.gcell_grid
        guide = RouteGuide(net.name)
        pin_points = [pin.center() for pin in net.pins]
        pin_cells = [grid.cell_of_point(0, point) for point in pin_points]
        for cell in pin_cells:
            guide.add_cell(cell)
        if len(set(pin_cells)) <= 1:
            return guide
        plane = grid.num_gx * grid.num_gy
        tree = build_steiner_tree(pin_points)
        for start, end in tree.two_pin_connections():
            path = self._route_two_pin(start, end)
            for index in path:
                guide.add_cell(grid.cell_at(index))
            for a, b in zip(path, path[1:]):
                if a // plane == b // plane:
                    grid.add_index_usage(a, b)
        return guide

    # -- 2-pin GCell routing --------------------------------------------------

    def _route_two_pin(self, start: Point, end: Point) -> List[int]:
        """Route one topology edge on the GCell grid; returns the path as
        flat gcell indices (:meth:`GCellGrid.index_of`).

        A* with lazy deletion: a heap of ``(priority, counter, index)`` plus
        the counter of each index's live entry, which pops in exactly the
        order of :class:`~repro.utils.UpdatablePriorityQueue`.  Neighbours
        are tried in the order +x, -x, +y, -y, +layer, -layer.
        """
        grid = self.gcell_grid
        num_gx, num_gy, num_layers = grid.num_gx, grid.num_gy, grid.num_layers
        plane = num_gx * num_gy
        source = grid.index_of(grid.cell_of_point(0, start))
        target = grid.cell_of_point(0, end)
        if source == grid.index_of(target):
            return [source]
        target_gx, target_gy = target.gx, target.gy
        along_x, along_y = self._planar_penalties
        congestion_cost = grid.index_congestion_cost
        heap: List[Tuple[float, int, int]] = [(0.0, 0, source)]
        live: Dict[int, int] = {source: 0}
        counter = 1
        best_cost: Dict[int, float] = {source: 0.0}
        parent: Dict[int, int] = {source: -1}
        found = -1
        while live:
            _priority, count, index = heapq.heappop(heap)
            if live.get(index) != count:
                continue
            del live[index]
            cost = best_cost[index]
            rest, gy = divmod(index, num_gy)
            layer, gx = divmod(rest, num_gx)
            if gx == target_gx and gy == target_gy:
                found = index
                break
            moves = []
            if gx + 1 < num_gx:
                moves.append((index + num_gy, gx + 1, gy, along_x[layer]))
            if gx > 0:
                moves.append((index - num_gy, gx - 1, gy, along_x[layer]))
            if gy + 1 < num_gy:
                moves.append((index + 1, gx, gy + 1, along_y[layer]))
            if gy > 0:
                moves.append((index - 1, gx, gy - 1, along_y[layer]))
            if layer + 1 < num_layers:
                moves.append((index + plane, gx, gy, None))
            if layer > 0:
                moves.append((index - plane, gx, gy, None))
            for nbr, ngx, ngy, penalty in moves:
                if penalty is None:
                    step = 2.0
                elif index < nbr:
                    step = penalty * congestion_cost(index, nbr)
                else:
                    step = penalty * congestion_cost(nbr, index)
                candidate = cost + step
                if candidate < best_cost.get(nbr, _INF):
                    best_cost[nbr] = candidate
                    parent[nbr] = index
                    heuristic = abs(ngx - target_gx) + abs(ngy - target_gy)
                    live[nbr] = counter
                    heapq.heappush(heap, (candidate + heuristic, counter, nbr))
                    counter += 1
        if found < 0:
            # Unreachable targets should not happen on an open GCell grid, but
            # fall back to the straight bounding-box guide rather than failing.
            return self._bounding_box_cells(grid.cell_at(source), target)
        path: List[int] = []
        while found >= 0:
            path.append(found)
            found = parent[found]
        path.reverse()
        return path

    def _direction_penalties(self) -> Tuple[List[float], List[float]]:
        """Return per-layer step penalties for moves along x and along y.

        A move is preferred on a layer of its direction (penalty 1.0) and
        wrong-way otherwise (2.5); layer 0 carries pins and cell
        obstructions, so planar use there costs four times as much.
        """
        along_x: List[float] = []
        along_y: List[float] = []
        for index in range(self.gcell_grid.num_layers):
            layer = self.design.tech.layers[index]
            scale = 4.0 if index == 0 else 1.0
            along_x.append((1.0 if layer.is_horizontal else 2.5) * scale)
            along_y.append((1.0 if layer.is_vertical else 2.5) * scale)
        return along_x, along_y

    def _bounding_box_cells(self, a: GCell, b: GCell) -> List[int]:
        grid = self.gcell_grid
        cells = []
        for gx in range(min(a.gx, b.gx), max(a.gx, b.gx) + 1):
            for gy in range(min(a.gy, b.gy), max(a.gy, b.gy) + 1):
                for layer in range(grid.num_layers):
                    cells.append(grid.index_of(GCell(layer, gx, gy)))
        return cells
