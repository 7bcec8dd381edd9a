"""Frozen ``GridPoint``-dict reference search engines (the seed architecture).

These classes preserve the repository's original search implementations --
per-vertex :class:`~repro.geometry.GridPoint` keys, dict/set state queries
through the grid's compatibility shims, and the
:class:`~repro.utils.UpdatablePriorityQueue` -- exactly as they looked
before the flat-index :class:`repro.search.SearchCore` refactor (plus the
Alg. 2 equal-cost color-state merge fix, applied to both generations so
they stay semantically identical).

They exist for one reason only: **parity tests** route the same designs
through a legacy engine and the flat-index adapter and assert
bit-identical solutions, proving the refactor changed the representation,
not the algorithm.

Production routers never instantiate them; new behaviour goes into the
adapters, not here.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.dr.cost import CostModel, TargetBounds
from repro.dr.maze import SearchResult
from repro.geometry import GridPoint
from repro.grid import ALL_DIRECTIONS, RoutingGrid
from repro.tpl.color_state import ALL_COLORS, ColorState
from repro.tpl.search import ColorSearchResult, VertexLabel, _COST_TOLERANCE
from repro.utils import UpdatablePriorityQueue

#: (vertex, mask) state on the DAC-2012 mask-expanded graph.
MaskedVertex = Tuple[GridPoint, int]


class LegacyMazeSearch:
    """The seed multi-source maze search (drop-in for ``MazeRouter``)."""

    def __init__(self, grid: RoutingGrid, cost_model: CostModel, max_expansions: int = 2_000_000) -> None:
        self.grid = grid
        self.cost_model = cost_model
        self.max_expansions = max_expansions

    def search(
        self,
        sources: Iterable[GridPoint],
        targets: Set[GridPoint],
        net_name: str,
        allow_occupied_targets: bool = True,
    ) -> SearchResult:
        """Search from *sources* to any vertex in *targets* (seed algorithm)."""
        if not targets:
            return SearchResult()
        bounds = TargetBounds.from_targets(targets)
        queue: UpdatablePriorityQueue = UpdatablePriorityQueue()
        costs: Dict[GridPoint, float] = {}
        parents: Dict[GridPoint, Optional[GridPoint]] = {}
        for source in sources:
            if not self.grid.in_bounds(source):
                continue
            if self.grid.is_blocked(source):
                continue
            costs[source] = 0.0
            parents[source] = None
            queue.push(source, self.cost_model.heuristic_bounds(source, bounds))
        expansions = 0
        reached: Optional[GridPoint] = None
        while queue:
            vertex, _priority = queue.pop()
            cost_here = costs[vertex]
            expansions += 1
            if vertex in targets:
                if allow_occupied_targets or not self.grid.is_occupied_by_other(vertex, net_name):
                    reached = vertex
                    break
            if expansions > self.max_expansions:
                break
            for direction in ALL_DIRECTIONS:
                neighbor = self.grid.neighbor(vertex, direction)
                if neighbor is None or self.grid.is_blocked(neighbor):
                    continue
                step = self.cost_model.weighted_traditional_cost(
                    vertex, direction, neighbor, net_name
                )
                candidate = cost_here + step
                if candidate < costs.get(neighbor, float("inf")) - 1e-12:
                    costs[neighbor] = candidate
                    parents[neighbor] = vertex
                    priority = candidate + self.cost_model.heuristic_bounds(neighbor, bounds)
                    queue.push(neighbor, priority)
        return SearchResult(
            reached=reached, parents=parents, costs=costs, expansions=expansions
        )


class LegacyColorStateSearch:
    """The seed Alg. 2 color-state search (drop-in for ``ColorStateSearch``).

    Includes the equal-cost color-state *merge*: a re-visit within
    ``_COST_TOLERANCE`` of the stored cost whose state holds extra masks
    widens the stored state (and re-queues the vertex if it was already
    expanded) instead of being dropped -- the same rule the flat engine
    applies, so both produce identical labels.
    """

    def __init__(
        self,
        grid: RoutingGrid,
        cost_model: CostModel,
        max_expansions: int = 2_000_000,
    ) -> None:
        self.grid = grid
        self.cost_model = cost_model
        self.rules = grid.rules
        self.max_expansions = max_expansions

    def search(
        self,
        sources: Mapping[GridPoint, ColorState],
        targets: Set[GridPoint],
        net_name: str,
    ) -> ColorSearchResult:
        """Search from *sources* to any vertex of *targets* (seed algorithm)."""
        if not targets:
            return ColorSearchResult()
        bounds = TargetBounds.from_targets(targets)
        labels: Dict[GridPoint, VertexLabel] = {}
        queue: UpdatablePriorityQueue = UpdatablePriorityQueue()

        for vertex, state in sources.items():
            if not self.grid.in_bounds(vertex) or self.grid.is_blocked(vertex):
                continue
            labels[vertex] = VertexLabel(cost=0.0, color_state=state)
            queue.push(vertex, self.cost_model.heuristic_bounds(vertex, bounds))

        expansions = 0
        reached: Optional[GridPoint] = None
        while queue:
            vertex, _priority = queue.pop()
            label = labels[vertex]
            expansions += 1
            if vertex in targets:
                reached = vertex
                break
            if expansions > self.max_expansions:
                break
            for direction in ALL_DIRECTIONS:
                neighbor = self.grid.neighbor(vertex, direction)
                if neighbor is None or self.grid.is_blocked(neighbor):
                    continue
                step_cost, new_state = self._direction_cost(
                    vertex, label.color_state, direction, neighbor, net_name
                )
                candidate = label.cost + step_cost
                existing = labels.get(neighbor)
                if existing is None or candidate < existing.cost - _COST_TOLERANCE:
                    labels[neighbor] = VertexLabel(
                        cost=candidate,
                        color_state=new_state,
                        parent=vertex,
                        parent_direction=direction,
                    )
                    priority = candidate + self.cost_model.heuristic_bounds(neighbor, bounds)
                    queue.push(neighbor, priority)
                elif (
                    candidate <= existing.cost + _COST_TOLERANCE
                    and new_state.union(existing.color_state) != existing.color_state
                ):
                    # Equal-cost revisit with extra mask freedom: merge the
                    # states so the backtrace keeps every cost-optimal mask
                    # (paper Alg. 2); keep the established cost and parent.
                    existing.color_state = existing.color_state.union(new_state)
                    if neighbor not in queue:
                        # Already expanded with the narrower state: queue it
                        # again so the widening propagates downstream.
                        queue.push(
                            neighbor,
                            existing.cost
                            + self.cost_model.heuristic_bounds(neighbor, bounds),
                        )

        return ColorSearchResult(reached=reached, labels=labels, expansions=expansions)

    # ------------------------------------------------------------------

    def _direction_cost(
        self,
        vertex: GridPoint,
        state: ColorState,
        direction,
        neighbor: GridPoint,
        net_name: str,
    ) -> Tuple[float, ColorState]:
        """Return ``(min cost, resulting color state)`` for one direction."""
        base = self.cost_model.weighted_traditional_cost(vertex, direction, neighbor, net_name)
        color_costs = self.cost_model.color_costs(neighbor, net_name)
        stitch_penalty = self.cost_model.stitch_cost()

        per_color: List[Tuple[float, int]] = []
        for color in ALL_COLORS:
            cost = base + color_costs[color]
            if not direction.is_via and not state.allows(color):
                cost += stitch_penalty
            per_color.append((cost, color))

        min_cost = min(cost for cost, _color in per_color)
        allowed = [
            color for cost, color in per_color if cost <= min_cost + _COST_TOLERANCE
        ]
        return min_cost, ColorState.from_colors(allowed)


class LegacyMaskExpandedSearch:
    """The seed DAC-2012 2-pin search on the mask-expanded graph."""

    def __init__(
        self,
        grid: RoutingGrid,
        cost_model: CostModel,
        max_expansions: int = 6_000_000,
    ) -> None:
        self.grid = grid
        self.cost_model = cost_model
        self.max_expansions = max_expansions

    def search(
        self,
        sources: List[MaskedVertex],
        targets: Set[GridPoint],
        net_name: str,
    ) -> Optional[List[MaskedVertex]]:
        """Search *sources* -> *targets* (any mask); seed algorithm."""
        if not targets:
            return None
        bounds = TargetBounds.from_targets(targets)
        queue: UpdatablePriorityQueue = UpdatablePriorityQueue()
        costs: Dict[MaskedVertex, float] = {}
        parents: Dict[MaskedVertex, Optional[MaskedVertex]] = {}

        for vertex, color in sources:
            state: MaskedVertex = (vertex, color)
            costs[state] = 0.0
            parents[state] = None
            queue.push(state, self.cost_model.heuristic_bounds(vertex, bounds))

        reached: Optional[MaskedVertex] = None
        expansions = 0
        stitch_penalty = self.cost_model.stitch_cost()
        while queue:
            state, _priority = queue.pop()
            vertex, color = state
            cost_here = costs[state]
            expansions += 1
            if vertex in targets:
                reached = state
                break
            if expansions > self.max_expansions:
                break
            # Mask change in place: a stitch on the expanded graph.
            for other_color in ALL_COLORS:
                if other_color == color:
                    continue
                switched: MaskedVertex = (vertex, other_color)
                candidate = cost_here + stitch_penalty
                if candidate < costs.get(switched, float("inf")) - 1e-12:
                    costs[switched] = candidate
                    parents[switched] = state
                    queue.push(
                        switched,
                        candidate + self.cost_model.heuristic_bounds(vertex, bounds),
                    )
            # Planar and via moves keeping the mask.
            for direction in ALL_DIRECTIONS:
                neighbor = self.grid.neighbor(vertex, direction)
                if neighbor is None or self.grid.is_blocked(neighbor):
                    continue
                step = self.cost_model.weighted_traditional_cost(
                    vertex, direction, neighbor, net_name
                )
                moved: MaskedVertex = (neighbor, color)
                candidate = cost_here + step
                candidate = candidate + self.cost_model.color_costs(neighbor, net_name)[color]
                if candidate < costs.get(moved, float("inf")) - 1e-12:
                    costs[moved] = candidate
                    parents[moved] = state
                    queue.push(
                        moved,
                        candidate + self.cost_model.heuristic_bounds(neighbor, bounds),
                    )

        if reached is None:
            return None

        path: List[MaskedVertex] = []
        cursor: Optional[MaskedVertex] = reached
        while cursor is not None:
            path.append(cursor)
            cursor = parents[cursor]
        path.reverse()
        return path
