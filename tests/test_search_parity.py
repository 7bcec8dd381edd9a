"""Parity tests: legacy GridPoint engines vs the flat-index SearchCore path.

The flat-index refactor must be a pure representation change: routing the
same design through the frozen legacy reference engines
(:mod:`repro.search.legacy`) and through the :class:`repro.search.SearchCore`
adapters has to produce identical solutions -- vertices, colors, edges,
stitches and metric dicts.  These tests pin that down, plus the grid's
index/GridPoint API equivalence and the Alg. 2 equal-cost color-state merge.
"""

import pytest

from repro.baselines.dac2012 import Dac2012Router
from repro.bench import fig1_multi_pin_net, suite_case
from repro.bench.micro import solution_fingerprint, solution_metrics
from repro.dr.cost import CostModel
from repro.dr.router import DetailedRouter
from repro.geometry import GridPoint, Rect
from repro.grid import ALL_DIRECTIONS, DIRECTION_INDEX, RoutingGrid
from repro.search.legacy import LegacyColorStateSearch
from repro.tpl.color_state import ColorState, GREEN, RED
from repro.tpl.mr_tpl import MrTPLRouter
from repro.tpl.search import ColorStateSearch
from tests.test_grid import make_design


# One shared definition of "identical solutions" for every parity test.
fingerprint = solution_fingerprint
metrics = solution_metrics


class TestRouterParity:
    """Same design, both engine generations, identical RoutingSolution."""

    @pytest.mark.parametrize("router_class", [DetailedRouter, MrTPLRouter, Dac2012Router])
    def test_suite_case_parity(self, router_class):
        case = suite_case("ispd18", 1, scale=0.5)
        legacy_solution = router_class(case.build(), engine="legacy").run()
        flat_solution = router_class(case.build(), engine="flat").run()
        assert fingerprint(legacy_solution) == fingerprint(flat_solution)
        assert metrics(legacy_solution) == metrics(flat_solution)

    @pytest.mark.parametrize("router_class", [MrTPLRouter, Dac2012Router])
    def test_micro_design_parity(self, router_class):
        legacy_solution = router_class(fig1_multi_pin_net(), engine="legacy").run()
        flat_solution = router_class(fig1_multi_pin_net(), engine="flat").run()
        assert fingerprint(legacy_solution) == fingerprint(flat_solution)
        assert metrics(legacy_solution) == metrics(flat_solution)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            DetailedRouter(fig1_multi_pin_net(), engine="warp-drive")

    @pytest.mark.parametrize("allow_occupied", [True, False])
    def test_occupied_target_rule_matches_legacy(self, allow_occupied):
        from repro.dr.maze import MazeRouter
        from repro.search.legacy import LegacyMazeSearch

        design = make_design()
        grid_a, grid_b = RoutingGrid(design), RoutingGrid(design)
        source, target = GridPoint(0, 2, 5), GridPoint(0, 8, 5)
        for grid in (grid_a, grid_b):
            grid.occupy(target, "squatter")
        flat = MazeRouter(grid_a, CostModel(grid_a)).search(
            [source], {target}, "n", allow_occupied_targets=allow_occupied
        )
        legacy = LegacyMazeSearch(grid_b, CostModel(grid_b)).search(
            [source], {target}, "n", allow_occupied_targets=allow_occupied
        )
        assert flat.found == legacy.found == allow_occupied

    def test_empty_target_results_expose_empty_views(self):
        from repro.dr.maze import MazeRouter

        design = make_design()
        grid = RoutingGrid(design)
        maze_result = MazeRouter(grid, CostModel(grid)).search([GridPoint(0, 1, 1)], set(), "n")
        assert not maze_result.found
        assert maze_result.parents == {} and maze_result.costs == {}
        color_result = ColorStateSearch(grid, CostModel(grid)).search(
            {GridPoint(0, 1, 1): ColorState.all()}, set(), "n"
        )
        assert not color_result.found and color_result.labels == {}


class TestGridIndexApi:
    """The flat-index surface must mirror the GridPoint shims exactly."""

    def test_index_roundtrip_and_neighbor_table(self):
        grid = RoutingGrid(make_design())
        table = grid.neighbor_table()
        for vertex in [GridPoint(0, 0, 0), GridPoint(1, 5, 7), GridPoint(2, 20, 20)]:
            index = grid.index_of(vertex)
            assert grid.vertex_of(index) == vertex
            for direction in ALL_DIRECTIONS:
                expected = grid.neighbor(vertex, direction)
                entry = table[index * 6 + DIRECTION_INDEX[direction]]
                if expected is None:
                    assert entry == -1
                else:
                    assert entry == grid.index_of(expected)

    def test_state_queries_match_between_surfaces(self):
        grid = RoutingGrid(make_design(color=1))
        vertex = GridPoint(0, 5, 5)
        index = grid.index_of(vertex)
        grid.occupy(vertex, "a")
        grid.occupy(vertex, "b")
        grid.add_history(vertex, 1.5)
        grid.set_vertex_color(GridPoint(0, 6, 5), "b", 2)
        net_id = grid.net_id("c")
        assert grid.is_occupied_by_other(vertex, "c") == grid.is_occupied_by_other_index(index, net_id)
        assert grid.congestion_cost(vertex, "c") == grid.congestion_cost_index(index, net_id)
        assert grid.color_costs(vertex, "c") == grid.color_costs_index(index, net_id)
        assert grid.occupants(vertex) == {"a", "b"}
        grid.release_net("a")
        assert grid.occupants(vertex) == {"b"}
        assert not grid.is_occupied_by_other(vertex, "b")

    def test_step_cost_matches_gridpoint_path(self):
        grid = RoutingGrid(make_design())
        model = CostModel(grid)
        grid.add_history(GridPoint(0, 6, 5), 2.0)
        grid.occupy(GridPoint(0, 6, 5), "other")
        vertex = GridPoint(0, 5, 5)
        for direction in ALL_DIRECTIONS:
            neighbor = grid.neighbor(vertex, direction)
            if neighbor is None:
                continue
            via_shim = model.weighted_traditional_cost(vertex, direction, neighbor, "n1")
            via_index = model.step_cost_index(
                vertex.layer,
                DIRECTION_INDEX[direction],
                grid.index_of(neighbor),
                "n1",
                grid.net_id_if_known("n1"),
            )
            assert via_shim == via_index

    def test_release_net_uses_reverse_index(self):
        grid = RoutingGrid(make_design())
        for col in range(3, 9):
            grid.occupy(GridPoint(0, col, 4), "wide")
        assert grid.release_net("wide") == 6
        assert grid.release_net("wide") == 0
        assert grid.occupants(GridPoint(0, 4, 4)) == set()


class TestColorStateMerge:
    """Equal-cost revisits must merge color states (paper Alg. 2)."""

    @pytest.mark.parametrize("engine_class", [ColorStateSearch, LegacyColorStateSearch])
    def test_equal_cost_paths_keep_both_masks(self, engine_class):
        grid = RoutingGrid(make_design())
        search = engine_class(grid, CostModel(grid))
        # Two seeds on one horizontal (preferred-direction) row, constrained
        # to different single masks, equidistant from the middle vertex: the
        # two arrivals tie on cost, so the middle must keep BOTH masks.
        left = GridPoint(0, 2, 10)
        right = GridPoint(0, 10, 10)
        middle = GridPoint(0, 6, 10)
        target = GridPoint(0, 6, 2)
        result = search.search(
            {left: ColorState.single(RED), right: ColorState.single(GREEN)},
            {target},
            "merge-net",
        )
        assert result.found
        state = result.color_state_of(middle)
        assert state.allows(RED) and state.allows(GREEN)

    def test_both_engines_agree_on_merged_labels(self):
        design = make_design()
        grid_a, grid_b = RoutingGrid(design), RoutingGrid(design)
        sources = {
            GridPoint(0, 2, 10): ColorState.single(RED),
            GridPoint(0, 10, 10): ColorState.single(GREEN),
        }
        targets = {GridPoint(0, 6, 2)}
        flat = ColorStateSearch(grid_a, CostModel(grid_a)).search(sources, targets, "n")
        legacy = LegacyColorStateSearch(grid_b, CostModel(grid_b)).search(sources, targets, "n")
        assert flat.reached == legacy.reached
        flat_labels = flat.labels
        legacy_labels = legacy.labels
        assert set(flat_labels) == set(legacy_labels)
        for vertex, label in flat_labels.items():
            other = legacy_labels[vertex]
            assert label.cost == other.cost
            assert label.color_state == other.color_state


class TestHistoryDecayWiring:
    """decay_history defaults to the DesignRules factor and is loop-driven."""

    def test_decay_uses_rules_factor_by_default(self):
        grid = RoutingGrid(make_design())
        vertex = GridPoint(0, 3, 3)
        grid.add_history(vertex, 2.0)
        grid.decay_history()
        assert grid.history(vertex) == pytest.approx(2.0 * grid.rules.history_decay)

    def test_routers_decay_each_negotiation_iteration(self, monkeypatch):
        case = suite_case("ispd18", 1, scale=0.5)
        router = DetailedRouter(case.build())
        calls = []
        original = router.grid.decay_history
        monkeypatch.setattr(
            router.grid,
            "decay_history",
            lambda factor=None: (calls.append(factor), original(factor))[1],
        )
        solution = router.run()
        assert len(calls) == solution.iterations
        assert all(factor == router.grid.rules.history_decay for factor in calls)
