"""Tests for the routing grid, GCell grid and routed-result structures."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.design import Design, Net, Obstacle, Pin
from repro.geometry import GridPoint, Point, Rect
from repro.grid import (
    ALL_DIRECTIONS,
    Direction,
    GCellGrid,
    NetRoute,
    PLANAR_DIRECTIONS,
    RoutingGrid,
    RoutingSolution,
    Stitch,
)
from repro.grid.gcell import GCell
from repro.tech import DesignRules, make_default_tech


def make_design(color=-1, die=80):
    tech = make_default_tech(num_layers=3, color_spacing=8)
    design = Design(name="grid-test", tech=tech, die_area=Rect(0, 0, die, die))
    pin_a = Pin(name="a")
    pin_a.add_shape(0, Rect(4, 4, 8, 8))
    pin_b = Pin(name="b")
    pin_b.add_shape(0, Rect(60, 60, 64, 64))
    design.add_net(Net(name="n1", pins=[pin_a, pin_b]))
    design.add_obstacle(Obstacle(layer=1, rect=Rect(20, 20, 28, 28), name="blk"))
    if color >= 0:
        design.add_obstacle(Obstacle(layer=0, rect=Rect(40, 40, 48, 44), name="fx", color=color))
    return design


class TestDirections:
    def test_deltas_and_opposites(self):
        assert Direction.EAST.delta == (0, 1, 0)
        assert Direction.UP.is_via and not Direction.EAST.is_via
        assert Direction.NORTH.opposite is Direction.SOUTH
        assert len(PLANAR_DIRECTIONS) == 4 and len(ALL_DIRECTIONS) == 6


class TestRoutingGrid:
    def test_dimensions_and_bounds(self):
        grid = RoutingGrid(make_design())
        assert grid.num_layers == 3
        assert grid.num_cols == 21 and grid.num_rows == 21
        assert grid.in_bounds(GridPoint(0, 0, 0))
        assert not grid.in_bounds(GridPoint(0, 21, 0))
        assert not grid.in_bounds(GridPoint(3, 0, 0))

    def test_physical_mapping_roundtrip(self):
        grid = RoutingGrid(make_design())
        vertex = GridPoint(1, 3, 5)
        point = grid.physical_point(vertex)
        assert point == Point(12, 20)
        assert grid.nearest_vertex(1, point) == vertex

    def test_vertices_covering(self):
        grid = RoutingGrid(make_design())
        covered = grid.vertices_covering(0, Rect(4, 4, 8, 8))
        assert GridPoint(0, 1, 1) in covered and GridPoint(0, 2, 2) in covered
        assert len(covered) == 4

    def test_blockages_from_design(self):
        grid = RoutingGrid(make_design())
        assert grid.is_blocked(GridPoint(1, 6, 6))
        assert not grid.is_blocked(GridPoint(0, 6, 6))

    def test_pin_access_vertices_avoid_blockages(self):
        design = make_design()
        grid = RoutingGrid(design)
        pin = design.nets[0].pins[0]
        vertices = grid.pin_access_vertices(pin)
        assert vertices and all(v.layer == 0 for v in vertices)
        assert all(not grid.is_blocked(v) for v in vertices)

    def test_neighbors_at_corner(self):
        grid = RoutingGrid(make_design())
        neighbors = dict(grid.neighbors(GridPoint(0, 0, 0)))
        assert Direction.WEST not in neighbors and Direction.SOUTH not in neighbors
        assert Direction.DOWN not in neighbors
        assert Direction.EAST in neighbors and Direction.UP in neighbors

    def test_base_edge_cost_prefers_layer_direction(self):
        grid = RoutingGrid(make_design())
        horizontal_layer_vertex = GridPoint(0, 5, 5)
        assert grid.base_edge_cost(horizontal_layer_vertex, Direction.EAST) == 1.0
        assert grid.base_edge_cost(horizontal_layer_vertex, Direction.NORTH) == pytest.approx(
            grid.rules.wrong_way_penalty
        )
        assert grid.base_edge_cost(horizontal_layer_vertex, Direction.UP) == pytest.approx(
            grid.rules.via_cost
        )

    def test_occupancy_and_congestion(self):
        grid = RoutingGrid(make_design())
        vertex = GridPoint(0, 5, 5)
        assert grid.congestion_cost(vertex, "n1") == 0.0
        grid.occupy(vertex, "other")
        assert grid.is_occupied_by_other(vertex, "n1")
        assert grid.congestion_cost(vertex, "n1") >= grid.rules.occupancy_penalty
        assert grid.congestion_cost(vertex, "other") == 0.0

    def test_history(self):
        grid = RoutingGrid(make_design())
        vertex = GridPoint(0, 2, 2)
        grid.add_history(vertex, 2.0)
        assert grid.history(vertex) == 2.0
        grid.decay_history(0.5)
        assert grid.history(vertex) == 1.0

    def test_color_costs_reflect_other_nets_only(self):
        grid = RoutingGrid(make_design())
        vertex = GridPoint(0, 5, 5)
        neighbor = GridPoint(0, 6, 5)
        grid.set_vertex_color(neighbor, "other", 2)
        costs_self = grid.color_costs(vertex, "other")
        costs_other = grid.color_costs(vertex, "n1")
        assert costs_self == [0.0, 0.0, 0.0]
        assert costs_other[2] > 0 and costs_other[0] == 0.0
        assert grid.color_cost(vertex, "n1", 2) == costs_other[2]

    def test_release_net_clears_colors_and_pressure(self):
        grid = RoutingGrid(make_design())
        vertex = GridPoint(0, 6, 5)
        probe = GridPoint(0, 5, 5)
        grid.occupy(vertex, "other")
        grid.set_vertex_color(vertex, "other", 1)
        assert grid.color_costs(probe, "n1")[1] > 0
        released = grid.release_net("other")
        assert released == 1
        assert grid.vertex_color(vertex) is None
        assert grid.color_costs(probe, "n1") == [0.0, 0.0, 0.0]

    def test_fixed_colored_obstacle_pressure(self):
        grid = RoutingGrid(make_design(color=1))
        near = grid.nearest_vertex(0, Point(44, 46))
        costs = grid.color_costs(near, "n1")
        assert costs[1] > 0 and costs[0] == 0.0

    @given(
        xlo=st.integers(-12, 84),
        ylo=st.integers(-12, 84),
        width=st.integers(0, 20),
        height=st.integers(0, 20),
        wire_width=st.integers(1, 7),
        color=st.integers(0, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_fixed_shape_pressure_matches_rect_gap(
        self, xlo, ylo, width, height, wire_width, color
    ):
        rules = DesignRules(color_spacing=8, wire_width=wire_width)
        tech = make_default_tech(num_layers=3, color_spacing=8, rules=rules)
        design = Design(name="gap", tech=tech, die_area=Rect(0, 0, 80, 80))
        rect = Rect(xlo, ylo, xlo + width, ylo + height)
        design.add_obstacle(Obstacle(layer=0, rect=rect, name="fx", color=color))
        grid = RoutingGrid(design)
        expected = {
            grid.index_of(vertex)
            for vertex in (
                GridPoint(0, col, row)
                for col in range(grid.num_cols)
                for row in range(grid.num_rows)
            )
            if grid.vertex_rect(vertex).distance_to(rect) < 8
        }
        pressure = grid._pressure_buf
        pressed = {
            index for index in range(grid.num_vertices) if pressure[3 * index + color]
        }
        assert pressed == expected

    def test_recolor_same_vertex_replaces_pressure(self):
        grid = RoutingGrid(make_design())
        vertex = GridPoint(0, 6, 5)
        probe = GridPoint(0, 5, 5)
        grid.set_vertex_color(vertex, "other", 0)
        grid.set_vertex_color(vertex, "other", 2)
        costs = grid.color_costs(probe, "n1")
        assert costs[0] == 0.0 and costs[2] > 0

    def test_pressure_matches_bruteforce(self):
        grid = RoutingGrid(make_design(color=2))
        placements = [
            (GridPoint(0, 5, 5), "x", 0),
            (GridPoint(0, 6, 5), "y", 0),
            (GridPoint(0, 7, 6), "y", 1),
            (GridPoint(0, 10, 10), "z", 2),
        ]
        for vertex, net, color in placements:
            grid.set_vertex_color(vertex, net, color)
        dcolor = grid.rules.color_spacing_on(0)
        for probe in [GridPoint(0, c, r) for c in range(3, 13) for r in range(3, 13)]:
            brute = [0.0, 0.0, 0.0]
            for _rect, shape in grid.colored_shapes_near(0, grid.vertex_rect(probe), dcolor):
                if shape.net_name == "q":
                    continue
                brute[shape.color] += grid.rules.conflict_cost
            assert grid.color_costs(probe, "q") == pytest.approx(brute)

    def test_reset_routing_state_keeps_blockages_and_fixed_colors(self):
        grid = RoutingGrid(make_design(color=0))
        grid.occupy(GridPoint(0, 5, 5), "n1")
        grid.set_vertex_color(GridPoint(0, 5, 5), "n1", 1)
        grid.reset_routing_state()
        stats = grid.snapshot_statistics()
        assert stats["occupied"] == 0 and stats["colored"] == 0
        assert grid.is_blocked(GridPoint(1, 6, 6))
        near_fixed = grid.nearest_vertex(0, Point(44, 46))
        assert grid.color_costs(near_fixed, "n1")[0] > 0


class TestGCellGrid:
    def test_cell_mapping(self):
        design = make_design()
        gcells = GCellGrid(design, gcell_size=16, capacity=4)
        assert gcells.num_gx == 5 and gcells.num_gy == 5
        cell = gcells.cell_of_point(0, Point(17, 3))
        assert cell == GCell(0, 1, 0)
        assert gcells.cell_rect(cell) == Rect(16, 0, 32, 16)

    def test_usage_and_congestion(self):
        design = make_design()
        gcells = GCellGrid(design, gcell_size=16, capacity=2)
        a, b = GCell(1, 0, 0), GCell(1, 1, 0)
        base = gcells.congestion_cost(a, b)
        for _ in range(3):
            gcells.add_usage(a, b)
        assert gcells.usage(a, b) == 3
        assert gcells.congestion_cost(a, b) > base
        assert gcells.total_overflow() > 0

    def test_blockage_reduces_capacity(self):
        design = make_design()
        gcells = GCellGrid(design, gcell_size=16, capacity=4)
        blocked_cell = gcells.cell_of_point(1, Point(24, 24))
        free_cell = GCell(1, 4, 4)
        assert gcells.effective_capacity(blocked_cell) < gcells.effective_capacity(free_cell)

    def test_neighbors_stay_in_bounds(self):
        design = make_design()
        gcells = GCellGrid(design, gcell_size=16)
        for neighbor in gcells.neighbors(GCell(0, 0, 0)):
            assert gcells.in_bounds(neighbor)


class TestNetRoute:
    def test_add_path_and_metrics(self):
        route = NetRoute(net_name="n")
        path = [GridPoint(0, 0, 0), GridPoint(0, 1, 0), GridPoint(1, 1, 0), GridPoint(1, 1, 1)]
        route.add_path(path)
        assert route.wirelength() == 2 and route.via_count() == 1
        assert route.is_connected()

    def test_connects_all(self):
        route = NetRoute(net_name="n")
        route.add_path([GridPoint(0, 0, 0), GridPoint(0, 1, 0), GridPoint(0, 2, 0)])
        groups = [[GridPoint(0, 0, 0)], [GridPoint(0, 2, 0)]]
        assert route.connects_all(groups)
        assert not route.connects_all(groups + [[GridPoint(0, 9, 9)]])

    def test_disconnected_route(self):
        route = NetRoute(net_name="n")
        route.add_edge(GridPoint(0, 0, 0), GridPoint(0, 1, 0))
        route.add_edge(GridPoint(0, 5, 5), GridPoint(0, 6, 5))
        assert not route.is_connected()

    def test_stitch_canonical_order(self):
        a, b = GridPoint(0, 2, 2), GridPoint(0, 1, 2)
        stitch = Stitch("n", a, b)
        assert stitch.a == b and stitch.b == a
        assert Stitch("n", a, b) == Stitch("n", b, a)

    def test_recount_stitches(self):
        route = NetRoute(net_name="n")
        path = [GridPoint(0, 0, 0), GridPoint(0, 1, 0), GridPoint(0, 2, 0)]
        route.add_path(path)
        route.set_color(path[0], 0)
        route.set_color(path[1], 0)
        route.set_color(path[2], 2)
        assert route.recount_stitches() == 1
        route.set_color(path[2], 0)
        assert route.recount_stitches() == 0

    def test_color_validation(self):
        route = NetRoute(net_name="n")
        with pytest.raises(ValueError):
            route.set_color(GridPoint(0, 0, 0), 5)

    def test_segments_merge_straight_runs(self):
        design = make_design()
        grid = RoutingGrid(design)
        route = NetRoute(net_name="n")
        route.add_path([GridPoint(0, 0, 0), GridPoint(0, 1, 0), GridPoint(0, 2, 0), GridPoint(0, 2, 1)])
        segments = route.segments(grid)
        horizontal = [s for s in segments if s.is_horizontal and s.length > 0]
        assert len(horizontal) == 1 and horizontal[0].length == 8

    def test_adjacency(self):
        route = NetRoute(net_name="n")
        route.add_path([GridPoint(0, 0, 0), GridPoint(0, 1, 0), GridPoint(0, 2, 0)])
        adjacency = route.adjacency()
        assert len(adjacency[GridPoint(0, 1, 0)]) == 2


class TestRoutingSolution:
    def test_totals_and_ownership(self):
        solution = RoutingSolution(design_name="d")
        route_a = NetRoute(net_name="a")
        route_a.add_path([GridPoint(0, 0, 0), GridPoint(0, 1, 0)])
        route_a.set_color(GridPoint(0, 0, 0), 0)
        route_b = NetRoute(net_name="b", routed=False)
        solution.add_route(route_a)
        solution.add_route(route_b)
        assert solution.total_wirelength() == 1
        assert len(solution.routed_nets()) == 1 and len(solution.failed_nets()) == 1
        assert solution.vertex_ownership()[GridPoint(0, 0, 0)] == {"a"}
        assert 0.0 < solution.colored_vertex_fraction() < 1.0
