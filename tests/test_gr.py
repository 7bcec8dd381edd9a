"""Tests for Steiner topology, global routing and guides."""

from hypothesis import example, given, settings, strategies as st

from repro.bench import SyntheticSpec, generate_design
from repro.geometry import Point, Rect
from repro.gr import GlobalRouter, GuideSet, RouteGuide, build_steiner_tree, rectilinear_mst
from repro.gr.steiner import hanan_steiner_points, mst_length
from repro.grid.gcell import GCell, GCellGrid

points = st.lists(
    st.tuples(st.integers(0, 60), st.integers(0, 60)).map(lambda t: Point(*t)),
    min_size=2,
    max_size=8,
    unique=True,
)

#: Small boxes and shared rows force duplicate points, collinear runs and
#: equal-distance ties -- the cases where Prim's tie-breaking matters.
tie_points = st.lists(
    st.one_of(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.tuples(st.integers(0, 40), st.just(7)),
        st.tuples(st.just(3), st.integers(0, 40)),
    ).map(lambda t: Point(*t)),
    max_size=10,
)


class TestSteiner:
    def test_mst_two_points(self):
        edges = rectilinear_mst([Point(0, 0), Point(3, 4)])
        assert len(edges) == 1
        assert edges[0][0].manhattan_distance(edges[0][1]) == 7

    def test_mst_spans_all_points(self):
        pts = [Point(0, 0), Point(10, 0), Point(0, 10), Point(10, 10)]
        edges = rectilinear_mst(pts)
        assert len(edges) == 3

    def test_duplicate_points_collapse(self):
        assert rectilinear_mst([Point(1, 1), Point(1, 1)]) == []

    def test_hanan_grid(self):
        pts = [Point(0, 0), Point(4, 8)]
        hanan = hanan_steiner_points(pts)
        assert Point(0, 8) in hanan and Point(4, 0) in hanan
        assert Point(0, 0) not in hanan

    def test_steiner_improves_on_l_shape(self):
        pts = [Point(0, 0), Point(10, 0), Point(5, 8)]
        tree = build_steiner_tree(pts)
        assert tree.is_connected()
        assert tree.length() <= mst_length(pts)

    def test_single_terminal(self):
        tree = build_steiner_tree([Point(3, 3)])
        assert tree.edges == [] and tree.is_connected()

    @given(tie_points)
    @example([Point(1, 1), Point(1, 1), Point(4, 1), Point(4, 1)])
    @example([Point(0, 0), Point(5, 0), Point(10, 0), Point(15, 0)])
    @example([Point(0, 0), Point(2, 0), Point(0, 2), Point(2, 2), Point(1, 1)])
    @settings(max_examples=200, deadline=None)
    def test_mst_length_equals_rectilinear_mst_edge_lengths(self, pts):
        edges = rectilinear_mst(pts)
        assert mst_length(pts) == sum(a.manhattan_distance(b) for a, b in edges)

    @given(points)
    @settings(max_examples=30, deadline=None)
    def test_steiner_never_worse_than_mst_and_connected(self, pts):
        tree = build_steiner_tree(pts)
        assert tree.is_connected()
        assert tree.length() <= mst_length(pts)
        assert tree.two_pin_connections() == tree.edges


def small_design():
    spec = SyntheticSpec(
        name="gr-test", seed=5, cols=20, rows=20, num_layers=3, num_nets=8,
        obstacle_count=2, net_radius=8, row_spacing=3, cell_spacing=3,
    )
    return generate_design(spec)


class TestGuides:
    def test_route_guide_membership_and_expansion(self):
        design = small_design()
        gcells = GCellGrid(design, gcell_size=16)
        guide = RouteGuide("n")
        guide.add_cell(GCell(0, 1, 1))
        assert guide.covers_cell(GCell(0, 1, 1))
        grown = guide.expanded(gcells, margin_cells=1)
        assert GCell(0, 0, 0) in grown.cells and GCell(1, 1, 1) in grown.cells
        assert guide.layers() == {0}

    def test_guideset_point_queries(self):
        design = small_design()
        gcells = GCellGrid(design, gcell_size=16)
        guides = GuideSet(gcells)
        guide = RouteGuide("net_0")
        guide.add_cell(GCell(0, 0, 0))
        guides.add(guide)
        assert guides.covers_point("net_0", 0, Point(5, 5))
        assert not guides.covers_point("net_0", 0, Point(40, 40))
        # Unguided nets are never penalised.
        assert guides.covers_point("unknown", 0, Point(40, 40))
        assert guides.guide_of("missing") is None
        assert guides.net_names() == ["net_0"]

    def test_coverage_statistics(self):
        design = small_design()
        guides = GuideSet(GCellGrid(design, gcell_size=16))
        assert guides.coverage_statistics()["nets"] == 0


class TestGlobalRouter:
    def test_produces_guide_for_every_net(self):
        design = small_design()
        router = GlobalRouter(design, gcell_size=16, capacity=4)
        guides = router.route()
        assert len(guides) == len(design.routable_nets())
        for net in design.routable_nets():
            guide = guides.guide_of(net.name)
            assert guide is not None and guide.cells

    def test_guides_cover_all_pins(self):
        design = small_design()
        guides = GlobalRouter(design, gcell_size=16).route()
        for net in design.routable_nets():
            for pin in net.pins:
                center = pin.center()
                assert guides.covers_point(net.name, 0, center), (net.name, center)

    def test_congestion_is_tracked(self):
        design = small_design()
        router = GlobalRouter(design, gcell_size=16, capacity=1)
        router.route()
        # With unit capacity some boundary must be used at least once.
        assert sum(router.gcell_grid._usage.values()) > 0
