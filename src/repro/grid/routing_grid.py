"""The 3-D routing grid graph.

Vertices live at ``(layer, col, row)`` where *col*/*row* index a uniform
track lattice covering the die.  Edges connect planar neighbours on the same
layer (preferred-direction moves are cheap, wrong-way moves are penalised)
and vertically adjacent layers through vias.

The grid also stores the mutable routing state shared between nets:

* hard blockages (obstacles, macro obstructions),
* per-vertex net occupancy (who currently owns the metal at a vertex),
* per-vertex mask colors of already routed-and-colored metal,
* pre-colored fixed shapes (colored obstacles) that constrain the TPL masks,
* history cost accumulated by the rip-up-and-reroute loop.

All routers (the plain detailed router, the Mr.TPL color-state router, and
the DAC-2012 baseline) operate on this one structure so their comparisons
run on identical inputs.

Flat vertex indexing
--------------------

The grid's native addressing scheme is the **flat index**: every vertex maps
to ``index = (layer * num_cols + col) * num_rows + row`` (see
:meth:`RoutingGrid.index_of` / :meth:`RoutingGrid.vertex_of`).  All mutable
per-vertex state lives in dense ``array``/``bytearray`` buffers indexed by
that integer, so the search engines' hot path is O(1) array reads with no
:class:`~repro.geometry.GridPoint` allocation and no dict hashing.  A
precomputed neighbour table (:meth:`RoutingGrid.neighbor_table`) stores, for
every vertex, its six neighbour indices in :data:`ALL_DIRECTIONS` order
(``-1`` for out-of-bounds).  The legacy ``GridPoint``-based API is preserved
on top as thin shims converting at the boundary.

Two deliberately sparse side tables remain dicts: the rare multi-owner
occupancy case (a short, negotiated away by rip-up & reroute) and the
per-net color-pressure overlay (non-zero only near a net's own metal).

The mutation choke point
------------------------

Every mutation of searchable state flows through **one** method,
:meth:`RoutingGrid.apply_op`, as a :mod:`repro.journal` op tuple.  The
public mutators (``occupy``/``release_net``/``set_vertex_color``/
``add_history``/``decay_history``/``block_*``/``reset_routing_state``) are
thin wrappers that build the op; ``apply_op`` dispatches it to the private
``_apply_*`` handler, records it in the attached
:class:`~repro.journal.MutationJournal` (if any), and taps the delta
listeners of :mod:`repro.check`.  Replaying a journal onto a fresh grid
over the same design therefore reproduces every buffer bit-identically --
the property the persistent worker pool and checkpoint/resume rest on.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.accel import get_numpy
from repro.design import Design
from repro.geometry import GridPoint, Point, Rect, SpatialIndex
from repro.journal import (
    MutationJournal,
    OP_BLOCK_RECT,
    OP_BLOCK_VERTEX,
    OP_COLOR,
    OP_DECAY,
    OP_HISTORY,
    OP_INTERN,
    OP_OCCUPY,
    OP_RELEASE,
    OP_RESET,
    Op,
)
from repro.tech import DesignRules, TechStack


class Direction(Enum):
    """Search directions from a grid vertex (paper Alg. 2: ``{F,B,R,L,U,D}``)."""

    EAST = (0, 1, 0)    # +col
    WEST = (0, -1, 0)   # -col
    NORTH = (0, 0, 1)   # +row
    SOUTH = (0, 0, -1)  # -row
    UP = (1, 0, 0)      # +layer (via)
    DOWN = (-1, 0, 0)   # -layer (via)

    @property
    def delta(self) -> Tuple[int, int, int]:
        """Return ``(dlayer, dcol, drow)``."""
        return self.value

    @property
    def is_via(self) -> bool:
        """Return ``True`` for layer-changing moves."""
        return self in (Direction.UP, Direction.DOWN)

    @property
    def is_horizontal(self) -> bool:
        """Return ``True`` for moves along the x axis."""
        return self in (Direction.EAST, Direction.WEST)

    @property
    def is_vertical(self) -> bool:
        """Return ``True`` for moves along the y axis."""
        return self in (Direction.NORTH, Direction.SOUTH)

    @property
    def opposite(self) -> "Direction":
        """Return the reverse direction."""
        return _OPPOSITE[self]


_OPPOSITE = {
    Direction.EAST: Direction.WEST,
    Direction.WEST: Direction.EAST,
    Direction.NORTH: Direction.SOUTH,
    Direction.SOUTH: Direction.NORTH,
    Direction.UP: Direction.DOWN,
    Direction.DOWN: Direction.UP,
}

#: Planar directions only (no vias); the stitch rule of Algorithm 2 applies
#: to these, because a via between layers is never a stitch.
PLANAR_DIRECTIONS: Tuple[Direction, ...] = (
    Direction.EAST,
    Direction.WEST,
    Direction.NORTH,
    Direction.SOUTH,
)

#: All six search directions.  The neighbour-table direction slots follow
#: this order, so ``Direction`` and small-int direction indices interconvert
#: through :data:`DIRECTION_INDEX` / :data:`INDEX_DIRECTION`.
ALL_DIRECTIONS: Tuple[Direction, ...] = PLANAR_DIRECTIONS + (Direction.UP, Direction.DOWN)

#: Number of neighbour slots per vertex in the flat neighbour table.
NUM_DIRECTIONS = 6

#: ``Direction`` -> neighbour-table slot (0..5).
DIRECTION_INDEX: Dict[Direction, int] = {d: i for i, d in enumerate(ALL_DIRECTIONS)}

#: Neighbour-table slot (0..5) -> ``Direction``.
INDEX_DIRECTION: Tuple[Direction, ...] = ALL_DIRECTIONS

#: Slots >= this index are via (layer-changing) moves.
FIRST_VIA_DIRECTION = 4


@dataclass(frozen=True)
class OffsetArrays:
    """Flat-buffer twin of an :meth:`RoutingGrid.interaction_offsets` table.

    The tuple-of-tuples table drives the pure-Python loops; the three
    parallel ``array('q')`` buffers are what the vectorised / native check
    kernels consume directly (zero-copy ``frombuffer`` / ``Py_buffer``).
    Frozen and cached on the grid so every consumer shares one copy.
    """

    offsets: Tuple[Tuple[int, int, int], ...]
    dcols: array
    drows: array
    deltas: array

    def __len__(self) -> int:
        return len(self.offsets)


@dataclass(frozen=True)
class ColoredShape:
    """A piece of colored metal registered on the grid for TPL interactions."""

    net_name: str
    color: int
    rect: Rect
    layer: int


class RoutingGrid:
    """Mutable routing grid over a :class:`~repro.design.Design`.

    Parameters
    ----------
    design:
        The design whose die area, obstacles and pins seed the grid.
    pitch:
        Track pitch in DBU; a single pitch shared by all layers keeps vertex
        columns/rows aligned vertically so vias land on track crossings.
    """

    def __init__(self, design: Design, pitch: Optional[int] = None) -> None:
        self.design = design
        self.tech: TechStack = design.tech
        self.rules: DesignRules = design.tech.rules
        self.pitch = pitch if pitch is not None else self.tech.layers[0].pitch
        if self.pitch <= 0:
            raise ValueError("track pitch must be positive")

        die = design.die_area
        self.origin = Point(die.xlo, die.ylo)
        self.num_layers = self.tech.num_layers
        self.num_cols = max(2, die.width // self.pitch + 1)
        self.num_rows = max(2, die.height // self.pitch + 1)
        #: Vertices per layer plane (``num_cols * num_rows``).
        self.plane_size = self.num_cols * self.num_rows
        num_vertices = self.num_layers * self.plane_size

        # --- Flat per-vertex state buffers (indexed by the flat index) ---
        # Hard blockages: 1 byte per vertex.
        self._blocked_buf = bytearray(num_vertices)
        # Single-owner occupancy: 0 = free, >0 = net id, -1 = multi-owner
        # (owners in the `_multi_owners` side table).
        self._owner_buf = array("i", [0]) * num_vertices
        # Final mask color of routed metal: 0 = uncolored, else color + 1.
        self._color_buf = bytearray(num_vertices)
        # History cost from rip-up & reroute negotiation.
        self._history_buf = array("d", [0.0]) * num_vertices
        # Incremental color pressure, 3 doubles per vertex: for every vertex,
        # how much conflict cost each mask would currently incur there
        # (aggregated over all colored metal within Dcolor).
        self._pressure_buf = array("d", [0.0, 0.0, 0.0]) * num_vertices

        # --- Sparse side tables ---
        # Net-name interning: ids start at 1 (0 means "free" in _owner_buf).
        self._net_ids: Dict[str, int] = {}
        self._net_names: List[str] = [""]
        # Rare multi-owner (short) case: index -> set of net ids.
        self._multi_owners: Dict[int, Set[int]] = {}
        # Reverse occupancy index so release_net is O(|net|), not O(|grid|).
        self._net_occupied: Dict[int, Set[int]] = {}
        # Indices with (potentially) non-zero history, for O(touched) decay.
        self._history_touched: Set[int] = set()
        # Per-net pressure overlay: net id -> {index: [r, g, b]}.  Nested so
        # a search can grab one net's whole overlay up front (the vectorised
        # per-search pressure snapshot enumerates it), while the hot-path
        # lookup stays one int-keyed dict get on the inner map.  Allows
        # excluding a net's own contribution when it is the one being routed.
        self._net_pressure: Dict[int, Dict[int, List[float]]] = {}
        # Per-net colored vertices: net id -> {index: color}.
        self._net_colored_vertices: Dict[int, Dict[int, int]] = {}
        # Interaction offsets precomputed per radius (pressure, checkers),
        # frozen to tuples so no caller can corrupt the shared cache.
        self._interaction_offsets_cache: Dict[int, Tuple[Tuple[int, int, int], ...]] = {}
        # Flat-buffer twins of the offset tables (repro.check kernels),
        # keyed by (radius, include_center).
        self._offset_arrays_cache: Dict[Tuple[int, bool], "OffsetArrays"] = {}
        # Per-layer canonical reach offsets (max(Dcolor, min_spacing)) so
        # the incremental checkers and the scheduler share one table.
        self._layer_offsets_cache: Dict[int, Tuple[Tuple[int, int, int], ...]] = {}
        # Per-radius block half-width when the offsets form a full square
        # (they do for the L-infinity spacing predicate); lets the numpy
        # pressure kernel use strided-slice adds instead of offset loops.
        self._block_reach_cache: Dict[int, Optional[int]] = {}
        # Cached numpy view over the live pressure buffer, invalidated when
        # the buffer object is replaced (reset_routing_state).
        self._pressure_np_view: Optional[Tuple[object, object]] = None
        # Lazily built flat-index -> GridPoint table (geometry is immutable).
        self._vertex_table: Optional[Tuple[GridPoint, ...]] = None

        # Precomputed neighbour table, built lazily on first use (grids are
        # also constructed by code that never searches them).
        self._neighbor_table: Optional[array] = None

        # Monotone counter bumped on every mutation of searchable state
        # (occupancy, colors, pressure, history, blockages, resets).  Cost
        # snapshots key their caches on it: as long as the epoch is
        # unchanged, a previously built per-net snapshot is still exact.
        self._mutation_epoch = 0

        # Attached mutation journal (None = not recording).  When set,
        # apply_op appends every applied op, so the journal is a complete,
        # replayable event log of this grid's post-attach mutations.
        self._journal: Optional[MutationJournal] = None

        # Delta listeners (repro.check.DirtyRegionTracker): notified of
        # per-net occupancy / color commits and releases so incremental
        # checkers can re-validate only the changed neighbourhood.  Bound
        # hook methods are cached per event at subscribe time, so the hot
        # paths pay one truthiness test plus direct calls -- no per-event
        # attribute lookup.
        self._delta_listeners: List[object] = []
        self._occupy_hooks: List = []
        self._release_hooks: List = []
        self._color_hooks: List = []
        self._reset_hooks: List = []

        # Colored metal shapes (routed wires and pre-colored obstacles) for
        # color-distance queries, one spatial index per layer.
        self._colored_shapes: List[SpatialIndex[ColoredShape]] = [
            SpatialIndex(bucket_size=max(self.pitch * 8, 16)) for _ in range(self.num_layers)
        ]
        # Blockage shapes per layer for spacing-aware cost queries.
        self._blockage_shapes: List[SpatialIndex[str]] = [
            SpatialIndex(bucket_size=max(self.pitch * 8, 16)) for _ in range(self.num_layers)
        ]

        self._apply_design_blockages()
        self._register_fixed_colors()

    # ------------------------------------------------------------------
    # Flat vertex indexing
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Return the total vertex count."""
        return self.num_layers * self.plane_size

    @property
    def mutation_epoch(self) -> int:
        """Return the monotone mutation counter over searchable grid state.

        Bumped by every occupancy/color/history/blockage mutation and by
        :meth:`reset_routing_state`.  Consumers (per-search cost snapshots,
        the batch executor) may reuse any state derived from the grid for
        as long as the epoch is unchanged.
        """
        return self._mutation_epoch

    def index_of(self, vertex: GridPoint) -> int:
        """Return the flat index of an **in-bounds** *vertex*.

        The mapping is ``(layer * num_cols + col) * num_rows + row``; callers
        holding possibly out-of-bounds vertices must check :meth:`in_bounds`
        first (the GridPoint compatibility shims do).
        """
        return (vertex.layer * self.num_cols + vertex.col) * self.num_rows + vertex.row

    def vertex_of(self, index: int) -> GridPoint:
        """Return the :class:`GridPoint` addressed by flat *index*."""
        layer, rem = divmod(index, self.plane_size)
        col, row = divmod(rem, self.num_rows)
        return GridPoint(layer, col, row)

    def in_bounds(self, vertex: GridPoint) -> bool:
        """Return ``True`` when *vertex* lies inside the grid."""
        return (
            0 <= vertex.layer < self.num_layers
            and 0 <= vertex.col < self.num_cols
            and 0 <= vertex.row < self.num_rows
        )

    def vertex_table(self) -> Tuple[GridPoint, ...]:
        """Return every :class:`GridPoint` indexed by flat index, cached.

        The geometry never changes after construction, so hit-processing
        loops (the incremental checkers translate thousands of flat kernel
        hits back to vertices per refresh) index this table instead of
        paying a :meth:`vertex_of` divmod + allocation per hit.
        """
        table = self._vertex_table
        if table is None:
            vertex_of = self.vertex_of
            table = tuple(vertex_of(index) for index in range(self.num_vertices))
            self._vertex_table = table
        return table

    def neighbor_table(self) -> array:
        """Return the precomputed flat neighbour table.

        Entry ``index * 6 + d`` holds the neighbour index of vertex *index*
        in direction ``ALL_DIRECTIONS[d]``, or ``-1`` when that move leaves
        the grid.  Built once, lazily, in O(6 V).
        """
        if self._neighbor_table is None:
            self._neighbor_table = self._build_neighbor_table()
        return self._neighbor_table

    def _build_neighbor_table(self) -> array:
        layers, cols, rows = self.num_layers, self.num_cols, self.num_rows
        plane = self.plane_size
        table = [-1] * (NUM_DIRECTIONS * self.num_vertices)
        index = 0
        for layer in range(layers):
            up_ok = layer + 1 < layers
            down_ok = layer > 0
            for col in range(cols):
                east_ok = col + 1 < cols
                west_ok = col > 0
                for row in range(rows):
                    base = NUM_DIRECTIONS * index
                    if east_ok:
                        table[base] = index + rows
                    if west_ok:
                        table[base + 1] = index - rows
                    if row + 1 < rows:
                        table[base + 2] = index + 1
                    if row > 0:
                        table[base + 3] = index - 1
                    if up_ok:
                        table[base + 4] = index + plane
                    if down_ok:
                        table[base + 5] = index - plane
                    index += 1
        return array("i", table)

    # ------------------------------------------------------------------
    # Delta listeners (incremental checking hooks)
    # ------------------------------------------------------------------

    def add_delta_listener(self, listener: object) -> None:
        """Subscribe *listener* to per-net occupancy/color delta events.

        A listener may implement any subset of ``on_occupy(net_id, index)``,
        ``on_release(net_id, indices)``, ``on_color(net_id, index, color)``
        and ``on_reset()``; missing hooks are skipped.  Listeners must not
        mutate the grid from inside a callback.
        """
        if listener not in self._delta_listeners:
            self._delta_listeners.append(listener)
            self._rebuild_delta_hooks()

    def remove_delta_listener(self, listener: object) -> None:
        """Unsubscribe *listener*; unknown listeners are ignored."""
        try:
            self._delta_listeners.remove(listener)
        except ValueError:
            return
        self._rebuild_delta_hooks()

    def _rebuild_delta_hooks(self) -> None:
        self._occupy_hooks = self._bound_hooks("on_occupy")
        self._release_hooks = self._bound_hooks("on_release")
        self._color_hooks = self._bound_hooks("on_color")
        self._reset_hooks = self._bound_hooks("on_reset")

    def _bound_hooks(self, hook: str) -> List:
        return [
            callback
            for listener in self._delta_listeners
            for callback in (getattr(listener, hook, None),)
            if callback is not None
        ]

    # ------------------------------------------------------------------
    # Mutation choke point (journal ops)
    # ------------------------------------------------------------------

    @property
    def journal(self) -> Optional[MutationJournal]:
        """Return the attached mutation journal, or ``None``."""
        return self._journal

    def attach_journal(
        self, journal: Optional[MutationJournal] = None
    ) -> MutationJournal:
        """Attach (creating if needed) a journal recording every future op.

        The journal captures only post-attach mutations; a replica must
        start from the state the grid had at attach time (for an attach
        right after construction: a fresh grid over the same design).
        Re-attaching while a different journal is active raises -- two
        concurrent journals would each hold an incomplete stream.
        """
        if journal is None:
            journal = MutationJournal()
        if self._journal is not None and self._journal is not journal:
            raise RuntimeError("grid already has a different journal attached")
        self._journal = journal
        return journal

    def detach_journal(self) -> Optional[MutationJournal]:
        """Stop recording and return the previously attached journal."""
        journal = self._journal
        self._journal = None
        return journal

    def apply_op(self, op: Op):
        """Apply one :mod:`repro.journal` op -- THE mutation choke point.

        Every grid mutation flows through here, whether issued by a public
        mutator, replayed from a commit log (:mod:`repro.sched.commit`), or
        replayed from a journal (:func:`repro.journal.replay_ops`).  The op
        is dispatched to its ``_apply_*`` handler, recorded in the attached
        journal, and then tapped to the delta listeners of
        :mod:`repro.check` -- so journal replicas and incremental checkers
        observe the exact same event stream.  Returns the handler's result
        (e.g. the new net id for ``intern`` ops).
        """
        kind = op[0]
        handler = _OP_HANDLERS.get(kind)
        if handler is None:
            raise ValueError(f"unknown journal op {op!r}")
        result = handler(self, op)
        if self._journal is not None:
            self._journal.record(op)
        # Delta-listener tap: the live consumers of the op stream.
        if kind == OP_OCCUPY:
            if self._occupy_hooks:
                for callback in self._occupy_hooks:
                    callback(op[1], op[2])
        elif kind == OP_COLOR:
            if self._color_hooks:
                for callback in self._color_hooks:
                    callback(op[1], op[2], op[3])
        elif kind == OP_RELEASE:
            if self._release_hooks and result[1]:
                for callback in self._release_hooks:
                    callback(op[1], result[1])
        elif kind == OP_RESET:
            for callback in self._reset_hooks:
                callback()
        return result

    # ------------------------------------------------------------------
    # Net-name interning
    # ------------------------------------------------------------------

    def net_id(self, net_name: str) -> int:
        """Return (creating if needed) the interned id of *net_name* (>= 1).

        First-time interning is journalled (an ``intern`` op) because the
        occupancy buffer stores interned ids: a bit-identical replay must
        assign ids in the exact order the live grid did.
        """
        net_id = self._net_ids.get(net_name)
        if net_id is None:
            net_id = self.apply_op((OP_INTERN, net_name))
        return net_id

    def _apply_intern(self, op: Op) -> int:
        net_name = op[1]
        net_id = self._net_ids.get(net_name)
        if net_id is None:
            net_id = len(self._net_names)
            self._net_ids[net_name] = net_id
            self._net_names.append(net_name)
        return net_id

    def net_id_if_known(self, net_name: str) -> int:
        """Return the interned id of *net_name*, or ``0`` when never seen."""
        return self._net_ids.get(net_name, 0)

    def net_name_of(self, net_id: int) -> str:
        """Return the net name of interned id *net_id*."""
        return self._net_names[net_id]

    # ------------------------------------------------------------------
    # Geometry mapping
    # ------------------------------------------------------------------

    def physical_point(self, vertex: GridPoint) -> Point:
        """Return the DBU coordinate of *vertex*."""
        return Point(
            self.origin.x + vertex.col * self.pitch,
            self.origin.y + vertex.row * self.pitch,
        )

    def vertex_rect(self, vertex: GridPoint) -> Rect:
        """Return the metal rectangle a wire through *vertex* occupies."""
        half = max(self.rules.wire_width // 2, 0)
        point = self.physical_point(vertex)
        return Rect(point.x - half, point.y - half, point.x + half, point.y + half)

    def nearest_vertex(self, layer: int, point: Point) -> GridPoint:
        """Return the grid vertex on *layer* closest to *point* (clamped)."""
        col = round((point.x - self.origin.x) / self.pitch)
        row = round((point.y - self.origin.y) / self.pitch)
        col = min(max(col, 0), self.num_cols - 1)
        row = min(max(row, 0), self.num_rows - 1)
        return GridPoint(layer, col, row)

    def _covering_span(self, rect: Rect) -> Tuple[int, int, int, int]:
        """Return ``(col_lo, col_hi, row_lo, row_hi)`` of the track crossings
        inside *rect* (empty when ``lo > hi``)."""
        col_lo = max(0, -(-(rect.xlo - self.origin.x) // self.pitch))
        col_hi = min(self.num_cols - 1, (rect.xhi - self.origin.x) // self.pitch)
        row_lo = max(0, -(-(rect.ylo - self.origin.y) // self.pitch))
        row_hi = min(self.num_rows - 1, (rect.yhi - self.origin.y) // self.pitch)
        return col_lo, col_hi, row_lo, row_hi

    def vertices_covering(self, layer: int, rect: Rect) -> List[GridPoint]:
        """Return the vertices on *layer* whose track crossing lies inside *rect*."""
        col_lo, col_hi, row_lo, row_hi = self._covering_span(rect)
        vertices: List[GridPoint] = []
        for col in range(col_lo, col_hi + 1):
            for row in range(row_lo, row_hi + 1):
                vertices.append(GridPoint(layer, col, row))
        return vertices

    def pin_access_vertices(self, pin: "object") -> List[GridPoint]:
        """Return unblocked grid vertices covered by *pin*'s shapes.

        If a pin shape covers no track crossing (possible for tiny off-grid
        pins), the nearest vertex to the shape centre is used instead so
        every pin stays reachable.
        """
        vertices: List[GridPoint] = []
        for shape in pin.shapes:
            covered = self.vertices_covering(shape.layer, shape.rect)
            if not covered:
                covered = [self.nearest_vertex(shape.layer, shape.rect.center)]
            vertices.extend(v for v in covered if not self.is_blocked(v))
        if not vertices:
            # Every covered vertex is blocked; fall back to the raw cover so
            # the router can at least report the failure meaningfully.
            for shape in pin.shapes:
                covered = self.vertices_covering(shape.layer, shape.rect)
                if not covered:
                    covered = [self.nearest_vertex(shape.layer, shape.rect.center)]
                vertices.extend(covered)
        # Deterministic order helps reproducibility.
        return sorted(set(vertices))

    def all_vertices(self) -> Iterator[GridPoint]:
        """Iterate over every vertex of the grid (layer-major order)."""
        for layer in range(self.num_layers):
            for col in range(self.num_cols):
                for row in range(self.num_rows):
                    yield GridPoint(layer, col, row)

    # ------------------------------------------------------------------
    # Neighbourhood and base edge costs
    # ------------------------------------------------------------------

    def neighbor(self, vertex: GridPoint, direction: Direction) -> Optional[GridPoint]:
        """Return the vertex adjacent to *vertex* in *direction*, or ``None``."""
        dlayer, dcol, drow = direction.delta
        candidate = GridPoint(vertex.layer + dlayer, vertex.col + dcol, vertex.row + drow)
        if not self.in_bounds(candidate):
            return None
        return candidate

    def neighbors(self, vertex: GridPoint) -> Iterator[Tuple[Direction, GridPoint]]:
        """Yield ``(direction, neighbor)`` pairs for all in-bounds neighbours."""
        for direction in ALL_DIRECTIONS:
            nbr = self.neighbor(vertex, direction)
            if nbr is not None:
                yield direction, nbr

    def base_edge_cost(self, vertex: GridPoint, direction: Direction) -> float:
        """Return the traditional routing cost of moving from *vertex* in *direction*.

        This is the ``Cost_trad`` term of the paper's Eq. (1): unit wirelength
        for preferred-direction moves, a wrong-way penalty for off-direction
        moves, and the via cost for layer changes.  History and occupancy
        penalties are added separately because they depend on the destination
        vertex state at query time.
        """
        if direction.is_via:
            return self.rules.via_cost
        layer = self.tech.layers[vertex.layer]
        preferred = (
            layer.is_horizontal and direction.is_horizontal
            or layer.is_vertical and direction.is_vertical
        )
        return 1.0 if preferred else self.rules.wrong_way_penalty

    def congestion_cost(self, vertex: GridPoint, net_name: str) -> float:
        """Return history + occupancy cost of placing *net_name* metal at *vertex*."""
        if not self.in_bounds(vertex):
            return 0.0
        return self.congestion_cost_index(
            self.index_of(vertex), self.net_id_if_known(net_name)
        )

    def congestion_cost_index(self, index: int, net_id: int) -> float:
        """Index/net-id variant of :meth:`congestion_cost` (hot path)."""
        cost = self.rules.history_weight * self._history_buf[index]
        owner = self._owner_buf[index]
        if owner != 0 and owner != net_id:
            # Either a different single owner, or the multi-owner sentinel
            # (at least two distinct nets, so at least one is foreign).
            cost += self.rules.occupancy_penalty
        return cost

    # ------------------------------------------------------------------
    # Blockages
    # ------------------------------------------------------------------

    def block_vertex(self, vertex: GridPoint) -> None:
        """Mark a single vertex as unusable."""
        if self.in_bounds(vertex):
            self.apply_op((OP_BLOCK_VERTEX, self.index_of(vertex)))
        else:
            # Out-of-bounds blocks mutate nothing journal-worthy, but the
            # epoch bump is preserved for cache-invalidation parity.
            self._mutation_epoch += 1

    def _apply_block_vertex(self, op: Op) -> None:
        self._mutation_epoch += 1
        self._blocked_buf[op[1]] = 1

    def block_rect(self, layer: int, rect: Rect, name: str = "blockage") -> int:
        """Block every vertex covered by *rect* on *layer*; return the count."""
        return self.apply_op(
            (OP_BLOCK_RECT, layer, rect.xlo, rect.ylo, rect.xhi, rect.yhi, name)
        )

    def _apply_block_rect(self, op: Op) -> int:
        _kind, layer, xlo, ylo, xhi, yhi, name = op
        rect = Rect(xlo, ylo, xhi, yhi)
        self._mutation_epoch += 1
        vertices = self.vertices_covering(layer, rect)
        for vertex in vertices:
            self._blocked_buf[self.index_of(vertex)] = 1
        self._blockage_shapes[layer].insert(rect, name)
        return len(vertices)

    def is_blocked(self, vertex: GridPoint) -> bool:
        """Return ``True`` when *vertex* is covered by a hard blockage."""
        return self.in_bounds(vertex) and bool(self._blocked_buf[self.index_of(vertex)])

    def is_blocked_index(self, index: int) -> bool:
        """Index variant of :meth:`is_blocked`."""
        return bool(self._blocked_buf[index])

    def blocked_buffer(self) -> bytearray:
        """Return the live blockage buffer (read-only use by search engines)."""
        return self._blocked_buf

    def blocked_vertices(self) -> Set[GridPoint]:
        """Return a copy of the blocked vertex set."""
        return {
            self.vertex_of(index)
            for index, flag in enumerate(self._blocked_buf)
            if flag
        }

    def _apply_design_blockages(self) -> None:
        for shape in self.design.blockage_shapes():
            if 0 <= shape.layer < self.num_layers:
                self.block_rect(shape.layer, shape.rect)

    def _register_fixed_colors(self) -> None:
        for obstacle in self.design.colored_obstacles():
            if 0 <= obstacle.layer < self.num_layers:
                net_name = f"__fixed__{obstacle.name or id(obstacle)}"
                shape = ColoredShape(
                    net_name=net_name,
                    color=obstacle.color,
                    rect=obstacle.rect,
                    layer=obstacle.layer,
                )
                self._colored_shapes[obstacle.layer].insert(obstacle.rect, shape)
                self._add_rect_pressure(obstacle.layer, obstacle.rect, net_name, obstacle.color)

    # ------------------------------------------------------------------
    # Incremental color pressure
    # ------------------------------------------------------------------

    def interaction_radius(self, net: "object" = None, layer: Optional[int] = None) -> int:
        """Return the canonical interaction radius in DBU.

        Two pieces of metal interact -- through color pressure, the
        conflict checkers, or the dirty-region expansion -- when their gap
        is strictly below ``max(Dcolor, min_spacing)``.  With *layer* given
        the layer's own ``Dcolor`` override applies; otherwise the maximum
        over all layers is returned, which is the sound radius for a whole
        *net*: routes may use any layer, so a per-net radius can never be
        narrower than the widest layer rule -- the *net* argument therefore
        only documents intent at the call site and does not change the
        value.  This is the one helper the incremental checkers and the
        batch scheduler share.
        """
        if layer is not None:
            return max(self.rules.color_spacing_on(layer), self.rules.min_spacing)
        return max(
            max(self.rules.color_spacing_on(index), self.rules.min_spacing)
            for index in range(self.num_layers)
        )

    def interaction_reach_cells(self, radius: int) -> int:
        """Return the grid-cell reach of interactions at *radius* DBU.

        The number of track cells a vertex's metal can interact across:
        metal rectangles extend ``wire_width // 2`` beyond the track
        crossing on both sides, so the cell reach is
        ``ceil((radius + wire_width) / pitch)`` (with a floor of one cell).
        :meth:`interaction_offsets` enumerates exactly the offsets within
        this reach; the batch scheduler expands net windows by it.
        """
        half = max(self.rules.wire_width // 2, 0)
        return max(1, -(-(radius + 2 * half) // self.pitch))

    def interaction_offsets(self, radius: int) -> Tuple[Tuple[int, int, int], ...]:
        """Return planar ``(dcol, drow, flat_delta)`` offsets interacting at *radius*.

        Two same-layer vertices interact when the spacing between their metal
        rectangles (:meth:`Rect.distance_to`, the L-infinity gap) is strictly
        below *radius* -- the predicate shared by color-pressure updates, the
        spacing/conflict checkers and the dirty-region expansion of
        :mod:`repro.check`.  ``(0, 0, 0)`` is included; callers that must
        skip the vertex itself filter it out.  The flat delta
        (``dcol * num_rows + drow``) spares the consumers a re-encode.
        Precomputed once per radius and frozen to a tuple of tuples: the
        cache is shared between every consumer, so it must be immutable.
        """
        cached = self._interaction_offsets_cache.get(radius)
        if cached is not None:
            return cached
        half = max(self.rules.wire_width // 2, 0)
        reach = self.interaction_reach_cells(radius)
        offsets: List[Tuple[int, int, int]] = []
        base = Rect(-half, -half, half, half)
        for dcol in range(-reach, reach + 1):
            for drow in range(-reach, reach + 1):
                other = Rect(
                    dcol * self.pitch - half,
                    drow * self.pitch - half,
                    dcol * self.pitch + half,
                    drow * self.pitch + half,
                )
                if base.distance_to(other) < radius:
                    offsets.append((dcol, drow, dcol * self.num_rows + drow))
        frozen = tuple(offsets)
        self._interaction_offsets_cache[radius] = frozen
        return frozen

    def interaction_offset_arrays(self, radius: int, include_center: bool = True) -> OffsetArrays:
        """Return the :class:`OffsetArrays` twin of :meth:`interaction_offsets`.

        With ``include_center=False`` the ``(0, 0, 0)`` self-offset is
        dropped (the spacing checker's view: exact overlap is a short, not a
        spacing violation).  Cached per ``(radius, include_center)`` and
        frozen, so the incremental checkers, the dirty-region expansion and
        the check kernels all share one table per radius instead of each
        deriving their own.
        """
        key = (radius, include_center)
        cached = self._offset_arrays_cache.get(key)
        if cached is not None:
            return cached
        offsets = self.interaction_offsets(radius)
        if not include_center:
            offsets = tuple(offset for offset in offsets if offset != (0, 0, 0))
        arrays = OffsetArrays(
            offsets=offsets,
            dcols=array("q", [dcol for dcol, _drow, _delta in offsets]),
            drows=array("q", [drow for _dcol, drow, _delta in offsets]),
            deltas=array("q", [delta for _dcol, _drow, delta in offsets]),
        )
        self._offset_arrays_cache[key] = arrays
        return arrays

    def layer_interaction_offsets(self, layer: int) -> Tuple[Tuple[int, int, int], ...]:
        """Return the canonical reach offsets of *layer* (cached per layer).

        The reach is :meth:`interaction_radius` of the layer
        (``max(Dcolor, min_spacing)``) -- the table the incremental conflict
        checker scans with and the batch scheduler's window expansion is
        derived from.  Delegates to :meth:`interaction_offsets`, so the
        per-radius cache deduplicates layers sharing one ``Dcolor``.
        """
        cached = self._layer_offsets_cache.get(layer)
        if cached is None:
            cached = self.interaction_offsets(self.interaction_radius(layer=layer))
            self._layer_offsets_cache[layer] = cached
        return cached

    def layer_interaction_offset_arrays(self, layer: int) -> OffsetArrays:
        """Return the :class:`OffsetArrays` twin of :meth:`layer_interaction_offsets`."""
        return self.interaction_offset_arrays(self.interaction_radius(layer=layer))

    def _pressure_offsets(self, layer: int) -> Tuple[Tuple[int, int, int], ...]:
        """Return the offsets interacting at *layer*'s color spacing ``Dcolor``."""
        return self.interaction_offsets(self.rules.color_spacing_on(layer))

    def _interaction_block_reach(self, radius: int) -> Optional[int]:
        """Return the half-width R when the *radius* offsets form a full
        ``(2R+1) x (2R+1)`` square, else ``None``.

        The L-infinity spacing predicate is separable per axis, so the
        interacting offsets always form a square block in practice; the
        numpy pressure kernel relies on that to replace the offset loop
        with one strided-slice add, and this validation keeps the fallback
        loop authoritative should the predicate ever change shape.
        """
        if radius in self._block_reach_cache:
            return self._block_reach_cache[radius]
        offsets = self.interaction_offsets(radius)
        reach = max(dcol for dcol, _drow, _delta in offsets)
        square = {
            (dcol, drow)
            for dcol in range(-reach, reach + 1)
            for drow in range(-reach, reach + 1)
        }
        value: Optional[int] = reach
        if {(dcol, drow) for dcol, drow, _delta in offsets} != square:
            value = None
        self._block_reach_cache[radius] = value
        return value

    def _pressure_view(self, np: object) -> object:
        """Return the cached 4-D numpy view ``[layer, col, row, mask]`` over
        the live pressure buffer, rebuilt when the buffer is replaced."""
        cached = self._pressure_np_view
        if cached is not None and cached[0] is self._pressure_buf:
            return cached[1]
        view = np.frombuffer(self._pressure_buf).reshape(
            self.num_layers, self.num_cols, self.num_rows, 3
        )
        self._pressure_np_view = (self._pressure_buf, view)
        return view

    def _net_overlay(self, net_id: int) -> Dict[int, List[float]]:
        """Return (creating if needed) the mutable overlay map of *net_id*."""
        overlay = self._net_pressure.get(net_id)
        if overlay is None:
            overlay = {}
            self._net_pressure[net_id] = overlay
        return overlay

    def _add_vertex_pressure_index(
        self, index: int, net_id: int, color: int, sign: float
    ) -> None:
        """Add (or remove, with ``sign=-1``) the pressure of one colored vertex.

        The shared pressure map is updated with a numpy strided-slice add
        over the ``Dcolor`` block when acceleration is on; the pure-Python
        offset loop below is the fallback and the differential oracle (both
        perform one identical IEEE add per in-bounds block vertex, so the
        resulting maps are bit-identical).
        """
        layer, rem = divmod(index, self.plane_size)
        if not self.tech.layers[layer].tpl:
            return
        col, row = divmod(rem, self.num_rows)
        cols, rows = self.num_cols, self.num_rows
        amount = sign * self.rules.conflict_cost
        overlay = self._net_overlay(net_id)
        np = get_numpy()
        reach = (
            self._interaction_block_reach(self.rules.color_spacing_on(layer))
            if np is not None
            else None
        )
        if reach is not None:
            col_lo = col - reach if col >= reach else 0
            col_hi = min(col + reach, cols - 1)
            row_lo = row - reach if row >= reach else 0
            row_hi = min(row + reach, rows - 1)
            view = self._pressure_view(np)
            view[layer, col_lo : col_hi + 1, row_lo : row_hi + 1, color] += amount
            # The per-net overlay is a sparse dict; update it per block
            # vertex (the block is small: (2R+1)^2 entries at most).
            for target_col in range(col_lo, col_hi + 1):
                base = (layer * cols + target_col) * rows
                for target in range(base + row_lo, base + row_hi + 1):
                    own = overlay.get(target)
                    if own is None:
                        own = [0.0, 0.0, 0.0]
                        overlay[target] = own
                    own[color] += amount
            return
        pressure = self._pressure_buf
        for dcol, drow, delta in self._pressure_offsets(layer):
            target_col = col + dcol
            target_row = row + drow
            if not (0 <= target_col < cols and 0 <= target_row < rows):
                continue
            target = index + delta
            pressure[3 * target + color] += amount
            own = overlay.get(target)
            if own is None:
                own = [0.0, 0.0, 0.0]
                overlay[target] = own
            own[color] += amount

    def _add_rect_pressure(self, layer: int, rect: Rect, net_name: str, color: int) -> None:
        """Spread the pressure of a colored rectangle (fixed obstacle) on *layer*."""
        if not (0 <= color <= 2) or not self.tech.layers[layer].tpl:
            return
        overlay = self._net_overlay(self.net_id(net_name))
        dcolor = self.rules.color_spacing_on(layer)
        cost = self.rules.conflict_cost
        pressure = self._pressure_buf
        pitch, num_rows = self.pitch, self.num_rows
        origin_x, origin_y = self.origin.x, self.origin.y
        # The gap of :meth:`Rect.distance_to` between a vertex's wire rect
        # (``half`` around the crossing) and *rect*: the larger per-axis gap.
        half = max(self.rules.wire_width // 2, 0)
        col_lo, col_hi, row_lo, row_hi = self._covering_span(rect.expanded(dcolor + pitch))
        for col in range(col_lo, col_hi + 1):
            x = origin_x + col * pitch
            gap_x = max(rect.xlo - x - half, x - half - rect.xhi, 0)
            if gap_x >= dcolor:
                continue
            base = (layer * self.num_cols + col) * num_rows
            for row in range(row_lo, row_hi + 1):
                y = origin_y + row * pitch
                if max(gap_x, rect.ylo - y - half, y - half - rect.yhi) < dcolor:
                    index = base + row
                    pressure[3 * index + color] += cost
                    own = overlay.setdefault(index, [0.0, 0.0, 0.0])
                    own[color] += cost

    # ------------------------------------------------------------------
    # Occupancy (routed metal ownership)
    # ------------------------------------------------------------------

    def occupy(self, vertex: GridPoint, net_name: str) -> None:
        """Record that *net_name* has metal at *vertex* (out-of-bounds ignored)."""
        if self.in_bounds(vertex):
            self.occupy_index(self.index_of(vertex), self.net_id(net_name))

    def occupy_index(self, index: int, net_id: int) -> None:
        """Index/net-id variant of :meth:`occupy`."""
        self.apply_op((OP_OCCUPY, net_id, index))

    def _apply_occupy(self, op: Op) -> None:
        _kind, net_id, index = op
        self._mutation_epoch += 1
        owner = self._owner_buf[index]
        if owner == 0:
            self._owner_buf[index] = net_id
        elif owner == net_id:
            pass
        elif owner == -1:
            self._multi_owners[index].add(net_id)
        else:
            self._multi_owners[index] = {owner, net_id}
            self._owner_buf[index] = -1
        occupied = self._net_occupied.get(net_id)
        if occupied is None:
            occupied = set()
            self._net_occupied[net_id] = occupied
        occupied.add(index)

    def release_net(self, net_name: str) -> int:
        """Remove all occupancy, colors and colored shapes of *net_name*.

        Returns the number of vertices released.  Used by rip-up & reroute.
        O(|net's metal|) thanks to the per-net reverse occupancy index.
        """
        net_id = self.net_id_if_known(net_name)
        if net_id == 0:
            return 0
        return self.apply_op((OP_RELEASE, net_id))[0]

    def _apply_release(self, op: Op) -> Tuple[int, Optional[Set[int]]]:
        """Release one net; return ``(released_count, delta_or_None)``.

        The delta (every vertex the net occupied or colored) is what the
        release hooks receive; it is built only when listeners exist --
        :meth:`apply_op` fires them from the returned value.
        """
        net_id = op[1]
        net_name = self._net_names[net_id]
        released = 0
        self._mutation_epoch += 1
        occupied_indices = sorted(self._net_occupied.pop(net_id, ()))
        for index in occupied_indices:
            owner = self._owner_buf[index]
            if owner == net_id:
                self._owner_buf[index] = 0
            elif owner == -1:
                owners = self._multi_owners[index]
                owners.discard(net_id)
                if len(owners) == 1:
                    self._owner_buf[index] = owners.pop()
                    del self._multi_owners[index]
            else:
                continue
            released += 1
            self._color_buf[index] = 0
        colored_vertices = self._net_colored_vertices.pop(net_id, {})
        for index, color in colored_vertices.items():
            self._add_vertex_pressure_index(index, net_id, color, sign=-1.0)
        for layer_index in range(self.num_layers):
            spatial = self._colored_shapes[layer_index]
            stale = [item for _rect, item in spatial.items() if item.net_name == net_name]
            for item in stale:
                spatial.remove_item(item)
        delta: Optional[Set[int]] = None
        if self._release_hooks and (occupied_indices or colored_vertices):
            # The per-net reverse index makes the released delta O(|net|).
            delta = set(occupied_indices) | set(colored_vertices)
        return released, delta

    def occupants(self, vertex: GridPoint) -> Set[str]:
        """Return the set of net names with metal at *vertex*."""
        if not self.in_bounds(vertex):
            return set()
        owner = self._owner_buf[self.index_of(vertex)]
        if owner == 0:
            return set()
        if owner == -1:
            ids = self._multi_owners[self.index_of(vertex)]
            return {self._net_names[net_id] for net_id in ids}
        return {self._net_names[owner]}

    def is_occupied_by_other(self, vertex: GridPoint, net_name: str) -> bool:
        """Return ``True`` when a different net already has metal at *vertex*."""
        if not self.in_bounds(vertex):
            return False
        return self.is_occupied_by_other_index(
            self.index_of(vertex), self.net_id_if_known(net_name)
        )

    def is_occupied_by_other_index(self, index: int, net_id: int) -> bool:
        """Index/net-id variant of :meth:`is_occupied_by_other`."""
        owner = self._owner_buf[index]
        # A multi-owner vertex holds >= 2 distinct nets, so some owner is
        # always foreign; a single owner is foreign unless it is net_id.
        return owner != 0 and owner != net_id

    def owner_buffer(self) -> array:
        """Return the live occupancy-owner buffer (read-only use by engines).

        ``0`` = free, ``> 0`` = single owner net id, ``-1`` = multi-owner
        (consult :meth:`occupants` for the names).
        """
        return self._owner_buf

    def occupied_vertices(self) -> Dict[GridPoint, Set[str]]:
        """Return a copy of the occupancy map."""
        result: Dict[GridPoint, Set[str]] = {}
        for index, owner in enumerate(self._owner_buf):
            if owner == 0:
                continue
            if owner == -1:
                names = {self._net_names[i] for i in self._multi_owners[index]}
            else:
                names = {self._net_names[owner]}
            result[self.vertex_of(index)] = names
        return result

    # ------------------------------------------------------------------
    # Colors (TPL masks) on routed metal
    # ------------------------------------------------------------------

    def set_vertex_color(self, vertex: GridPoint, net_name: str, color: int) -> None:
        """Color the routed metal of *net_name* at *vertex* with mask *color*.

        Re-coloring the same vertex for the same net is idempotent (same
        color) or replaces the previous contribution (different color), so
        the incremental pressure bookkeeping never double-counts.
        """
        if not 0 <= color <= 2:
            raise ValueError(f"TPL mask color must be 0, 1 or 2, got {color}")
        if not self.in_bounds(vertex):
            return
        self.apply_op((OP_COLOR, self.net_id(net_name), self.index_of(vertex), color))

    def _apply_color(self, op: Op) -> None:
        _kind, net_id, index, color = op
        net_name = self._net_names[net_id]
        vertex = self.vertex_of(index)
        self._mutation_epoch += 1
        registered = self._net_colored_vertices.get(net_id)
        if registered is None:
            registered = {}
            self._net_colored_vertices[net_id] = registered
        previous = registered.get(index)
        if previous == color:
            self._color_buf[index] = color + 1
            return
        if previous is not None:
            self._add_vertex_pressure_index(index, net_id, previous, sign=-1.0)
            del registered[index]
            # Purge the old-mask shape, or color-distance queries would keep
            # seeing phantom metal of the previous mask at this vertex.
            self._colored_shapes[vertex.layer].remove_item(
                ColoredShape(
                    net_name=net_name,
                    color=previous,
                    rect=self.vertex_rect(vertex),
                    layer=vertex.layer,
                )
            )
        self._color_buf[index] = color + 1
        shape = ColoredShape(
            net_name=net_name,
            color=color,
            rect=self.vertex_rect(vertex),
            layer=vertex.layer,
        )
        self._colored_shapes[vertex.layer].insert(shape.rect, shape)
        registered[index] = color
        self._add_vertex_pressure_index(index, net_id, color, sign=1.0)

    def vertex_color(self, vertex: GridPoint) -> Optional[int]:
        """Return the mask color of routed metal at *vertex*, if any."""
        if not self.in_bounds(vertex):
            return None
        stored = self._color_buf[self.index_of(vertex)]
        return None if stored == 0 else stored - 1

    def vertex_color_index(self, index: int) -> Optional[int]:
        """Index variant of :meth:`vertex_color`."""
        stored = self._color_buf[index]
        return None if stored == 0 else stored - 1

    def colored_shapes_near(
        self, layer: int, rect: Rect, distance: int
    ) -> Iterator[Tuple[Rect, ColoredShape]]:
        """Yield colored shapes on *layer* closer than *distance* to *rect*."""
        if not 0 <= layer < self.num_layers:
            return
        yield from self._colored_shapes[layer].within(rect, distance)

    def color_cost(self, vertex: GridPoint, net_name: str, color: int) -> float:
        """Return the TPL color cost of putting *color* metal of *net_name* at *vertex*.

        This is the ``Cost_color`` term of Eq. (1): each already-colored piece
        of metal of a *different* net on the same layer within ``Dcolor`` and
        sharing the candidate mask contributes one conflict penalty.  Metal of
        the same net never conflicts (it will be electrically connected).
        """
        return self.color_costs(vertex, net_name)[color]

    def color_costs(self, vertex: GridPoint, net_name: str) -> List[float]:
        """Return the color cost for each of the three masks at *vertex*.

        The value is served from the incrementally maintained color-pressure
        buffer (updated on :meth:`set_vertex_color` / :meth:`release_net`),
        with the querying net's own contribution subtracted out.
        """
        if not self.in_bounds(vertex):
            return [0.0, 0.0, 0.0]
        return self.color_costs_index(
            self.index_of(vertex), self.net_id_if_known(net_name)
        )

    def color_costs_index(self, index: int, net_id: int) -> List[float]:
        """Index/net-id variant of :meth:`color_costs` (hot path)."""
        base = 3 * index
        pressure = self._pressure_buf
        overlay = self._net_pressure.get(net_id)
        own = overlay.get(index) if overlay else None
        if own is None:
            return [pressure[base], pressure[base + 1], pressure[base + 2]]
        return [
            max(pressure[base] - own[0], 0.0),
            max(pressure[base + 1] - own[1], 0.0),
            max(pressure[base + 2] - own[2], 0.0),
        ]

    def pressure_buffer(self) -> array:
        """Return the live color-pressure buffer (3 doubles per vertex)."""
        return self._pressure_buf

    def net_pressure_overlay(self, net_id: int) -> Dict[int, List[float]]:
        """Return *net_id*'s pressure overlay map (``index -> [r, g, b]``).

        Read-only use by search engines (the per-search color-pressure
        snapshot enumerates it); maintained by :meth:`set_vertex_color` /
        :meth:`release_net`.  Returns an empty map for nets without one.
        """
        return self._net_pressure.get(net_id) or {}

    # ------------------------------------------------------------------
    # History cost (negotiated congestion)
    # ------------------------------------------------------------------

    def add_history(self, vertex: GridPoint, amount: float = 1.0) -> None:
        """Increase the history cost at *vertex* (rip-up & reroute feedback)."""
        if self.in_bounds(vertex):
            self.add_history_index(self.index_of(vertex), amount)

    def add_history_index(self, index: int, amount: float = 1.0) -> None:
        """Index variant of :meth:`add_history`."""
        self.apply_op((OP_HISTORY, index, amount))

    def _apply_history(self, op: Op) -> None:
        _kind, index, amount = op
        self._mutation_epoch += 1
        self._history_buf[index] += amount
        self._history_touched.add(index)

    def history(self, vertex: GridPoint) -> float:
        """Return the accumulated history cost at *vertex*."""
        if not self.in_bounds(vertex):
            return 0.0
        return self._history_buf[self.index_of(vertex)]

    def history_buffer(self) -> array:
        """Return the live history buffer (read-only use by search engines)."""
        return self._history_buf

    def decay_history(self, factor: Optional[float] = None) -> None:
        """Multiply every history entry by *factor* (PathFinder-style decay).

        When *factor* is ``None`` the :attr:`DesignRules.history_decay`
        factor applies -- the value the rip-up-and-reroute loops pass.
        The journalled op carries the resolved factor, so replay does not
        depend on the rules object.
        """
        if factor is None:
            factor = self.rules.history_decay
        self.apply_op((OP_DECAY, factor))

    def _apply_decay(self, op: Op) -> None:
        factor = op[1]
        self._mutation_epoch += 1
        history = self._history_buf
        dead: List[int] = []
        for index in self._history_touched:
            value = history[index] * factor
            if value < 1e-9:
                history[index] = 0.0
                dead.append(index)
            else:
                history[index] = value
        self._history_touched.difference_update(dead)

    # ------------------------------------------------------------------
    # Bulk state management
    # ------------------------------------------------------------------

    def reset_routing_state(self) -> None:
        """Drop all routing results (occupancy, colors, history) but keep blockages."""
        self.apply_op((OP_RESET,))

    def _apply_reset(self, op: Op) -> None:
        self._mutation_epoch += 1
        num_vertices = self.num_vertices
        self._owner_buf = array("i", [0]) * num_vertices
        self._color_buf = bytearray(num_vertices)
        self._history_buf = array("d", [0.0]) * num_vertices
        self._pressure_buf = array("d", [0.0, 0.0, 0.0]) * num_vertices
        self._pressure_np_view = None
        self._multi_owners.clear()
        self._net_occupied.clear()
        self._history_touched.clear()
        self._net_pressure.clear()
        self._net_colored_vertices.clear()
        for layer_index in range(self.num_layers):
            spatial = self._colored_shapes[layer_index]
            fixed = [
                (rect, item)
                for rect, item in spatial.items()
                if item.net_name.startswith("__fixed__")
            ]
            spatial.clear()
            for rect, item in fixed:
                spatial.insert(rect, item)
        # Re-seed the pressure of the fixed, pre-colored obstacles.
        for obstacle in self.design.colored_obstacles():
            if 0 <= obstacle.layer < self.num_layers:
                self._add_rect_pressure(
                    obstacle.layer,
                    obstacle.rect,
                    f"__fixed__{obstacle.name or id(obstacle)}",
                    obstacle.color,
                )

    # ------------------------------------------------------------------
    # Dense state snapshots (checkpoint v2 / worker bootstrap)
    # ------------------------------------------------------------------

    #: Schema tag of :meth:`snapshot_state` documents.
    SNAPSHOT_FORMAT = "repro-grid-snapshot-v1"

    def snapshot_state(self) -> Dict[str, object]:
        """Export the complete mutable grid state as a flat document.

        The document is JSON- and pickle-clean (dense buffers as base64
        strings, sparse side tables as sorted pair lists) and, fed back
        through :meth:`restore_state` on a fresh grid over the same design,
        reproduces every buffer and side table **bit-identically** --
        including the exact IEEE-754 pressure/history doubles, which travel
        as raw bytes rather than decimal round-trips.  This is the
        checkpoint-v2 alternative to replaying a whole campaign journal:
        O(grid) instead of O(campaign ops).
        """
        colored_shapes: List[list] = []
        for layer in range(self.num_layers):
            colored_shapes.append([
                [item.net_name, item.color, rect.xlo, rect.ylo, rect.xhi, rect.yhi]
                for rect, item in self._colored_shapes[layer].items()
            ])
        blockage_shapes: List[list] = []
        for layer in range(self.num_layers):
            blockage_shapes.append([
                [rect.xlo, rect.ylo, rect.xhi, rect.yhi, name]
                for rect, name in self._blockage_shapes[layer].items()
            ])
        from base64 import b64encode

        def encode(buffer) -> str:
            raw = buffer if isinstance(buffer, (bytes, bytearray)) else buffer.tobytes()
            return b64encode(bytes(raw)).decode("ascii")

        return {
            "format": self.SNAPSHOT_FORMAT,
            "design_name": self.design.name,
            "dims": [self.num_layers, self.num_cols, self.num_rows],
            "pitch": self.pitch,
            "epoch": self._mutation_epoch,
            "blocked": encode(self._blocked_buf),
            "owner": encode(self._owner_buf),
            "color": encode(self._color_buf),
            "history": encode(self._history_buf),
            "pressure": encode(self._pressure_buf),
            "net_names": list(self._net_names[1:]),
            "multi_owners": [
                [index, sorted(owners)]
                for index, owners in sorted(self._multi_owners.items())
            ],
            "net_occupied": [
                [net_id, sorted(indices)]
                for net_id, indices in sorted(self._net_occupied.items())
            ],
            "history_touched": sorted(self._history_touched),
            "net_pressure": [
                [net_id, [[index, list(rgb)] for index, rgb in sorted(overlay.items())]]
                for net_id, overlay in sorted(self._net_pressure.items())
            ],
            "net_colored": [
                [net_id, [[index, color] for index, color in sorted(registered.items())]]
                for net_id, registered in sorted(self._net_colored_vertices.items())
            ],
            "colored_shapes": colored_shapes,
            "blockage_shapes": blockage_shapes,
        }

    def restore_state(self, snapshot: Dict[str, object]) -> None:
        """Overwrite this grid's mutable state with a :meth:`snapshot_state` doc.

        The grid must be built over the same design geometry (dimensions and
        pitch are validated) and must not have a journal attached -- a bulk
        restore is a bootstrap, not a journalled mutation, and recording it
        as none would silently desynchronise any replica of that journal.
        Restoring fires the delta listeners' ``on_reset`` hooks so attached
        incremental checkers drop their now-stale tallies.
        """
        if snapshot.get("format") != self.SNAPSHOT_FORMAT:
            raise ValueError(
                f"not a {self.SNAPSHOT_FORMAT} document "
                f"(format={snapshot.get('format')!r})"
            )
        if self._journal is not None:
            raise RuntimeError(
                "cannot restore_state while a journal is attached; "
                "detach it first and re-attach (or attach the checkpoint "
                "journal) afterwards"
            )
        dims = list(snapshot["dims"])
        if dims != [self.num_layers, self.num_cols, self.num_rows]:
            raise ValueError(
                f"snapshot dimensions {dims} do not match this grid "
                f"{[self.num_layers, self.num_cols, self.num_rows]}"
            )
        if snapshot["pitch"] != self.pitch:
            raise ValueError(
                f"snapshot pitch {snapshot['pitch']} does not match {self.pitch}"
            )
        from base64 import b64decode

        num_vertices = self.num_vertices
        blocked = bytearray(b64decode(snapshot["blocked"]))
        owner = array("i")
        owner.frombytes(b64decode(snapshot["owner"]))
        color = bytearray(b64decode(snapshot["color"]))
        history = array("d")
        history.frombytes(b64decode(snapshot["history"]))
        pressure = array("d")
        pressure.frombytes(b64decode(snapshot["pressure"]))
        if (
            len(blocked) != num_vertices
            or len(owner) != num_vertices
            or len(color) != num_vertices
            or len(history) != num_vertices
            or len(pressure) != 3 * num_vertices
        ):
            raise ValueError("snapshot buffer sizes do not match this grid")
        self._blocked_buf = blocked
        self._owner_buf = owner
        self._color_buf = color
        self._history_buf = history
        self._pressure_buf = pressure
        self._pressure_np_view = None
        self._net_names = [""] + [str(name) for name in snapshot["net_names"]]
        self._net_ids = {name: i for i, name in enumerate(self._net_names) if i}
        self._multi_owners = {
            int(index): set(owners) for index, owners in snapshot["multi_owners"]
        }
        self._net_occupied = {
            int(net_id): set(indices) for net_id, indices in snapshot["net_occupied"]
        }
        self._history_touched = set(snapshot["history_touched"])
        self._net_pressure = {
            int(net_id): {int(index): list(rgb) for index, rgb in overlay}
            for net_id, overlay in snapshot["net_pressure"]
        }
        self._net_colored_vertices = {
            int(net_id): {int(index): color for index, color in registered}
            for net_id, registered in snapshot["net_colored"]
        }
        for layer in range(self.num_layers):
            spatial = self._colored_shapes[layer]
            spatial.clear()
            for net_name, shape_color, xlo, ylo, xhi, yhi in snapshot["colored_shapes"][layer]:
                rect = Rect(xlo, ylo, xhi, yhi)
                spatial.insert(
                    rect,
                    ColoredShape(
                        net_name=net_name, color=shape_color, rect=rect, layer=layer
                    ),
                )
            blockages = self._blockage_shapes[layer]
            blockages.clear()
            for xlo, ylo, xhi, yhi, name in snapshot["blockage_shapes"][layer]:
                blockages.insert(Rect(xlo, ylo, xhi, yhi), name)
        self._mutation_epoch = snapshot["epoch"]
        for callback in self._reset_hooks:
            callback()

    def snapshot_statistics(self) -> Dict[str, int]:
        """Return grid occupancy statistics (used by reports and tests)."""
        history = self._history_buf
        return {
            "vertices": self.num_vertices,
            "blocked": sum(self._blocked_buf),
            "occupied": sum(1 for owner in self._owner_buf if owner != 0),
            "colored": sum(1 for stored in self._color_buf if stored),
            "history_entries": sum(
                1 for index in self._history_touched if history[index] != 0.0
            ),
        }


#: Op kind -> unbound ``RoutingGrid`` handler; the dispatch table of
#: :meth:`RoutingGrid.apply_op`.  Module-level (not per-instance) so the
#: choke point pays one dict get per op and forked replicas share it.
_OP_HANDLERS = {
    OP_INTERN: RoutingGrid._apply_intern,
    OP_OCCUPY: RoutingGrid._apply_occupy,
    OP_RELEASE: RoutingGrid._apply_release,
    OP_COLOR: RoutingGrid._apply_color,
    OP_HISTORY: RoutingGrid._apply_history,
    OP_DECAY: RoutingGrid._apply_decay,
    OP_BLOCK_VERTEX: RoutingGrid._apply_block_vertex,
    OP_BLOCK_RECT: RoutingGrid._apply_block_rect,
    OP_RESET: RoutingGrid._apply_reset,
}
