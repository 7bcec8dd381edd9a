"""Synthetic ISPD-like benchmark generation.

Every case is produced deterministically from a :class:`SyntheticSpec`:
the same spec always yields bit-identical designs, so the experiment tables
are reproducible.  The generated designs exercise the same code paths as the
contest benchmarks -- row-placed standard cells with pins on the lowest
routing layer, multi-pin nets with spatial locality, macros, uncolored and
pre-colored obstacles, and per-layer color-spacing rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.design import CellInstance, CellMaster, Design, Net, Obstacle, Pin
from repro.geometry import Orientation, Point, Rect
from repro.tech import DesignRules, make_default_tech
from repro.utils import SeededRNG


@dataclass
class SyntheticSpec:
    """Parameters of one synthetic benchmark case."""

    name: str
    seed: int = 1
    #: Die size in tracks (the DBU size is ``tracks * pitch``).
    cols: int = 32
    rows: int = 32
    pitch: int = 4
    num_layers: int = 3
    #: How many of the lowest layers are triple-patterned.
    tpl_layer_count: Optional[int] = None
    #: Same-mask spacing in DBU.
    color_spacing: int = 8
    #: Number of multi-pin nets to generate.
    num_nets: int = 20
    #: Net degree distribution.
    min_pins: int = 2
    max_pins: int = 5
    multi_pin_bias: float = 0.6
    #: Locality window (in tracks) within which a net's sinks are drawn.
    net_radius: int = 12
    #: Obstacles on the intermediate layers.
    obstacle_count: int = 4
    obstacle_span: int = 4
    #: Fraction of obstacles that carry a pre-assigned mask.
    colored_obstacle_fraction: float = 0.5
    #: Number of large macros blocking several layers.
    macro_count: int = 0
    #: Cell row spacing in tracks.
    row_spacing: int = 4
    #: Cell column spacing in tracks.
    cell_spacing: int = 4
    #: Period (in rows) of pre-colored cell/power metal straps; 0 disables them.
    #: Straps are thin off-track shapes that block nothing but carry a fixed
    #: mask, so they constrain the colors of wires on nearby tracks -- the
    #: layout feature that makes decompose-after-routing run out of colors.
    strap_period: int = 0
    #: Layer the straps live on.
    strap_layer: int = 0

    @property
    def die_width(self) -> int:
        """Return the die width in DBU."""
        return self.cols * self.pitch

    @property
    def die_height(self) -> int:
        """Return the die height in DBU."""
        return self.rows * self.pitch


def _make_cell_master(pitch: int) -> CellMaster:
    """Return the simple two-pin standard cell used by every synthetic case."""
    size = pitch * 2
    master = CellMaster(name="SYN_CELL", width=size, height=size)
    quarter = max(pitch // 2, 1)
    master.add_pin("A", layer=0, rect=Rect(0, 0, quarter, quarter))
    master.add_pin("Z", layer=0, rect=Rect(size - quarter, size - quarter, size, size))
    return master


def _make_macro_master(pitch: int, span: int, num_layers: int) -> CellMaster:
    """Return a macro master blocking *span* tracks on the lower layers."""
    size = pitch * span
    master = CellMaster(name=f"SYN_MACRO_{span}", width=size, height=size, is_macro=True)
    for layer in range(min(2, num_layers)):
        master.add_obstruction(layer, Rect(0, 0, size, size))
    master.add_pin("P", layer=0, rect=Rect(0, 0, max(pitch // 2, 1), max(pitch // 2, 1)))
    return master


def generate_design(spec: SyntheticSpec) -> Design:
    """Generate a synthetic design from *spec* (deterministic in the seed)."""
    rng = SeededRNG(spec.seed)
    rules = DesignRules(
        color_spacing=spec.color_spacing,
        min_spacing=1,
        wire_width=1,
    )
    tech = make_default_tech(
        num_layers=spec.num_layers,
        pitch=spec.pitch,
        color_spacing=spec.color_spacing,
        tpl_layer_count=spec.tpl_layer_count,
        rules=rules,
    )
    die = Rect(0, 0, spec.die_width, spec.die_height)
    design = Design(name=spec.name, tech=tech, die_area=die)

    cell_master = design.add_master(_make_cell_master(spec.pitch))
    instances = _place_cells(design, spec, cell_master)
    if spec.macro_count > 0:
        _place_macros(design, spec, rng)
    _place_obstacles(design, spec, rng)
    if spec.strap_period > 0:
        _place_straps(design, spec)
    _build_nets(design, spec, instances, rng)
    return design


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------

def _place_cells(
    design: Design, spec: SyntheticSpec, master: CellMaster
) -> List[CellInstance]:
    """Place cells in rows across the die and return them."""
    instances: List[CellInstance] = []
    step_x = spec.cell_spacing * spec.pitch
    step_y = spec.row_spacing * spec.pitch
    index = 0
    y = spec.pitch
    while y + master.height < spec.die_height:
        x = spec.pitch
        while x + master.width < spec.die_width:
            instance = CellInstance(
                name=f"cell_{index}",
                master=master,
                location=Point(x, y),
                orientation=Orientation.N,
            )
            design.add_instance(instance)
            instances.append(instance)
            index += 1
            x += step_x
        y += step_y
    return instances


def _place_macros(design: Design, spec: SyntheticSpec, rng: SeededRNG) -> None:
    span = max(spec.obstacle_span * 2, 6)
    master = design.add_master(_make_macro_master(spec.pitch, span, spec.num_layers))
    for index in range(spec.macro_count):
        max_col = max(spec.cols - span - 1, 1)
        max_row = max(spec.rows - span - 1, 1)
        col = rng.randint(0, max_col)
        row = rng.randint(0, max_row)
        instance = CellInstance(
            name=f"macro_{index}",
            master=master,
            location=Point(col * spec.pitch, row * spec.pitch),
        )
        try:
            design.add_instance(instance)
        except ValueError:  # pragma: no cover - duplicate names cannot happen
            continue


def _place_straps(design: Design, spec: SyntheticSpec) -> None:
    """Place pre-colored, non-blocking metal straps between track rows.

    The straps model cell-internal / power metal that already carries a mask
    before routing starts.  They sit strictly between two track rows, so they
    never block a routing vertex, but any wire routed on a nearby track must
    avoid their mask (or conflict).  Colors cycle through the three masks.
    """
    pitch = spec.pitch
    index = 0
    for row in range(2, spec.rows - 1, spec.strap_period):
        y0 = row * pitch + 1
        y1 = row * pitch + pitch - 1
        design.add_obstacle(
            Obstacle(
                layer=spec.strap_layer,
                rect=Rect(0, y0, spec.die_width, y1),
                name=f"strap_{index}",
                color=index % 3,
            )
        )
        index += 1


def _place_obstacles(design: Design, spec: SyntheticSpec, rng: SeededRNG) -> None:
    for index in range(spec.obstacle_count):
        layer = rng.randint(1, max(1, spec.num_layers - 1))
        span = rng.randint(2, max(2, spec.obstacle_span))
        max_col = max(spec.cols - span - 1, 1)
        max_row = max(spec.rows - span - 1, 1)
        col = rng.randint(1, max_col)
        row = rng.randint(1, max_row)
        rect = Rect(
            col * spec.pitch,
            row * spec.pitch,
            (col + span) * spec.pitch,
            (row + span) * spec.pitch,
        )
        color = -1
        if rng.random() < spec.colored_obstacle_fraction:
            color = rng.randint(0, 2)
        design.add_obstacle(
            Obstacle(layer=layer, rect=rect, name=f"obs_{index}", color=color)
        )


# ----------------------------------------------------------------------
# Netlist synthesis
# ----------------------------------------------------------------------

def _build_nets(
    design: Design,
    spec: SyntheticSpec,
    instances: List[CellInstance],
    rng: SeededRNG,
) -> None:
    """Create multi-pin nets with spatial locality over the placed cells.

    Pin slots are ``(instance, pin)`` pairs numbered ``2 * i + p`` over the
    instances and the pins ``("A", "Z")``; instance names are unique, so a
    slot number identifies a slot exactly as its ``(name, pin)`` key would.
    Both pins of an instance share its footprint centre, computed once, so
    each net's neighbourhood is one linear scan over plain ints that keeps
    slot order (``rng.shuffle`` consumes it).
    """
    if not instances:
        raise ValueError(f"spec {spec.name!r} produced no cell instances")
    pin_names = ("A", "Z")
    centres = [instance.footprint().center for instance in instances]
    xs = [centre.x for centre in centres]
    ys = [centre.y for centre in centres]
    slots = range(2 * len(instances))
    used = bytearray(len(slots))
    radius_dbu = spec.net_radius * spec.pitch

    for net_index in range(spec.num_nets):
        degree = rng.pin_count(spec.min_pins, spec.max_pins, spec.multi_pin_bias)
        anchor = None
        for _attempt in range(40):
            candidate = rng.choice(slots)
            if not used[candidate]:
                anchor = candidate
                break
        if anchor is None:
            break
        ax = xs[anchor >> 1]
        ay = ys[anchor >> 1]
        neighbourhood = []
        for index, x in enumerate(xs):
            if abs(x - ax) <= radius_dbu and abs(ys[index] - ay) <= radius_dbu:
                for slot in (2 * index, 2 * index + 1):
                    if not used[slot] and slot != anchor:
                        neighbourhood.append(slot)
        rng.shuffle(neighbourhood)
        members = [anchor] + neighbourhood[: degree - 1]
        if len(members) < 2:
            continue
        net = Net(name=f"net_{net_index}")
        for slot in members:
            used[slot] = 1
            net.add_pin(instances[slot >> 1].make_pin(pin_names[slot & 1]))
        design.add_net(net)
