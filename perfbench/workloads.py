"""The four benchmark workloads, each one full routing flow of ``repro``.

One call of :func:`run_workload` is one *rep*: it builds the inputs from
the workload seed, runs every flow of the workload once, checks the
outputs and returns plain numbers.  The design generator's seed is the
suite case's own ``SyntheticSpec.seed`` plus ``1000 * seed``, so workload
seed 0 is exactly the suite case the paper tables use.  Every rep of one
seed routes the same design.

Every flow runs serially (``parallelism=1``, ``batch_backend="serial"``,
the routers' defaults).  The routers receive only the generated design and
the global-routing guides.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import shutil
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.baselines import Dac2012Router, LayoutDecomposer
from repro.bench import synthetic
from repro.bench.suites import suite_case
from repro.check import IncrementalConflictChecker
from repro.dr import DetailedRouter
from repro.eval import experiments, metrics
from repro.gr import GlobalRouter
from repro.grid import RoutingGrid
from repro.tpl import MrTPLRouter

#: name -> (suite, case number, scale); see NOTES.md for why each exists.
WORKLOADS = {
    "table2_dense": ("ispd18", 3, 2.0),
    "table3_dense": ("ispd19", 2, 2.0),
    "sparse_mrtpl": ("sparse", 3, 1.0),
    "checkpoint_resume": ("ispd18", 3, 2.0),
}

#: Set-ups a rep times after its flows, each between two calls of
#: :func:`reference_seconds`; ``run.py`` makes ``setup_s`` from them.
SETUP_SAMPLES = {
    "table2_dense": 4,
    "table3_dense": 3,
    "sparse_mrtpl": 2,
    "checkpoint_resume": 3,
}

#: Objects the host-speed reference builds, hashes and sorts.
REFERENCE_OBJECTS = 45000


class _Point:
    __slots__ = ("x", "y", "z")

    def __init__(self, x: int, y: int, z: int) -> None:
        self.x, self.y, self.z = x, y, z


def reference_seconds() -> float:
    """Time a fixed pure-Python task that shares no code with ``repro``.

    It does the kind of work a set-up does (small objects, tuples, a set,
    a dict of lists, a keyed sort), so load from other tenants of the host
    slows it about as much as it slows a set-up made next to it.
    """
    started = perf_counter()
    points = [_Point(i % 97, i % 89, i % 5) for i in range(REFERENCE_OBJECTS)]
    distinct = {(p.x, p.y, p.z) for p in points}
    points.sort(key=lambda p: (p.z, p.y, p.x))
    rows: Dict[int, List[int]] = {}
    for p in points:
        rows.setdefault(p.z, []).append(p.x + p.y)
    assert len(distinct) == 97 * 89 * 5
    return perf_counter() - started

#: The interrupted campaign of ``checkpoint_resume`` stops right after the
#: checkpoint of this rip-up iteration is saved.
INTERRUPT_AFTER_ITERATION = 1


def design_seed(base: int, seed: int) -> int:
    """Return the generator seed of the design of workload *seed*."""
    return base + 1000 * seed


def solution_digest(solution) -> str:
    """Return a sha256 over every route's topology, masks and stitches."""
    digest = hashlib.sha256()
    for name in sorted(solution.routes):
        route = solution.routes[name]
        record = (
            name,
            route.routed,
            sorted(v.as_tuple() for v in route.vertices),
            sorted(tuple(sorted((a.as_tuple(), b.as_tuple()))) for a, b in route.edges),
            sorted((v.as_tuple(), c) for v, c in route.vertex_colors.items()),
            sorted((s.a.as_tuple(), s.b.as_tuple()) for s in route.stitches),
        )
        digest.update(repr(record).encode())
    return digest.hexdigest()[:16]


#: Flows that continue one campaign: a net routed again in the resumed
#: flow after the interrupted one is a reroute, not a first route.
_CAMPAIGN_OF_FLOW = {"flow.interrupted": "split", "flow.resume": "split"}


class _Interrupted(Exception):
    """Raised from ``on_checkpoint`` to stop a campaign mid-way."""


class Rep:
    """Timings, quality numbers, checks and digests of one rep."""

    def __init__(self, workload: str, seed: int, tracer, work_dir: Path) -> None:
        self.tracer = tracer
        self.work_dir = work_dir
        suite, number, scale = WORKLOADS[workload]
        case = suite_case(suite, number, scale)
        self.spec = dataclasses.replace(
            case.spec, seed=design_seed(case.spec.seed, seed)
        )
        self.seconds: Dict[str, float] = {"setup_s": 0.0}
        self.quality: Dict[str, float] = {}
        self.checks: Dict[str, bool] = {}
        self.digests: Dict[str, str] = {}
        self.nets_attempted = 0
        self.nets_failed = 0
        self.iterations = 0
        # (label, solution, evaluation, incremental-report callable)
        self._deferred_checks: List[tuple] = []
        self.flow: Optional[str] = None
        #: The ``seconds`` key of the timed block running now ("glue"
        #: between blocks).
        self.key = "glue"
        #: ``(key, time)`` marks splitting the rep into consecutive
        #: segments: one at every block boundary and net route.  Every rep
        #: of a seed makes the same sequence of keys, so ``run.py`` can
        #: time each segment by its fastest rep.
        self.ticks: List[Tuple[str, float]] = []
        #: ``(seconds, reference seconds)`` per set-up sample
        #: (:meth:`sample_setups`).
        self.setup_samples: List[Tuple[float, float]] = []
        #: Net routes (``compute_route`` calls) per flow span name.
        self.routes: Dict[str, int] = {}
        self.reroutes = 0
        self._routed = set()
        self._count_net_routes()

    def _count_net_routes(self) -> None:
        """Count every router's ``compute_route`` calls, per flow."""
        for router_cls in (MrTPLRouter, Dac2012Router, DetailedRouter):
            router_cls.compute_route = self._counted_route(router_cls.compute_route)

    def _counted_route(self, compute_route):
        record = self

        @functools.wraps(compute_route)
        def wrapper(router, net, *args, **kwargs):
            flow = record.flow
            key = (_CAMPAIGN_OF_FLOW.get(flow, flow), net.name)
            if key in record._routed:
                record.reroutes += 1
            record._routed.add(key)
            record.tick()
            record.routes[flow] = record.routes.get(flow, 0) + 1
            return compute_route(router, net, *args, **kwargs)

        return wrapper

    # -- helpers -----------------------------------------------------------

    def tick(self, key: Optional[str] = None) -> None:
        """Start a new segment, of *key* or of the block running now."""
        if key is not None:
            self.key = key
        self.ticks.append((self.key, perf_counter()))

    @contextmanager
    def timed(self, key: str, span: str):
        """Add the block's wall time to ``seconds[key]`` (and trace it)."""
        self.flow = span
        self.tick(key)
        started = self.ticks[-1][1]
        try:
            with self.tracer.span(span):
                yield
        finally:
            self.tick("glue")
            self.seconds[key] = self.seconds.get(key, 0.0) + self.ticks[-1][1] - started
            self.flow = None

    def setup(self, build_grid: bool = True):
        """Generate the design, its guides and (optionally) its grid."""
        with self.timed("setup_s", "setup"):
            design = synthetic.generate_design(self.spec)
            guides = GlobalRouter(design).route()
            grid = RoutingGrid(design) if build_grid else None
        return design, guides, grid

    def sample_setups(self, count: int, build_grid: bool) -> None:
        """Time *count* set-ups, each with the reference timed around it.

        Records ``(set-up seconds, mean of the two reference seconds)``.
        """
        before = reference_seconds()
        for _ in range(count):
            started = perf_counter()
            design = synthetic.generate_design(self.spec)
            GlobalRouter(design).route()
            if build_grid:
                RoutingGrid(design)
            seconds = perf_counter() - started
            after = reference_seconds()
            self.setup_samples.append((seconds, (before + after) / 2))
            before = after

    def evaluate(self, prefix: str, design, grid, solution, guides):
        """Score *solution* with the full-scan oracles; record its quality."""
        with self.timed("evaluate_s", "evaluate"):
            result = metrics.evaluate_solution(design, grid, solution, guides)
        self.quality[f"{prefix}_conflicts"] = result.conflicts
        self.quality[f"{prefix}_stitches"] = result.stitches
        self.quality[f"{prefix}_score"] = result.score
        return result

    def note_flow(self, label: str, design, solution, routed_here: bool = True) -> None:
        """Record a flow's digest and run check (c) on it.

        *routed_here* is false for a solution that only recolours another
        flow's routes (the decomposer), so its nets are not counted twice.
        """
        self.digests[label] = solution_digest(solution)
        routable = {net.name for net in design.routable_nets()}
        self.checks[f"one_route_per_net.{label}"] = set(solution.routes) == routable
        if routed_here:
            self.nets_attempted += len(routable)
            self.nets_failed += len(solution.failed_nets())

    # -- flows -------------------------------------------------------------

    def mrtpl(self, **router_kwargs) -> None:
        design, guides, grid = self.setup()
        router = MrTPLRouter(design, grid=grid, guides=guides,
                             use_global_router=False, **router_kwargs)
        with self.timed("mrtpl_route_s", "flow.mrtpl"):
            solution = router.run()
        self.iterations = solution.iterations
        result = self.evaluate("mrtpl", design, grid, solution, guides)
        self.note_flow("mrtpl", design, solution)
        self._deferred_checks.append(
            ("mrtpl", solution, result, router.conflict_report)
        )

    def dac2012(self) -> None:
        design, guides, grid = self.setup()
        router = Dac2012Router(design, grid=grid, guides=guides, use_global_router=False)
        with self.timed("baseline_route_s", "flow.baseline"):
            solution = router.run()
        self.evaluate("baseline", design, grid, solution, guides)
        self.note_flow("dac2012", design, solution)

    def route_then_decompose(self) -> None:
        design, guides, grid = self.setup()
        router = DetailedRouter(design, grid=grid, guides=guides)
        with self.timed("baseline_route_s", "flow.baseline"):
            routed = router.run()
            colored = LayoutDecomposer(design, grid).decompose(routed).solution
        self.evaluate("baseline", design, grid, colored, guides)
        self.note_flow("detailed", design, routed)
        self.note_flow("decomposed", design, colored, routed_here=False)

    def checkpoint_resume(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        full_path = self.work_dir / "uninterrupted.json"
        split_path = self.work_dir / "interrupted.json"
        kwargs = dict(checkpoint_every=1, use_global_router=False)

        design, guides, _ = self.setup(build_grid=False)
        with self.timed("mrtpl_route_s", "flow.mrtpl"):
            solution, grid, _ = experiments.route_with_checkpoint(
                design, MrTPLRouter, full_path, guides=guides, **kwargs
            )
        self.iterations = solution.iterations
        result = self.evaluate("mrtpl", design, grid, solution, guides)
        self.note_flow("mrtpl", design, solution)
        self._deferred_checks.append(
            ("mrtpl", solution, result, _fresh_checker(design, grid))
        )

        def interrupt(state) -> None:
            if state.iteration == INTERRUPT_AFTER_ITERATION and not state.done:
                raise _Interrupted()

        design, guides, _ = self.setup(build_grid=False)
        interrupted = False
        with self.timed("interrupted_s", "flow.interrupted"):
            try:
                experiments.route_with_checkpoint(
                    design, MrTPLRouter, split_path, guides=guides,
                    on_checkpoint=interrupt, **kwargs
                )
            except _Interrupted:
                interrupted = True
        self.checks["campaign_was_interrupted"] = interrupted

        design, guides, _ = self.setup(build_grid=False)
        with self.timed("resume_s", "flow.resume"):
            resumed, grid, was_resumed = experiments.route_with_checkpoint(
                design, MrTPLRouter, split_path, guides=guides, **kwargs
            )
        self.checks["resume_loaded_checkpoint"] = was_resumed
        result = self.evaluate("resumed", design, grid, resumed, guides)
        self.note_flow("resumed", design, resumed)
        self._deferred_checks.append(
            ("resumed", resumed, result, _fresh_checker(design, grid))
        )
        # Check (b): a resumed campaign must equal the uninterrupted one.
        self.checks["resume_identity"] = (
            self.digests["resumed"] == self.digests["mrtpl"]
        )
        shutil.rmtree(self.work_dir, ignore_errors=True)

    # -- checks ------------------------------------------------------------

    def run_deferred_checks(self) -> None:
        """Check (a): incremental conflict count == full-scan count.

        Runs after the timed flows (and with tracing off) so the extra
        incremental check never counts towards any metric.
        """
        for label, solution, result, incremental_report in self._deferred_checks:
            report = incremental_report(solution)
            self.checks[f"incremental_conflicts_match.{label}"] = (
                report.conflict_count == result.conflicts
            )
        # Release the routers and grids before the set-up samples, which
        # must not add to the rep's peak memory.
        self._deferred_checks.clear()


def _fresh_checker(design, grid):
    """Return a deferred call building a fresh incremental conflict checker.

    ``route_with_checkpoint`` keeps its router private, so the campaign's
    own incremental tallies are out of reach; a fresh
    :class:`IncrementalConflictChecker` over the returned grid runs the
    same incremental engine.
    """
    return lambda solution: IncrementalConflictChecker(design, grid).check(solution)


def run_workload(workload: str, seed: int, tracer, work_dir: Path) -> Rep:
    """Run one rep of *workload*; return its :class:`Rep` record."""
    record = Rep(workload, seed, tracer, work_dir)
    record.tick("glue")
    tracer.active = tracer.enabled
    if workload == "table2_dense":
        record.mrtpl()
        record.dac2012()
    elif workload == "table3_dense":
        record.mrtpl()
        record.route_then_decompose()
    elif workload == "sparse_mrtpl":
        record.mrtpl(max_iterations=0)
    elif workload == "checkpoint_resume":
        record.checkpoint_resume()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    record.tick("end")
    record.seconds["flow_s"] = record.ticks[-1][1] - record.ticks[0][1]
    tracer.active = False
    record.run_deferred_checks()
    record.sample_setups(SETUP_SAMPLES[workload], build_grid=workload != "checkpoint_resume")
    return record

