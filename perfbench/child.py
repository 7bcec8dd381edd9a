"""One measured rep of one workload, run in its own process by ``run.py``.

Usage (normally only ``run.py`` calls this)::

    python3 perfbench/child.py --workload table2_dense --seed 0 --rep 0 \\
        --trace 0 --work-dir perfbench/_work/rep

It loads the compiled search and check kernels before anything is timed
(the first child in a fresh checkout also builds them), optionally
installs the tracing wrappers, runs the workload once and prints one JSON
object (the rep record) as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import uuid
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer  # noqa: E402

#: Route-flow spans whose self time is routing glue no layer accounts for.
ROUTE_FLOWS = ("flow.mrtpl", "flow.baseline", "flow.interrupted", "flow.resume")

#: Every span a layer metric is made of (``<name>_s`` is its self time).
LAYER_SPANS = (
    "bench.generate", "gr.route", "grid.init", "dr.cost.hoist",
    "native.spec.attach", "search.kernel", "tpl.backtrace", "grid.mutate",
    "check.conflict", "check.drc", "baselines.decompose", "eval.evaluate",
    "journal.fold", "io.save_checkpoint", "io.restore",
)


def environment() -> dict:
    """Load the kernels and return the tiers and versions this run uses."""
    from repro import accel

    accel.get_native_kernel()
    accel.get_check_kernel()
    numpy = accel.get_numpy()
    return {
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "search_tier": accel.active_search_tier(),
        "check_tier": accel.active_check_tier(),
        "nproc": os.cpu_count(),
    }


def install_tracing(tracer: Tracer) -> None:
    """Wrap the public calls of every traced layer (see NOTES.md)."""
    from repro.baselines import dac2012
    from repro.baselines.decomposer import LayoutDecomposer
    from repro.bench import suites, synthetic
    from repro.check.incremental_conflict import IncrementalConflictChecker
    from repro.check.incremental_drc import IncrementalDRCChecker
    from repro.dr import maze
    from repro.dr.cost import CostModel
    from repro.eval import metrics
    from repro.gr import GlobalRouter
    from repro.grid import RoutingGrid
    from repro.io import journal_io
    from repro.journal import MutationJournal
    from repro.search.core import SearchCore
    from repro.tpl import search
    from repro.tpl.backtrace import Backtracer

    generate = tracer.wrap(synthetic.generate_design, "bench.generate")
    synthetic.generate_design = generate
    suites.generate_design = generate
    tracer.patch(GlobalRouter, "route", "gr.route")
    tracer.patch(RoutingGrid, "__init__", "grid.init")
    for method in ("congestion_snapshot", "color_pressure_snapshot",
                   "guide_penalty_table", "base_cost_table"):
        tracer.patch(CostModel, method, "dr.cost.hoist")
    for module in (search, maze, dac2012):
        tracer.patch(module, "attach_native_spec", "native.spec.attach")

    def after_search(result, args, kwargs) -> None:
        tracer.count("search.expansions", result.expansions)
        tracer.count("search.found", result.found)

    tracer.patch(SearchCore, "run", "search.kernel", after_search)
    tracer.patch(Backtracer, "backtrace", "tpl.backtrace")
    tracer.patch(RoutingGrid, "apply_op", "grid.mutate")
    tracer.patch(IncrementalConflictChecker, "check", "check.conflict")
    tracer.patch(IncrementalDRCChecker, "refresh", "check.drc")
    tracer.patch(LayoutDecomposer, "decompose", "baselines.decompose")
    tracer.patch(metrics, "evaluate_solution", "eval.evaluate")
    tracer.patch(MutationJournal, "fold", "journal.fold")

    def after_save(result, args, kwargs) -> None:
        tracer.count("io.checkpoint_documents")
        tracer.count("io.checkpoint_bytes_total", os.path.getsize(args[0]))

    tracer.patch(journal_io, "save_checkpoint", "io.save_checkpoint", after_save)
    tracer.patch(journal_io, "checkpoint_from_dict", "io.restore")


def layer_metrics(tracer: Tracer, rep) -> dict:
    """Return the per-layer metrics of one traced rep."""
    self_s, calls = tracer.self_times()
    counters = tracer.counters
    layers = {f"{name}_s": self_s.get(name, 0.0) for name in LAYER_SPANS}
    for metric, span in (("dr.cost.hoist_calls", "dr.cost.hoist"),
                         ("native.spec.attach_calls", "native.spec.attach"),
                         ("search.calls", "search.kernel"),
                         ("tpl.backtrace_calls", "tpl.backtrace"),
                         ("check.conflict_calls", "check.conflict")):
        layers[metric] = calls.get(span, 0)
    layers["grid.mutate_ops"] = calls.get("grid.mutate", 0)
    layers["search.expansions"] = counters.get("search.expansions", 0)
    searches = calls.get("search.kernel", 0)
    layers["search.found_share"] = (
        counters.get("search.found", 0) / searches if searches else 0.0
    )
    documents = counters.get("io.checkpoint_documents", 0)
    layers["io.checkpoint_bytes"] = (
        counters.get("io.checkpoint_bytes_total", 0) / documents if documents else 0
    )
    routes = sum(rep.routes.values())
    layers["campaign.iterations"] = rep.iterations
    layers["campaign.net_routes"] = routes
    layers["campaign.reroute_share"] = rep.reroutes / routes if routes else 0.0
    layers["trace.unattributed_s"] = sum(self_s.get(flow, 0.0) for flow in ROUTE_FLOWS)
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", default=uuid.uuid4().hex[:12],
                        help="id shared by every span of one benchmark run")
    parser.add_argument("--work-dir", default=os.path.join(ROOT, "perfbench", "_work"))
    args = parser.parse_args(argv)

    env = environment()
    from workloads import run_workload

    tracer = Tracer(args.run_id, enabled=bool(args.trace))
    if args.trace:
        install_tracing(tracer)
    work_dir = os.path.join(args.work_dir, f"rep-{os.getpid()}")
    rep = run_workload(args.workload, args.seed, tracer, Path(work_dir))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "rep": args.rep,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "run_id": tracer.run_id,
        "env": env,
        "seconds": rep.seconds,
        "quality": rep.quality,
        "checks": rep.checks,
        "digests": rep.digests,
        "iterations": rep.iterations,
        "routes": rep.routes,
        "ticks": rep.ticks,
        "setup_samples": rep.setup_samples,
        "nets_attempted": rep.nets_attempted,
        "nets_failed": rep.nets_failed,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        record["layers"] = layer_metrics(tracer, rep)
        trace_path = os.path.join(args.work_dir, f"trace-{args.workload}-rep{args.rep}.json")
        tracer.write(trace_path)
        record["trace_file"] = os.path.relpath(trace_path, ROOT)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
