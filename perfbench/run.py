"""End-to-end routing benchmark of ``repro`` (see perfbench/NOTES.md).

Run from the repository root.  One workload, in the form that
``BENCHMARK.json``'s command takes::

    python3 perfbench/run.py --workload table2_dense --seed 0 --seconds 24 --trace 0

Everything -- every workload untraced, then traced::

    python3 perfbench/run.py --all

Steadiness: ten seeds per workload, the quartile spread of every printed
metric (against its bound where ``BENCHMARK.json`` gates it), plus the
hash-seed digest comparison::

    python3 perfbench/run.py --steadiness 10

One process (this one) launches one child per measured rep, one at a time.
Every rep of a run routes the same design, built from ``--seed``, under
the same ``PYTHONHASHSEED``, also taken from ``--seed``; the run times
each part of a rep by its fastest rep (``segment_times``).  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import uuid
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = ("table2_dense", "table3_dense", "sparse_mrtpl", "checkpoint_resume")

#: Seconds one rep takes (child start-up included) on an unloaded 2-vCPU
#: host.  A run makes ``round(seconds / REP_SECONDS)`` reps, at least
#: MIN_REPS (a traced run: pairs of one untraced and one traced rep, at
#: least one pair).  The count depends on ``--seconds`` alone, never on
#: how fast the reps go, so two commits measured alike time alike.
REP_SECONDS = {"table2_dense": 10.0, "table3_dense": 7.0,
               "sparse_mrtpl": 5.5, "checkpoint_resume": 11.0}
MIN_REPS = 2
#: A run starts no new rep once it is this many seconds old, so that it
#: ends well inside the 180 s a run may take even on a very slow host.
RUN_BUDGET_S = 100.0
#: Seconds ``workloads.reference_seconds`` takes on an unloaded 2-vCPU
#: host: ``setup_s`` is given in seconds of a host that fast.
REFERENCE_SECONDS = 0.1
#: Longest one child may take before the run counts it as failed.
CHILD_TIMEOUT_S = 150.0

#: (name, unit) of every end-to-end metric the run prints; the JSON line
#: carries the ones ``BENCHMARK.json`` lists (present on every workload).
#: The per-layer metrics a traced run prints are those it lists.
END_TO_END = (
    ("setup_s", "s"), ("mrtpl_route_s", "s"), ("baseline_route_s", "s"),
    ("speedup", "ratio"), ("flow_s", "s"), ("resume_s", "s"),
    ("mrtpl_conflicts", "count"), ("mrtpl_stitches", "count"),
    ("baseline_conflicts", "count"), ("baseline_stitches", "count"),
    ("mrtpl_score", "ISPD-cost"), ("failed_net_share", "ratio"),
    ("check_failures", "count"), ("peak_rss_mb", "MB"),
)
#: Checks whose failure is a known defect to report, not a wrong output:
#: resume divergence (NOTES.md, "Known defects").  They still count in
#: ``check_failures``.
REPORTED_ONLY_CHECKS = ("resume_identity",)


def load_spec() -> dict:
    """Return ``BENCHMARK.json``: which end-to-end metrics the JSON carries."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def per_layer_units() -> dict:
    """Return ``{name: unit}`` of every per-layer metric, in listed order."""
    return {m["name"]: m["unit"] for m in load_spec()["per_layer"]}


def hash_seed(seed: int) -> int:
    """Return the ``PYTHONHASHSEED`` of every rep under workload *seed*."""
    return seed % 4294967296


def fail(message: str) -> None:
    """Print *message* and exit with status 2, printing no result."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------

def child_env(hash_seed_value: int) -> dict:
    """Return the environment of a measured child.

    ``REPRO_*`` knobs are dropped so every run uses the routers' defaults;
    ``TMPDIR`` keeps every temporary file inside the checkout.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = str(hash_seed_value)
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def run_child(args, hash_seed_value: int) -> dict:
    """Run ``child.py`` with *args*; return its JSON record or an error."""
    command = [sys.executable, CHILD, "--work-dir", WORK] + args
    try:
        completed = subprocess.run(
            command, cwd=ROOT, env=child_env(hash_seed_value), capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {CHILD_TIMEOUT_S} s: {args}"}
    lines = completed.stdout.strip().splitlines()
    if completed.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    tail = completed.stderr.strip().splitlines()[-5:]
    return {"error": f"child exited {completed.returncode}: {' | '.join(tail)}"}


def git_revision() -> str:
    """Return the checkout's git revision, or ``unknown`` outside git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the reps of *workload* that fit *seconds*; return the run summary."""
    reps, traced = [], []
    if trace:
        count = max(1, round(seconds / (2 * REP_SECONDS[workload])))
    else:
        count = max(MIN_REPS, round(seconds / REP_SECONDS[workload]))
    run_id = uuid.uuid4().hex[:12]
    started = perf_counter()
    for rep in range(count):
        if rep and perf_counter() - started > RUN_BUDGET_S:
            break
        args = ["--workload", workload, "--seed", str(seed), "--rep", str(rep),
                "--run-id", run_id]
        reps.append(run_child(args + ["--trace", "0"], hash_seed(seed)))
        if trace:
            traced.append(run_child(args + ["--trace", "1"], hash_seed(seed)))
    summary = summarize(workload, seed, seconds, reps, traced)
    summary["run_id"] = run_id
    summary["run_wall_s"] = perf_counter() - started
    return summary


def invalid(record: dict) -> bool:
    """Return whether a rep crashed or produced a wrong output."""
    if "error" in record:
        return True
    return any(not passed and name.split(".")[0] not in REPORTED_ONLY_CHECKS
               for name, passed in record["checks"].items())


def segment_times(reps) -> dict:
    """Return each ``seconds`` key's time as a sum of per-segment minima.

    Every rep of a run routes the same design under the same hash seed, so
    all reps split into the same sequence of segments (see ``Rep.tick``):
    one per set-up, net route and block boundary.  Segment *i* is timed by
    its fastest rep, and a key's time is the sum over its segments.  Load
    from other tenants of the host comes in bursts of a few seconds that
    slow a process by up to 2x; a burst rarely covers the same segment in
    every rep, so it drops out.  Returns ``{}`` when the reps' segment
    sequences differ (then whole-rep minima are used).
    """
    sequences = [[key for key, _ in r["ticks"]] for r in reps]
    if any(sequence != sequences[0] for sequence in sequences):
        return {}
    durations = [[b[1] - a[1] for a, b in zip(r["ticks"], r["ticks"][1:])] for r in reps]
    totals = {"flow_s": 0.0}
    for index, key in enumerate(sequences[0][:-1]):
        value = min(d[index] for d in durations)
        totals[key] = totals.get(key, 0.0) + value
        totals["flow_s"] += value
    return totals


def setup_seconds(reps) -> float:
    """Return ``setup_s``: the set-up time of one rep's flows.

    Load from other tenants also comes in phases that slow everything by
    up to 2x for a minute or more, longer than a run, so no choice among
    a run's own samples removes it.  Each set-up sample is therefore taken
    as a ratio to the reference task timed right before and after it
    (``workloads.sample_setups``), which a phase slows alike.  The lower
    quartile of the run's ratios (robust to a burst that hits either side
    of one ratio), times REFERENCE_SECONDS, is one set-up in seconds of an
    unloaded host; times the number of set-ups in the flows, it is
    ``setup_s``.
    """
    ratios = [seconds / reference for r in reps for seconds, reference in r["setup_samples"]]
    ratio = statistics.quantiles(ratios, n=4)[0] if len(ratios) > 1 else ratios[0]
    setups = [key for key, _ in reps[0]["ticks"]].count("setup_s")
    return setups * REFERENCE_SECONDS * ratio


def summarize(workload, seed, seconds, reps, traced) -> dict:
    """Fold the rep records of one run into its metrics and verdict."""
    failed = sum(invalid(record) for record in reps + traced)
    ok_reps = [r for r in reps if "error" not in r]
    check_failures = sum(
        not passed for record in ok_reps for passed in record["checks"].values()
    )
    metrics = {}
    segments = segment_times(ok_reps) if ok_reps else {}
    if ok_reps:
        # The flows' own set-ups count in flow_s, as measured.
        metrics["setup_s"] = setup_seconds(ok_reps)
        for key in ("mrtpl_route_s", "baseline_route_s", "flow_s", "resume_s"):
            if key in ok_reps[0]["seconds"]:
                metrics[key] = segments.get(key) if segments else min(
                    r["seconds"][key] for r in ok_reps)
        if "baseline_route_s" in metrics:
            metrics["speedup"] = metrics["baseline_route_s"] / metrics["mrtpl_route_s"]
        # Quality is deterministic per design and hash seed, and every rep
        # routes the same design under the same hash seed.
        first = ok_reps[0]
        for key in ("mrtpl_conflicts", "mrtpl_stitches", "baseline_conflicts",
                    "baseline_stitches", "mrtpl_score"):
            if key in first["quality"]:
                metrics[key] = first["quality"][key]
        attempted = sum(r["nets_attempted"] for r in ok_reps)
        metrics["failed_net_share"] = (
            sum(r["nets_failed"] for r in ok_reps) / attempted if attempted else 0.0
        )
        metrics["check_failures"] = check_failures
        metrics["peak_rss_mb"] = statistics.median([r["peak_rss_mb"] for r in ok_reps])
    layers = {}
    ok_traced = [t for t in traced if "error" not in t]
    if ok_traced:
        for name in per_layer_units():
            if name != "trace.overhead_s":
                layers[name] = statistics.median([t["layers"][name] for t in ok_traced])
        pairs = [(t["seconds"]["flow_s"], r["seconds"]["flow_s"])
                 for t, r in zip(traced, reps) if "error" not in t and "error" not in r]
        if pairs:
            layers["trace.overhead_s"] = statistics.median([a - b for a, b in pairs])
    env = dict(ok_reps[0]["env"]) if ok_reps else {}
    env["git_revision"] = git_revision()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "env": env,
        "hash_seed": hash_seed(seed),
        "estimator": "segment minima" if segments else "rep minima (reps diverged)",
        "flow_seconds": segments,
        "correct": failed == 0,
        "attempted": len(reps) + len(traced),
        "failed": failed,
        "metrics": metrics,
        "layers": layers,
        "reps": reps,
        "traced": traced,
    }


def report(summary: dict, trace: bool) -> dict:
    """Print the run's metrics by name and unit; return the JSON result."""
    env = summary["env"]
    native = env.get("search_tier") == env.get("check_tier") == "native"
    tier = "native" if native else "NON-NATIVE"
    print(f"# workload={summary['workload']} seed={summary['seed']} "
          f"hash_seed={summary['hash_seed']} reps={len(summary['reps'])} "
          f"times from {summary['estimator']}")
    print(f"# git={env['git_revision']} python={env.get('python')} "
          f"numpy={env.get('numpy')} search_tier={env.get('search_tier')} "
          f"check_tier={env.get('check_tier')} nproc={env.get('nproc')} ({tier} tiers)")
    for index, record in enumerate(summary["reps"]):
        if "error" in record:
            print(f"# rep {index}: FAILED {record['error']}")
            continue
        failed = [name for name, ok in record["checks"].items() if not ok]
        print(f"# rep {index}: hash_seed={record['hash_seed']} routes={record['routes']} "
              f"digests={record['digests']} "
              f"quality={record['quality']} failed_checks={failed}")
    if "setup_s" in summary["flow_seconds"]:
        print(f"# flows' own set-ups, fastest rep: {summary['flow_seconds']['setup_s']:.4g} s "
              "wall (setup_s below is reference-scaled)")
    for name, unit in END_TO_END:
        if name in summary["metrics"]:
            print(f"{name} {summary['metrics'][name]:.6g} {unit}")
    if trace:
        for name, unit in per_layer_units().items():
            if name in summary["layers"]:
                print(f"{name} {summary['layers'][name]:.6g} {unit}")
    units = per_layer_units() if trace else dict(END_TO_END)
    gated = [m["name"] for m in load_spec()["end_to_end"]]
    chosen = summary["layers"] if trace else {
        name: summary["metrics"][name] for name in gated if name in summary["metrics"]
    }
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(
        WORK, f"result-{summary['workload']}-seed{summary['seed']}-trace{int(trace)}.json"
    )
    with open(path, "w") as handle:
        json.dump(summary, handle, indent=1)
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in chosen.items()},
    }


# ----------------------------------------------------------------------
# Steadiness and hash-seed sensitivity
# ----------------------------------------------------------------------

def steadiness(workloads, runs: int, seconds: float) -> None:
    """Run each workload on *runs* seeds; print every metric's spread.

    The spread is the quartile distance over the median, as
    ``statistics.quantiles(values, n=4)`` gives the quartiles.  Gated
    metrics are marked ``ok`` below a third of their bound.
    """
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    for workload in workloads:
        values = {}
        for seed in range(1, runs + 1):
            run_started = perf_counter()
            completed = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=400,
            )
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            with open(os.path.join(WORK, f"result-{workload}-seed{seed}-trace0.json")) as handle:
                printed = json.load(handle)["metrics"]
            for name, value in printed.items():
                values.setdefault(name, []).append(value)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"wall={perf_counter() - run_started:.1f}s "
                  + " ".join(f"{n}={e['value']:.4g}" for n, e in result["metrics"].items()),
                  flush=True)
        for name, series in values.items():
            q1, q2, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / q2 if q2 else float("nan")
            bound = bounds.get(name)
            verdict = " (not gated)" if bound is None else (
                f" bound={bound} {'ok' if spread < bound / 3 else 'WIDE'}")
            print(f"{workload} {name} median={q2:.4g} spread={spread:.3f}{verdict}")
        hash_sensitivity(workload)


def hash_sensitivity(workload: str) -> None:
    """Route seed 0, rep 0 under two hash seeds; print if digests match.

    Reported, not gated: routing results still depend on Python's string
    hash seed (NOTES.md, "Known defects").
    """
    args = ["--workload", workload, "--seed", "0", "--rep", "0", "--trace", "0"]
    first, second = run_child(args, 0), run_child(args, 1)
    if "error" in first or "error" in second:
        print(f"{workload} hash-seed check failed to run")
        return
    for flow, digest in first["digests"].items():
        other = second["digests"].get(flow)
        print(f"{workload} hash-seed 0 vs 1 {flow}: "
              f"{'match' if digest == other else 'DIFFER'} ({digest} / {other}) "
              f"quality {first['quality']} / {second['quality']}")


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end routing benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced, then traced")
    parser.add_argument("--steadiness", type=int, metavar="RUNS",
                        help="run each workload (or --workload) on RUNS seeds")
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "repro", "__init__.py")):
        fail(f"no repro sources under {os.path.join(ROOT, 'src')}; "
             "run from a full checkout of the repository")
    if args.steadiness:
        steadiness([args.workload] if args.workload else WORKLOADS,
                   args.steadiness, args.seconds)
    elif args.all:
        for workload in WORKLOADS:
            for trace in (False, True):
                result = report(measure(workload, args.seed, args.seconds, trace), trace)
                print(json.dumps(result), flush=True)
    elif args.workload is None:
        parser.error("--workload is required (or use --all / --steadiness)")
    else:
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(report(summary, bool(args.trace))))
    shutil.rmtree(os.path.join(WORK, "tmp"), ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
