"""Routing results must not depend on ``PYTHONHASHSEED``.

Python salts the hash of every ``str`` per process, so anything that
iterates a set of net names visits the nets in a per-process order.  A
campaign's solution must not follow that order: each test here routes in
fresh interpreters under fixed, different hash seeds and compares the
solution digests.  The design (ispd18-like case 2 at scale 0.7) is small
enough to route in a fraction of a second, yet its rip-up iterations
resolve conflicts between pairs of nets, where the order used to leak in
through the conflict anchor of the incremental checker.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

CASE = ("ispd18", 2, 0.7)

CHILD = """
import hashlib, json, sys, tempfile
from pathlib import Path

from repro.baselines import Dac2012Router
from repro.bench.micro import solution_fingerprint, solution_metrics
from repro.bench.suites import suite_case
from repro.eval.experiments import route_with_checkpoint
from repro.grid import RoutingGrid
from repro.tpl import ConflictChecker, MrTPLRouter

mode, suite, number, scale = sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])


def build():
    return suite_case(suite, number, scale).build()


def digest(solution):
    items = sorted(solution_fingerprint(solution).items())
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


class Interrupted(Exception):
    pass


if mode == "resume":
    pair_conflicts = []

    def interrupt(state):
        if state.iteration == 0:
            design = build()
            report = ConflictChecker(design, RoutingGrid(design)).check(state.solution)
            pair_conflicts.append(sum(
                1 for conflict in report.conflicts
                if not conflict.net_b.startswith("__fixed__")
            ))
        if state.iteration == 1 and not state.done:
            raise Interrupted()

    with tempfile.TemporaryDirectory() as tmp:
        kwargs = dict(use_global_router=False)
        reference, _, _ = route_with_checkpoint(
            build(), MrTPLRouter, Path(tmp) / "reference.json", **kwargs
        )
        cut = Path(tmp) / "interrupted.json"
        try:
            route_with_checkpoint(build(), MrTPLRouter, cut, on_checkpoint=interrupt, **kwargs)
        except Interrupted:
            pass
        resumed, _, was_resumed = route_with_checkpoint(build(), MrTPLRouter, cut, **kwargs)
    print(json.dumps({
        "reference": digest(reference),
        "resumed": digest(resumed),
        "was_resumed": was_resumed,
        "iterations": reference.iterations,
        "pair_conflicts_after_initial_pass": pair_conflicts[0],
    }))
else:
    router_cls = {"mrtpl": MrTPLRouter, "dac2012": Dac2012Router}[mode]
    solution = router_cls(build(), use_global_router=False).run()
    print(json.dumps({"digest": digest(solution), "metrics": solution_metrics(solution)}))
"""


def run_child(mode, hash_seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", CHILD, mode, *map(str, CASE)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("router", ["mrtpl", "dac2012"])
def test_campaign_solution_independent_of_hash_seed(router):
    first, second = run_child(router, 0), run_child(router, 1)
    assert first["metrics"]["iterations"] >= 2, "case too easy to exercise rip-up"
    assert first == second


@pytest.mark.parametrize("hash_seed", [0, 6])
def test_resumed_campaign_equals_uninterrupted(hash_seed):
    """A campaign resumed after iteration 1 ends on the uninterrupted solution.

    The resumed process rebuilds the incremental conflict checker from
    scratch, so every net pair is classified in a fresh order; only an
    order-independent classification makes the two campaigns agree.
    """
    result = run_child("resume", hash_seed)
    assert result["was_resumed"]
    assert result["iterations"] >= 2
    assert result["pair_conflicts_after_initial_pass"] > 0
    assert result["resumed"] == result["reference"]
