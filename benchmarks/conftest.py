"""Shared configuration for the benchmark harnesses.

Every benchmark routes complete (small) designs, so a single measured round
is used instead of pytest-benchmark's default statistical repetition; the
interesting output is the table each benchmark prints (conflicts, stitches,
cost, runtime per case), mirroring the paper's tables.

Environment knobs:

``REPRO_BENCH_SCALE``
    Scale factor applied to every suite case (default ``0.7``; the flat
    search engines and incremental checkers bought the headroom to grow the
    default from the original ``0.5``).  The EXPERIMENTS.md numbers were
    produced at scale ``0.7`` via ``scripts/run_experiments.py``.
``REPRO_BENCH_CASES``
    Comma-separated list of case numbers to run (default ``1,2,3``).
"""

from __future__ import annotations

from typing import List

import pytest

from repro.utils.env import env_float, env_str


def bench_scale() -> float:
    """Return the suite scale factor used by the benchmark harnesses."""
    return env_float("REPRO_BENCH_SCALE", 0.7)


def bench_cases() -> List[int]:
    """Return the suite case numbers exercised by the benchmark harnesses."""
    raw = env_str("REPRO_BENCH_CASES", "1,2,3")
    try:
        return [int(token) for token in raw.split(",") if token.strip()]
    except ValueError:
        raise ValueError(
            "environment knob REPRO_BENCH_CASES must be comma-separated "
            f"integers, got {raw!r}"
        ) from None


@pytest.fixture(scope="session")
def scale() -> float:
    """Session fixture exposing the benchmark scale."""
    return bench_scale()


@pytest.fixture(scope="session")
def cases() -> List[int]:
    """Session fixture exposing the benchmark case list."""
    return bench_cases()


def run_once(benchmark, function, *args, **kwargs):
    """Run *function* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
