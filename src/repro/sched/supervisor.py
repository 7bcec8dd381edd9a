"""Supervision policy for batch execution: deadlines, liveness, retry, demotion.

Worker failure is an expected, *classified* event, not a campaign-ending
``RuntimeError``:

* :class:`SupervisorConfig` -- the policy: per-batch wall-clock deadlines
  derived from batch size, bounded retries with exponential backoff, and
  the consecutive-failure threshold that demotes the pool to serial.
  A router's executor holds one (``executor.supervisor``); callers that
  want another policy replace it before the run.
* :class:`FailureDetail` / :class:`WorkerFailure` -- one classified
  failure record per worker (index, journal cursor, kind, message) and
  the aggregate exception carrying **all** of them (the first failure
  must not silently eat the rest).
* :func:`await_worker_reply` -- the supervised receive loop: polls the
  worker pipe, detects dead processes immediately, and classifies an
  expired batch deadline as a timeout.

The one demotion is ``pool -> serial``: serial is the always-correct floor
(bit-identical to the sequential loop by construction), so a demoted
campaign still terminates with the exact fault-free solution.

Every recovery path re-routes through the executor's existing
validation/fallback machinery, which is what keeps recovery bit-identical
to the fault-free serial run -- supervision only decides *when* to retry,
replace or demote, never *what* a route looks like.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

#: Failure kinds, in the order used to pick an aggregate's headline kind.
FAILURE_KINDS = ("timeout", "crash", "replay", "compute", "fatal")


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision policy of one executor.

    ``deadline_override`` replaces the batch-size-derived deadline
    (``0`` disables deadlines); ``max_retries`` bounds the retries of one
    failed batch, attempt ``k`` sleeping ``backoff_base * 2**(k-1)``
    first; ``demote_after`` consecutive retry-exhausted batches demote the
    executor from the pool to serial.
    """

    deadline_override: Optional[float] = None
    deadline_base: float = 60.0
    deadline_per_net: float = 15.0
    max_retries: int = 2
    backoff_base: float = 0.05
    demote_after: int = 2

    def deadline_seconds(self, batch_size: int) -> Optional[float]:
        """Return the wall-clock budget for a *batch_size*-net batch.

        The explicit ``deadline_override`` wins; ``0`` means
        "no deadline" (returns ``None``).  Otherwise the budget scales
        with the batch: ``base + per_net * batch_size``.
        """
        if self.deadline_override is not None:
            return self.deadline_override or None
        return self.deadline_base + self.deadline_per_net * max(1, batch_size)

    def backoff_seconds(self, attempt: int) -> float:
        """Return the sleep before retry *attempt* (1-based), exponentially grown."""
        return self.backoff_base * (2.0 ** max(0, attempt - 1))


@dataclass
class FailureDetail:
    """One classified per-worker failure record."""

    worker: Optional[int]
    kind: str
    message: str
    cursor: Optional[int] = None
    net: Optional[str] = None

    def __str__(self) -> str:
        where = "parent" if self.worker is None else f"worker {self.worker}"
        cursor = "" if self.cursor is None else f" @cursor {self.cursor}"
        net = "" if self.net is None else f" (net {self.net!r})"
        return f"{where}{cursor} [{self.kind}]{net}: {self.message}"


class WorkerFailure(RuntimeError):
    """A classified batch-execution failure aggregating every worker's detail.

    ``kind`` is the most severe detail kind (:data:`FAILURE_KINDS` order);
    ``retryable`` says whether a bounded retry (after worker replacement)
    can plausibly succeed -- replay/compute/crash/timeout
    failures are retryable because a replaced worker starts from clean,
    authoritative parent state, while ``fatal`` marks design errors
    (misconfiguration, unpicklable payloads, bugs) that retrying cannot
    fix.  The message enumerates **all** failed workers with their index
    and journal cursor -- the first failure never hides the rest.
    """

    def __init__(self, details: Sequence[FailureDetail], context: str = "batch"):
        self.details: List[FailureDetail] = list(details)
        kinds = {detail.kind for detail in self.details}
        self.kind = next(
            (kind for kind in FAILURE_KINDS if kind in kinds), "fatal"
        )
        self.retryable = "fatal" not in kinds
        super().__init__(
            f"{context} failed ({len(self.details)} worker failure"
            f"{'s' if len(self.details) != 1 else ''}): "
            + "; ".join(str(detail) for detail in self.details)
        )


def classify_worker_payload(
    payload: object, worker: Optional[int], cursor: Optional[int]
) -> FailureDetail:
    """Classify an ``("error", payload)`` reply a worker sent up the pipe."""
    if isinstance(payload, dict):
        return FailureDetail(
            worker=worker,
            kind=str(payload.get("kind", "compute")),
            message=str(payload.get("error", payload)),
            cursor=payload.get("ops_seen", cursor),
            net=payload.get("net"),
        )
    # Legacy / free-form error strings: assume a compute-stage failure.
    return FailureDetail(worker=worker, kind="compute", message=str(payload), cursor=cursor)


def classify_exception(exc: BaseException) -> str:
    """Classify a parent-side exception from a pool batch.

    Pipe breakage is a crash (retryable -- the next
    attempt starts fresh workers); anything else raised by the backend
    machinery itself is treated as retryable compute noise only when it
    came from fault injection, and as a fatal design error otherwise
    (a deterministic bug re-raises identically on every retry, and the
    serial floor will surface it to the caller with a clean traceback).
    """
    import multiprocessing
    from concurrent.futures import TimeoutError as FuturesTimeout

    from repro.faults import FaultError

    if isinstance(exc, (FuturesTimeout, multiprocessing.TimeoutError)):
        return "timeout"
    if isinstance(exc, (BrokenPipeError, EOFError, ConnectionError, OSError)):
        return "crash"
    if isinstance(exc, FaultError):
        return "compute"
    return "fatal"


@dataclass
class ReplyOutcome:
    """What :func:`await_worker_reply` observed from one worker."""

    payload: Optional[object] = None
    failure: Optional[FailureDetail] = None


def await_worker_reply(
    conn,
    process,
    worker: int,
    cursor: int,
    deadline_at: Optional[float],
    poll_interval: float = 0.05,
) -> ReplyOutcome:
    """Supervised receive of one worker's batch reply.

    Returns the ``("ok", payload)`` reply's payload and classifies
    everything else: a worker-sent ``("error", detail)`` by its own
    classification, a dead process / EOF as a ``crash``, and an expired
    batch deadline as a ``timeout``.  Never raises -- the caller
    aggregates outcomes across workers into one :class:`WorkerFailure`.
    """

    def crash(message: str) -> ReplyOutcome:
        return ReplyOutcome(failure=FailureDetail(
            worker=worker, kind="crash", cursor=cursor, message=message,
        ))

    while True:
        # Drain before judging: a reply already sitting in the pipe is
        # accepted even past the deadline, so one hung batch-mate never
        # condemns workers that finished in time.
        try:
            ready = conn.poll(0)
        except (OSError, ValueError):
            return crash("worker pipe broke while awaiting reply")
        if ready:
            try:
                status, payload = conn.recv()
            except (EOFError, OSError):
                return crash("worker pipe closed mid-batch (EOF)")
            if status == "ok":
                return ReplyOutcome(payload=payload)
            return ReplyOutcome(
                failure=classify_worker_payload(payload, worker, cursor)
            )
        wait = poll_interval
        if deadline_at is not None:
            now = time.monotonic()
            if now >= deadline_at:
                return ReplyOutcome(failure=FailureDetail(
                    worker=worker, kind="timeout", cursor=cursor,
                    message="batch deadline exceeded (worker hung or too slow)",
                ))
            wait = min(wait, deadline_at - now)
        try:
            ready = conn.poll(wait)
        except (OSError, ValueError):
            return crash("worker pipe broke while awaiting reply")
        if ready:
            continue  # the top-of-loop drain consumes it
        if process is not None and not process.is_alive():
            # One last drain: the worker may have replied and exited
            # between our poll and the liveness check.
            if not conn.poll(0):
                return crash(
                    f"worker process died mid-batch (exitcode {process.exitcode})"
                )
