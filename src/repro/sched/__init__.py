"""Disjoint-batch scheduling and batched execution of net routing.

PRs 1-3 made single-net searches and per-net re-validation cheap; this
package converts the remaining serial outer loop into batched throughput:

* :class:`BatchScheduler` partitions a pending-net queue into
  order-preserving batches of nets whose interaction-radius-expanded
  windows are pairwise disjoint;
* :class:`BatchExecutor` routes each batch through a deterministic serial
  backend (bit-identical to the sequential loop -- the parity oracle) or
  the speculative ``pool`` backend, whose persistent forked workers route
  the whole batch against a frozen snapshot, after which every result's
  explored region is validated against batch-mates' committed deltas,
  accepted commit logs (plain :mod:`repro.journal` ops) replay through the
  grid's ``apply_op`` choke point (so the attached journal and the
  incremental DRC/conflict checkers see the merged batch) and the executor
  falls back to live routing when regions touch.  The workers fork
  **once** and re-synchronise between batches by replaying the grid
  journal suffix past their cursor -- no re-fork, no snapshot
  serialisation.  The pool needs the ``fork`` start method; asking for it
  on a platform without one is a ``ValueError``.

All three rip-up loops (``dr/router``, ``tpl/mr_tpl``,
``baselines/dac2012``) wire in through their ``parallelism`` /
``batch_size`` / ``batch_backend`` / ``min_fork_batch`` constructor knobs.

Execution is **supervised** (:mod:`repro.sched.supervisor`): per-batch
wall-clock deadlines, dead-worker detection, classified failures with
bounded exponential-backoff retry and single-worker replacement, and one
demotion, ``pool -> serial``, after consecutive failures -- serial being
the always-correct floor, every recovery path stays bit-identical to the
fault-free sequential run.

Which backend pays depends on the campaign's shape.  Mr.TPL with
``parallelism=2`` on a 2-vCPU host (minimum of 7 runs, every run
bit-identical to serial): the pool was 1.56x faster than serial on a
one-pass sparse design (sparse case 3, scale 1.0) and 0.73x on a rip-up
campaign (ispd18 case 3, scale 2.0).  Use ``pool`` for one-pass sparse
routing and ``serial`` for rip-up.
"""

from repro.sched.batches import BatchScheduler, CellWindow, windows_overlap
from repro.sched.commit import GridSink, RecordingSink, apply_route_ops
from repro.sched.executor import (
    BACKENDS,
    BatchExecutor,
    ExecutorStats,
    PersistentWorkerPool,
    make_batch_executor,
)
from repro.sched.supervisor import (
    FailureDetail,
    SupervisorConfig,
    WorkerFailure,
    classify_exception,
    classify_worker_payload,
)

__all__ = [
    "BACKENDS",
    "BatchExecutor",
    "BatchScheduler",
    "CellWindow",
    "ExecutorStats",
    "FailureDetail",
    "GridSink",
    "PersistentWorkerPool",
    "SupervisorConfig",
    "WorkerFailure",
    "classify_exception",
    "classify_worker_payload",
    "make_batch_executor",
    "RecordingSink",
    "apply_route_ops",
    "windows_overlap",
]
