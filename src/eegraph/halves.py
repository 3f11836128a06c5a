"""Row-separable passes in two halves, the second on one worker thread.

Output rows that each read only their own input rows, with no GEMM cut
along its rows (BLAS may block a cut product differently), have the same
bits however the rows are cut. The worker thread starts at the first
split; a forked child, which lacks the parent's worker, starts its own.
"""
import os
import threading
from collections.abc import Callable
from queue import SimpleQueue

import numpy as np

# A pass splits from SPLIT_ELEMENTS elements in all and SPLIT_ROW_ELEMENTS
# per row: every benchmark pass measured slower split is below one of them,
# every one measured faster above both (ROADMAP, "Measured and dropped")
SPLIT_ELEMENTS = 200_000
SPLIT_ROW_ELEMENTS = 1 << 11
_local = threading.local()  # `worker` is set on the worker thread, which never splits


def _reset_worker() -> None:
    global _tasks, _unstarted
    _tasks, _unstarted = SimpleQueue(), threading.Lock()  # held once the worker starts


_reset_worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_worker)


def _serve(tasks: SimpleQueue) -> None:
    _local.worker = True
    while True:
        run, rows, errstate, done = tasks.get()
        try:
            with np.errstate(**errstate):
                run(rows)
            outcome = None
        except BaseException as exc:
            outcome = exc
        del run  # the pass's arrays are the caller's to free, as is an error
        done.put(outcome)
        del outcome


def _inbox() -> SimpleQueue:
    if _unstarted.acquire(blocking=False):
        threading.Thread(target=_serve, args=(_tasks,), name="eegraph-rows", daemon=True).start()
    return _tasks


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def by_row_halves(rows: int, elements: int, run: Callable[[slice], None]) -> None:
    """Call `run` on slices covering `range(rows)`: in two halves when the
    pass is large enough, two CPUs are usable and the caller is not the
    worker. The worker's half runs under the caller's numpy errstate.
    Both halves end before an exception propagates; the first half's wins."""
    if (elements < max(SPLIT_ELEMENTS, SPLIT_ROW_ELEMENTS * rows) or rows < 2
            or getattr(_local, "worker", False) or _usable_cpus() < 2):
        run(slice(0, rows))
        return
    done = SimpleQueue()
    _inbox().put((run, slice((rows + 1) // 2, rows), np.geterr(), done))
    try:
        run(slice(0, (rows + 1) // 2))
    finally:
        second = done.get()  # the worker's half has ended
    if second is not None:
        raise second
