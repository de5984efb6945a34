"""Independent per-state work on a thread pool sized to the CPUs that BLAS
leaves idle.

``map_states(fn, *iterables)`` returns ``[fn(*args) for args in
zip(*iterables)]``. Its width is min(tasks, share // BLAS threads): the
share is the CPUs in the affinity mask (or what ``set_share`` set), and the
BLAS thread count is read once per process from the loaded OpenBLAS. Where
that count cannot be read, or leaves no CPU idle, the width is 1 and the
tasks run in a plain loop on the calling thread. Otherwise the calling
thread and width - 1 pool threads pull tasks from one shared queue, so a
starved pool thread cannot hold the others back. numpy releases the GIL
inside BLAS and LAPACK, and each task's arithmetic is the same on any
thread, so results do not depend on the width. A task runs in the
caller's context variables, numpy's error state among them.

The pool is created at the first call that needs it and kept for the next
ones. It is shut down before the process forks, so no pool thread is
alive in a forked child or at the fork.
"""

import contextvars
import ctypes
import functools
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Optional

__all__ = ["cpu_count", "blas_threads", "set_share", "width", "map_states"]

_BLAS_GETTERS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
)

_share: Optional[int] = None  # CPUs this process may fill; None: cpu_count()
_pool: Optional[ThreadPoolExecutor] = None
_pool_threads = 0
_pool_lock = threading.Lock()


def cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask, or all of the
    host's where the platform has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def blas_threads() -> Optional[int]:
    """The thread count of the OpenBLAS this process has loaded, or None
    where no OpenBLAS mapping or thread-count symbol is found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return getter()
    return None


def set_share(cpus: int) -> None:
    """Let this process fill ``cpus`` CPUs, in place of its affinity mask:
    the initializer of ``compare``'s workers, which split the mask."""
    global _share
    _share = cpus


def width(tasks: int) -> int:
    """How many threads ``map_states`` runs ``tasks`` tasks on."""
    blas = blas_threads()
    if blas is None or blas < 1:
        return 1
    share = cpu_count() if _share is None else _share
    return max(1, min(tasks, share // blas))


def map_states(fn: Callable, *iterables) -> list:
    """``[fn(*args) for args in zip(*iterables)]``, the calls spread over
    ``width`` threads. Results come back in order. If calls raise, every
    call still ends, then the first failed call's exception is raised."""
    jobs = list(zip(*iterables))
    threads = width(len(jobs))
    if threads == 1:
        return [fn(*args) for args in jobs]
    todo = queue.SimpleQueue()
    for i in range(len(jobs)):
        todo.put(i)
    outcomes = [None] * len(jobs)

    def drain():
        while True:
            try:
                i = todo.get_nowait()
            except queue.Empty:
                return
            try:
                outcomes[i] = (fn(*jobs[i]), None)
            except Exception as exc:
                outcomes[i] = (None, exc)

    # each pool thread drains in a copy of the caller's context, which holds
    # numpy's error state (the CLI's np.errstate), as the caller does
    pool = _executor(threads - 1)
    helpers = [pool.submit(contextvars.copy_context().run, drain) for _ in range(threads - 1)]
    try:
        drain()
    finally:
        wait(helpers)
    for helper in helpers:
        helper.result()
    for _, exc in outcomes:
        if exc is not None:
            raise exc
    return [value for value, _ in outcomes]


def _executor(threads: int) -> ThreadPoolExecutor:
    # the persistent pool, grown when a call needs more threads than it has;
    # a pool per call cost about 0.8 ms a step on a 784-128-10 net (2-CPU
    # host, one BLAS thread)
    global _pool, _pool_threads
    with _pool_lock:
        if _pool_threads < threads:
            if _pool is not None:
                _pool.shutdown(wait=True)
            _pool = ThreadPoolExecutor(threads, thread_name_prefix="dlrt-state")
            _pool_threads = threads
        return _pool


def _shutdown() -> None:
    # before a fork: a forked child would hold a pool whose threads it lacks
    global _pool, _pool_threads
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown(wait=True)
        _pool, _pool_threads = None, 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_shutdown)
