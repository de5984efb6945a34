"""The CPU budget of a process and a thread pool that spends it.

``width(tasks)`` is min(tasks, share // BLAS threads): the share is the
CPUs in the affinity mask (or what ``set_share`` set), and the BLAS
thread count is read once per process from the loaded OpenBLAS. Where
that count cannot be read, or leaves no CPU idle, the width is 1. It
sizes ``compare``'s worker processes and says whether ``map_tasks`` runs
its calls on the pool: an ``abc-psi`` step's layer tasks, an
evaluation's row chunks and a network build's layer factorizations.

``map_tasks(fn, *iterables)`` returns ``[fn(*args) for args in
zip(*iterables)]``. At width 1 the calls run in a plain loop on the
calling thread. Otherwise they go to a pool of share // BLAS threads,
whose one work queue hands the next call to whichever thread is idle,
while the caller waits. numpy releases the GIL inside BLAS and LAPACK,
and each call's arithmetic is the same on any thread, so results do not
depend on the width. A call runs in the caller's context variables,
numpy's error state among them. A ``map_tasks`` call made from a task
already on the pool runs its calls in the plain loop: waiting on the
pool it occupies could wait for ever.

The pool is created at the first call that needs it, sized share // BLAS
threads, and rebuilt only when that size changes, as when the affinity
mask narrows at run time. Calls of different task counts (a
step's layers, an evaluation's chunks, a build's factorizations) share
it. It is shut down before the process forks, so no pool thread is alive
in a forked child or at the fork.
"""

import contextvars
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Optional

__all__ = ["cpu_count", "blas_threads", "set_share", "width", "map_tasks"]

_BLAS_GETTERS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
)

_share: Optional[int] = None  # CPUs this process may fill; None: cpu_count()
_pool: Optional[ThreadPoolExecutor] = None
_pool_threads = 0
_pool_lock = threading.Lock()
_on_pool = contextvars.ContextVar("dlrt_on_pool", default=False)  # set in the pool's tasks


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


def _capacity() -> int:
    # share // BLAS threads, at least 1: the most threads the pool may run
    blas = blas_threads()
    if blas is None or blas < 1:
        return 1
    share = cpu_count() if _share is None else _share
    return max(1, share // blas)


def width(tasks: int) -> int:
    """How many threads, or ``compare`` worker processes, may run ``tasks``
    tasks beside BLAS's own threads."""
    return max(1, min(tasks, _capacity()))


def map_tasks(fn: Callable, *iterables) -> list:
    """``[fn(*args) for args in zip(*iterables)]``, the calls spread over
    ``width`` threads. Results come back in order. If calls raise, every
    call still ends, then the first failed call's exception is raised.
    Called from a pool task, the calls run in order on that task's thread."""
    jobs = list(zip(*iterables))
    if width(len(jobs)) == 1 or _on_pool.get():
        return [fn(*args) for args in jobs]
    pool = _executor(_capacity())
    futures = [pool.submit(_task_context().run, fn, *args) for args in jobs]
    wait(futures)
    return [future.result() for future in futures]


def _task_context() -> contextvars.Context:
    # a copy of the caller's context, which holds numpy's error state (the
    # CLI's np.errstate), marked as a pool task's
    context = contextvars.copy_context()
    context.run(_on_pool.set, True)
    return context


def _executor(threads: int) -> ThreadPoolExecutor:
    # the persistent pool of share // BLAS threads, rebuilt only if that
    # changes: a call with fewer tasks leaves the other threads idle. A pool
    # per call cost about 0.8 ms a step on a 784-128-10 net (2-CPU host, one
    # BLAS thread)
    global _pool, _pool_threads
    with _pool_lock:
        if _pool_threads != threads:
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
