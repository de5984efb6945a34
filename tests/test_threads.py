"""The state thread pool: its width rule, its results at any width, and its
errors."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import dlrt.integrators as integrators
import dlrt.threads as threads
from dlrt.integrators import INTEGRATOR_NAMES, StepConfig, abc_psi_step, quadratic_oracle
from dlrt.linalg import NumericError
from dlrt.lowrank import LowRankState, TruncationPolicy
from dlrt.nn import build_network, mlp_specs, train_step
from helpers import init_lowrank

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def force_width(monkeypatch, width):
    """Make ``map_states`` run on ``width`` threads through its own rule:
    one BLAS thread and a share of ``width`` CPUs."""
    monkeypatch.setattr(threads, "blas_threads", lambda: 1)
    monkeypatch.setattr(threads, "_share", width)


@pytest.mark.parametrize("blas, cpus, tasks, expected", [
    (None, 4, 5, 1),  # no OpenBLAS found
    (4, 4, 5, 1),  # BLAS fills every CPU
    (8, 4, 5, 1),
    (2, 4, 5, 2),
    (1, 4, 5, 4),
    (1, 4, 2, 2),  # never more threads than tasks
])
def test_width_rule(monkeypatch, blas, cpus, tasks, expected):
    monkeypatch.setattr(threads, "blas_threads", lambda: blas)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert threads.width(tasks) == expected
    monkeypatch.setattr(threads, "_share", 1)  # a compare worker's, one worker per CPU
    assert threads.width(tasks) == 1


def fresh_reading(openblas_threads=None) -> tuple:
    """(blas_threads(), width(64)) in a fresh process with no BLAS thread
    variable set but ``OPENBLAS_NUM_THREADS`` when given."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(Path(threads.__file__).parents[1])
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(openblas_threads)
    code = "import numpy; from dlrt import threads; print(threads.blas_threads(), threads.width(64))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    blas, width = out.split()
    return (None if blas == "None" else int(blas)), int(width)


def test_unpinned_blas_runs_inline():
    # OpenBLAS starts a thread per CPU unless told otherwise, which leaves
    # no CPU for a second state thread: the CLI's default runs inline
    assert fresh_reading()[1] == 1


def test_pinned_blas_count_read():
    blas, width = fresh_reading(openblas_threads=1)
    if blas is None:
        pytest.skip("numpy's BLAS here is not an OpenBLAS with a thread-count symbol")
    assert blas == 1
    assert width == min(64, threads.cpu_count())


def test_map_states_order_and_first_error(monkeypatch):
    # every call ends before the first failed call's exception is raised
    force_width(monkeypatch, 3)
    ran = []

    def task(i, fails):
        ran.append(i)
        if fails:
            raise ValueError(f"task {i}")
        return i * i

    assert threads.map_states(task, range(7), [False] * 7) == [i * i for i in range(7)]
    ran.clear()
    with pytest.raises(ValueError, match="task 2"):
        threads.map_states(task, range(7), [i in (2, 5) for i in range(7)])
    assert sorted(ran) == list(range(7))


def net_and_batches(integrator):
    """A net of four low-rank layers, the last one's u0 square (4 x 4), or
    its dense twin for ``full``, and five batches with an all-zero pixel."""
    rank = None if integrator == "full" else 4
    net = build_network(mlp_specs((20, 12, 10, 6, 4), rank), seed=3)
    rng = np.random.default_rng(4)
    x = rng.random((80, 20))
    x[:, 0] = 0.0
    y = rng.integers(0, 4, 80)
    return net, [(x[i : i + 16], y[i : i + 16]) for i in range(0, 80, 16)]


def run_steps(integrator):
    net, batches = net_and_batches(integrator)
    cfg = StepConfig(h=0.1, policy=TruncationPolicy(tau=0.1, r_max=8))
    losses = []
    for batch in batches:
        net, loss = train_step(net, batch, integrator, cfg)
        losses.append(loss)
    arrays = []
    for layer in net.layers:
        weights = [layer.w] if layer.rank is None else [layer.state.u, layer.state.s,
                                                        layer.state.v]
        arrays += [a.tobytes() for a in weights] + [layer.bias.tobytes()]
    return np.array(losses).tobytes(), arrays


@pytest.fixture
def off_caller(monkeypatch):
    """An event set when an abc-psi task runs off the calling thread. Until
    then the caller's task waits in ``ortho_augment``, so on any host a
    pool thread takes the next task. A test that uses it steps at width 2
    first."""
    caller = threading.get_ident()
    event = threading.Event()
    original = integrators.ortho_augment

    def recorded(u0, k1):
        if threading.get_ident() != caller:
            event.set()
        elif not event.is_set():
            event.wait(timeout=30)
        return original(u0, k1)

    monkeypatch.setattr(integrators, "ortho_augment", recorded)
    return event


@pytest.mark.parametrize("integrator", INTEGRATOR_NAMES)
def test_steps_same_bytes_at_width_1_and_2(monkeypatch, off_caller, integrator):
    force_width(monkeypatch, 2)
    pooled = run_steps(integrator)
    assert off_caller.is_set() == (integrator == "abc-psi")
    force_width(monkeypatch, 1)
    assert run_steps(integrator) == pooled


def shaped_states_and_grads():
    """Four states of different shapes and a gradient function for them."""
    shapes = [(12, 9, 3), (10, 8, 2), (9, 9, 4), (7, 6, 3)]
    states = [init_lowrank(m, n, r, seed) for seed, (m, n, r) in enumerate(shapes)]
    rng = np.random.default_rng(5)
    oracles = [quadratic_oracle(rng.standard_normal((m, n))) for m, n, _ in shapes]

    def grads(pairs):
        return [oracle.grads([pair])[0] for oracle, pair in zip(oracles, pairs)]

    return states, grads


def scaled(states, i, factor):
    st = states[i]
    return [*states[:i], LowRankState(st.u, st.s * factor, st.v), *states[i + 1:]]


def step_error(states, grads):
    cfg = StepConfig(h=0.1, policy=TruncationPolicy(tau=0.1, r_max=6))
    # the pool's threads must see this error state too: a warning raised
    # there would replace the NumericError
    with np.errstate(all="ignore"), pytest.raises(NumericError) as info:
        abc_psi_step(states, grads, cfg)
    return str(info.value)


def test_non_finite_state_same_error_at_width_2(monkeypatch, off_caller):
    # states 1 and 3 both diverge, each with its own message; state 1's is
    # raised, as by the plain loop, though a pool thread ran it
    states, grads = shaped_states_and_grads()
    both = scaled(scaled(states, 1, 1e300), 3, np.nan)
    force_width(monkeypatch, 2)
    pooled = step_error(both, grads)
    assert off_caller.is_set()
    force_width(monkeypatch, 1)
    assert pooled == step_error(both, grads)
    assert pooled != step_error(scaled(states, 3, np.nan), grads)
