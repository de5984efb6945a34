"""The thread pool: its width rule, its one executor, its results at any
width for an abc-psi step's states, an evaluation's row chunks and a
network build's factorizations, its nested calls, and its errors."""

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dlrt.cli as cli
import dlrt.integrators as integrators
import dlrt.nn as nn
import dlrt.threads as threads
from dlrt.cli import _dataset_loss
from dlrt.data import Dataset
from dlrt.integrators import (
    INTEGRATOR_NAMES, STEPPERS, StepConfig, abc_psi_step, quadratic_oracle,
)
from dlrt.linalg import NumericError
from dlrt.lowrank import LowRankState, TruncationPolicy
from dlrt.nn import LayerSpec, build_network, evaluate, mlp_specs, train_step
from helpers import force_width, init_lowrank, net_bytes

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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


def test_map_tasks_order_and_first_error(monkeypatch):
    # every call ends before the first failed call's exception is raised
    force_width(monkeypatch, 3)
    ran = []

    def task(i, fails):
        ran.append(i)
        if fails:
            raise ValueError(f"task {i}")
        return i * i

    assert threads.map_tasks(task, range(7), [False] * 7) == [i * i for i in range(7)]
    ran.clear()
    with pytest.raises(ValueError, match="task 2"):
        threads.map_tasks(task, range(7), [i in (2, 5) for i in range(7)])
    assert sorted(ran) == list(range(7))


def test_one_executor_for_any_task_count(monkeypatch):
    # a step's tasks and an evaluation's chunks alternate in their counts;
    # the pool is sized once, at share // BLAS threads, and kept
    force_width(monkeypatch, 4)
    threads._shutdown()
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return ThreadPoolExecutor(*args, **kwargs)

    monkeypatch.setattr(threads, "ThreadPoolExecutor", counted)
    for tasks in [2, 4] * 10:
        assert threads.map_tasks(lambda i: i + 1, range(tasks)) == list(range(1, tasks + 1))
    assert built == [(4,)]


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
    return np.array(losses).tobytes(), net_bytes(net)


@pytest.fixture
def augment_on_caller(monkeypatch):
    """Per ``ortho_augment`` call, whether it ran on the calling thread.
    Only abc-psi calls it, once per state, inside a ``map_tasks`` task."""
    caller = threading.get_ident()
    on_caller = []
    original = integrators.ortho_augment

    def recorded(u0, k1):
        on_caller.append(threading.get_ident() == caller)
        return original(u0, k1)

    monkeypatch.setattr(integrators, "ortho_augment", recorded)
    return on_caller


@pytest.mark.parametrize("integrator", INTEGRATOR_NAMES)
def test_steps_same_bytes_at_width_1_and_2(monkeypatch, augment_on_caller, integrator):
    # at width 2 the caller waits while the pool runs every task
    force_width(monkeypatch, 2)
    pooled = run_steps(integrator)
    assert bool(augment_on_caller) == (integrator == "abc-psi")
    assert not any(augment_on_caller)
    force_width(monkeypatch, 1)
    assert run_steps(integrator) == pooled


@st.composite
def stepped_nets(draw):
    """A random net of low-rank layers, relu or identity each, the output
    layer's too; a stepper with its config; and six seeded batches."""
    widths = draw(st.lists(st.integers(1, 24), min_size=2, max_size=4), label="widths")
    rank = draw(st.integers(1, 8), label="rank")
    acts = draw(st.lists(st.sampled_from(["relu", "identity"]),
                         min_size=len(widths) - 1, max_size=len(widths) - 1), label="activations")
    specs = [LayerSpec(n_in, n_out, act, min(rank, n_in, n_out))
             for n_in, n_out, act in zip(widths, widths[1:], acts)]
    integrator = draw(st.sampled_from(sorted(STEPPERS)), label="integrator")
    r_min = draw(st.integers(1, 3), label="r_min")
    policy = TruncationPolicy(tau=draw(st.sampled_from([0.0, 1e-6, 0.05, 0.3, 0.9]), label="tau"),
                              r_max=draw(st.integers(r_min, 16), label="r_max"), r_min=r_min)
    cfg = StepConfig(h=10.0 ** draw(st.floats(-4.0, 3.0), label="log10 h"), policy=policy)
    rows = draw(st.integers(1, 9), label="rows")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="data seed"))
    batches = [(rng.standard_normal((rows, widths[0])), rng.integers(0, widths[-1], rows))
               for _ in range(6)]
    return build_network(specs, seed=0), integrator, cfg, batches


def six_steps(net, integrator, cfg, batches, width) -> tuple:
    """The nets and the losses' bytes of six steps at pool width ``width``,
    and the message of the ``NumericError`` that ended them early, if any."""
    nets, losses, error = [], [], None
    with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore", invalid="ignore"):
        force_width(patch, width)
        try:
            for batch in batches:
                net, loss = train_step(net, batch, integrator, cfg)
                nets.append(net)
                losses.append(loss)
        except NumericError as exc:
            error = str(exc)
    return nets, np.array(losses).tobytes(), error


@settings(max_examples=250, derandomize=True, deadline=None)
@given(run=stepped_nets())
def test_random_steps_same_bytes_at_width_1_and_2(run):
    # any stepper on any small net, step size and policy: the same losses,
    # factors and biases, or the same error, at either width; every state
    # reached is valid, and abc-psi keeps each rank in the policy's window
    net, integrator, cfg, batches = run
    nets, losses, error = six_steps(net, integrator, cfg, batches, 1)
    pooled, pooled_losses, pooled_error = six_steps(net, integrator, cfg, batches, 2)
    assert (pooled_losses, pooled_error) == (losses, error)
    assert [net_bytes(n) for n in pooled] == [net_bytes(n) for n in nets]
    policy = cfg.policy
    for stepped in nets:
        for start, layer in zip(net.layers, stepped.layers):
            layer.state.validate()
            if integrator == "abc-psi":
                assert min(policy.r_min, start.rank) <= layer.rank <= policy.r_max
            else:
                assert layer.rank == start.rank


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


def test_non_finite_state_same_error_at_width_2(monkeypatch, augment_on_caller):
    # states 1 and 3 both diverge, each with its own message; state 1's is
    # raised, as by the plain loop, though a pool thread ran it
    states, grads = shaped_states_and_grads()
    both = scaled(scaled(states, 1, 1e300), 3, np.nan)
    force_width(monkeypatch, 2)
    pooled = step_error(both, grads)
    assert augment_on_caller and not any(augment_on_caller)
    force_width(monkeypatch, 1)
    assert pooled == step_error(both, grads)
    assert pooled != step_error(scaled(states, 3, np.nan), grads)


def eval_net_and_data(integrator, rows):
    """The 20-12-10-6-4 net (or its dense twin) and ``rows`` samples."""
    net, _ = net_and_batches(integrator)
    rng = np.random.default_rng(6)
    return net, rng.random((rows, 20)), rng.integers(0, 4, rows)


def calls_on_caller(monkeypatch, name):
    """Per call of ``nn.<name>``, whether it ran on the calling thread."""
    caller = threading.get_ident()
    on_caller = []
    original = getattr(nn, name)

    def recorded(*args):
        on_caller.append(threading.get_ident() == caller)
        return original(*args)

    monkeypatch.setattr(nn, name, recorded)
    return on_caller


@pytest.fixture
def forward_on_caller(monkeypatch):
    """Per cache-free forward pass, whether it ran on the calling thread."""
    return calls_on_caller(monkeypatch, "_run_forward")


@contextmanager
def chunks_of(rows):
    """evaluate and the CLI's dataset loss at ``rows`` rows per pass."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nn, "_EVAL_CHUNK", rows)
        patch.setattr(cli, "_LOSS_CHUNK", rows)
        yield


def evaluations(net, x, y):
    # three 512-row chunks and six 7-row ones, the last of each shorter;
    # two 1024-row chunks for the loss
    with chunks_of(7):
        short = evaluate(net, (x[:40], y[:40]))
    values = [evaluate(net, (x, y)), short, _dataset_loss(net, Dataset(x.copy(), y.copy()))]
    return values, np.array(values).tobytes()


@pytest.mark.parametrize("integrator", ["abc-psi", "full"])
def test_evaluation_same_bytes_at_width_1_and_2(monkeypatch, forward_on_caller, integrator):
    net, x, y = eval_net_and_data(integrator, 1200)
    force_width(monkeypatch, 2)
    pooled = evaluations(net, x, y)
    assert len(forward_on_caller) == 3 + 6 + 2 and not any(forward_on_caller)
    force_width(monkeypatch, 1)
    assert evaluations(net, x, y) == pooled


def test_single_chunk_evaluation_runs_inline(monkeypatch, forward_on_caller):
    net, x, y = eval_net_and_data("abc-psi", 512)
    force_width(monkeypatch, 2)
    evaluate(net, (x, y))
    _dataset_loss(net, Dataset(x, y))
    assert forward_on_caller == [True, True]


def evaluation_error(x, y):
    net, _ = net_and_batches("abc-psi")
    # as in step_error: the pool's threads must see this error state, or
    # the overflow's RuntimeWarning would replace the NumericError
    messages = []
    for run in (lambda: evaluate(net, (x, y)),
                lambda: _dataset_loss(net, Dataset(x.copy(), y.copy()))):
        with chunks_of(7), np.errstate(all="ignore"), pytest.raises(NumericError) as info:
            run()
        messages.append(str(info.value))
    return messages


def test_non_finite_chunk_same_error_at_width_2(monkeypatch, forward_on_caller):
    # chunk 2 overflows in the forward pass and chunk 4 holds a NaN pixel,
    # each with its own message; chunk 2's is raised, as by the plain loop,
    # though a pool thread ran it. This net shrinks its input, so a 1e300
    # pixel stays finite: chunk 2's row is the largest float
    _, x, y = eval_net_and_data("abc-psi", 40)
    x[2 * 7] = np.finfo(float).max
    x[4 * 7, 5] = np.nan
    force_width(monkeypatch, 2)
    pooled = evaluation_error(x, y)
    assert forward_on_caller and not any(forward_on_caller)
    force_width(monkeypatch, 1)
    assert pooled == evaluation_error(x, y)
    x[2 * 7] = 0.5
    assert all(a != b for a, b in zip(pooled, evaluation_error(x, y)))


BUILDS = {
    "dense": mlp_specs((30, 20, 12, 4)),
    "lowrank": mlp_specs((30, 20, 12, 4), 5),
    # dense and low-rank layers alternate; the 12 x 6 layer's rank is its
    # smaller side
    "mixed": [LayerSpec(30, 20), LayerSpec(20, 12, initial_rank=3),
              LayerSpec(12, 12), LayerSpec(12, 6, initial_rank=6),
              LayerSpec(6, 4, "identity", initial_rank=2)],
}


@pytest.fixture
def factored_on_caller(monkeypatch):
    """Per ``_gram_svd`` call of ``build_network``, whether it ran on the
    calling thread."""
    return calls_on_caller(monkeypatch, "_gram_svd")


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", sorted(BUILDS))
def test_build_same_bytes_at_width_1_and_2(monkeypatch, factored_on_caller, kind, seed):
    force_width(monkeypatch, 2)
    pooled = net_bytes(build_network(BUILDS[kind], seed))
    force_width(monkeypatch, 1)
    nn._built.clear()
    assert net_bytes(build_network(BUILDS[kind], seed)) == pooled
    factored = sum(spec.initial_rank is not None for spec in BUILDS[kind])
    assert factored_on_caller == [False] * factored + [True] * factored


def test_paper_net_factors_on_the_pool(monkeypatch, factored_on_caller):
    force_width(monkeypatch, 2)
    net = build_network(mlp_specs((784, 500, 500, 500, 500, 10), 50), seed=0)
    assert net.ranks() == [50, 50, 50, 50, 10]
    assert len(factored_on_caller) == 5 and not any(factored_on_caller)


def test_single_lowrank_layer_builds_inline(monkeypatch, factored_on_caller):
    force_width(monkeypatch, 2)
    build_network([LayerSpec(20, 12), LayerSpec(12, 4, initial_rank=3)], 0)
    assert factored_on_caller == [True]


NESTED = """
import numpy as np
import dlrt.nn as nn
import dlrt.threads as threads
from dlrt.nn import build_network, evaluate, mlp_specs
threads.blas_threads = lambda: 1
threads._share = 2
nn._EVAL_CHUNK = 7
net = build_network(mlp_specs((20, 12, 4), 4), 3)
rng = np.random.default_rng(0)
x, y = rng.random((40, 20)), rng.integers(0, 4, 40)
inner = {"evaluate": lambda i: evaluate(net, (x, y)),
         "build_network": lambda i: build_network(mlp_specs((20, 12, 10, 4), 4), i).ranks()}
print(threads.map_tasks(inner[%r], range(2)))
"""


@pytest.mark.parametrize("inner, expected", [
    ("evaluate", "[0.15, 0.15]"),
    ("build_network", "[[4, 4, 4], [4, 4, 4]]"),
])
def test_nested_map_tasks_runs_inline(inner, expected):
    # two pool tasks that each call map_tasks would wait on the two threads
    # they occupy; the inner calls run in the plain loop instead. A fresh
    # process, so a hang ends at the timeout and takes no pool thread of
    # this one with it
    env = dict(os.environ, PYTHONPATH=str(Path(threads.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", NESTED % inner], env=env,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.strip() == expected
