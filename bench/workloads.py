"""One workload run in a fresh process; started by ``run.py``.

The parent sets the BLAS thread variables and ``PYTHONPATH`` before this
process starts, so numpy loads single-threaded. Results, checks and the
environment go to the JSON file named by ``--out``.

    python3 bench/workloads.py gen --workload W --seed N --data DIR
    python3 bench/workloads.py run --workload W --seed N --seconds S \\
        --trace 0|1 --data DIR --work DIR --out FILE [--setup-only]

Every workload is a closed loop with one caller: a step starts only when
the previous one has returned.
"""

import argparse
import hashlib
import json
import logging
import math
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import dlrt.checkpoint as checkpoint
import dlrt.cli as cli
import dlrt.data as data
import dlrt.nn as nn
from dlrt.integrators import INTEGRATOR_NAMES, StepConfig
from dlrt.linalg import NumericError
from dlrt.lowrank import TruncationPolicy, compression_rate

import spans
import synth

INIT_SEED = 0  # network initialisation is part of the workload; --seed varies the data
WARMUP_STEPS = 2
CLI_EVAL_REPS = 5  # timed evaluations after each cli-small session
EVAL_EVERY = 25  # steps between timed evaluations
TAIL_WINDOW = 50  # steps per window of step_ms_p90
FWDBWD_REPS = 15
CLI_MIN_SESSIONS = 12  # a session takes about 2 s; fewer leave its median unsteady
ORDER_WINDOW = (0.8, 1.2)  # accepted observed order of the first-order steppers

# Paper settings: lr 0.01, tau 0.1, r_max = 2 x rank, substeps 1, batch 64.
PAPER = {
    "arch": (784, 500, 500, 500, 500, 10), "rank": 50, "lr": 0.01, "tau": 0.1,
    "batch": 64, "n_train": 3200, "n_test": 2000,
    # the fixed training job behind run_s and the quality guard: by step 350
    # every integrator has left the initial plateau on the synthetic data, so
    # accuracy and loss barely depend on the data seed
    "quality_steps": 350,
    "trace_pass_steps": 25,
}
CLI = {
    # 30 training steps per run; 1000 held-out samples keep test_accuracy's
    # sampling error small
    "n_train": 640, "n_test": 1000,
    # compare: every integrator x seeds 0..seeds-1
    "arch": (784, 128, 10), "rank": 16, "seeds": 3, "epochs": 3,
    "ode_bench": ["--dims", "20,16", "--target-rank", "4", "--eps", "1e-6",
                  "--h-list", "0.1,0.05,0.025,0.0125", "--t-end", "1.0", "--ref-h", "1e-4"],
    "descent_audit": ["--dims", "14,11", "--target-rank", "4", "--lr", "0.5",
                      "--steps", "200"],
}
# Smoke-test sizes: same code paths, seconds instead of minutes.
TINY_PAPER = dict(PAPER, arch=(784, 24, 24, 10), rank=4, n_train=256, n_test=64,
                  quality_steps=6, trace_pass_steps=3)
TINY_CLI = dict(CLI, n_train=128, n_test=64, arch=(784, 16, 10), rank=4, seeds=1, epochs=1,
                ode_bench=["--dims", "8,6", "--target-rank", "2", "--eps", "1e-6",
                           "--h-list", "0.1,0.05,0.025", "--t-end", "1.0", "--ref-h", "1e-3"],
                descent_audit=["--dims", "8,6", "--target-rank", "2", "--lr", "0.5",
                               "--steps", "20"])

PAPER_WORKLOADS = {
    "abc-paper": ("abc-psi",),
    "sgd-paper": ("full",),
    "split-paper": ("psi", "bc-psi", "bug"),
}
WORKLOADS = tuple(PAPER_WORKLOADS) + ("cli-small",)


def settings(workload, tiny):
    if workload == "cli-small":
        return TINY_CLI if tiny else CLI
    return TINY_PAPER if tiny else PAPER


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '?')}"}


def _percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


def _windowed_p90(step_s) -> float:
    """Median over consecutive TAIL_WINDOW-step windows of each window's p90.

    A slow spell of a shared host that covers a tenth of a run would set the
    run's p90 on its own; taken per window, it moves only the windows it
    covers. Slow steps that recur all through the run still move every window.
    """
    n = max(len(step_s) // TAIL_WINDOW, 1)
    size = len(step_s) // n
    return statistics.median(_percentile(step_s[i * size:(i + 1) * size], 90) for i in range(n))


def _param_pct(net) -> float:
    """Parameters as a percentage of the dense network's (100 when dense)."""
    triples = [(l.in_dim, l.out_dim, l.rank) for l in net.layers
               if isinstance(l, nn.LowRankLayer)]
    return 100.0 - compression_rate(triples) if triples else 100.0


def _test_loss(net, test, chunk=1000) -> float:
    total = 0.0
    for start in range(0, len(test), chunk):
        logits, _ = nn.forward(net, test.images[start:start + chunk])
        loss, _ = nn.softmax_cross_entropy(logits, test.labels[start:start + chunk])
        total += loss * logits.shape[0]
    return total / len(test)


def _arrays_equal(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def check_network(net, policy, work: Path, tag: str) -> list:
    """Contract checks on a trained network; returns failure messages."""
    problems = []
    for i, layer in enumerate(net.layers):
        if not isinstance(layer, nn.LowRankLayer):
            continue
        try:
            layer.state.validate()
        except Exception as exc:  # any contract breach fails the gate
            problems.append(f"{tag}: layer {i} fails validate(): {exc}")
        hi = min(policy.r_max, layer.in_dim, layer.out_dim)
        lo = min(policy.r_min, hi)
        if not lo <= layer.rank <= hi:
            problems.append(f"{tag}: layer {i} rank {layer.rank} outside [{lo}, {hi}]")
    path = work / f"{tag}.ckpt"
    checkpoint.save_network(path, net)
    loaded = checkpoint.load_network(path)
    for i, (a, b) in enumerate(zip(net.layers, loaded.layers)):
        if isinstance(a, nn.LowRankLayer):
            pairs = [(a.state.u, b.state.u), (a.state.s, b.state.s), (a.state.v, b.state.v)]
        else:
            pairs = [(a.w, b.w)]
        pairs.append((a.bias, b.bias))
        if type(a) is not type(b) or not all(_arrays_equal(x, y) for x, y in pairs):
            problems.append(f"{tag}: layer {i} differs after save_network/load_network")
    return problems


# -- paper-net workloads --------------------------------------------------------


class PaperRun:
    """Set-up shared by the three paper-net workloads: data, nets, configs."""

    def __init__(self, workload, cfg, data_dir, seed, loading=nullcontext()):
        self.integrators = PAPER_WORKLOADS[workload]
        self.cfg = cfg
        self.seed = seed
        with loading:
            self.train = data.load_dataset(data_dir, "train")
            self.test = data.load_dataset(data_dir, "test")
        self.policy = TruncationPolicy(tau=cfg["tau"], r_max=2 * cfg["rank"], r_min=2)
        widths = list(cfg["arch"])
        self.nets, self.step_cfgs = [], []
        for integrator in self.integrators:
            dense = integrator == "full"
            specs = nn.mlp_specs(widths, None if dense else cfg["rank"])
            self.nets.append(nn.build_network(specs, seed=INIT_SEED))
            self.step_cfgs.append(StepConfig(h=cfg["lr"], substeps=1,
                                             policy=None if dense else self.policy))
        warm = (self.train.images[:cfg["batch"]], self.train.labels[:cfg["batch"]])
        for net, integrator, step_cfg in zip(self.nets, self.integrators, self.step_cfgs):
            for _ in range(WARMUP_STEPS):
                net, _ = nn.train_step(net, warm, integrator, step_cfg)
        self.attempted = 0
        self.failed = 0

    def step(self, nets, batch):
        """One loop step: every network takes one train_step on the batch."""
        out, losses = [], []
        for net, integrator, step_cfg in zip(nets, self.integrators, self.step_cfgs):
            self.attempted += 1
            try:
                new, loss = nn.train_step(net, batch, integrator, step_cfg)
            except NumericError:
                new, loss = net, float("nan")
            if not math.isfinite(loss):
                self.failed += 1
            out.append(new)
            losses.append(loss)
        return out, losses

    def epoch_batches(self, epoch):
        return data.batches(self.train, self.cfg["batch"], self.seed, epoch)


def run_paper(run: PaperRun, seconds, work: Path) -> dict:
    cfg = run.cfg
    nets = list(run.nets)
    step_s, eval_s, snapshot, job_s = [], [], None, None
    steps = epoch = 0
    start = time.perf_counter()
    done = False
    while not done:
        epoch += 1
        for batch in run.epoch_batches(epoch):
            t0 = time.perf_counter()
            nets, _ = run.step(nets, batch)
            step_s.append(time.perf_counter() - t0)
            steps += 1
            if steps == cfg["quality_steps"]:
                snapshot = nets
                job_s = time.perf_counter() - start - sum(eval_s)
            if steps % EVAL_EVERY == 0:
                # spread over the run, so that a slow spell of the host moves few samples
                t0 = time.perf_counter()
                for net in nets:
                    nn.evaluate(net, run.test)
                eval_s.append(time.perf_counter() - t0)
            if steps >= cfg["quality_steps"] and time.perf_counter() - start >= seconds:
                done = True
                break
    loop_s = time.perf_counter() - start - sum(eval_s)

    accuracy = [nn.evaluate(net, run.test) for net in snapshot]
    test_losses = [_test_loss(net, run.test) for net in snapshot]
    initial_losses = [_test_loss(net, run.test) for net in run.nets]

    problems = []
    for k, (net, integrator) in enumerate(zip(nets, run.integrators)):
        problems += check_network(net, run.policy, work, f"{integrator}-final")
        if not test_losses[k] < initial_losses[k]:
            problems.append(f"{integrator}: held-out loss did not fall in "
                            f"{cfg['quality_steps']} steps ({initial_losses[k]} -> {test_losses[k]})")
    samples_per_step = cfg["batch"] * len(nets)
    metrics = {
        "step_ms_p50": 1e3 * _percentile(step_s, 50),
        "step_ms_p90": 1e3 * _windowed_p90(step_s),
        "train_samples_per_s": samples_per_step * steps / loop_s,
        "eval_samples_per_s": len(run.test) * len(nets) / statistics.median(eval_s),
        "run_s": job_s + statistics.median(eval_s),
        "final_loss": statistics.fmean(test_losses),
        "test_accuracy": statistics.fmean(accuracy),
        "param_pct": statistics.fmean(_param_pct(net) for net in snapshot),
    }
    return {"metrics": metrics, "problems": problems}


def fwdbwd_ms(nets, batch) -> float:
    """Median ms of public forward + loss + backward over the loop's networks."""
    x, y = batch
    times = []
    for _ in range(FWDBWD_REPS):
        t0 = time.perf_counter()
        for net in nets:
            logits, cache = nn.forward(net, x)
            _, dlogits = nn.softmax_cross_entropy(logits, y)
            nn.backward(net, cache, dlogits)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def trace_paper(run: PaperRun, tracer, seconds, work: Path) -> dict:
    """Alternate untraced and traced passes over the same steps."""
    n = run.cfg["trace_pass_steps"]
    step_s = {False: [], True: []}
    losses = {False: [], True: []}
    passes = {False: 0, True: 0}
    problems, last = [], None
    start = time.perf_counter()
    traced = False
    while passes[True] == 0 or time.perf_counter() - start < seconds:
        with tracer if traced else nullcontext():
            nets = list(run.nets)
            pass_losses = []
            for batch in run.epoch_batches(1)[:n]:
                t0 = time.perf_counter()
                nets, step_losses = run.step(nets, batch)
                step_s[traced].append(time.perf_counter() - t0)
                pass_losses.append(step_losses)
            for net in nets:
                nn.evaluate(net, run.test)
            for k, net in enumerate(nets):
                path = work / f"pass-{k}.ckpt"
                checkpoint.save_network(path, net)
                checkpoint.load_network(path)
        losses[traced].append(pass_losses)
        passes[traced] += 1
        last = nets
        traced = not traced
    if not spans.restored():
        problems.append("tracing wrappers were not restored")
    for net, integrator in zip(last, run.integrators):
        problems += check_network(net, run.policy, work, f"{integrator}-traced")
    reference = losses[False][0]
    for other in losses[False][1:] + losses[True]:
        if [[l.hex() for l in row] for row in other] != [[l.hex() for l in row] for row in reference]:
            problems.append("traced and untraced passes gave different losses")
            break
    batch = run.epoch_batches(1)[0]
    base = fwdbwd_ms(last, batch)
    untraced_p50 = 1e3 * _percentile(step_s[False], 50)
    metrics = spans.summarize(tracer.spans, steps=passes[True] * n, passes=passes[True],
                              load_passes=1)
    metrics["nn.fwdbwd_ms"] = base
    metrics["nn.step_over_fwdbwd"] = untraced_p50 / base
    metrics["trace.overhead_pct"] = 100.0 * (
        _percentile(step_s[True], 50) / _percentile(step_s[False], 50) - 1.0)
    return {"metrics": metrics, "problems": problems}


# -- cli-small ----------------------------------------------------------------------


class CliRun:
    def __init__(self, cfg, data_dir, work):
        self.cfg = cfg
        self.data_dir = str(data_dir)
        self.out_dir = str(work / "cli-out")
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.csv_digest = None

    def _command(self, tracer, name, args):
        with tracer.span(f"cli.{name}") if tracer else nullcontext():
            code = cli.main([name, "--out-dir", self.out_dir] + args)
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.problems.append(f"dlrt {name} exited {code}")

    def session(self, tracer=None):
        """The README session: compare, then ode-bench, then descent-audit."""
        cfg = self.cfg
        compare = ["--data-dir", self.data_dir, "--integrators", ",".join(INTEGRATOR_NAMES),
                   "--seeds", ",".join(str(s) for s in range(cfg["seeds"])),
                   "--arch", ",".join(str(w) for w in cfg["arch"]),
                   "--rank", str(cfg["rank"]), "--epochs", str(cfg["epochs"])]
        self._command(tracer, "compare", compare)
        self._command(tracer, "ode-bench", cfg["ode_bench"])
        self._command(tracer, "descent-audit", cfg["descent_audit"])

    def read_outputs(self) -> dict:
        """Check one session's outputs; return its quality figures."""
        out = Path(self.out_dir)
        digest = hashlib.sha256()
        rows = []
        for path in sorted(out.glob("compare-*-s*.csv")):
            raw = path.read_bytes()
            digest.update(path.name.encode() + raw)
            rows.append(raw.decode().strip().splitlines()[-1].split(","))
        digest = digest.hexdigest()
        if self.csv_digest is None:
            self.csv_digest = digest
        elif digest != self.csv_digest:
            self.problems.append("compare CSVs differ between identical sessions")
        (summary,) = out.glob("compare-????????????.json")
        runs = json.loads(summary.read_text())["runs"]
        self.attempted += len(runs)
        bad = [r for r in runs if r["status"] != "ok"]
        self.failed += len(bad)
        self.problems += [f"compare run {r['integrator']} seed {r['seed']}: {r['status']}"
                          for r in bad]
        (ode,) = out.glob("ode-bench-*.json")
        orders = json.loads(ode.read_text())["observed_orders"]
        lo, hi = ORDER_WINDOW
        if not orders or not all(lo <= o <= hi for o in orders):
            self.problems.append(f"ode-bench observed orders {orders} not near 1")
        (audit,) = out.glob("descent-audit-*.json")
        violations = json.loads(audit.read_text())["violations"]
        if violations:
            self.problems.append(f"descent-audit reported {violations} violations")
        if len(rows) != len(runs):
            self.problems.append(f"{len(rows)} per-run CSVs for {len(runs)} runs")
        return {
            "final_loss": statistics.fmean(float(r[1]) for r in rows),
            "test_accuracy": statistics.fmean(float(r[2]) for r in rows),
            "param_pct": statistics.fmean(100.0 - float(r[-1]) for r in rows),
        }

    def eval_net(self):
        """The network compare trains with abc-psi, at its initial rank."""
        specs = nn.mlp_specs(list(self.cfg["arch"]), self.cfg["rank"])
        return nn.build_network(specs, seed=INIT_SEED)

    def samples_per_session(self):
        runs = len(INTEGRATOR_NAMES) * self.cfg["seeds"]
        return runs * self.cfg["epochs"] * self.cfg["n_train"]


def run_cli(run: CliRun, seconds) -> dict:
    test = data.load_dataset(run.data_dir, "test")
    net = run.eval_net()
    session_s, eval_s, quality = [], [], None
    start = time.perf_counter()
    while len(session_s) < CLI_MIN_SESSIONS or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        run.session()
        session_s.append(time.perf_counter() - t0)
        quality = run.read_outputs()
        for _ in range(CLI_EVAL_REPS):
            t0 = time.perf_counter()
            nn.evaluate(net, test)
            eval_s.append(time.perf_counter() - t0)
    metrics = {
        "step_ms_p50": 1e3 * _percentile(session_s, 50),
        "step_ms_p90": 1e3 * _percentile(session_s, 90),
        "train_samples_per_s": run.samples_per_session() * len(session_s) / sum(session_s),
        "eval_samples_per_s": len(test) / statistics.median(eval_s),
        "run_s": statistics.fmean(session_s),
    }
    metrics.update(quality)
    return {"metrics": metrics, "problems": run.problems}


def trace_cli(run: CliRun, tracer, seconds) -> dict:
    session_s = {False: [], True: []}
    start = time.perf_counter()
    traced = False
    while not session_s[True] or time.perf_counter() - start < seconds:
        with tracer if traced else nullcontext():
            t0 = time.perf_counter()
            run.session(tracer if traced else None)
            session_s[traced].append(time.perf_counter() - t0)
        run.read_outputs()
        traced = not traced
    if not spans.restored():
        run.problems.append("tracing wrappers were not restored")
    steps = [s for s in tracer.spans if s.name == "nn.train_step"]
    abc_ms = [1e3 * s.duration for s in steps if s.attrs["integrator"] == "abc-psi"]
    test = data.load_dataset(run.data_dir, "test")
    base = fwdbwd_ms([run.eval_net()], (test.images[:64], test.labels[:64]))
    sessions = len(session_s[True])
    metrics = spans.summarize(tracer.spans, steps=len(steps), passes=sessions,
                              load_passes=sessions)
    metrics["nn.fwdbwd_ms"] = base
    metrics["nn.step_over_fwdbwd"] = statistics.median(abc_ms) / base if abc_ms else 0.0
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(session_s[True]) / statistics.median(session_s[False]) - 1.0)
    return {"metrics": metrics, "problems": run.problems}


# -- entry point ----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("gen", "run"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--data", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    cfg = settings(args.workload, args.tiny)
    if args.mode == "gen":
        synth.write_dataset(args.data, args.seed, cfg["n_train"], cfg["n_test"])
        return 0

    # cli.main configures INFO logging on first use; keep the child quiet
    logging.basicConfig(level=logging.WARNING)
    tracer = spans.Tracer() if args.trace else None
    if args.workload == "cli-small":
        run = CliRun(cfg, args.data, args.work)
    else:
        run = PaperRun(args.workload, cfg, args.data, args.seed,
                       loading=tracer if tracer else nullcontext())
    first_step = time.monotonic()
    if args.setup_only:
        result = {"first_step_monotonic": first_step}
    else:
        if args.workload == "cli-small":
            body = trace_cli(run, tracer, args.seconds) if tracer else run_cli(run, args.seconds)
        else:
            body = (trace_paper(run, tracer, args.seconds, args.work) if tracer
                    else run_paper(run, args.seconds, args.work))
        body["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result = dict(body, first_step_monotonic=first_step, attempted=run.attempted,
                      failed=run.failed, env=environment())
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
