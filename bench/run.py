"""Training benchmark for the ``dlrt`` package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of abc-paper, sgd-paper, split-paper, cli-small, or ``all``.
Run from anywhere inside a checkout that holds ``src/dlrt`` and
``BENCHMARK.json``. The benchmark writes its synthetic data and outputs
under ``.bench_work/`` in the checkout and removes them when it ends.

Each workload runs in fresh child processes whose BLAS libraries are pinned
to one thread before numpy loads. With ``--trace 0`` the last line printed
is a JSON object holding every end-to-end metric of BENCHMARK.json; with
``--trace 1`` it holds every per-layer metric, taken from a run that
alternates traced and untraced passes. A failed correctness check prints
the failures to stderr and exits 1 without a result.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("abc-paper", "sgd-paper", "split-paper", "cli-small")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3  # set-up runs per workload, the measured run's included
DEADLINE_S = 170.0  # one workload run must end well within 180 s


class BenchError(Exception):
    """A child failed, a check failed, or the checkout is incomplete."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def host_environment() -> dict:
    """Host facts stored with every result; read-only."""
    def first_line(path, prefix=""):
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(prefix):
                        return line.split(":", 1)[-1].strip() if prefix else line.strip()
        except OSError:
            pass
        return "unknown"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": first_line("/sys/fs/cgroup/cpu.max"),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "python": platform.python_version(),
        "threads": {var: "1" for var in THREAD_VARS},
    }


class Workload:
    """Runs one workload's child processes and collects their results."""

    def __init__(self, name, seed, seconds, trace, tiny, work: Path, deadline):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tiny = tiny
        self.work = work
        self.data = work / "data"
        self.deadline = deadline
        self.env = child_env()

    def _child(self, mode, *extra):
        cmd = [sys.executable, str(HERE / "workloads.py"), mode, "--workload", self.name,
               "--seed", str(self.seed), "--data", str(self.data)]
        if self.tiny:
            cmd.append("--tiny")
        cmd += list(extra)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"{self.name}: out of time before {mode}")
        spawned = time.monotonic()
        try:
            done = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.name}: {mode} child timed out")
        if done.returncode != 0:
            raise BenchError(f"{self.name}: {mode} child exited {done.returncode}\n"
                             + done.stderr[-4000:])
        return spawned

    def _run_child(self, index, *extra):
        out = self.work / f"result-{index}.json"
        spawned = self._child("run", "--seconds", str(self.seconds), "--trace",
                              str(self.trace), "--work", str(self.work), "--out", str(out),
                              *extra)
        result = json.loads(out.read_text())
        result["setup_s"] = result["first_step_monotonic"] - spawned
        return result

    def measure(self) -> dict:
        self._child("gen")
        setups = []
        if not self.trace:
            for i in range(SETUP_REPS - 1):
                setups.append(self._run_child(f"setup{i}", "--setup-only")["setup_s"])
        result = self._run_child("main")
        setups.append(result["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
        return result


def select(metrics: dict, spec: list, workload: str) -> dict:
    out = {}
    for entry in spec:
        name = entry["name"]
        if name not in metrics:
            raise BenchError(f"{workload}: metric {name} was not measured")
        out[name] = {"value": float(metrics[name]), "unit": entry["unit"]}
    return out


def run_workload(name, args, spec) -> dict:
    work = ROOT / ".bench_work" / f"{name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        deadline = time.monotonic() + DEADLINE_S
        result = Workload(name, args.seed, args.seconds, args.trace, args.tiny, work,
                          deadline).measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result["problems"]:
        raise BenchError(f"{name}: correctness checks failed:\n  "
                         + "\n  ".join(result["problems"]))
    metrics = select(result["metrics"], spec, name)
    print(json.dumps({"workload": name, "env": dict(host_environment(), **result["env"])}))
    for metric, entry in metrics.items():
        print(f"{name:12s} {metric:42s} {entry['value']:14.6g} {entry['unit']}")
    return {"correct": True, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dlrt training benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (the benchmark's own tests)")
    args = parser.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "dlrt" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"error: {ROOT} holds no src/dlrt package or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())["per_layer" if args.trace else "end_to_end"]

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": True,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": e for w, r in results.items() for m, e in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
