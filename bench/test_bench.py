"""The benchmark's own tests: ``python3 -m pytest bench``.

Smoke runs use ``--tiny`` sizes, which take the same code paths as the
measured runs on a small network and a few steps.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def bench(*args, cwd=ROOT, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def assert_reports(result, spec):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for entry in spec:
        reported = result["metrics"][entry["name"]]
        assert reported["unit"] == entry["unit"]
        assert math.isfinite(reported["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_reported(workload):
    result = smoke(workload, trace=0)
    assert_reports(result, SPEC["end_to_end"])
    for entry in SPEC["end_to_end"]:
        assert result["metrics"][entry["name"]]["value"] > 0, entry["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_reported(workload):
    result = smoke(workload, trace=1)
    assert_reports(result, SPEC["per_layer"])
    passes = {k: v["value"] for k, v in result["metrics"].items()
              if k.startswith("nn.passes_per_step.")}
    expected = {"abc-psi": 1, "psi": 3, "bc-psi": 2, "bug": 2, "full": 1}
    for integrator, count in expected.items():
        value = passes[f"nn.passes_per_step.{integrator}"]
        assert value in (0, count), integrator
        if workload == "cli-small":
            assert value == count, integrator


def test_traced_losses_bit_identical_and_wrappers_restored():
    import dlrt.linalg
    import dlrt.lowrank
    import dlrt.nn as nn
    from dlrt.integrators import StepConfig
    from dlrt.lowrank import TruncationPolicy

    import spans

    originals = {
        (nn, "householder_qr"): dlrt.linalg.householder_qr,
        (nn, "ortho_augment"): dlrt.linalg.ortho_augment,
        (nn, "truncate_state"): dlrt.lowrank.truncate_state,
        (dlrt.lowrank, "svd_thin"): dlrt.linalg.svd_thin,
        (nn, "train_step"): nn.train_step,
    }
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, (16, 12))
    y = rng.integers(0, 4, 16)
    cfg = StepConfig(h=0.05, policy=TruncationPolicy(tau=0.1, r_max=6))

    def losses(integrator):
        specs = nn.mlp_specs([12, 8, 8, 4], None if integrator == "full" else 3)
        net = nn.build_network(specs, seed=0)
        out = []
        for _ in range(4):
            net, loss = nn.train_step(net, (x, y), integrator, cfg)
            out.append(loss.hex())
        return out

    for integrator in ("abc-psi", "psi", "bc-psi", "bug", "full"):
        plain = losses(integrator)
        tracer = spans.Tracer()
        with tracer:
            traced = losses(integrator)
        assert traced == plain, integrator
        names = {s.name for s in tracer.spans}
        assert "nn.train_step" in names and "nn.softmax_cross_entropy" in names
        if integrator == "abc-psi":
            # bound by name in nn and lowrank, so only rebinding there sees them
            assert {"linalg.ortho_augment", "lowrank.truncate_state",
                    "linalg.svd_thin", "linalg.householder_qr"} <= names
        assert spans.restored()
        for (module, attr), fn in originals.items():
            assert getattr(module, attr) is fn


def test_synthetic_data_follows_seed(tmp_path):
    import synth

    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        synth.write_dataset(tmp_path / name, seed, n_train=20, n_test=10)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert len(files) == 4
    same = [(tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files]
    other = [(tmp_path / "a" / f).read_bytes() == (tmp_path / "c" / f).read_bytes() for f in files]
    assert all(same) and not all(other)


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, root=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
