import csv
import gzip
import json
import logging
import multiprocessing
import os
import re
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dlrt.cli
from dlrt.checkpoint import load_network
from dlrt.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_IO,
    EXIT_OK,
    EXIT_VIOLATION,
    MAX_STEPS,
    ConfigError,
    RunConfig,
    build_parser,
    load_config,
    main,
    write_csv,
    write_json,
)
from dlrt.data import Dataset, load_dataset, write_idx_images, write_idx_labels
from dlrt.integrators import abc_psi_flow
from dlrt.lowrank import compression_rate
from dlrt.nn import LayerSpec, build_network, evaluate


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """Tiny labeled dataset: class = argmax of the four row sums."""
    root = tmp_path_factory.mktemp("idx")
    rng = np.random.default_rng(0)

    def split(n, img_name, lab_name):
        x = rng.integers(0, 256, size=(n, 16)).astype(np.float64) / 255.0
        y = np.argmax(x.reshape(n, 4, 4).sum(axis=2), axis=1).astype(np.uint8)
        write_idx_images(root / img_name, x, rows=4, cols=4)
        write_idx_labels(root / lab_name, y)

    split(600, "train-images-idx3-ubyte", "train-labels-idx1-ubyte")
    split(200, "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")
    return root


def train_args(data_dir, out_dir, *extra):
    return [
        "train", "--data-dir", str(data_dir), "--out-dir", str(out_dir),
        "--arch", "16,12,4", "--rank", "3", "--tau", "0.05", "--lr", "0.05",
        "--batch-size", "32", "--seed", "1", *extra,
    ]


class TestRunConfig:
    def test_defaults_valid(self):
        RunConfig().validate()

    def test_rejects_bad_integrator(self):
        with pytest.raises(ConfigError):
            RunConfig(integrator="euler").validate()

    def test_rejects_negative_lr(self):
        with pytest.raises(ConfigError):
            RunConfig(lr=-1.0).validate()

    def test_rejects_short_arch(self):
        with pytest.raises(ConfigError):
            RunConfig(arch=(10,)).validate()

    def test_hash_ignores_locations(self):
        a = RunConfig(out_dir="x", data_dir="/a")
        b = RunConfig(out_dir="y", data_dir="/b")
        assert a.hash() == b.hash()
        assert a.hash() != RunConfig(lr=0.5).hash()

    def test_unknown_config_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"lr": 0.1, "bogus": 1}))
        with pytest.raises(ConfigError):
            load_config(p)

    def test_flags_override_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"lr": 0.1, "epochs": 7}))
        cfg = load_config(p, {"lr": 0.2, "epochs": None})
        assert cfg.lr == 0.2
        assert cfg.epochs == 7

    def test_config_file_lists_become_tuples(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"arch": [16, 8, 4], "h_list": [0.1, 0.05]}))
        cfg = load_config(p)
        assert cfg.arch == (16, 8, 4)
        assert cfg.h_list == (0.1, 0.05)

    @pytest.mark.parametrize("key, value", [
        ("lr", float("nan")), ("eps", float("inf")), ("seed", True), ("rank", 2.5),
    ])
    def test_construction_checks_types(self, key, value):
        # one rule for library callers, config files and flags alike
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            RunConfig(**{key: value})

    @pytest.mark.parametrize("settings, message", [
        ({"tau": -0.5}, "tau must be finite and >= 0"),
        ({"r_min": 0}, "r_min must be >= 1"),
        ({"r_min": 4, "r_max": 3}, "r_max must be >= r_min"),
        ({"rank": 0}, "rank must be >= 1"),
    ])
    def test_policy_settings_follow_the_policy(self, settings, message):
        # tau, r_min and r_max are checked by TruncationPolicy itself
        with pytest.raises(ConfigError, match=f"^{message}"):
            RunConfig(**settings).validate()

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read config file"),
        ("{\"lr\": 0.5", "config file is not valid JSON"),
        ("[1, 2]", "config file must hold a JSON object"),
    ], ids=["unreadable", "invalid-json", "list"])
    def test_bad_config_file_exits_config(self, content, message, tmp_path, caplog):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        out = tmp_path / "out"
        out.mkdir()
        args = ["descent-audit", "--config", str(cfg), "--out-dir", str(out),
                "--dims", "8,6", "--target-rank", "2", "--steps", "5"]
        assert main(args) == EXIT_CONFIG
        assert message in caplog.text
        assert not list(out.iterdir())

    def test_list_fits_a_tuple_field(self):
        assert RunConfig(arch=[3, 4]).validate().arch == [3, 4]

    @pytest.mark.parametrize("at_ceiling, above, count", [
        ({"ref_h": 1.0 / MAX_STEPS}, {"ref_h": 1.0 / (MAX_STEPS + 1)}, "t_end/ref_h"),
        ({"h_list": (1.0 / MAX_STEPS,)}, {"h_list": (1.0 / (MAX_STEPS + 1),)}, "t_end/h"),
        ({"substeps": MAX_STEPS // 2}, {"substeps": MAX_STEPS // 2 + 1}, "t_end/h"),
        ({"steps": MAX_STEPS}, {"steps": MAX_STEPS + 1}, "steps * substeps"),
        ({"epochs": MAX_STEPS}, {"epochs": MAX_STEPS + 1}, "epochs * substeps"),
    ])
    def test_step_ceiling(self, at_ceiling, above, count):
        # t_end 1 and h 0.5: two steps each for t_end/h and t_end/ref_h
        base = {"h_list": (0.5,), "ref_h": 0.5, "steps": 1, "epochs": 1}
        RunConfig(**{**base, **at_ceiling}).validate()
        with pytest.raises(ConfigError, match=rf"^{re.escape(count)}.*above MAX_STEPS"):
            RunConfig(**{**base, **above}).validate()


class TestWriters:
    """A failed write leaves the previous file in place and no temporary."""

    def test_write_csv_failure_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, "0123456789ab", ["x"], [[1], [2]])
        good = path.read_bytes()
        with pytest.raises(csv.Error):
            write_csv(path, "0123456789ab", ["x"], [[3], 4])  # 4 is not a row
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_write_json_failure_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"a": 1})
        good = path.read_bytes()
        with pytest.raises(TypeError):
            write_json(path, {"a": 1, "b": object()})
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


class TestTrain:
    def test_end_to_end(self, data_dir, tmp_path):
        code = main(train_args(data_dir, tmp_path, "--epochs", "2"))
        assert code == EXIT_OK
        csvs = list(tmp_path.glob("train-*.csv"))
        assert len(csvs) == 1
        lines = csvs[0].read_text().splitlines()
        assert lines[0].startswith("# dlrt ")
        header = lines[1].split(",")
        assert header == ["epoch", "train_loss", "test_accuracy", "rank_0",
                          "rank_1", "param_count", "compression_rate"]
        assert len(lines) == 2 + 3  # comment, header, epochs 0..2

        # the param_count and compression columns must recompute from the
        # logged ranks
        last = lines[-1].split(",")
        ranks = [int(last[3]), int(last[4])]
        assert int(last[5]) == (16 + 12) * ranks[0] + (12 + 4) * ranks[1]
        expected = compression_rate([(16, 12, ranks[0]), (12, 4, ranks[1])])
        assert abs(float(last[6]) - expected) <= 1e-6

        # checkpoint reloads and reproduces the logged test accuracy
        ckpt = list(tmp_path.glob("train-*.ckpt"))[0]
        net = load_network(ckpt)
        test = load_dataset(data_dir, "test")
        assert abs(evaluate(net, test) - float(last[2])) <= 1e-12

        summary = json.loads(list(tmp_path.glob("train-*.json"))[0].read_text())
        assert summary["status"] == "ok"
        assert summary["epochs_completed"] == 2
        assert "runtime_s" in summary

    def test_zero_epochs_initial_row_only(self, data_dir, tmp_path):
        code = main(train_args(data_dir, tmp_path, "--epochs", "0"))
        assert code == EXIT_OK
        lines = list(tmp_path.glob("train-*.csv"))[0].read_text().splitlines()
        assert len(lines) == 3
        assert lines[2].split(",")[0] == "0"

    def test_missing_data_dir(self, tmp_path):
        code = main(train_args(tmp_path / "nope", tmp_path, "--epochs", "1"))
        assert code == EXIT_IO

    def test_bad_config_exit(self, data_dir, tmp_path):
        code = main(train_args(data_dir, tmp_path, "--epochs", "1", "--lr", "-2"))
        assert code == EXIT_CONFIG

    def test_env_var_data_dir(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("DLRT_DATA_DIR", str(data_dir))
        code = main([
            "train", "--out-dir", str(tmp_path), "--arch", "16,12,4",
            "--rank", "3", "--epochs", "0",
        ])
        assert code == EXIT_OK

    def test_no_data_dir_anywhere(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DLRT_DATA_DIR", raising=False)
        code = main(["train", "--out-dir", str(tmp_path), "--epochs", "0"])
        assert code == EXIT_CONFIG

    def test_byte_identical_reruns(self, data_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(train_args(data_dir, a, "--epochs", "2")) == EXIT_OK
        assert main(train_args(data_dir, b, "--epochs", "2")) == EXIT_OK
        csv_a = list(a.glob("train-*.csv"))[0]
        csv_b = list(b.glob("train-*.csv"))[0]
        assert csv_a.name == csv_b.name
        assert csv_a.read_bytes() == csv_b.read_bytes()

    def test_divergence_partial_csv(self, data_dir, tmp_path):
        code = main(train_args(data_dir, tmp_path, "--epochs", "3",
                               "--integrator", "full", "--lr", "1e8"))
        assert code == EXIT_DIVERGED
        lines = list(tmp_path.glob("train-*.csv"))[0].read_text().splitlines()
        assert len(lines) < 2 + 4  # fewer rows than a finished run
        summary = json.loads(list(tmp_path.glob("train-*.json"))[0].read_text())
        assert summary["status"] == "diverged"

    def test_labels_beyond_output_width(self, data_dir, tmp_path, caplog):
        # the fixture has four classes; a three-wide output cannot fit them
        args = train_args(data_dir, tmp_path, "--epochs", "1")
        args[args.index("--arch") + 1] = "16,12,3"
        assert main(args) == EXIT_CONFIG
        assert "label 3" in caplog.text
        assert not list(tmp_path.glob("train-*"))

    def test_augmented_basis_wider_than_input(self, data_dir, tmp_path):
        # rank 10 augments the 16-input layer's left basis to q = 20 > 16
        args = train_args(data_dir, tmp_path, "--epochs", "1")
        args[args.index("--arch") + 1] = "16,64,4"
        args[args.index("--rank") + 1] = "10"
        assert main(args) == EXIT_OK
        net = load_network(list(tmp_path.glob("train-*.ckpt"))[0])
        for layer in net.layers:
            layer.state.validate()

    def test_negative_seed_rejected(self, data_dir, tmp_path):
        args = train_args(data_dir, tmp_path, "--epochs", "1")
        args[args.index("--seed") + 1] = "-1"
        assert main(args) == EXIT_CONFIG
        assert not list(tmp_path.iterdir())

    def test_out_dir_under_a_file(self, data_dir, tmp_path, caplog):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(train_args(data_dir, blocker / "x", "--epochs", "1"))
        assert code == EXIT_IO
        assert str(blocker / "x") in caplog.text

    def test_more_than_ten_classes(self, tmp_path):
        # any IDX dataset works: labels are only checked against arch[-1]
        rng = np.random.default_rng(5)
        data = tmp_path / "idx"
        data.mkdir()
        for n, images, labels in [
            (120, "train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
            (48, "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
        ]:
            write_idx_images(data / images, rng.random((n, 16)), rows=4, cols=4)
            write_idx_labels(data / labels, np.arange(n) % 12)
        args = train_args(data, tmp_path / "out", "--epochs", "1")
        args[args.index("--arch") + 1] = "16,12,12"
        assert main(args) == EXIT_OK

    def test_dense_baseline_has_no_rank_columns(self, data_dir, tmp_path):
        code = main(train_args(data_dir, tmp_path, "--epochs", "1",
                               "--integrator", "full"))
        assert code == EXIT_OK
        lines = list(tmp_path.glob("train-*.csv"))[0].read_text().splitlines()
        assert lines[1].split(",") == ["epoch", "train_loss", "test_accuracy",
                                       "param_count", "compression_rate"]
        assert float(lines[2].split(",")[-1]) == 0.0

    def test_layer_triples_give_dense_rank_none(self):
        net = build_network([LayerSpec("lowrank", 4, 3, initial_rank=2),
                             LayerSpec("dense", 3, 2, "identity")], seed=0)
        assert dlrt.cli._layer_triples(net) == [(4, 3, 2), (3, 2, None)]


class TestCompare:
    def test_table_shape(self, data_dir, tmp_path, capsys):
        code = main([
            "compare", "--data-dir", str(data_dir), "--out-dir", str(tmp_path),
            "--arch", "16,12,4", "--rank", "3", "--epochs", "1",
            "--batch-size", "32", "--integrators", "abc-psi,bug",
            "--seeds", "1,2",
        ])
        assert code == EXIT_OK
        combined = [p for p in tmp_path.glob("compare-*.csv")
                    if p.name.count("-") == 1]
        assert len(combined) == 1
        rows = combined[0].read_text().splitlines()[2:]
        kinds = [r.split(",")[0] for r in rows]
        assert kinds.count("run") == 4
        assert kinds.count("summary") == 2
        out = capsys.readouterr().out
        assert "abc-psi" in out and "bug" in out

    def test_single_seed_zero_std(self, data_dir, tmp_path):
        code = main([
            "compare", "--data-dir", str(data_dir), "--out-dir", str(tmp_path),
            "--arch", "16,12,4", "--rank", "3", "--epochs", "1",
            "--batch-size", "32", "--seed", "3",
        ])
        assert code == EXIT_OK
        summary = json.loads(list(tmp_path.glob("compare-*.json"))[0].read_text())
        assert len(summary["runs"]) == 1


    def test_loads_data_once(self, data_dir, tmp_path, monkeypatch):
        calls = []

        def counting_load(data_dir, split):
            calls.append(split)
            return load_dataset(data_dir, split)

        monkeypatch.setattr("dlrt.cli.load_dataset", counting_load)
        code = main([
            "compare", "--data-dir", str(data_dir), "--out-dir", str(tmp_path),
            "--arch", "16,12,4", "--rank", "3", "--epochs", "1",
            "--integrators", "abc-psi,bug", "--seeds", "1,2",
        ])
        assert code == EXIT_OK
        assert sorted(calls) == ["test", "train"]

    def test_negative_seed_in_list_rejected(self, data_dir, tmp_path):
        code = main([
            "compare", "--data-dir", str(data_dir), "--out-dir", str(tmp_path),
            "--arch", "16,12,4", "--rank", "3", "--epochs", "1",
            "--integrators", "abc-psi", "--seeds", "0,-1",
        ])
        assert code == EXIT_CONFIG
        assert not list(tmp_path.iterdir())

    def test_labels_beyond_output_width(self, data_dir, tmp_path):
        code = main([
            "compare", "--data-dir", str(data_dir), "--out-dir", str(tmp_path),
            "--arch", "16,12,3", "--rank", "3", "--epochs", "1",
            "--integrators", "abc-psi,full",
        ])
        assert code == EXIT_CONFIG
        assert not list(tmp_path.glob("compare-*"))


def pin_cpus(monkeypatch, count):
    """Make the affinity mask that compare reads hold ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class TestCompareWorkers:
    """compare spreads its runs over min(runs, CPUs) forked workers."""

    RUNS = [(integrator, seed) for integrator in ("abc-psi", "bug", "full") for seed in (1, 2)]

    def compare(self, data_dir, out_dir, *extra):
        return main([
            "compare", "--data-dir", str(data_dir), "--out-dir", str(out_dir),
            "--arch", "16,12,4", "--rank", "3", "--epochs", "2", "--batch-size", "32",
            "--integrators", "abc-psi,bug,full", "--seeds", "1,2", *extra,
        ])

    def test_outputs_do_not_depend_on_worker_count(self, data_dir, tmp_path, monkeypatch,
                                                   capsys):
        outputs = {}
        for cpus in (1, 2):
            pin_cpus(monkeypatch, cpus)
            out_dir = tmp_path / str(cpus)
            assert self.compare(data_dir, out_dir) == EXIT_OK
            assert multiprocessing.active_children() == []
            (summary,) = out_dir.glob("compare-*.json")
            assert json.loads(summary.read_text())["workers"] == cpus
            csvs = {path.name: path.read_bytes() for path in out_dir.glob("*.csv")}
            outputs[cpus] = csvs, capsys.readouterr().out
        assert len(outputs[1][0]) == len(self.RUNS) + 1
        assert outputs[1] == outputs[2]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failed_run_raises_and_leaves_no_worker(self, cpus, data_dir, tmp_path,
                                                    monkeypatch):
        pin_cpus(monkeypatch, cpus)
        run_training = dlrt.cli._run_training

        def fail_one(config, integrator, seed, train, test):
            if (integrator, seed) == ("bug", 2):
                raise RuntimeError("run bug s2 failed")
            return run_training(config, integrator, seed, train, test)

        monkeypatch.setattr(dlrt.cli, "_run_training", fail_one)
        with pytest.raises(RuntimeError, match="run bug s2 failed"):
            self.compare(data_dir, tmp_path)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="without fork the runs, and the kill, are in process")
    def test_killed_worker_fails_the_command(self, data_dir, tmp_path, monkeypatch):
        # a worker the system kills mid-run (say for memory) fails compare;
        # it does not leave it waiting for that run forever
        pin_cpus(monkeypatch, 2)
        run_training = dlrt.cli._run_training

        def killed_once(config, integrator, seed, train, test):
            if (integrator, seed) == ("bug", 2):
                os.kill(os.getpid(), signal.SIGKILL)
            return run_training(config, integrator, seed, train, test)

        monkeypatch.setattr(dlrt.cli, "_run_training", killed_once)
        with pytest.raises(BrokenProcessPool):
            self.compare(data_dir, tmp_path)
        assert multiprocessing.active_children() == []

    def test_logs_in_run_order(self, data_dir, tmp_path, monkeypatch, caplog):
        pin_cpus(monkeypatch, 2)
        caplog.set_level(logging.INFO, logger="dlrt")
        assert self.compare(data_dir, tmp_path) == EXIT_OK
        expected = []
        for integrator, seed in self.RUNS:
            (path,) = tmp_path.glob(f"compare-*-{integrator}-s{seed}.csv")
            for row in list(csv.reader(path.read_text().splitlines()[2:]))[1:]:
                expected.append(f"epoch {row[0]}: train_loss {float(row[1]):.4f} "
                                f"test_acc {float(row[2]):.4f}")
        lines = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        assert [line.split(" ranks ")[0] for line in lines] == expected

    def test_divergence_logged_by_the_parent(self, data_dir, tmp_path, monkeypatch, caplog):
        pin_cpus(monkeypatch, 2)
        args = ["--integrators", "full", "--lr", "1e8"]
        assert self.compare(data_dir, tmp_path, *args) == EXIT_OK
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 2
        assert all(e.startswith("diverged in epoch 1: layer 0 weight norm") for e in errors)
        (summary,) = tmp_path.glob("compare-*.json")
        summary = json.loads(summary.read_text())
        assert summary["workers"] == 2
        assert [r["status"] for r in summary["runs"]] == ["diverged", "diverged"]


class TestOdeBench:
    def test_first_order_grid(self, tmp_path):
        code = main([
            "ode-bench", "--out-dir", str(tmp_path), "--dims", "10,8",
            "--target-rank", "3", "--tau", "0", "--eps", "0",
            "--h-list", "0.1,0.05,0.025", "--t-end", "1.0", "--ref-h", "1e-4",
            "--seed", "3",
        ])
        assert code == EXIT_OK
        summary = json.loads(list(tmp_path.glob("ode-bench-*.json"))[0].read_text())
        assert len(summary["errors"]) == 3
        assert all(0.7 <= order <= 1.3 for order in summary["observed_orders"])
        lines = list(tmp_path.glob("ode-bench-*.csv"))[0].read_text().splitlines()
        assert lines[1] == "h,error,observed_order"
        assert len(lines) == 5

    def test_out_dir_is_a_file(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main([
            "ode-bench", "--out-dir", str(blocker), "--dims", "8,6",
            "--target-rank", "2", "--tau", "0", "--h-list", "0.1",
            "--t-end", "1.0", "--ref-h", "0.01",
        ])
        assert code == EXIT_IO
        assert blocker.read_text() == ""

    def test_single_h_no_order(self, tmp_path):
        code = main([
            "ode-bench", "--out-dir", str(tmp_path), "--dims", "8,6",
            "--target-rank", "2", "--tau", "0", "--h-list", "0.1",
            "--t-end", "1.0", "--ref-h", "0.001", "--seed", "4",
        ])
        assert code == EXIT_OK
        summary = json.loads(list(tmp_path.glob("ode-bench-*.json"))[0].read_text())
        assert summary["observed_orders"] == []

    def test_perturbation_plateau_flagged(self, tmp_path):
        # rank may grow to r_max, and the augmented basis doubles it, so
        # dims must leave room: 2 * r_max <= min(dims)
        code = main([
            "ode-bench", "--out-dir", str(tmp_path), "--dims", "16,14",
            "--target-rank", "3", "--tau", "0", "--eps", "1e-2",
            "--h-list", "0.02,0.01,0.005,0.0025", "--t-end", "1.0",
            "--ref-h", "1e-4", "--seed", "3",
        ])
        assert code == EXIT_OK
        summary = json.loads(list(tmp_path.glob("ode-bench-*.json"))[0].read_text())
        assert summary["plateau"] is True


    def test_step_not_dividing_t_end_rejected(self, tmp_path):
        code = main([
            "ode-bench", "--out-dir", str(tmp_path), "--dims", "8,6",
            "--target-rank", "2", "--h-list", "0.3", "--t-end", "1.0",
        ])
        assert code == EXIT_CONFIG
        assert not list(tmp_path.iterdir())

    def test_reference_step_not_dividing_t_end_rejected(self, tmp_path):
        code = main([
            "ode-bench", "--out-dir", str(tmp_path), "--dims", "8,6",
            "--target-rank", "2", "--h-list", "0.1", "--t-end", "1.0",
            "--ref-h", "0.3",
        ])
        assert code == EXIT_CONFIG
        assert not list(tmp_path.iterdir())


class TestDescentAudit:
    def test_clean_pass(self, tmp_path):
        code = main([
            "descent-audit", "--out-dir", str(tmp_path), "--dims", "20,15",
            "--target-rank", "3", "--lr", "0.5", "--tau", "0.01",
            "--steps", "30", "--seed", "4",
        ])
        assert code == EXIT_OK
        summary = json.loads(
            list(tmp_path.glob("descent-audit-*.json"))[0].read_text()
        )
        assert summary["violations"] == 0
        assert summary["h_within_guarantee"] is True
        assert summary["s_step_delta"] >= 0.0
        lines = list(tmp_path.glob("descent-audit-*.csv"))[0].read_text().splitlines()
        assert len(lines) == 2 + 30

    def test_oversized_h_warns_not_fails(self, tmp_path, caplog):
        code = main([
            "descent-audit", "--out-dir", str(tmp_path), "--dims", "20,15",
            "--target-rank", "3", "--lr", "2.5", "--tau", "0.01",
            "--steps", "10", "--seed", "4",
        ])
        assert code == EXIT_OK
        summary = json.loads(
            list(tmp_path.glob("descent-audit-*.json"))[0].read_text()
        )
        assert summary["h_within_guarantee"] is False

    @pytest.mark.parametrize("lr, code", [("0.5", EXIT_VIOLATION), ("2.5", EXIT_OK)])
    def test_violations_exit_only_within_guarantee(self, lr, code, tmp_path, monkeypatch):
        # a flow that overshoots to twice its endpoint raises the loss past
        # the descent bound; only a step size within 2/c_l makes that fatal
        def raised_flow_loss(states, grads, cfg):
            return [flow._replace(l1=2.0 * flow.l1) for flow in abc_psi_flow(states, grads, cfg)]

        monkeypatch.setattr(dlrt.cli, "abc_psi_flow", raised_flow_loss)
        steps = 12
        assert main([
            "descent-audit", "--out-dir", str(tmp_path), "--dims", "14,11",
            "--target-rank", "4", "--lr", lr, "--steps", str(steps),
        ]) == code
        (summary,) = tmp_path.glob("descent-audit-*.json")
        assert json.loads(summary.read_text())["violations"] == steps
        (table,) = tmp_path.glob("descent-audit-*.csv")
        rows = list(csv.DictReader(table.read_text().splitlines()[1:]))
        assert [row["violated"] for row in rows] == ["1"] * steps

    def test_negative_seed_rejected(self, tmp_path):
        code = main([
            "descent-audit", "--out-dir", str(tmp_path), "--dims", "8,6",
            "--target-rank", "2", "--steps", "5", "--seed", "-1",
        ])
        assert code == EXIT_CONFIG
        assert not list(tmp_path.iterdir())


class TestCommandSettings:
    """Each command takes only the settings it reads; other config-file
    keys keep their defaults and stay out of the hash."""

    ODE_ARGS = ["--dims", "8,6", "--target-rank", "2", "--tau", "0",
                "--h-list", "0.1", "--t-end", "1.0", "--ref-h", "0.01"]

    @pytest.mark.parametrize("args", [
        ["ode-bench", "--epochs", "3"],
        ["descent-audit", "--integrator", "psi"],
    ])
    def test_unread_flag_rejected(self, args, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out-dir", str(tmp_path)])
        assert exc.value.code == EXIT_CONFIG
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, unread", [
        ("train", {"t_end": 0.25}),
        ("train", {"t_end": 0.25, "h_list": [0.05]}),
        ("ode-bench", {"epochs": 7, "arch": [3, 3]}),
    ])
    def test_unread_config_keys_keep_defaults(self, command, unread, data_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(unread))
        if command == "train":
            args = train_args(data_dir, tmp_path / "out", "--epochs", "0")[1:]
        else:
            args = ["--out-dir", str(tmp_path / "out")] + self.ODE_ARGS
        outputs = []
        for extra in ([], ["--config", str(cfg)]):
            assert main([command, *args, *extra]) == EXIT_OK
            out = tmp_path / "out"
            outputs.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
            for p in out.iterdir():
                p.unlink()
        assert outputs[0] and outputs[0] == outputs[1]

    @pytest.mark.parametrize("command, key, value", [
        ("compare", "seeds", 5),
        ("compare", "arch", 784),
        ("ode-bench", "h_list", 0.1),
        # values of the wrong type for their field, inside a list or not
        ("ode-bench", "dims", [8.5, 6]),
        ("descent-audit", "steps", 2.5),
        ("compare", "arch", [16.5, 4]),
    ])
    def test_non_list_config_value_rejected(self, command, key, value, tmp_path, caplog):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        out.mkdir()
        assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == EXIT_CONFIG
        assert key in caplog.text
        assert not list(out.iterdir())

    @pytest.mark.parametrize("command, variants, distinct", [
        # compare reads --integrator and --seed only as list fallbacks
        ("compare", [["--integrators", "psi"], ["--integrators", "psi", "--integrator", "bug"],
                     ["--integrator", "psi"]], 1),
        ("compare", [["--seeds", "3"], ["--seed", "3"], ["--seeds", "3", "--seed", "5"]], 1),
        ("compare", [["--integrators", "psi"], ["--integrators", "psi,bug"]], 2),
        # a dense run reads no low-rank setting, psi no truncation setting
        ("train", [["--integrator", "full", "--rank", "5"],
                   ["--integrator", "full", "--rank", "6", "--tau", "0.3", "--r-min", "3",
                    "--r-max", "4", "--substeps", "2"]], 1),
        ("train", [["--integrator", "psi"], ["--integrator", "psi", "--tau", "0.3"]], 1),
        ("train", [["--integrator", "psi"], ["--integrator", "psi", "--rank", "2"],
                   ["--integrator", "abc-psi"], ["--integrator", "abc-psi", "--tau", "0.3"]], 4),
        ("ode-bench", [["--integrator", "full"],
                       ["--integrator", "full", "--substeps", "3", "--r-min", "1"]], 1),
    ])
    def test_hash_covers_settings_read(self, command, variants, distinct, data_dir, tmp_path):
        hashes = set()
        for i, extra in enumerate(variants):
            out = tmp_path / str(i)
            if command == "ode-bench":
                args = ["--out-dir", str(out)] + self.ODE_ARGS
            else:
                args = train_args(data_dir, out, "--epochs", "0")[1:]
            assert main([command, *args, *extra]) == EXIT_OK
            (summary,) = out.glob("*.json")
            hashes.add(json.loads(summary.read_text())["config_hash"])
        assert len(hashes) == distinct


class TestNonFiniteSettings:
    """A NaN, infinite or overflowing float setting exits 2, names its key
    and writes nothing."""

    @pytest.mark.parametrize("command, flag, value", [
        ("descent-audit", "--lr", "nan"),
        ("compare", "--lr", "inf"),
        ("train", "--lr", "-inf"),
        ("ode-bench", "--tau", "nan"),
        ("descent-audit", "--tau", "nan"),
        ("ode-bench", "--eps", "nan"),
        ("descent-audit", "--eps", "inf"),
        ("ode-bench", "--h-list", "0.1,nan"),
        ("ode-bench", "--t-end", "nan"),
        ("ode-bench", "--ref-h", "inf"),
    ])
    def test_flag(self, command, flag, value, data_dir, tmp_path, caplog):
        args = [command, f"{flag}={value}", "--out-dir", str(tmp_path)]
        if command in ("train", "compare"):
            args += ["--data-dir", str(data_dir), "--arch", "16,12,4"]
        assert main(args) == EXIT_CONFIG
        assert f"{flag[2:].replace('-', '_')} must be" in caplog.text
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, text, key", [
        ("ode-bench", '{"eps": NaN}', "eps"),
        ("ode-bench", '{"h_list": [0.1, Infinity]}', "h_list"),
        ("descent-audit", '{"lr": 1' + "0" * 400 + "}", "lr"),  # an int past float range
    ], ids=["eps-nan", "h_list-infinity", "lr-huge-int"])
    def test_config_file(self, command, text, key, tmp_path, caplog):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        out.mkdir()
        assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == EXIT_CONFIG
        assert f"{key} must be" in caplog.text
        assert not list(out.iterdir())

    def test_infinite_step_count(self, tmp_path, caplog):
        args = ["ode-bench", "--t-end", "1e300", "--ref-h", "1e-300", "--h-list", "1e-300"]
        assert main(args + ["--out-dir", str(tmp_path)]) == EXIT_CONFIG
        assert "t_end" in caplog.text
        assert not list(tmp_path.iterdir())


class TestStepCeiling:
    """A step count above MAX_STEPS exits 2 before any step runs and writes
    nothing; a huge tau, which only keeps r_min, runs."""

    @pytest.mark.parametrize("args", [
        ["ode-bench", "--integrator", "full", "--t-end", "1e6", "--ref-h", "1e-6",
         "--h-list", "1e6"],
        ["descent-audit", "--dims", "8,6", "--target-rank", "2", "--lr", "0.5", "--steps", "5",
         "--substeps", "1000000000"],
    ])
    def test_exits_config(self, args, tmp_path, caplog):
        assert main(args + ["--out-dir", str(tmp_path)]) == EXIT_CONFIG
        assert "above MAX_STEPS" in caplog.text
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [
        ["descent-audit", "--lr", "0.5", "--steps", "5"],
        ["ode-bench", "--h-list", "0.1", "--ref-h", "0.01"],
    ])
    def test_huge_tau_runs(self, args, tmp_path):
        args += ["--dims", "8,6", "--target-rank", "2", "--tau", "1e300"]
        assert main(args + ["--out-dir", str(tmp_path)]) == EXIT_OK

    @pytest.mark.parametrize("args", [
        # steps * substeps would be 200 * 6000 at the unread default steps
        ["ode-bench", "--substeps", "6000", "--dims", "8,6", "--target-rank", "2",
         "--h-list", "0.5", "--t-end", "1.0", "--ref-h", "0.1"],
        # t_end/h * substeps would be 40 * 30000 at the unread default h_list
        ["descent-audit", "--substeps", "30000", "--steps", "1", "--dims", "8,6",
         "--target-rank", "2"],
    ])
    def test_unread_settings_count_nothing(self, args, tmp_path):
        assert main(args + ["--out-dir", str(tmp_path)]) == EXIT_OK

    def test_train_counts_only_epochs(self, data_dir, tmp_path):
        # steps * substeps would be 200 * 6000 at the unread default steps
        args = train_args(data_dir, tmp_path, "--substeps", "6000", "--epochs", "0")
        assert main(args) == EXIT_OK


@pytest.fixture(scope="module")
def empty_split_dirs(tmp_path_factory):
    """Data directories whose train or test split holds no samples."""
    dirs = {}
    for empty in ("train", "test"):
        root = tmp_path_factory.mktemp(f"no-{empty}")
        for split, prefix in (("train", "train"), ("test", "t10k")):
            n = 0 if split == empty else 40
            write_idx_images(root / f"{prefix}-images-idx3-ubyte", np.zeros((n, 16)), 4, 4)
            write_idx_labels(root / f"{prefix}-labels-idx1-ubyte", np.arange(n) % 4)
        dirs[empty] = root
    return dirs


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("empty", ["train", "test"])
def test_empty_split_exits_io(command, empty, empty_split_dirs, tmp_path, caplog):
    args = train_args(empty_split_dirs[empty], tmp_path, "--epochs", "1")
    assert main([command, *args[1:]]) == EXIT_IO
    assert f"{empty} split" in caplog.text
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("corrupt", [
    lambda gz: gz[:-12],  # truncated: EOFError
    lambda gz: gz[:10] + b"\xff" + gz[11:],  # reserved deflate block type: zlib.error
])
def test_corrupt_gzip_exits_io(corrupt, data_dir, tmp_path_factory, tmp_path, caplog):
    root = tmp_path_factory.mktemp("corrupt-gz")
    for f in data_dir.iterdir():
        (root / f.name).write_bytes(f.read_bytes())
    images = root / "train-images-idx3-ubyte"
    (root / "train-images-idx3-ubyte.gz").write_bytes(corrupt(gzip.compress(images.read_bytes())))
    images.unlink()
    assert main(train_args(root, tmp_path, "--epochs", "1")) == EXIT_IO
    assert "corrupt gzip" in caplog.text
    assert not list(tmp_path.iterdir())


class TestDivergenceReason:
    """The "diverged" log line says why."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_descent_audit_overflow(self, tmp_path, caplog):
        args = ["descent-audit", "--lr", "1e300", "--steps", "5", "--out-dir", str(tmp_path)]
        assert main(args) == EXIT_DIVERGED
        assert "factor diverged" in caplog.text
        assert "eigendecomposition failed" not in caplog.text

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_error_in_training(self, data_dir, tmp_path, caplog):
        args = train_args(data_dir, tmp_path, "--epochs", "1", "--integrator", "psi")
        args[args.index("--lr") + 1] = "1e300"
        assert main(args) == EXIT_DIVERGED
        assert "diverged in epoch 1: non-finite activation in forward pass" in caplog.text

    def test_exploding_layer(self, data_dir, tmp_path, caplog):
        args = train_args(data_dir, tmp_path, "--epochs", "3", "--integrator", "full")
        args[args.index("--lr") + 1] = "1e8"
        assert main(args) == EXIT_DIVERGED
        assert "diverged in epoch 1: layer 0 weight norm" in caplog.text


class TestNumericFailures:
    """A non-finite value outside training exits 4 and writes nothing."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("args", [
        ["descent-audit", "--lr", "1e300", "--steps", "5"],
        ["ode-bench", "--integrator", "psi", "--h-list", "1e155", "--t-end", "1e155",
         "--ref-h", "1e155"],
        # the dense flow at h = 3 overflows; the study's endpoint check raises
        ["ode-bench", "--integrator", "full", "--dims", "8,6", "--target-rank", "2",
         "--h-list", "3", "--t-end", "3300", "--ref-h", "3"],
    ])
    def test_exit_diverged(self, args, tmp_path):
        assert main(args + ["--out-dir", str(tmp_path)]) == EXIT_DIVERGED
        assert not list(tmp_path.iterdir())


class TestHostileSettings:
    """Generative: a tiny valid run of each command with one or two settings
    swapped for hostile values, by flag or by config file, exits with a
    documented code, never 1 (an uncaught exception), and exits 2 and 3
    write nothing."""

    NAN, INF = float("nan"), float("inf")
    BAD_INT = [0, -1, True, 2.5, "x"]
    BAD_FLOAT = [0, -1, True, "x", NAN, INF, -INF, 1e300]
    # size settings stay at or below 64, so no draw allocates much memory
    BAD_WIDTHS = [[], 5, [2.5, 4], [True, 4], ["x"], [16, 0, 4], [16, -1, 4], [16, 64, 4], [64, 64]]
    HOSTILE = {
        "integrator": ["euler", "", 3, True, None],
        "integrators": [[], "psi", ["euler"], [3], ["psi", "full"]],
        "arch": BAD_WIDTHS,
        "dims": BAD_WIDTHS,
        "lr": BAD_FLOAT,
        "tau": BAD_FLOAT,
        "eps": BAD_FLOAT,
        "t_end": BAD_FLOAT,
        "ref_h": BAD_FLOAT,
        "h_list": [[], 0.1, [NAN], [0.1, INF], [0], [-0.1], [1e300], ["x"], [True], [0.3]],
        "rank": BAD_INT + [64],
        "target_rank": BAD_INT + [64],
        "batch_size": BAD_INT + [64],
        "r_min": BAD_INT + [64, 10**12],
        "r_max": BAD_INT + [1, 64, 10**12],
        "seed": BAD_INT + [10**12],
        "seeds": [[], 5, [-1], [True], [2.5], [0, 10**12]],
        "epochs": BAD_INT + [10**12],
        "substeps": BAD_INT + [10**12],
        "steps": BAD_INT + [10**12],
        "data_dir": [3, True, "", "no-such-dir"],
        "bogus": [1],
    }
    TRAINING = {"arch": [16, 8, 4], "rank": 2, "epochs": 1, "batch_size": 64, "lr": 0.05}
    PROBLEM = {"dims": [8, 6], "target_rank": 2}
    BASE = {
        "train": TRAINING,
        "compare": {**TRAINING, "integrators": ["abc-psi", "full"], "seeds": [0]},
        "ode-bench": {**PROBLEM, "h_list": [0.1], "t_end": 1.0, "ref_h": 0.01},
        "descent-audit": {**PROBLEM, "lr": 0.5, "steps": 5},
    }
    # the settings each command reads: its parser's destinations
    READ = {command: set(vars(build_parser().parse_args([command])))
            - {"command", "func", "config"} for command in BASE}

    @staticmethod
    def flag(key, value):
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        return f"--{key.replace('_', '-')}={text}"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command", sorted(BASE))
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_exit_code(self, command, data, data_dir, tmp_path_factory):
        read = self.READ[command]
        keys = sorted((read - {"out_dir"}) | {"bogus"})
        swapped = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=2, unique=True))
        config = dict(self.BASE[command])
        if "data_dir" in read:
            config["data_dir"] = str(data_dir)
        for key in swapped:
            config[key] = data.draw(st.sampled_from(self.HOSTILE[key]), label=key)
        out = tmp_path_factory.mktemp("out")
        args = [command, "--out-dir", str(out)]
        if data.draw(st.booleans(), label="by flag"):
            args += [self.flag(key, value) for key, value in config.items()]
        else:
            cfg = out.parent / f"{out.name}.json"
            cfg.write_text(json.dumps(config))
            args += ["--config", str(cfg)]
        try:
            code = main(args)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_DIVERGED, EXIT_VIOLATION)
        if code in (EXIT_CONFIG, EXIT_IO):
            assert not list(out.iterdir())
