import argparse
import contextlib
import csv
import gzip
import io
import json
import logging
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dlrt.cli
import dlrt.nn
import dlrt.threads
from dlrt.checkpoint import load_network
from dlrt.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_IO,
    EXIT_OK,
    EXIT_VIOLATION,
    EXIT_WORKER_LOST,
    MAX_STEPS,
    ConfigError,
    RunConfig,
    build_parser,
    load_config,
    _Outputs,
    main,
)
from dlrt.data import Dataset, load_dataset, write_idx_images, write_idx_labels
from dlrt.integrators import StepConfig, abc_psi_flow
from dlrt.lowrank import LowRankState, TruncationPolicy, compression_rate
from dlrt.nn import (
    DenseLayer,
    LayerSpec,
    LowRankLayer,
    Network,
    build_network,
    evaluate,
    mlp_specs,
    train_step,
)


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


COMMANDS = ("train", "compare", "ode-bench", "descent-audit")
# RunConfig's field table: each setting's field by name, and the settings
# each command reads
SETTINGS = {f.name: f for f in fields(RunConfig) if f.name != "command"}
READ = {command: {key for key, f in SETTINGS.items() if command in f.metadata["commands"]}
        for command in COMMANDS}


def train_args(data_dir, out_dir, *extra):
    return [
        "train", "--data-dir", str(data_dir), "--out-dir", str(out_dir),
        "--arch", "16,12,4", "--rank", "3", "--tau", "0.05", "--lr", "0.05",
        "--batch-size", "32", "--seed", "1", *extra,
    ]


def compare_args(data_dir, out_dir, *extra):
    """``train_args`` for compare, which takes its seeds as a list."""
    args = ["compare", *train_args(data_dir, out_dir, *extra)[1:]]
    args[args.index("--seed")] = "--seeds"
    return args


class TestRunConfig:
    def test_defaults_valid(self):
        RunConfig()

    def test_rejects_bad_integrator(self):
        with pytest.raises(ConfigError):
            RunConfig(integrator="euler")

    def test_rejects_negative_lr(self):
        with pytest.raises(ConfigError):
            RunConfig(lr=-1.0)

    def test_rejects_short_arch(self):
        with pytest.raises(ConfigError):
            RunConfig(arch=(10,))

    def test_hash_ignores_locations(self):
        a = RunConfig(out_dir="x", data_dir="/a")
        b = RunConfig(out_dir="y", data_dir="/b")
        assert a.hash() == b.hash()
        assert a.hash() != RunConfig(lr=0.5).hash()

    def test_unknown_config_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"lr": 0.1, "bogus": 1}))
        with pytest.raises(ConfigError):
            load_config("train", p)

    def test_flags_override_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"lr": 0.1, "epochs": 7}))
        cfg = load_config("train", p, {"lr": 0.2, "epochs": None})
        assert cfg.lr == 0.2
        assert cfg.epochs == 7

    def test_config_file_lists_become_tuples(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"arch": [16, 8, 4], "h_list": [0.1, 0.05]}))
        assert load_config("train", p).arch == (16, 8, 4)
        assert load_config("ode-bench", p).h_list == (0.1, 0.05)

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
            RunConfig(**settings)

    @pytest.mark.parametrize("command, settings, message", [
        ("compare", {"integrators": ("psi", "sgd")}, "unknown integrator 'sgd'"),
        ("compare", {"integrators": ()}, "integrators is empty"),
        ("compare", {"integrators": ("psi", "psi")}, "integrators repeats 'psi'"),
        ("compare", {"seeds": ()}, "seeds is empty"),
        ("compare", {"seeds": (1, 2, 1)}, "seeds repeats 1"),
        ("ode-bench", {"h_list": ()}, "h_list is empty"),
        ("ode-bench", {"h_list": (0.1, 0.1)}, "h_list repeats 0.1"),
        ("train", {"arch": (10, 0)}, "arch needs >= 2 positive layer widths"),
        ("descent-audit", {"lr": 0.0}, "lr must be positive"),
        ("train", {"batch_size": 0}, "batch_size must be >= 1"),
        ("train", {"epochs": -1}, "epochs must be >= 0"),
        ("train", {"seed": -1}, "seeds must be >= 0"),
        ("compare", {"seeds": (0, -2)}, "seeds must be >= 0"),
        ("ode-bench", {"dims": (8,)}, "dims must be two positive integers"),
        ("descent-audit", {"dims": (8, 0)}, "dims must be two positive integers"),
        ("ode-bench", {"target_rank": 0}, "target_rank must be in [1, min(dims)]"),
        ("descent-audit", {"dims": (8, 6), "target_rank": 7},
         "target_rank must be in [1, min(dims)]"),
        ("ode-bench", {"h_list": (0.1, -0.05)}, "h_list must hold positive step sizes"),
        ("ode-bench", {"t_end": 0.0}, "t_end and ref_h must be positive"),
        ("ode-bench", {"ref_h": -1e-4}, "t_end and ref_h must be positive"),
        ("descent-audit", {"steps": 0}, "steps must be >= 1"),
        ("ode-bench", {"h_list": (0.3,)}, "step size 0.3 does not divide t_end 1.0"),
        ("train", {"epochs": 10**9}, f"epochs asks for {10**9} steps, above MAX_STEPS"),
    ])
    def test_construction_checks_ranges(self, command, settings, message):
        # a record that exists is one a command can run: no later check
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            RunConfig(command, **settings)

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
        assert RunConfig(arch=[3, 4]).arch == (3, 4)

    @pytest.mark.parametrize("at_ceiling, above, count", [
        ({"ref_h": 1.0 / MAX_STEPS}, {"ref_h": 1.0 / (MAX_STEPS + 1)}, "t_end/ref_h"),
        ({"h_list": (1.0 / MAX_STEPS,)}, {"h_list": (1.0 / (MAX_STEPS + 1),)}, "t_end/h"),
        ({"steps": MAX_STEPS}, {"steps": MAX_STEPS + 1}, "steps"),
        ({"epochs": MAX_STEPS}, {"epochs": MAX_STEPS + 1}, "epochs"),
    ])
    def test_step_ceiling(self, at_ceiling, above, count):
        # each count on the command that reads it; t_end 1 and h 0.5: two
        # steps each for t_end/h and t_end/ref_h
        (key,) = at_ceiling
        command = SETTINGS[key].metadata["commands"][0]
        base = {"h_list": (0.5,), "ref_h": 0.5} if command == "ode-bench" else {}
        RunConfig(command, **{**base, **at_ceiling})
        with pytest.raises(ConfigError, match=rf"^{re.escape(count)}.*above MAX_STEPS"):
            RunConfig(command, **{**base, **above})


class TestWriters:
    """A failed write leaves the previous file in place and no temporary."""

    def test_write_csv_failure_keeps_previous_file(self, tmp_path):
        out = _Outputs(RunConfig(), tmp_path)
        out.write_csv(".csv", ["x"], [[1], [2]])
        path = out.path(".csv")
        good = path.read_bytes()
        with pytest.raises(TypeError):
            out.write_csv(".csv", ["x"], [[3], 4])  # 4 is not a row
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_write_json_failure_keeps_previous_file(self, tmp_path):
        out = _Outputs(RunConfig(), tmp_path)
        out.write_summary(a=1)
        path = out.path(".json")
        good = path.read_bytes()
        with pytest.raises(TypeError):
            out.write_summary(a=1, b=object())
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_float_cells_written_by_repr(self, tmp_path):
        # numpy 2's own repr of a float64 is "np.float64(0.1)"
        out = _Outputs(RunConfig(), tmp_path)
        out.write_csv(".csv", ["a", "b", "c"], [[np.float64(0.1), 0.25, 3]])
        assert out.path(".csv").read_text().splitlines()[2] == "0.1,0.25,3"


FLOAT_COLUMNS = {
    "train_loss", "test_accuracy", "compression_rate", "accuracy", "h", "error",
    "observed_order", "loss_before", "loss_after_flow", "descent_bound", "margin",
}


def _float_cells(path):
    """The non-empty cells of a CSV's float columns; a cell of any other
    column is checked to hold no float."""
    header, *rows = csv.reader(path.read_text().splitlines()[1:])
    cells = []
    for row in rows:
        for column, cell in zip(header, row):
            if column not in FLOAT_COLUMNS:
                assert "." not in cell, (path.name, column, cell)
            elif cell:
                cells.append(cell)
    return cells


def test_every_float_cell_reads_back(data_dir, tmp_path):
    """Every float cell of every command's CSVs is written as repr(float)."""
    train = train_args(data_dir, tmp_path, "--epochs", "1")
    problem = ["--dims", "8,6", "--target-rank", "2", "--out-dir", str(tmp_path)]
    assert main(train) == EXIT_OK
    assert main(compare_args(data_dir, tmp_path, "--epochs", "1",
                             "--integrators", "full,abc-psi")) == EXIT_OK
    assert main(["ode-bench", *problem, "--integrator", "psi", "--h-list", "0.1,0.05",
                 "--ref-h", "0.01"]) == EXIT_OK
    assert main(["descent-audit", *problem, "--steps", "3"]) == EXIT_OK
    paths = sorted(tmp_path.glob("*.csv"))
    assert {p.name.split("-")[0] for p in paths} == {"train", "compare", "ode", "descent"}
    for path in paths:
        cells = _float_cells(path)
        assert cells, path.name
        assert all(cell == repr(float(cell)) for cell in cells), path.name


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

    @pytest.mark.parametrize("integrator, lr", [("abc-psi", "0.05"), ("full", "1e8")])
    def test_summary_figures_are_the_last_row(self, data_dir, tmp_path, integrator, lr):
        # one form for a run's final figures: the JSON holds the CSV's last
        # row, diverged runs included (the full run's last row is epoch 0)
        main(train_args(data_dir, tmp_path, "--epochs", "2", "--integrator", integrator,
                        "--lr", lr))
        (path,) = tmp_path.glob("train-*.csv")
        last = list(csv.DictReader(path.read_text().splitlines()[1:]))[-1]
        summary = json.loads(next(tmp_path.glob("train-*.json")).read_text())
        assert summary["final_accuracy"] == float(last["test_accuracy"])
        assert summary["param_count"] == int(last["param_count"])
        assert summary["compression_rate"] == float(last["compression_rate"])

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
        net = build_network([LayerSpec(4, 3, initial_rank=2),
                             LayerSpec(3, 2, "identity")], seed=0)
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
            "--batch-size", "32", "--seeds", "3",
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

    @pytest.mark.parametrize("args, message", [
        (["--integrators", "psi,bug,psi"], "integrators repeats 'psi'"),
        (["--seeds", "0,1,0"], "seeds repeats 0"),
        # an empty list runs nothing; it does not fall back to a default
        (["--integrators="], "integrators is empty"),
        (["--seeds="], "seeds is empty"),
    ])
    def test_repeated_run_rejected(self, data_dir, tmp_path, caplog, args, message):
        # a repeat would run the same experiment twice, write its CSV twice
        # and count it twice in the summary
        code = main([
            "compare", "--data-dir", str(data_dir), "--out-dir", str(tmp_path),
            "--arch", "16,12,4", "--rank", "3", "--epochs", "1", *args,
        ])
        assert code == EXIT_CONFIG
        assert message in caplog.text
        assert not list(tmp_path.iterdir())

    def test_labels_beyond_output_width(self, data_dir, tmp_path):
        code = main([
            "compare", "--data-dir", str(data_dir), "--out-dir", str(tmp_path),
            "--arch", "16,12,3", "--rank", "3", "--epochs", "1",
            "--integrators", "abc-psi,full",
        ])
        assert code == EXIT_CONFIG
        assert not list(tmp_path.glob("compare-*"))


# the names of this process's live threads at each of its forks, as the
# parent sees them just after the fork; no thread starts between
# dlrt.threads' own before-fork hook and this one
FORK_THREADS = []
if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        after_in_parent=lambda: FORK_THREADS.append([t.name for t in threading.enumerate()])
    )


def pin_cpus(monkeypatch, count, blas=1):
    """Make the affinity mask that compare reads hold ``count`` CPUs, and
    the BLAS thread count it reads ``blas``."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(dlrt.threads, "blas_threads", lambda: blas)


class TestCompareWorkers:
    """compare spreads its runs over ``threads.width(runs)`` forked workers:
    min(runs, CPUs) with BLAS at one thread, one where BLAS fills the CPUs
    or its thread count cannot be read."""

    RUNS = [(integrator, seed) for integrator in ("abc-psi", "bug", "full") for seed in (1, 2)]
    # run count -> the extra flags that give it
    RUN_SETS = {6: (), 2: ("--integrators", "abc-psi")}

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

    @pytest.fixture(scope="class")
    def in_process(self, data_dir, tmp_path_factory):
        """run count -> (CSVs, stdout) of a compare run in process."""
        outputs = {}
        with pytest.MonkeyPatch.context() as monkeypatch:
            pin_cpus(monkeypatch, 1)
            for runs, extra in self.RUN_SETS.items():
                out_dir = tmp_path_factory.mktemp("in-process")
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    assert self.compare(data_dir, out_dir, *extra) == EXIT_OK
                outputs[runs] = ({path.name: path.read_bytes() for path in out_dir.glob("*.csv")},
                                 stdout.getvalue())
        return outputs

    @pytest.mark.parametrize("blas, cpus, runs, workers", [
        (None, 2, 6, 1),  # no OpenBLAS found
        (2, 2, 6, 1),  # BLAS fills every CPU, as unpinned OpenBLAS does
        (4, 2, 6, 1),
        (2, 4, 6, 2),
        (1, 2, 6, 2),  # one BLAS thread: min(runs, CPUs)
        (1, 4, 2, 2),
    ])
    def test_workers_follow_the_width_rule(self, data_dir, tmp_path, monkeypatch, capsys,
                                           in_process, blas, cpus, runs, workers):
        pin_cpus(monkeypatch, cpus, blas)
        assert self.compare(data_dir, tmp_path, *self.RUN_SETS[runs]) == EXIT_OK
        (summary,) = tmp_path.glob("compare-*.json")
        summary = json.loads(summary.read_text())
        assert (len(summary["runs"]), summary["workers"]) == (runs, workers)
        csvs = {path.name: path.read_bytes() for path in tmp_path.glob("*.csv")}
        assert (csvs, capsys.readouterr().out) == in_process[runs]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failed_run_raises_and_leaves_no_worker(self, cpus, data_dir, tmp_path,
                                                    monkeypatch):
        pin_cpus(monkeypatch, cpus)
        run_training = dlrt.cli._run_training

        def fail_one(config, integrator, seed, *rest):
            if (integrator, seed) == ("bug", 2):
                raise RuntimeError("run bug s2 failed")
            return run_training(config, integrator, seed, *rest)

        monkeypatch.setattr(dlrt.cli, "_run_training", fail_one)
        with pytest.raises(RuntimeError, match="run bug s2 failed"):
            self.compare(data_dir, tmp_path)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="without fork the runs, and the kill, are in process")
    def test_killed_worker_fails_the_command(self, data_dir, tmp_path, monkeypatch, caplog):
        # a worker the system kills mid-run (say for memory) fails compare
        # with its own exit code; it does not leave it waiting for that run
        # forever. A run in flight in the other worker may be lost with it,
        # so the first run without a result is bug s2 or one before it
        pin_cpus(monkeypatch, 2)
        run_training = dlrt.cli._run_training

        def killed_once(config, integrator, seed, *rest):
            if (integrator, seed) == ("bug", 2):
                os.kill(os.getpid(), signal.SIGKILL)
            return run_training(config, integrator, seed, *rest)

        monkeypatch.setattr(dlrt.cli, "_run_training", killed_once)
        assert self.compare(data_dir, tmp_path) == EXIT_WORKER_LOST
        assert multiprocessing.active_children() == []
        (line,) = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        match = re.fullmatch(r"a compare worker was lost: run (\S+) seed (\d+) has no "
                             r"result; (\d+) of 6 runs written", line)
        written = int(match[3])
        assert (match[1], int(match[2])) == self.RUNS[written]
        assert written <= self.RUNS.index(("bug", 2))
        assert len(list(tmp_path.glob("compare-*-s*.csv"))) == written
        assert not list(tmp_path.glob("compare-*.json"))

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

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="without fork the runs are in process")
    def test_no_state_thread_at_fork(self, data_dir, tmp_path, monkeypatch, capsys):
        # after a step on the state pool, compare forks with no pool thread
        # alive, its workers run their states inline on their share of the
        # CPUs, and the bytes match an in-process compare
        pin_cpus(monkeypatch, 2)
        net = build_network(mlp_specs([16, 12, 8, 4], 3), seed=0)
        rng = np.random.default_rng(0)
        batch = rng.random((32, 16)), rng.integers(0, 4, 32)
        train_step(net, batch, "abc-psi", StepConfig(h=0.05, policy=TruncationPolicy(0.05, 6)))
        assert any(t.name.startswith("dlrt-state") for t in threading.enumerate())

        run_training, log_run = dlrt.cli._run_training, dlrt.cli._log_run
        widths = []

        def with_width(*args):
            return {**run_training(*args), "width": dlrt.threads.width(8)}

        def logged(result):
            widths.append(result["width"])
            log_run(result)

        monkeypatch.setattr(dlrt.cli, "_run_training", with_width)
        monkeypatch.setattr(dlrt.cli, "_log_run", logged)
        del FORK_THREADS[:]
        assert self.compare(data_dir, tmp_path / "2") == EXIT_OK
        forks, forked_out = list(FORK_THREADS), capsys.readouterr().out
        assert len(forks) == 2
        assert not [name for names in forks for name in names if name.startswith("dlrt-state")]
        assert widths == [1] * len(self.RUNS)
        assert dlrt.threads.width(8) == 2  # the parent's own share is untouched

        pin_cpus(monkeypatch, 1)
        assert self.compare(data_dir, tmp_path / "1") == EXIT_OK
        assert capsys.readouterr().out == forked_out
        csvs = [{path.name: path.read_bytes() for path in (tmp_path / n).glob("*.csv")}
                for n in ("1", "2")]
        assert csvs[0] == csvs[1]

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

    def test_each_seed_factors_once(self, data_dir, tmp_path, monkeypatch, capsys):
        # the four factored integrators of a seed start from one network, so
        # its two low-rank layers are factored once per seed; the bytes are
        # those of runs that each build their own network, after compare's
        # own build of each seed's network
        pin_cpus(monkeypatch, 1)
        factored = []
        gram_svd = dlrt.nn._gram_svd

        def counted(*args):
            factored.append(args[0].shape)
            return gram_svd(*args)

        def outputs(run):
            del factored[:]
            args = ("--integrators", "psi,bc-psi,bug,abc-psi", "--seeds", "0,1")
            assert self.compare(data_dir, tmp_path / run, *args) == EXIT_OK
            csvs = {path.name: path.read_bytes() for path in (tmp_path / run).glob("*.csv")}
            return csvs, capsys.readouterr().out, list(factored)

        monkeypatch.setattr(dlrt.nn, "_gram_svd", counted)
        kept = outputs("kept")
        run_training = dlrt.cli._run_training

        def built_anew(config, integrator, seed, train, test):
            dlrt.nn._built.clear()
            return run_training(config, integrator, seed, train, test)

        monkeypatch.setattr(dlrt.cli, "_run_training", built_anew)
        anew = outputs("anew")
        assert kept[2] == [(12, 16), (4, 12)] * 2
        assert anew[2] == [(12, 16), (4, 12)] * (2 + 8)  # 2 seeds' builds, then 8 runs' own
        assert len(kept[0]) == 9
        assert kept[:2] == anew[:2]

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("seeds", [2, 9])
    def test_factored_once_in_the_parent(self, data_dir, tmp_path, monkeypatch, cpus, seeds):
        # compare factors each seed's network before its workers fork, so
        # neither more seeds than build_network keeps nor forked workers
        # factor a network again: every factorization is the parent's
        pin_cpus(monkeypatch, cpus)
        calls = tmp_path / "calls"
        gram_svd = dlrt.nn._gram_svd

        def counted(*args):
            with open(calls, "a") as fh:  # one line per factorization, from any process
                fh.write(f"{os.getpid()}\n")
            return gram_svd(*args)

        monkeypatch.setattr(dlrt.nn, "_gram_svd", counted)
        args = ("--integrators", "psi,bug", "--seeds", ",".join(map(str, range(seeds))))
        assert self.compare(data_dir, tmp_path / "out", *args) == EXIT_OK
        (summary,) = (tmp_path / "out").glob("compare-*.json")
        assert json.loads(summary.read_text())["workers"] == cpus
        assert calls.read_text().split() == [str(os.getpid())] * (2 * seeds)

    def test_in_process_compare_keeps_no_network(self, data_dir, tmp_path, monkeypatch):
        # compare holds each seed's network only while it runs
        pin_cpus(monkeypatch, 1)
        assert self.compare(data_dir, tmp_path) == EXIT_OK
        assert len(dlrt.nn._built) == 0


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

    def test_plateau_without_perturbation(self, tmp_path, capsys):
        # eps 0 and a rank-1 cap on a rank-2 target: the error plateaus at
        # the rank floor, so the note names no perturbation
        code = main([
            "ode-bench", "--out-dir", str(tmp_path), "--dims", "2,2",
            "--target-rank", "2", "--r-max", "1", "--r-min", "1",
        ])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "(error floor reached)" in stdout
        assert "perturbation" not in stdout

    def test_repeated_step_size_rejected(self, tmp_path, caplog):
        # a repeat would run the same flow twice and write two identical rows
        code = main([
            "ode-bench", "--out-dir", str(tmp_path), "--h-list", "0.1,0.1,0.05",
        ])
        assert code == EXIT_CONFIG
        assert "h_list repeats 0.1" in caplog.text
        assert not list(tmp_path.iterdir())


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
    keys are ignored and stay out of the hash."""

    ODE_ARGS = ["--dims", "8,6", "--target-rank", "2", "--tau", "0",
                "--h-list", "0.1", "--t-end", "1.0", "--ref-h", "0.01"]

    @pytest.mark.parametrize("args", [
        ["ode-bench", "--epochs", "3"],
        ["descent-audit", "--integrator", "psi"],
        ["train", "--substeps", "2"],  # every subflow is one gradient step
        # compare takes its integrators and seeds as lists alone, and no
        # abbreviation of a list flag
        ["compare", "--integrator", "psi"],
        ["compare", "--seed", "3"],
    ])
    def test_unread_flag_rejected(self, args, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(args + ["--out-dir", str(tmp_path)])
        assert exc.value.code == EXIT_CONFIG
        assert not list(tmp_path.iterdir())

    def test_substeps_config_key_rejected(self, tmp_path, caplog):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"substeps": 1}))
        out = tmp_path / "out"
        args = ["descent-audit", "--config", str(cfg), "--out-dir", str(out)]
        assert main(args) == EXIT_CONFIG
        assert "unknown config keys: ['substeps']" in caplog.text
        assert not out.exists()

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
        # an empty list runs nothing; it does not fall back to a default
        ("compare", "integrators", []),
        ("compare", "seeds", []),
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
        # compare's lists default to abc-psi and seed 0; a dense compare
        # reads no rank
        ("compare", [[], ["--integrators", "abc-psi"]], 1),
        ("compare", [["--integrators", "full", "--rank", "5"],
                     ["--integrators", "full", "--rank", "0"]], 1),
        ("compare", [["--integrators", "psi"], ["--integrators", "psi,bug"]], 2),
        # a dense run reads no low-rank setting, psi no truncation setting
        ("train", [["--integrator", "full", "--rank", "5"],
                   ["--integrator", "full", "--rank", "6", "--tau", "0.3", "--r-min", "3",
                    "--r-max", "4"]], 1),
        ("train", [["--integrator", "psi"], ["--integrator", "psi", "--tau", "0.3"]], 1),
        ("train", [["--integrator", "psi"], ["--integrator", "psi", "--rank", "2"],
                   ["--integrator", "abc-psi"], ["--integrator", "abc-psi", "--tau", "0.3"]], 4),
        ("ode-bench", [["--integrator", "full"],
                       ["--integrator", "full", "--r-min", "1"]], 1),
    ])
    def test_hash_covers_settings_read(self, command, variants, distinct, data_dir, tmp_path):
        hashes = set()
        for i, extra in enumerate(variants):
            out = tmp_path / str(i)
            if command == "ode-bench":
                args = ["ode-bench", "--out-dir", str(out)] + self.ODE_ARGS
            elif command == "compare":
                args = compare_args(data_dir, out, "--epochs", "0")
            else:
                args = train_args(data_dir, out, "--epochs", "0")
            assert main([*args, *extra]) == EXIT_OK
            (summary,) = out.glob("*.json")
            hashes.add(json.loads(summary.read_text())["config_hash"])
        assert len(hashes) == distinct


class TestSettingsTable:
    """RunConfig's field table alone says which command reads which
    setting: each parser, record, hash and JSON summary follows it."""

    # a valid value, other than its default, for each setting
    OTHER = {
        "integrator": "psi", "integrators": ("psi",), "arch": (16, 8, 4), "lr": 0.5,
        "tau": 0.05, "rank": 3, "r_min": 1, "r_max": 6, "batch_size": 32, "epochs": 0,
        "seed": 3, "seeds": (3,), "data_dir": "elsewhere", "out_dir": "elsewhere",
        "dims": (8, 6), "target_rank": 2, "eps": 1e-3, "h_list": (0.1,), "t_end": 0.5,
        "ref_h": 0.01, "steps": 5,
    }

    def test_tables(self):
        assert set(self.OTHER) == set(SETTINGS)
        assert all(SETTINGS[key].default != value for key, value in self.OTHER.items())
        (parsers,) = [a.choices for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)]
        assert tuple(parsers) == COMMANDS
        assert {c for f in SETTINGS.values() for c in f.metadata["commands"]} == set(COMMANDS)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_flags_are_the_settings_read(self, command):
        settings = vars(build_parser().parse_args([command]))
        assert set(settings) - {"command", "config"} == READ[command]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_record_rejects_unread_settings(self, command):
        for key in set(SETTINGS) - READ[command]:
            with pytest.raises(ConfigError, match=f"^{command} does not read {key}$"):
                RunConfig(command, **{key: self.OTHER[key]})

    @pytest.mark.parametrize("command", COMMANDS)
    def test_hash_covers_every_setting_read(self, command):
        # with a dense run, the settings only low-rank or abc-psi runs read
        # keep their defaults and leave the hash
        dense = {"compare": {"integrators": ("full",)}, "descent-audit": {}}.get(
            command, {"integrator": "full"})
        for ran in ({}, dense):
            for key in READ[command] - set(ran):
                changed = RunConfig(command, **{**ran, key: self.OTHER[key]}).hash()
                per_integrator = ran and SETTINGS[key].metadata["integrators"]
                kept = key in ("out_dir", "data_dir") or per_integrator
                assert (changed == RunConfig(command, **ran).hash()) == bool(kept), (ran, key)

    def run_args(self, command, data_dir, out):
        if command == "ode-bench":
            return ["ode-bench", "--out-dir", str(out)] + TestCommandSettings.ODE_ARGS
        if command == "descent-audit":
            return ["descent-audit", "--out-dir", str(out), "--dims", "8,6",
                    "--target-rank", "2", "--steps", "3"]
        args = train_args(data_dir, out, "--epochs", "0")
        return args if command == "train" else compare_args(data_dir, out, "--epochs", "0")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_summary_records_the_settings_read(self, command, data_dir, tmp_path):
        # a config file holding every setting the command does not read
        # leaves its hash and JSON config as they are
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: self.OTHER[key]
                                   for key in set(SETTINGS) - READ[command]}))
        summaries = []
        for i, extra in enumerate([[], ["--config", str(cfg)]]):
            assert main(self.run_args(command, data_dir, tmp_path / str(i)) + extra) == EXIT_OK
            (summary,) = (tmp_path / str(i)).glob("*.json")
            summary = json.loads(summary.read_text())
            assert set(summary["config"]) == READ[command]
            summaries.append((summary["config_hash"], summary["config"]))
        (hash_a, config_a), (hash_b, config_b) = summaries
        assert hash_a == hash_b
        assert {**config_a, "out_dir": None} == {**config_b, "out_dir": None}


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
        ["descent-audit", "--steps", "1000001"],
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
    args = (train_args if command == "train" else compare_args)(
        empty_split_dirs[empty], tmp_path, "--epochs", "1")
    assert main(args) == EXIT_IO
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

    def test_descent_audit_overflow(self, tmp_path, caplog):
        args = ["descent-audit", "--lr", "1e300", "--steps", "5", "--out-dir", str(tmp_path)]
        assert main(args) == EXIT_DIVERGED
        assert "factor diverged" in caplog.text
        assert "eigendecomposition failed" not in caplog.text

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

    def test_nan_weight_is_diverged(self):
        net = build_network([LayerSpec(4, 3, "identity")], seed=0)
        w = net.layers[0].w.copy()
        w[0, 0] = np.nan
        net = Network([DenseLayer(w, net.layers[0].bias, "identity")])
        assert dlrt.cli._divergence(0.5, net).startswith("layer 0 weight norm nan")

    def test_nan_core_stops_the_run(self, data_dir, tmp_path, monkeypatch, caplog):
        # a step that leaves a NaN core (no forward pass sees it before the
        # epoch's evaluation) ends the run with its earlier rows written
        original = dlrt.cli.train_step
        calls = []

        def nan_core_at_epoch_end(net, batch, integrator, cfg):
            net, loss = original(net, batch, integrator, cfg)
            calls.append(None)
            if len(calls) == 19:  # epoch 1's last batch: 600 samples in batches of 32
                layer = net.layers[0]
                s = layer.state.s.copy()
                s[0, 0] = np.nan
                state = LowRankState(layer.state.u, s, layer.state.v)
                layers = (LowRankLayer(state, layer.bias, layer.activation), *net.layers[1:])
                net = Network(layers)
            return net, loss

        monkeypatch.setattr(dlrt.cli, "train_step", nan_core_at_epoch_end)
        assert main(train_args(data_dir, tmp_path, "--epochs", "2")) == EXIT_DIVERGED
        assert "diverged in epoch 1: layer 0 weight norm nan is not finite" in caplog.text
        lines = list(tmp_path.glob("train-*.csv"))[0].read_text().splitlines()
        assert len(lines) == 3  # comment, header, epoch 0
        assert list(tmp_path.glob("train-*.ckpt"))
        summary = json.loads(list(tmp_path.glob("train-*.json"))[0].read_text())
        assert summary["status"] == "diverged"


@pytest.mark.parametrize("command", ["train", "compare"])
def test_overflow_warnings_silenced(command, data_dir, tmp_path):
    """An overflowing run reaches its documented exit code with warnings
    as errors, and numpy's warnings do not reach stderr."""
    if command == "train":
        args = train_args(data_dir, tmp_path, "--epochs", "1", "--integrator", "full",
                          "--batch-size", "600")
    else:
        args = compare_args(data_dir, tmp_path, "--epochs", "1", "--batch-size", "600",
                            "--integrators", "full,psi,abc-psi")
        args[args.index("--seeds") + 1] = "0,1"
    args[args.index("--lr") + 1] = "1e200"
    env = {**os.environ, "PYTHONPATH": str(Path(dlrt.cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "dlrt.cli", *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == (EXIT_DIVERGED if command == "train" else EXIT_OK), proc.stderr
    assert "Warning" not in proc.stderr
    # train: its CSV, checkpoint and JSON; compare: six run CSVs, its CSV and JSON
    assert len(list(tmp_path.iterdir())) == (3 if command == "train" else 8)


class TestNumericFailures:
    """A non-finite value outside training exits 4 and writes nothing."""

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
        "integrators": [[], "psi", ["euler"], [3], ["psi", "full"], ["psi", "psi"]],
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
        "seeds": [[], 5, [-1], [True], [2.5], [0, 10**12], [0, 0]],
        "epochs": BAD_INT + [10**12],
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
    @staticmethod
    def flag(key, value):
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        return f"--{key.replace('_', '-')}={text}"

    @pytest.mark.parametrize("command", sorted(BASE))
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_exit_code(self, command, data, data_dir, tmp_path_factory):
        read = READ[command]
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
