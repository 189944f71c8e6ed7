"""The committed scripts run, on grids small enough for every test run."""

import importlib
import json
import os
import sys
from pathlib import Path

from adn_consensus import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_gate_power_on_a_tiny_grid(tmp_path, capsys, monkeypatch):
    # imported by name, so that its worker processes find run_seed; the
    # BLAS pins it sets for its workers are undone after the test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.syspath_prepend(str(SCRIPTS))
    gate_power = importlib.import_module("gate_power")
    reports = {}
    for threads in (1, 2):
        out = tmp_path / f"gate{threads}.json"
        argv = ["--seeds", "2", "--first-seed", "7", "--paths", "200", "--threads", str(threads)]
        assert gate_power.main(argv + ["--out", str(out)]) == 0
        reports[threads] = json.loads(out.read_text())
    capsys.readouterr()
    one, two = reports[1], reports[2]
    assert one["seeds"] == [7, 8] and one["paths"] == 200
    assert set(one["criteria"]) == {"5", "6"}
    for name, c in one["criteria"].items():
        assert c["runs"] == 2 and 0 <= c["passed"] <= 2
        assert c["pass_fraction"] == c["passed"] / 2
        assert [r["seed"] for r in c["per_seed"]] == [7, 8]
        assert all(0.0 < r["bound"] < 1.0 for r in c["per_seed"])
        # the worker count changes nothing but the timing
        assert c == two["criteria"][name]


def test_reproduce_experiments_from_another_directory(tmp_path, capsys, monkeypatch):
    # the configs resolve from the checkout, not the working directory;
    # each shipped config is read as it is, then cut to 300 paths
    monkeypatch.syspath_prepend(str(SCRIPTS))
    reproduce = importlib.import_module("reproduce_experiments")
    load = cli._load_json
    monkeypatch.setattr(cli, "_load_json", lambda path: {**load(path), "n_paths": 300})
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["reproduce_experiments.py"])
    assert reproduce.run() == 0
    out = capsys.readouterr().out
    for label, config, _ in reproduce.EXPERIMENTS:
        assert f"== {label}: {config} -> results{os.sep}{label}" in out
        manifest = json.loads((tmp_path / "results" / label / "manifest.json").read_text())
        assert manifest["n_paths"] == 300
    assert out.count("bound rate") == 2 and "tail vs bound" in out
