"""The committed scripts run, on grids small enough for every test run."""

import importlib
import json
import os
import re
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
    # --model-seed 7 holds seed 7's rates and initial state: its seed-7 row is
    # the plain run's, and seed 8 runs new paths on the same model
    out = tmp_path / "held.json"
    argv = ["--seeds", "2", "--first-seed", "7", "--paths", "200", "--model-seed", "7"]
    assert gate_power.main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    held = json.loads(out.read_text())
    assert held["model_seed"] == 7 and one["model_seed"] is None
    for name, c in held["criteria"].items():
        first, second = c["per_seed"]
        assert first == one["criteria"][name]["per_seed"][0]
        assert second["seed"] == 8 and second["bound"] == first["bound"]
        assert second["bound"] != one["criteria"][name]["per_seed"][1]["bound"]


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


def test_src_size_lists_every_module_and_sums_them(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    src_size = importlib.import_module("src_size")
    src_size.main()
    header, *rows, total = (line.split() for line in capsys.readouterr().out.splitlines())
    assert header == ["module", "lines", "stmts"]
    assert [name for name, *_ in rows] == sorted(p.name for p in src_size.SRC.glob("*.py"))
    assert "cli.py" in [name for name, *_ in rows]
    sizes = [(int(lines), int(stmts)) for _, lines, stmts in rows]
    assert sizes == [src_size.size(src_size.SRC / name) for name, *_ in rows]
    assert total == ["total", *(str(sum(col)) for col in zip(*sizes))]


def test_output_digests_lists_every_run_of_a_tiny_config(tmp_path, capsys, monkeypatch):
    # a ROOT holding the package's src and one n = 4 config: each run label
    # gets one exit-code line, and each file a run writes a digest line
    monkeypatch.syspath_prepend(str(SCRIPTS))
    output_digests = importlib.import_module("output_digests")
    root = tmp_path / "root"
    (root / "configs").mkdir(parents=True)
    (root / "src").symlink_to(SCRIPTS.parent / "src", target_is_directory=True)
    config = {
        "n": 4, "m": 2, "dt": 0.5, "eps": 0.01, "k_max": 40, "n_paths": 20, "seed": 5,
        "model": "full", "activity": {"mode": "explicit", "values": [0.2, 0.1, 0.3, 0.15]},
    }
    (root / "configs" / "tiny.json").write_text(json.dumps(config))
    assert output_digests.main([str(root), str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()
    sha = "[0-9a-f]{64}"
    runs = [re.fullmatch(rf"configs/tiny/([\w-]+): exit 0, stdout {sha}, stderr {sha}", x) for x in lines]
    assert [r[1] for r in runs if r] == list(output_digests.RUNS)
    files = {}
    for x in lines:
        if (f := re.fullmatch(rf"({sha})  configs/tiny/([\w-]+)/out/(\S+)", x)) is not None:
            files.setdefault(f[2], {})[f[3]] = f[1]
    assert sum(map(bool, runs)) + sum(map(len, files.values())) == len(lines)
    # every run with --out wrote files, and the worker count changes no byte
    assert sorted(files) == sorted(k for k, v in output_digests.RUNS.items() if "--out" in v)
    assert "survival.csv" in files["simulate-threads1"]
    assert files["simulate-threads1"] == files["simulate-threads2"]
