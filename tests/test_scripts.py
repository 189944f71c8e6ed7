"""The committed scripts run, on grids small enough for every test run."""

import importlib
import json
import os
from pathlib import Path

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
