import dataclasses
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adn_consensus import (
    ModelParams,
    StarSpec,
    SurvivalCurve,
    adn_model,
    cli,
    gamma_sp,
    snapshot_count,
    star_laplacian,
    validation,
)
from adn_consensus.cli import (
    draw_activity_rates,
    draw_initial_state,
    main,
    parse_config,
    resolve_config,
)

BASE = {
    "n": 5,
    "m": 2,
    "dt": 0.5,
    "eps": 0.1,
    "k_max": 20,
    "n_paths": 50,
    "seed": 42,
    "model": "sparse",
    "activity": {"mode": "explicit", "values": [0.05, 0.1, 0.2, 0.15, 0.08]},
}


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
INPUTS = CONFIGS.parent / "perfbench" / "inputs"
CERTIFY_VALIDATE = INPUTS / "certify_validate.json"

# A make_config override that removes the field.
DROP = object()


def make_config(**overrides):
    cfg = json.loads(json.dumps(BASE))
    cfg.update(overrides)
    return {k: v for k, v in cfg.items() if v is not DROP}


def one_entry_table(nodes, weights):
    """A make_config override: a tie-break table of one entry."""
    return {"tie_break": {"mode": "table", "entries": [{"set": nodes, "weights": weights}]}}


def _count_eigh(monkeypatch) -> list:
    """Count the matrices handed to ``np.linalg.eigh``: one entry a call,
    the number of matrices in its stack."""
    calls = []
    exact = np.linalg.eigh

    def counted(M):
        calls.append(math.prod(M.shape[:-2]))
        return exact(M)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def _unfolded_at(monkeypatch, n: int):
    """Make folding the sparse or fastswitch law of an n-node model fail,
    leaving check 5's 4-node probe its own."""
    for cls in (adn_model.Sparse, adn_model.FastSwitch):
        exact = cls.folded

        def unread(v, exact=exact):
            assert v.p.n != n, f"{v.name} law folded for a refused or skipped check"
            return exact(v)

        monkeypatch.setattr(cls, "folded", unread)


def write_config(tmp_path, name="cfg.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(make_config(**overrides)))
    return str(path)


class TestParseConfig:
    def test_roundtrip_of_valid_config(self):
        cfg = parse_config(make_config())
        assert cfg["n"] == 5 and cfg["m"] == 2
        assert cfg["activity"]["values"] == (0.05, 0.1, 0.2, 0.15, 0.08)
        assert cfg["z0"] == {"mode": "uniform_draw"}
        assert cfg["tie_break"] == "uniform"
        manifest_keys = {"n", "m", "dt", "eps", "k_max", "n_paths", "seed", "model"}
        manifest_keys |= {"activity", "z0", "tie_break"}
        assert set(cfg) == manifest_keys | {"rule"}

    def test_unknown_keys_ignored(self):
        # manifests carry a results block; feeding one back as a config
        # must parse cleanly
        cfg = make_config()
        cfg["results"] = {"fitted_rate": 0.5}
        cfg["comment"] = "free text"
        parsed = parse_config(cfg)
        assert parsed["n"] == 5

    def test_seed_override(self):
        cfg = parse_config(make_config(), seed_override=7)
        assert cfg["seed"] == 7
        with pytest.raises(ValueError, match="seed"):
            parse_config(make_config(), seed_override=-1)
        with pytest.raises(ValueError, match="seed"):
            parse_config(make_config(), seed_override=2**64)

    @pytest.mark.parametrize(
        "patch,fragment",
        [
            ({"n": None}, "n"),
            ({"n": 1}, "n"),
            ({"n": 2.5}, "n"),
            ({"n": True}, "n"),
            ({"m": 5}, "m"),
            ({"m": 0}, "m"),
            ({"dt": -0.1}, "dt"),
            ({"eps": 0.0}, "eps"),
            ({"k_max": 0}, "k_max"),
            ({"n_paths": 0}, "n_paths"),
            ({"seed": -1}, "seed"),
            ({"seed": 2**64}, "seed"),
            ({"model": "markov"}, "model"),
            ({"model": None}, "model"),
            ({"activity": None}, "activity"),
            ({"activity": {"mode": "gauss"}}, "activity.mode"),
            ({"activity": {"mode": "explicit", "values": [0.1, 0.2]}}, "values"),
            (
                {"activity": {"mode": "explicit", "values": [0.1, 0.2, 0.3, 0.4, 0.0]}},
                "values",
            ),
            (
                {"activity": {"mode": "explicit", "values": [0.1, 0.2, 0.3, 0.4, 1.5]}},
                "values",
            ),
            (
                {"activity": {"mode": "explicit", "values": [0.1, 0.2, 0.3, 0.4, True]}},
                "values",
            ),
            ({"activity": {"mode": "uniform_draw"}}, "^activity[.]upper:"),
            ({"activity": {"mode": "uniform_draw", "upper": 0.0}}, "^activity[.]upper:"),
            ({"activity": {"mode": "uniform_draw", "upper": 1.5}}, "^activity[.]upper:"),
            ({"z0": {"mode": "explicit", "values": [1.0, 2.0]}}, "z0"),
            ({"z0": {"mode": "gauss"}}, "z0"),
            ({"z0": [1, 2, 3, 4, 5]}, "z0"),
            ({"tie_break": "random"}, "tie_break"),
            ({"activity": {"mode": "uniform_draw", "upper": True}}, "^activity[.]upper:"),
            ({"k_max": DROP}, "^k_max: missing required field"),
            ({"dt": DROP}, "^dt: missing required field"),
            ({"dt": "2"}, "^dt: must be a number"),
            ({"eps": math.nan}, "^eps: must be finite"),
            # integers past the float range are not finite numbers
            ({"dt": 10**400}, "^dt: must be finite"),
            ({"eps": 10**400}, "^eps: must be finite"),
            (
                {"activity": {"mode": "uniform_draw", "upper": 10**400}},
                "^activity[.]upper: must be finite",
            ),
            (
                {"activity": {"mode": "explicit", "values": [0.1, 0.2, 0.3, 0.4, 10**400]}},
                r"^activity[.]values\[4\]: must be finite",
            ),
            (
                {"z0": {"mode": "explicit", "values": [0.1, 0.2, -(10**400), 0.4, 0.5]}},
                r"^z0[.]values\[2\]: must be finite",
            ),
            (
                one_entry_table([1, 2], ["0.25", "0.75"]),
                r"^tie_break[.]entries\[0\][.]weights: must be a number",
            ),
            (
                one_entry_table([1, 2], [True, False]),
                r"^tie_break[.]entries\[0\][.]weights: must be a number",
            ),
            (
                one_entry_table([1.5, 2], [0.5, 0.5]),
                r"^tie_break[.]entries\[0\][.]set: must be an integer",
            ),
            # the dense bounds keep n x n matrices
            ({"n": 10**30}, "^n: must be >= 2 and <= 10000, got "),
            ({"n": 10_001}, "^n: must be >= 2 and <= 10000, got 10001$"),
            # tie_break is exactly "uniform" or a table object
            ({"tie_break": {"mode": "uniform"}}, "^tie_break: must be 'uniform' or a table"),
        ],
    )
    def test_field_validation(self, patch, fragment):
        with pytest.raises(ValueError, match=fragment):
            parse_config(make_config(**patch))

    def test_table_tie_break_parses_to_frozenset_keys(self):
        cfg = make_config(
            n=3,
            m=1,
            activity={"mode": "explicit", "values": [0.5, 0.5, 0.5]},
            tie_break={
                "mode": "table",
                "entries": [
                    {"set": [1, 2], "weights": [0.25, 0.75]},
                    {"set": [1, 3], "weights": [1.0, 0.0]},
                    {"set": [2, 3], "weights": [0.5, 0.5]},
                    {"set": [1, 2, 3], "weights": [0.2, 0.3, 0.5]},
                ],
            },
        )
        parsed = parse_config(cfg)
        rule = parsed["rule"]
        assert rule.table is not None
        assert rule.weights_for(frozenset({1, 2})) == {1: 0.25, 2: 0.75}

    @pytest.mark.parametrize(
        "entries",
        [
            [],
            [{"set": [1, 2], "weights": [0.5]}],
            [{"set": [1, 1], "weights": [0.5, 0.5]}],
            [{"set": [1, 2], "weights": [0.6, 0.6]}],
            [{"set": [1, 2], "weights": [-0.1, 1.1]}],
            ["not an object"],
            [{"set": [1.7, 5], "weights": [0.5, 0.5]}],
            [{"set": [1, 9], "weights": [0.5, 0.5]}],
            [{"set": [1, 2], "weights": [math.nan, 0.5]}],
            [{"set": [1, 2], "weights": [0.5, 0.5]}, {"set": [2, 1], "weights": [1.0, 0.0]}],
        ],
    )
    def test_bad_tables_rejected(self, entries):
        cfg = make_config(tie_break={"mode": "table", "entries": entries})
        with pytest.raises(ValueError, match=r"^tie_break\.entries"):
            parse_config(cfg)


    def test_each_table_entry_checked_once(self, monkeypatch):
        calls = []
        check = adn_model._check_entry
        monkeypatch.setattr(
            adn_model, "_check_entry", lambda s, w: calls.append(s) or check(s, w)
        )
        entries = [
            {"set": [1, 2], "weights": [0.25, 0.75]},
            {"set": [1, 3], "weights": [1.0, 0.0]},
            {"set": [2, 3, 4], "weights": [0.2, 0.3, 0.5]},
        ]
        parse_config(make_config(tie_break={"mode": "table", "entries": entries}))
        assert calls == [frozenset(e["set"]) for e in entries]

    def test_table_error_reaches_stderr_unwrapped(self, tmp_path, capsys):
        entries = [
            {"set": [1, 2], "weights": [0.5, 0.5]},
            {"set": [1, 3], "weights": [0.6, 0.6]},
        ]
        tie_break = {"mode": "table", "entries": entries}
        cfg = write_config(tmp_path, model="fastswitch", tie_break=tie_break)
        assert main(["gamma-fs", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: tie_break.entries[1]: weights for [1, 3] sum to 1.2, not 1\n"


class TestSeededDraws:
    def test_rates_deterministic_and_in_range(self):
        a = draw_activity_rates(100, 0.02, 99)
        b = draw_activity_rates(100, 0.02, 99)
        assert np.array_equal(a, b)
        assert all(0.0 < x <= 0.02 for x in a)
        c = draw_activity_rates(100, 0.02, 100)
        assert not np.array_equal(a, c)

    def test_initial_state_deterministic_and_bounded(self):
        z = draw_initial_state(64, 5)
        assert np.array_equal(z, draw_initial_state(64, 5))
        assert np.all(np.abs(z) <= 1.0)
        assert not np.array_equal(z, draw_initial_state(64, 6))

    def test_rate_and_state_streams_are_decoupled(self):
        # the two draws salt the seed differently, so they must not be
        # scaled copies of the same uniform block
        a = np.array(draw_activity_rates(32, 1.0, 7))
        z = draw_initial_state(32, 7)
        assert not np.allclose(a, (z + 1.0) / 2.0)

    def test_resolve_materializes_draws_into_manifest(self):
        cfg = parse_config(
            make_config(activity={"mode": "uniform_draw", "upper": 0.3})
        )
        params, z0, manifest = resolve_config(cfg)
        assert manifest["activity"]["mode"] == "explicit"
        assert tuple(manifest["activity"]["values"]) == params.a
        assert manifest["z0"]["mode"] == "explicit"
        assert np.array_equal(np.array(manifest["z0"]["values"]), z0)
        assert params.a == tuple(draw_activity_rates(5, 0.3, 42).tolist())


    def test_only_simulate_draws_the_initial_state(self, tmp_path, capsys, monkeypatch):
        # the bounds and validate never read z0, so its draw is left out
        drawn = []
        exact = cli.draw_initial_state
        monkeypatch.setattr(cli, "draw_initial_state", lambda *a: drawn.append(a) or exact(*a))
        cfg = write_config(tmp_path, n_paths=2, z0={"mode": "uniform_draw"})
        for command in ("gamma-sp", "gamma-fs", "validate"):
            assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
        assert drawn == []
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert drawn == [(5, 42)]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["z0"]["values"] == exact(5, 42).tolist()

    def test_unresolved_state_keeps_the_config_z0(self):
        cfg = parse_config(make_config())
        params, z0, manifest = resolve_config(cfg, state=False)
        assert z0 is None and manifest["z0"] == {"mode": "uniform_draw"}
        assert params == resolve_config(cfg)[0]


class TestGammaCommands:
    def test_gamma_sp_exit_zero_and_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["gamma-sp", "--config", cfg, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "gamma_sp = " in out
        lines = (tmp_path / "gamma.csv").read_text().splitlines()
        assert lines[0] == "kind,n,m,dt,rate,weight_sum,lambda_second"
        assert lines[1].startswith("sparse,5,2,")

    def test_gamma_matches_library_value_bitwise(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, activity={"mode": "uniform_draw", "upper": 0.1}, seed=777
        )
        rc = main(["gamma-sp", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        printed = float(out.split("gamma_sp = ")[1].splitlines()[0])
        a = draw_activity_rates(5, 0.1, 777)
        expected = gamma_sp(ModelParams(5, 2, a, 0.5)).rate
        assert printed == expected

    def test_gamma_sp_rejects_supercritical_rate_sum(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, activity={"mode": "explicit", "values": [0.9, 0.8, 0.7, 0.6, 0.5]}
        )
        rc = main(["gamma-sp", "--config", cfg, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "exceeds 1" in err

    def test_gamma_fs_accepts_supercritical_rate_sum(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, activity={"mode": "explicit", "values": [0.9, 0.8, 0.7, 0.6, 0.5]}
        )
        rc = main(["gamma-fs", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        assert "gamma_fs = " in capsys.readouterr().out

    def test_zero_step_width_gives_unit_rate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dt=0.0)
        rc = main(["gamma-sp", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        assert "gamma_sp = 1\n" in capsys.readouterr().out


class TestSimulateCommand:
    def test_minimal_run_writes_grid_valued_curve(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_paths=1, k_max=1)
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fitted_rate = none" in out
        rows = (tmp_path / "survival.csv").read_text().splitlines()
        assert rows[0] == "K,prob,n_paths"
        assert len(rows) == 3
        for k, row in enumerate(rows[1:]):
            fields = row.split(",")
            assert fields[0] == str(k)
            assert float(fields[1]) in (0.0, 1.0)
            assert fields[2] == "1"

    # survival.csv digests of the benchmark inputs at 50, 25 and 10 paths,
    # recorded before the Taylor action took the lone-star rows and its
    # shift: a faster kernel must leave every first passage where it was
    PINNED = {
        ("small10", 50, 2025): "5c1f83a8f2b9ac76090364db9a5735ea1bbeb11dd27a56b6f6194bc823fd8bd3",
        ("small10", 50, 9876543): "cc77d18b6ef55fa8d40df692af570066f950164fe01451d05841b5d893434202",
        ("large50", 25, 2025): "c281c14cf143ed048cde88b1cec4f56e01a0555d4da59c7e13c4b2526a544800",
        ("large50", 25, 9876543): "21fd5019ff1708d96d7462886bdf48e79a6d38dd7351c247a436c0cf9d696af6",
        ("busy", 10, 2025): "da38cad92ecd9e68352c8d71e71538a540a0f0d35b1aa993c32c89f446a79301",
        ("busy", 10, 9876543): "0fe3468169e11823054baacc9a5eafddb6b77e3c6de727bb9b3210d7a78d5ae8",
    }

    @pytest.mark.parametrize("name, n_paths, seed", list(PINNED))
    def test_survival_bytes_are_pinned(self, name, n_paths, seed, tmp_path, capsys):
        cfg = json.loads((INPUTS / f"{name}.json").read_text())
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**cfg, "n_paths": n_paths}))
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path), "--seed", str(seed)]
        assert main(argv) == 0
        capsys.readouterr()
        digest = hashlib.sha256((tmp_path / "survival.csv").read_bytes()).hexdigest()
        assert digest == self.PINNED[name, n_paths, seed]

    # survival.csv digests of the sparse and the fastswitch (table rule)
    # configs at their own path counts: full's draws of the first centre,
    # the activation masks and the neighbours serve these variants too, so
    # a change to their streams shows here as well
    PINNED_VARIANTS = {
        ("validate_small", 2025): "682133089acfa3df7bc969d8c89769fcf63525eea67e1912c1362acac2a09c54",
        ("validate_small", 9876543): "9b4de47a132910dede31859dc3004059cdebb143adea9f141b971fdfb6a3e62e",
        ("fastswitch_table", 2025): "736e63df55101f3b8a05e4c012985951e934cf3b5dc912e070e75aa636d6e6f1",
        ("fastswitch_table", 9876543): "2e19e43471b9b98dc6ce4e2b5df1911270e6f8809c9dd27295aea33c75d55426",
    }

    @pytest.mark.parametrize("name, seed", list(PINNED_VARIANTS))
    def test_variant_survival_bytes_are_pinned(self, name, seed, tmp_path, capsys):
        config = str(CONFIGS / f"{name}.json")
        argv = ["simulate", "--config", config, "--out", str(tmp_path), "--seed", str(seed)]
        assert main(argv) == 0
        capsys.readouterr()
        digest = hashlib.sha256((tmp_path / "survival.csv").read_bytes()).hexdigest()
        assert digest == self.PINNED_VARIANTS[name, seed]

    def test_repeat_run_is_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(a_dir)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(b_dir)]) == 0
        capsys.readouterr()
        assert (a_dir / "survival.csv").read_bytes() == (b_dir / "survival.csv").read_bytes()
        assert (a_dir / "manifest.json").read_bytes() == (b_dir / "manifest.json").read_bytes()

    def test_manifest_replays_byte_identically(self, tmp_path, capsys):
        # the manifest stores the fully resolved config (drawn rates and
        # initial state made explicit); feeding it back as a config must
        # reproduce the curve exactly
        cfg = write_config(
            tmp_path, activity={"mode": "uniform_draw", "upper": 0.15}, seed=31337
        )
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(a_dir)]) == 0
        assert (
            main(
                [
                    "simulate",
                    "--config",
                    str(a_dir / "manifest.json"),
                    "--out",
                    str(b_dir),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (a_dir / "survival.csv").read_bytes() == (b_dir / "survival.csv").read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out_dir), "--seed", "9"]) == 0
        capsys.readouterr()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == 9
        assert manifest["results"]["bound_kind"] == "sparse"

    def test_thread_count_does_not_change_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_paths=40, k_max=12)
        outs = {}
        runs = (("default", []), ("t1", ["--threads", "1"]), ("t3", ["--threads", "3"]))
        for label, extra in runs:
            d = tmp_path / label
            assert main(["simulate", "--config", cfg, "--out", str(d)] + extra) == 0
            outs[label] = (d / "survival.csv").read_bytes()
        capsys.readouterr()
        assert outs["default"] == outs["t1"] == outs["t3"]

    def test_bad_thread_settings_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path), "--threads", "0"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: threads: ")

    def test_k_max_capped_whatever_n_paths(self, tmp_path, capsys):
        assert parse_config(make_config(k_max=cli.K_MAX_LIMIT))["k_max"] == cli.K_MAX_LIMIT
        cfg = write_config(tmp_path, n_paths=1, k_max=cli.K_MAX_LIMIT + 1)
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: k_max: ")
        assert not (tmp_path / "survival.csv").exists()

    def test_step_budget_refused_upfront(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_paths=2_000_000, k_max=2000)
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        assert "budget" in capsys.readouterr().err

    def test_sparse_model_rejects_supercritical_rates(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            activity={"mode": "explicit", "values": [0.5, 0.5, 0.5, 0.5, 0.5]},
        )
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        assert "activity" in capsys.readouterr().err

    def test_bound_refusal_comes_before_any_path(self, tmp_path, capsys, monkeypatch):
        # a table listing only the pairs has no entry for a set of three;
        # the bound visits every activated set, so it refuses the config
        # before any path is drawn
        pairs = itertools.combinations(range(1, 6), 2)
        entries = [{"set": list(s), "weights": [0.5, 0.5]} for s in pairs]
        cfg = write_config(
            tmp_path,
            model="fastswitch",
            k_max=400,
            eps=1e-3,
            activity={"mode": "explicit", "values": [0.01] * 5},
            tie_break={"mode": "table", "entries": entries},
        )

        def no_paths(*args, **kwargs):
            raise AssertionError("run_paths called before the config was refused")

        monkeypatch.setattr(cli, "run_paths", no_paths)
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: tie_break: ")
        assert "[1, 2, 3]" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["gamma-fs", "simulate"])
    def test_table_enumeration_refusal_names_tie_break(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # a table makes the survivor rates an enumeration of all 2**n
        # activation sets, which is refused above n = 20
        cfg = write_config(
            tmp_path,
            n=21,
            model="fastswitch",
            activity={"mode": "explicit", "values": [0.01] * 21},
            **one_entry_table([1, 2], [0.5, 0.5]),
        )

        def no_paths(*args, **kwargs):
            raise AssertionError("run_paths called before the config was refused")

        monkeypatch.setattr(cli, "run_paths", no_paths)
        rc = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: tie_break: ")
        assert "n=21 > 20" in err
        assert not (tmp_path / "o").exists()

    def test_bound_labels_say_what_each_bound_certifies(self, tmp_path, capsys):
        # fastswitch and sparse have one star a period, so their bound is the
        # exact second eigenvalue of their expected kernel at any dt; gamma_sp
        # on a full run only approximates the full model's; the manifest
        # records the kind alone
        cfg = json.loads((CONFIGS / "fastswitch_table.json").read_text())
        runs = {
            "fastswitch": ({**cfg, "dt": 1.0}, "fastswitch", "certified"),
            "full": (make_config(model="full", n_paths=5), "sparse",
                     "the sparse-regime approximation, not a bound"),
        }
        for model, (raw, kind, note) in runs.items():
            path = tmp_path / f"{model}.json"
            path.write_text(json.dumps(raw))
            out = tmp_path / model
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
            lines = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines()
                         if " = " in line)
            rate, label = lines["bound_rate"].split(" ", 1)
            assert label == f"({kind}: {note})"
            results = json.loads((out / "manifest.json").read_text())["results"]
            assert results["bound_kind"] == kind
            assert results["bound_rate"] == float(rate)

    def test_sparse_bound_label_is_the_kind(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_paths=5)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        label = [x for x in lines if x.startswith("bound_rate = ")][0]
        assert label.endswith(" (sparse: certified)")

    def test_huge_dt_takes_the_eigen_solve_route_silently(self, tmp_path, capsys):
        # past dt ~ 1e307 the Taylor plan's step count, then dt * ||L|| itself,
        # overflows; those stacks take expm_sym, whose e**(-t*w) may reach
        # e**-inf = 0 exactly, so the curve is the one at dt = 1e300
        curves = {}
        for dt in (1e300, 1e307, 1e308):
            cfg = write_config(tmp_path, model="full", dt=dt, activity={
                "mode": "explicit", "values": [0.9] * 5,
            })
            out = tmp_path / str(dt)
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            curves[dt] = (out / "survival.csv").read_bytes()
        capsys.readouterr()
        assert curves[1e307] == curves[1e308] == curves[1e300]

    def test_zero_dt_rejected_naming_the_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dt=0)
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: dt: ")


class TestValidateCommand:
    def test_small_config_passes_all_checks(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n=4, m=2, activity={
            "mode": "explicit", "values": [0.05, 0.1, 0.2, 0.15],
        })
        rc = main(["validate", "--config", cfg, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "validate: PASS" in out
        assert out.count("check ") == 5
        assert "FAIL" not in out
        gaps = (tmp_path / "gaps.csv").read_text().splitlines()
        assert gaps[0] == "T,lambda_full,lambda_fastswitch,gap,holds"
        assert len(gaps) == 4
        assert all(row.endswith(",1") for row in gaps[1:])

    @pytest.mark.parametrize("dt", [1e6, 1e10, 1e300])
    def test_passes_at_large_dt(self, tmp_path, capsys, dt):
        # the dense exponentials must not amplify eigh's zero-eigenvalue residue
        cfg = write_config(tmp_path, dt=dt)
        assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "validate: PASS (5 passed, 0 skipped, 0 failed)" in capsys.readouterr().out

    def test_perturbation_is_caught(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, n=4, m=2, activity={
            "mode": "explicit", "values": [0.05, 0.1, 0.2, 0.15],
        })
        exact = validation.activation_expectation

        def perturbed(params, center):
            M = exact(params, center)
            if center == 1:
                M[0, 0] += 1e-6
            return M

        monkeypatch.setattr(validation, "activation_expectation", perturbed)
        rc = main(["validate", "--config", cfg, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "validate: FAIL" in out
        assert "check activation-kernel-vs-subset-average: FAIL" in out

    @pytest.mark.parametrize("kind", ["sparse", "fastswitch"], ids=[
        "gamma_sp-sparse-kernel-vs-enumeration", "gamma_fs-fastswitch-kernel-vs-enumeration",
    ])
    def test_bound_drift_from_dense_reference_is_caught(self, tmp_path, capsys, monkeypatch, kind):
        # gamma_sp and gamma_fs are decay_bound on their kernel weights
        cfg = write_config(tmp_path, n=4, m=2, activity={
            "mode": "explicit", "values": [0.05, 0.1, 0.2, 0.15],
        })
        exact = validation.decay_bound

        def drifted(p, w, k):
            b = exact(p, w, k)
            return dataclasses.replace(b, rate=b.rate + 1e-9) if k == kind else b

        monkeypatch.setattr(validation, "decay_bound", drifted)
        rc = main(["validate", "--config", cfg, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert f"check {kind}-kernel-vs-enumeration: FAIL (max diff 1e-09, tol 1e-10)" in out
        assert "validate: FAIL (4 passed, 0 skipped, 1 failed)" in out

    def test_kernel_weights_computed_once_per_check(self, tmp_path, capsys, monkeypatch):
        # the kernel, the bound and its dense reference share one weight vector
        cfg = write_config(tmp_path, n=4, m=2, activity={
            "mode": "explicit", "values": [0.05, 0.1, 0.2, 0.15],
        })
        calls = []
        for cls in (adn_model.Sparse, adn_model.FastSwitch):
            exact = cls.weights

            def counted(v, exact=exact):
                calls.append(v.name)
                return exact(v)

            monkeypatch.setattr(cls, "weights", counted)
        assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert calls == ["sparse", "fastswitch"]

    def test_certify_input_stdout(self, tmp_path, capsys):
        # the benchmark's validate input, n = 8, m = 3: every check line as
        # printed, so that a change in the order of a sum shows here
        out = tmp_path / "out"
        assert main(["validate", "--config", str(CERTIFY_VALIDATE), "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "check activation-kernel-vs-subset-average: pass (max diff 1.67e-16, tol 1e-10)",
            "check sparse-kernel-vs-enumeration: pass (max diff 2.55e-15, tol 1e-10)",
            "check fastswitch-kernel-vs-enumeration: pass (max diff 4.33e-15, tol 1e-10)",
            "check survivor-rates-quadrature-vs-exhaustive: pass (max diff 8.33e-17, tol 1e-12)",
            "check fastswitch-inequality-grid: pass (min gap 0.00373 over 3 grid points)",
            "validate: PASS (5 passed, 0 skipped, 0 failed)",
            f"wrote {out / 'gaps.csv'}",
        ]

    # the shipped configs' check lines as printed; the probe lines are the
    # same on every config, its model and grid being fixed
    SHIPPED_STDOUT = {
        "validate_small": ("3.33e-16", "3.33e-16", "5.55e-16", "2.78e-17"),
        "fastswitch_table": ("4.44e-16", "4.44e-16", "5.55e-16", "5.55e-17"),
    }
    # gaps.csv, whose 17 digits show a last-bit move that stdout's %.3g hides
    GAPS_SHA256 = "3408730f2871637904b17a7e541fe68a7e8cc2e8b06f699021e909a2d30f6d9f"

    @pytest.mark.parametrize("name", list(SHIPPED_STDOUT))
    def test_shipped_config_stdout_and_gaps(self, name, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["validate", "--config", str(CONFIGS / f"{name}.json"), "--out", str(out)]) == 0
        subset, sparse, fastswitch, rates = self.SHIPPED_STDOUT[name]
        assert capsys.readouterr().out.splitlines() == [
            f"check activation-kernel-vs-subset-average: pass (max diff {subset}, tol 1e-10)",
            f"check sparse-kernel-vs-enumeration: pass (max diff {sparse}, tol 1e-10)",
            f"check fastswitch-kernel-vs-enumeration: pass (max diff {fastswitch}, tol 1e-10)",
            f"check survivor-rates-quadrature-vs-exhaustive: pass (max diff {rates}, tol 1e-12)",
            "check fastswitch-inequality-grid: pass (min gap 0.00373 over 3 grid points)",
            "validate: PASS (5 passed, 0 skipped, 0 failed)",
            f"wrote {out / 'gaps.csv'}",
        ]
        assert hashlib.sha256((out / "gaps.csv").read_bytes()).hexdigest() == self.GAPS_SHA256

    def test_certify_input_eigen_solves(self, tmp_path, capsys, monkeypatch):
        # checks 1-3 share the 1 + 8 * C(7, 3) = 281 one-star graphs, of two
        # shapes (the empty graph and the star K(1, 3)), and check 5's full
        # probe has 51 union graphs, among them the fastswitch probe's 13, of
        # 11 shapes once relabelled by degree: one matrix a shape, in one
        # eigh call for checks 1-3 and one for the probe
        calls = _count_eigh(monkeypatch)
        assert main(["validate", "--config", str(CERTIFY_VALIDATE), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert sum(calls) == 2 + 11
        assert len(calls) <= 2, calls

    def test_refused_checks_decompose_nothing(self, tmp_path, capsys, monkeypatch):
        # large50 refuses checks 1-4 by their sizes: only check 5's probe,
        # its 11 graph shapes, is decomposed, and neither one-star variant's
        # law is folded
        _unfolded_at(monkeypatch, 50)
        calls = _count_eigh(monkeypatch)
        cfg = str(CONFIGS / "large50.json")
        assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "validate: PASS (1 passed, 4 skipped, 0 failed)" in capsys.readouterr().out
        assert sum(calls) == 11

    def test_check_one_alone_takes_only_its_stars(self, tmp_path, capsys, monkeypatch):
        # a rate sum of 4 skips sparse and 1 + 20 * 2**19 rows refuse
        # fastswitch: check 1's 20 * 19 stars, 190 edges (at m = 1 the star
        # (c, {j}) is the star (j, {c})) of one shape, without the empty
        # graph, and check 5's probe's 11 graph shapes
        _unfolded_at(monkeypatch, 20)
        calls = _count_eigh(monkeypatch)
        cfg = write_config(
            tmp_path, n=20, m=1, model="full", activity={"mode": "explicit", "values": [0.2] * 20},
        )
        assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("check activation-kernel-vs-subset-average: pass")
        assert "validate: PASS (2 passed, 3 skipped, 0 failed)" in out
        assert sum(calls) == 1 + 11

    def test_subset_averages_stream(self):
        # n = 40, m = 1: checks 1 and 2 share 1,561 kernels of 40 x 40, 20 MB
        # at once; their pass holds one stack of at most STACK_BYTES, its
        # working copies and one weighted copy
        p = ModelParams(40, 1, (0.02,) * 40, 0.5)
        tracemalloc.start()
        try:
            rows = list(validation._check_rows(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak
        assert rows[0][0] == "activation-kernel-vs-subset-average" and rows[0][2]

    @pytest.mark.parametrize("n, m", [(5, 2), (8, 3), (20, 1)])
    def test_centre_means_match_star_by_star_sums(self, n, m):
        # check 1's rows of the one-star summation against each centre's
        # stars exponentiated one by one and added in order; at n = 20,
        # m = 1 a stack holds 81 graphs, so centres span stacks
        p = ModelParams(n, m, (0.1,) * n, 0.5)
        others = [[j for j in range(1, n + 1) if j != i] for i in range(1, n + 1)]
        C = math.comb(n - 1, m)
        got = validation._one_star_sums(p, [], True, np.array([1.0]))
        assert got.shape == (n, 1, n, n)
        for avg, i, js in zip(got[:, 0], range(1, n + 1), others):
            kernels = (star_laplacian(StarSpec(n, i, N)) for N in itertools.combinations(js, m))
            total = sum(validation.expm_sym(L, 1.0) for L in kernels)
            assert np.max(np.abs(avg - total / C)) <= 1e-13

    def test_oversized_checks_are_refused_not_failed(self, tmp_path, capsys):
        # n=20 pushes the fastswitch enumeration past the branch cap and
        # the survivor-rate oracle past its mask cap; both must refuse
        # (skip) rather than fail, leaving the verdict PASS
        cfg = write_config(
            tmp_path,
            n=20,
            m=1,
            activity={"mode": "explicit", "values": [0.01] * 20},
        )
        rc = main(["validate", "--config", cfg, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("refused: size") == 2
        assert "validate: PASS" in out
        assert "2 skipped" in out

    def test_costly_checks_refused_before_any_work(self, tmp_path, capsys):
        # n = 300, m = 1 passes check 1's count guard with 89,700 star
        # kernels and check 2's branch guard with 89,701 configurations, but
        # each 300 x 300 exponential costs about 300**3: refused at once,
        # as the fastswitch and survivor-rate checks are by their counts
        cfg = write_config(
            tmp_path, n=300, m=1, activity={"mode": "explicit", "values": [0.001] * 300},
        )
        t0 = time.monotonic()
        rc = main(["validate", "--config", cfg, "--out", str(tmp_path)])
        elapsed = time.monotonic() - t0
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[:3] == [
            "check activation-kernel-vs-subset-average: refused: size (89700 kernels of 300 x 300)",
            "check sparse-kernel-vs-enumeration: refused: size (89701 kernels of 300 x 300)",
            "check fastswitch-kernel-vs-enumeration: refused: size "
            f"({1 + 300 * 2**299} branches)",
        ]
        assert "validate: PASS (1 passed, 4 skipped, 0 failed)" in out
        assert elapsed < 1.0, elapsed

    def test_subset_average_refused_and_sparse_skipped(self, tmp_path, capsys):
        # C(19, 10) = 92378 subsets per center refuses check 1, and a rate
        # sum of 2 skips the sparse enumeration
        cfg = write_config(
            tmp_path,
            n=20,
            m=10,
            model="full",
            activity={"mode": "explicit", "values": [0.1] * 20},
        )
        rc = main(["validate", "--config", cfg, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "refused: size (92378 subsets per center)" in out
        assert "skipped (rate sum 2 > 1)" in out
        assert "validate: PASS (1 passed, 4 skipped, 0 failed)" in out


class TestCountSnapshots:
    def test_prints_bare_integer(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = main(["count-snapshots", "--config", cfg])
        out = capsys.readouterr().out
        assert rc == 0
        assert out == f"{snapshot_count(5, 2)}\n"
        assert out == "16807\n"

    def test_huge_counts_print_exactly(self, tmp_path, capsys):
        # (1 + C(199, 100))**200 has 11,732 digits, past the interpreter's
        # default int/str conversion limit of 4,300; 43,000**43,000 has
        # 199,241, just under the 200,000-digit limit
        limit = sys.get_int_max_str_digits()
        for n, m in ((40, 20), (200, 100), (43_000, 1)):
            cfg = write_config(tmp_path, n=n, m=m, n_paths=1)
            rc = main(["count-snapshots", "--config", cfg])
            out = capsys.readouterr().out.strip()
            assert rc == 0
            assert sys.get_int_max_str_digits() == limit
            # parse in 1000-digit chunks so the check itself stays under
            # the conversion limit
            value = 0
            for i in range(0, len(out), 1000):
                chunk = out[i:i + 1000]
                value = value * 10 ** len(chunk) + int(chunk)
            assert value == (1 + math.comb(n - 1, m)) ** n

    def test_oversized_count_refused_naming_n(self, tmp_path, capsys):
        # (1 + C(1999, 1000))**2000 has about 1.2 million digits
        cfg = write_config(tmp_path, n=2000, m=1000, n_paths=1)
        rc = main(["count-snapshots", "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("config error: n: ")

    def test_largest_admitted_n_refused_by_digit_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n=664_385, m=1, n_paths=1)
        rc = main(["count-snapshots", "--config", cfg])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: n: the count for n=664385, ")

    @pytest.mark.parametrize("n", [10**400, 2**1100, 664_386], ids=["10^400", "2^1100", "664386"])
    def test_n_past_digit_limit_refused_by_range(self, tmp_path, capsys, n):
        # the count has at least n * log10(2) digits, over 200,000 for every
        # n above 664,385, including those past the float range
        cfg = write_config(tmp_path, n=n, m=1, n_paths=1)
        rc = main(["count-snapshots", "--config", cfg])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("config error: n: must be >= 2 and <= 664385, got ")


class TestErrorPaths:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["gamma-sp", "--config", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc = main(["gamma-sp", "--config", str(path)])
        assert rc == 2

    def test_non_object_json(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        rc = main(["gamma-sp", "--config", str(path)])
        assert rc == 2

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("gamma-sp", ["--threads", "2"]),
            ("validate", ["--threads", "2"]),
            ("count-snapshots", ["--out", "x"]),
            ("count-snapshots", ["--seed", "1"]),
            ("validate", ["--perturb"]),
        ],
    )
    def test_flags_a_subcommand_does_not_read_are_refused(self, tmp_path, command, flag):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg] + flag)
        assert exc.value.code == 2

    def test_out_naming_a_file_is_an_io_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("")
        rc = main(["gamma-sp", "--config", cfg, "--out", str(taken)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("io error: [Errno 17] File exists")

    def test_integer_literal_past_float_range_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dt=10**400)  # written as a 401-digit literal
        rc = main(["gamma-sp", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: dt: ")

    @pytest.mark.parametrize(
        "text",
        [
            b"\xff" + json.dumps(BASE).encode(),
            # an integer literal past the interpreter's 4,300-digit limit
            json.dumps(BASE).replace('"dt": 0.5', '"dt": ' + "9" * 5001).encode(),
        ],
        ids=["not-utf8", "5001-digit-literal"],
    )
    def test_undecodable_config_named_by_path(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_bytes(text)
        rc = main(["gamma-sp", "--config", str(path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"config error: {path}: not valid JSON (")
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("n", [10**30, 10_001])
    def test_oversized_n_refused_before_any_draw(self, tmp_path, capsys, monkeypatch, n):
        # simulate and validate hold n x n matrices; the bounds have a
        # limit of their own
        cfg = write_config(tmp_path, n=n, activity={"mode": "uniform_draw", "upper": 0.1})

        def no_draw(*args):
            raise AssertionError("activity rates drawn before n was refused")

        monkeypatch.setattr(cli, "draw_activity_rates", no_draw)
        for command in ("simulate", "validate"):
            rc = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: n: must be >= 2 and <= 10000, "), command
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["gamma-sp", "gamma-fs"])
    def test_bounds_refuse_n_above_their_own_limit(self, tmp_path, capsys, monkeypatch, command):
        n = cli.BOUND_N_LIMIT + 1
        cfg = write_config(tmp_path, n=n, activity={"mode": "uniform_draw", "upper": 1e-7})

        def no_draw(*args):
            raise AssertionError("activity rates drawn before n was refused")

        monkeypatch.setattr(cli, "draw_activity_rates", no_draw)
        rc = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: n: must be >= 2 and <= 1000000, got {n}\n"
        assert not (tmp_path / "o").exists()

    def test_bounds_accept_n_past_the_simulate_limit(self, tmp_path, capsys):
        n = cli.N_LIMIT + 1
        cfg = write_config(tmp_path, n=n, activity={"mode": "uniform_draw", "upper": 1.0 / n})
        for command in ("gamma-sp", "gamma-fs"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
            row = (tmp_path / command / "gamma.csv").read_text().splitlines()[1].split(",")
            assert row[1] == str(n) and 0.0 < float(row[4]) < 1.0
        capsys.readouterr()

    def test_invalid_field_reported_on_stderr(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model="markov")
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("config error:")


class TestWrite:
    """``cli._write`` replaces a regular file, unlinking it first, and
    writes through a symlink."""

    def test_longer_file_left_with_exactly_the_new_bytes(self, tmp_path):
        old = tmp_path / "gamma.csv"
        old.write_bytes(b"x" * 4096)
        assert cli._write(str(tmp_path), "gamma.csv", "a,b", "1,2") == str(old)
        assert old.read_bytes() == b"a,b\n1,2\n"

    def test_absent_file_and_directory_created(self, tmp_path):
        out = tmp_path / "new" / "dir"
        path = cli._write(str(out), "gaps.csv", "T")
        assert path == str(out / "gaps.csv")
        assert (out / "gaps.csv").read_bytes() == b"T\n"

    def test_hard_link_keeps_the_old_bytes(self, tmp_path):
        # a new file takes the name; the old one lives on under its other link
        old = tmp_path / "gamma.csv"
        old.write_bytes(b"old\n")
        os.link(old, tmp_path / "kept.csv")
        cli._write(str(tmp_path), "gamma.csv", "new")
        assert old.read_bytes() == b"new\n"
        assert (tmp_path / "kept.csv").read_bytes() == b"old\n"

    def test_symlink_kept_and_its_target_rewritten(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_bytes(b"y" * 4096)
        out = tmp_path / "out"
        out.mkdir()
        (out / "gamma.csv").symlink_to(target)
        cli._write(str(out), "gamma.csv", "new")
        assert (out / "gamma.csv").is_symlink()
        assert os.readlink(out / "gamma.csv") == str(target)
        assert target.read_bytes() == b"new\n"

    def test_directory_at_the_output_path_is_an_io_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        (out / "gamma.csv").mkdir(parents=True)
        assert main(["gamma-sp", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("io error: [Errno 21] Is a directory")
        assert (out / "gamma.csv").is_dir()


class TestExplicitValues:
    # One bad value in an otherwise valid list, and today's message for it,
    # which names its index; z0 has no range, so 0 and 1.5 are valid there.
    BAD = [
        (True, "must be a number, got True"),
        ("0.5", "must be a number, got '0.5'"),
        (math.nan, "must be finite, got nan"),
        (math.inf, "must be finite, got inf"),
        (10**400, "must be finite, got an integer past the float range"),
    ]
    OUT_OF_RANGE = [
        (0, "must be > 0.0 and <= 1.0, got 0.0"),
        (1.5, "must be > 0.0 and <= 1.0, got 1.5"),
    ]

    @staticmethod
    def _message(field: str, values: list) -> str:
        with pytest.raises(ValueError) as exc:
            parse_config(make_config(**{field: {"mode": "explicit", "values": values}}))
        return str(exc.value)

    @pytest.mark.parametrize("k", [0, 3, 4])
    @pytest.mark.parametrize("bad, message", BAD + OUT_OF_RANGE)
    def test_activity_value_named_by_index(self, k, bad, message):
        values = [0.05, 0.1, 0.2, 0.15, 0.08]
        values[k] = bad
        assert self._message("activity", values) == f"activity.values[{k}]: {message}"

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("bad, message", BAD + [(-math.inf, "must be finite, got -inf")])
    def test_z0_value_named_by_index(self, k, bad, message):
        values = [0.0, -1.0, 2.5, 1e300, -3]
        values[k] = bad
        assert self._message("z0", values) == f"z0.values[{k}]: {message}"

    def test_first_bad_value_is_named(self):
        values = [0.05, "x", 0.2, 2.0, True]
        assert self._message("activity", values) == "activity.values[1]: must be a number, got 'x'"

    def test_integers_and_edges_become_floats(self):
        cfg = parse_config(make_config(
            activity={"mode": "explicit", "values": [1, 5e-324, 1.0, 0.5, 2**-1074]},
            z0={"mode": "explicit", "values": [-0.0, 0, 2**1000, -(2**63) - 1, 7]},
        ))
        assert repr(cfg["activity"]["values"]) == repr((1.0, 5e-324, 1.0, 0.5, 5e-324))
        assert repr(cfg["z0"]["values"]) == repr((-0.0, 0.0, 2.0**1000, -(2.0**63), 7.0))

    @given(
        st.sampled_from([("activity", (0.0, 1.0), {"lo_open": True}), ("z0", (-math.inf,), {})]),
        st.one_of(
            # mostly numbers in range, which the array check takes alone
            st.lists(st.floats(0.0, 1.0) | st.integers(0, 1), min_size=5, max_size=5),
            st.lists(
                st.floats()
                | st.integers(-(2**1100), 2**1100)
                | st.booleans()
                | st.text(max_size=2)
                | st.none(),
                min_size=5,
                max_size=5,
            ),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_check_one_value_at_a_time(self, field, values):
        name, bounds, kw = field
        try:
            ref = repr(tuple(
                cli._number(v, f"{name}.values[{k}]", *bounds, **kw) for k, v in enumerate(values)
            ))
        except ValueError as exc:
            ref = str(exc)
        try:
            cfg = parse_config(make_config(**{name: {"mode": "explicit", "values": values}}))
            got = repr(cfg[name]["values"])
        except ValueError as exc:
            got = str(exc)
        assert got == ref


class TestSurvivalRows:
    @given(st.integers(1, 10**9).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n), min_size=1, max_size=60))
    ))
    @settings(max_examples=200, deadline=None)
    def test_rows_match_formatting_each_row(self, case):
        # any counts in 0..n_paths, in any order, as run_paths divides them
        n, counts = case
        curve = SurvivalCurve(eps=0.1, probs=np.array(counts) / float(n), paths=n)
        expected = [f"{k},{cli._fmt(p)},{n}" for k, p in enumerate(curve.probs)]
        assert cli._survival_body(curve) == "\n".join(expected)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_curves_match_formatting_each_row(self, data):
        # non-increasing path counts as run_paths gives them, k_max 1-2000 and
        # n_paths 1-300: every row one value, every row its own, or any runs
        k_max, n = data.draw(st.integers(1, 2000)), data.draw(st.integers(1, 300))
        shape = data.draw(st.sampled_from(["equal", "distinct", "runs"]))
        if shape == "equal":
            counts = [data.draw(st.integers(0, n))] * (k_max + 1)
        elif shape == "distinct":
            top = data.draw(st.integers(min(k_max, n), n))
            counts = list(range(top, top - min(k_max + 1, top + 1), -1))
            counts += [counts[-1]] * (k_max + 1 - len(counts))  # past n + 1 rows, a last run
        else:
            drops = np.sort(data.draw(st.lists(st.integers(0, k_max + 1), max_size=n)))
            counts = n - np.searchsorted(drops, np.arange(k_max + 1), side="right")
        curve = SurvivalCurve(eps=0.1, probs=np.array(counts) / float(n), paths=n)
        expected = "".join(f"{k},{cli._fmt(p)},{n}\n" for k, p in enumerate(curve.probs))
        assert cli._survival_body(curve) + "\n" == expected


class TestRepeatedCalls:
    SRC = str(Path(cli.__file__).resolve().parents[1])
    ARGVS = [
        ["gamma-sp", "--config", "cfg.json", "--out", "out/gamma-sp"],
        ["gamma-fs", "--config", "cfg.json", "--out", "out/gamma-fs", "--seed", "3"],
        ["simulate", "--config", "cfg.json", "--out", "out/simulate", "--threads", "1"],
        ["validate", "--config", "cfg.json", "--out", "out/validate"],
        ["count-snapshots", "--config", "cfg.json"],
    ]

    @staticmethod
    def _files(root: Path) -> dict:
        return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_in_process_calls_match_fresh_processes(self, tmp_path, capsys, monkeypatch):
        fresh, here = tmp_path / "fresh", tmp_path / "here"
        for d in (fresh, here):
            d.mkdir()
            write_config(d, k_max=60, z0={"mode": "explicit", "values": [1, -1, 0.5, 0, 0.25]})
        env = {**os.environ, "PYTHONPATH": self.SRC}
        expected = [
            subprocess.run(
                [sys.executable, "-m", "adn_consensus.cli", *argv],
                cwd=fresh, env=env, capture_output=True, text=True, check=True, timeout=120,
            ).stdout
            for argv in self.ARGVS
        ]
        monkeypatch.chdir(here)
        write_config(here, "bad.json", model="markov")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--out", "out"])  # no --config: an argparse error
        assert exc.value.code == 2
        assert main(["simulate", "--config", "bad.json", "--out", "out/bad"]) == 2
        capsys.readouterr()
        for _ in range(2):
            got = []
            for argv in self.ARGVS:
                assert main(argv) == 0
                got.append(capsys.readouterr().out)
            assert got == expected
            assert self._files(here / "out") == self._files(fresh / "out")
