import dataclasses
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from adn_consensus import ModelParams, adn_model, cli, gamma_sp, snapshot_count, spectral
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

# A make_config override that removes the field.
DROP = object()


def make_config(**overrides):
    cfg = json.loads(json.dumps(BASE))
    cfg.update(overrides)
    return {k: v for k, v in cfg.items() if v is not DROP}


def one_entry_table(nodes, weights):
    """A make_config override: a tie-break table of one entry."""
    return {"tie_break": {"mode": "table", "entries": [{"set": nodes, "weights": weights}]}}


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
        assert a == b
        assert all(0.0 < x <= 0.02 for x in a)
        c = draw_activity_rates(100, 0.02, 100)
        assert a != c

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
        assert params.a == draw_activity_rates(5, 0.3, 42)


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
        exact = cli.activation_expectation

        def perturbed(params, center):
            M = exact(params, center)
            if center == 1:
                M[0, 0] += 1e-6
            return M

        monkeypatch.setattr(cli, "activation_expectation", perturbed)
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
        exact = cli.decay_bound

        def drifted(p, w, k):
            b = exact(p, w, k)
            return dataclasses.replace(b, rate=b.rate + 1e-9) if k == kind else b

        monkeypatch.setattr(cli, "decay_bound", drifted)
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
        exact = spectral.kernel_weights

        def counted(v):
            calls.append(v.name)
            return exact(v)

        for module in (cli, spectral):
            monkeypatch.setattr(module, "kernel_weights", counted)
        assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert calls == ["sparse", "fastswitch"]

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
        cfg = write_config(tmp_path, n=n, activity={"mode": "uniform_draw", "upper": 0.1})

        def no_draw(*args):
            raise AssertionError("activity rates drawn before n was refused")

        monkeypatch.setattr(cli, "draw_activity_rates", no_draw)
        rc = main(["gamma-sp", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: n: must be >= 2 and <= 10000, ")
        assert not (tmp_path / "o").exists()

    def test_invalid_field_reported_on_stderr(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model="markov")
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("config error:")
