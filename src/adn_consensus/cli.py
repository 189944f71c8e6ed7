"""Command-line front end for the consensus-decay experiments.

Subcommands: gamma-sp and gamma-fs evaluate the certified decay-rate
bounds; simulate runs the Monte Carlo survival-curve experiment and emits
a CSV plus a replayable JSON manifest; validate runs the enumeration
oracle suites and the fast-switching eigenvalue probe; count-snapshots
prints the exact number of distinct snapshot graphs.

Exit codes: 0 success, 1 validation breach, 2 config error. CSV output is
plain decimal with 17 significant digits, locale independent, newline
terminated. A simulate manifest contains the fully resolved config (drawn
activity rates and initial state included), so feeding the manifest back
as --config reproduces the CSV byte for byte.
"""

import argparse
import json
import math
import os
import sys
from itertools import combinations

import numpy as np

from .adn_model import (
    ModelParams,
    TieBreakRule,
    UNIFORM_TIE_BREAK,
    snapshot_count,
)
from .closed_form import activation_expectation, weighted_expected_exponential
from .graph_core import StarSpec, expm_sym, star_laplacian
from .mc_sim import fit_decay_stats, run_paths
from .spectral import enumerated_survivor_rates, gamma_fs, gamma_sp, survivor_rates
from .validation import (
    MAX_BRANCHES,
    enumerate_expected_exponential,
    enumeration_size,
    verify_fast_switch_inequality,
)

U64 = 2**64

# Stream salts keep the rate draw and the initial-state draw off the
# per-path streams (which use seed ^ path_index with small indices).
RATE_STREAM_SALT = 0x9E3779B97F4A7C15
STATE_STREAM_SALT = 0xD1B54A32D192ED03

STEP_BUDGET = 2_000_000_000


class ConfigError(Exception):
    """Raised for malformed or infeasible configuration input."""


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return raw


def _as_int(raw: dict, key: str, lo: int, hi: int | None = None) -> int:
    if key not in raw:
        raise ConfigError(f"{key}: missing required field")
    v = raw[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{key}: must be an integer, got {v!r}")
    if v < lo or (hi is not None and v > hi):
        top = f" and <= {hi}" if hi is not None else ""
        raise ConfigError(f"{key}: must be >= {lo}{top}, got {v}")
    return v


def _as_real(raw: dict, key: str, lo: float, lo_open: bool = False) -> float:
    if key not in raw:
        raise ConfigError(f"{key}: missing required field")
    v = raw[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{key}: must be a number, got {v!r}")
    v = float(v)
    if not math.isfinite(v):
        raise ConfigError(f"{key}: must be finite, got {v}")
    if v < lo or (lo_open and v == lo):
        op = ">" if lo_open else ">="
        raise ConfigError(f"{key}: must be {op} {lo}, got {v}")
    return v


def _explicit_values(spec: dict, field: str, n: int, ok, need: str) -> dict:
    """An explicit list of n numbers, each passing ``ok``."""
    values = spec.get("values")
    if not isinstance(values, list) or len(values) != n:
        raise ConfigError(f"{field}.values: need a list of {n} numbers")
    for k, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{field}.values[{k}]: must be a number, got {v!r}")
        if not ok(float(v)):
            raise ConfigError(f"{field}.values[{k}]: must {need}, got {v}")
    return {"mode": "explicit", "values": tuple(float(v) for v in values)}


def _parse_activity(raw: dict, n: int) -> dict:
    spec = raw.get("activity")
    if not isinstance(spec, dict):
        raise ConfigError("activity: missing or not an object")
    mode = spec.get("mode")
    if mode == "explicit":
        return _explicit_values(spec, "activity", n, lambda v: 0.0 < v <= 1.0, "lie in (0, 1]")
    if mode == "uniform_draw":
        upper = _as_real(spec, "upper", 0.0, lo_open=True)
        if upper > 1.0:
            raise ConfigError(f"activity.upper: must be <= 1, got {upper}")
        return {"mode": "uniform_draw", "upper": upper}
    raise ConfigError(f"activity.mode: must be 'explicit' or 'uniform_draw', got {mode!r}")


def _parse_z0(raw: dict, n: int) -> dict:
    spec = raw.get("z0", {"mode": "uniform_draw"})
    if not isinstance(spec, dict):
        raise ConfigError("z0: must be an object")
    mode = spec.get("mode")
    if mode == "uniform_draw":
        return {"mode": "uniform_draw"}
    if mode == "explicit":
        return _explicit_values(spec, "z0", n, math.isfinite, "be finite")
    raise ConfigError(f"z0.mode: must be 'explicit' or 'uniform_draw', got {mode!r}")


def _parse_n_m(raw: dict) -> tuple:
    n = _as_int(raw, "n", 2)
    m = _as_int(raw, "m", 1)
    if m > n - 1:
        raise ConfigError(f"m: need 1 <= m <= n-1, got m={m} with n={n}")
    return n, m


def _parse_tie_break(raw: dict, n: int):
    spec = raw.get("tie_break", "uniform")
    if spec == "uniform" or spec == {"mode": "uniform"}:
        return UNIFORM_TIE_BREAK, "uniform"
    if isinstance(spec, dict) and spec.get("mode") == "table":
        entries = spec.get("entries")
        if not isinstance(entries, list) or not entries:
            raise ConfigError("tie_break.entries: table mode needs a nonempty list")
        table = {}
        for k, ent in enumerate(entries):
            path = f"tie_break.entries[{k}]"
            if not isinstance(ent, dict):
                raise ConfigError(f"{path}: must be an object")
            nodes = ent.get("set")
            ws = ent.get("weights")
            if (
                not isinstance(nodes, list)
                or not isinstance(ws, list)
                or len(nodes) != len(ws)
            ):
                raise ConfigError(
                    f"{path}: need 'set' and 'weights' lists of equal length"
                )
            for x in nodes:
                if isinstance(x, bool) or not isinstance(x, int) or not (1 <= x <= n):
                    raise ConfigError(
                        f"{path}.set: node ids must be integers in 1..{n}, got {x!r}"
                    )
            key = frozenset(nodes)
            if len(key) != len(nodes):
                raise ConfigError(f"{path}.set: repeated node id")
            if key in table:
                raise ConfigError(f"{path}.set: {sorted(key)} is listed twice")
            try:
                weights = {i: float(w) for i, w in zip(nodes, ws)}
                TieBreakRule.check_entry(key, weights)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{path}: {exc}") from exc
            table[key] = weights
        return TieBreakRule("table", table), spec
    raise ConfigError(f"tie_break: must be 'uniform' or a table object, got {spec!r}")


def parse_config(raw: dict, seed_override: int | None = None) -> dict:
    """Validate a raw JSON config dict; unknown keys (such as a manifest's
    'results' block) are ignored so manifests replay as configs."""
    n, m = _parse_n_m(raw)
    dt = _as_real(raw, "dt", 0.0)
    eps = _as_real(raw, "eps", 0.0, lo_open=True)
    k_max = _as_int(raw, "k_max", 1)
    n_paths = _as_int(raw, "n_paths", 1)
    if seed_override is not None:
        if not (0 <= seed_override < U64):
            raise ConfigError(f"seed: must be an unsigned 64-bit value, got {seed_override}")
        seed = seed_override
    else:
        seed = _as_int(raw, "seed", 0, U64 - 1)
    model = raw.get("model")
    if model not in ("full", "sparse", "fastswitch"):
        raise ConfigError(
            f"model: must be 'full', 'sparse' or 'fastswitch', got {model!r}"
        )
    rule, rule_json = _parse_tie_break(raw, n)
    return {
        "n": n,
        "m": m,
        "dt": dt,
        "eps": eps,
        "k_max": k_max,
        "n_paths": n_paths,
        "seed": seed,
        "model": model,
        "activity": _parse_activity(raw, n),
        "z0": _parse_z0(raw, n),
        "rule": rule,
        "tie_break_json": rule_json,
    }


def draw_activity_rates(n: int, upper: float, seed: int) -> tuple:
    """Seeded U[0, upper] draw of n rates, clamped away from exact zero so
    the open-interval rate constraint cannot be tripped by a measure-zero
    draw."""
    rng = np.random.default_rng(seed ^ RATE_STREAM_SALT)
    vals = rng.uniform(0.0, upper, n)
    return tuple(max(float(v), 1e-300) for v in vals)


def draw_initial_state(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed ^ STATE_STREAM_SALT)
    return rng.uniform(-1.0, 1.0, n)


def resolve_config(cfg: dict):
    """Materialize (params, rule, z0, manifest_config) from a parsed config.
    Drawn quantities are resolved here, once, from the run seed."""
    if cfg["activity"]["mode"] == "explicit":
        a = cfg["activity"]["values"]
    else:
        a = draw_activity_rates(cfg["n"], cfg["activity"]["upper"], cfg["seed"])
    try:
        params = ModelParams(cfg["n"], cfg["m"], a, cfg["dt"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg["z0"]["mode"] == "explicit":
        z0 = np.asarray(cfg["z0"]["values"], dtype=float)
    else:
        z0 = draw_initial_state(cfg["n"], cfg["seed"])
    manifest_config = {
        "n": cfg["n"],
        "m": cfg["m"],
        "dt": cfg["dt"],
        "eps": cfg["eps"],
        "k_max": cfg["k_max"],
        "n_paths": cfg["n_paths"],
        "seed": cfg["seed"],
        "model": cfg["model"],
        "activity": {"mode": "explicit", "values": [float(x) for x in params.a]},
        "z0": {"mode": "explicit", "values": [float(x) for x in z0]},
        "tie_break": cfg["tie_break_json"],
    }
    return params, cfg["rule"], z0, manifest_config


def _resolve_threads(args) -> int:
    if args.threads is not None:
        k = args.threads
    else:
        env = os.environ.get("ADN_THREADS")
        if env is None:
            return 1
        try:
            k = int(env)
        except ValueError:
            raise ConfigError(f"ADN_THREADS: not an integer: {env!r}") from None
    if k < 1:
        raise ConfigError(f"threads: need >= 1, got {k}")
    return k


def _out_dir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_gamma(args) -> int:
    cfg = parse_config(_load_json(args.config), args.seed)
    params, rule, _, _ = resolve_config(cfg)
    if args.command == "gamma-sp":
        bound = gamma_sp(params)
    else:
        bound = gamma_fs(params, rule)
    print(f"{args.command.replace('-', '_')} = {_fmt(bound.rate)}")
    print(f"weight_sum = {_fmt(bound.weight_sum)}")
    print(f"lambda_second = {_fmt(bound.lambda_second)}")
    path = os.path.join(_out_dir(args), "gamma.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("kind,n,m,dt,rate,weight_sum,lambda_second\n")
        fh.write(
            ",".join(
                [
                    bound.kind,
                    str(params.n),
                    str(params.m),
                    _fmt(params.dt),
                    _fmt(bound.rate),
                    _fmt(bound.weight_sum),
                    _fmt(bound.lambda_second),
                ]
            )
            + "\n"
        )
    print(f"wrote {path}")
    return 0


def _bound_for(params: ModelParams, model: str, rule: TieBreakRule):
    """The theoretical decay bound matching a simulated model, when one
    applies: the sparse-regime bound covers full/sparse runs with rate sum
    <= 1, the fast-switching bound covers fastswitch runs."""
    if model == "fastswitch":
        return gamma_fs(params, rule)
    if params.rate_sum <= 1.0:
        return gamma_sp(params)
    return None


def cmd_simulate(args) -> int:
    cfg = parse_config(_load_json(args.config), args.seed)
    budget = cfg["n_paths"] * cfg["k_max"]
    if budget > STEP_BUDGET:
        raise ConfigError(
            f"n_paths*k_max = {budget} steps exceeds the {STEP_BUDGET} budget; "
            "refusing before any computation"
        )
    params, rule, z0, manifest = resolve_config(cfg)
    threads = _resolve_threads(args)
    curve = run_paths(
        params,
        cfg["model"],
        rule,
        z0,
        cfg["k_max"],
        cfg["n_paths"],
        cfg["eps"],
        cfg["seed"],
        n_jobs=threads,
    )
    try:
        fit = fit_decay_stats(curve)
    except ValueError:
        fit = None
    bound = _bound_for(params, cfg["model"], rule)
    out = _out_dir(args)
    csv_path = os.path.join(out, "survival.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("K,prob,n_paths\n")
        for k, prob in enumerate(curve.probs):
            fh.write(f"{k},{_fmt(prob)},{curve.paths}\n")
    manifest["results"] = {
        "fitted_rate": fit.rate if fit is not None else None,
        "fit_r_squared": fit.r_squared if fit is not None else None,
        "fit_points": fit.n_points if fit is not None else None,
        "bound_kind": bound.kind if bound is not None else None,
        "bound_rate": bound.rate if bound is not None else None,
        "bound_lambda_second": bound.lambda_second if bound is not None else None,
        "bound_weight_sum": bound.weight_sum if bound is not None else None,
    }
    man_path = os.path.join(out, "manifest.json")
    with open(man_path, "w", encoding="utf-8", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"paths = {curve.paths}")
    print(f"prob_start = {_fmt(curve.probs[0])}")
    print(f"fitted_rate = {_fmt(fit.rate) if fit is not None else 'none'}")
    if bound is not None:
        print(f"bound_rate = {_fmt(bound.rate)} ({bound.kind})")
    print(f"wrote {csv_path}")
    print(f"wrote {man_path}")
    return 0


def _max_diff(a, b) -> float:
    return float(np.max(np.abs(a - b)))


def cmd_validate(args) -> int:
    cfg = parse_config(_load_json(args.config), args.seed)
    params, rule, _, _ = resolve_config(cfg)
    lines = []
    tally = {True: 0, None: 0, False: 0}

    def record(name: str, detail: str, ok: bool | None):
        tally[ok] += 1
        if ok is not None:
            detail = f"{'pass' if ok else 'FAIL'} ({detail})"
        lines.append(f"check {name}: {detail}")

    # 1. Per-activation closed form against the plain subset average.
    name = "activation-kernel-vs-subset-average"
    C = math.comb(params.n - 1, params.m)
    if C * params.n > 200_000:
        record(name, f"refused: size ({C} subsets per center)", None)
    else:
        T = 2.0 * params.dt
        worst = 0.0
        for i in range(1, params.n + 1):
            others = [j for j in range(1, params.n + 1) if j != i]
            acc = np.zeros((params.n, params.n))
            for N in combinations(others, params.m):
                acc += expm_sym(star_laplacian(StarSpec(params.n, i, N)), T)
            acc /= C
            worst = max(worst, _max_diff(acc, activation_expectation(params, i)))
        record(name, f"max diff {worst:.3g}, tol 1e-10", worst <= 1e-10)

    # 2-3. Sparse and fast-switching expected kernels against exact
    #      enumeration.
    for model in ("sparse", "fastswitch"):
        name = f"{model}-kernel-vs-enumeration"
        size = enumeration_size(params, model)
        if model == "sparse" and params.rate_sum > 1.0:
            record(name, f"skipped (rate sum {params.rate_sum:.3g} > 1)", None)
        elif size > MAX_BRANCHES:
            record(name, f"refused: size ({size} branches)", None)
        else:
            weights = params.a if model == "sparse" else survivor_rates(params, rule)
            diff = _max_diff(
                weighted_expected_exponential(params, weights),
                enumerate_expected_exponential(params, model, rule),
            )
            record(name, f"max diff {diff:.3g}, tol 1e-10", diff <= 1e-10)

    # 4. Survivor-rate recurrence against exhaustive enumeration of the
    #    activation sets, both under the uniform rule.
    name = "survivor-rates-dp-vs-exhaustive"
    if params.n > 12:
        record(name, f"refused: size (2**{params.n} activation sets)", None)
    else:
        diff = _max_diff(
            survivor_rates(params, UNIFORM_TIE_BREAK),
            enumerated_survivor_rates(params, UNIFORM_TIE_BREAK),
        )
        record(name, f"max diff {diff:.3g}, tol 1e-12", diff <= 1e-12)

    # 5. Fast-switching eigenvalue inequality on the small-T grid, with a
    #    per-T gap CSV for plotting.
    name = "fastswitch-inequality-grid"
    probe = ModelParams(4, 2, (0.35, 0.2, 0.5, 0.15), 0.5)
    report = verify_fast_switch_inequality(probe, UNIFORM_TIE_BREAK, (0.01, 0.05, 0.1))
    gaps_path = os.path.join(_out_dir(args), "gaps.csv")
    with open(gaps_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("T,lambda_full,lambda_fastswitch,gap,holds\n")
        for s in report.samples:
            fh.write(
                f"{_fmt(s.T)},{_fmt(s.lambda_full)},{_fmt(s.lambda_fastswitch)},"
                f"{_fmt(s.gap)},{1 if s.holds else 0}\n"
            )
    min_gap = min(s.gap for s in report.samples)
    record(name, f"min gap {min_gap:.3g} over 3 grid points", report.holds_all)

    for line in lines:
        print(line)
    passes, skips, failures = tally[True], tally[None], tally[False]
    verdict = "PASS" if failures == 0 else "FAIL"
    print(f"validate: {verdict} ({passes} passed, {skips} skipped, {failures} failed)")
    print(f"wrote {gaps_path}")
    return 1 if failures else 0


def cmd_count_snapshots(args) -> int:
    print(snapshot_count(*_parse_n_m(_load_json(args.config))))
    return 0


# Flags beyond --config; each subcommand takes only those it reads.
FLAGS = {
    "--out": {"default": ".", "help": "directory for CSV/manifest output"},
    "--seed": {"type": int, "default": None, "help": "override the config seed"},
    "--threads": {
        "type": int,
        "default": None,
        "help": "worker processes (default: ADN_THREADS env var, else 1)",
    },
}

# Subcommand -> (handler, help, flags). The handlers look the library
# functions up in this module's globals when they run, so rebinding a
# module attribute such as ``gamma_sp`` (as perfbench/spans.py does to
# trace the layers) reaches every call.
COMMANDS = {
    "gamma-sp": (cmd_gamma, "evaluate the sparse-regime decay bound", ("--out", "--seed")),
    "gamma-fs": (cmd_gamma, "evaluate the fast-switching decay bound", ("--out", "--seed")),
    "simulate": (
        cmd_simulate,
        "run the Monte Carlo survival-curve experiment",
        ("--out", "--seed", "--threads"),
    ),
    "validate": (cmd_validate, "run the enumeration oracle suites", ("--out", "--seed")),
    "count-snapshots": (
        cmd_count_snapshots,
        "print the exact number of distinct snapshots",
        (),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adn",
        description=(
            "Consensus decay on activity-driven temporal networks: "
            "certified bounds, Monte Carlo survival curves, oracle validation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_, help_text, flags) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to a JSON config file")
        for flag in flags:
            sp.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][0](args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
