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
# simulate writes k_max + 1 survival rows whatever n_paths is.
K_MAX_LIMIT = 10**6
# Printing the exact snapshot count is quadratic in its digit count.
COUNT_DIGITS_LIMIT = 200_000


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
    """Validate a raw JSON config dict into the form a manifest records,
    plus the parsed tie-break ``rule``. ``seed_override`` replaces the
    config's seed before validation. Unknown keys (such as a manifest's
    'results' block) are ignored so manifests replay as configs."""
    if seed_override is not None:
        raw = {**raw, "seed": seed_override}
    n, m = _parse_n_m(raw)
    cfg = {
        "n": n,
        "m": m,
        "dt": _as_real(raw, "dt", 0.0),
        "eps": _as_real(raw, "eps", 0.0, lo_open=True),
        "k_max": _as_int(raw, "k_max", 1, K_MAX_LIMIT),
        "n_paths": _as_int(raw, "n_paths", 1),
        "seed": _as_int(raw, "seed", 0, U64 - 1),
        "model": raw.get("model"),
    }
    if cfg["model"] not in ("full", "sparse", "fastswitch"):
        raise ConfigError(
            f"model: must be 'full', 'sparse' or 'fastswitch', got {cfg['model']!r}"
        )
    cfg["rule"], cfg["tie_break"] = _parse_tie_break(raw, n)
    cfg["activity"] = _parse_activity(raw, n)
    cfg["z0"] = _parse_z0(raw, n)
    return cfg


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
    params = ModelParams(cfg["n"], cfg["m"], a, cfg["dt"])
    if cfg["z0"]["mode"] == "explicit":
        z0 = np.asarray(cfg["z0"]["values"], dtype=float)
    else:
        z0 = draw_initial_state(cfg["n"], cfg["seed"])
    manifest_config = {k: v for k, v in cfg.items() if k != "rule"}
    manifest_config["activity"] = {"mode": "explicit", "values": [float(x) for x in params.a]}
    manifest_config["z0"] = {"mode": "explicit", "values": [float(x) for x in z0]}
    return params, cfg["rule"], z0, manifest_config


def _write_csv(out: str, name: str, header: str, rows) -> str:
    """Write the header and the rows (lines without their newline) to
    ``name`` in directory ``out``, creating it; return the path."""
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join([header, *rows]) + "\n")
    return path


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
    row = [bound.kind, str(params.n), str(params.m)]
    row += [_fmt(x) for x in (params.dt, bound.rate, bound.weight_sum, bound.lambda_second)]
    header = "kind,n,m,dt,rate,weight_sum,lambda_second"
    path = _write_csv(args.out, "gamma.csv", header, [",".join(row)])
    print(f"wrote {path}")
    return 0


def _bound_for(params: ModelParams, model: str, rule: TieBreakRule):
    """The theoretical decay bound matching a simulated model, when one
    applies: the sparse-regime bound covers full/sparse runs with rate sum
    <= 1, the fast-switching bound covers fastswitch runs."""
    if model == "fastswitch":
        return gamma_fs(params, rule)
    if params.sparse_regime:
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
    if args.threads < 1:
        raise ConfigError(f"threads: need >= 1, got {args.threads}")
    curve = run_paths(
        params,
        cfg["model"],
        rule,
        z0,
        cfg["k_max"],
        cfg["n_paths"],
        cfg["eps"],
        cfg["seed"],
        n_jobs=args.threads,
    )
    try:
        fit = fit_decay_stats(curve)
    except ValueError:
        fit = None
    bound = _bound_for(params, cfg["model"], rule)
    csv_path = _write_csv(
        args.out,
        "survival.csv",
        "K,prob,n_paths",
        [f"{k},{_fmt(prob)},{curve.paths}" for k, prob in enumerate(curve.probs)],
    )
    manifest["results"] = {
        "fitted_rate": fit.rate if fit is not None else None,
        "fit_r_squared": fit.r_squared if fit is not None else None,
        "fit_points": fit.n_points if fit is not None else None,
        "bound_kind": bound.kind if bound is not None else None,
        "bound_rate": bound.rate if bound is not None else None,
        "bound_lambda_second": bound.lambda_second if bound is not None else None,
        "bound_weight_sum": bound.weight_sum if bound is not None else None,
    }
    man_path = os.path.join(args.out, "manifest.json")
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
        size = enumeration_size(params, model, rule)
        if model == "sparse" and not params.sparse_regime:
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
    gaps_path = _write_csv(
        args.out,
        "gaps.csv",
        "T,lambda_full,lambda_fastswitch,gap,holds",
        [
            f"{_fmt(s.T)},{_fmt(s.lambda_full)},{_fmt(s.lambda_fastswitch)},"
            f"{_fmt(s.gap)},{1 if s.holds else 0}"
            for s in report.samples
        ],
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
    # Decimal prints the exact count past str(int)'s digit limit. Imported
    # here so that other commands do not pay its 0.4 MB of peak memory.
    from decimal import Decimal

    n, m = _parse_n_m(_load_json(args.config))
    log_c = math.lgamma(n) - math.lgamma(m + 1) - math.lgamma(n - m)  # ln C(n-1, m)
    digits = n * (log_c + math.log1p(math.exp(-log_c))) / math.log(10)
    if digits > COUNT_DIGITS_LIMIT:
        raise ConfigError(
            f"n: the count for n={n}, m={m} has about {digits:.3g} digits, "
            f"over the {COUNT_DIGITS_LIMIT} limit"
        )
    print(format(Decimal(snapshot_count(n, m)), "f"))
    return 0


# Flags beyond --config; each subcommand takes only those it reads.
FLAGS = {
    "--out": {"default": ".", "help": "directory for CSV/manifest output"},
    "--seed": {"type": int, "default": None, "help": "override the config seed"},
    "--threads": {"type": int, "default": 1, "help": "worker processes (default 1)"},
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
