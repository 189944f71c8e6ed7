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
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .adn_model import (
    RATES,
    STATE,
    UNIFORM_TIE_BREAK,
    VARIANTS,
    FastSwitch,
    ModelParams,
    Sparse,
    TieBreakRule,
    Variant,
    center_star_table,
    snapshot_count,
    stream,
)
from .closed_form import activation_expectation
from .graph_core import expm_sym, stacks, star_union_laplacians
from .mc_sim import fit_decay_stats, run_paths
from .spectral import (
    decay_bound,
    dense_bound,
    enumerated_survivor_rates,
    gamma_fs,
    gamma_sp,
    kernel_weights,
    survivor_rates,
    weighted_expected_exponential,
)
from .validation import MAX_BRANCHES, enumerate_expected_exponential, verify_fast_switch_inequality

U64 = 2**64

STEP_BUDGET = 2_000_000_000
# simulate writes k_max + 1 survival rows whatever n_paths is.
K_MAX_LIMIT = 10**6
# Printing the exact snapshot count is quadratic in its digit count.
COUNT_DIGITS_LIMIT = 200_000
# The bounds read one n x n float64 activation kernel, 800 MB at this n;
# everything else they hold is an n-vector.
N_LIMIT = 10_000


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # bad syntax or UTF-8, or an integer literal over the digit limit
        reason = str(exc).partition("; use sys.set_int_max_str_digits()")[0]
        raise ValueError(f"{path}: not valid JSON ({reason})") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    return raw


def _number(v, name: str, lo, hi=math.inf, integer=False, lo_open=False):
    """Check one number from outside the program: its JSON type (an
    integer if ``integer``, else any number), finiteness and the range
    lo..hi, lo excluded if ``lo_open``. Return it as an int or a float."""
    if isinstance(v, bool) or not isinstance(v, int if integer else (int, float)):
        raise ValueError(f"{name}: must be {'an integer' if integer else 'a number'}, got {v!r}")
    if not integer:
        try:
            v = float(v)
        except OverflowError:
            raise ValueError(
                f"{name}: must be finite, got an integer past the float range"
            ) from None
        if not math.isfinite(v):
            raise ValueError(f"{name}: must be finite, got {v}")
    if v < lo or (lo_open and v == lo) or v > hi:
        top = f" and <= {hi}" if hi < math.inf else ""
        raise ValueError(f"{name}: must be {'>' if lo_open else '>='} {lo}{top}, got {v}")
    return v


def _field(raw: dict, name: str, *bounds, **kw):
    """``_number`` on the key that ends the dotted path ``name``."""
    key = name.rpartition(".")[2]
    if key not in raw:
        raise ValueError(f"{name}: missing required field")
    return _number(raw[key], name, *bounds, **kw)


def _explicit_values(spec: dict, field: str, n: int, *bounds, **kw) -> dict:
    """An explicit list of n numbers, each read by ``_number``."""
    values = spec.get("values")
    if not isinstance(values, list) or len(values) != n:
        raise ValueError(f"{field}.values: need a list of {n} numbers")
    values = (_number(v, f"{field}.values[{k}]", *bounds, **kw) for k, v in enumerate(values))
    return {"mode": "explicit", "values": tuple(values)}


def _parse_activity(raw: dict, n: int) -> dict:
    spec = raw.get("activity")
    if not isinstance(spec, dict):
        raise ValueError("activity: missing or not an object")
    mode = spec.get("mode")
    if mode == "explicit":
        return _explicit_values(spec, "activity", n, 0.0, 1.0, lo_open=True)
    if mode == "uniform_draw":
        upper = _field(spec, "activity.upper", 0.0, 1.0, lo_open=True)
        return {"mode": "uniform_draw", "upper": upper}
    raise ValueError(f"activity.mode: must be 'explicit' or 'uniform_draw', got {mode!r}")


def _parse_z0(raw: dict, n: int) -> dict:
    spec = raw.get("z0", {"mode": "uniform_draw"})
    if not isinstance(spec, dict):
        raise ValueError("z0: must be an object")
    mode = spec.get("mode")
    if mode == "uniform_draw":
        return {"mode": "uniform_draw"}
    if mode == "explicit":
        return _explicit_values(spec, "z0", n, -math.inf)
    raise ValueError(f"z0.mode: must be 'explicit' or 'uniform_draw', got {mode!r}")


def _parse_n_m(raw: dict, n_max: int) -> tuple:
    n = _field(raw, "n", 2, n_max, integer=True)
    m = _field(raw, "m", 1, integer=True)
    if m > n - 1:
        raise ValueError(f"m: need 1 <= m <= n-1, got m={m} with n={n}")
    return n, m


def _parse_tie_break(raw: dict, n: int):
    """The rule and its manifest form; ``TieBreakRule`` checks the weights."""
    spec = raw.get("tie_break", "uniform")
    if spec == "uniform":
        return UNIFORM_TIE_BREAK, "uniform"
    if isinstance(spec, dict) and spec.get("mode") == "table":
        entries = spec.get("entries")
        if not isinstance(entries, list) or not entries:
            raise ValueError("tie_break.entries: table mode needs a nonempty list")
        table = {}
        for k, ent in enumerate(entries):
            path = f"tie_break.entries[{k}]"
            if not isinstance(ent, dict):
                raise ValueError(f"{path}: must be an object")
            nodes, ws = ent.get("set"), ent.get("weights")
            if not (isinstance(nodes, list) and isinstance(ws, list) and len(nodes) == len(ws)):
                raise ValueError(f"{path}: need 'set' and 'weights' lists of equal length")
            nodes = [_number(x, f"{path}.set", 1, n, integer=True) for x in nodes]
            key = frozenset(nodes)
            if len(key) != len(nodes):
                raise ValueError(f"{path}.set: repeated node id")
            if key in table:
                raise ValueError(f"{path}.set: {sorted(key)} is listed twice")
            table[key] = {i: _number(w, f"{path}.weights", 0.0) for i, w in zip(nodes, ws)}
        return TieBreakRule(table), spec
    raise ValueError(f"tie_break: must be 'uniform' or a table object, got {spec!r}")


def parse_config(raw: dict, seed_override: int | None = None) -> dict:
    """Validate a raw JSON config dict into the form a manifest records,
    plus the parsed tie-break ``rule``. ``seed_override`` replaces the
    config's seed before validation. Unknown keys (such as a manifest's
    'results' block) are ignored so manifests replay as configs."""
    if seed_override is not None:
        raw = {**raw, "seed": seed_override}
    n, m = _parse_n_m(raw, N_LIMIT)
    cfg = {
        "n": n,
        "m": m,
        "dt": _field(raw, "dt", 0.0),
        "eps": _field(raw, "eps", 0.0, lo_open=True),
        "k_max": _field(raw, "k_max", 1, K_MAX_LIMIT, integer=True),
        "n_paths": _field(raw, "n_paths", 1, integer=True),
        "seed": _field(raw, "seed", 0, U64 - 1, integer=True),
        "model": raw.get("model"),
    }
    if cfg["model"] not in VARIANTS:
        raise ValueError(
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
    vals = stream(seed, RATES).uniform(0.0, upper, n)
    return tuple(max(float(v), 1e-300) for v in vals)


def draw_initial_state(n: int, seed: int) -> np.ndarray:
    """Seeded U[-1, 1] draw of the n initial values."""
    return stream(seed, STATE).uniform(-1.0, 1.0, n)


def resolve_config(cfg: dict):
    """Materialize (params, z0, manifest_config) from a parsed config, the
    tie-break rule in params. Drawn quantities are resolved here, once,
    from the run seed."""
    if cfg["activity"]["mode"] == "explicit":
        a = cfg["activity"]["values"]
    else:
        a = draw_activity_rates(cfg["n"], cfg["activity"]["upper"], cfg["seed"])
    params = ModelParams(cfg["n"], cfg["m"], a, cfg["dt"], cfg["rule"])
    if cfg["z0"]["mode"] == "explicit":
        z0 = np.asarray(cfg["z0"]["values"], dtype=float)
    else:
        z0 = draw_initial_state(cfg["n"], cfg["seed"])
    manifest_config = {k: v for k, v in cfg.items() if k != "rule"}
    manifest_config["activity"] = {"mode": "explicit", "values": [float(x) for x in params.a]}
    manifest_config["z0"] = {"mode": "explicit", "values": [float(x) for x in z0]}
    return params, z0, manifest_config


def _write(out: str, name: str, *lines: str) -> str:
    """Write the lines, each ended by a newline, to ``name`` in directory
    ``out``, creating it; return the path."""
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def cmd_gamma(args) -> int:
    cfg = parse_config(_load_json(args.config), args.seed)
    params, _, _ = resolve_config(cfg)
    bound = (gamma_sp if args.command == "gamma-sp" else gamma_fs)(params)
    print(f"{args.command.replace('-', '_')} = {_fmt(bound.rate)}")
    print(f"weight_sum = {_fmt(bound.weight_sum)}")
    print(f"lambda_second = {_fmt(bound.lambda_second)}")
    row = [bound.kind, str(params.n), str(params.m)]
    row += [_fmt(x) for x in (params.dt, bound.rate, bound.weight_sum, bound.lambda_second)]
    header = "kind,n,m,dt,rate,weight_sum,lambda_second"
    path = _write(args.out, "gamma.csv", header, ",".join(row))
    print(f"wrote {path}")
    return 0


def _bound_for(v: Variant):
    """The decay bound reported beside a simulated variant, if any:
    ``gamma_fs`` for ``FastSwitch`` runs, ``gamma_sp`` for ``Sparse`` runs
    and, as an approximation only, for ``Full`` runs with rate sum <= 1."""
    if isinstance(v, FastSwitch):
        return gamma_fs(v.p)
    if v.p.sparse_regime:
        return gamma_sp(v.p)
    return None


def cmd_simulate(args) -> int:
    cfg = parse_config(_load_json(args.config), args.seed)
    budget = cfg["n_paths"] * cfg["k_max"]
    if budget > STEP_BUDGET:
        raise ValueError(
            f"n_paths*k_max = {budget} steps exceeds the {STEP_BUDGET} budget; "
            "refusing before any computation"
        )
    params, z0, manifest = resolve_config(cfg)
    _number(args.threads, "threads", 1, integer=True)
    v = VARIANTS[cfg["model"]](params)
    bound = _bound_for(v)
    curve = run_paths(
        v,
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
    rows = (f"{k},{_fmt(prob)},{curve.paths}" for k, prob in enumerate(curve.probs))
    csv_path = _write(args.out, "survival.csv", "K,prob,n_paths", *rows)
    manifest["results"] = {
        "fitted_rate": fit.rate if fit is not None else None,
        "fit_r_squared": fit.r_squared if fit is not None else None,
        "fit_points": fit.n_points if fit is not None else None,
        "bound_kind": bound.kind if bound is not None else None,
        "bound_rate": bound.rate if bound is not None else None,
        "bound_lambda_second": bound.lambda_second if bound is not None else None,
        "bound_weight_sum": bound.weight_sum if bound is not None else None,
    }
    man_path = _write(args.out, "manifest.json", json.dumps(manifest, indent=2, sort_keys=True))
    print(f"paths = {curve.paths}")
    print(f"prob_start = {_fmt(curve.probs[0])}")
    print(f"fitted_rate = {_fmt(fit.rate) if fit is not None else 'none'}")
    if bound is not None:
        # A variant with at most one star a period has its bound as the exact
        # second eigenvalue of its expected kernel, at any dt; gamma_sp on a
        # full run stands in for the full model's, which it does not bound.
        certified = bound.kind == v.name
        note = "certified" if certified else "the sparse-regime approximation, not a bound"
        print(f"bound_rate = {_fmt(bound.rate)} ({bound.kind}: {note})")
    print(f"wrote {csv_path}")
    print(f"wrote {man_path}")
    return 0


def _diff_row(name: str, diffs, tol: float) -> tuple:
    """A check row: the largest entry of the arrays ``diffs`` within ``tol``."""
    d = max(float(np.max(np.abs(x))) for x in diffs)
    return name, f"max diff {d:.3g}, tol {tol:g}", d <= tol


def _check_rows(params: ModelParams):
    """Yield validate's checks 1-4 as (name, detail, ok) rows, ok None for
    a refused or skipped check."""
    n, m, T = params.n, params.m, 2.0 * params.dt
    # 1. Per-activation closed form against the plain subset average.
    name = "activation-kernel-vs-subset-average"
    C = math.comb(n - 1, m)
    if C * n > 200_000:
        yield name, f"refused: size ({C} subsets per center)", None
    else:
        diffs = (
            sum(
                E
                for chunk in stacks(range(C), n)
                for E in expm_sym(
                    star_union_laplacians(n, np.full((C, 1), i)[chunk], nbs[chunk, None]), T
                )
            ) / C
            - activation_expectation(params, i + 1)
            for i, nbs in enumerate(center_star_table(params))
        )
        yield _diff_row(name, diffs, 1e-10)
    # 2-3. Sparse and fast-switching expected kernels against enumeration,
    #      and each bound's closed form against its dense reference.
    for cls in (Sparse, FastSwitch):
        name = f"{cls.name}-kernel-vs-enumeration"
        if cls is Sparse and not params.sparse_regime:
            yield name, f"skipped (rate sum {params.rate_sum:.3g} > 1)", None
            continue
        v = cls(params)
        if (size := v.size()) > MAX_BRANCHES:
            yield name, f"refused: size ({size} branches)", None
        else:
            w = kernel_weights(v)
            kernel = weighted_expected_exponential(params, w)
            gap = decay_bound(params, w, v.name).rate - dense_bound(params, w, v.name).rate
            yield _diff_row(name, [kernel - enumerate_expected_exponential(v), [gap]], 1e-10)
    # 4. Uniform-rule survivor rates: the recurrence against all activation sets.
    name = "survivor-rates-dp-vs-exhaustive"
    if n > 12:
        yield name, f"refused: size (2**{n} activation sets)", None
    else:
        uniform = dataclasses.replace(params, rule=UNIFORM_TIE_BREAK)
        yield _diff_row(name, [survivor_rates(uniform) - enumerated_survivor_rates(uniform)], 1e-12)


def cmd_validate(args) -> int:
    cfg = parse_config(_load_json(args.config), args.seed)
    params, _, _ = resolve_config(cfg)
    rows = list(_check_rows(params))

    # 5. Fast-switching eigenvalue inequality on the small-T grid, with a
    #    per-T gap CSV for plotting.
    probe = ModelParams(4, 2, (0.35, 0.2, 0.5, 0.15), 0.5)
    report = verify_fast_switch_inequality(probe, (0.01, 0.05, 0.1))
    gaps_path = _write(
        args.out,
        "gaps.csv",
        "T,lambda_full,lambda_fastswitch,gap,holds",
        *(
            f"{_fmt(s.T)},{_fmt(s.lambda_full)},{_fmt(s.lambda_fastswitch)},"
            f"{_fmt(s.gap)},{1 if s.holds else 0}"
            for s in report.samples
        ),
    )
    min_gap = min(s.gap for s in report.samples)
    detail = f"min gap {min_gap:.3g} over {len(report.samples)} grid points"
    rows.append(("fastswitch-inequality-grid", detail, report.holds_all))

    for name, detail, ok in rows:
        detail = detail if ok is None else f"{'pass' if ok else 'FAIL'} ({detail})"
        print(f"check {name}: {detail}")
    passes, skips, failures = map([ok for *_, ok in rows].count, (True, None, False))
    verdict = "FAIL" if failures else "PASS"
    print(f"validate: {verdict} ({passes} passed, {skips} skipped, {failures} failed)")
    print(f"wrote {gaps_path}")
    return 1 if failures else 0


def cmd_count_snapshots(args) -> int:
    # Decimal prints the exact count past str(int)'s digit limit. Imported
    # here so that other commands do not pay its 0.4 MB of peak memory.
    from decimal import Decimal

    # The count has at least n * log10(2) digits, so no larger n can pass the
    # digit limit, and lgamma below never sees an n past the float range.
    n, m = _parse_n_m(_load_json(args.config), int(COUNT_DIGITS_LIMIT / math.log10(2)))
    log_c = math.lgamma(n) - math.lgamma(m + 1) - math.lgamma(n - m)  # ln C(n-1, m)
    digits = n * (log_c + math.log1p(math.exp(-log_c))) / math.log(10)
    if digits > COUNT_DIGITS_LIMIT:
        raise ValueError(
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
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
