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
import contextlib
import json
import math
import os
import stat
import sys
from functools import cache

import numpy as np

from .adn_model import (
    RATES,
    STATE,
    UNIFORM_TIE_BREAK,
    VARIANTS,
    ModelParams,
    TieBreakRule,
    snapshot_count,
    stream,
)
from .mc_sim import fit_decay_stats, run_paths
from .spectral import gamma_fs, gamma_sp
from .validation import validate

U64 = 2**64

STEP_BUDGET = 2_000_000_000
# simulate writes k_max + 1 survival rows whatever n_paths is.
K_MAX_LIMIT = 10**6
# Printing the exact snapshot count is quadratic in its digit count.
COUNT_DIGITS_LIMIT = 200_000
# simulate's multi-star kernels are n x n float64, 763 MiB at this n.
N_LIMIT = 10_000
# The bounds hold n-vectors: gamma_fs took < 1 s and 61 MiB at this n.
BOUND_N_LIMIT = 1_000_000


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


def _explicit_values(spec: dict, field: str, n: int, lo, hi=math.inf, lo_open=False) -> dict:
    """An explicit list of n numbers, each as ``_number`` reads it: checked
    as one array, and one by one only to name the first that fails."""
    values = spec.get("values")
    if not isinstance(values, list) or len(values) != n:
        raise ValueError(f"{field}.values: need a list of {n} numbers")
    try:
        x = np.array(values, dtype=np.float64) if set(map(type, values)) <= {int, float} else None
    except OverflowError:  # an integer past the float range
        x = None
    if x is None or not np.all(np.isfinite(x) & (x > lo if lo_open else x >= lo) & (x <= hi)):
        x = np.array([_number(v, f"{field}.values[{k}]", lo, hi, lo_open=lo_open)
                      for k, v in enumerate(values)])
    return {"mode": "explicit", "values": tuple(x.tolist())}


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


def parse_config(raw: dict, seed_override: int | None = None, n_max: int = N_LIMIT) -> dict:
    """Validate a raw JSON config dict into the form a manifest records,
    plus the parsed tie-break ``rule``. ``seed_override`` replaces the
    config's seed before validation; ``n_max`` bounds n. Unknown keys (such
    as a manifest's 'results' block) are ignored so manifests replay."""
    if seed_override is not None:
        raw = {**raw, "seed": seed_override}
    n, m = _parse_n_m(raw, n_max)
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
        raise ValueError(f"model: must be 'full', 'sparse' or 'fastswitch', got {cfg['model']!r}")
    cfg["rule"], cfg["tie_break"] = _parse_tie_break(raw, n)
    cfg["activity"] = _parse_activity(raw, n)
    cfg["z0"] = _parse_z0(raw, n)
    return cfg


def draw_activity_rates(n: int, upper: float, seed: int) -> np.ndarray:
    """Seeded U[0, upper] draw of n rates, clamped away from exact zero so
    the open-interval rate constraint cannot be tripped by a measure-zero
    draw."""
    return np.maximum(stream(seed, RATES).uniform(0.0, upper, n), 1e-300)


def draw_initial_state(n: int, seed: int) -> np.ndarray:
    """Seeded U[-1, 1] draw of the n initial values."""
    return stream(seed, STATE).uniform(-1.0, 1.0, n)


def resolve_config(cfg: dict, state: bool = True):
    """Materialize (params, z0, manifest_config) from a parsed config, the
    tie-break rule in params. Drawn quantities are resolved here, once,
    from the run seed; the manifest holds them as ``params.a`` and z0.
    With ``state`` False the initial state, which only ``simulate`` reads,
    is not resolved: z0 is None and the manifest keeps the config's z0."""
    if cfg["activity"]["mode"] == "explicit":
        a = cfg["activity"]["values"]
    else:
        a = draw_activity_rates(cfg["n"], cfg["activity"]["upper"], cfg["seed"])
    params = ModelParams(cfg["n"], cfg["m"], a, cfg["dt"], cfg["rule"])
    manifest_config = {k: v for k, v in cfg.items() if k != "rule"}
    manifest_config["activity"] = {"mode": "explicit", "values": params.a}
    if not state:
        return params, None, manifest_config
    if cfg["z0"]["mode"] == "explicit":
        z0 = np.asarray(cfg["z0"]["values"], dtype=float)
    else:
        z0 = draw_initial_state(cfg["n"], cfg["seed"])
    manifest_config["z0"] = {"mode": "explicit", "values": z0}
    return params, z0, manifest_config


def _write(out: str, name: str, *lines: str) -> str:
    """Write the lines, each ended by a newline, to ``name`` in directory
    ``out``, creating it; return the path. A regular file there is unlinked,
    not truncated (ext4 flushes a truncated file on close); a symlink is
    written through."""
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, name)
    with contextlib.suppress(FileNotFoundError):
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def cmd_gamma(args) -> int:
    cfg = parse_config(_load_json(args.config), args.seed, BOUND_N_LIMIT)
    params, _, _ = resolve_config(cfg, state=False)
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


def _survival_body(curve) -> str:
    """survival.csv's rows "K,prob,n_paths" as one text: each run of equal
    probabilities (at most n_paths + 1 runs on a curve) formatted once, and
    K filled in by one ``%`` over 0..k_max."""
    probs = curve.probs
    starts = np.flatnonzero(np.concatenate([[True], probs[1:] != probs[:-1]])).tolist()
    runs = zip(probs[starts].tolist(), starts, starts[1:] + [len(probs)])
    text = "".join(f"%d,{_fmt(x)},{curve.paths}\n" * (hi - lo) for x, lo, hi in runs)
    return text[:-1] % tuple(range(len(probs)))


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
    bound = v.bound()
    curve = run_paths(
        v, z0, cfg["k_max"], cfg["n_paths"], cfg["eps"], cfg["seed"], n_jobs=args.threads
    )
    try:
        fit = fit_decay_stats(curve)
    except ValueError:
        fit = None
    csv_path = _write(args.out, "survival.csv", "K,prob,n_paths", _survival_body(curve))
    manifest["results"] = {
        "fitted_rate": fit.rate if fit is not None else None,
        "fit_r_squared": fit.r_squared if fit is not None else None,
        "fit_points": fit.n_points if fit is not None else None,
        "bound_kind": bound.kind if bound is not None else None,
        "bound_rate": bound.rate if bound is not None else None,
        "bound_lambda_second": bound.lambda_second if bound is not None else None,
        "bound_weight_sum": bound.weight_sum if bound is not None else None,
    }
    text = json.dumps(manifest, indent=2, sort_keys=True, default=np.ndarray.tolist)
    man_path = _write(args.out, "manifest.json", text)
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


def cmd_validate(args) -> int:
    cfg = parse_config(_load_json(args.config), args.seed)
    params, _, _ = resolve_config(cfg, state=False)
    rows, report = validate(params)
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
    "simulate": (cmd_simulate, "run the Monte Carlo survival-curve experiment",
                 ("--out", "--seed", "--threads")),
    "validate": (cmd_validate, "run the enumeration oracle suites", ("--out", "--seed")),
    "count-snapshots": (cmd_count_snapshots, "print the exact number of distinct snapshots", ()),
}


@cache  # built once a process; main looks the handler up in COMMANDS at each call
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
