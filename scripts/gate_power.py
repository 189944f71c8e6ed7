#!/usr/bin/env python3
"""Pass fractions of acceptance criteria 5 and 6 over many seeds.

Each criterion draws its activity rates, initial state and sample paths
from one seed and passes or fails on one fit (tests/test_acceptance.py runs
them at seed 2025). This script repeats both computations unchanged at R
seeds and writes, per criterion, the fraction of seeds that pass, the mean
and standard deviation of the fitted rate and of its margin under the
bound, and every seed's figures, as JSON: the pass probability of each
gate, not one draw of it.

    python scripts/gate_power.py [--seeds R] [--first-seed S] [--paths N]
                                 [--threads K] [--out FILE]

Seeds run S, S + 1, ..., S + R - 1 (default 2025 onwards, 50 seeds), K at a
time in worker processes; results do not depend on K.
"""

import argparse
import json
import multiprocessing
import os
import statistics
import sys
import time

from adn_consensus import Full, ModelParams, fit_decay_stats, gamma_sp, run_paths
from adn_consensus.cli import draw_activity_rates, draw_initial_state

# name -> (n, m, rate upper bound, dt, k_max, eps, fit window top or None
# for the default window), as tests/test_acceptance.py runs the criterion.
CRITERIA = {
    "5": (10, 4, 0.01, 2.0, 600, 0.3, None),
    "6": (50, 15, 0.002, 3.0, 700, 0.1, 0.1),
}


def verdict(name: str, fit, bound: float) -> bool:
    """Criterion 5: fit <= bound + 0.005 and R^2 >= 0.98. Criterion 6:
    fit <= bound and |bound - fit| / fit <= 0.05."""
    if fit is None:
        return False
    if name == "5":
        return fit.rate <= bound + 0.005 and fit.r_squared >= 0.98
    return fit.rate <= bound and abs(bound - fit.rate) / fit.rate <= 0.05


def run_seed(seed: int, n_paths: int) -> dict:
    """Both criteria's figures at one seed."""
    out = {}
    for name, (n, m, upper, dt, k_max, eps, top) in CRITERIA.items():
        p = ModelParams(n, m, draw_activity_rates(n, upper, seed), dt)
        z0 = draw_initial_state(n, seed)
        curve = run_paths(Full(p), z0, k_max, n_paths, eps, seed)
        try:
            fit = fit_decay_stats(curve, None if top is None else (10.0 / n_paths, top))
        except ValueError:
            fit = None
        bound = gamma_sp(p).rate
        out[name] = {
            "seed": seed,
            "fit_rate": None if fit is None else fit.rate,
            "r_squared": None if fit is None else fit.r_squared,
            "bound": bound,
            "pass": verdict(name, fit, bound),
        }
    return out


def _sd(xs: list):
    return statistics.stdev(xs) if len(xs) > 1 else None


def summarise(rows: list) -> dict:
    """Pass fraction and the spread of the fit over one criterion's seeds."""
    fits = [r["fit_rate"] for r in rows if r["fit_rate"] is not None]
    margins = [r["bound"] - r["fit_rate"] for r in rows if r["fit_rate"] is not None]
    passed = sum(r["pass"] for r in rows)
    return {
        "passed": passed,
        "runs": len(rows),
        "pass_fraction": passed / len(rows),
        "fit_rate_mean": statistics.fmean(fits) if fits else None,
        "fit_rate_sd": _sd(fits),
        "margin_mean": statistics.fmean(margins) if margins else None,
        "margin_sd": _sd(margins),
        "per_seed": rows,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=50)
    ap.add_argument("--first-seed", type=int, default=2025)
    ap.add_argument("--paths", type=int, default=10_000)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out", default="gate_power.json")
    args = ap.parse_args(argv)
    if args.seeds < 1 or args.paths < 1 or args.threads < 1:
        ap.error("--seeds, --paths and --threads must be positive")
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    paths = [args.paths] * len(seeds)
    t0 = time.monotonic()
    if args.threads == 1:
        results = list(map(run_seed, seeds, paths))
    else:
        from concurrent.futures import ProcessPoolExecutor

        # Spawned workers load numpy afresh, with one BLAS thread each: K
        # workers that each keep a BLAS thread pool oversubscribe the cores
        # (criterion 6's run_paths took 7.0 s on two forked workers against
        # 1.5 s on one, on 2 cores).
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, "1")
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=args.threads, mp_context=spawn) as ex:
            results = list(ex.map(run_seed, seeds, paths))
    report = {
        "seeds": [seeds[0], seeds[-1]],
        "paths": args.paths,
        "threads": args.threads,
        "seconds": round(time.monotonic() - t0, 1),
        "criteria": {name: summarise([r[name] for r in results]) for name in CRITERIA},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for name, c in report["criteria"].items():
        print(f"criterion {name}: passed {c['passed']} of {c['runs']} seeds, "
              f"fit {c['fit_rate_mean']} +- {c['fit_rate_sd']}")
    print(f"wrote {args.out} ({report['seconds']} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
