#!/usr/bin/env python3
"""Reproduce the two shipped survival-curve experiments and compare the
fitted geometric decay of each curve with the rate that ``simulate``
reports beside it (printed as the "bound rate"). Both configs run the
``full`` model, for which that rate is gamma_sp, the sparse-regime
approximation, not a bound: ``simulate`` labels it so, and a tail fit
above it ("tail vs bound ... ABOVE") breaks no guarantee.

The 10-node run is fitted over the default probability window. The 50-node
curve has a long saturation transient before the geometric tail sets in, so
its asymptotic rate is read off the tail only (probabilities in
[10/n_paths, 0.1]); both readings are printed.

The configs are read from the checkout's configs/ directory, whatever the
working directory; OUTROOT is relative to the working directory.

Usage: python scripts/reproduce_experiments.py [OUTROOT] [--threads K]
"""

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from adn_consensus import SurvivalCurve, fit_decay_stats
from adn_consensus.cli import main

ROOT = Path(__file__).resolve().parents[1]
EXPERIMENTS = [
    ("small10", "configs/small10.json", None),
    ("large50", "configs/large50.json", 0.1),
]


def load_curve(path: str) -> SurvivalCurve:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return SurvivalCurve(
        eps=float("nan"),
        probs=np.array([float(r["prob"]) for r in rows]),
        paths=int(rows[0]["n_paths"]),
    )


def run():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("outroot", nargs="?", default="results")
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()

    for label, config, tail_hi in EXPERIMENTS:
        outdir = os.path.join(args.outroot, label)
        print(f"== {label}: {config} -> {outdir}")
        argv = ["simulate", "--config", str(ROOT / config), "--out", outdir]
        argv += ["--threads", str(args.threads)]
        rc = main(argv)
        if rc != 0:
            return rc
        with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        bound = manifest["results"]["bound_rate"]
        curve = load_curve(os.path.join(outdir, "survival.csv"))
        fit = fit_decay_stats(curve)
        print(f"   bound rate          {bound:.6f}")
        print(f"   fit, default window {fit.rate:.6f} (R^2 {fit.r_squared:.4f})")
        if tail_hi is not None:
            tail = fit_decay_stats(curve, (10.0 / curve.paths, tail_hi))
            gap = abs(bound - tail.rate) / tail.rate
            print(f"   fit, tail window    {tail.rate:.6f} (R^2 {tail.r_squared:.4f})")
            print(f"   tail vs bound       {'OK' if tail.rate <= bound else 'ABOVE'}"
                  f" (relative gap {gap:.2%})")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(run())
