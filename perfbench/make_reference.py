"""Regenerate the benchmark's pinned inputs and reference outputs.

    python3 perfbench/make_reference.py

Writes ``perfbench/inputs/*.json``: the shipped configs and the two extra
workload configs, resolved at seed 2025 so that activity rates and the
initial state are explicit and no longer depend on the package's stream
derivation. Then writes ``perfbench/reference/``: a survival curve per
simulate workload from REF_PATHS paths at REF_SEED, and the certify gamma
values. Run it only to redefine the benchmark; its outputs are committed.
"""

import checkout  # first: pins the environment before numpy loads

import csv
import json
import os
import shutil

from workloads import BY_NAME, INPUTS, REFERENCE, call_cli

REF_PATHS = 10_000
# Differs from 2025 above the low bits: the package derives path streams as
# seed ^ path_index, so seeds that differ only in low bits share paths.
REF_SEED = 9876543
REF_THREADS = "2"

CONFIG_SEED = 2025
BUSY = {
    "n": 20, "m": 4, "dt": 0.05, "eps": 0.01, "k_max": 200,
    "model": "full", "activity": {"mode": "uniform_draw", "upper": 0.2},
}
CERTIFY_BOUND = {
    "n": 400, "m": 40, "dt": 0.5, "eps": 0.1, "k_max": 1,
    "model": "fastswitch", "activity": {"mode": "uniform_draw", "upper": 0.0025},
}
CERTIFY_VALIDATE = {
    "n": 8, "m": 3, "dt": 0.5, "eps": 0.1, "k_max": 40, "model": "fastswitch",
    "activity": {"mode": "explicit",
                 "values": [0.05, 0.1, 0.2, 0.15, 0.08, 0.12, 0.03, 0.1]},
}


def resolved(cli, raw: dict, keep_z0: bool = True) -> dict:
    raw = dict(raw, seed=CONFIG_SEED, n_paths=raw.get("n_paths", 1))
    _, _, _, manifest = cli.resolve_config(cli.parse_config(raw))
    if not keep_z0:
        del manifest["z0"]
    return manifest


def main():
    cli = checkout.import_package().cli
    root = checkout.ROOT
    with open(os.path.join(root, "configs", "small10.json"), encoding="utf-8") as fh:
        small10 = json.load(fh)
    with open(os.path.join(root, "configs", "large50.json"), encoding="utf-8") as fh:
        large50 = json.load(fh)
    inputs = {
        "small10.json": resolved(cli, small10),
        "large50.json": resolved(cli, large50),
        "busy.json": resolved(cli, BUSY),
        "certify_bound.json": resolved(cli, CERTIFY_BOUND, keep_z0=False),
        "certify_validate.json": resolved(cli, CERTIFY_VALIDATE, keep_z0=False),
    }
    os.makedirs(INPUTS, exist_ok=True)
    for name, cfg in inputs.items():
        with open(os.path.join(INPUTS, name), "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote inputs/{name}: rate sum {sum(cfg['activity']['values']):.4f}")

    os.makedirs(REFERENCE, exist_ok=True)
    work = os.path.join(root, ".perfbench_work", "reference")
    os.makedirs(work, exist_ok=True)
    try:
        for wl in ("simulate-small10", "simulate-large50", "simulate-busy"):
            name = BY_NAME[wl].inputs[0]
            cfg_path = os.path.join(work, name)
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(dict(inputs[name], n_paths=REF_PATHS), fh)
            out = os.path.join(work, wl)
            code, _ = call_cli(cli, ["simulate", "--config", cfg_path, "--out", out,
                                     "--seed", str(REF_SEED), "--threads", REF_THREADS])
            if code != 0:
                raise SystemExit(f"{wl}: simulate exited {code}")
            shutil.copyfile(os.path.join(out, "survival.csv"),
                            os.path.join(REFERENCE, wl + ".csv"))
            print(f"wrote reference/{wl}.csv ({REF_PATHS} paths)")
        ref = {}
        cfg_path = os.path.join(work, "certify_bound.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(inputs["certify_bound.json"], fh)
        for cmd in ("gamma-sp", "gamma-fs"):
            out = os.path.join(work, cmd)
            code, _ = call_cli(cli, [cmd, "--config", cfg_path, "--out", out])
            if code != 0:
                raise SystemExit(f"{cmd} exited {code}")
            with open(os.path.join(out, "gamma.csv"), encoding="utf-8") as fh:
                row = next(csv.DictReader(fh))
            ref[cmd] = {k: float(row[k]) for k in ("rate", "weight_sum", "lambda_second")}
        with open(os.path.join(REFERENCE, "certify.json"), "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote reference/certify.json: {ref}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
