"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Asserts that
* every binding the tracer wraps exists in the package (none absent);
* BENCHMARK.json is what ``run.py --write-spec`` writes;
* each workload emits exactly the end-to-end metrics of BENCHMARK.json
  untraced and exactly its per-layer metrics traced, with failed = 0, and
  the layers each workload exercises show nonzero work;
* corrupted outputs (one survival point raised, a gamma value off by 1e-9
  relative) make every operation count as failed.

Takes about a minute, most of it in the full-size certify operations.
"""

import checkout  # first: pins the environment before numpy loads

import csv
import json
import os
import shutil

from run import measure, write_spec
from spans import Tracer
from workloads import WORKLOADS

TINY_PATHS = 6
# Per-layer metrics that must be nonzero on a workload: the layers it
# exercises.
BUSY_LAYERS = {
    "simulate-small10": ("mc_sim.steps_per_path", "adn_model.generate_snapshot.self_us",
                         "closed_form.activation_expectation.calls", "spectral.gamma_sp.self_s"),
    "simulate-large50": ("mc_sim.steps_per_path", "adn_model.generate_snapshot.self_us",
                         "mc_sim.step.calls_per_path"),
    "simulate-busy": ("mc_sim.steps_per_path", "graph_core.expm_sym.calls",
                      "adn_model.multi_star_frac", "adn_model.snapshot_laplacian.self_us"),
    "certify": ("graph_core.expm_sym.calls", "closed_form.activation_expectation.calls",
                "spectral.gamma_fs.self_s", "spectral.poisson_binomial_pmf.calls",
                "validation.us_per_branch"),
}
CERTIFY_BRANCHES = 37_181


def raise_last_point(out_dir: str):
    """Raise the last survival probability one path above its predecessor,
    which no correct curve allows."""
    path = os.path.join(out_dir, "survival.csv")
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    n = int(rows[-1][2])
    rows[-1][1] = repr(float(rows[-2][1]) + 1.0 / n)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def nudge_gamma(out_dir: str):
    """Move the reported rate by 1e-9 relative."""
    path = os.path.join(out_dir, "gamma.csv")
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    rows[0]["rate"] = repr(float(rows[0]["rate"]) * (1.0 + 1e-9))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def main():
    pkg = checkout.import_package()
    work = os.path.join(checkout.ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    os.makedirs(work)
    try:
        absent = Tracer(pkg).absent
        assert not absent, f"wrapped bindings absent from the package: {absent}"

        spec_path = os.path.join(work, "BENCHMARK.json")
        write_spec(spec_path)
        with open(spec_path, encoding="utf-8") as fh:
            spec = json.load(fh)
        with open(os.path.join(checkout.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            committed = json.load(fh)
        assert spec == committed, "BENCHMARK.json differs from run.py --write-spec"
        e2e = [m["name"] for m in spec["end_to_end"]]
        layers = [m["name"] for m in spec["per_layer"]]

        for wl in WORKLOADS:
            kw = dict(seed=7, seconds=0, work_dir=work, n_paths=TINY_PATHS, setup_launches=1)
            result, _ = measure(pkg, wl, trace=False, **kw)
            assert result["correct"] and result["failed"] == 0, (wl.name, result)
            assert list(result["metrics"]) == e2e, (wl.name, list(result["metrics"]))

            result, _ = measure(pkg, wl, trace=True, **kw)
            assert result["correct"] and result["failed"] == 0, (wl.name, result)
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            assert list(metrics) == layers, (wl.name, list(metrics))
            zero = [k for k in BUSY_LAYERS[wl.name] if not metrics[k] > 0]
            assert not zero, f"{wl.name}: no work recorded in {zero}"
            if wl.kind == "certify":
                assert metrics["validation.branches"] == CERTIFY_BRANCHES, metrics
            else:
                assert metrics["validation.branches"] == 0, metrics

            corrupt = raise_last_point if wl.kind == "simulate" else nudge_gamma
            result, _ = measure(pkg, wl, trace=False, corrupt=corrupt, **kw)
            pooled = 1 if wl.kind == "simulate" else 0  # the pooled-curve check
            ops = result["attempted"] - 1 - pooled  # less the set-up launch
            assert ops <= result["failed"] <= ops + pooled, (wl.name, result)
            assert not result["correct"], (wl.name, result)
            print(f"selftest {wl.name}: ok (corrupted outputs failed {ops} of {ops} operations)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
