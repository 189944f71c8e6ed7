"""The adn-consensus benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, one child each
    python3 perfbench/run.py --write-spec        # regenerate BENCHMARK.json

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``. One run measures repeated operations of one workload
(see workloads.py) for ``--seconds`` seconds in this process, checks every
output, prints a table of every metric with its unit, and prints as its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` operations alternate untraced and traced, and the metrics are
the per-layer ones from spans.py plus the tracing overhead.

``--seed`` (default 2025) fixes every input of a run: operation i simulates
with the package seed drawn from SeedSequence([seed, i]). The mixing matters
because the package derives path streams as ``seed ^ path_index``, so
package seeds that differ only in low bits (1 and 2, or 2025 and 2024) share
most of their paths. A fresh-seed check of a claimed gain should still use a
bench seed far from the one the change was tuned on (e.g. 9876543). certify
has no random input; its seed changes nothing.
"""

import checkout  # first: pins the environment before numpy loads

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

from spans import LAYER_METRICS, Tracer
from workloads import (
    BY_NAME, DENSE_NOMINAL_S, INTERP_NOMINAL_S, WORKLOADS, Calibration, Runner,
)

DEFAULT_SEED = 2025
RUN_SECONDS = 20
SETUP_LAUNCHES = 11
PROBE_TIMEOUT_S = 60

# name -> (unit, better, bound). The bound is the share of the parent's
# median by which the metric may worsen before a change is rejected.
END_TO_END = {
    "op_s": ("s", "lower", 0.15),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
}


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(checkout.ROOT, ".git")):
        proc = subprocess.run(["git", "-C", checkout.ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": commit,
        "env_pins": {k: os.environ[k] for k in checkout.ENV_PINS},
    }


def _quartiles(xs: list) -> str:
    if len(xs) < 2:
        return f"{len(xs)} sample"
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return f"median of {len(xs)}, q1 {q1:.6g}, q3 {q3:.6g}"


class Run:
    """Counts attempted and failed operations of one benchmark run.
    Operation i simulates with the package seed drawn from
    SeedSequence([seed, i])."""

    def __init__(self, runner: Runner, seed: int):
        self.runner = runner
        self.seed = seed
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.first_sha = ""

    def op(self):
        """Run and check the next operation; return its OpResult, or None
        if it raised."""
        adn_seed = int(np.random.SeedSequence([self.seed, self.ops]).generate_state(1, np.uint64)[0])
        self.ops += 1
        gc.collect()
        try:
            res = self.runner.run(adn_seed)
        except Exception:
            self.check("operation", [traceback.format_exc()])
            return None
        self.check("operation", res.problems)
        if not self.first_sha:
            self.first_sha = res.csv_sha256
        return res

    def check(self, what: str, problems: list):
        """Count one attempted operation; it failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed ({what}): {p}", file=sys.stderr)

    def probe_setup(self, launches: int, work_dir: str) -> list:
        """Calibrated seconds of each successful fresh-interpreter set-up
        launch (imports and parsing: interpreter-bound work)."""
        times = []
        probe = os.path.join(checkout.ROOT, "perfbench", "probe.py")
        for _ in range(launches):
            proc, _, elapsed = self.runner.calibration.timed(
                lambda: subprocess.run([sys.executable, probe, self.runner.workload.name, work_dir],
                                       stdout=subprocess.DEVNULL, timeout=PROBE_TIMEOUT_S),
                1.0)
            if proc.returncode == 0:
                times.append(elapsed)
            self.check("set-up", [] if proc.returncode == 0 else [f"probe exited {proc.returncode}"])
        return times


def measure(pkg, workload, seed: int, seconds: float, trace: bool, work_dir: str,
            n_paths=None, corrupt=None, setup_launches=SETUP_LAUNCHES):
    """One benchmark run. Returns (result dict, table lines).

    Operations run back to back until ``seconds`` have passed, at least one
    of each kind. With ``trace`` they alternate untraced and traced.
    """
    calibration = Calibration()
    run = Run(Runner(pkg.cli, workload, work_dir, calibration, n_paths, corrupt), seed)
    setup = [] if trace else run.probe_setup(setup_launches, work_dir)
    run.op()  # warm-up: checked and counted, not timed

    tracer = Tracer(pkg) if trace else None
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        if trace and len(traced) < len(untraced):
            with tracer.installed():
                res = run.op()
            tracer.collect()
            if res is not None:
                traced.append(res)
        else:
            res = run.op()
            if res is not None:
                untraced.append(res)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and untraced and (traced or not trace):
            break
        if elapsed >= 2 * seconds + 30:
            break  # operations keep raising; report what there is
    if workload.kind == "simulate":
        run.check("pooled curve", run.runner.pooled_problems())

    if trace:
        metrics, lines = _layer_report(tracer, traced, untraced)
    else:
        metrics, lines = _end_to_end_report(run, untraced, setup, calibration)
    lines.append(f"failed_frac   {run.failed / run.attempted:.6g} ratio "
                 f"({run.failed} of {run.attempted} operations)")
    result = {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def _layer_report(tracer, traced: list, untraced: list) -> tuple:
    metrics, lines = {}, []
    if tracer.absent:
        lines.append(f"absent bindings (not traced): {', '.join(tracer.absent)}")
    if traced and untraced:
        values = tracer.metrics(len(traced), sum(r.paths for r in traced),
                                [r.seconds["op"] for r in traced],
                                [r.seconds["op"] for r in untraced])
        metrics = {k: (v, LAYER_METRICS[k]) for k, v in values.items()}
    lines += [f"{k:52s} {v:.6g} {unit}" for k, (v, unit) in metrics.items()]
    return metrics, lines


def _end_to_end_report(run, untraced: list, setup: list, calibration) -> tuple:
    """End-to-end metrics, plus table lines that also show the figures the
    metrics derive from (raw wall time, calibration, per-phase times)."""
    if not (untraced and setup):
        return {}, []
    op_s = [r.seconds["op"] for r in untraced]
    wall = [r.wall for r in untraced]
    interp, dense = zip(*calibration.samples)
    metrics = {
        "op_s": (statistics.median(op_s), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    lines = [
        f"op_s          {metrics['op_s'][0]:.6g} s   ({_quartiles(op_s)} operations)",
        f"op_wall_s     {statistics.median(wall):.6g} s   (uncalibrated; {_quartiles(wall)})",
        f"calibration   interp {statistics.median(interp) * 1e6:.4g} us/iter (nominal "
        f"{INTERP_NOMINAL_S * 1e6:g}), dense {statistics.median(dense) * 1e6:.4g} us/iter "
        f"(nominal {DENSE_NOMINAL_S * 1e6:g}); medians of {len(interp)} slices",
        f"setup_s       {metrics['setup_s'][0]:.6g} s   ({_quartiles(setup)} launches)",
        f"peak_rss_mb   {metrics['peak_rss_mb'][0]:.6g} MB",
    ]
    if run.runner.workload.kind == "simulate":
        paths = untraced[0].paths
        k_max = run.runner.configs[0][1]["k_max"]
        pps = statistics.median(paths / s for s in op_s)
        lines += [
            f"paths_per_s   {pps:.6g} paths/s ({paths} paths per operation)",
            f"us_per_step   {1e6 / (pps * k_max):.6g} us",
            f"pooled curve  {run.runner.pooled_paths} paths checked against the reference",
            f"survival.csv sha256 of the first operation (information only): {run.first_sha}",
        ]
    else:
        for key in ("bound", "validate"):
            xs = [r.seconds[key] for r in untraced]
            lines.append(f"{key + '_s':14s}{statistics.median(xs):.6g} s   ({_quartiles(xs)})")
    return metrics, lines


def write_spec(path: str):
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": k, "unit": u, "better": b, "bound": bound}
            for k, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": k, "unit": u, "better": "lower"} for k, u in LAYER_METRICS.items()
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=2)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w.name for w in WORKLOADS] + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = ap.parse_args(argv)
    if args.write_spec:
        write_spec(os.path.join(checkout.ROOT, "BENCHMARK.json"))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    try:
        pkg = checkout.import_package()
    except checkout.MissingPackage as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w.name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for w in WORKLOADS]
        return max(codes)

    workload = BY_NAME[args.workload]
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    work_dir = os.path.join(checkout.ROOT, ".perfbench_work", f"{workload.name}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        result, lines = measure(pkg, workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work_dir))  # only if no other run uses it
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
