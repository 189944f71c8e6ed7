"""The benchmark's workloads: their pinned inputs, one operation of each, and
the checks every operation's output must pass.

An operation is one in-process call sequence through ``adn_consensus.cli.main``
with ``--threads 1``:

* simulate workloads: one ``adn simulate`` of a fixed path count;
* certify: ``adn gamma-sp`` and ``adn gamma-fs`` on the n=400 input, then
  ``adn validate`` on the n=8 input.

The checks do not depend on the random streams, so a later change that
redraws the streams on purpose still passes them when it keeps the model's
distribution.
"""

import csv
import hashlib
import io
import json
import math
import os
import signal
import statistics
import time
from contextlib import redirect_stdout
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")
REFERENCE = os.path.join(HERE, "reference")

# Two-sample DKW false-alarm rate per operation: small enough that repeated
# runs never trip it on a correct program.
DKW_ALPHA = 1e-6
GAMMA_RTOL = 1e-12
VALIDATE_VERDICT = "validate: PASS (5 passed, 0 skipped, 0 failed)"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "simulate" or "certify"
    inputs: tuple  # file names under inputs/
    n_paths: int  # paths per simulate operation; 0 for certify
    # Share of the workload's time outside dense eigen-solves at the commit
    # that defined the benchmark (from its trace): weights the two parts of
    # the calibration slice so that they drift like the workload does.
    interp_share: float
    why: str


WORKLOADS = (
    Workload(
        "simulate-small10",
        "simulate",
        ("small10.json",),
        50,
        1.0,
        "configs/small10.json: 95% of snapshots idle and the curve at 0.5 by "
        "K~57 of 600, so early stopping and idle-step skipping gain most here",
    ),
    Workload(
        "simulate-large50",
        "simulate",
        ("large50.json",),
        25,
        1.0,
        "configs/large50.json: the per-agent generator loop is 79% of the time "
        "and first passage comes late (K~204 of 700)",
    ),
    Workload(
        "simulate-busy",
        "simulate",
        ("busy.json",),
        10,
        0.5,
        "n=20 with rate sum ~2: 88% of steps have events and 61% need the dense "
        "multi-star kernel, so idle-step savings cannot hide added cost",
    ),
    Workload(
        "certify",
        "certify",
        ("certify_bound.json", "certify_validate.json"),
        0,
        0.6,
        "gamma-sp and gamma-fs at n=400 plus validate at n=8 (37,181 enumerated "
        "branches): closed_form, spectral and validation work, no mc_sim",
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def load_input(name: str) -> dict:
    with open(os.path.join(INPUTS, name), encoding="utf-8") as fh:
        return json.load(fh)


def off_consensus_sq(z) -> float:
    """Squared disagreement of a state, computed here rather than by the
    package under test."""
    d = np.asarray(z, dtype=np.float64)
    d = d - d.mean()
    return float(d @ d)


# Wall times are rescaled to a nominal machine speed. On a shared machine
# the speed of the same code drifts by up to 2x, from one second to the
# next. So while a timed call runs, a timer signal runs a small fixed slice
# of calibration work every SAMPLE_PERIOD_S in the same thread, and the
# call's time is divided by the slices' mean slowdown against nominal.
# The nominal per-iteration times are round figures near the slices' fastest
# sustained times on a shared 2-core Xeon VM; they only fix the unit.
SAMPLE_PERIOD_S = 0.025
INTERP_ITERS = 40
DENSE_ITERS = 3
INTERP_NOMINAL_S = 12.5e-6
DENSE_NOMINAL_S = 125e-6


class Calibration:
    """Samples the machine's speed during timed calls.

    A slice has two parts, like the package's two kinds of work: an
    interpreter-bound loop over small numpy draws, comparisons and a norm
    (like the snapshot generator), and symmetric 20x20 eigen-solves with
    recomposition (like expm_sym). It calls nothing in the package, so no
    change there can move it. The slices' own time is taken out of the
    call's wall time.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._rng = rng
        self._z = rng.random(10)
        M = rng.random((20, 20))
        self._M = M + M.T
        self.samples = []  # (interp, dense) seconds per iteration, every slice

    def _slice(self) -> tuple:
        rng, z = self._rng, self._z
        acc = 0.0
        t0 = time.perf_counter()
        for _ in range(INTERP_ITERS):
            u = rng.random(10)
            for i in range(10):
                if u[i] < 0.01:
                    acc += 1.0
            d = z - z.mean()
            acc += float(d @ d)
        t1 = time.perf_counter()
        for _ in range(DENSE_ITERS):
            w, V = np.linalg.eigh(self._M)
            acc += float(((V * np.exp(-w)) @ V.T)[0, 0])
        t2 = time.perf_counter()
        return (t1 - t0) / INTERP_ITERS, (t2 - t1) / DENSE_ITERS, t2 - t0

    def timed(self, fn, interp_share: float) -> tuple:
        """Run ``fn()`` while sampling; return (its result, wall seconds
        less the slices, calibrated seconds). ``interp_share`` weights the
        interpreter part of the slowdown against the dense part."""
        current = []

        def on_alarm(signum, frame):
            current.append(self._slice())

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        wall = elapsed - sum(c[2] for c in current)
        if not current:  # shorter than one period
            current.append(self._slice())
        self.samples += [c[:2] for c in current]
        interp = statistics.fmean(c[0] for c in current) / INTERP_NOMINAL_S
        dense = statistics.fmean(c[1] for c in current) / DENSE_NOMINAL_S
        return result, wall, wall / (interp_share * interp + (1.0 - interp_share) * dense)


@dataclass
class OpResult:
    """One operation: its calibrated seconds by phase (``op`` is the whole
    operation), its raw wall seconds, and the problems its checks found
    (empty when the output is correct)."""

    seconds: dict
    wall: float
    problems: list
    paths: int = 0
    csv_sha256: str = ""


def call_cli(cli, argv) -> tuple:
    """Run ``cli.main(argv)`` with its stdout captured; return
    (exit code, stdout text)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Runner:
    """Runs operations of one workload inside a work directory.

    Simulate workloads also pool every operation's curve, so that
    ``pooled_problems`` can test the run's whole sample against the
    reference with far more power than one operation has.
    ``corrupt`` (used by the self-test) edits an operation's output files
    before they are checked, to show that the checks catch it.
    """

    def __init__(self, cli, workload: Workload, work_dir: str, calibration: Calibration,
                 n_paths=None, corrupt=None):
        self.cli = cli
        self.workload = workload
        self.work_dir = work_dir
        self.calibration = calibration
        self.corrupt = corrupt
        self.configs = []
        for name in workload.inputs:
            cfg = load_input(name)
            if workload.kind == "simulate":
                cfg["n_paths"] = n_paths or workload.n_paths
            path = os.path.join(work_dir, name)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            self.configs.append((path, cfg))
        if workload.kind == "simulate":
            self.reference = read_survival_csv(
                os.path.join(REFERENCE, workload.name + ".csv")
            )
            self.pooled_counts = np.zeros(self.configs[0][1]["k_max"] + 1)
            self.pooled_paths = 0
        else:
            with open(os.path.join(REFERENCE, "certify.json"), encoding="utf-8") as fh:
                self.reference = json.load(fh)

    def _timed(self, argv) -> tuple:
        """(exit code, stdout text, wall seconds, calibrated seconds)."""
        (code, text), wall, cal = self.calibration.timed(
            lambda: call_cli(self.cli, argv), self.workload.interp_share)
        return code, text, wall, cal

    def run(self, adn_seed: int) -> OpResult:
        if self.workload.kind == "simulate":
            return self._simulate(adn_seed)
        return self._certify()

    def _simulate(self, adn_seed: int) -> OpResult:
        path, cfg = self.configs[0]
        out = os.path.join(self.work_dir, "out")
        argv = ["simulate", "--config", path, "--out", out,
                "--seed", str(adn_seed), "--threads", "1"]
        code, _, wall, cal = self._timed(argv)
        res = OpResult({"op": cal}, wall, [], paths=cfg["n_paths"])
        if code != 0:
            res.problems.append(f"simulate exited {code}")
            return res
        if self.corrupt is not None:
            self.corrupt(out)
        with open(os.path.join(out, "survival.csv"), "rb") as fh:
            raw = fh.read()
        res.csv_sha256 = hashlib.sha256(raw).hexdigest()
        problems, probs = check_survival(raw.decode("utf-8"), cfg, self.reference)
        res.problems += problems
        if probs is not None:
            self.pooled_counts += np.round(probs * res.paths)
            self.pooled_paths += res.paths
        return res

    def pooled_problems(self) -> list:
        """Two-sample DKW test of all operations' paths pooled."""
        if not self.pooled_paths:
            return ["no operation produced a curve"]
        pooled = self.pooled_counts / self.pooled_paths
        return dkw_problems(pooled, self.pooled_paths, self.reference)

    def _certify(self) -> OpResult:
        (bound_path, _), (val_path, _) = self.configs
        seconds = {"bound": 0.0}
        problems, wall_total = [], 0.0
        for cmd in ("gamma-sp", "gamma-fs"):
            out = os.path.join(self.work_dir, cmd)
            code, _, wall, cal = self._timed([cmd, "--config", bound_path, "--out", out])
            seconds["bound"] += cal
            wall_total += wall
            if code != 0:
                problems.append(f"{cmd} exited {code}")
                continue
            if self.corrupt is not None:
                self.corrupt(out)
            problems += check_gamma(os.path.join(out, "gamma.csv"), self.reference[cmd])
        out = os.path.join(self.work_dir, "validate")
        code, text, wall, cal = self._timed(["validate", "--config", val_path, "--out", out])
        seconds["validate"] = cal
        seconds["op"] = seconds["bound"] + cal
        if code != 0:
            problems.append(f"validate exited {code}")
        if VALIDATE_VERDICT not in text.splitlines():
            problems.append(f"validate did not report {VALIDATE_VERDICT!r}")
        return OpResult(seconds, wall_total + wall, problems)


def read_survival_csv(path: str) -> tuple:
    """(probs, n_paths) of a survival.csv file."""
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return np.array([float(r[1]) for r in rows[1:]]), int(rows[1][2])


def dkw_threshold(n_a: int, n_b: int, alpha: float = DKW_ALPHA) -> float:
    """Two-sample DKW bound: by the one-sample inequality
    P(sup|F_n - F| > t) <= 2 exp(-2 n t^2) applied to each sample with
    alpha/2, two empirical curves of the same law differ by more than
    t_a + t_b with probability at most alpha."""
    c = math.log(4.0 / alpha) / 2.0
    return math.sqrt(c / n_a) + math.sqrt(c / n_b)


def check_survival(text: str, cfg: dict, reference) -> tuple:
    """Checks of a survival.csv that hold for any random stream. Returns
    (problems, probs), probs None when the file is unreadable."""
    problems = []
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["K", "prob", "n_paths"]:
        return ["survival.csv header is not K,prob,n_paths"], None
    rows = rows[1:]
    k_max, n = cfg["k_max"], cfg["n_paths"]
    if len(rows) != k_max + 1:
        return [f"survival.csv has {len(rows)} rows, expected {k_max + 1}"], None
    try:
        ks = [int(r[0]) for r in rows]
        probs = np.array([float(r[1]) for r in rows])
        counts = {int(r[2]) for r in rows}
    except (IndexError, ValueError) as exc:
        return [f"survival.csv row unreadable: {exc}"], None
    if ks != list(range(k_max + 1)):
        problems.append("survival.csv K column is not 0..k_max")
    if counts != {n}:
        problems.append(f"survival.csv n_paths column {sorted(counts)} != {n}")
    if not np.all((probs >= 0.0) & (probs <= 1.0)):
        problems.append("survival probability outside [0, 1]")
    if np.any(np.diff(probs) > 0.0):
        problems.append(f"survival curve increases at K={int(np.argmax(np.diff(probs) > 0)) + 1}")
    scaled = probs * n
    if np.any(np.abs(scaled - np.round(scaled)) > 1e-6):
        problems.append("some prob * n_paths is not an integer")
    start = 1.0 if off_consensus_sq(cfg["z0"]["values"]) >= cfg["eps"] else 0.0
    if probs[0] != start:
        problems.append(f"probs[0] = {probs[0]!r}, but ||Pz0||^2 vs eps gives {start}")
    problems += dkw_problems(probs, n, reference)
    return problems, probs


def dkw_problems(probs, n_paths: int, reference) -> list:
    """Two-sample DKW test of a curve from n_paths paths against the
    reference curve."""
    ref_probs, ref_paths = reference
    gap = float(np.max(np.abs(probs - ref_probs)))
    limit = dkw_threshold(n_paths, ref_paths)
    if gap > limit:
        return [f"curve of {n_paths} paths differs from the reference by {gap:.4f} "
                f"> DKW limit {limit:.4f}"]
    return []


def check_gamma(path: str, ref: dict) -> list:
    """A gamma.csv row must match the recorded reference to GAMMA_RTOL."""
    try:
        with open(path, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        row = rows[0]
        got = {k: float(row[k]) for k in ("rate", "weight_sum", "lambda_second")}
    except (OSError, IndexError, KeyError, ValueError) as exc:
        return [f"{path}: unreadable ({exc})"]
    problems = []
    for key, want in ref.items():
        if abs(got[key] - want) > GAMMA_RTOL * abs(want):
            problems.append(f"{os.path.basename(os.path.dirname(path))} {key} = {got[key]!r}, reference {want!r}")
    return problems
