"""Outside-in tracing of the package's layers.

While installed, a Tracer rebinds each layer's public functions to timing
wrappers at the module attributes their callers look up (``mc_sim`` calls
``mc_sim.generate_snapshot``, not ``adn_model.generate_snapshot``). Every
call leaves a span (name, start, end, parent) in memory; ``collect`` folds
the spans of one operation into per-name totals and drops them. A span's
self time is its duration minus the durations of its child spans.

Nothing under ``src/`` changes. A binding that no longer exists is reported
in ``Tracer.absent`` and left alone, never created.
"""

import functools
import statistics
import time
from contextlib import contextmanager

import numpy as np

# Span name -> the module attributes (relative to the package) its callers
# look up. The span name is the layer and function that define it.
WRAPPED = {
    "cli.main": ("cli.main",),
    "cli.parse_config": ("cli.parse_config",),
    "cli.resolve_config": ("cli.resolve_config",),
    "mc_sim.run_paths": ("cli.run_paths",),
    "mc_sim.fit_decay_stats": ("cli.fit_decay_stats",),
    "mc_sim.step": ("mc_sim.step",),
    "mc_sim.off_consensus_sq": ("mc_sim.off_consensus_sq",),
    "adn_model.generate_snapshot": ("mc_sim.generate_snapshot",),
    "adn_model.snapshot_laplacian": ("mc_sim.snapshot_laplacian", "validation.snapshot_laplacian"),
    "graph_core.expm_sym": ("mc_sim.expm_sym", "validation.expm_sym", "cli.expm_sym"),
    "closed_form.activation_expectation": (
        "closed_form.activation_expectation",
        "spectral.activation_expectation",
        "cli.activation_expectation",
    ),
    "spectral.gamma_sp": ("cli.gamma_sp",),
    "spectral.gamma_fs": ("cli.gamma_fs",),
    "spectral.survivor_rates": ("spectral.survivor_rates", "cli.survivor_rates"),
    "spectral.poisson_binomial_pmf": ("spectral.poisson_binomial_pmf",),
    "spectral.lambda_second_deflated": ("spectral.lambda_second_deflated",),
    "validation.enumerate_expected_exponential": (
        "validation.enumerate_expected_exponential",
        "cli.enumerate_expected_exponential",
    ),
    "validation.verify_fast_switch_inequality": ("cli.verify_fast_switch_inequality",),
}

NAMES = tuple(WRAPPED)
INDEX = {name: i for i, name in enumerate(NAMES)}

# Unit of each per-layer metric, in the order the benchmark reports them.
# Suffixes: ``.calls`` and ``.s``/``.self_s`` are per operation, ``_us`` is
# per call, ``_per_path`` is per simulated path.
LAYER_METRICS = {
    "mc_sim.steps_per_path": "calls/path",
    "mc_sim.run_paths.self_s": "s",
    "mc_sim.step.calls_per_path": "calls/path",
    "mc_sim.step.self_us": "us",
    "mc_sim.off_consensus_sq.calls_per_path": "calls/path",
    "mc_sim.off_consensus_sq.self_us": "us",
    "mc_sim.fit_decay_stats.s": "s",
    "adn_model.generate_snapshot.self_us": "us",
    "adn_model.idle_frac": "ratio",
    "adn_model.multi_star_frac": "ratio",
    "adn_model.snapshot_laplacian.self_us": "us",
    "graph_core.expm_sym.calls": "calls",
    "graph_core.expm_sym.self_us": "us",
    "closed_form.activation_expectation.calls": "calls",
    "closed_form.activation_expectation.self_us": "us",
    "spectral.gamma_sp.self_s": "s",
    "spectral.gamma_fs.self_s": "s",
    "spectral.survivor_rates.self_s": "s",
    "spectral.poisson_binomial_pmf.calls": "calls",
    "spectral.poisson_binomial_pmf.self_us": "us",
    "spectral.lambda_second_deflated.self_s": "s",
    "validation.branches": "count",
    "validation.us_per_branch": "us",
    "validation.enumerate_expected_exponential.self_s": "s",
    "validation.verify_fast_switch_inequality.s": "s",
    "cli.parse_config.s": "s",
    "cli.resolve_config.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def _resolve(pkg, binding: str):
    """(module, attribute) of a binding, or None when it does not exist."""
    mod_name, attr = binding.split(".")
    mod = getattr(pkg, mod_name, None)
    if mod is None or not hasattr(mod, attr):
        return None
    return mod, attr


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.absent = [b for bs in WRAPPED.values() for b in bs if _resolve(pkg, b) is None]
        self._spans = []
        self._stack = [-1]
        k = len(NAMES)
        self.calls = np.zeros(k, dtype=np.int64)
        self.total = np.zeros(k)
        self.self_time = np.zeros(k)
        self.child_calls = np.zeros((k, k), dtype=np.int64)  # [parent, child]
        self.snapshots = {"drawn": 0, "idle": 0, "multi": 0}

    def _wrap(self, name: str, fn):
        spans, stack, clock, nid = self._spans, self._stack, time.perf_counter, INDEX[name]
        observe = self._observe_snapshot if name == "adn_model.generate_snapshot" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[i] = (nid, t0, clock(), parent)
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _observe_snapshot(self, snap):
        k = len(snap.events)
        self.snapshots["drawn"] += 1
        self.snapshots["idle"] += k == 0
        self.snapshots["multi"] += k >= 2

    @contextmanager
    def installed(self):
        """Rebind every existing binding to a wrapper; restore on exit."""
        saved = []
        try:
            for name, bindings in WRAPPED.items():
                for b in bindings:
                    found = _resolve(self.pkg, b)
                    if found is None:
                        continue
                    mod, attr = found
                    original = getattr(mod, attr)
                    saved.append((mod, attr, original))
                    setattr(mod, attr, self._wrap(name, original))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def collect(self):
        """Fold the spans recorded so far into the per-name totals."""
        if not self._spans:
            return
        arr = np.array(self._spans, dtype=np.float64)
        self._spans.clear()
        nid = arr[:, 0].astype(np.intp)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(np.intp)
        has = parent >= 0
        child_dur = np.zeros(len(arr))
        np.add.at(child_dur, parent[has], dur[has])
        k = len(NAMES)
        self.calls += np.bincount(nid, minlength=k)
        self.total += np.bincount(nid, weights=dur, minlength=k)
        self.self_time += np.bincount(nid, weights=dur - child_dur, minlength=k)
        pairs = nid[parent[has]] * k + nid[has]
        self.child_calls += np.bincount(pairs, minlength=k * k).reshape(k, k)

    def metrics(self, ops: int, paths: int, traced_s: list, untraced_s: list) -> dict:
        """Per-layer metrics over ``ops`` traced operations that simulated
        ``paths`` paths in all; ``traced_s``/``untraced_s`` are the op times
        of the traced and the untraced operations of the same run."""

        def calls(name):
            return int(self.calls[INDEX[name]])

        def per_op(x):
            return float(x) / ops

        def per_path(name):
            return calls(name) / paths if paths else 0.0

        def self_us(name):
            c = calls(name)
            return float(self.self_time[INDEX[name]]) / c * 1e6 if c else 0.0

        def self_s(name):
            return per_op(self.self_time[INDEX[name]])

        def total_s(name):
            return per_op(self.total[INDEX[name]])

        snaps = self.snapshots
        drawn = snaps["drawn"]
        branches = int(self.child_calls[INDEX["validation.enumerate_expected_exponential"],
                                        INDEX["graph_core.expm_sym"]])
        enum_total = float(self.total[INDEX["validation.enumerate_expected_exponential"]])
        out = {
            "mc_sim.steps_per_path": per_path("adn_model.generate_snapshot"),
            "mc_sim.run_paths.self_s": self_s("mc_sim.run_paths"),
            "mc_sim.step.calls_per_path": per_path("mc_sim.step"),
            "mc_sim.step.self_us": self_us("mc_sim.step"),
            "mc_sim.off_consensus_sq.calls_per_path": per_path("mc_sim.off_consensus_sq"),
            "mc_sim.off_consensus_sq.self_us": self_us("mc_sim.off_consensus_sq"),
            "mc_sim.fit_decay_stats.s": total_s("mc_sim.fit_decay_stats"),
            "adn_model.generate_snapshot.self_us": self_us("adn_model.generate_snapshot"),
            "adn_model.idle_frac": snaps["idle"] / drawn if drawn else 0.0,
            "adn_model.multi_star_frac": snaps["multi"] / drawn if drawn else 0.0,
            "adn_model.snapshot_laplacian.self_us": self_us("adn_model.snapshot_laplacian"),
            "graph_core.expm_sym.calls": per_op(calls("graph_core.expm_sym")),
            "graph_core.expm_sym.self_us": self_us("graph_core.expm_sym"),
            "closed_form.activation_expectation.calls": per_op(
                calls("closed_form.activation_expectation")),
            "closed_form.activation_expectation.self_us": self_us(
                "closed_form.activation_expectation"),
            "spectral.gamma_sp.self_s": self_s("spectral.gamma_sp"),
            "spectral.gamma_fs.self_s": self_s("spectral.gamma_fs"),
            "spectral.survivor_rates.self_s": self_s("spectral.survivor_rates"),
            "spectral.poisson_binomial_pmf.calls": per_op(calls("spectral.poisson_binomial_pmf")),
            "spectral.poisson_binomial_pmf.self_us": self_us("spectral.poisson_binomial_pmf"),
            "spectral.lambda_second_deflated.self_s": self_s("spectral.lambda_second_deflated"),
            "validation.branches": per_op(branches),
            "validation.us_per_branch": enum_total / branches * 1e6 if branches else 0.0,
            "validation.enumerate_expected_exponential.self_s": self_s(
                "validation.enumerate_expected_exponential"),
            "validation.verify_fast_switch_inequality.s": total_s(
                "validation.verify_fast_switch_inequality"),
            "cli.parse_config.s": total_s("cli.parse_config"),
            "cli.resolve_config.s": total_s("cli.resolve_config"),
            "cli.main.self_s": self_s("cli.main"),
            "trace.overhead_frac": statistics.median(traced_s) / statistics.median(untraced_s) - 1.0,
        }
        assert list(out) == list(LAYER_METRICS)
        return out
