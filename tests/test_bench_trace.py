"""Guard for the benchmark's per-layer trace: every module attribute that
``perfbench/spans.py`` rebinds must exist and still be called, so a rename
or a rewiring that would silently drop a layer from the trace fails here
rather than only in the benchmark's own self-test."""

import importlib.util
import json
from pathlib import Path

import adn_consensus
import adn_consensus.cli  # noqa: F401  (the trace rebinds names in cli)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# The event-driven engine draws a block's stars through the variant classes
# of ``adn_model`` and updates its rows in ``mc_sim._apply_stars``,
# so the per-period sampler binding is gone from mc_sim and two spans the
# benchmark still wraps record nothing on a simulate: ``generate_snapshot``
# and ``step``, now the one-path references the engine is tested against.
# The enumeration oracles build their Laplacian stacks from index arrays
# (``graph_core.star_union_laplacians``), so validation no longer imports
# ``snapshot_laplacian`` and its span, otherwise bound only in mc_sim for
# ``step``, records nothing either.
# The bounds are O(n): ``decay_bound`` reads the four distinct entries of
# the activation kernel from ``closed_form.activation_entries``, so spectral
# no longer imports ``activation_expectation``; and ``survivor_rates`` is a
# quadrature, so the Poisson-binomial recurrence behind
# ``spectral.poisson_binomial_pmf`` moved to ``tests/oracles.py`` and that
# span records nothing.
# Validate's checks live in ``validation.validate``, so the cli no longer
# imports what they call, and the trace's ``cli.*`` aliases of
# ``expm_sym``, ``activation_expectation``, ``survivor_rates``,
# ``enumerate_expected_exponential`` and ``verify_fast_switch_inequality``
# are gone. ``activation_expectation`` is then called only through
# validation's own binding, which the trace does not wrap, and
# ``verify_fast_switch_inequality`` had only its cli alias, so both spans
# record nothing. Checks 2 and 3 compare each bound with the second
# eigenvalue of the enumerated kernel, so ``lambda_second_deflated``, the
# dense reference's eigenvalue, moved to ``tests/oracles.py``.
# Checks 1-3 and check 5 each take their kernels from one summation over
# union graphs (``validation._kernel_sums``), so validate no longer
# calls ``enumerate_expected_exponential``, which stays for the tests and
# the public API, and its span records nothing.
# They stay pinned here, exactly, until the benchmark's trace drops them.
RETIRED_BINDINGS = [
    "mc_sim.generate_snapshot",
    "validation.snapshot_laplacian",
    "cli.expm_sym",
    "spectral.activation_expectation",
    "cli.activation_expectation",
    "cli.survivor_rates",
    "spectral.poisson_binomial_pmf",
    "spectral.lambda_second_deflated",
    "cli.enumerate_expected_exponential",
    "cli.verify_fast_switch_inequality",
]
RETIRED_SPANS = [
    "mc_sim.step",
    "adn_model.generate_snapshot",
    "adn_model.snapshot_laplacian",
    "closed_form.activation_expectation",
    "spectral.poisson_binomial_pmf",
    "spectral.lambda_second_deflated",
    "validation.enumerate_expected_exponential",
    "validation.verify_fast_switch_inequality",
]

SMALL = {
    "n": 5,
    "m": 2,
    "dt": 0.5,
    "eps": 0.1,
    "k_max": 20,
    "n_paths": 20,
    "seed": 42,
    "model": "sparse",
    "activity": {"mode": "explicit", "values": [0.05, 0.1, 0.2, 0.15, 0.08]},
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_binding_exists():
    spans = _load_spans()
    assert spans.Tracer(adn_consensus).absent == RETIRED_BINDINGS


def test_every_traced_span_records_calls(tmp_path, capsys):
    # A sparse config for the bounds, validate and one simulate, and busy
    # full-model and fastswitch configs so that simulate steps through
    # events. Every variant's engine rounds end in one traced norm call.
    configs = {}
    busy = {"mode": "explicit", "values": [0.3] * 5}
    for model, patch in (
        ("sparse", {}),
        ("full", {"model": "full", "activity": busy}),
        ("fastswitch", {"model": "fastswitch", "activity": busy}),
    ):
        configs[model] = tmp_path / f"{model}.json"
        configs[model].write_text(json.dumps({**SMALL, **patch}))
    spans = _load_spans()
    tracer = spans.Tracer(adn_consensus)
    draw = spans.INDEX["mc_sim.off_consensus_sq"]
    draws = {}
    out = str(tmp_path / "out")
    with tracer.installed():
        for command in ("gamma-sp", "gamma-fs", "validate"):
            argv = [command, "--config", str(configs["sparse"]), "--out", out]
            assert adn_consensus.cli.main(argv) == 0
        for model, path in configs.items():
            tracer.collect()
            before = int(tracer.calls[draw])
            argv = ["simulate", "--config", str(path), "--out", out]
            assert adn_consensus.cli.main(argv) == 0
            tracer.collect()
            draws[model] = int(tracer.calls[draw]) - before
    capsys.readouterr()
    assert all(draws.values()), draws
    silent = [name for name in spans.WRAPPED if tracer.calls[spans.INDEX[name]] == 0]
    assert silent == RETIRED_SPANS
