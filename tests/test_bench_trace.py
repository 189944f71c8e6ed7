"""Guard for the benchmark's per-layer trace: every module attribute that
``perfbench/spans.py`` rebinds must exist, so a rename that would silently
drop a layer from the trace fails here rather than only in the benchmark's
own self-test."""

import importlib.util
from pathlib import Path

import adn_consensus
import adn_consensus.cli  # noqa: F401  (the trace rebinds names in cli)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_binding_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.Tracer(adn_consensus).absent == []
