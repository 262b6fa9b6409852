"""The benchmark's layer trace still finds every lelonglab name it wraps.

perfbench/layers.py wraps module attributes by name (for example
lelonglab.mass.window_model_error, which mass.py imports only for it), so a
refactor that drops one of them breaks `perfbench/run.py --trace 1`. This
test makes that a test failure instead, and a second one keeps a refactor of
the corpus loop from hiding the schedules the trace still sees.
"""

import importlib.util
from pathlib import Path

import lelonglab.mass
import lelonglab.theorems

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_tracer_wraps_and_restores_every_traced_name():
    layers = _layers()
    original = lelonglab.mass.window_model_error
    tracer = layers.Tracer()
    with tracer:
        assert lelonglab.mass.window_model_error is not original
    assert lelonglab.mass.window_model_error is original


def test_traced_corpus_still_shows_the_poisson_schedules():
    # the two Poisson cases are scheduled through theorems.lelong_estimate,
    # which the trace wraps; the trig cases share one exact-route call
    with _layers().Tracer() as op:
        reports = lelonglab.theorems.run_corpus(42)
    assert len(reports) == 22
    assert len(op.schedules) == 2
    assert all(not lelonglab.mass.closed_form_applicable(current) for current, _ in op.schedules)
