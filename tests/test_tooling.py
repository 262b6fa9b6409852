"""The benchmark's layer trace still finds every lelonglab name it wraps.

perfbench/layers.py wraps module attributes by name (for example
lelonglab.mass.window_model_error, which mass.py imports only for it), so a
refactor that drops one of them breaks `perfbench/run.py --trace 1`. This
test makes that a test failure instead.
"""

import importlib.util
from pathlib import Path

import lelonglab.mass

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_tracer_wraps_and_restores_every_traced_name():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    original = lelonglab.mass.window_model_error
    tracer = layers.Tracer()
    with tracer:
        assert lelonglab.mass.window_model_error is not original
    assert lelonglab.mass.window_model_error is original
