"""The benchmark still finds every lelonglab name it wraps or imports.

perfbench/layers.py wraps module attributes by name (for example
lelonglab.mass.window_model_error, which mass.py imports only for it), so a
refactor that drops one of them breaks `perfbench/run.py --trace 1`. This
test makes that a test failure instead, and a second one pins what the trace
sees of the corpus: one exact-route call and no quadrature. A third
builds every workload of perfbench/workloads.py and runs its first op
through the command line, so a refactor that breaks a name the workloads
import, or an output they check, fails here too. A fourth keeps the trace's
foliation.jacobian_points counting on trig strips and on Poisson data that
departs from its tail.
"""

import contextlib
import importlib.util
import io
import json
import math
import sys
from pathlib import Path

import pytest

import lelonglab.mass
import lelonglab.theorems
from lelonglab import Eigenvalue, accumulation_family
from lelonglab.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is made
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _layers():
    return _load("layers")


def test_tracer_wraps_and_restores_every_traced_name():
    layers = _layers()
    original = lelonglab.mass.window_model_error
    tracer = layers.Tracer()
    with tracer:
        assert lelonglab.mass.window_model_error is not original
    assert lelonglab.mass.window_model_error is original


def test_traced_corpus_makes_one_exact_call_and_no_quadrature(monkeypatch):
    # every corpus schedule, the two Poisson ones among them, comes from one
    # exact-route call, and the flat Poisson data leaves no departure to
    # integrate: the trace sees no quadrature and no lelong_estimate, so no
    # schedule for its mass.bracket_misses to judge
    calls = []
    real = lelonglab.theorems._exact_masses

    def exact(*args):
        calls.append(len(args[0].trig))
        return real(*args)

    def no_quadrature(*args, **kwargs):
        raise AssertionError("the corpus called the quadrature engine")

    monkeypatch.setattr(lelonglab.theorems, "_exact_masses", exact)
    monkeypatch.setattr(lelonglab.mass, "integrate_lockstep", no_quadrature)
    monkeypatch.setattr(lelonglab.mass, "integrate", no_quadrature)
    with _layers().Tracer() as op:
        reports = lelonglab.theorems.run_corpus(42)
    assert len(reports) == 22 and all(report.verdict for report in reports)
    n_atoms = len(lelonglab.theorems._corpus_batch(42)[1].trig)
    assert calls == [n_atoms]
    assert op.schedules == []
    assert op.summary()["quadrature.calls"] == 0


def test_trace_counts_jacobian_points_on_strips_and_poisson(tmp_path):
    # foliation.jacobian_points is the last work counter the trace still
    # reads above 0: on trig strips and on Poisson data alike. Flat Poisson
    # data takes the exact route alone, so the samples carry a bump off the
    # tail, whose departures are integrated
    layers, workloads = _layers(), _load("workloads")
    lam = Eigenvalue.negative(-0.5)
    strips = tmp_path / "strips.json"
    strips.write_text(json.dumps(workloads._strip_payload(accumulation_family(lam, 8, alpha_base=0.9, b0=0.2))))
    poisson = tmp_path / "poisson.json"
    half = {"value": 0.5, "class": "rational", "a": 1, "b": 2}
    payload = workloads._poisson_payload(half, complex(1.1, 0.0), 1.0, 0.0)
    boundary = payload["atoms"][0]["spec"]["boundary"]
    boundary["values"] = [1.0 + math.exp(-((y - 10.0) ** 2)) for y in boundary["ys"]]
    poisson.write_text(json.dumps(payload))
    for argv in (["mass", "--input", str(strips), "--r", "1.0"], ["lelong", "--input", str(poisson)]):
        with layers.Tracer() as op, contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert op.summary()["foliation.jacobian_points"] > 0, argv


@pytest.mark.parametrize("name", sorted(_load("workloads").WORKLOADS))
def test_each_workload_passes_its_own_check(name, tmp_path):
    workload = _load("workloads").WORKLOADS[name](42, str(tmp_path))
    op = workload.ops[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(op.argv)
    op.check(out.getvalue(), code)
