import json
import math

import numpy as np
import pytest

from lelonglab import (
    Eigenvalue,
    FourierSpec,
    PoissonSpec,
    TransversalAtom,
    build_current,
)


@pytest.fixture
def flagship():
    """Constant atom at |alpha| = 1/2 for lambda = 1: mass 2.5 pi r^2."""
    return build_current(
        Eigenvalue.rational(1, 1),
        [TransversalAtom(0.5, 1.0, FourierSpec(b=1, a0=1.0))],
    )


@pytest.fixture
def neg_single():
    """Single strip atom at |alpha| = 1/e for lambda = -1."""
    return build_current(
        Eigenvalue.negative(-1.0),
        [TransversalAtom(math.exp(-1.0), 1.0, FourierSpec(b=1, a0=1.0, strip_c=1.0))],
    )


def flat_poisson(c_lin=0.0, half_turns=16, step_div=24):
    """Constant-1 boundary sampled on a grid whose step divides 2 pi."""
    n = 2 * half_turns * step_div + 1
    ys = np.linspace(-half_turns * math.pi, half_turns * math.pi, n)
    return PoissonSpec(ys=ys, values=np.ones(n), tail=1.0, c_lin=c_lin)


def spanning_poisson(c_lin=0.0, half_turns=16, step_div=24):
    """Samples 1 + sin(y/3)/2 over a tail of 1 on flat_poisson's grid: they depart from the tail at both ends."""
    n = 2 * half_turns * step_div + 1
    ys = np.linspace(-half_turns * math.pi, half_turns * math.pi, n)
    return PoissonSpec(ys=ys, values=1.0 + 0.5 * np.sin(ys / 3.0), tail=1.0, c_lin=c_lin)


@pytest.fixture
def announce(capfd):
    """One visible pass/fail line per acceptance criterion, capture or not."""

    def _announce(number, name, ok, detail):
        mark = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"ACCEPTANCE {number:02d} ({name}): {mark} - {detail}")

    return _announce


@pytest.fixture
def write_current(tmp_path):
    def _write(current_payload, name="current.json"):
        path = tmp_path / name
        path.write_text(json.dumps(current_payload))
        return str(path)

    return _write


FLAGSHIP_JSON = {
    "lambda": {"value": 1.0, "class": "rational", "a": 1, "b": 1},
    "atoms": [
        {
            "alpha": [0.5, 0.0],
            "weight": 1.0,
            "spec": {"type": "fourier", "b": 1, "a0": 1.0, "b0": 0.0, "modes": []},
        }
    ],
}
