"""Regenerate the golden CLI outputs under tests/data/.

tests/test_cli.py (TestGoldenOutputs) compares the CLI's output with these
files: the verify reports at seeds 42 and 7, the lelong schedule of each of
the corpus's two Poisson currents, the sweep CSV with its default schedule,
and the mass of three many-atom currents on the quadrature route
(mass-families.json). Keys, verdicts, radii and flags must match exactly;
each number must lie within the error that the same output reports for it,
or within a few ulps where it reports none, since numpy's exp, log, sin and
cos round differently on different CPU features. Regenerate the files only
for a change that is meant to move the numbers beyond that, and say so with
the change:

    PYTHONPATH=src python scripts/make_golden.py [out_dir]
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from lelonglab import (
    Eigenvalue,
    FourierSpec,
    PoissonSpec,
    TransversalAtom,
    accumulation_family,
    build_current,
    current_to_json,
    normalize,
)
from lelonglab.cli import main as cli_main
from lelonglab.theorems import corpus

POISSON_CASES = ("pos-silver-poisson-flat", "div-half-poisson-linear")
VERIFY_SEEDS = ("42", "7")
FAMILY_RADII = ("1", "0.5", "0.125")
FAMILY_K0S = ("0", "-2")


def _family_currents():
    """Three many-atom currents for the quadrature route, by name.

    A 64-atom strip family at lambda = -1/2, whose outer atoms have empty
    plaques at small r; 20 half-plane trig atoms at lambda = 1/2 with |alpha|
    from 0.3 to 3; and a 769-node bump Poisson atom with two trig atoms.
    """
    neg = Eigenvalue.negative(-0.5)
    strips = accumulation_family(neg, 64, alpha_base=0.9, b0=0.2, modes=((-1, 0.02, 0.01),))
    half = Eigenvalue.rational(1, 2)
    planes = []
    for j in range(20):
        modes = ((-1, 0.02 * (j % 7), -0.01 * (j % 5)), (-3, 0.01 * (j % 3), 0.005))
        spec = normalize(FourierSpec(b=2, a0=1.0, b0=0.05 * (j % 4), modes=modes))
        alpha = 0.3 * 10.0 ** (j / 19.0) * complex(math.cos(0.3 * j), math.sin(0.3 * j))
        planes.append(TransversalAtom(alpha, 0.9 ** j, spec))
    silver = Eigenvalue.irrational(math.sqrt(2.0) - 1.0)
    ys = np.linspace(-16.0 * math.pi, 16.0 * math.pi, 769)
    bump = normalize(PoissonSpec(ys=ys, values=0.3 + np.exp(-(ys**2) / 8.0), tail=0.3))
    mixed = [
        TransversalAtom(1.3, 1.0, bump),
        TransversalAtom(0.5, 0.7, normalize(FourierSpec(b=1, a0=1.0, modes=((-1, 0.3, 0.1),)))),
        TransversalAtom(2.0 * complex(math.cos(0.7), math.sin(0.7)), 0.4, FourierSpec(b=1, a0=1.0, b0=0.2)),
    ]
    return {
        "strip-family-neg-half": build_current(neg, strips),
        "half-plane-family-half": build_current(half, planes),
        "mixed-bump-poisson-trig": build_current(silver, mixed),
    }


def mass_families() -> str:
    """The mass-families.json text: each current's mass stdout at every radius and k0, parsed."""
    out = {}
    for name, current in _family_currents().items():
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False, encoding="utf-8") as fh:
            fh.write(json.dumps(current_to_json(current)))
            path = fh.name
        runs = []
        try:
            for r in FAMILY_RADII:
                for k0 in FAMILY_K0S:
                    text = io.StringIO()
                    with contextlib.redirect_stdout(text):
                        status = cli_main(["mass", "--input", path, "--r", r, "--k0", k0])
                    if status != 0:
                        raise RuntimeError(f"mass failed for {name} at r = {r}, k0 = {k0}")
                    runs.append(json.loads(text.getvalue()))
        finally:
            os.unlink(path)
        out[name] = runs
    return json.dumps(out, indent=2) + "\n"


def main(out_root: str = os.path.join("tests", "data")) -> int:
    os.makedirs(out_root, exist_ok=True)
    for seed in VERIFY_SEEDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = cli_main(["verify", "--seed", seed, "--out", os.path.join(out_root, f"verify-seed{seed}.json")])
        if status != 0:
            print(f"verify failed at seed {seed}", file=sys.stderr)
            return status
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli_main(["sweep", "--out", os.path.join(out_root, "sweep.csv")])
    if status != 0:
        print("sweep failed", file=sys.stderr)
        return status
    currents = {case.case_id: case.current for case in corpus(42)}
    for case_id in POISSON_CASES:
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False, encoding="utf-8") as fh:
            fh.write(json.dumps(current_to_json(currents[case_id])))
            path = fh.name
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                status = cli_main(["lelong", "--input", path])
        finally:
            os.unlink(path)
        if status != 0:
            print(f"lelong failed for {case_id}", file=sys.stderr)
            return status
        with open(os.path.join(out_root, f"lelong-{case_id}.json"), "w", encoding="utf-8") as fh:
            fh.write(out.getvalue())
    with open(os.path.join(out_root, "mass-families.json"), "w", encoding="utf-8") as fh:
        fh.write(mass_families())
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
