"""Workload inputs, operations and output checks for the lelonglab benchmark.

Each workload turns a seed into JSON input files, a fixed cycle of CLI
argument lists, and one reference per operation. References come from a
route other than the one being timed: the Poisson schedules are checked
against the closed form of their constant-density trigonometric twin, the
strip masses against the closed form evaluated on the in-memory current
(never on the JSON the CLI parses), and the corpus against its own report
file. Known defects that are not output errors (limit brackets that miss
the reference, ROADMAP 2b) are counted by the trace, not gated here.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from lelonglab.current import TransversalAtom, accumulation_family, build_current
from lelonglab.foliation import Eigenvalue
from lelonglab.harmonic import FourierSpec
from lelonglab.mass import mass_closed_form

# Poisson grid: step pi/24 divides 2 pi (deck-exact windows, as in the
# corpus), 12289 points, so the grid spans +-256 pi.
POISSON_POINTS = 12289
POISSON_STEP = math.pi / 24.0
SCHEDULE_STEPS = 12  # the CLI default: r = 1, 1/2, ..., 2^-11

STRIP_ATOMS = 256
STRIP_RADII = (1.0, 0.5, 0.25, 0.125)

CORPUS_VERIFIERS = 22


class CheckFailure(Exception):
    """An operation's output disagrees with its reference."""


@dataclass
class Op:
    argv: List[str]
    check: Callable[[str, int], None]  # (captured stdout, exit code)


@dataclass
class Workload:
    """One seeded workload: a cycle of ops plus what describes its inputs."""

    ops: List[Op]
    sizes: Dict[str, object]


def _rng(name: str, seed: int) -> random.Random:
    # string seeding hashes with SHA-512, so inputs do not depend on numpy
    return random.Random(f"{name}:{seed}")


def _write_json(path: str, payload: dict) -> int:
    text = json.dumps(payload)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return len(text.encode("utf-8"))


def _expect_exit_zero(code: int) -> None:
    if code != 0:
        raise CheckFailure(f"exit code {code}")


# ---------------------------------------------------------------------------
# poisson-schedule


def _poisson_payload(lam: dict, alpha: complex, weight: float, c_lin: float) -> dict:
    half = (POISSON_POINTS - 1) // 2 * POISSON_STEP
    ys = np.linspace(-half, half, POISSON_POINTS)
    return {
        "lambda": lam,
        "atoms": [
            {
                "alpha": [alpha.real, alpha.imag],
                "weight": weight,
                "spec": {
                    "type": "poisson",
                    "boundary": {
                        "ys": [float(y) for y in ys],
                        "values": [1.0] * POISSON_POINTS,
                        "tail": 1.0,
                    },
                    "c_lin": c_lin,
                },
            }
        ],
    }


def _twin_nus(lam: Eigenvalue, alpha: complex, weight: float, c_lin: float) -> List[float]:
    """nu(r_n) of the constant-density trig twin a0 = 1, b0 = c_lin, in closed form.

    A flat boundary profile with flat tails has the harmonic extension
    1 + c_lin v, so the twin has exactly the same density as the Poisson atom.
    """
    twin = build_current(lam, [TransversalAtom(alpha, weight, FourierSpec(b=1, a0=1.0, b0=c_lin))])
    nus = []
    for n in range(SCHEDULE_STEPS):
        r = 0.5**n
        nus.append(mass_closed_form(twin, r) / (math.pi * r * r))
    return nus


def _schedule_check(ref_nus: Sequence[float], diverging: bool):
    def check(out: str, code: int) -> None:
        _expect_exit_zero(code)
        payload = json.loads(out)
        nus, errs = payload["nus"], payload["errs"]
        if len(nus) != len(ref_nus) or len(errs) != len(ref_nus):
            raise CheckFailure(f"schedule has {len(nus)} radii, expected {len(ref_nus)}")
        for n, (nu, err, ref) in enumerate(zip(nus, errs, ref_nus)):
            if not (abs(nu - ref) <= err + 1e-9 * abs(ref)):
                raise CheckFailure(
                    f"nu(r_{n}) = {nu!r} vs closed-form twin {ref!r}, err {err!r}"
                )
        if payload["diverging"] is not diverging:
            raise CheckFailure(f"diverging = {payload['diverging']}, expected {diverging}")

    return check


def poisson_schedule(seed: int, workdir: str) -> Workload:
    rng = _rng("poisson-schedule", seed)
    # (label, JSON eigenvalue, |alpha|, c_lin, diverging)
    specs = (
        ("a", {"value": math.sqrt(2.0) - 1.0, "class": "irrational"}, 1.3, 0.0, False),
        ("b", {"value": 0.5, "class": "rational", "a": 1, "b": 2}, 1.1, 0.6, True),
    )
    ops, json_bytes = [], {}
    for label, lam_json, modulus, c_lin, diverging in specs:
        weight = rng.uniform(0.5, 2.0)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        alpha = modulus * complex(math.cos(theta), math.sin(theta))
        path = os.path.join(workdir, f"poisson-{label}.json")
        json_bytes[label] = _write_json(path, _poisson_payload(lam_json, alpha, weight, c_lin))
        if lam_json["class"] == "rational":
            lam = Eigenvalue.rational(lam_json["a"], lam_json["b"])
        else:
            lam = Eigenvalue.irrational(lam_json["value"])
        ref = _twin_nus(lam, alpha, weight, c_lin)
        ops.append(Op(["lelong", "--input", path], _schedule_check(ref, diverging)))
    return Workload(
        ops,
        {"grid_points": POISSON_POINTS, "atoms_per_current": 1,
         "radii_per_op": SCHEDULE_STEPS, "json_bytes": json_bytes},
    )


# ---------------------------------------------------------------------------
# strip-family-mass


def _strip_payload(atoms: Sequence[TransversalAtom]) -> dict:
    return {
        "lambda": {"value": -0.5, "class": "negative"},
        "atoms": [
            {
                "alpha": [atom.alpha.real, atom.alpha.imag],
                "weight": atom.weight,
                "spec": {
                    "type": "fourier",
                    "b": atom.spec.b,
                    "a0": atom.spec.a0,
                    "b0": atom.spec.b0,
                    "modes": [list(m) for m in atom.spec.modes],
                    "strip_c": atom.spec.strip_c,
                },
            }
            for atom in atoms
        ],
    }


def _mass_check(ref: float):
    def check(out: str, code: int) -> None:
        _expect_exit_zero(code)
        payload = json.loads(out)
        value = payload["quadrature"]["value"]
        err = payload["quadrature"]["error_estimate"]
        if not (abs(value - ref) <= err + 1e-12 * abs(ref)):
            raise CheckFailure(f"quadrature {value!r} vs closed form {ref!r}, err {err!r}")
        closed = payload["closed_form"]
        if closed is None or not abs(closed - ref) <= 1e-12 * abs(ref):
            raise CheckFailure(f"reported closed form {closed!r} vs {ref!r}")

    return check


def strip_family_mass(seed: int, workdir: str) -> Workload:
    rng = _rng("strip-family-mass", seed)
    a, b = rng.uniform(-0.03, 0.03), rng.uniform(-0.03, 0.03)
    lam = Eigenvalue.negative(-0.5)
    atoms = accumulation_family(lam, STRIP_ATOMS, alpha_base=0.9, b0=0.2, modes=((-1, a, b),))
    current = build_current(lam, atoms)
    path = os.path.join(workdir, "strip-family.json")
    size = _write_json(path, _strip_payload(atoms))
    ops = [
        Op(["mass", "--input", path, "--r", repr(r)], _mass_check(mass_closed_form(current, r)))
        for r in STRIP_RADII
    ]
    return Workload(
        ops,
        {"atoms": STRIP_ATOMS, "radii": list(STRIP_RADII), "json_bytes": size,
         "mode": [-1, a, b]},
    )


# ---------------------------------------------------------------------------
# corpus-verify


def _corpus_check(report_path: str):
    def check(out: str, code: int) -> None:
        del out  # stdout mixes JSON and a text table; the --out file is pure JSON
        _expect_exit_zero(code)
        with open(report_path, "r", encoding="utf-8") as fh:
            reports = json.load(fh)
        passed = sum(1 for rep in reports if rep["verdict"] == "pass")
        if len(reports) != CORPUS_VERIFIERS or passed != CORPUS_VERIFIERS:
            raise CheckFailure(f"{passed}/{len(reports)} verifiers passed, expected {CORPUS_VERIFIERS}")
        os.remove(report_path)  # the next op must write a fresh one

    return check


def corpus_verify(seed: int, workdir: str) -> Workload:
    path = os.path.join(workdir, "verify-report.json")
    op = Op(["verify", "--seed", str(seed), "--out", path], _corpus_check(path))
    return Workload([op], {"cases": 16, "verifiers": CORPUS_VERIFIERS})


WORKLOADS = {
    "poisson-schedule": poisson_schedule,
    "strip-family-mass": strip_family_mass,
    "corpus-verify": corpus_verify,
}
