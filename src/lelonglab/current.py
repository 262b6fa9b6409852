"""Directed harmonic currents as finite weighted sums of leaf atoms.

A current is an eigenvalue plus atoms (alpha_j, w_j, H_j): the leaf through
alpha_j, a positive weight, and a normalized harmonic density on the leaf's
plaque domain. All the integral formulas downstream reduce to weighted sums
over these atoms, which is what makes closed-form/quadrature comparisons
exact up to quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    EmptyLeafError,
    InputError,
    InvalidSpecError,
    NormalizationError,
)
from .foliation import Eigenvalue, monodromy
from .harmonic import (
    FourierSpec,
    HarmonicSpec,
    PoissonSpec,
    _require,
    boundary_value,
    check_positivity,
    evaluate,
    json_float,
    json_int,
    normalize,
    spec_from_json,
    spec_to_json,
    translate,
)

TWO_PI = 2.0 * math.pi

NORMALIZATION_TOL = 1e-12

# ell-1 slack when enforcing the half-plane positivity criterion: mode sums
# produced by exact translations accumulate a few ulps.
L1_SLACK = 1e-9


@dataclass(frozen=True)
class TransversalAtom:
    alpha: complex
    weight: float
    spec: HarmonicSpec

    @property
    def alpha_modulus(self) -> float:
        return abs(self.alpha)


@dataclass(frozen=True)
class Current:
    lam: Eigenvalue
    atoms: Tuple[TransversalAtom, ...]


def _base_value(spec: HarmonicSpec) -> float:
    """Density at u = v = 0, equal to evaluate(spec, 0.0, 0.0).

    For trig specs that is a0 + sum_k a_k, since every sine vanishes and
    every exponential is 1 there; the terms are added left to right, in the
    order evaluate adds them, so the sums agree to the bit.
    """
    if isinstance(spec, PoissonSpec):
        return evaluate(spec, 0.0, 0.0)
    base = float(spec.a0)
    for _, a, _ in spec.modes:
        base += a
    return base


def _validate_atom(lam: Eigenvalue, atom: TransversalAtom, index: int):
    tag = f"atoms[{index}]"
    if not (0.0 < abs(atom.alpha) < math.inf):
        raise InputError(f"{tag}.alpha: transversal point must be nonzero and finite")
    if not (atom.weight > 0.0) or not math.isfinite(atom.weight):
        raise InputError(f"{tag}.weight: weight must be positive and finite")
    spec = atom.spec
    am = atom.alpha_modulus
    if lam.is_negative:
        if am >= 1.0:
            raise EmptyLeafError(f"{tag}: leaf through |alpha| = {am} misses the bidisc when the eigenvalue is negative")
        if not isinstance(spec, FourierSpec) or not spec.on_strip:
            raise InvalidSpecError(f"{tag}.spec: negative eigenvalue atoms need a strip spec")
        c_expected = math.log(am) / lam.value
        if abs(spec.strip_c - c_expected) > 1e-9 * max(1.0, c_expected):
            raise InvalidSpecError(
                f"{tag}.spec.strip_c: strip height {spec.strip_c} does not match log|alpha|/lambda = {c_expected}"
            )
    else:
        if isinstance(spec, FourierSpec) and spec.on_strip:
            raise InvalidSpecError(f"{tag}.spec: positive eigenvalue atoms live on a half-plane, not a strip")
    base = _base_value(spec)
    if abs(base - 1.0) > NORMALIZATION_TOL:
        raise NormalizationError(f"{tag}.spec: density at the base point is {base}, expected 1")
    if isinstance(spec, FourierSpec):
        if spec.on_strip:
            # called through this module's name, which perfbench's tracer wraps
            try:
                positive = check_positivity(spec)
            except InvalidSpecError as exc:
                raise InvalidSpecError(f"{tag}." + str(exc)) from exc
            if not positive:
                raise InvalidSpecError(f"{tag}.spec: strip density dips negative")
        elif spec.mode_l1() > spec.a0 * (1.0 + L1_SLACK) + L1_SLACK:
            raise InvalidSpecError(
                f"{tag}.spec: mode coefficients sum to {spec.mode_l1()}, exceeding a0 = {spec.a0}"
            )
    # Poisson positivity is structural: nonnegative samples, tail, c_lin.


def build_current(lam: Eigenvalue, atoms: Sequence[TransversalAtom]) -> Current:
    """Validate every atom invariant and assemble the current."""
    if not atoms:
        raise InputError("atoms: a current needs at least one atom")
    atoms = tuple(atoms)
    for i, atom in enumerate(atoms):
        _validate_atom(lam, atom, i)
    return Current(lam=lam, atoms=atoms)


def total_weight(current: Current) -> float:
    return sum(atom.weight for atom in current.atoms)


def _poisson_period(spec: PoissonSpec, b_max: int) -> Optional[int]:
    """Least b with 2 pi b boundary periodicity at 1e-8, scanned numerically."""
    y_top = spec.half_width
    probe = np.linspace(-y_top - 2.0 * TWO_PI, y_top + 2.0 * TWO_PI, 2048)
    base = boundary_value(spec, probe)
    scale = max(1.0, float(np.max(np.abs(base))))
    for b in range(1, b_max + 1):
        shifted = boundary_value(spec, probe + TWO_PI * b)
        if float(np.max(np.abs(shifted - base))) <= 1e-8 * scale:
            return b
    return None


def is_periodic(current: Current, b_max: int = 12) -> Optional[int]:
    """Least b with every atom 2 pi b-periodic in u, or None.

    Fourier specs declare their period; Poisson specs get a numeric scan of
    the boundary profile. A constant boundary is 2 pi-periodic; a lone bump
    is not periodic at all.
    """
    b = 1
    for atom in current.atoms:
        if isinstance(atom.spec, FourierSpec):
            b_atom = atom.spec.b
        else:
            b_atom = _poisson_period(atom.spec, b_max)
            if b_atom is None:
                return None
        b = math.lcm(b, b_atom)
    return b


# ---------------------------------------------------------------------------
# family generators used by the verification corpus


def monodromy_family(
    lam: Eigenvalue,
    alpha: complex,
    weight: float,
    mother: FourierSpec,
) -> Tuple[TransversalAtom, ...]:
    """Complete deck orbit of one normalized mother atom for rational lambda.

    Member k sits at alpha e^{2 pi i k lambda} and carries the mother density
    seen through k deck turns, renormalized; its weight picks up the
    normalizing constant so the family represents one leaf consistently.
    """
    if lam.kind != "rational":
        raise InputError("monodromy families close up only for rational eigenvalues")
    if not isinstance(mother, FourierSpec) or mother.on_strip:
        raise InputError("monodromy families are built from half-plane trig specs")
    if mother.b != lam.b:
        raise InputError(f"mother period multiple {mother.b} must equal the eigenvalue denominator {lam.b}")
    atoms = []
    for k in range(lam.b):
        spec_k, c_k = translate(mother, k)
        atoms.append(
            TransversalAtom(
                alpha=monodromy(lam, alpha, k),
                weight=weight * c_k,
                spec=spec_k,
            )
        )
    return tuple(atoms)


def accumulation_family(
    lam: Eigenvalue,
    count: int,
    alpha_base: float = 0.25,
    weight_base: float = 0.5,
    b0: float = 0.0,
    modes: Tuple[Tuple[int, float, float], ...] = (),
) -> Tuple[TransversalAtom, ...]:
    """Geometric family alpha_j = alpha_base^j accumulating at the origin.

    The interesting zero-Lelong behavior for negative eigenvalues needs
    atoms surviving arbitrarily small radii; a single strip atom has an
    empty plaque for all small r. Each member gets the strip height its
    modulus dictates and is normalized at the base point.
    """
    if not lam.is_negative:
        raise InputError("accumulation families model the negative-eigenvalue theorems")
    if count < 1:
        raise InputError("need at least one family member")
    if not (0.0 < alpha_base < 1.0):
        raise InputError("alpha_base must lie in (0, 1)")
    atoms = []
    for j in range(1, count + 1):
        am = alpha_base**j
        spec = FourierSpec(
            b=1,
            a0=1.0,
            b0=b0,
            modes=modes,
            strip_c=math.log(am) / lam.value,
        )
        atoms.append(TransversalAtom(alpha=am, weight=weight_base**j, spec=normalize(spec)))
    return tuple(atoms)


# ---------------------------------------------------------------------------
# serialization


def eigenvalue_to_json(lam: Eigenvalue) -> dict:
    out = {"value": lam.value, "class": lam.kind}
    if lam.kind == "rational":
        out["a"] = lam.a
        out["b"] = lam.b
    return out


def _eigenvalue_value(obj: dict, path: str) -> float:
    try:
        return json_float(obj["value"], path, "value")
    except OverflowError as exc:
        raise InputError(f"{path}.value: non-numeric eigenvalue value ({exc})") from exc


def eigenvalue_from_json(obj, path: str = "lambda") -> Eigenvalue:
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected an object")
    kind = obj.get("class")
    # no repr of a non-string: the two decoders give big integers as int or float
    if not isinstance(kind, str):
        raise InputError(f"{path}.class: expected one of the strings 'rational', 'irrational', 'negative'")
    if kind == "rational":
        if "a" not in obj or "b" not in obj:
            raise InputError(f"{path}: rational eigenvalue needs integer fields a and b")
        a, b = json_int(obj["a"], path, "a"), json_int(obj["b"], path, "b")
        if "value" in obj:
            value = _eigenvalue_value(obj, path)
        elif b == 0:
            # the default value a/b needs b != 0; the constructor rejects b < 0
            raise InputError(f"{path}.b: rational eigenvalue needs an integer b >= 1")
        else:
            value = a / b
        fields = (value, kind, a, b)
    elif kind in ("irrational", "negative"):
        if "value" not in obj:
            raise InputError(f"{path}.value: missing eigenvalue value")
        fields = (_eigenvalue_value(obj, path), kind)
    else:
        raise InputError(f"{path}.class: unknown eigenvalue class {kind!r}")
    try:
        return Eigenvalue(*fields)
    except InputError as exc:
        # the constructor names fields from "lambda"; name them from path
        raise InputError(path + str(exc).removeprefix("lambda")) from exc


def current_to_json(current: Current) -> dict:
    return {
        "lambda": eigenvalue_to_json(current.lam),
        "atoms": [
            {
                "alpha": [atom.alpha.real, atom.alpha.imag],
                "weight": atom.weight,
                "spec": spec_to_json(atom.spec),
            }
            for atom in current.atoms
        ],
    }


def current_from_json(obj) -> Current:
    if not isinstance(obj, dict):
        raise InputError("current: expected a JSON object")
    lam = eigenvalue_from_json(_require(obj, "lambda", ""), "lambda")
    atoms_obj = _require(obj, "atoms", "")
    if not isinstance(atoms_obj, list) or not atoms_obj:
        raise InputError("atoms: expected a nonempty list")
    atoms = []
    for i, entry in enumerate(atoms_obj):
        tag = f"atoms[{i}]"
        if not isinstance(entry, dict):
            raise InputError(f"{tag}: expected an object")
        alpha_pair = _require(entry, "alpha", tag)
        if not isinstance(alpha_pair, (list, tuple)) or len(alpha_pair) != 2:
            raise InputError(f"{tag}.alpha: expected [re, im]")
        weight = _require(entry, "weight", tag)
        try:
            alpha = complex(json_float(alpha_pair[0], tag, "alpha"), json_float(alpha_pair[1], tag, "alpha"))
            weight = json_float(weight, tag, "weight")
        except OverflowError as exc:
            raise InputError(f"{tag}: non-numeric alpha or weight ({exc})") from exc
        spec = spec_from_json(_require(entry, "spec", tag), f"{tag}.spec")
        atoms.append(TransversalAtom(alpha=alpha, weight=weight, spec=spec))
    return build_current(lam, atoms)
