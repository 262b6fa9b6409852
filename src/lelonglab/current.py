"""Directed harmonic currents as finite weighted sums of leaf atoms.

A current is an eigenvalue plus atoms (alpha_j, w_j, H_j): the leaf through
alpha_j, a positive weight, and a normalized harmonic density on the leaf's
plaque domain. All the integral formulas downstream reduce to weighted sums
over these atoms, which is what makes closed-form/quadrature comparisons
exact up to quadrature error.

A current keeps its atoms as one AtomTable: alpha, |alpha| and the weights
as columns, the trig specs as FourierColumns with their flat mode table,
and each Poisson spec as its object. current_from_json fills the table
straight from the decoded lists, checking each field's type column by
column; build_current builds it from atom objects. One validator checks
the table for both, and both mass routes read it. A loaded current builds
its TransversalAtom and FourierSpec objects only when .atoms is first read.

One AtomTable can hold many currents, row after row, with each row's
eigenvalue and current index as two more columns. build_currents validates
a whole corpus that way, in one _validate call whose sign-dependent checks
are row masks, and the exact route (mass._exact_masses) integrates every
current of such a table in one call. build_current is the batch of one.
The per-call cost of the array code (about a dozen arrays and a few dozen
numpy calls, whatever the atom count) is so paid once per table, not once
per current.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import chain, compress, repeat
from operator import eq, is_not, itemgetter
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    EmptyLeafError,
    InputError,
    InvalidSpecError,
    NormalizationError,
)
from .foliation import Eigenvalue, monodromy
from .harmonic import (
    POSITIVITY_TOL,
    FourierColumns,
    FourierSpec,
    HarmonicSpec,
    PoissonSpec,
    _require,
    boundary_value,
    check_positivity,
    evaluate,
    fourier_columns,
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

# exp overflows a little above this; an edge growth e^{k C / b} past it
# is left to check_positivity, which refuses the spec as an input error
EXP_SAFE = 709.0


@dataclass(frozen=True)
class TransversalAtom:
    alpha: complex
    weight: float
    spec: HarmonicSpec

    @property
    def alpha_modulus(self) -> float:
        return abs(self.alpha)


# a NamedTuple, not a dataclass: it costs a fifth as much to define at import
class AtomTable(NamedTuple):
    """The atoms of one or more currents as columns, one row per atom.

    Rows run current by current, each current's atoms in atom order.
    alpha_re, alpha_im, moduli and weights are float columns, and trig marks
    the trig-series atoms. fourier holds their specs; poisson holds each
    Poisson atom's spec, and None on trig rows. The moduli are np.hypot of
    alpha, bit for bit abs(alpha), and inf where abs would overflow. lam is
    each row's eigenvalue, and current the index of the row's current, so
    every check and sum that depends on the eigenvalue reads it by row.
    """

    alpha_re: np.ndarray
    alpha_im: np.ndarray
    moduli: np.ndarray
    weights: np.ndarray
    trig: np.ndarray
    fourier: FourierColumns
    poisson: Tuple[Optional[PoissonSpec], ...]
    lam: np.ndarray
    current: np.ndarray

    def atom(self, i: int) -> TransversalAtom:
        """Row i as a TransversalAtom."""
        spec = self.poisson[i]
        if spec is None:
            cols = self.fourier
            at = cols.owner == i
            strip_c = float(cols.strip_c[i])
            spec = FourierSpec(
                b=int(cols.b[i]),
                a0=float(cols.a0[i]),
                b0=float(cols.b0[i]),
                modes=tuple(zip(cols.k[at].tolist(), cols.ak[at].tolist(), cols.bk[at].tolist())),
                strip_c=None if strip_c == math.inf else strip_c,
            )
        return TransversalAtom(complex(self.alpha_re[i], self.alpha_im[i]), float(self.weights[i]), spec)


def atom_table(currents: Sequence[Tuple[Eigenvalue, Sequence[TransversalAtom]]]) -> AtomTable:
    """The AtomTable of (eigenvalue, atoms) pairs, one current per pair."""
    atoms = list(chain.from_iterable(group for _, group in currents))
    counts = [len(group) for _, group in currents]
    specs = [atom.spec for atom in atoms]
    alpha = np.array([atom.alpha for atom in atoms], dtype=complex)
    trig = [isinstance(spec, FourierSpec) for spec in specs]
    with np.errstate(over="ignore"):  # _validate refuses an infinite modulus
        moduli = np.hypot(alpha.real, alpha.imag)
    return AtomTable(
        alpha.real, alpha.imag, moduli,
        np.array([atom.weight for atom in atoms], dtype=float), np.array(trig, dtype=bool),
        fourier_columns(specs), tuple([None if t else spec for t, spec in zip(trig, specs)]),
        np.array([lam.value for lam, _ in currents], dtype=float).repeat(counts),
        np.arange(len(counts)).repeat(counts),
    )


class Current:
    """An eigenvalue and its atoms.

    Current(lam, atoms) takes the atoms as they are, unchecked; build_current,
    build_currents and current_from_json validate. The AtomTable is built on
    first use and kept. A current loaded from JSON starts from its table, and
    builds its atoms on first access to .atoms. Two currents are equal when
    their eigenvalues and atoms are.
    """

    __slots__ = ("lam", "_atoms", "_table")

    def __init__(self, lam: Eigenvalue, atoms: Sequence[TransversalAtom]):
        self.lam = lam
        self._atoms = tuple(atoms)
        self._table = None

    @classmethod
    def _from_table(cls, lam: Eigenvalue, table: AtomTable) -> "Current":
        current = cls.__new__(cls)
        current.lam, current._atoms, current._table = lam, None, table
        return current

    @property
    def atoms(self) -> Tuple[TransversalAtom, ...]:
        if self._atoms is None:
            self._atoms = tuple(map(self._table.atom, range(self._table.trig.size)))
        return self._atoms

    @property
    def table(self) -> AtomTable:
        if self._table is None:
            self._table = atom_table(((self.lam, self._atoms),))
        return self._table

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lam, self.atoms) == (other.lam, other.atoms)

    def __hash__(self):
        return hash((self.lam, self.atoms))

    def __repr__(self):
        return f"Current(lam={self.lam!r}, atoms={self.atoms!r})"


def _base_values(table: AtomTable) -> np.ndarray:
    """Density of every atom at u = v = 0, equal to evaluate(spec, 0.0, 0.0).

    For trig specs that is a0 + sum_k a_k, since every sine vanishes and
    every exponential is 1 there; the terms are added left to right, in the
    order evaluate adds them, so the sums agree to the bit. A sum that
    overflows is inf (or nan from inf - inf), as in evaluate's float adds,
    and fails the normalization check rather than raising a RuntimeWarning.
    """
    cols = table.fourier
    base = cols.a0.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(base, cols.owner, cols.ak)
    for i, spec in enumerate(table.poisson):
        if spec is not None:
            base[i] = evaluate(spec, 0.0, 0.0)
    return base


def _envelope_holds(cols: FourierColumns) -> np.ndarray:
    """Per row of strip specs: c - sum_k R_k >= -POSITIVITY_TOL on both edges.

    On the edge v = 0, c = a0 and R_k = hypot(a_k, b_k); on v = C, c = b0 C
    and R_k = hypot(a_k, b_k) e^{k C / b}, one R_k per mode as the spec
    lists them. c - sum_k R_k is a lower bound on the density on its
    edge, so a row that holds is positive. A row that fails goes to
    check_positivity, which sums modes of equal k before its own envelope
    (no looser than this one) and then scans the edge, so it may still
    certify the row. A row with a growth exponent above EXP_SAFE fails.
    Call it with floating-point warnings off.
    """
    rows, owner = cols.a0.size, cols.owner
    low, high = cols.a0.copy(), cols.b0 * cols.strip_c
    if owner.size:
        radii = np.hypot(cols.ak, cols.bk)
        rate = cols.k * cols.strip_c[owner] / cols.b[owner]
        safe = rate <= EXP_SAFE
        low -= np.bincount(owner, radii, rows)
        high -= np.bincount(owner, radii * np.exp(np.where(safe, rate, 0.0)), rows)
        low[owner[~safe]] = -math.inf
    return (low >= -POSITIVITY_TOL) & (high >= -POSITIVITY_TOL)


def _validate(table: AtomTable, atom) -> None:
    """Check every atom invariant on the table; raise for the first atom that breaks one.

    The checks, in their order for each atom: alpha nonzero and finite, a
    positive finite weight; for a negative eigenvalue |alpha| < 1, a strip
    spec and the strip height log|alpha|/lambda, for a positive one no
    strip; density 1 at the base point; then a strip's positivity, or a
    half-plane trig spec's ell-1 budget. Each is one array test over all
    atoms of all the table's currents, and the checks that depend on the
    sign of the eigenvalue hold only on the rows of that sign. Rows run
    current by current, so the first row that breaks a check belongs to the
    first current that breaks one, and the error names the atom by its
    index in that current, as a table of that current alone would. A strip
    whose envelope does not certify it goes to check_positivity, by this
    module's name, which perfbench's tracer wraps. atom(n, i) gives atom i
    of current n, for the error message alone.
    """
    cols = table.fourier
    am, weights, lv = table.moduli, table.weights, table.lam
    strip = cols.strip_c < math.inf  # inf on half-planes and on Poisson rows
    base = _base_values(table)
    negative = lv < 0.0
    n_negative = int(np.count_nonzero(negative))
    any_negative, any_positive = n_negative > 0, n_negative < am.size

    def alpha_error(a, tag, i):
        return InputError(f"{tag}.alpha: transversal point must be nonzero and finite")

    def height_error(a, tag, i):
        c_expected = math.log(a.alpha_modulus) / float(lv[i])
        return InvalidSpecError(
            f"{tag}.spec.strip_c: strip height {a.spec.strip_c} does not match log|alpha|/lambda = {c_expected}"
        )

    with np.errstate(invalid="ignore", over="ignore"):
        pair = np.array((am, weights))
        bad_alpha, bad_weight = ~((0.0 < pair) & (pair < math.inf))
        checks = [
            (bad_alpha, alpha_error),
            (bad_weight, lambda a, tag, i: InputError(f"{tag}.weight: weight must be positive and finite")),
        ]
        if any_negative:
            # only atoms with 0 < |alpha| < 1 reach this check
            c_expected = np.log(np.where(am > 0.0, am, 1.0)) / lv
            checks += [
                (negative & (am >= 1.0), lambda a, tag, i: EmptyLeafError(
                    f"{tag}: leaf through |alpha| = {a.alpha_modulus} misses the bidisc when the eigenvalue is negative")),
                (negative & ~strip, lambda a, tag, i: InvalidSpecError(
                    f"{tag}.spec: negative eigenvalue atoms need a strip spec")),
                (negative & (np.abs(cols.strip_c - c_expected) > 1e-9 * np.maximum(1.0, c_expected)), height_error),
            ]
        if any_positive:
            checks.append((~negative & strip, lambda a, tag, i: InvalidSpecError(
                f"{tag}.spec: positive eigenvalue atoms live on a half-plane, not a strip")))
        checks.append((np.abs(base - 1.0) > NORMALIZATION_TOL, lambda a, tag, i: NormalizationError(
            f"{tag}.spec: density at the base point is {float(base[i])}, expected 1")))
        if any_positive:
            l1 = np.bincount(cols.owner, np.abs(cols.ak) + np.abs(cols.bk), am.size)
            checks.append((~negative & (l1 > cols.a0 * (1.0 + L1_SLACK) + L1_SLACK), lambda a, tag, i: InvalidSpecError(
                f"{tag}.spec: mode coefficients sum to {a.spec.mode_l1()}, exceeding a0 = {a.spec.a0}")))
        holds = _envelope_holds(cols) if any_negative else None
    broken = np.flatnonzero(reduce(np.logical_or, [mask for mask, _ in checks]))
    first = int(broken[0]) if broken.size else am.size

    def row(i):
        # row i's atom and its tag, which counts from its current's first row
        n = int(table.current[i])
        j = i - int(np.searchsorted(table.current, n))
        return atom(n, j), f"atoms[{j}]"

    if any_negative:
        # a strip's positivity is its last check, so it counts only for the
        # atoms before the first that breaks another
        for i in np.flatnonzero(negative[:first] & ~holds[:first]).tolist():
            a, tag = row(i)
            try:
                positive = check_positivity(a.spec)
            except InvalidSpecError as exc:
                raise InvalidSpecError(f"{tag}." + str(exc)) from exc
            if not positive:
                raise InvalidSpecError(f"{tag}.spec: strip density dips negative")
    if first < am.size:
        error = next(error for mask, error in checks if mask[first])
        raise error(*row(first), first)
    # Poisson positivity is structural: nonnegative samples, tail, c_lin.


def build_currents(
    currents: Sequence[Tuple[Eigenvalue, Sequence[TransversalAtom]]],
) -> Tuple[List[Current], AtomTable]:
    """Validate every atom invariant of many currents at once and assemble them.

    currents holds (eigenvalue, atoms) pairs. Their atoms make one
    AtomTable, with each row's eigenvalue, and one _validate call checks it.
    A current that breaks a rule raises the error build_current gives for
    it; where several do, the first of them in order raises. Returns the
    currents and their table, whose rows every exact-route sum reads once
    for all of them. Each current builds its own table on first use.
    """
    built = [Current(lam, atoms) for lam, atoms in currents]
    # an empty current is an error only if every current before it holds
    empty = next((n for n, current in enumerate(built) if not current._atoms), len(built))
    checked = built[:empty]
    table = atom_table([(current.lam, current._atoms) for current in checked])
    _validate(table, lambda n, i: checked[n]._atoms[i])
    if empty < len(built):
        raise InputError("atoms: a current needs at least one atom")
    return built, table


def build_current(lam: Eigenvalue, atoms: Sequence[TransversalAtom]) -> Current:
    """Validate every atom invariant and assemble the current: the batch of one."""
    (current,), table = build_currents(((lam, atoms),))
    current._table = table
    return current


def total_weight(current: Current) -> float:
    return sum(current.table.weights.tolist())


# the largest period multiple b that is_periodic scans Poisson data for
PERIOD_B_MAX = 12


def _poisson_period(spec: PoissonSpec) -> Optional[int]:
    """Least b <= PERIOD_B_MAX with 2 pi b boundary periodicity at 1e-8, scanned numerically."""
    y_top = spec.half_width
    probe = np.linspace(-y_top - 2.0 * TWO_PI, y_top + 2.0 * TWO_PI, 2048)
    base = boundary_value(spec, probe)
    scale = max(1.0, float(np.max(np.abs(base))))
    for b in range(1, PERIOD_B_MAX + 1):
        shifted = boundary_value(spec, probe + TWO_PI * b)
        if float(np.max(np.abs(shifted - base))) <= 1e-8 * scale:
            return b
    return None


def is_periodic(current: Current) -> Optional[int]:
    """Least b with every atom 2 pi b-periodic in u, or None.

    Fourier specs declare their period; Poisson specs get a numeric scan of
    the boundary profile for b up to PERIOD_B_MAX. A constant boundary is
    2 pi-periodic; a lone bump is not periodic at all.
    """
    b = 1
    for atom in current.atoms:
        if isinstance(atom.spec, FourierSpec):
            b_atom = atom.spec.b
        else:
            b_atom = _poisson_period(atom.spec)
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


class _Broken(Exception):
    """Some atom entry breaks a field rule; _name_broken_atom says which and how."""


def _floats(values: list) -> np.ndarray:
    """values as a float array when each passes json_float, else _Broken."""
    if not set(map(type, values)) <= {float, int}:
        raise _Broken
    try:
        return np.fromiter(map(float, values), float, len(values))
    except OverflowError:
        raise _Broken from None


def _ints(values: list) -> np.ndarray:
    """values as an int64 array when each passes json_int, else _Broken."""
    if not (set(map(type, values)) <= {int} and -(2**63) < min(values, default=0)
            and max(values, default=0) < 2**63):
        raise _Broken
    return np.array(values, dtype=np.int64)


def _column(objs: list, field: str, default=None) -> list:
    """obj.get(field, default) of every dict in objs."""
    return list(map(dict.get, objs, repeat(field), repeat(default)))


def _json_table(lam: Eigenvalue, entries: list) -> AtomTable:
    """The AtomTable of decoded atom entries, every field rule checked column by column.

    The rules are json_float's and json_int's, spec_from_json's and
    FourierSpec's; a broken one raises _Broken. Poisson specs go through
    spec_from_json one by one, after every other rule held, so the first
    Poisson spec to fail is the first broken atom.
    """
    if not all(map(isinstance, entries, repeat(dict))):
        raise _Broken
    try:
        alphas, weights, specs = (list(map(itemgetter(field), entries)) for field in ("alpha", "weight", "spec"))
    except KeyError:
        raise _Broken from None
    if not (all(map(isinstance, alphas, repeat((list, tuple)))) and set(map(len, alphas)) == {2}
            and all(map(isinstance, specs, repeat(dict)))):
        raise _Broken
    alpha_re, alpha_im = (_floats(list(map(itemgetter(j), alphas))) for j in (0, 1))
    weights = _floats(weights)
    kinds = _column(specs, "type")
    trig = list(map(eq, kinds, repeat("fourier")))
    if trig.count(True) + kinds.count("poisson") != len(kinds):
        raise _Broken
    fourier = list(compress(specs, trig))
    modes = _column(fourier, "modes", [])
    if not all(map(isinstance, modes, repeat(list))):
        raise _Broken
    flat = list(chain.from_iterable(modes))
    if not (all(map(isinstance, flat, repeat((list, tuple)))) and set(map(len, flat)) <= {3}):
        raise _Broken
    b = _ints(_column(fourier, "b", 1))
    k, ak, bk = _ints(list(map(itemgetter(0), flat))), *(_floats(list(map(itemgetter(j), flat))) for j in (1, 2))
    a0, b0 = _floats(_column(fourier, "a0", 0.0)), _floats(_column(fourier, "b0", 0.0))
    heights = _column(fourier, "strip_c")
    on_strip = np.fromiter(map(is_not, heights, repeat(None)), bool, len(heights))
    strip_c = np.full(len(fourier), math.inf)
    strip_c[on_strip] = _floats(list(compress(heights, on_strip)))
    counts = list(map(len, modes))
    # FourierSpec's rules
    if not ((b >= 1).all() and ((0.0 <= a0) & (a0 < math.inf) & (0.0 <= b0) & (b0 < math.inf)).all()
            and (np.isfinite(ak) & np.isfinite(bk) & (k != 0) & ((k < 0) | np.repeat(on_strip, counts))).all()
            and ((0.0 < strip_c) & (strip_c < math.inf) | ~on_strip).all()):
        raise _Broken
    poisson = [None if t else spec_from_json(spec, f"atoms[{i}].spec") for i, (t, spec) in enumerate(zip(trig, specs))]
    rows = np.flatnonzero(trig)
    n = len(entries)
    columns = [np.ones(n, dtype=np.int64), np.zeros(n), np.zeros(n), np.full(n, math.inf)]
    for column, values in zip(columns, (b, a0, b0, strip_c)):
        column[rows] = values
    with np.errstate(over="ignore"):  # _validate refuses an infinite modulus
        moduli = np.hypot(alpha_re, alpha_im)
    return AtomTable(
        alpha_re, alpha_im, moduli, weights, np.array(trig, dtype=bool),
        FourierColumns(*columns, np.repeat(rows, counts), k, ak, bk), tuple(poisson),
        np.full(n, lam.value), np.zeros(n, dtype=np.intp),
    )


def _name_broken_atom(entries: list):
    """Raise the error of the first atom entry that breaks a field rule."""
    for i, entry in enumerate(entries):
        tag = f"atoms[{i}]"
        if not isinstance(entry, dict):
            raise InputError(f"{tag}: expected an object")
        alpha_pair = _require(entry, "alpha", tag)
        if not isinstance(alpha_pair, (list, tuple)) or len(alpha_pair) != 2:
            raise InputError(f"{tag}.alpha: expected [re, im]")
        weight = _require(entry, "weight", tag)
        try:
            for value, field in ((alpha_pair[0], "alpha"), (alpha_pair[1], "alpha"), (weight, "weight")):
                json_float(value, tag, field)
        except OverflowError as exc:
            raise InputError(f"{tag}: non-numeric alpha or weight ({exc})") from exc
        spec_from_json(_require(entry, "spec", tag), f"{tag}.spec")
    raise AssertionError("the column checks refused atoms that the field checks accept")


def current_from_json(obj) -> Current:
    if not isinstance(obj, dict):
        raise InputError("current: expected a JSON object")
    lam = eigenvalue_from_json(_require(obj, "lambda", ""), "lambda")
    entries = _require(obj, "atoms", "")
    if not isinstance(entries, list) or not entries:
        raise InputError("atoms: expected a nonempty list")
    try:
        table = _json_table(lam, entries)
    except _Broken:
        _name_broken_atom(entries)
    _validate(table, lambda n, i: table.atom(i))
    return Current._from_table(lam, table)
