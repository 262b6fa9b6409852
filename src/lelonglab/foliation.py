"""Leaf geometry of the linear vector field z d/dz + lambda w d/dw on the bidisc.

Leaves through (1, alpha) are parametrized by
    psi(zeta) = (e^{i zeta}, alpha e^{i lambda zeta}),   zeta = u + i v,
so |z| = e^{-v} and |w| = |alpha| e^{-lambda v}: the part of a leaf inside the
closed bidisc of radius r is a half plane in v (lambda > 0) or a horizontal
strip (lambda < 0), and the deck transformation u -> u + 2 pi acts on the
transversal as alpha -> alpha e^{2 pi i lambda}.

All v-ranges returned here are in unshifted leaf coordinates; the quadrature
engine applies the log|alpha|/lambda shift that the |alpha| >= 1 area density
branch presumes (see jacobian_density).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from math import gcd
from typing import Optional, Tuple

import numpy as np

from .errors import DomainError, InputError

TWO_PI = 2.0 * math.pi

# Tolerances for float comparisons of moduli and angles in `equivalent`.
MODULUS_RTOL = 1e-9
ANGLE_TOL = 1e-9


@dataclass(frozen=True)
class Eigenvalue:
    """Eigenvalue of the singularity together with its declared arithmetic class.

    kind "rational" carries the reduced fraction a/b with a, b positive;
    kind "irrational" is a positive non-rational in (0, 1]; kind "negative"
    is any negative value in [-1, 0). The class drives which theorems apply
    (periodic leaves, interval bounds, strip geometry), so it is declared,
    not sniffed from the float.
    """

    value: float
    kind: str
    a: Optional[int] = None
    b: Optional[int] = None

    def __post_init__(self):
        # errors name the field of the input file, as the spec constructors do
        if self.kind not in ("rational", "irrational", "negative"):
            raise InputError(f"lambda.class: unknown eigenvalue class {self.kind!r}")
        if not math.isfinite(self.value) or self.value == 0.0:
            raise InputError("lambda.value: eigenvalue must be finite and nonzero")
        if abs(self.value) > 1.0 + 1e-15:
            raise InputError("lambda.value: eigenvalue must lie in [-1, 0) or (0, 1]")
        if self.kind == "negative":
            if self.value >= 0.0:
                raise InputError("lambda.value: negative eigenvalue must have value < 0")
            if self.a is not None or self.b is not None:
                raise InputError("lambda: negative eigenvalue carries no fraction")
        else:
            if self.value <= 0.0:
                raise InputError(f"lambda.value: {self.kind} eigenvalue must have value > 0")
        if self.kind == "rational":
            for name, n in (("a", self.a), ("b", self.b)):
                if not isinstance(n, int) or n < 1:
                    raise InputError(f"lambda.{name}: rational eigenvalue needs an integer {name} >= 1")
            if gcd(self.a, self.b) != 1:
                raise InputError("lambda: rational eigenvalue fraction a/b must be reduced")
            if self.value != self.a / self.b:
                raise InputError("lambda.value: rational eigenvalue value must equal a/b")
        if self.kind == "irrational" and (self.a is not None or self.b is not None):
            raise InputError("lambda: irrational eigenvalue carries no fraction")

    @staticmethod
    def rational(a: int, b: int) -> "Eigenvalue":
        g = gcd(a, b)
        return Eigenvalue(a / b, "rational", a // g, b // g) if g > 1 else Eigenvalue(a / b, "rational", a, b)

    @staticmethod
    def irrational(x: float) -> "Eigenvalue":
        return Eigenvalue(x, "irrational")

    @staticmethod
    def negative(x: float) -> "Eigenvalue":
        return Eigenvalue(x, "negative")

    @property
    def is_negative(self) -> bool:
        return self.value < 0.0

    @property
    def period(self) -> Optional[int]:
        """Number of 2 pi windows after which the monodromy orbit closes."""
        return self.b if self.kind == "rational" else None


@dataclass(frozen=True)
class LeafDomain:
    """v-range of one leaf plaque inside the bidisc of radius r."""

    kind: str  # "half_plane" | "strip" | "empty"
    v_min: Optional[float] = None
    v_max: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("half_plane", "strip", "empty"):
            raise InputError(f"unknown leaf domain kind {self.kind!r}")
        if self.kind == "strip" and not self.v_min < self.v_max:
            raise InputError("strip needs v_min < v_max")

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty"

    def contains(self, v: float) -> bool:
        if self.kind == "empty":
            return False
        if self.kind == "half_plane":
            return v > self.v_min
        return self.v_min < v < self.v_max


@dataclass(frozen=True)
class LeafPoint:
    z: complex
    w: complex


def psi(lam: Eigenvalue, alpha: complex, zeta: complex) -> LeafPoint:
    """Leaf parametrization through the transversal point alpha."""
    return LeafPoint(cmath.exp(1j * zeta), alpha * cmath.exp(1j * lam.value * zeta))


def float_map(fn, values, *args) -> np.ndarray:
    """fn(x, *args) of every entry x of an array, called on Python floats.

    Each entry is then bit for bit what a scalar call gives: numpy's exp,
    log and power round differently from math's on a few percent of inputs.
    """
    values = np.asarray(values, dtype=float)
    each = map(fn, values.ravel().tolist(), *(itertools.repeat(a) for a in args))
    return np.fromiter(each, float, values.size).reshape(values.shape)


def lam_values(lam, shape) -> np.ndarray:
    """One eigenvalue per entry of an array of that shape: an Eigenvalue's value, or the values given."""
    if isinstance(lam, Eigenvalue):
        return np.full(shape, lam.value)
    return np.asarray(lam, dtype=float).reshape(shape)


def plaque_limits(lam, moduli, rs):
    """(v_min, v_max, empty) of the plaques of leaves through moduli, at radii rs.

    Each is an (atoms, radii) array, in unshifted leaf coordinates like
    leaf_domain, entry [i, n] for moduli[i] and rs[n]: v_max is inf on
    half-planes, and v_min and v_max mean nothing where empty is True.
    lam is an Eigenvalue or one eigenvalue per modulus, so that the atoms of
    many currents take one call; each entry is the one its eigenvalue alone
    gives. This is the one plaque formula; leaf_domain is its scalar case.
    """
    moduli = np.asarray(moduli, dtype=float).reshape(-1)
    radii = np.asarray(rs, dtype=float).reshape(-1)
    # negated comparisons, so a NaN fails them
    if not (np.minimum.reduce(moduli, initial=1.0) > 0.0 and np.maximum.reduce(moduli, initial=1.0) < math.inf):
        raise DomainError("alpha modulus must be positive and finite")
    if not (np.minimum.reduce(radii, initial=1.0) > 0.0 and np.maximum.reduce(radii, initial=1.0) <= 1.0):
        raise DomainError("radius must lie in (0, 1]")
    lv = lam_values(lam, moduli.shape)
    # r^(1 - lambda) once per run of rows with one eigenvalue, such as a
    # current's rows, then taken by row
    first = np.empty(lv.shape, dtype=bool)
    first[:1] = True
    np.not_equal(lv[1:], lv[:-1], out=first[1:])
    values = lv[first].tolist()
    bound = np.empty((len(values), radii.size))
    for j, value in enumerate(values):
        bound[j] = float_map(math.pow, radii, 1.0 - value)
    bound = bound[first.cumsum() - 1]
    lv = lv[:, None]
    logs = float_map(math.log, np.concatenate((moduli, radii)))
    log_am, log_r = logs[:moduli.size, None], logs[moduli.size:]
    above = moduli[:, None] >= bound  # |w| < r binds, or nothing is left
    cut = (log_am - log_r) / lv
    entry = np.empty(above.shape)
    entry[:] = -log_r
    # lambda > 0: a half-plane above the binding cut; lambda < 0: |w| < r
    # needs v < (log|alpha| - log r)/lambda, an upper cut
    positive = lv > 0.0
    return np.where(positive & above, cut, entry), np.where(positive, math.inf, cut), ~positive & above


def leaf_domain(lam: Eigenvalue, alpha_modulus: float, r: float) -> LeafDomain:
    """v-range carved out of the leaf through |alpha| by the open bidisc rD^2.

    Constraints are |z| = e^{-v} < r and |w| = |alpha| e^{-lambda v} < r.
    For lambda > 0 both cut from below and the binding one wins; for
    lambda < 0 they cut from opposite sides and may leave nothing.
    """
    v_min, v_max, empty = plaque_limits(lam, (alpha_modulus,), (r,))
    if empty[0, 0]:
        return LeafDomain("empty")
    if lam.value > 0.0:
        return LeafDomain("half_plane", v_min=float(v_min[0, 0]))
    return LeafDomain("strip", v_min=float(v_min[0, 0]), v_max=float(v_max[0, 0]))


def coordinate_shift(lam, alpha_modulus):
    """Shift baked into the |alpha| >= 1 branch of jacobian_density.

    The area density below is written for the plaque parameter measured from
    the leaf's own entry point into the bidisc; for lambda > 0 and |alpha| >= 1
    that differs from the unshifted v by log|alpha|/lambda. Takes a modulus
    or an array of them, and an Eigenvalue or one eigenvalue per modulus.
    """
    moduli = np.asarray(alpha_modulus, dtype=float)
    lv = lam_values(lam, moduli.shape)
    outer = (moduli >= 1.0) & (lv > 0.0)
    shift = np.zeros(moduli.shape)
    if outer.any():
        shift[outer] = float_map(math.log, moduli[outer]) / lv[outer]
    return float(shift) if shift.ndim == 0 else shift


def _jacobian_coefficients(lv: float, alpha_modulus: float) -> Tuple[float, float]:
    """(c1, c2) with jacobian_density = 2 (c1 e^{-2v} + c2 e^{-2 lambda v})."""
    if alpha_modulus < 1.0:
        return 1.0, (lv * alpha_modulus) ** 2
    return alpha_modulus ** (-2.0 / lv), lv**2


@dataclass(frozen=True, eq=False)
class JacobianRows:
    """jacobian_density's coefficients for an array of moduli.

    coefficients[0] and coefficients[1] are c1 and c2, each shaped like the
    moduli. They are worked out once, modulus by modulus in float
    arithmetic, then taken by row as often as needed:
    jacobian_density(lam, rows, v) gives bit for bit what it gives for the
    moduli themselves.
    """

    coefficients: np.ndarray

    def take(self, rows) -> "JacobianRows":
        """The coefficients of the moduli at rows, in that order."""
        return JacobianRows(self.coefficients[:, rows])


def jacobian_rows(lam, moduli) -> JacobianRows:
    """The JacobianRows of an array of moduli, for an Eigenvalue or one eigenvalue per modulus.

    Entry by entry _jacobian_coefficients: each branch's powers go through
    math.pow on that branch's entries alone, so none can overflow where the
    scalar formula does not reach it.
    """
    moduli = np.asarray(moduli, dtype=float)
    lv = lam_values(lam, moduli.shape)
    outer = ~(moduli < 1.0)  # a NaN modulus takes the outer branch, as in the scalar formula
    coefficients = np.ones((2,) + moduli.shape)
    c1, c2 = coefficients
    c1[outer] = np.fromiter(map(math.pow, moduli[outer].tolist(), (-2.0 / lv[outer]).tolist()), float)
    # lambda^2 outside, (lambda |alpha|)^2 inside
    c2[...] = float_map(math.pow, lv * np.where(outer, 1.0, moduli), 2.0)
    return JacobianRows(coefficients)


def jacobian_density(lam: Eigenvalue, alpha_modulus, v):
    """Leafwise area density 2(|z'|^2 + |w'|^2) along psi, as a function of v.

    Accepts a scalar or ndarray v, and a scalar or ndarray of moduli that
    broadcasts against v (one atom per row, say), or their JacobianRows.
    The two branches agree at |alpha| = 1; the outer branch absorbs the
    coordinate_shift above, which is why it carries |alpha|^{-2/lambda}
    rather than |alpha|^2.
    """
    lv = lam.value
    v = np.asarray(v, dtype=float)
    if isinstance(alpha_modulus, JacobianRows):
        c1, c2 = alpha_modulus.coefficients
    elif np.ndim(alpha_modulus) == 0:
        c1, c2 = _jacobian_coefficients(lv, float(alpha_modulus))
    else:
        c1, c2 = jacobian_rows(lam, alpha_modulus).coefficients
    out = 2.0 * (c1 * np.exp(-2.0 * v) + c2 * np.exp(-2.0 * lv * v))
    return float(out) if out.ndim == 0 else out


def monodromy(lam: Eigenvalue, alpha: complex, k: int) -> complex:
    """Transversal holonomy of k turns: alpha e^{2 pi i k lambda}."""
    return alpha * cmath.exp(2j * math.pi * k * lam.value)


def equivalent(lam: Eigenvalue, alpha: complex, beta: complex, k_max: int = 64) -> Optional[int]:
    """Smallest |k| with monodromy(lam, alpha, k) = beta, or None.

    Moduli must agree to MODULUS_RTOL relative; the angle must match a
    multiple of 2 pi lambda to ANGLE_TOL radians. Search order
    0, 1, -1, 2, -2, ... so ties resolve to the nonnegative turn.
    """
    if alpha == 0 or beta == 0:
        raise DomainError("transversal points must be nonzero")
    ra, rb = abs(alpha), abs(beta)
    if abs(rb - ra) > MODULUS_RTOL * max(ra, rb):
        return None
    target = cmath.phase(beta / alpha)
    for k in range(0, k_max + 1):
        for kk in ((k,) if k == 0 else (k, -k)):
            diff = (TWO_PI * kk * lam.value - target) % TWO_PI
            if min(diff, TWO_PI - diff) <= ANGLE_TOL:
                return kk
    return None


def torus_curve(
    lam: Eigenvalue,
    alpha: complex,
    r: float,
    u_span: float,
    samples: int,
) -> np.ndarray:
    """Trace of the boundary leaf curve on the argument torus.

    Returns an (samples, 2) array of (arg z, arg w) mod 2 pi along the real
    leaf direction; closed iff lambda is rational and u_span covers b turns.
    The radius only gates validity (the curve sits on |z| = const scaled out).
    """
    if not (0.0 < r < 1.0):
        raise DomainError("torus curve radius must lie in (0, 1)")
    if samples < 2:
        raise InputError("need at least two samples")
    if u_span <= 0.0:
        raise InputError("u_span must be positive")
    u = np.linspace(0.0, u_span, samples)
    theta_z = np.mod(u, TWO_PI)
    theta_w = np.mod(cmath.phase(alpha) + lam.value * u, TWO_PI)
    return np.column_stack((theta_z, theta_w))
