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
        if self.kind not in ("rational", "irrational", "negative"):
            raise InputError(f"unknown eigenvalue kind {self.kind!r}")
        if not math.isfinite(self.value) or self.value == 0.0:
            raise InputError("eigenvalue must be finite and nonzero")
        if abs(self.value) > 1.0 + 1e-15:
            raise InputError("eigenvalue must lie in [-1, 0) or (0, 1]")
        if self.kind == "negative":
            if self.value >= 0.0:
                raise InputError("negative eigenvalue must have value < 0")
            if self.a is not None or self.b is not None:
                raise InputError("negative eigenvalue carries no fraction")
        else:
            if self.value <= 0.0:
                raise InputError(f"{self.kind} eigenvalue must have value > 0")
        if self.kind == "rational":
            if not isinstance(self.a, int) or not isinstance(self.b, int):
                raise InputError("rational eigenvalue needs integer a, b")
            if self.a < 1 or self.b < 1:
                raise InputError("rational eigenvalue needs a, b >= 1")
            if gcd(self.a, self.b) != 1:
                raise InputError("rational eigenvalue fraction must be reduced")
            if self.value != self.a / self.b:
                raise InputError("rational eigenvalue value must equal a/b")
        if self.kind == "irrational" and (self.a is not None or self.b is not None):
            raise InputError("irrational eigenvalue carries no fraction")

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


def leaf_domain(lam: Eigenvalue, alpha_modulus: float, r: float) -> LeafDomain:
    """v-range carved out of the leaf through |alpha| by the open bidisc rD^2.

    Constraints are |z| = e^{-v} < r and |w| = |alpha| e^{-lambda v} < r.
    For lambda > 0 both cut from below and the binding one wins; for
    lambda < 0 they cut from opposite sides and may leave nothing.
    """
    if not (alpha_modulus > 0.0 and math.isfinite(alpha_modulus)):
        raise DomainError("alpha modulus must be positive and finite")
    if not (0.0 < r <= 1.0):
        raise DomainError("radius must lie in (0, 1]")
    lv = lam.value
    threshold = r ** (1.0 - lv)
    if lv > 0.0:
        if alpha_modulus >= threshold:
            return LeafDomain("half_plane", v_min=(math.log(alpha_modulus) - math.log(r)) / lv)
        return LeafDomain("half_plane", v_min=-math.log(r))
    # lambda < 0: |w| < r needs v < (log|alpha| - log r)/lambda, an upper cut.
    if alpha_modulus >= threshold:
        return LeafDomain("empty")
    return LeafDomain(
        "strip",
        v_min=-math.log(r),
        v_max=(math.log(alpha_modulus) - math.log(r)) / lv,
    )


def coordinate_shift(lam: Eigenvalue, alpha_modulus: float) -> float:
    """Shift baked into the |alpha| >= 1 branch of jacobian_density.

    The area density below is written for the plaque parameter measured from
    the leaf's own entry point into the bidisc; for lambda > 0 and |alpha| >= 1
    that differs from the unshifted v by log|alpha|/lambda.
    """
    if lam.value > 0.0 and alpha_modulus >= 1.0:
        return math.log(alpha_modulus) / lam.value
    return 0.0


def _jacobian_coefficients(lv: float, alpha_modulus: float) -> Tuple[float, float]:
    """(c1, c2) with jacobian_density = 2 (c1 e^{-2v} + c2 e^{-2 lambda v})."""
    if alpha_modulus < 1.0:
        return 1.0, (lv * alpha_modulus) ** 2
    return alpha_modulus ** (-2.0 / lv), lv**2


def jacobian_density(lam: Eigenvalue, alpha_modulus, v):
    """Leafwise area density 2(|z'|^2 + |w'|^2) along psi, as a function of v.

    Accepts a scalar or ndarray v, and a scalar or ndarray of moduli that
    broadcasts against v (one atom per row, say). The two branches agree at
    |alpha| = 1; the outer branch absorbs the coordinate_shift above, which
    is why it carries |alpha|^{-2/lambda} rather than |alpha|^2.
    """
    lv = lam.value
    v = np.asarray(v, dtype=float)
    moduli = np.asarray(alpha_modulus, dtype=float)
    if moduli.ndim == 0:
        c1, c2 = _jacobian_coefficients(lv, float(moduli))
    else:
        # in float arithmetic modulus by modulus, so each entry is bit for
        # bit what a scalar call gives
        pairs = [_jacobian_coefficients(lv, am) for am in moduli.ravel().tolist()]
        c1, c2 = np.array(pairs).T.reshape((2,) + moduli.shape)
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
