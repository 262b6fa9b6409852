"""Positive harmonic densities on leaf half-planes and strips.

Two finite representations cover every current we build: a trigonometric
series with decaying modes (periodic leaves, both half-plane and strip
variants) and a Poisson integral of sampled boundary data with constant
tails plus an optional linear term (aperiodic leaves). Both evaluate
exactly harmonically: the trig modes are harmonic one by one, and the
Poisson value is a trapezoid sum of harmonic kernels plus closed-form
arctangent tails, each harmonic in (u, v) on its own.

Integrals over a u-window are exact in u. For Poisson data they are kernel
sums over the boundary grid, and a PoissonWindow is the one way into them:
poisson_rows(window, v) gives the window integral and its grid-model error
from one kernel block, since the error's half-density probe grid has its
nodes among the full grid's. A window built on a grid of LADDER_MIN_POINTS
nodes or more sums the nodes far from the u-window through their moments on
a ladder of shells (a one-level far-field expansion) and the rest directly,
and adds the expansion's truncation remainder to the error row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import DomainError, InputError, InvalidSpecError, NormalizationError
from .foliation import float_map

TWO_PI = 2.0 * math.pi

# A density counts as positive when it stays above -POSITIVITY_TOL.
POSITIVITY_TOL = 1e-12

# Certified scan of a multi-mode trig edge that fails the envelope test: one
# period starts as EDGE_SCAN_START intervals, and the bisection gives up
# after EDGE_SCAN_BUDGET samples in all. A near-touching minimum costs a few
# samples per halving, so the budget only runs out on specs whose minimum
# sits within rounding of -POSITIVITY_TOL.
EDGE_SCAN_START = 64
EDGE_SCAN_BUDGET = 1 << 16

# Slack for "v inside the domain" checks; quadrature nodes sit at exact
# interval endpoints, so the comparison cannot be strict.
DOMAIN_SLACK = 1e-9

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class FourierSpec:
    """Truncated trigonometric density a0 [+ linear part] + decaying modes.

    On a half-plane (strip_c None) the base is a0 + b0 v and every mode must
    have k < 0 so it decays as v grows. On a strip of height C the base is
    a0 (1 - v/C) + b0 v and modes of either sign are allowed; positivity is
    then certified on the two strip edges by check_positivity. The
    coefficient ell-1 bound that guarantees half-plane positivity is
    deliberately NOT enforced here (check_positivity must be able to see
    violating specs); build_current enforces it.
    """

    b: int = 1
    a0: float = 1.0
    b0: float = 0.0
    modes: Tuple[Tuple[int, float, float], ...] = ()
    strip_c: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.b, int) or self.b < 1:
            raise InvalidSpecError("spec.b: period multiple must be an integer >= 1")
        if not (0.0 <= self.a0 < math.inf):
            raise InvalidSpecError("spec.a0: constant coefficient must be finite and >= 0")
        if not (0.0 <= self.b0 < math.inf):
            raise InvalidSpecError("spec.b0: linear coefficient must be finite and >= 0")
        if not all(math.isfinite(c) for _, a, bb in self.modes for c in (a, bb)):
            raise InvalidSpecError("spec.modes: mode coefficients must be finite")
        object.__setattr__(self, "modes", tuple((int(k), float(a), float(bb)) for k, a, bb in self.modes))
        for k, _, _ in self.modes:
            if k == 0:
                raise InvalidSpecError("spec.modes: mode index k must be nonzero")
            if self.strip_c is None and k >= 0:
                raise InvalidSpecError("spec.modes: half-plane modes must have k < 0")
        if self.strip_c is not None and not (0.0 < self.strip_c < math.inf):
            raise InvalidSpecError("spec.strip_c: strip height must be finite and positive")

    @property
    def on_strip(self) -> bool:
        return self.strip_c is not None

    def mode_l1(self) -> float:
        return sum(abs(a) + abs(bb) for _, a, bb in self.modes)


@dataclass(frozen=True, eq=False)
class PoissonSpec:
    """Sampled boundary data on a uniform symmetric grid, constant tails.

    values[i] is the boundary density at ys[i]; beyond the grid the
    boundary continues with the constant `tail`. c_lin is the coefficient
    of the extra harmonic term c_lin * v that survives in the Herglotz
    representation.
    """

    ys: np.ndarray
    values: np.ndarray
    tail: float = 0.0
    c_lin: float = 0.0

    def __post_init__(self):
        ys = np.asarray(self.ys, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if ys.ndim != 1 or values.shape != ys.shape or ys.size < 2:
            raise InvalidSpecError("spec.boundary: ys and values must be 1-d, equal length >= 2")
        if not np.all(np.isfinite(ys)):
            raise InvalidSpecError("spec.boundary.ys: grid must be finite")
        steps = np.diff(ys)
        if np.any(steps <= 0.0):
            raise InvalidSpecError("spec.boundary.ys: grid must be strictly increasing")
        step = steps[0]
        if np.max(np.abs(steps - step)) > 1e-9 * step:
            raise InvalidSpecError("spec.boundary.ys: grid must be uniform")
        if abs(ys[0] + ys[-1]) > 1e-9 * max(1.0, ys[-1]):
            raise InvalidSpecError("spec.boundary.ys: grid must be symmetric about 0")
        if not np.all((values >= 0.0) & np.isfinite(values)):
            raise InvalidSpecError("spec.boundary.values: boundary samples must be finite and >= 0")
        if not (0.0 <= self.tail < math.inf):
            raise InvalidSpecError("spec.boundary.tail: tail value must be finite and >= 0")
        if not (0.0 <= self.c_lin < math.inf):
            raise InvalidSpecError("spec.c_lin: linear coefficient must be finite and >= 0")
        ys.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "values", values)

    @property
    def on_strip(self) -> bool:
        return False

    @property
    def half_width(self) -> float:
        return float(self.ys[-1])

    @property
    def step(self) -> float:
        return float(self.ys[1] - self.ys[0])


HarmonicSpec = Union[FourierSpec, PoissonSpec]


# ---------------------------------------------------------------------------
# evaluation


def _check_v_domain(spec, v: np.ndarray):
    # ndarray methods, not np.min/np.max: this runs on every quadrature
    # round, where the module functions' dispatch costs more than the scan
    v_lo = float(v.min())
    if v_lo < -DOMAIN_SLACK:
        raise DomainError(f"v = {v_lo} below the boundary of the leaf domain")
    if isinstance(spec, FourierSpec) and spec.on_strip:
        v_hi = float(v.max())
        if v_hi > spec.strip_c * (1.0 + DOMAIN_SLACK) + DOMAIN_SLACK:
            raise DomainError(f"v = {v_hi} above the strip height {spec.strip_c}")
    elif isinstance(spec, FourierWindow):
        # row by row: each row's heights against its own strip height, which
        # is inf on half-planes
        over = v > spec.strip_c * (1.0 + DOMAIN_SLACK) + DOMAIN_SLACK
        if over.any():
            row = np.flatnonzero(over.any(axis=-1))[0]
            v_hi = np.broadcast_to(v, over.shape)[row].max()
            strip_c = np.broadcast_to(spec.strip_c, over.shape)[row, 0]
            raise DomainError(f"v = {v_hi} above the strip height {strip_c}")


def boundary_value(spec: PoissonSpec, y):
    """Boundary density at height v = 0: linear interpolation, constant tails."""
    y = np.asarray(y, dtype=float)
    out = np.interp(y, spec.ys, spec.values, left=spec.tail, right=spec.tail)
    return float(out) if out.ndim == 0 else out


def _poisson_eval(spec: PoissonSpec, u, v):
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    shape = u.shape
    u = np.ravel(u)
    v = np.ravel(v)
    out = np.empty_like(u)
    at_boundary = v <= 0.0
    if np.any(at_boundary):
        out[at_boundary] = boundary_value(spec, u[at_boundary])
    inside = ~at_boundary
    if np.any(inside):
        ui = u[inside]
        vi = v[inside]
        kernel = vi[:, None] / (vi[:, None] ** 2 + (spec.ys[None, :] - ui[:, None]) ** 2)
        bulk = _trapezoid(spec.values[None, :] * kernel, spec.ys, axis=1)
        y_top = spec.half_width
        right = spec.tail * (0.5 * math.pi - np.arctan((y_top - ui) / vi))
        left = spec.tail * (0.5 * math.pi + np.arctan((-y_top - ui) / vi))
        out[inside] = (bulk + right + left) / math.pi + spec.c_lin * vi
    out = out.reshape(shape)
    return out


def evaluate(spec: HarmonicSpec, u, v):
    """Density value at zeta = u + i v; u, v broadcast like numpy operands."""
    v_arr = np.asarray(v, dtype=float)
    _check_v_domain(spec, v_arr)
    if isinstance(spec, PoissonSpec):
        out = _poisson_eval(spec, u, v_arr)
        return float(out) if out.ndim == 0 else out
    u_arr = np.asarray(u, dtype=float)
    if spec.on_strip:
        out = spec.a0 * (1.0 - v_arr / spec.strip_c) + spec.b0 * v_arr
    else:
        out = spec.a0 + spec.b0 * v_arr
    out = out + np.zeros_like(u_arr)
    for k, ak, bk in spec.modes:
        phase = k * u_arr / spec.b
        out = out + np.exp(k * v_arr / spec.b) * (ak * np.cos(phase) + bk * np.sin(phase))
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


def laplacian_residual(spec: HarmonicSpec, u: float, v: float, h: float) -> float:
    """5-point discrete Laplacian at (u, v); near 0 iff eval is harmonic there."""
    if h <= 0.0:
        raise DomainError("stencil step must be positive")
    lo = v - h
    if lo < 0.0:
        raise DomainError("stencil dips below the leaf boundary")
    if isinstance(spec, FourierSpec) and spec.on_strip and v + h > spec.strip_c:
        raise DomainError("stencil exceeds the strip height")
    c = evaluate(spec, u, v)
    s = (
        evaluate(spec, u + h, v)
        + evaluate(spec, u - h, v)
        + evaluate(spec, u, v + h)
        + evaluate(spec, u, v - h)
    )
    return (s - 4.0 * c) / h**2


def _edges(spec: FourierSpec):
    """(v, base value) of each edge that holds the density's minimum."""
    if spec.on_strip:
        return ((0.0, spec.a0), (spec.strip_c, spec.b0 * spec.strip_c))
    return ((0.0, spec.a0),)


def _scan_edge(spec: FourierSpec, base: float, growth, amps) -> bool:
    """Certified scan of T(u) = base + sum_k g_k (a_k cos + b_k sin)(k u/b).

    g_k = e^{k v/b} is the mode's growth to the edge and R_k = hypot(a_k,
    b_k) g_k its amplitude there. Each interval of half-width h around a
    sample u_i is bounded below by T(u_i) - |T'(u_i)| h - M h^2 / 2, with
    M = sum_k (k/b)^2 R_k >= |T''|, less a rounding allowance. Intervals
    whose bound is below -POSITIVITY_TOL are bisected. True once every
    interval is certified, False as soon as a sample dips below
    -POSITIVITY_TOL.
    """
    ks = np.array([k for k, _, _ in spec.modes], dtype=float)
    freqs = ks / spec.b
    cos_coef = np.array([a for _, a, _ in spec.modes]) * growth
    sin_coef = np.array([bb for _, _, bb in spec.modes]) * growth
    curvature = float(np.dot(freqs**2, amps))
    # the sums round at a few eps of their terms; a phase k u/b <= 2 pi |k|
    # and a sample point round at eps of their size, moving T by that much
    # times its slope
    eps = np.finfo(float).eps
    rounding = 4.0 * eps * (ks.size + 2) * (abs(base) + float(np.dot(1.0 + TWO_PI * np.abs(ks), amps)))
    half = math.pi * spec.b / EDGE_SCAN_START
    mids = (2.0 * np.arange(EDGE_SCAN_START) + 1.0) * half
    samples = 0
    while mids.size:
        samples += mids.size
        if samples > EDGE_SCAN_BUDGET:
            raise InvalidSpecError(f"spec: positivity could not be certified within {EDGE_SCAN_BUDGET} edge samples")
        phase = np.multiply.outer(mids, freqs)
        cos, sin = np.cos(phase), np.sin(phase)
        value = base + cos @ cos_coef + sin @ sin_coef
        # negated comparisons, so a NaN counts as a dip, never as certified
        if not np.all(value >= -POSITIVITY_TOL):
            return False
        slope = np.abs(cos @ (freqs * sin_coef) - sin @ (freqs * cos_coef))
        lower = value - slope * half - 0.5 * curvature * half * half - rounding
        open_mids = mids[~(lower >= -POSITIVITY_TOL)]
        half *= 0.5
        mids = np.concatenate((open_mids - half, open_mids + half))
    return True


def check_positivity(spec: HarmonicSpec) -> bool:
    """True iff the density stays above -1e-12 on its whole domain.

    A trig spec is harmonic and 2 pi b-periodic in u, so its minimum over a
    strip lies on an edge, v = 0 or v = C; on a half-plane it lies on v = 0,
    since the density tends to a0 + b0 v >= 0 as v grows. No 2-D grid is
    needed. On an edge the density is base + sum_k R_k cos(k u/b - phi_k),
    at least base - sum_k R_k with equality for one mode, and the edge
    passes when that is >= -1e-12. A multi-mode edge that fails this
    envelope gets a certified 1-D scan over one period (_scan_edge). A spec
    whose scan runs out of budget raises InvalidSpecError instead of
    answering.

    A PoissonSpec is positive by construction, so the answer is True: its
    constructor refuses negative samples, tail and c_lin, and the Poisson
    kernel, the tail terms and c_lin v keep nonnegative data nonnegative.
    """
    if isinstance(spec, PoissonSpec):
        return True
    for v, base in _edges(spec):
        growth = [math.exp(k * v / spec.b) for k, _, _ in spec.modes]
        amps = [math.hypot(a, bb) * g for (_, a, bb), g in zip(spec.modes, growth)]
        if base - sum(amps) >= -POSITIVITY_TOL:
            continue
        if len(amps) == 1 or not _scan_edge(spec, base, growth, amps):
            return False
    return True


def normalize(spec: HarmonicSpec) -> HarmonicSpec:
    """Rescale so the density is 1 at the base point u = v = 0."""
    base = evaluate(spec, 0.0, 0.0)
    if not (base > 0.0) or not math.isfinite(base):
        raise NormalizationError(f"degenerate normalization: density at the base point is {base}")
    if isinstance(spec, FourierSpec):
        return replace(
            spec,
            a0=spec.a0 / base,
            b0=spec.b0 / base,
            modes=tuple((k, a / base, bb / base) for k, a, bb in spec.modes),
        )
    return PoissonSpec(
        ys=spec.ys,
        values=spec.values / base,
        tail=spec.tail / base,
        c_lin=spec.c_lin / base,
    )


# ---------------------------------------------------------------------------
# monodromy translation


def translate(spec: HarmonicSpec, k: int) -> Tuple[HarmonicSpec, float]:
    """Density seen from the k-th deck image of the leaf window.

    Returns (spec_beta, c) with spec_beta(u + i v) = spec(u + 2 k pi + i v)/c
    and c = spec at (2 k pi, 0), so spec_beta is again normalized. For
    Poisson data the shift must be a whole number of grid steps and the
    boundary grid must still cover a symmetric window after the shift.
    """
    if k == 0:
        return normalize(spec), evaluate(spec, 0.0, 0.0)
    shift = TWO_PI * k
    c = evaluate(spec, shift, 0.0)
    if not (c > 0.0):
        raise NormalizationError(f"density vanishes at the translated base point (k = {k})")
    if isinstance(spec, FourierSpec):
        new_modes = []
        for km, a, bb in spec.modes:
            theta = shift * km / spec.b
            ct, st = math.cos(theta), math.sin(theta)
            new_modes.append((km, (a * ct + bb * st) / c, (-a * st + bb * ct) / c))
        return (
            replace(spec, a0=spec.a0 / c, b0=spec.b0 / c, modes=tuple(new_modes)),
            c,
        )
    step = spec.step
    m = shift / step
    m_int = round(m)
    if abs(m - m_int) > 1e-9 * max(1.0, abs(m)):
        raise InvalidSpecError("spec.boundary.ys: grid step does not divide the 2 k pi shift")
    n = spec.ys.size
    drop = 2 * abs(m_int)
    if n - drop < 2:
        raise InvalidSpecError("spec.boundary.ys: grid too narrow for this translation")
    start = m_int + abs(m_int)  # 2m for k > 0, 0 for k < 0
    new_values = spec.values[start : n - (drop - start)] / c
    half = spec.half_width - abs(shift)
    new_ys = np.linspace(-half, half, n - drop)
    return PoissonSpec(ys=new_ys, values=new_values, tail=spec.tail / c, c_lin=spec.c_lin / c), c


def verify_monodromy_relation(
    lam,
    spec_alpha: HarmonicSpec,
    spec_beta: HarmonicSpec,
    k: int,
    tol: float = 1e-6,
) -> bool:
    """Check spec_alpha(u + i v) = c * spec_beta(u - 2 k pi + i v) on a lattice.

    c is spec_alpha at (2 k pi, 0). The eigenvalue is part of the contract
    (the relation is only meaningful when beta = alpha e^{2 pi i k lam}),
    but the lattice test itself runs on the two densities alone.
    """
    del lam  # caller's responsibility; see docstring
    shift = TWO_PI * k
    c = evaluate(spec_alpha, shift, 0.0)
    us = np.linspace(-3.0 * math.pi, 3.0 * math.pi, 13) + shift
    if isinstance(spec_alpha, FourierSpec) and spec_alpha.on_strip:
        vs = np.linspace(0.0, spec_alpha.strip_c, 7)
    else:
        vs = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
    for v in vs:
        lhs = evaluate(spec_alpha, us, v)
        rhs = c * np.asarray(evaluate(spec_beta, us - shift, v))
        if np.max(np.abs(lhs - rhs)) > tol * max(1.0, float(np.max(np.abs(lhs)))):
            return False
    return True


# ---------------------------------------------------------------------------
# window integrals in u (exact, so mass quadrature stays one-dimensional)


# a NamedTuple, not a dataclass: it costs a fifth as much to define at import
class FourierColumns(NamedTuple):
    """A sequence of FourierSpecs as columns, one row per spec.

    Per row: the period multiple b, a0, b0 and strip_c, which is inf on
    half-planes. Per mode, in row and mode order: owner, the row it belongs
    to, and k, a_k, b_k. b and k are int64, so every JSON integer field
    keeps its value. A row may also stand for a spec that is not a trig
    series; it then holds the zero density, b = 1 and no modes.
    """

    b: np.ndarray
    a0: np.ndarray
    b0: np.ndarray
    strip_c: np.ndarray
    owner: np.ndarray
    k: np.ndarray
    ak: np.ndarray
    bk: np.ndarray


def fourier_columns(specs) -> FourierColumns:
    """The FourierColumns of a sequence of specs; other specs get zero rows."""
    rows = [(spec.b, spec.a0, spec.b0, math.inf if spec.strip_c is None else spec.strip_c)
            if isinstance(spec, FourierSpec) else (1, 0.0, 0.0, math.inf) for spec in specs]
    modes = [(i, k, ak, bk) for i, spec in enumerate(specs) if isinstance(spec, FourierSpec)
             for k, ak, bk in spec.modes]
    b, a0, b0, strip_c = zip(*rows) if rows else ((),) * 4
    owner, k, ak, bk = zip(*modes) if modes else ((),) * 4
    return FourierColumns(
        np.array(b, dtype=np.int64), np.array(a0, dtype=float), np.array(b0, dtype=float),
        np.array(strip_c, dtype=float), np.array(owner, dtype=np.intp), np.array(k, dtype=np.int64),
        np.array(ak, dtype=float), np.array(bk, dtype=float),
    )


def mode_integrals(cols: FourierColumns, u0: float, u1: float) -> np.ndarray:
    """C_k per mode of cols, with C_k e^{k v / b} the mode's integral over u in [u0, u1].

    Each C_k is bit for bit what scalar arithmetic gives: sin and cos go
    through math.
    """
    if not cols.k.size:  # mode-free specs: no numpy calls on empty arrays
        return np.zeros(0)
    k, b = cols.k.astype(float), cols.b[cols.owner].astype(float)
    n = k.size
    phases = np.concatenate((k * u1 / b, k * u0 / b))
    sin, cos = float_map(math.sin, phases), float_map(math.cos, phases)
    ds, dc = sin[:n] - sin[n:], cos[:n] - cos[n:]
    return b / k * (cols.ak * ds - cols.bk * dc)


@dataclass(frozen=True, eq=False)
class FourierWindow:
    """Trig specs stacked one per row, with their integrals over u in [u0, u1].

    Each spec field is a column of shape (n, 1), or (n, M) for the modes,
    so a window broadcasts against an (n, nodes) block of heights, row i
    being the i-th spec. strip_c is inf on half-planes, where a0 (1 - v / strip_c)
    is then a0; rows with fewer than M modes are padded with zero modes.
    """

    u0: float
    u1: float
    a0: np.ndarray
    b0: np.ndarray
    strip_c: np.ndarray
    b: np.ndarray
    ks: np.ndarray
    coefs: np.ndarray  # mode_integrals's C_k over [u0, u1]

    def take(self, rows) -> "FourierWindow":
        """The window of the specs at rows, in that order."""
        return FourierWindow(self.u0, self.u1, self.a0[rows], self.b0[rows], self.strip_c[rows],
                             self.b[rows], self.ks[rows], self.coefs[rows])


def fourier_window(specs, u0: float, u1: float) -> FourierWindow:
    """The row-stacked window over [u0, u1] of a sequence of FourierSpecs or of their columns."""
    cols = specs if isinstance(specs, FourierColumns) else fourier_columns(specs)
    rows = cols.a0.size
    counts = np.bincount(cols.owner, minlength=rows)
    slot = np.arange(cols.owner.size) - (np.cumsum(counts) - counts)[cols.owner]
    ks = np.zeros((rows, int(counts.max(initial=0))))
    coefs = np.zeros(ks.shape)
    ks[cols.owner, slot] = cols.k
    coefs[cols.owner, slot] = mode_integrals(cols, u0, u1)
    return FourierWindow(
        u0, u1,
        a0=cols.a0.reshape(-1, 1),
        b0=cols.b0.reshape(-1, 1),
        strip_c=cols.strip_c.reshape(-1, 1),
        b=cols.b.astype(float).reshape(-1, 1),
        ks=ks,
        coefs=coefs,
    )


# Far-field expansion of the Poisson window kernel, after Greengard & Rokhlin,
# "A fast algorithm for particle simulations" (J. Comput. Phys. 1987), in its
# one-level, one-dimensional form. With h the half-width of the u-window, c
# its centre, s = y - c and zeta = s + i v, a kernel entry is
#   arctan2(2 h v, v^2 + s^2 - h^2) = -2 Im sum_{m odd} (h / zeta)^m / m.
# Expanding zeta^-m in i v / s leaves sum_{p even} |s|^-p times a polynomial in
# h and v that is the same for every node, so the nodes with
# |s| > FAR_RATIO (h + v) enter only through their moments sum w |s|^-p. The
# order-p term is at most 2 x^p, x = (h + v) / |s| < 1 / FAR_RATIO, so
# stopping at p = FAR_ORDER leaves at most 2 x^(FAR_ORDER + 1) / (1 - x) per
# unit weight: 2 * 0.4^41 / 0.6 = 1.6e-16, or 5e-17 W in the window integral
# after its division by pi, W being the far weight.
FAR_ORDER = 40
FAR_RATIO = 2.5
# Shells R_j = FAR_RATIO h SHELL_GROWTH^j. A block takes the smallest shell its
# heights allow, so it sums at most SHELL_GROWTH times the fewest near nodes
# possible, and a grid has about 2 log2(extent / (FAR_RATIO h)) shells.
SHELL_GROWTH = math.sqrt(2.0)
# Grids with fewer nodes are always summed directly: a ladder costs about
# FAR_ORDER / 2 vector passes over its grid to build, and on a small grid the
# near range of a high block is most of the grid anyway. Timed on the 14
# 15-node blocks of a 12-halving schedule (v_max 1.7 to 44, step pi/24,
# ladder build included; 2-core Xeon, medians of 15): 1025 nodes 2.2 ms
# direct against 2.4 ms with a ladder, 1281 nodes 2.0 against 1.8, 1537 2.4
# against 1.9 and 3073 8.2 against 2.6. So the corpus's 769-node grids stay
# direct.
LADDER_MIN_POINTS = 1200


def _far_terms():
    # row i is q = 2 i + 1 and column k is p = 2 k + 2: the weight
    # 2 (-1)^i C(p - 1, q) / (p - q) of (v / R)^q (h / R)^(p - q) (R / |s|)^p
    # for p > q, and that exponent p - q
    order = FAR_ORDER // 2
    terms = np.zeros((order, order))
    powers = np.zeros((order, order))
    for i in range(order):
        q = 2 * i + 1
        for k in range(i, order):
            p = 2 * k + 2
            terms[i, k] = 2.0 * (-1) ** i * math.comb(p - 1, q) / (p - q)
            powers[i, k] = p - q
    return terms, powers


_FAR_TERMS, _FAR_POWERS = _far_terms()
_EVEN_POWERS = np.arange(FAR_ORDER // 2)


def _far_coefficients(moments: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """Per shell, the coefficients of (v / R)^q, q = 1, 3, ..., FAR_ORDER - 1, in the far sum.

    moments[j, k] is the sum of w (R_j / |s|)^p, p = 2 k + 2, over shell j's
    far nodes, and ratio[j] = h / R_j. Everything is scaled by R_j, so no
    power over- or underflows harmfully however small h is.
    """
    scale = np.power(ratio[:, None, None], _FAR_POWERS)
    return np.einsum("qp,jqp,jp->jq", _FAR_TERMS, scale, moments)


def _far_sum(betas: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The far kernel sum at t = v / R from one shell's coefficients."""
    return (np.power.outer(t * t, _EVEN_POWERS) @ betas) * t


@dataclass(frozen=True, eq=False)
class BoundaryGrid:
    """One trapezoid grid of a PoissonWindow, with its ladder of shells.

    weighted holds the samples times their trapezoid weights, and gap the
    products (y - u0)(y - u1), so no kernel block rebuilds them. Shell j has
    radius radii[j] about the window centre: the nodes within it are
    near[j, 0]:near[j, 1], and the others enter only through betas[j] (see
    _far_coefficients) and their total weight far_weight[j]. A grid with no
    shells sums every block directly.
    """

    half: float  # h, the half-width of the u-window
    weighted: np.ndarray
    gap: np.ndarray
    radii: np.ndarray
    near: np.ndarray
    betas: np.ndarray
    far_weight: np.ndarray

    def shell(self, v_max: float) -> Optional[int]:
        """The smallest shell whose far nodes converge at heights up to v_max, if any."""
        # the ndarray method: this runs several times per kernel block,
        # where np.searchsorted's dispatch costs more than the search
        j = int(self.radii.searchsorted(FAR_RATIO * (self.half + v_max)))
        return j if j < self.radii.size else None

    def remainder(self, v_max: float) -> float:
        """Bound on the far sum's truncation error in a window integral, heights up to v_max."""
        j = self.shell(v_max)
        if j is None:
            return 0.0
        x = (self.half + v_max) / self.radii[j]
        return 2.0 * self.far_weight[j] * x ** (FAR_ORDER + 1) / ((1.0 - x) * math.pi)


def _shells(s: np.ndarray, weighted: np.ndarray, half: float):
    """radii, near, betas and far_weight of the shell ladder of nodes at s = y - c.

    Grids under LADDER_MIN_POINTS nodes, and grids inside the first shell, get none.
    """
    dist = np.abs(s)
    extent = float(dist.max())
    if s.size < LADDER_MIN_POINTS or extent <= FAR_RATIO * half:
        return np.empty(0), np.empty((0, 2), dtype=int), np.empty((0, FAR_ORDER // 2)), np.empty(0)
    count = math.ceil(math.log(extent / (FAR_RATIO * half)) / math.log(SHELL_GROWTH))
    radii = FAR_RATIO * half * SHELL_GROWTH ** np.arange(count + 1)
    radii = radii[radii < extent]  # every shell keeps a far node
    n = radii.size
    order = FAR_ORDER // 2
    # node i lies in annulus k: radii[k] < |s_i| <= radii[k + 1], and is far
    # for shells 0..k; each annulus's moments are taken about its own radius
    annulus = np.searchsorted(radii, dist) - 1
    far = np.flatnonzero(annulus >= 0)
    k = annulus[far]
    # the far nodes lie in runs of one annulus, at most two per annulus (one
    # each side of the window): summing runs is cheaper than binning nodes
    starts = np.flatnonzero(np.diff(k, prepend=-1))
    owner = np.zeros((n, starts.size))
    owner[k[starts], np.arange(starts.size)] = 1.0
    x2 = (radii[k] / dist[far]) ** 2
    sums = np.empty((starts.size, order))
    term = w = weighted[far]
    for i in range(order):
        term = term * x2
        sums[:, i] = np.add.reduceat(term, starts)
    moments = owner @ sums
    far_weight = owner @ np.add.reduceat(w, starts)
    # shell j's far nodes are annuli j, j + 1, ...: carry the moments inward,
    # from R_{j+1} to R_j = R_{j+1} / SHELL_GROWTH
    inward = SHELL_GROWTH ** (-2.0 * np.arange(1, order + 1))
    for j in range(n - 2, -1, -1):
        moments[j] += inward * moments[j + 1]
        far_weight[j] += far_weight[j + 1]
    near = np.stack((np.searchsorted(s, -radii, "left"), np.searchsorted(s, radii, "right")), axis=1)
    return radii, near, _far_coefficients(moments, half / radii), far_weight


def _boundary_grid(ys, weighted, u0: float, u1: float) -> BoundaryGrid:
    """ys's grid over [u0, u1], with its shell ladder."""
    half = 0.5 * (u1 - u0)
    shells = _shells(ys - 0.5 * (u0 + u1), weighted, half)
    return BoundaryGrid(half, weighted, (ys - u0) * (ys - u1), *shells)


def _full_samples(spec: PoissonSpec):
    """The grid's nodes and its samples times their trapezoid weights."""
    weighted = spec.step * spec.values
    weighted[[0, -1]] *= 0.5
    return spec.ys, weighted


def _probe_samples(spec: PoissonSpec):
    """The same for the half-density grid of the grid-model error's probe."""
    # every other node; an even-length grid keeps its last node too, one
    # step past the others, so the probe spans the whole grid
    ys, weighted = spec.ys[::2], 2.0 * spec.step * spec.values[::2]
    weighted[[0, -1]] *= 0.5
    if spec.ys.size % 2 == 0:
        weighted[-1] *= 1.5
        ys = np.append(ys, spec.ys[-1])
        weighted = np.append(weighted, 0.5 * spec.step * spec.values[-1])
    return ys, weighted


@dataclass(frozen=True, eq=False)
class PoissonWindow:
    """A PoissonSpec prepared for kernel sums over u in [u0, u1].

    The counterpart of FourierWindow for sampled data, built once per atom
    and schedule: the full grid and the half-grid probe of the grid-model
    error, each with its shell ladder (see BoundaryGrid).
    """

    spec: PoissonSpec
    u0: float
    u1: float
    full: BoundaryGrid
    probe: BoundaryGrid


def poisson_window(spec: PoissonSpec, u0: float, u1: float) -> PoissonWindow:
    """The PoissonWindow of spec over [u0, u1]; grids under LADDER_MIN_POINTS get no shells."""
    if not u1 > u0:
        raise DomainError("window integral needs u0 < u1")
    return PoissonWindow(
        spec, u0, u1,
        full=_boundary_grid(*_full_samples(spec), u0, u1),
        probe=_boundary_grid(*_probe_samples(spec), u0, u1),
    )


def _arctan_primitive(s, v):
    # d/ds [ s arctan(s/v) - (v/2) log(v^2 + s^2) ] = arctan(s/v)
    return s * np.arctan(s / v) - 0.5 * v * np.log(v * v + s * s)


def window_integral(spec: HarmonicSpec, u0: float, u1: float, v):
    """Integral of the density over u in [u0, u1] at height(s) v, exact in u.

    For trig specs the antiderivative is elementary. spec may also be a
    FourierWindow built for the same [u0, u1]: then row i of the (n, k)
    block v holds heights for its i-th spec. One FourierSpec is the
    one-row case. For Poisson specs the u-integral commutes with the finite
    trapezoid sum defining eval, so the result is the trapezoid sum of
    arctan differences plus closed-form tail terms: exactly the u-integral
    of eval, not a second approximation. It is row 0 of poisson_rows on
    the PoissonWindow of spec over [u0, u1]; on a grid with a shell ladder
    its far sum is within that window's full.remainder(max v).
    """
    if isinstance(spec, PoissonSpec):
        return _row(poisson_rows(poisson_window(spec, u0, u1), v)[0])
    if not u1 > u0:
        raise DomainError("window integral needs u0 < u1")
    if isinstance(spec, FourierSpec):
        spec = fourier_window((spec,), u0, u1)
    if (spec.u0, spec.u1) != (u0, u1):
        raise InputError("window integral over another u-window than its FourierWindow's")
    v_arr = np.asarray(v, dtype=float)
    _check_v_domain(spec, v_arr)
    out = (u1 - u0) * (spec.a0 * (1.0 - v_arr / spec.strip_c) + spec.b0 * v_arr)
    for m in range(spec.ks.shape[1]):
        out = out + np.exp(spec.ks[:, m:m + 1] * v_arr / spec.b) * spec.coefs[:, m:m + 1]
    if spec.a0.shape[0] == 1:
        out = out.reshape(v_arr.shape)
    return float(out) if out.ndim == 0 else out


def window_model_error(spec: PoissonSpec, u0: float, u1: float, v):
    """Bound on the boundary-grid part of the Poisson window integral.

    The trapezoid kernel sum is the defining evaluation, but only the
    continuum Poisson integral of the same data is exactly invariant under
    shifting the window by full turns. Richardson probe: re-sum on the
    half-density grid; the gap dominates the full-grid deviation from the
    continuum both in the smooth O(step^2) regime and in the near-boundary
    regime where the error is first order in the step. Tail and linear
    terms are continuum-exact and identical on both grids, so the gap is
    that of the grid sums alone. It is row 1 of poisson_rows on the
    PoissonWindow of spec over [u0, u1].
    """
    return _row(poisson_rows(poisson_window(spec, u0, u1), v)[1])


def _row(row: np.ndarray):
    return float(row) if row.ndim == 0 else row


def poisson_rows(window: PoissonWindow, v):
    """The window integral and its grid-model error bound at heights v.

    Row 0 of the result is the integral of window.spec over u in
    [window.u0, window.u1] and row 1 its grid-model error bound, each shaped
    like v; at v = 0 the integral is the data-exact boundary integral and
    the bound 0. Both rows come from one kernel block (_poisson_window).
    Where a shell of the window's ladders fits, the far sums are truncated
    expansions, so their remainder bounds at the largest height are added
    to row 1: the full grid's twice, once for the integral itself and once
    for its part in the gap, and the probe's once.
    """
    spec = window.spec
    v_arr = np.asarray(v, dtype=float)
    _check_v_domain(spec, v_arr)
    vv = np.ravel(v_arr)
    out = np.zeros((2, vv.size))
    at_boundary = vv <= 0.0
    if at_boundary.any():
        # kernel tends to a Dirac comb: the u-integral tends to the
        # boundary integral over the window, which is data-exact
        out[0, at_boundary] = boundary_integral(spec, window.u0, window.u1)
    inside = ~at_boundary
    if inside.any():
        v_in = vv[inside]
        value, coarse = _poisson_window(window, v_in)
        v_max = float(v_in.max())
        remainder = 2.0 * window.full.remainder(v_max) + window.probe.remainder(v_max)
        out[0, inside] = value
        out[1, inside] = np.abs(value - coarse) + remainder
    return out.reshape((2,) + v_arr.shape)


def _poisson_window(window: PoissonWindow, vflat):
    """The window's two kernel sums at the heights vflat > 0: (full grid's, probe's).

    The near nodes of the heights' shell are summed directly, as one
    arctan2 block, and the far ones through the shell's moments; every node
    when no shell fits. The probe's entries are columns of the same block,
    so it computes no kernel entry of its own.
    """
    spec, grid, probe = window.spec, window.full, window.probe
    u0, u1 = window.u0, window.u1
    width = u1 - u0
    vi = vflat[:, None]
    v_max = float(vflat.max())
    n = grid.gap.size
    j = grid.shell(v_max)
    near = (0, n) if j is None else tuple(grid.near[j])
    # probe node k is grid node 2k, but for an even-length grid's last,
    # which is its last node; with the same shells (the same radii) a
    # probe's near nodes are among the grid's, else the block takes them all
    jp = probe.shell(v_max)
    lo, hi = (0, n) if jp is None else near
    # arctan((y - u0)/v) - arctan((y - u1)/v) folded into one arctan2, valid
    # for v > 0 and u1 > u0: half the transcendental calls, and no
    # cancellation between two nearly equal angles far from the window
    kern = np.arctan2(width * vi, vi * vi + grid.gap[lo:hi])
    y_top = spec.half_width
    ends = np.array([[y_top - u0], [y_top - u1], [-y_top - u0], [-y_top - u1]])
    prim = _arctan_primitive(ends, vflat)
    right = spec.tail * (0.5 * math.pi * width - prim[0] + prim[1])
    left = spec.tail * (0.5 * math.pi * width + prim[2] - prim[3])
    linear = spec.c_lin * vflat * width
    cols = None if (lo, hi) == near else slice(near[0] - lo, near[1] - lo)
    value = (_grid_sum(grid, j, kern, cols, vflat) + right + left) / math.pi + linear
    p_near = (0, probe.gap.size) if jp is None else probe.near[jp]
    cols = np.minimum(2 * np.arange(*p_near), n - 1) - lo
    coarse = (_grid_sum(probe, jp, kern, cols, vflat) + right + left) / math.pi + linear
    return value, coarse


def _grid_sum(grid: BoundaryGrid, j: Optional[int], kern: np.ndarray, cols, vflat) -> np.ndarray:
    """The trapezoid kernel sum of grid through shell j, its near entries being kern[:, cols]."""
    # a contiguous copy, never a strided view: the matrix-vector product
    # rounds differently on a view, and would move the sums in their last bits
    block = kern if cols is None else np.ascontiguousarray(kern[:, cols])
    near = slice(None) if j is None else slice(*grid.near[j])
    bulk = block @ grid.weighted[near]
    if j is not None:
        bulk = bulk + _far_sum(grid.betas[j], vflat / grid.radii[j])
    return bulk


# ---------------------------------------------------------------------------
# boundary integrals (used by the interval lower bound)


def boundary_integral(spec: PoissonSpec, lo: float, hi: float) -> float:
    """Exact integral of the piecewise-linear boundary profile over [lo, hi]."""
    if not lo < hi:
        raise DomainError("boundary integral needs lo < hi")
    y_top = spec.half_width
    total = 0.0
    # constant tails
    if lo < -y_top:
        total += spec.tail * (min(hi, -y_top) - lo)
    if hi > y_top:
        total += spec.tail * (hi - max(lo, y_top))
    # piecewise-linear bulk: trapezoid over the grid knots is exact
    a = max(lo, -y_top)
    b = min(hi, y_top)
    if a < b:
        inner = spec.ys[(spec.ys > a) & (spec.ys < b)]
        pts = np.concatenate(([a], inner, [b]))
        total += float(_trapezoid(boundary_value(spec, pts), pts))
    return total


# ---------------------------------------------------------------------------
# serialization


def spec_to_json(spec: HarmonicSpec) -> dict:
    if isinstance(spec, FourierSpec):
        out = {
            "type": "fourier",
            "b": spec.b,
            "a0": spec.a0,
            "b0": spec.b0,
            "modes": [[k, a, bb] for k, a, bb in spec.modes],
        }
        if spec.on_strip:
            out["strip_c"] = spec.strip_c
        return out
    return {
        "type": "poisson",
        "boundary": {
            "ys": [float(y) for y in spec.ys],
            "values": [float(x) for x in spec.values],
            "tail": spec.tail,
        },
        "c_lin": spec.c_lin,
    }


def _require(obj: dict, field: str, path: str):
    """obj[field]; the error names the field under path, or alone if path is empty."""
    if field not in obj:
        name = f"{path}.{field}" if path else field
        raise InputError(f"{name}: missing required field")
    return obj[field]


# json_int and json_float run for every field of every atom, so they join path
# and field only for an error. They test exact types: the decoders give numbers
# as int or float, and a bool, whose type is bool, is refused.


def json_int(value, path: str, field: str) -> int:
    """The integer field `field` of the object at path in a decoded input file.

    Only JSON integers pass: no bools, no floats, and |n| < 2**63. The bound
    keeps the two decoders in step, since orjson returns integers beyond 64
    bits as floats and json returns them as ints; both are refused alike.
    """
    if type(value) is not int or not -(2**63) < value < 2**63:
        raise InputError(f"{path}.{field}: expected an integer with |n| < 2**63")
    return value


def json_float(value, path: str, field: str) -> float:
    """The float field `field` of the object at path in a decoded input file.

    Only JSON numbers pass: no strings, no bools, no null. An integer too
    large for a float raises OverflowError, which callers report as a
    non-numeric field of the enclosing object.
    """
    if type(value) is not float and type(value) is not int:
        raise InputError(f"{path}.{field}: expected a number")
    return float(value)


def spec_from_json(obj, path: str = "spec") -> HarmonicSpec:
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected an object")
    kind = _require(obj, "type", path)
    # no repr of a non-string: the two decoders give big integers as int or float
    if not isinstance(kind, str):
        raise InputError(f"{path}.type: expected the string 'fourier' or 'poisson'")
    if kind == "fourier":
        modes = obj.get("modes", [])
        if not isinstance(modes, list) or any(not isinstance(m, (list, tuple)) or len(m) != 3 for m in modes):
            raise InputError(f"{path}.modes: expected a list of [k, a_k, b_k] triples")
        b = json_int(obj.get("b", 1), path, "b")
        ks = [json_int(mode[0], path, "modes") for mode in modes]
        strip_c = obj.get("strip_c")
        try:
            return FourierSpec(
                b=b,
                a0=json_float(obj.get("a0", 0.0), path, "a0"),
                b0=json_float(obj.get("b0", 0.0), path, "b0"),
                modes=tuple((k, json_float(a, path, "modes"), json_float(bb, path, "modes"))
                            for k, (_, a, bb) in zip(ks, modes)),
                strip_c=None if strip_c is None else json_float(strip_c, path, "strip_c"),
            )
        except InvalidSpecError as exc:
            # the constructors name fields from "spec"; name them from path
            raise InvalidSpecError(path + str(exc).removeprefix("spec")) from exc
        except OverflowError as exc:
            raise InputError(f"{path}: non-numeric field in fourier spec ({exc})") from exc
    if kind == "poisson":
        boundary = _require(obj, "boundary", path)
        if not isinstance(boundary, dict):
            raise InputError(f"{path}.boundary: expected an object")
        ys = _require(boundary, "ys", f"{path}.boundary")
        values = _require(boundary, "values", f"{path}.boundary")
        try:
            ys, values = np.asarray(ys, dtype=float), np.asarray(values, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"{path}.boundary: non-numeric boundary data ({exc})") from exc
        try:
            return PoissonSpec(
                ys=ys,
                values=values,
                tail=json_float(boundary.get("tail", 0.0), f"{path}.boundary", "tail"),
                c_lin=json_float(obj.get("c_lin", 0.0), path, "c_lin"),
            )
        except InvalidSpecError as exc:
            raise InvalidSpecError(path + str(exc).removeprefix("spec")) from exc
        except OverflowError as exc:
            raise InputError(f"{path}: non-numeric field in poisson spec ({exc})") from exc
    raise InputError(f"{path}.type: unknown spec type {kind!r}")
