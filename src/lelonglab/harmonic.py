"""Positive harmonic densities on leaf half-planes and strips.

Two finite representations cover every current we build: a trigonometric
series with decaying modes (periodic leaves, both half-plane and strip
variants) and a Poisson integral of sampled boundary data with constant
tails plus an optional linear term (aperiodic leaves). Both evaluate
exactly harmonically: the trig modes are harmonic one by one, and the
Poisson value is tail + c_lin v, the exact extension of the constant tail,
plus a trapezoid sum of harmonic kernels weighting each sample's departure
from the tail, each harmonic in (u, v) on its own.

Integrals over a u-window are exact in u. Over the whole turn [0, 2 pi]
that the mass routes take, a trig mode with b | k integrates to exactly 0,
and the window leaves it out. A PoissonSpec's row in FourierColumns is its
tail's extension tail + c_lin v, the mode-free trig row that column_row
gives it, so both mass routes integrate that part as a trig row. The rest
of its window integral is a kernel sum over the boundary grid of the
samples' departures from the tail, and a PoissonWindow is the one way into
it: poisson_departure_rows gives that sum and the window integral's
grid-model error for many panels above the boundary v = 0, one kernel
block each, since the error's half-density probe grid has its nodes among
the full grid's. poisson_rows adds the tail's exact part for one window
and takes the boundary itself, for window_integral and window_model_error.
Data whose samples are all the tail computes no kernel entry. A window on
a grid of LADDER_MIN_POINTS nodes or more sums the nodes far from the
u-window through their moments on a ladder of shells (a one-level
far-field expansion) and the rest directly, and adds the expansion's
truncation remainder to the error row, as it does the error of the
window's partial cells at its ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import DomainError, InputError, InvalidSpecError, NormalizationError

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
    out = np.empty(u.shape)
    at_boundary = v <= 0.0
    if at_boundary.any():
        out[at_boundary] = boundary_value(spec, u[at_boundary])
    inside = ~at_boundary
    if inside.any():
        # tail + c_lin v, exact, plus the trapezoid kernel sum of the
        # samples' departures from the tail
        ui, vi = u[inside], v[inside]
        ys, weighted = _full_samples(spec)
        kernel = vi[:, None] / (vi[:, None] ** 2 + (ys - ui[:, None]) ** 2)
        out[inside] = spec.tail + spec.c_lin * vi + (kernel @ weighted) / math.pi
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


def _scan_edge(b: int, modes, base: float, growth, amps) -> bool:
    """Certified scan of T(u) = base + sum_k g_k (a_k cos + b_k sin)(k u/b).

    g_k = e^{k v/b} is the mode's growth to the edge and R_k = hypot(a_k,
    b_k) g_k its amplitude there. Each interval of half-width h around a
    sample u_i is bounded below by T(u_i) - |T'(u_i)| h - M h^2 / 2, with
    M = sum_k (k/b)^2 R_k >= |T''|, less a rounding allowance. Intervals
    whose bound is below -POSITIVITY_TOL are bisected. True once every
    interval is certified, False as soon as a sample dips below
    -POSITIVITY_TOL.
    """
    ks = np.array([k for k, _, _ in modes], dtype=float)
    freqs = ks / b
    cos_coef = np.array([a for _, a, _ in modes]) * growth
    sin_coef = np.array([bb for _, _, bb in modes]) * growth
    curvature = float(np.dot(freqs**2, amps))
    # the sums round at a few eps of their terms; a phase k u/b <= 2 pi |k|
    # and a sample point round at eps of their size, moving T by that much
    # times its slope
    eps = np.finfo(float).eps
    rounding = 4.0 * eps * (ks.size + 2) * (abs(base) + float(np.dot(1.0 + TWO_PI * np.abs(ks), amps)))
    half = math.pi * b / EDGE_SCAN_START
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
    needed. Modes of equal k are first summed into one, (a, b) added left
    to right in their order, so the density is the same and its envelope
    no looser: modes that cancel leave nothing to bound. On an edge the
    density is then base + sum_k R_k cos(k u/b - phi_k), at least base -
    sum_k R_k with equality for one mode, and the edge passes when that is
    >= -1e-12. A multi-mode edge that fails this envelope gets a certified
    1-D scan over one period (_scan_edge). A spec whose scan runs out of
    budget, or whose mode growth e^{k v / b} to an edge overflows a float,
    raises InvalidSpecError instead of answering.

    A PoissonSpec is positive by construction, so the answer is True: its
    constructor refuses negative samples, tail and c_lin, and the Poisson
    integral of nonnegative data plus c_lin v is nonnegative. The discrete
    model weighs a sample below the tail negatively, so it keeps that sign
    only within its grid-model error (window_model_error).
    """
    if isinstance(spec, PoissonSpec):
        return True
    merged = {}  # k -> (a, b), in the order each k first appears
    for k, a, bb in spec.modes:
        if k in merged:
            a, bb = merged[k][0] + a, merged[k][1] + bb
        merged[k] = (a, bb)
    modes = [(k, a, bb) for k, (a, bb) in merged.items()]
    for v, base in _edges(spec):
        try:
            growth = [math.exp(k * v / spec.b) for k, _, _ in modes]
        except OverflowError:
            raise InvalidSpecError(
                f"spec.modes: a mode's growth e^(k v / b) to the edge v = {v} overflows a float"
            ) from None
        amps = [math.hypot(a, bb) * g for (_, a, bb), g in zip(modes, growth)]
        if base - sum(amps) >= -POSITIVITY_TOL:
            continue
        if len(amps) == 1 or not _scan_edge(spec.b, modes, base, growth, amps):
            return False
    return True


def _base_value(spec: HarmonicSpec) -> float:
    """Density at the base point u = v = 0, equal to evaluate(spec, 0.0, 0.0).

    For a trig spec that is a0 + sum_k a_k, since every sine vanishes and
    every exponential is 1 there; the terms are added left to right from 0,
    in the order evaluate adds them, so the two agree to the bit.
    """
    if isinstance(spec, PoissonSpec):
        return evaluate(spec, 0.0, 0.0)
    base = 0.0 + spec.a0
    for _, a, _ in spec.modes:
        base += a
    return base


def _refuse_overflow(c: float, coefs) -> None:
    """Refuse a rescale by c whose coefficients, coefs(), are not all finite.

    Only a c below 1, as a subnormal density makes it, can overflow a
    finite coefficient, so coefs is called only then. The spec constructors
    would refuse the overflow too, but as a non-finite field of the input,
    where the fault is the normalization's.
    """
    if c < 1.0 and not all(map(math.isfinite, coefs())):
        raise NormalizationError(f"degenerate normalization: rescaling by the density {c} overflows")


def normalize(spec: HarmonicSpec) -> HarmonicSpec:
    """Rescale so the density is 1 at the base point u = v = 0.

    The density there is _base_value's: a trig spec's a0 + sum_k a_k, with
    no numpy evaluate call. A base that is not positive and finite, or so
    small that a rescaled coefficient overflows, raises NormalizationError.
    """
    base = _base_value(spec)
    if not (base > 0.0) or not math.isfinite(base):
        raise NormalizationError(f"degenerate normalization: density at the base point is {base}")
    if isinstance(spec, FourierSpec):
        a0, b0 = spec.a0 / base, spec.b0 / base
        modes = tuple((k, a / base, bb / base) for k, a, bb in spec.modes)
        _refuse_overflow(base, lambda: (a0, b0, *(x for _, a, bb in modes for x in (a, bb))))
        return replace(spec, a0=a0, b0=b0, modes=modes)
    tail, c_lin = spec.tail / base, spec.c_lin / base
    _refuse_overflow(base, lambda: (float(spec.values.max()) / base, tail, c_lin))  # the values are >= 0
    return PoissonSpec(ys=spec.ys, values=spec.values / base, tail=tail, c_lin=c_lin)


# ---------------------------------------------------------------------------
# monodromy translation


def translate(spec: HarmonicSpec, k: int) -> Tuple[HarmonicSpec, float]:
    """Density seen from the k-th deck image of the leaf window.

    Returns (spec_beta, c) with spec_beta(u + i v) = spec(u + 2 k pi + i v)/c
    and c = spec at (2 k pi, 0), so spec_beta is again normalized. For
    Poisson data the shift must be a whole number of grid steps and the
    boundary grid must still cover a symmetric window after the shift. A
    c so small that a coefficient divided by it overflows raises
    NormalizationError, as in normalize.
    """
    if k == 0:
        return normalize(spec), _base_value(spec)
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
        a0, b0 = spec.a0 / c, spec.b0 / c
        _refuse_overflow(c, lambda: (a0, b0, *(x for _, a, bb in new_modes for x in (a, bb))))
        return replace(spec, a0=a0, b0=b0, modes=tuple(new_modes)), c
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
    kept = spec.values[start : n - (drop - start)]
    tail, c_lin = spec.tail / c, spec.c_lin / c
    _refuse_overflow(c, lambda: (float(kept.max()) / c, tail, c_lin))  # the values are >= 0
    half = spec.half_width - abs(shift)
    new_ys = np.linspace(-half, half, n - drop)
    return PoissonSpec(ys=new_ys, values=kept / c, tail=tail, c_lin=c_lin), c


# relative tolerance of verify_monodromy_relation's lattice comparison
MONODROMY_TOL = 1e-6


def verify_monodromy_relation(spec_alpha: HarmonicSpec, spec_beta: HarmonicSpec, k: int) -> bool:
    """Check spec_alpha(u + i v) = c * spec_beta(u - 2 k pi + i v) on a lattice.

    c is spec_alpha at (2 k pi, 0), and the two sides must agree within
    MONODROMY_TOL relative to max(1, max |lhs|) on each lattice row. The
    relation is only meaningful when beta = alpha e^{2 pi i k lam}; that is
    the caller's to ensure, as the lattice test runs on the two densities
    alone.
    """
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
        if np.max(np.abs(lhs - rhs)) > MONODROMY_TOL * max(1.0, float(np.max(np.abs(lhs)))):
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
    keeps its value. A PoissonSpec's row is its tail's extension
    tail + c_lin v (column_row), with no modes.
    """

    b: np.ndarray
    a0: np.ndarray
    b0: np.ndarray
    strip_c: np.ndarray
    owner: np.ndarray
    k: np.ndarray
    ak: np.ndarray
    bk: np.ndarray


def column_row(spec: HarmonicSpec) -> Tuple[int, float, float, float]:
    """(b, a0, b0, strip_c) of spec's row in FourierColumns.

    A trig spec's row holds its own fields, strip_c inf on a half-plane. A
    PoissonSpec's is its tail's extension tail + c_lin v, the part of its
    density that is harmonic with no kernel: b = 1, a0 = tail, b0 = c_lin,
    strip_c inf, and it owns no modes. Its samples' departures from the
    tail are the kernel sums of poisson_departure_rows.
    """
    if isinstance(spec, PoissonSpec):
        return 1, spec.tail, spec.c_lin, math.inf
    return spec.b, spec.a0, spec.b0, math.inf if spec.strip_c is None else spec.strip_c


def fourier_columns(specs) -> FourierColumns:
    """The FourierColumns of a sequence of specs, each row its column_row."""
    rows = [column_row(spec) for spec in specs]
    modes = [(i, k, ak, bk) for i, spec in enumerate(specs) if isinstance(spec, FourierSpec)
             for k, ak, bk in spec.modes]
    b, a0, b0, strip_c = zip(*rows) if rows else ((),) * 4
    owner, k, ak, bk = zip(*modes) if modes else ((),) * 4
    return FourierColumns(
        np.array(b, dtype=np.int64), np.array(a0, dtype=float), np.array(b0, dtype=float),
        np.array(strip_c, dtype=float), np.array(owner, dtype=np.intp), np.array(k, dtype=np.int64),
        np.array(ak, dtype=float), np.array(bk, dtype=float),
    )


def mode_turns(cols: FourierColumns, turns: int) -> np.ndarray:
    """k turns mod b per mode of cols, reduced in integers, as floats in [0, b).

    A mode's phase k (u + 2 pi turns) / b is k u / b plus 2 pi times this
    over b, modulo 2 pi. It is exact for any integers: only turns other
    than 0 and 1, whose products with an int64 k may overflow, pay for
    Python ints.
    """
    if turns in (0, 1):
        return np.mod(cols.k * turns, cols.b[cols.owner]).astype(float)
    return np.array([(k * turns) % b for k, b in zip(cols.k.tolist(), cols.b[cols.owner].tolist())], dtype=float)


def whole_turn_columns(cols: FourierColumns) -> FourierColumns:
    """cols without the modes that a whole-turn u-window integrates to zero, those with b | k.

    Such a mode's period 2 pi b / |k| divides 2 pi, so it has as much area
    above 0 as below over any whole number of turns. The rows and the other
    modes, in their order, stay as they are.
    """
    keep = np.mod(cols.k, cols.b[cols.owner]) != 0
    if keep.all():
        return cols
    return cols._replace(owner=cols.owner[keep], k=cols.k[keep], ak=cols.ak[keep], bk=cols.bk[keep])


def _whole_turn(u0: float, u1: float) -> bool:
    """True for the window [0, 2 pi] that both mass routes take, k0 turns out: one whole turn."""
    return u0 == 0.0 and u1 == TWO_PI


def mode_integrals(cols: FourierColumns, u0: float, u1: float, turns: int = 0) -> np.ndarray:
    """C_k per mode of cols, with C_k e^{k v / b} the mode's integral over u in [u0, u1] + 2 pi turns.

    The turns enter the phases through mode_turns, before any float is
    formed, so a window any number of turns out has the phases, and the C_k,
    of a window within one period of [u0, u1]. On the whole turn [0, 2 pi]
    both phase ends are reduced so: they are 2 pi / b times the mode_turns
    of turns and of turns + 1, each in [0, 2 pi), so a mode with b | k has
    two equal ends and a C_k of exactly 0. Any other window keeps its ends
    k u0 / b and k u1 / b, so every mode there has its float C_k.
    """
    if not cols.k.size:  # mode-free specs: no numpy calls on empty arrays
        return np.zeros(0)
    k, b = cols.k.astype(float), cols.b[cols.owner].astype(float)
    if _whole_turn(u0, u1):
        lower = TWO_PI * mode_turns(cols, turns) / b
        upper = TWO_PI * mode_turns(cols, turns + 1) / b
    else:
        shift = TWO_PI * mode_turns(cols, turns)
        upper, lower = (shift + k * u1) / b, (shift + k * u0) / b
    ds = np.sin(upper) - np.sin(lower)
    dc = np.cos(upper) - np.cos(lower)
    return b / k * (cols.ak * ds - cols.bk * dc)


class FourierWindow(NamedTuple):
    """Trig specs stacked one per row, with their integrals over u in [u0, u1].

    fields holds one column per spec and one row per field: a0, b0,
    strip_c, b, then the M mode rates k and the M integrals C_k of
    mode_integrals, specs with fewer than M modes padded with zero modes.
    On the whole turn [0, 2 pi] the modes are those whole_turn_columns
    keeps, and M counts only them.
    strip_c is inf on half-planes, where a0 (1 - v / strip_c) is then a0.
    Each field reads as an (n, 1) column, or (n, M) for the modes, so a
    window broadcasts against an (n, nodes) block of heights, row i being
    the i-th spec; every (n, 1) column is contiguous, and take gathers a
    window's specs with one copy.
    """

    u0: float
    u1: float
    fields: np.ndarray

    @property
    def a0(self) -> np.ndarray:
        return self.fields[0, :, None]

    @property
    def b0(self) -> np.ndarray:
        return self.fields[1, :, None]

    @property
    def strip_c(self) -> np.ndarray:
        return self.fields[2, :, None]

    @property
    def b(self) -> np.ndarray:
        return self.fields[3, :, None]

    @property
    def coefs(self) -> np.ndarray:
        """mode_integrals's C_k over [u0, u1]."""
        return self.fields[4 + self.modes:].T

    @property
    def modes(self) -> int:
        return (self.fields.shape[0] - 4) // 2

    def take(self, rows) -> "FourierWindow":
        """The window of the specs at rows, in that order."""
        return FourierWindow(self.u0, self.u1, self.fields.take(rows, axis=1))


def fourier_window(cols: FourierColumns, u0: float, u1: float, turns: int = 0) -> FourierWindow:
    """The row-stacked window over [u0, u1] + 2 pi turns of the specs in cols, one row per spec.

    The window keeps u0 and u1, the ends less the turns: its width is u1 - u0
    however many turns out it lies, and mode_integrals reduces the turns.
    The whole turn [0, 2 pi], the window of both mass routes, keeps only
    the modes whose integral over it is not 0 (whole_turn_columns): a row
    whose modes all have b | k has none, and costs its window integral no
    exponential. Every other window keeps every mode.
    """
    if _whole_turn(u0, u1):
        cols = whole_turn_columns(cols)
    counts = np.bincount(cols.owner, minlength=cols.a0.size)
    slot = np.arange(cols.owner.size) - (np.cumsum(counts) - counts)[cols.owner]
    n_modes = int(counts.max(initial=0))
    fields = np.zeros((4 + 2 * n_modes, cols.a0.size))
    fields[0], fields[1], fields[2], fields[3] = cols.a0, cols.b0, cols.strip_c, cols.b
    fields[4 + slot, cols.owner] = cols.k
    fields[4 + n_modes + slot, cols.owner] = mode_integrals(cols, u0, u1, turns)
    return FourierWindow(u0, u1, fields)


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
# after its division by pi, W being the far nodes' total absolute weight.
FAR_ORDER = 40
FAR_RATIO = 2.5
# Shells R_j = FAR_RATIO h SHELL_GROWTH^j. A block takes the smallest shell its
# heights allow, so it sums at most SHELL_GROWTH times the fewest near nodes
# possible, and a grid has about 2 log2(extent / (FAR_RATIO h)) shells.
SHELL_GROWTH = math.sqrt(2.0)
# A spec with fewer nodes is always summed directly, on its full grid and
# its half-grid probe alike: a ladder costs about FAR_ORDER / 2 vector
# passes over its grid to build, and on a small grid the near range of a
# high block is most of the grid anyway. Timed on the 14
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

    weighted holds the samples' departures from the tail times their
    trapezoid weights, and gap the products (y - u0)(y - u1), so no kernel
    block rebuilds them. Shell j has radius radii[j] about the window
    centre: the nodes within it are near[j, 0]:near[j, 1], and the others
    enter only through betas[j] (see _far_coefficients) and their total
    absolute weight far_weight[j]. A grid with no shells sums every block
    directly.
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


def _shells(s: np.ndarray, weighted: np.ndarray, half: float, ladder: bool):
    """radii, near, betas and far_weight of the shell ladder of nodes at s = y - c.

    Grids without a ladder, and grids inside the first shell, get none.
    """
    dist = np.abs(s)
    extent = float(dist.max(initial=0.0))  # 0 on a grid with no node
    if not ladder or extent <= FAR_RATIO * half:
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
    # the weights are departures from the tail, of either sign: the
    # remainder bound takes their sizes
    far_weight = owner @ np.add.reduceat(np.abs(w), starts)
    # shell j's far nodes are annuli j, j + 1, ...: carry the moments inward,
    # from R_{j+1} to R_j = R_{j+1} / SHELL_GROWTH
    inward = SHELL_GROWTH ** (-2.0 * np.arange(1, order + 1))
    for j in range(n - 2, -1, -1):
        moments[j] += inward * moments[j + 1]
        far_weight[j] += far_weight[j + 1]
    near = np.stack((np.searchsorted(s, -radii, "left"), np.searchsorted(s, radii, "right")), axis=1)
    return radii, near, _far_coefficients(moments, half / radii), far_weight


def _boundary_grid(ys, weighted, u0: float, u1: float, ladder: bool) -> BoundaryGrid:
    """ys's grid over [u0, u1], with its shell ladder if it gets one."""
    half = 0.5 * (u1 - u0)
    shells = _shells(ys - 0.5 * (u0 + u1), weighted, half, ladder)
    return BoundaryGrid(half, weighted, (ys - u0) * (ys - u1), *shells)


def _full_samples(spec: PoissonSpec):
    """The grid's nodes and their samples' departures from the tail times their trapezoid weights."""
    weighted = spec.step * (spec.values - spec.tail)
    weighted[[0, -1]] *= 0.5
    return spec.ys, weighted


def _probe_samples(spec: PoissonSpec):
    """The same for the half-density grid of the grid-model error's probe."""
    # every other node; an even-length grid keeps its last node too, one
    # step past the others, so the probe spans the whole grid
    ys, weighted = spec.ys[::2], 2.0 * spec.step * (spec.values[::2] - spec.tail)
    weighted[[0, -1]] *= 0.5
    if spec.ys.size % 2 == 0:
        weighted[-1] *= 1.5
        ys = np.append(ys, spec.ys[-1])
        weighted = np.append(weighted, 0.5 * spec.step * (spec.values[-1] - spec.tail))
    return ys, weighted


# A window end u strictly inside a grid cell [y_k, y_k + step] is a partial
# cell, which the Richardson probe can miss: where its own cells alias the
# full grid's, both grids count the same nodes and their gap vanishes. By
# Poisson summation, an infinite grid's trapezoid sum of a unit step at u,
# smoothed by the kernel at height v, is off by
#   (step / pi) arctan(q sin x / (1 - q cos x)),  q = e^{-2 pi v / step},
# x = 2 pi (u - y_k) / step: the sawtooth step (1/2 - (u - y_k) / step) as v
# falls to 0, 0 for an end on a node or mid-cell, and decaying as q above
# the boundary. The window's grid-model error adds it at each partial cell,
# times the larger departure from the tail at the cell's two nodes.


def _end_cells(spec: PoissonSpec, u0: float, u1: float):
    """(size, sin x, 1 - cos x) of each end of [u0, u1] inside a grid cell whose nodes depart from the tail."""
    ys, step = spec.ys, spec.step
    cells = []
    for u in (u0, u1):
        k = int(ys.searchsorted(u, "right")) - 1
        # an end that is a node but for the rounding of the grid is off it
        # by that rounding, as the kernel sums see it
        if not 0 <= k < ys.size - 1 or u == ys[k]:
            continue  # off the grid, or on a node
        size = max(abs(spec.values[k] - spec.tail), abs(spec.values[k + 1] - spec.tail))
        if size > 0.0:
            x = 2.0 * math.pi * (u - ys[k]) / step
            cells.append((size, math.sin(x), 2.0 * math.sin(0.5 * x) ** 2))
    return tuple(cells)


def _partial_cell_error(spec: PoissonSpec, cells, v: np.ndarray) -> np.ndarray:
    """The grid-model error of a window's partial cells at the heights v > 0."""
    em = np.expm1((-2.0 * math.pi / spec.step) * v)  # q - 1, exact as q tends to 1
    q = em + 1.0
    out = 0.0
    for size, sin_x, versin_x in cells:
        out = out + size * np.abs(np.arctan(q * sin_x / (q * versin_x - em)))
    return (spec.step / math.pi) * out


@dataclass(frozen=True, eq=False)
class PoissonWindow:
    """A PoissonSpec prepared for kernel sums over u in [u0, u1].

    The counterpart of FourierWindow for sampled data, built once per atom
    and schedule: the full grid and the half-grid probe of the grid-model
    error, each weighting the samples' departures from the tail and with its
    shell ladder (see BoundaryGrid), and the window ends' partial cells
    (_end_cells). The probe spans the full grid, so both ladders have the
    same radii, and one shell index serves both. A spec whose samples are
    all the tail has no node to sum, and leaves both grids empty.
    """

    spec: PoissonSpec
    u0: float
    u1: float
    full: BoundaryGrid
    probe: BoundaryGrid
    cells: tuple


def poisson_window(spec: PoissonSpec, u0: float, u1: float) -> PoissonWindow:
    """The PoissonWindow of spec over [u0, u1]; a spec under LADDER_MIN_POINTS nodes gets no shells."""
    if not u1 > u0:
        raise DomainError("window integral needs u0 < u1")
    full, probe = _full_samples(spec), _probe_samples(spec)
    if not full[1].any():
        full = probe = (np.empty(0), np.empty(0))
    ladder = spec.ys.size >= LADDER_MIN_POINTS
    return PoissonWindow(
        spec, u0, u1,
        full=_boundary_grid(*full, u0, u1, ladder),
        probe=_boundary_grid(*probe, u0, u1, ladder),
        cells=_end_cells(spec, u0, u1),
    )


def window_integral(spec: HarmonicSpec, u0: float, u1: float, v):
    """Integral of the density over u in [u0, u1] at height(s) v, exact in u.

    For trig specs the antiderivative is elementary. spec may also be a
    FourierWindow built for the same [u0, u1], any number of turns out
    (fourier_window): then row i of the (n, k) block v holds heights for
    its i-th spec. One FourierSpec is the one-row case. Over the whole
    turn [0, 2 pi] the window sums only the modes with b not dividing k,
    since the others integrate to 0 over it (whole_turn_columns); over any
    other window it sums every mode. The
    density (evaluate), check_positivity and the half-plane truncation
    envelope (mass._envelopes) always see every mode. For Poisson specs
    the u-integral commutes with the finite trapezoid sum defining eval,
    so the result is (tail + c_lin v)(u1 - u0) plus the trapezoid sum of
    arctan differences weighting the samples' departures from the tail:
    exactly the u-integral of eval, not a second approximation. Samples
    equal to the tail add nothing, so flat data gives
    (tail + c_lin v)(u1 - u0) exactly. It is row 0 of poisson_rows on
    the PoissonWindow of spec over [u0, u1]; on a grid with a shell ladder
    its far sum is within that window's full.remainder(max v).
    """
    if isinstance(spec, PoissonSpec):
        return _row(poisson_rows(poisson_window(spec, u0, u1), v)[0])
    if not u1 > u0:
        raise DomainError("window integral needs u0 < u1")
    if isinstance(spec, FourierSpec):
        spec = fourier_window(fourier_columns((spec,)), u0, u1)
    if (spec.u0, spec.u1) != (u0, u1):
        raise InputError("window integral over another u-window than its FourierWindow's")
    v_arr = np.asarray(v, dtype=float)
    _check_v_domain(spec, v_arr)
    # (u1 - u0) (a0 (1 - v / strip_c) + b0 v) + sum_k C_k e^{k v / b}, each
    # step in place on one block, in the formula's order
    a0, b0, strip_c, b = spec.a0, spec.b0, spec.strip_c, spec.b
    out = v_arr / strip_c
    np.subtract(1.0, out, out=out)
    out *= a0
    out += b0 * v_arr
    out *= u1 - u0
    fields, n = spec.fields, spec.modes
    for m in range(4, 4 + n):
        term = fields[m, :, None] * v_arr
        term /= b
        np.exp(term, out=term)
        term *= fields[m + n, :, None]
        out += term
    if fields.shape[1] == 1:
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
    that of the grid sums of the departures from the tail alone, and 0
    when every sample is the tail. A window end inside a grid cell adds
    that partial cell's error, which the probe can alias (_end_cells). It
    is row 1 of poisson_rows on the
    PoissonWindow of spec over [u0, u1]. Nonnegative data whose samples lie
    below the tail weigh some nodes negatively, so the window integral of
    such data is nonnegative only within this bound.
    """
    return _row(poisson_rows(poisson_window(spec, u0, u1), v)[1])


def _row(row: np.ndarray):
    return float(row) if row.ndim == 0 else row


def poisson_rows(window: PoissonWindow, v):
    """The window integral and its grid-model error bound at heights v.

    Row 0 of the result is the integral of window.spec over u in
    [window.u0, window.u1] and row 1 its grid-model error bound, each shaped
    like v. At v = 0 the integral is the data-exact boundary integral and
    the bound 0. Above the boundary they are poisson_departure_rows, whose
    docstring says how the rows are made, with the tail's exact part
    (tail + c_lin v)(u1 - u0) added to row 0.
    """
    v_arr = np.asarray(v, dtype=float)
    flat = v_arr.reshape(1, -1)
    spec = window.spec
    _check_v_domain(spec, flat)
    inside = flat[0] > 0.0
    out = np.empty((2, flat.size))
    if not inside.all():
        # kernel tends to a Dirac comb: the u-integral tends to the
        # boundary integral over the window, which is data-exact
        out[0] = boundary_integral(spec, window.u0, window.u1)
        out[1] = 0.0
    if inside.any():
        above = flat[:, inside]
        rows = poisson_departure_rows((window,), above)[0]
        rows[0] += (spec.tail + spec.c_lin * above[0]) * (window.u1 - window.u0)
        out[:, inside] = rows
    return out.reshape((2,) + v_arr.shape)


def poisson_departure_rows(windows, v: np.ndarray) -> np.ndarray:
    """The kernel sums of P panels above the boundary: the samples' departures from the tail.

    v is a (P, k) block of heights > 0, as the nodes of quadrature panels
    inside a plaque are, and out (P, 2, k): out[p] holds, at the heights
    v[p], windows[p]'s kernel sum over pi (row 0) and the whole grid-model
    error bound of its window integral (row 1), each panel's rows bit for
    bit what it gets alone; a height <= 0 raises DomainError. The window
    integral is row 0 plus the tail's exact part (tail + c_lin v)(u1 - u0),
    which poisson_rows adds and the mass routes integrate as the spec's
    trig row (column_row). Per panel whose samples are not all the tail run
    only its kernel sums (_poisson_window, one arctan2 block) and the
    bounds added to row 1: where a shell of its window's ladders fits, the
    truncated far sums' remainders at its largest height, the full grid's
    twice (for the integral, and for its part in the gap) and the probe's
    once, and the error of its window's partial cells (_end_cells). Row 0
    is the full grid's sum over pi, and row 1 the gap of the two sums over
    pi plus the bounds; a panel whose samples are all the tail gets zeros.
    """
    v_lo = float(v.min())
    if not v_lo > 0.0:
        raise DomainError(f"v = {v_lo} is not above the boundary v = 0")
    # one arctan2 block per panel, never one for the whole call: a stacked
    # block no longer fits in cache. Twelve 15-height panels on a 769-node
    # grid, sums included, take 1.15 ms as one (180, 769) block and 0.60 ms
    # as twelve (15, 769) blocks, and stacking made corpus verification go
    # from 11.4 to 12.9 ms (2-core Xeon)
    sums = np.zeros((2,) + v.shape)
    bounds = np.zeros(v.shape)
    for p, window in enumerate(windows):
        if window.full.gap.size:
            sums[0, p], sums[1, p] = _poisson_window(window, v[p])
            v_max = float(v[p].max())
            bounds[p] = 2.0 * window.full.remainder(v_max) + window.probe.remainder(v_max)
            if window.cells:
                bounds[p] += _partial_cell_error(window.spec, window.cells, v[p])
    return np.stack((sums[0] / math.pi, np.abs(sums[0] - sums[1]) / math.pi + bounds), axis=1)


def _poisson_window(window: PoissonWindow, vflat):
    """The window's two kernel sums at the heights vflat > 0: (full grid's, probe's).

    The near nodes of the heights' shell are summed directly, as one
    arctan2 block, and the far ones through the shell's moments; every node
    when no shell fits. The probe's entries are every other column of the
    same block, so it computes no kernel entry of its own. This is the only
    code that computes kernel entries; the exact part that makes the sums
    into window integrals is poisson_rows's, or, on both mass routes, the
    tail's trig row (column_row).
    """
    grid, probe = window.full, window.probe
    width = window.u1 - window.u0
    vi = vflat[:, None]
    v_max = float(vflat.max())
    n = grid.gap.size
    # the probe has the grid's shells, so its near nodes are among the grid's
    j = grid.shell(v_max)
    lo, hi = (0, n) if j is None else grid.near[j]
    # arctan((y - u0)/v) - arctan((y - u1)/v) folded into one arctan2, valid
    # for v > 0 and u1 > u0: half the transcendental calls, and no
    # cancellation between two nearly equal angles far from the window
    kern = np.arctan2(width * vi, vi * vi + grid.gap[lo:hi])
    # probe node k is grid node 2k, but for an even-length grid's last,
    # which is its last node: every other column from 2a, then that node's
    a, b = (0, probe.gap.size) if j is None else probe.near[j]
    even = (n + 1) // 2  # probe nodes at even grid nodes
    coarse = kern[:, 2 * a - lo::2][:, :min(b, even) - a]
    if b > even:
        coarse = np.concatenate((coarse, kern[:, -1:]), axis=1)
    return _grid_sum(grid, j, kern, vflat), _grid_sum(probe, j, coarse, vflat)


def _grid_sum(grid: BoundaryGrid, j: Optional[int], block: np.ndarray, vflat) -> np.ndarray:
    """The trapezoid kernel sum of grid through shell j, block holding its near entries."""
    # a contiguous copy, never a strided view: the matrix-vector product
    # rounds differently on a view, and would move the sums in their last bits
    block = np.ascontiguousarray(block)
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
