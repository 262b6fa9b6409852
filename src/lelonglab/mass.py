"""Mass and Lelong-number engines.

Two independent routes to the mass of a current on the bidisc of radius r:

* mass_quadrature: per atom, an adaptive v-integral of the exact u-window
  integral of the density times the leafwise area density, with certified
  truncation of the half-plane tail. Every row of the atom table's
  FourierColumns is a trig row: a trig atom whole, and a Poisson atom's
  tail extension (tail + c_lin v), which harmonic.column_row makes the row
  a0 = tail, b0 = c_lin with no modes. The Poisson atoms' departures from
  their tails are integrated apart (_departure_masses, the pass Lelong
  schedules take too) and added. Both are one _quadrature_pass, which
  differs only in its u-window integrand: the integrand does not depend on
  r, so each row is integrated once for a whole list of radii, one GK15
  partition seeded with every radius's v-limits and refined until each
  radius meets the tolerance on its own panels, all rows in lockstep with
  one integrand call per round. mass_quadrature is the one-radius case of
  mass_quadrature_schedule.
* mass_closed_form: exact for every trig-series current and u-window, as a
  finite sum of elementary integrals of (alpha + beta v) e^{-sigma v}. Its
  engine, _exact_masses, takes an AtomTable of one or many currents, each
  row with its own eigenvalue, and sums every current at every radius in
  one call: each term is one array entry, each (current, radius) group is
  added by one pairwise tree, and the reported rounding bound covers the
  terms and that summation. A group's tree does not depend on the other
  groups, so a batch gives every current what it gets alone.

Both engines of a batch return one (currents, radii, 2) array of masses and
their errors, so a schedule's departures are added to its exact masses with +.

The two must agree to quadrature error; the test suite pins that agreement
and checks the paper's displays (three-region brackets, strip integrals
Ia/Ib) against the exact route.

Lelong schedules (lelong_estimate, and the verifiers' batches) take one
path for every current. The exact route sums every row of the columns, a
Poisson row being its tail's extension. Then _departure_masses integrates
by quadrature only the Poisson atoms whose samples depart from their tail,
the kernel sums of values - tail with their grid-model error, and they are
added to their currents' masses. So flat Poisson data costs no kernel sum
on either route, and no quadrature on the exact one. The tests hold both
routes to a reference that integrates each Poisson atom whole.
lelong_from_masses turns the masses of a batch of schedules at the same
radii into their LelongEstimates.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .current import AtomTable, Current
from .errors import DomainError, InputError, QuadratureFailure, UnsupportedCurrentError
from .foliation import (
    Eigenvalue,
    coordinate_shift,
    jacobian_density,
    jacobian_rows,
    leaf_domain,
    plaque_logs,
    plaques_from_logs,
)
from .harmonic import (
    FourierSpec,
    PoissonSpec,
    boundary_integral,
    evaluate,
    fourier_window,
    mode_integrals,
    mode_turns,
    poisson_departure_rows,
    poisson_window,
    whole_turn_columns,
    window_integral,
    window_model_error,  # not called here: perfbench's layer trace wraps it by name
)
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate, integrate_lockstep

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class MassResult:
    value: float
    error_estimate: float
    r: float


@dataclass(frozen=True)
class LelongEstimate:
    """Mass-ratio schedule nu(r_n) with a limit bracket.

    limit_bracket is [nu_n - err_n, max(nu_{n-1} + err_{n-1}, nu_n + err_n)],
    its lower end at least 0: it brackets the last two radii's nus within
    their errors, and is not a certified bound on the limit, which can lie
    below its lower end (it does on five corpus currents). slope and
    r_squared describe the linear fit of nu against -log r; the diverging
    flag is the b0-divergence detector built from that fit.
    """

    rs: Tuple[float, ...]
    nus: Tuple[float, ...]
    errs: Tuple[float, ...]
    monotone_ok: bool
    limit_estimate: float
    limit_bracket: Tuple[float, float]
    slope: float
    r_squared: float
    diverging: bool


# A Poisson window's ends are floats, and rounding either end moves the
# window integral by up to an ulp of it times the density: a k0 whose window
# end has an ulp above this fraction of the window's width 2 pi is refused,
# so that move stays below about 1e-12 of the integral.
POISSON_END_ULP = 2.0**-40


def _window(k0: int) -> Tuple[float, float]:
    """The ends (u0, u1) of the k0-th u-window of a Poisson atom, [2 pi k0, 2 pi k0 + 2 pi], as floats.

    A k0 whose window end has an ulp above POISSON_END_ULP of 2 pi raises
    InputError naming k0, and so does a k0 whose end overflows, as its ulp
    is then inf. Only the kernel sums of Poisson atoms use these ends: trig
    rows reduce their phases in integers (harmonic.mode_integrals), and
    take any integer k0.
    """
    try:
        u0 = TWO_PI * k0
    except OverflowError:  # k0 past the float range
        u0 = math.inf
    u1 = u0 + TWO_PI
    if math.ulp(max(abs(u0), abs(u1))) > POISSON_END_ULP * TWO_PI:
        raise InputError(
            f"k0 = {k0}: an end of the Poisson window [2 pi k0, 2 pi k0 + 2 pi] has an ulp above "
            f"{POISSON_END_ULP!r} of its width 2 pi"
        )
    return u0, u1


# ---------------------------------------------------------------------------
# quadrature route


def _envelopes(table: AtomTable) -> List[Tuple[float, float]]:
    """The (P, Q) of every row of the table's columns, with |window integral| <= 2 pi (P + Q v) on the half plane.

    A row's bound is (a0 + sum_k |a_k| + |b_k|, b0), its ell-1 sum run left
    to right from 0, as FourierSpec.mode_l1 adds it. A Poisson row is its
    tail's extension, so its bound is (tail, c_lin); its departures from
    the tail have their own (_departure_masses).
    """
    cols = table.fourier
    peaks = cols.a0 + np.bincount(cols.owner, np.abs(cols.ak) + np.abs(cols.bk), cols.a0.size)
    return list(zip(peaks.tolist(), cols.b0.tolist()))


def _tail_integral(p: float, q: float, rate: float, v0: float) -> float:
    # int_{v0}^inf (p + q v) e^{-rate v} dv
    return math.exp(-rate * v0) * ((p + q * v0) / rate + q / rate**2)


def _truncate_half_plane(envelope, lv: float, jac, v_lo: float, cfg: QuadratureConfig):
    """Truncation height plus a certified bound on the discarded tail.

    envelope is the atom's (P, Q) of _envelopes, lv its eigenvalue and jac
    its (c1, c2) of jacobian_rows. The height is the first step where the
    integrand's envelope, 2 pi (P + Q v)(2 c1 e^{-2v} + 2 c2 e^{-2 lambda v}),
    falls below abs_tol / 1000, and the bound is that envelope's integral
    above the height, term by term.
    """
    p, q = envelope
    p *= TWO_PI
    q *= TWO_PI
    c1, c2 = 2.0 * jac[0], 2.0 * jac[1]
    r1, r2 = 2.0, 2.0 * lv
    threshold = cfg.abs_tol * 1e-3

    def env(v: float) -> float:
        return (p + q * v) * (c1 * math.exp(-r1 * v) + c2 * math.exp(-r2 * v))

    v_hi = v_lo + 1.0
    step = max(0.5, 0.5 / min(1.0, lv))
    while env(v_hi) > threshold and v_hi < v_lo + 5000.0:
        v_hi += step
    return v_hi, c1 * _tail_integral(p, q, r1, v_hi) + c2 * _tail_integral(p, q, r2, v_hi)


def _atom_ranges(lv: np.ndarray, moduli: np.ndarray, envelopes, rs, cfg: QuadratureConfig):
    """(lo, hi, tails, sizes): the v-ranges of every atom's plaques at rs, its tail bound, and the limits' size.

    lv holds each atom's eigenvalue, and envelopes its (P, Q) (_envelopes),
    which only half-plane atoms read.
    lo and hi are (atoms, radii) arrays of the plaques' limits (one
    plaque_logs call), lo shifted by coordinate_shift; an empty plaque has
    lo = hi = 0, so its sums are 0. Strips run between their ends and have
    no tail. Half-planes,
    never empty, share one truncation height per atom: the highest any of
    its radii needs, so its tail bound, the atom's entry of tails, covers
    them all; their Jacobian coefficients come from one jacobian_rows call.
    sizes, (|log|alpha|| - log r) / |lambda| per atom and radius, bounds
    the size of the logarithms that lo and a strip's hi are formed from,
    so their rounding is a few eps times it, as _exact_masses counts it.
    """
    log_am, log_r = plaque_logs(moduli, rs)
    v_min, v_max, empty = plaques_from_logs(lv, log_am, log_r)
    lo = np.where(empty, 0.0, v_min - coordinate_shift(lv, moduli)[:, None])
    hi = np.where(empty, 0.0, v_max)
    tails = np.zeros(moduli.size)
    half = np.flatnonzero(lv > 0.0)
    if half.size:
        jacs = jacobian_rows(lv[half], moduli[half]).coefficients.T.tolist()
        for i, jac in zip(half.tolist(), jacs):
            hi[i], tails[i] = max(_truncate_half_plane(envelopes[i], float(lv[i]), jac, low, cfg)
                                  for low in lo[i].tolist())
    return lo, hi, tails, (np.abs(log_am) - log_r) / np.abs(lv)[:, None]


def _quadrature_pass(table: AtomTable, rows: np.ndarray, envelopes, integrand, rs,
                     cfg: QuadratureConfig) -> np.ndarray:
    """(currents, radii, 2): the masses and errors of the table's rows at rs by quadrature, summed by current.

    rows are table rows in ascending order, and integrand(jobs, v) the
    u-window integral of the atom of row rows[job] at the (P, 15) heights
    v: (P, 15) values, or (P, 2, 15) with the grid-model error as row 1.
    Times the area density, each row is one job of a single
    integrate_lockstep call with one range per radius (_atom_ranges, which
    truncates half-planes by the rows' envelopes). A failure names the
    atom as its current numbers it, and the radii.

    A row's error adds to its panels' errors its tail bound, its grid-model
    row's value and error, and the rounding of its nonempty ranges' ends:
    EXACT_ROUNDING eps times the limits' size (_atom_ranges) times the
    integrand's size at each end, from one more integrand call, as the
    exact route counts it. That call takes each end at max(v, the least
    normal float): at r = 1 a half-plane's range starts at v = 0, where the
    kernel sums refuse the height, and every integrand here is continuous
    as v -> 0+. Each current's weighted rows are added in order; a current
    with no row gets zeros.
    """
    lv, moduli = table.lam[rows], table.moduli[rows]
    lo, hi, tails, sizes = _atom_ranges(lv, moduli, envelopes, rs, cfg)
    area = jacobian_rows(lv, moduli.reshape(-1, 1))
    # the rows of one current share its eigenvalue, which then goes to the
    # area density as a float, with no take per round
    uniform = bool((lv == lv[0]).all())
    lam = float(lv[0]) if uniform else lv[:, None]

    def weighted(jobs, v):
        out = integrand(jobs, v)
        density = jacobian_density(lam if uniform else lam[jobs], area.take(jobs), v)
        out *= density if out.ndim == 2 else density[:, None]
        return out

    owners = table.current[rows]
    try:
        values, errors = integrate_lockstep(weighted, lo, hi, cfg=cfg)
    except QuadratureFailure as exc:
        atom = int(rows[exc.job] - np.searchsorted(table.current, owners[exc.job]))
        radii = ", ".join(repr(rs[n]) for n in exc.ranges)
        raise QuadratureFailure(
            f"atoms[{atom}] at r = {radii}: {exc}", exc.best_estimate, exc.error_estimate,
            job=atom, ranges=exc.ranges,
        ) from exc
    n_radii = len(rs)
    ends = np.maximum(np.hstack((lo, hi)), sys.float_info.min)
    # the value row at every end, for a one-row integrand and a two-row one
    ends = np.abs(weighted(np.arange(rows.size), ends)).reshape(rows.size, -1, 2 * n_radii)[:, 0]
    weights = table.weights[rows, None]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is a non-finite mass
        rounding = EXACT_ROUNDING * sys.float_info.epsilon * sizes * (ends[:, :n_radii] + ends[:, n_radii:])
        errs = errors[..., 0] + tails[:, None] + np.where(lo < hi, rounding, 0.0)
        if values.shape[2] == 2:
            errs += values[..., 1] + errors[..., 1]
        parts = np.stack((weights * values[..., 0], weights * errs))
    out = np.zeros((int(table.current[-1]) + 1, n_radii, 2))
    # rows run current by current, so each current's rows are one slice of
    # parts, whose sum adds them in the order parts.sum would; + 0.0 makes a
    # -0.0 sum read 0.0
    cuts = [0, *(np.flatnonzero(np.diff(owners)) + 1).tolist(), rows.size]
    for a, b in zip(cuts[:-1], cuts[1:]):
        out[owners[a]] = (parts[:, a:b].sum(axis=1) + 0.0).T
    return out


def mass_quadrature_schedule(
    current: Current,
    rs,
    k0: int = 0,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> List[MassResult]:
    """Masses at every radius in rs over the k0-th u-window, by quadrature.

    Every row of the table's FourierColumns is integrated as a trig row: a
    trig atom whole, a Poisson atom by its tail's extension (tail + c_lin v),
    by one _quadrature_pass at every radius. Its integrand is one
    row-stacked FourierWindow k0 turns out, whose phases are reduced in
    integers, so a trig current takes any integer k0. The Poisson atoms'
    departures from their tails are then added (_departure_masses, which
    first refuses the k0s _window refuses).
    """
    rs = tuple(rs)
    if not rs:
        return []
    table = current.table
    departures = _departure_masses(table, rs, k0, cfg)
    # envelopes bound the half-plane atoms' tails, and a strip has none
    envelopes = _envelopes(table) if current.lam.value > 0.0 else None
    # one row per atom, k0 turns out: its width is 2 pi, and its phases are
    # reduced in integers
    window = fourier_window(table.fourier, 0.0, TWO_PI, k0)
    masses = _quadrature_pass(table, np.arange(table.lam.size), envelopes,
                              lambda jobs, v: window_integral(window.take(jobs), 0.0, TWO_PI, v), rs, cfg)
    masses += departures
    return [MassResult(value=v, error_estimate=e, r=r) for (v, e), r in zip(masses[0].tolist(), rs)]


def mass_quadrature(
    current: Current,
    r: float,
    k0: int = 0,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> MassResult:
    """Mass on the bidisc of radius r over the k0-th u-window, by quadrature."""
    return mass_quadrature_schedule(current, (r,), k0=k0, cfg=cfg)[0]


# ---------------------------------------------------------------------------
# the paper's closed forms: positive eigenvalue


def _bracket_a(lv: float, am: float, r: float) -> float:
    """Constant-coefficient bracket of the mass display, by alpha-region."""
    if am < r ** (1.0 - lv):
        return 1.0 + lv * am**2 * r ** (2.0 * lv - 2.0)
    return am ** (-2.0 / lv) * r ** (2.0 / lv - 2.0) + lv


def _bracket_b(lv: float, am: float, r: float) -> float:
    """Linear-coefficient bracket; the inner-region exponent is 2/lambda - 2.

    The middle and outer regions share every term except one log factor;
    both were checked symbolically against the defining integral.
    """
    log_r = math.log(r)
    if am < r ** (1.0 - lv):
        return 0.5 - log_r + am**2 * r ** (2.0 * lv - 2.0) * (0.5 - lv * log_r)
    decay = am ** (-2.0 / lv) * r ** (2.0 / lv - 2.0)
    out = 0.5 + 0.5 * decay - log_r
    if am < 1.0:
        log_am = math.log(am)
        return out + log_am + decay * (log_am - log_r) / lv
    return out - decay * log_r / lv


# ---------------------------------------------------------------------------
# the paper's strip integrals: negative eigenvalue


def _weight(factor, power, log_weight) -> np.ndarray:
    """factor * power, or exp(log_weight()) where the power overflowed, entry by entry.

    On the strip integrals' admissible range both weights are below 1, but
    one power of a product can overflow while the other underflows; only
    there does the weight go through logarithms.
    """
    weight = np.asarray(factor * power)
    over = np.isinf(power)
    if over.any():
        over = np.broadcast_to(over, weight.shape)
        weight[over] = np.exp(np.broadcast_to(log_weight(), weight.shape)[over])
    return weight


def _strip_terms(lv, am, r):
    """lambda, log|alpha|, log r and the inner and outer weights of the strip integrals.

    Entry by entry over the broadcast of lv, am and r, floats or arrays.
    Each term is worked out on the broadcast of the arguments it depends on
    alone, so a lattice given as broadcastable axes takes each log and
    power once per distinct argument. An inadmissible entry raises
    DomainError: the first such entry in order, with the first of its
    checks that fails.
    """
    lv, am, r = (np.asarray(a, dtype=float) for a in (lv, am, r))
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN power fails its check
        checks = (~(lv < 0.0), ~((0.0 < r) & (r <= 1.0)), ~((0.0 < am) & (am < np.power(r, 1.0 - lv))))
    bad = checks[0] | checks[1] | checks[2]
    if bad.any():
        at = int(np.argmax(bad))
        if np.broadcast_to(checks[0], bad.shape).flat[at]:
            raise DomainError("strip integrals need a negative eigenvalue")
        if np.broadcast_to(checks[1], bad.shape).flat[at]:
            raise DomainError("radius must lie in (0, 1]")
        am_at, r_at = (float(np.broadcast_to(a, bad.shape).flat[at]) for a in (am, r))
        raise DomainError(
            f"|alpha| = {am_at} outside the admissible range (0, r^(1-lambda)) at r = {r_at}"
        )
    log_am, log_r = np.log(am), np.log(r)
    with np.errstate(over="ignore", invalid="ignore"):  # _weight takes over where a power overflows
        inner, outer = 2.0 * lv - 2.0, 2.0 / lv - 2.0
        s_in = _weight(np.square(am), np.power(r, inner), lambda: 2.0 * log_am + inner * log_r)
        s_out = _weight(np.power(am, -2.0 / lv), np.power(r, outer), lambda: -2.0 / lv * log_am + outer * log_r)
    return lv, log_am, log_r, s_in, s_out


def _scalar(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def ia(lv, am, r):
    """Strip integral of the interpolating part against the area density.

    (1/r^2) int (1 - lambda v / log|alpha|) jac dv over the plaque strip.
    Floats give a float; arrays, broadcast against each other, give one
    entry per (lambda, |alpha|, r). Given as broadcastable axes, a lattice
    takes each log and power once per distinct argument (see _strip_terms).
    """
    lv, log_am, log_r, s_in, s_out = _strip_terms(lv, am, r)
    return _scalar(
        1.0
        + lv * s_in
        + (
            -2.0 * s_out * log_r
            + lv * s_out
            + 2.0 * lv * lv * s_in * log_r
            - lv * s_in
        )
        / (2.0 * log_am)
    )


def ib(lv, am, r):
    """Strip integral of v against the area density, (1/r^2) int v jac dv.

    Takes floats, arrays or broadcastable axes as ia does.
    """
    lv, log_am, log_r, s_in, s_out = _strip_terms(lv, am, r)
    return _scalar(0.5 * (
        -s_out * (lv + 2.0 * log_am - 2.0 * log_r) / lv
        + s_in * (1.0 - 2.0 * lv * log_r)
        - 2.0 * log_am
    ))


# ---------------------------------------------------------------------------
# exact route: every trig-series atom

# The exact route's rounding bound is EXACT_ROUNDING eps times the sum of the
# term magnitudes in _exact_masses, plus the bound on adding the terms. A
# term passes through about ten roundings (two logs, a subtraction, a
# division and the shift for its limits; its coefficient and rate; exp or
# expm1; the products), each within an ulp or two of numpy's ufuncs and
# amplified no more than its magnitude allows: 16 covers that count. The
# terms of a (current, radius) group are added by a pairwise tree, whose
# error is at most ceil(log2 n) eps times the sum of the |terms|
# (Higham, Accuracy and Stability of Numerical Algorithms, 2002, sec. 4.2).
EXACT_ROUNDING = 16.0


def _moments(sigma, lo, hi):
    """e^{-sigma lo}, e^{-sigma hi} and int_0^{hi - lo} t^j e^{-sigma t} dt, j = 0, 1.

    Entry by entry for flat arrays of one length. hi = inf needs
    sigma > 0. Near and at the resonance sigma = 0 the moments come from
    their Taylor series, so nothing cancels.
    """
    e_lo = np.exp(-sigma * lo)
    e_hi, m0, m1 = np.zeros(sigma.size), np.empty(sigma.size), np.empty(sigma.size)
    tail = hi == math.inf
    at = np.flatnonzero(tail)
    if at.size:
        s = sigma[at]
        m0[at] = 1.0 / s
        m1[at] = 1.0 / (s * s)
    fin = np.flatnonzero(~tail)
    if not fin.size:  # half-planes only
        return e_lo, e_hi, m0, m1
    length = hi[fin] - lo[fin]
    x = sigma[fin] * length
    series = np.abs(x) < 0.5
    at, xs, ls = fin[series], x[series], length[series]
    if at.size:
        # the terms (-x)^n / n!, n = 0..17, over n + 1 and n + 2, added in
        # order by cumsum: a sum's order would follow the array's layout,
        # and an entry would then depend on how many share the call
        n = np.arange(1.0, 19.0)[:, None]
        steps = np.ones((18, at.size))
        steps[1:] = -xs / n[:-1]
        terms = np.cumprod(steps, axis=0)
        e_hi[at] = e_lo[at] * np.exp(-xs)
        m0[at] = np.cumsum(terms / n, axis=0)[-1] * ls
        m1[at] = np.cumsum(terms / (n + 1.0), axis=0)[-1] * (ls * ls)
    at, xs, ls = fin[~series], x[~series], length[~series]
    if at.size:
        sg = sigma[at]
        em = np.expm1(-xs)
        m0[at] = -em / sg
        e_hi[at] = e_lo[at] * (1.0 + em)
        m1[at] = (m0[at] - ls * (1.0 + em)) / sg
    return e_lo, e_hi, m0, m1


def _group_sums(group, n_groups: int, rows: np.ndarray):
    """Each group's sums of rows (m, N), by a pairwise tree, and the tree's depth.

    group (N,) is nondecreasing, each entry's group. A group's entries are
    added in adjacent pairs, then the pairs' sums in pairs, and so on, so a
    group of n entries takes ceil(log2 n) levels, its depth, whatever the
    other groups hold: the groups are padded with zeros to one power-of-two
    width, and adding a zero is exact.
    """
    counts = np.bincount(group, minlength=n_groups)
    width = 1 << int(counts.max(initial=1) - 1).bit_length()
    block = np.zeros((rows.shape[0], n_groups, width))
    block[:, group, np.arange(group.size) - (np.cumsum(counts) - counts)[group]] = rows
    while block.shape[2] > 1:
        block = block[..., 0::2] + block[..., 1::2]
    return block[..., 0], np.frexp(np.maximum(counts - 1, 0))[1]


def _exact_masses(table: AtomTable, rs, k0: int = 0) -> np.ndarray:
    """(currents, radii, 2): the mass and its rounding bound at each radius in rs, for every current of the table.

    Every row of the table's columns is summed: a trig atom whole,
    a Poisson atom by its tail's extension (tail + c_lin v), the row
    harmonic.column_row gives it; its samples' departures from the tail
    are _departure_masses's. Per atom, jacobian_density is
    two exponentials (its jacobian_rows coefficients, rates 2 and
    2 lambda) and the k0-th window integral is
    (A + B v) + sum_k C_k e^{k v / b}, so the integrand is a finite sum of
    (alpha + beta v) e^{-sigma v}. Each term is
    integrated in closed form over the range the quadrature route uses: the
    plaque, shifted by coordinate_shift and running to infinity on
    half-planes. The window's width is 2 pi and its mode phases are
    reduced in integers, so any integer k0 is taken. A mode with b | k
    integrates to exactly 0 over that whole turn, so only the modes with
    b not dividing k get a window part and a bound term
    (harmonic.whole_turn_columns); the truncation envelope of the
    quadrature route (_envelopes) still bounds every mode.

    Every term of every current at every radius is one entry of a few flat
    arrays, with no Python loop over currents, atoms or terms; each atom's
    eigenvalue is read by row. The rounding bound is accounted term by term,
    and _group_sums adds each (current, radius) group's terms, their sizes
    and their magnitudes. An entry depends only on its atom, its
    eigenvalue, its radius and k0, and a group's sum only on its entries, so
    each current's (radii, 2) block is that of a table of that current
    alone at those radii alone.
    """
    cols = whole_turn_columns(table.fourier)
    moduli, weights, lv, owner, ak, bk = table.moduli, table.weights, table.lam, cols.owner, cols.ak, cols.bk
    a0, b0 = cols.a0, cols.b0
    coef = mode_integrals(cols, 0.0, TWO_PI, k0)
    # window parts (alpha, beta, growth rate, bound on |alpha|, bound on
    # |beta|): every atom's base, a0 (1 - v/C) + b0 v on a strip of height
    # C, then every mode the window keeps, whose bound also covers the
    # rounding of its phases: up to 2 pi m / |k| in u, m the larger of its
    # mode_turns at k0 and k0 + 1 turns, which give its phase ends
    n_atoms = moduli.size
    drop = TWO_PI * a0 / cols.strip_c
    base, slope = TWO_PI * a0, TWO_PI * b0
    grow = cols.k.astype(float) / cols.b[owner].astype(float)
    parts = np.zeros((5, n_atoms + owner.size))
    parts[0, :n_atoms] = parts[3, :n_atoms] = base
    parts[1, :n_atoms] = slope - drop
    parts[4, :n_atoms] = slope + drop
    part_owner = np.arange(n_atoms)
    if owner.size:
        reach = TWO_PI * np.maximum(mode_turns(cols, k0), mode_turns(cols, k0 + 1)) / np.abs(cols.k)
        parts[0, n_atoms:] = coef
        parts[2, n_atoms:] = grow
        parts[3, n_atoms:] = (np.abs(ak) + np.abs(bk)) * (2.0 / np.abs(grow) + reach)
        part_owner = np.concatenate((part_owner, owner))
    grow = parts[2]
    # weighted terms, one per jacobian exponential and window part: alpha,
    # beta, their bounds, sigma and its size
    c = 2.0 * jacobian_rows(lv, moduli).coefficients[:, part_owner]
    rates = np.empty(c.shape)
    rates[0] = 2.0
    rates[1] = 2.0 * lv[part_owner]
    terms = np.empty((6,) + c.shape)
    # a weight near the float limit overflows to inf, a non-finite mass
    with np.errstate(over="ignore", invalid="ignore"):
        terms[:2] = weights[part_owner] * c
        terms[2:4] = weights[part_owner] * np.abs(c)
        terms[:4] *= parts[[0, 1, 3, 4], None, :]
    terms[4] = rates - grow
    terms[5] = np.abs(rates) + np.abs(grow)
    # the plaques' limits and the bound on their size, per atom and radius;
    # coordinate_shift is 0 on strips, and half-planes run to infinity
    log_am, log_r = plaque_logs(moduli, rs)
    v_min, v_max, empty = plaques_from_logs(lv, log_am, log_r)
    n_currents = int(table.current[-1]) + 1 if n_atoms else 0
    limits = np.empty((3,) + v_min.shape)
    limits[0] = v_min - coordinate_shift(lv, moduli)[:, None]
    limits[1] = v_max
    limits[2] = (np.abs(log_am) - log_r) / np.abs(lv)[:, None]
    # one entry per (current, radius) group, window part whose atom has a
    # nonempty plaque at that radius, and jacobian term, in that order
    n_radii = v_min.shape[1]
    radius, part = np.nonzero(~empty.T[:, part_owner])
    group = table.current[part_owner[part]] * n_radii + radius
    order = np.argsort(group, kind="stable")
    radius, part, group = radius[order], part[order], group[order]
    a, bt, a_mag, b_mag, sigma, rate = terms[:, :, part].swapaxes(1, 2).reshape(6, -1)
    lo, hi, cond = limits[:, part_owner[part].repeat(2), radius.repeat(2)]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is a non-finite mass
        e_lo, e_hi, m0, m1 = _moments(sigma, lo, hi)
        values = e_lo * ((a + bt * lo) * m0 + bt * m1)
        # the integral of the bounds, amplified by the exponent's size,
        # plus the endpoint values times the size of the limits
        size = a_mag + b_mag * cond
        body = (1.0 + rate * cond) * (size * m0 + b_mag * m1)
        mags = e_lo * (body + cond * size) + e_hi * cond * size
        (value, size, mag), depth = _group_sums(group.repeat(2), n_currents * n_radii,
                                                np.stack((values, np.abs(values), mags)))
        bound = sys.float_info.epsilon * (EXACT_ROUNDING * mag + depth * size)
    return np.stack((value, bound), axis=1).reshape(n_currents, n_radii, 2)


def _departure_masses(table: AtomTable, rs, k0: int = 0, cfg: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    """(currents, radii, 2): the masses and errors of the Poisson atoms' departures from their tails.

    A Poisson atom's window integral is its tail extension's, whose mass
    _exact_masses sums, plus the kernel sum of its samples' departures from
    the tail over pi. Only atoms with a sample off the tail are integrated
    here, by one _quadrature_pass whose integrand is
    harmonic.poisson_departure_rows: the kernel sum and its grid-model
    error row. The truncation envelope is (max |values - tail|, 0). A
    current with no such atom gets zeros, so a flat atom gets no job, no
    PoissonWindow and no truncation walk. A table with a Poisson atom
    refuses the k0s _window refuses, whether or not an atom departs; an
    all-trig table returns at once.
    """
    out = np.zeros((int(table.current[-1]) + 1, len(rs), 2))
    if table.trig.all():
        return out
    u0, u1 = _window(k0)
    rows = np.array([i for i, spec in enumerate(table.poisson)
                     if spec is not None and (spec.values != spec.tail).any()], dtype=np.intp)
    if not rows.size:
        return out
    specs = [table.poisson[i] for i in rows.tolist()]
    envelopes = [(float(np.max(np.abs(spec.values - spec.tail))), 0.0) for spec in specs]
    windows = [poisson_window(spec, u0, u1) for spec in specs]
    return _quadrature_pass(table, rows, envelopes,
                            lambda jobs, v: poisson_departure_rows([windows[j] for j in jobs.tolist()], v), rs, cfg)


def closed_form_applicable(current: Current) -> bool:
    """True iff every atom is a trig series, so the exact route gives the whole mass.

    Read from current.table, which a current built in a batch builds on
    first use and keeps for the exact route.
    """
    return not any(current.table.poisson)


def mass_closed_form(current: Current, r: float, k0: int = 0) -> float:
    """Exact mass of an all-trig current on the bidisc of radius r, k0-th u-window.

    Its phases are reduced in integers, so it takes any integer k0, as the
    quadrature route does for an all-trig current.
    """
    if not closed_form_applicable(current):
        raise UnsupportedCurrentError("exact mass needs trig-series atoms")
    return float(_exact_masses(current.table, (r,), k0)[0, 0, 0])


# ---------------------------------------------------------------------------
# Poisson-kernel reductions


def boundary_reduction_check(
    lam: Eigenvalue,
    alpha_modulus: float,
    spec: PoissonSpec,
    r: float,
    u: float,
) -> float:
    """Ratio of the leafwise v-integral to the density at the boundary height.

    The reduction lemma trades the integral over the plaque for the density
    value at v_r (times a bounded constant); this returns the raw ratio so
    tests can pin the window it must land in. The integral is truncated and
    integrated at DEFAULT_CONFIG's tolerances.
    """
    if not (0.0 < lam.value <= 1.0):
        raise DomainError("reduction check needs an eigenvalue in (0, 1]")
    if not isinstance(spec, PoissonSpec) or spec.c_lin != 0.0:
        raise InputError("reduction check expects Poisson data with no linear term")
    if not (0.0 < r <= math.exp(-1.0 / lam.value)):
        raise DomainError("radius must lie in (0, e^(-1/lambda)]")
    dom = leaf_domain(lam, alpha_modulus, r)
    shift = coordinate_shift(lam, alpha_modulus)
    v_r = dom.v_min - shift
    area = jacobian_rows(lam, alpha_modulus)
    # the density is at most its largest sample or tail, plus c_lin v
    envelope = max(float(np.max(spec.values)), spec.tail), spec.c_lin
    v_hi, _tail = _truncate_half_plane(envelope, lam.value, area.coefficients.tolist(), v_r, DEFAULT_CONFIG)

    def integrand(v):
        return jacobian_density(lam, area, v) * np.asarray(evaluate(spec, u, v))

    value, _err = integrate(integrand, v_r, v_hi)
    denom = evaluate(spec, u, v_r)
    if not denom > 0.0:
        raise DomainError("density vanishes at the boundary height; ratio undefined")
    return (value / r**2) / denom


def kernel_weight(n: int) -> float:
    """Uniform interval weight 1/(1 + (|N|+1)^2).

    The covering argument bounds |u - y| by (|N|+1) window lengths on the
    N-th interval, symmetrically in the sign of N.
    """
    return 1.0 / (1.0 + (abs(n) + 1) ** 2)


def interval_window(n: int, k: int) -> Tuple[float, float]:
    """N-th interval of the 2 k pi decomposition of the boundary line."""
    if k < 2:
        raise InputError("interval decomposition needs k >= 2")
    width = TWO_PI * k
    if n == 0:
        return -width + TWO_PI, width
    if n > 0:
        return width * n, width * (n + 1)
    return width * (n - 1) + TWO_PI, width * n + TWO_PI


# the 2 k pi interval decomposition of lower_bound_nonperiodic: its k, and
# the intervals N in [-N_MAX, N_MAX] that it sums
INTERVAL_K = 2
INTERVAL_N_MAX = 20


def lower_bound_nonperiodic(current: Current) -> float:
    """Positive lower bound on the Lelong limit from boundary mass alone.

    Sums the per-interval boundary integrals of the INTERVAL_K decomposition,
    N from -INTERVAL_N_MAX to INTERVAL_N_MAX, against the kernel weights and
    scales by the declared constant min(1, lambda)/(2 pi); the bound is
    crude but certifiably below the limit for the corpus currents, which is
    all the positivity theorem needs in the aperiodic case.
    """
    if current.lam.is_negative:
        raise InputError("lower bound applies to positive eigenvalues")
    for atom in current.atoms:
        if not isinstance(atom.spec, PoissonSpec):
            raise UnsupportedCurrentError("interval lower bound needs Poisson atoms")
        if atom.spec.c_lin != 0.0:
            raise UnsupportedCurrentError("interval lower bound needs c_lin = 0")
    raw = 0.0
    for n in range(-INTERVAL_N_MAX, INTERVAL_N_MAX + 1):
        lo, hi = interval_window(n, INTERVAL_K)
        per_atom = sum(
            atom.weight * boundary_integral(atom.spec, lo, hi) for atom in current.atoms
        )
        raw += kernel_weight(n) * per_atom / (TWO_PI * INTERVAL_K)
    return min(1.0, current.lam.value) / TWO_PI * raw


# ---------------------------------------------------------------------------
# Lelong schedule


# the default schedule, STEPS radii from R_START down by RATIO: r = 1, 1/2, ..., 2^-11
R_START = 1.0
RATIO = 0.5
STEPS = 12

# The most radii lelong_radii builds, so that no steps asks for unbounded
# memory. A schedule step costs about 0.72 KB of peak memory (its radius,
# v-limits, panels and mass; measured at 10**5 and 3 10**5 steps of a trig
# atom, 2 us a step on a 2-core Xeon), so 10**6 steps take about 0.7 GB.
MAX_STEPS = 1_000_000

# a schedule counts as diverging when, besides a rising linear fit against
# -log r, its last nu exceeds this multiple of its first (or of that error)
DIVERGENCE_FACTOR = 2.0

# the signs of the rising and the falling monotonicity tests
_SIGNS = np.array([1.0, -1.0]).reshape(2, 1, 1)


def lelong_radii(r_start: float, ratio: float, steps: int) -> List[float]:
    """The geometric schedule r_start ratio^n, n < steps, of lelong_estimate.

    A radius that underflows to 0 raises DomainError naming the first such
    radius by its index, r_start and ratio, since no caller gave it. The
    radii do not increase, so only the last one is tested, and a bisection
    finds the first zero without building the schedule: a schedule of 10^12
    halvings is refused at once. A schedule of more than MAX_STEPS radii,
    none of them 0, raises InputError naming steps, before any is built.
    """
    if not (0.0 < r_start <= 1.0):
        raise DomainError("r_start must lie in (0, 1]")
    if not (0.0 < ratio < 1.0):
        raise InputError("ratio must lie in (0, 1)")
    if steps < 2:
        raise InputError("a schedule needs at least two steps")

    def vanishes(n: int) -> bool:
        try:
            return r_start * ratio**n == 0.0
        except OverflowError:  # n past the float range, where ratio^n underflows
            return True

    if vanishes(steps - 1):
        lo, n = 0, steps - 1  # radius lo is r_start > 0, radius n is 0
        while n - lo > 1:
            mid = (lo + n) // 2
            if vanishes(mid):
                n = mid
            else:
                lo = mid
        raise DomainError(
            f"schedule radius {n}, r_start * ratio^{n} with r_start = {r_start!r} and ratio = {ratio!r}, "
            "underflows to 0"
        )
    if steps > MAX_STEPS:
        raise InputError(f"steps must be at most {MAX_STEPS}, not {steps}")
    return [r_start * ratio**n for n in range(steps)]


def lelong_estimate(
    current: Current,
    r_start: float = R_START,
    ratio: float = RATIO,
    steps: int = STEPS,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    k0: int = 0,
) -> LelongEstimate:
    """nu(r) along a geometric schedule with a monotone limit bracket.

    The schedule is lelong_radii(r_start, ratio, steps), by default the
    R_START, RATIO, STEPS halvings the command line and the verifiers
    share. Every current takes the exact route, with its rounding bound as
    the error: a trig atom whole, a Poisson atom by its tail's extension.
    The departures of its Poisson atoms from their tails, integrated by
    _departure_masses at cfg's tolerances, are added to those masses, and
    lelong_from_masses judges the sum. The k0s refused are those mass_quadrature_schedule
    refuses.
    """
    rs = lelong_radii(r_start, ratio, steps)
    table = current.table
    departures = _departure_masses(table, rs, k0, cfg)  # refuses the k0s the quadrature route refuses
    return lelong_from_masses(rs, _exact_masses(table, rs, k0) + departures)[0]


def lelong_from_masses(rs: Sequence[float], schedules) -> List[LelongEstimate]:
    """The LelongEstimate of each schedule of (mass, error) pairs at the shared radii rs.

    schedules is a (schedules, radii, 2) array, as the mass engines return,
    or one sequence of pairs per schedule: the n-th pair at rs[n]. The
    result is one estimate per schedule, in order; a lone schedule is the
    batch of one. monotone_ok accepts monotonicity in either
    direction within per-point error bars: Skoda-style decay and
    b0-divergence are both monotone schedules, a hump is neither. slope and
    r_squared fit nu against -log r over the schedule's asymptotic tail,
    its later half from 6 radii on: early radii carry decaying transients
    from the outer-region terms that would pollute both.

    Everything per radius is one pass over (schedules, radii) arrays, and
    every schedule is fitted at once by the closed-form least squares of a
    line: about the mean of -log r, whose spread is shared by the rows. The
    few floats per schedule that remain (bracket, R^2, the divergence test)
    are scalar expressions. nus that are not finite, or whose squares
    overflow, give a fit that is not finite either, which the command line
    then refuses by name. A radius whose area pi r^2 underflows to 0 raises
    DomainError naming the first such radius. Radii whose -log r are one
    value to rounding warn as np.polyfit does.
    """
    rs = tuple(rs)
    if not len(schedules):
        return []
    steps = len(rs)
    areas = [math.pi * r**2 for r in rs]
    if 0.0 in areas:
        raise DomainError(f"r = {rs[areas.index(0.0)]!r}: the area pi r^2 underflows to 0")
    start = 0 if steps < 6 else steps // 2
    x = -np.log(np.asarray(rs[start:]))
    dx = x - x.mean()
    sxx = float(dx @ dx)
    # np.polyfit's rank test, within a factor 2: its scaled Vandermonde
    # matrix [x, 1] has singular values in a ratio of about sqrt(sxx / sum x^2)
    if not sxx > (2.0 * len(x) * sys.float_info.epsilon) ** 2 * float(x @ x):
        warnings.warn("Polyfit may be poorly conditioned", np.exceptions.RankWarning, stacklevel=2)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # a non-finite nu gives a non-finite fit
        nus, errs = (np.array(schedules, dtype=float) / np.array(areas)[:, None]).transpose(2, 0, 1)
        # rises and falls beyond the error bars in one pass, on nus and -nus:
        # ((a - b) - c) - d is -((((-a) + b) + c) + d) exactly. A NaN nu makes
        # its bound NaN, so maximum serves for max(1, nu) there.
        signed = nus * _SIGNS
        slack = 1e-12 * np.maximum(nus[:, :-1], 1.0)
        breaks = np.logical_or.reduce(signed[..., 1:] > signed[..., :-1] + errs[:, :-1] + errs[:, 1:] + slack, axis=2)
        y = nus[:, start:]
        dy = y - y.mean(axis=1)[:, None]
        slope = (dy * dx).sum(axis=1) / sxx
        intercept = y.mean(axis=1) - slope * x.mean()
        ss_res = ((y - (slope[:, None] * x + intercept[:, None])) ** 2).sum(axis=1)
        ss_tot = (dy * dy).sum(axis=1)
    estimates = []
    # the rest is a few floats per schedule
    for nu, err, monotone_ok, fitted, res, tot in zip(
        nus.tolist(), errs.tolist(), (~(breaks[0] & breaks[1])).tolist(), slope.tolist(),
        ss_res.tolist(), ss_tot.tolist(),
    ):
        r_squared = 0.0 if tot <= 1e-30 else 1.0 - res / tot
        estimates.append(LelongEstimate(
            rs=rs,
            nus=tuple(nu),
            errs=tuple(err),
            monotone_ok=monotone_ok,
            limit_estimate=nu[-1],
            limit_bracket=(max(0.0, nu[-1] - err[-1]), max(nu[-2] + err[-2], nu[-1] + err[-1])),
            slope=fitted,
            r_squared=r_squared,
            diverging=bool(fitted > 0.0 and r_squared > 0.99 and nu[-1] > DIVERGENCE_FACTOR * max(nu[0], err[0])),
        ))
    return estimates


def lelong_to_json(est: LelongEstimate) -> dict:
    return {
        "rs": list(est.rs),
        "nus": list(est.nus),
        "errs": list(est.errs),
        "monotone_ok": est.monotone_ok,
        "limit_estimate": est.limit_estimate,
        "limit_bracket": list(est.limit_bracket),
        "slope": est.slope,
        "r_squared": est.r_squared,
        "diverging": est.diverging,
    }


def nu_limit_positive_periodic(current: Current) -> float:
    """r -> 0 limit of the positive-eigenvalue closed-form schedule.

    Region-1 atoms keep their full bracket only at lambda = 1 (where the
    r-powers cancel); otherwise the surviving terms are the constants.
    """
    if current.lam.is_negative:
        raise UnsupportedCurrentError("positive limit on a negative eigenvalue")
    lv = current.lam.value
    acc = 0.0
    for atom in current.atoms:
        if not isinstance(atom.spec, FourierSpec):
            raise UnsupportedCurrentError("closed-form limit needs trig atoms")
        am = atom.alpha_modulus
        if lv == 1.0:
            # at lambda = 1 the r-powers cancel and both regions are r-free
            bracket = 1.0 + am**2 if am < 1.0 else 1.0 + am ** (-2.0)
            acc += atom.weight * atom.spec.a0 * bracket
        else:
            # every atom eventually lies in the outer region as r -> 0
            acc += atom.weight * atom.spec.a0 * lv
    return 2.0 * acc


__all__ = [
    "MassResult",
    "LelongEstimate",
    "mass_quadrature",
    "mass_quadrature_schedule",
    "mass_closed_form",
    "ia",
    "ib",
    "boundary_reduction_check",
    "kernel_weight",
    "interval_window",
    "lower_bound_nonperiodic",
    "lelong_estimate",
    "lelong_from_masses",
    "lelong_radii",
    "lelong_to_json",
    "closed_form_applicable",
    "nu_limit_positive_periodic",
]
