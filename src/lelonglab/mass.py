"""Mass and Lelong-number engines.

Two independent routes to the mass of a current on the bidisc of radius r:

* mass_quadrature: per atom, an adaptive v-integral of the exact u-window
  integral of the density times the leafwise area density, with certified
  truncation of the half-plane tail. The integrand does not depend on r,
  so mass_quadrature_schedule integrates each atom once for a whole list of
  radii: one GK15 partition seeded with every radius's v-limits, refined
  until each radius meets the tolerance on its own panels. All atoms are
  refined in lockstep, one integrand call per round for every atom's new
  panels: trig atoms as rows of one FourierWindow, Poisson atoms one panel
  per kernel block through their PoissonWindow (far grid nodes by moments,
  near ones directly), with their grid-model defect, summed from the same
  block, and the expansion's truncation remainder. mass_quadrature is the
  one-radius case.
* mass_closed_form: exact for every trig-series current and u-window, as a
  finite sum of elementary integrals of (alpha + beta v) e^{-sigma v}. Its
  engine, _exact_masses, takes an AtomTable of one or many currents, each
  row with its own eigenvalue, and sums every current at every radius in
  one call: each term is one array entry and math.fsum, correctly rounded
  in any order, adds each (current, radius) group, so a batch gives every
  current the bits it gets alone.

The two must agree to quadrature error; the test suite pins that agreement
and checks the paper's displays (three-region brackets, strip integrals
Ia/Ib) against the exact route. Everything downstream (Lelong schedules,
verifiers, CLI) consumes these two engines; lelong_from_masses turns the
masses of a schedule, from either, into its LelongEstimate.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .current import AtomTable, Current, total_weight
from .errors import DomainError, InputError, QuadratureFailure, UnsupportedCurrentError
from .foliation import (
    Eigenvalue,
    _jacobian_coefficients,
    coordinate_shift,
    float_map,
    jacobian_density,
    jacobian_rows,
    leaf_domain,
    plaque_limits,
)
from .harmonic import (
    FourierSpec,
    PoissonSpec,
    boundary_integral,
    evaluate,
    fourier_window,
    mode_integrals,
    poisson_rows,
    poisson_window,
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
    """Mass-ratio schedule nu(r_n) with a rigorous limit bracket.

    slope and r_squared describe the linear fit of nu against -log r; the
    diverging flag is the b0-divergence detector built from that fit.
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


# ---------------------------------------------------------------------------
# quadrature route


def _envelope_coefficients(spec) -> Tuple[float, float]:
    """(P, Q) with |window integral| <= 2 pi (P + Q v) on the half plane."""
    if isinstance(spec, FourierSpec):
        return spec.a0 + spec.mode_l1(), spec.b0
    peak = max(float(np.max(spec.values)), spec.tail)
    return peak, spec.c_lin


def _envelopes(table: AtomTable) -> List[Tuple[float, float]]:
    """_envelope_coefficients of every atom of the table.

    A trig row's ell-1 sum runs left to right from 0, as FourierSpec.mode_l1
    adds it, so each pair is bit for bit the spec's.
    """
    cols = table.fourier
    peaks = cols.a0 + np.bincount(cols.owner, np.abs(cols.ak) + np.abs(cols.bk), cols.a0.size)
    return [(p, q) if spec is None else _envelope_coefficients(spec)
            for p, q, spec in zip(peaks.tolist(), cols.b0.tolist(), table.poisson)]


def _tail_integral(p: float, q: float, rate: float, v0: float) -> float:
    # int_{v0}^inf (p + q v) e^{-rate v} dv
    return math.exp(-rate * v0) * ((p + q * v0) / rate + q / rate**2)


def _jac_terms(lam: Eigenvalue, am: float) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    """Coefficient/rate pairs with jacobian_density = sum c e^{-rate v}."""
    c1, c2 = _jacobian_coefficients(lam.value, am)
    return (2.0 * c1, 2.0), (2.0 * c2, 2.0 * lam.value)


def _truncate_half_plane(envelope, lam: Eigenvalue, am: float, v_lo: float, cfg: QuadratureConfig):
    """Truncation height plus a certified bound on the discarded tail.

    envelope is the spec's (P, Q) of _envelope_coefficients.
    """
    p, q = envelope
    p *= TWO_PI
    q *= TWO_PI
    (c1, r1), (c2, r2) = _jac_terms(lam, am)
    threshold = cfg.abs_tol * 10.0 ** (-cfg.v_tail_cutoff_digits)

    def env(v: float) -> float:
        return (p + q * v) * (c1 * math.exp(-r1 * v) + c2 * math.exp(-r2 * v))

    v_hi = v_lo + 1.0
    step = max(0.5, 0.5 / min(1.0, lam.value))
    while env(v_hi) > threshold and v_hi < v_lo + 5000.0:
        v_hi += step
    return v_hi, _tail_integral(p, q, r1, v_hi) + _tail_integral(p, q, r2, v_hi)


def _atom_ranges(lam: Eigenvalue, table: AtomTable, rs, cfg: QuadratureConfig):
    """Per atom of the table: the radii with a nonempty plaque, their v-ranges and the tail bound.

    The plaques of every atom and radius come from one plaque_limits call.
    Strips run between their ends. Half-planes share one truncation height
    per atom: the highest any of its radii needs, so its tail bound covers
    them all.
    """
    moduli = table.moduli
    v_min, v_max, empty = plaque_limits(lam, moduli, rs)
    lows = (v_min - coordinate_shift(lam, moduli)[:, None]).tolist()
    highs = v_max.tolist()
    envelopes = _envelopes(table) if lam.value > 0.0 else repeat(None)
    out = []
    for am, envelope, nonempty, low, high in zip(moduli.tolist(), envelopes, (~empty).tolist(), lows, highs):
        where = [n for n, ok in enumerate(nonempty) if ok]
        tail_bound = 0.0
        if lam.value > 0.0 and where:  # half-planes
            heights = [_truncate_half_plane(envelope, lam, am, low[n], cfg) for n in where]
            v_top, tail_bound = max(heights)
            high = [v_top] * len(rs)
        out.append((where, [(low[n], high[n]) for n in where], tail_bound))
    return out


def mass_quadrature_schedule(
    current: Current,
    rs,
    k0: int = 0,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> List[MassResult]:
    """Masses at every radius in rs over the k0-th u-window, by quadrature.

    The integrand does not depend on r, only the v-limits do, so each atom
    is one job of a single integrate_lockstep call: one adaptive partition
    per atom, seeded with every radius's limits and refined until each
    radius meets the tolerance on its own panels. The atoms share each
    round's integrand call. Trig rows are evaluated together through a
    row-stacked FourierWindow; Poisson rows one panel, and so one kernel
    block, at a time, with the grid-model defect as a second row summed
    from the same block (harmonic.poisson_rows). Each Poisson atom's
    PoissonWindow, with its shell ladders, is built once here and serves
    both rows of every panel. The per-radius sums run over atoms in order.
    """
    rs = tuple(rs)
    if not all(0.0 < r <= 1.0 for r in rs):
        raise DomainError("radius must lie in (0, 1]")
    lam = current.lam
    table = current.table
    jobs, owners = [], []  # owners: (atom index, radius indices, tail bound) per job
    for i, (where, spans, tail_bound) in enumerate(_atom_ranges(lam, table, rs, cfg)):
        if where:
            jobs.append((min(map(itemgetter(0), spans)), max(map(itemgetter(1), spans)), spans))
            owners.append((i, where, tail_bound))
    atom_of = np.array([i for i, _, _ in owners], dtype=np.intp)  # job -> atom
    u0 = TWO_PI * k0
    u1 = u0 + TWO_PI
    # the area density's coefficients, worked out once per atom and taken by row
    area = jacobian_rows(lam, table.moduli[atom_of].reshape(-1, 1))
    is_trig = table.trig[atom_of]
    window = fourier_window(table.fourier, u0, u1)  # one row per atom
    poisson = not is_trig.all()
    # one PoissonWindow per Poisson atom: its grids and shell ladders serve
    # every panel, for the value row and the model-error row alike
    windows = [None if trig else poisson_window(table.poisson[i], u0, u1)
               for i, trig in zip(atom_of.tolist(), is_trig.tolist())]

    def trig_rows(rows, v):
        return jacobian_density(lam, area.take(rows), v) * window_integral(
            window.take(atom_of[rows]), u0, u1, v
        )

    def integrand(rows, v):
        if not poisson:
            return trig_rows(rows, v)
        out = np.zeros((len(rows), 2, v.shape[1]))
        trig = is_trig[rows]
        if trig.any():
            out[trig, 0] = trig_rows(rows[trig], v[trig])
        panels = np.flatnonzero(~trig)
        jac = jacobian_density(lam, area.take(rows[panels]), v[panels])
        for p, job, jac_p in zip(panels.tolist(), rows[panels].tolist(), jac):
            # the boundary grid, not the subdivision, limits how well different
            # u-windows of the same leaf can agree; account for it explicitly
            out[p] = jac_p * poisson_rows(windows[job], v[p])
        return out

    try:
        parts = integrate_lockstep(
            integrand, jobs, rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol, max_depth=cfg.max_depth,
        )
    except QuadratureFailure as exc:
        i, where, _ = owners[exc.job]
        radii = ", ".join(repr(rs[where[n]]) for n in exc.ranges)
        raise QuadratureFailure(
            f"atoms[{i}] at r = {radii}: {exc}", exc.best_estimate, exc.error_estimate,
            job=exc.job, ranges=exc.ranges,
        ) from exc
    weights = table.weights.tolist()
    per_atom = [[(0.0, 0.0)] * len(rs) for _ in weights]
    for (i, where, tail_bound), job_parts in zip(owners, parts):
        weight = weights[i]
        for n, (value, err) in zip(where, job_parts):
            model_err = 0.0
            if poisson:
                # Kronrod sum of the defect plus its own Kronrod-Gauss gap
                value, err, model_err = float(value[0]), float(err[0]), float(value[1] + err[1])
            per_atom[i][n] = (weight * value, weight * (err + tail_bound + model_err))
    return [
        MassResult(
            value=sum(p[n][0] for p in per_atom),
            error_estimate=sum(p[n][1] for p in per_atom),
            r=r,
        )
        for n, r in enumerate(rs)
    ]


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


def _strip_terms(lv: float, am: float, r: float):
    """log|alpha|, log r and the inner and outer weights of the strip integrals."""
    if not lv < 0.0:
        raise DomainError("strip integrals need a negative eigenvalue")
    if not (0.0 < r <= 1.0):
        raise DomainError("radius must lie in (0, 1]")
    if not (0.0 < am < r ** (1.0 - lv)):
        raise DomainError(
            f"|alpha| = {am} outside the admissible range (0, r^(1-lambda)) at r = {r}"
        )
    log_am, log_r = math.log(am), math.log(r)
    # On the admissible range both weights are below 1, but one power of a
    # product can overflow while the other underflows; only then does the
    # weight go through logarithms.
    try:
        s_in = am**2 * r ** (2.0 * lv - 2.0)  # e^{-2 lambda v} weight at work
    except OverflowError:
        s_in = math.exp(2.0 * log_am + (2.0 * lv - 2.0) * log_r)
    try:
        s_out = am ** (-2.0 / lv) * r ** (2.0 / lv - 2.0)
    except OverflowError:
        s_out = math.exp(-2.0 / lv * log_am + (2.0 / lv - 2.0) * log_r)
    return log_am, log_r, s_in, s_out


def ia(lv: float, am: float, r: float) -> float:
    """Strip integral of the interpolating part against the area density.

    (1/r^2) int (1 - lambda v / log|alpha|) jac dv over the plaque strip.
    """
    log_am, log_r, s_in, s_out = _strip_terms(lv, am, r)
    return (
        1.0
        + lv * s_in
        + (
            -2.0 * s_out * log_r
            + lv * s_out
            + 2.0 * lv**2 * s_in * log_r
            - lv * s_in
        )
        / (2.0 * log_am)
    )


def ib(lv: float, am: float, r: float) -> float:
    """Strip integral of v against the area density, (1/r^2) int v jac dv."""
    log_am, log_r, s_in, s_out = _strip_terms(lv, am, r)
    return 0.5 * (
        -s_out * (lv + 2.0 * log_am - 2.0 * log_r) / lv
        + s_in * (1.0 - 2.0 * lv * log_r)
        - 2.0 * log_am
    )


# ---------------------------------------------------------------------------
# exact route: every trig-series atom

# The exact route's rounding bound is EXACT_ROUNDING eps times the fsum of the
# term magnitudes in _exact_masses. A term passes through about ten roundings
# (two logs, a subtraction, a division and the shift for its limits; its
# coefficient and rate; exp or expm1; the products), each amplified no more
# than its magnitude allows, and fsum adds one ulp: 16 covers that count.
EXACT_ROUNDING = 16.0


def _moments(sigma, lo, hi):
    """e^{-sigma lo}, e^{-sigma hi} and int_0^{hi - lo} t^j e^{-sigma t} dt, j = 0, 1.

    Entry by entry for arrays of one shape, or for floats. hi = inf needs
    sigma > 0. Near and at the resonance sigma = 0 the moments come from
    their Taylor series, so nothing cancels. Every exp, expm1 and power
    goes through math, entry by entry, and the rest is numpy arithmetic in
    scalar order, so each entry is bit for bit what float arithmetic gives.
    """
    sigma, lo, hi = (np.asarray(x, dtype=float) for x in (sigma, lo, hi))
    shape = sigma.shape
    sigma, lo, hi = sigma.ravel(), lo.ravel(), hi.ravel()
    e_lo = float_map(math.exp, -sigma * lo)
    e_hi, m0, m1 = np.zeros(sigma.size), np.empty(sigma.size), np.empty(sigma.size)
    tail = hi == math.inf
    at = np.flatnonzero(tail)
    if at.size:
        s = sigma[at]
        m0[at] = 1.0 / s
        m1[at] = 1.0 / float_map(math.pow, s, 2.0)
    fin = np.flatnonzero(~tail)
    if not fin.size:  # half-planes only
        return _shaped((e_lo, e_hi, m0, m1), shape)
    length = hi[fin] - lo[fin]
    x = sigma[fin] * length
    series = np.abs(x) < 0.5
    at, xs, ls = fin[series], x[series], length[series]
    if at.size:
        # the terms (-x)^n / n! and the partial sums over n = 0..17, each
        # accumulated in order, as the scalar recurrence does
        n = np.arange(1.0, 19.0)[:, None]
        steps = np.ones((18, at.size))
        steps[1:] = -xs / n[:-1]
        terms = np.cumprod(steps, axis=0)
        sums = np.zeros((2, 19, at.size))
        sums[0, 1:] = terms / n
        sums[1, 1:] = terms / (n + 1.0)
        s0, s1 = np.cumsum(sums, axis=1)[:, -1]
        e_hi[at] = e_lo[at] * float_map(math.exp, -xs)
        m0[at] = s0 * ls
        m1[at] = s1 * float_map(math.pow, ls, 2.0)
    at, xs, ls = fin[~series], x[~series], length[~series]
    if at.size:
        sg = sigma[at]
        em = float_map(math.expm1, -xs)
        m0[at] = -em / sg
        e_hi[at] = e_lo[at] * (1.0 + em)
        m1[at] = (m0[at] - ls * (1.0 + em)) / sg
    return _shaped((e_lo, e_hi, m0, m1), shape)


def _shaped(arrays, shape):
    """Flat arrays in the given shape, or floats for shape ()."""
    return tuple(a.reshape(shape) for a in arrays) if shape else tuple(float(a[0]) for a in arrays)


def _exact_masses(table: AtomTable, rs, k0: int = 0) -> List[Optional[List[Tuple[float, float]]]]:
    """(mass, rounding bound) at each radius in rs, for every current of the table.

    One entry per current of the table, in order: its pairs, one per
    radius, or None for a current with a Poisson atom, which the exact
    route does not cover. Per atom, jacobian_density is two exponentials
    (its jacobian_rows coefficients, rates 2 and 2 lambda) and the k0-th
    window integral is (A + B v) + sum_k C_k e^{k v / b}, so the integrand
    is a finite sum of (alpha + beta v) e^{-sigma v}. Each term is
    integrated in closed form over the range the quadrature route uses: the
    plaque, shifted by coordinate_shift and running to infinity on
    half-planes.

    Every term of every current at every radius is one entry of a few flat
    arrays, with no Python loop over currents, atoms or terms; each atom's
    eigenvalue is read by row. The rounding bound is accounted term by term,
    so the arrays keep one entry per term and math.fsum adds each (current,
    radius) group. An entry depends only on its atom, its eigenvalue, its
    radius and k0, and math.fsum is correctly rounded in any order, so each
    current's pairs are bit for bit those of a table of that current alone
    at those radii alone. Every exp, expm1, log and power goes through math,
    entry by entry, and the rest is numpy arithmetic in scalar order:
    np.exp rounds differently from math.exp on a few percent of inputs,
    and would move the masses in their last bits.
    """
    u0 = TWO_PI * k0
    u1 = u0 + TWO_PI
    cols = table.fourier
    moduli, weights, lv, owner, ak, bk = table.moduli, table.weights, table.lam, cols.owner, cols.ak, cols.bk
    coef = mode_integrals(cols, u0, u1)
    # window parts (alpha, beta, growth rate, bound on |alpha|, bound on
    # |beta|): every atom's base, a0 (1 - v/C) + b0 v on a strip of height
    # C, then every mode, whose bound also covers the rounding of its phases
    n_atoms = moduli.size
    drop = TWO_PI * cols.a0 / cols.strip_c
    base, slope = TWO_PI * cols.a0, TWO_PI * cols.b0
    grow = cols.k.astype(float) / cols.b[owner].astype(float)
    parts = np.zeros((5, n_atoms + owner.size))
    parts[0, :n_atoms] = parts[3, :n_atoms] = base
    parts[1, :n_atoms] = slope - drop
    parts[4, :n_atoms] = slope + drop
    part_owner = np.arange(n_atoms)
    if owner.size:
        parts[0, n_atoms:] = coef
        parts[2, n_atoms:] = grow
        parts[3, n_atoms:] = (np.abs(ak) + np.abs(bk)) * (2.0 / np.abs(grow) + max(abs(u0), abs(u1)))
        part_owner = np.concatenate((part_owner, owner))
    grow = parts[2]
    # weighted terms, one per jacobian exponential and window part: alpha,
    # beta, their bounds, sigma and its size
    c = 2.0 * jacobian_rows(lv, moduli).coefficients[:, part_owner]
    rates = np.empty(c.shape)
    rates[0] = 2.0
    rates[1] = 2.0 * lv[part_owner]
    terms = np.empty((6,) + c.shape)
    terms[:2] = weights[part_owner] * c
    terms[2:4] = weights[part_owner] * np.abs(c)
    terms[:4] *= parts[[0, 1, 3, 4], None, :]
    terms[4] = rates - grow
    terms[5] = np.abs(rates) + np.abs(grow)
    # the plaques' limits and the bound on their size, per atom and radius;
    # coordinate_shift is 0 on strips, and half-planes run to infinity. The
    # atoms of a current with a Poisson atom count as empty everywhere.
    v_min, v_max, empty = plaque_limits(lv, moduli, rs)
    n_currents = int(table.current[-1]) + 1 if n_atoms else 0
    exact = np.ones(n_currents, dtype=bool)
    exact[table.current[~table.trig]] = False
    empty |= ~exact[table.current][:, None]
    logs = float_map(math.log, np.concatenate((moduli, rs)))
    limits = np.empty((3,) + v_min.shape)
    limits[0] = v_min - coordinate_shift(lv, moduli)[:, None]
    limits[1] = v_max
    limits[2] = (np.abs(logs[:n_atoms, None]) - logs[n_atoms:]) / np.abs(lv)[:, None]
    # one entry per (current, radius) group, window part whose atom has a
    # nonempty plaque at that radius, and jacobian term, in that order
    n_radii = v_min.shape[1]
    radius, part = np.nonzero(~empty.T[:, part_owner])
    group = table.current[part_owner[part]] * n_radii + radius
    order = np.argsort(group, kind="stable")
    radius, part = radius[order], part[order]
    a, bt, a_mag, b_mag, sigma, rate = terms[:, :, part].swapaxes(1, 2).reshape(6, -1)
    lo, hi, cond = limits[:, part_owner[part].repeat(2), radius.repeat(2)]
    with np.errstate(over="ignore", invalid="ignore"):  # as float arithmetic would
        e_lo, e_hi, m0, m1 = _moments(sigma, lo, hi)
        values = e_lo * ((a + bt * lo) * m0 + bt * m1)
        # the integral of the bounds, amplified by the exponent's size,
        # plus the endpoint values times the size of the limits
        size = a_mag + b_mag * cond
        body = (1.0 + rate * cond) * (size * m0 + b_mag * m1)
        mags = e_lo * (body + cond * size) + e_hi * cond * size
    values, mags = values.tolist(), mags.tolist()
    ends = (2 * np.cumsum(np.bincount(group, minlength=n_currents * n_radii))).tolist()
    unit = EXACT_ROUNDING * sys.float_info.epsilon
    pairs = [(math.fsum(values[i:j]), unit * math.fsum(mags[i:j])) for i, j in zip([0] + ends, ends)]
    return [pairs[n * n_radii:(n + 1) * n_radii] if ok else None for n, ok in enumerate(exact.tolist())]


def _exact_schedule(current: Current, rs, k0: int = 0) -> List[Tuple[float, float]]:
    """(mass, rounding bound) of an all-trig current at each radius in rs: its table's _exact_masses."""
    if not closed_form_applicable(current):
        raise UnsupportedCurrentError("exact mass needs trig-series atoms")
    return _exact_masses(current.table, rs, k0)[0]


def closed_form_applicable(current: Current) -> bool:
    """True iff every atom is a trig series, so the exact route applies.

    Read from the current's table where it keeps one, and from its atoms
    otherwise: a current built in a batch has no table of its own, and
    builds none to answer.
    """
    table = current._table
    if table is None:
        return all(isinstance(atom.spec, FourierSpec) for atom in current.atoms)
    return not any(table.poisson)


def mass_closed_form(current: Current, r: float, k0: int = 0) -> float:
    """Exact mass of an all-trig current on the bidisc of radius r, k0-th u-window."""
    return _exact_schedule(current, (r,), k0)[0][0]


# ---------------------------------------------------------------------------
# Poisson-kernel reductions


def boundary_reduction_check(
    lam_value: float,
    alpha_modulus: float,
    spec: PoissonSpec,
    r: float,
    u: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Ratio of the leafwise v-integral to the density at the boundary height.

    The reduction lemma trades the integral over the plaque for the density
    value at v_r (times a bounded constant); this returns the raw ratio so
    tests can pin the window it must land in.
    """
    if not (0.0 < lam_value <= 1.0):
        raise DomainError("reduction check needs an eigenvalue in (0, 1]")
    if not isinstance(spec, PoissonSpec) or spec.c_lin != 0.0:
        raise InputError("reduction check expects Poisson data with no linear term")
    if not (0.0 < r <= math.exp(-1.0 / lam_value)):
        raise DomainError("radius must lie in (0, e^(-1/lambda)]")
    lam = Eigenvalue(lam_value, "irrational") if lam_value != 1.0 else Eigenvalue(1.0, "rational", 1, 1)
    dom = leaf_domain(lam, alpha_modulus, r)
    shift = coordinate_shift(lam, alpha_modulus)
    v_r = dom.v_min - shift
    v_hi, _tail = _truncate_half_plane(_envelope_coefficients(spec), lam, alpha_modulus, v_r, cfg)

    def integrand(v):
        return jacobian_density(lam, alpha_modulus, v) * np.asarray(evaluate(spec, u, v))

    value, _err = integrate(
        integrand,
        v_r,
        v_hi,
        rel_tol=cfg.rel_tol,
        abs_tol=cfg.abs_tol,
        max_depth=cfg.max_depth,
    )
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


def lower_bound_nonperiodic(
    current: Current,
    k: int = 2,
    n_max: int = 20,
) -> float:
    """Positive lower bound on the Lelong limit from boundary mass alone.

    Sums the per-interval boundary integrals against the kernel weights and
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
    for n in range(-n_max, n_max + 1):
        lo, hi = interval_window(n, k)
        per_atom = sum(
            atom.weight * boundary_integral(atom.spec, lo, hi) for atom in current.atoms
        )
        raw += kernel_weight(n) * per_atom / (TWO_PI * k)
    return min(1.0, current.lam.value) / TWO_PI * raw


# ---------------------------------------------------------------------------
# Lelong schedule


# a schedule counts as diverging when, besides a rising linear fit against
# -log r, its last nu exceeds this multiple of its first (or of that error)
DIVERGENCE_FACTOR = 2.0


def _fit_against_log(rs, nus) -> Tuple[float, float]:
    # fit the asymptotic tail: early radii carry decaying transients from
    # the outer-region terms that would pollute slope and R^2
    start = 0 if len(rs) < 6 else len(rs) // 2
    x = -np.log(np.asarray(rs[start:]))
    y = np.asarray(nus[start:])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot <= 1e-30:
        return float(slope), 0.0
    return float(slope), 1.0 - ss_res / ss_tot


def lelong_radii(r_start: float, ratio: float, steps: int) -> List[float]:
    """The geometric schedule r_start ratio^n, n < steps, of lelong_estimate."""
    if not (0.0 < r_start <= 1.0):
        raise DomainError("r_start must lie in (0, 1]")
    if not (0.0 < ratio < 1.0):
        raise InputError("ratio must lie in (0, 1)")
    if steps < 2:
        raise InputError("a schedule needs at least two steps")
    return [r_start * ratio**n for n in range(steps)]


def lelong_estimate(
    current: Current,
    r_start: float = 1.0,
    ratio: float = 0.5,
    steps: int = 12,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    k0: int = 0,
) -> LelongEstimate:
    """nu(r) along a geometric schedule with a monotone limit bracket.

    All-trig currents take the exact route, with its rounding bound as the
    error; any other current is integrated by mass_quadrature_schedule.
    lelong_from_masses judges the masses.
    """
    rs = lelong_radii(r_start, ratio, steps)
    if closed_form_applicable(current):
        masses = _exact_schedule(current, rs, k0)
    else:
        masses = [
            (m.value, m.error_estimate)
            for m in mass_quadrature_schedule(current, rs, k0=k0, cfg=cfg)
        ]
    return lelong_from_masses(rs, masses)


def lelong_from_masses(rs: Sequence[float], masses: Sequence[Tuple[float, float]]) -> LelongEstimate:
    """The LelongEstimate of (mass, error) pairs at the radii rs of a schedule.

    monotone_ok accepts monotonicity in either direction within per-point
    error bars: Skoda-style decay and b0-divergence are both monotone
    schedules, a hump is neither.
    """
    steps = len(rs)
    nus, errs = [], []
    for r, (value, err) in zip(rs, masses):
        area = math.pi * r**2
        nus.append(value / area)
        errs.append(err / area)

    eps = 1e-12
    up_break = any(
        nus[i + 1] > nus[i] + errs[i] + errs[i + 1] + eps * max(1.0, nus[i])
        for i in range(steps - 1)
    )
    down_break = any(
        nus[i + 1] < nus[i] - errs[i] - errs[i + 1] - eps * max(1.0, nus[i])
        for i in range(steps - 1)
    )
    monotone_ok = not (up_break and down_break)

    limit_estimate = nus[-1]
    lower = max(0.0, nus[-1] - errs[-1])
    upper = max(nus[-2] + errs[-2], nus[-1] + errs[-1])
    slope, r_squared = _fit_against_log(rs, nus)
    first = nus[0]
    diverging = bool(
        slope > 0.0
        and r_squared > 0.99
        and nus[-1] > DIVERGENCE_FACTOR * max(first, errs[0])
    )
    return LelongEstimate(
        rs=tuple(rs),
        nus=tuple(nus),
        errs=tuple(errs),
        monotone_ok=monotone_ok,
        limit_estimate=limit_estimate,
        limit_bracket=(lower, upper),
        slope=slope,
        r_squared=r_squared,
        diverging=diverging,
    )


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
    if not closed_form_applicable(current):
        raise UnsupportedCurrentError("closed-form limit needs trig atoms")
    lv = current.lam.value
    acc = 0.0
    for atom in current.atoms:
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
    "QuadratureConfig",
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
    "total_weight",
]
