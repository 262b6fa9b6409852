"""Earlier reference implementations the current code is checked against.

integrate_lockstep refines each job with a heap of panels and a parked list,
and exact_masses sums the exact route term by term in scalar Python. Both
are the earlier implementations of quadrature.integrate_lockstep and
mass._exact_masses, kept verbatim as oracles: the array versions must give
the same numbers bit for bit, the same integrand calls and the same failures.
poisson_rows sums a Poisson window's full grid and its half-density probe
as two kernel blocks, each with its own tail terms, and truncate_half_plane
sums the truncation envelope with a generator: the earlier forms of
harmonic.poisson_rows and mass._truncate_half_plane, which must agree with
them bit for bit. Without a PoissonWindow, poisson_rows sums grids it builds
with no shells, every node directly: the reference for the far field.
current_from_json and build_current are the per-atom loader and validator:
one FourierSpec, one _validate_atom call and one positivity certificate per
atom. The package's column loader and array validator must build the same
current from the same input, or fail with the same error for the same atom.
load_current decodes every input file with the stdlib json and loads it with
that per-atom loader, as cli._load_current does with orjson and the column
loader: the two must load the same current from any text, or fail with the
same error.
"""

from __future__ import annotations

import heapq
import json
import math
import sys
from typing import Sequence

import numpy as np

from lelonglab.current import L1_SLACK, NORMALIZATION_TOL, Current, TransversalAtom, eigenvalue_from_json
from lelonglab.errors import (
    DomainError,
    EmptyLeafError,
    InputError,
    InvalidSpecError,
    NormalizationError,
    QuadratureFailure,
)
from lelonglab.foliation import Eigenvalue, coordinate_shift
from lelonglab.harmonic import (
    FAR_ORDER,
    BoundaryGrid,
    FourierSpec,
    HarmonicSpec,
    PoissonSpec,
    _check_v_domain,
    _far_sum,
    _full_samples,
    _probe_samples,
    _require,
    boundary_integral,
    check_positivity,
    evaluate,
    json_float,
    spec_from_json,
)
from lelonglab.mass import EXACT_ROUNDING, TWO_PI, _envelope_coefficients, _tail_integral
from lelonglab.quadrature import _NODES, _W_GAUSS, _W_KRONROD


def load_current(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not valid UTF-8 ({exc})") from exc
    return current_from_json(json.loads(text))


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


def _job_spans(a, b, ranges):
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InputError("integration endpoints must be finite")
    if a > b:
        raise InputError("integration needs a < b")
    spans = list(ranges)
    for lo, hi in spans:
        if not (a <= lo <= hi <= b):
            raise InputError(f"range [{lo}, {hi}] is not an ordered sub-range of [{a}, {b}]")
    return spans


def _seed_panels(spans):
    cuts = sorted({x for lo, hi in spans if lo < hi for x in (lo, hi)})
    for pa, pb in zip(cuts, cuts[1:]):
        members = tuple([n for n, (lo, hi) in enumerate(spans) if lo <= pa and pb <= hi])
        if members:
            yield pa, pb, members


def _evaluate(f, rows, los, his):
    lo = np.array(los)
    hi = np.array(his)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    fv = np.asarray(f(np.array(rows), mid[:, None] + half[:, None] * _NODES), dtype=float)
    single = fv.ndim == 2
    if single:
        fv = fv[:, None, :]
    half = half[:, None]
    kron = half * (fv @ _W_KRONROD)
    with np.errstate(invalid="ignore", over="ignore"):
        err = np.abs(kron - half * (fv[..., 1::2] @ _W_GAUSS))
    finite = np.isfinite(err).all(axis=1).tolist()
    leads = err[:, 0].tolist()
    if single:
        return kron[:, 0].tolist(), leads, leads, finite
    return list(kron), list(err), leads, finite


def _lead(x):
    return x if isinstance(x, float) else float(x[0])


def _over_budget(value, err, abs_tol, rel_tol):
    if not isinstance(err, float):
        value, err = value[0], err[0]
    return err > max(abs_tol, rel_tol * abs(value))


def _nonfinite(job, pa, pb, members, value, err):
    return QuadratureFailure(
        f"non-finite integrand on [{pa}, {pb}] (value {value}, err {err})",
        best_estimate=math.nan,
        error_estimate=math.inf,
        job=job,
        ranges=members,
    )


class _Job:
    def __init__(self, n_ranges):
        self.values = [0.0] * n_ranges
        self.errors = [0.0] * n_ranges
        self.heap = []
        self.parked = []
        self.open = set()
        self.panels = 0

    def add(self, panel):
        self.heap.append(panel)
        for n in panel[6]:
            self.values[n] = self.values[n] + panel[4]
            self.errors[n] = self.errors[n] + panel[5]

    def worst(self):
        while True:
            panel = heapq.heappop(self.heap)
            if self.open.isdisjoint(panel[6]):
                self.parked.append(panel)
            else:
                return panel

    def split(self, panel, left, right, abs_tol, rel_tol):
        depth, pval, perr, members = panel[1], panel[4], panel[5], panel[6]
        reopened = False
        for n in members:
            self.values[n] = self.values[n] + (left[2] + right[2] - pval)
            self.errors[n] = self.errors[n] + (left[3] + right[3] - perr)
            if not _over_budget(self.values[n], self.errors[n], abs_tol, rel_tol):
                self.open.discard(n)
            elif n not in self.open:
                self.open.add(n)
                reopened = True
        for lo, hi, value, err, lead in (left, right):
            heapq.heappush(self.heap, (-lead, depth + 1, lo, hi, value, err, members))
        self.panels += 1
        if reopened:
            for item in self.parked:
                heapq.heappush(self.heap, item)
            self.parked = []


def integrate_lockstep(f, jobs, rel_tol=1e-9, abs_tol=1e-12, max_depth=16, max_panels=20000):
    """The heap engine: per job a heap of panels, parked panels re-pushed on a reopen."""
    spans_of = [_job_spans(a, b, ranges) for a, b, ranges in jobs]
    states = [_Job(len(spans)) for spans in spans_of]
    seeds = [(j, pa, pb, members) for j, spans in enumerate(spans_of)
             for pa, pb, members in _seed_panels(spans)]
    if seeds:
        rows, los, his, _ = zip(*seeds)
        values, errors, leads, finite = _evaluate(f, rows, los, his)
        for k, (j, pa, pb, members) in enumerate(seeds):
            if not finite[k]:
                raise _nonfinite(j, pa, pb, members, values[k], errors[k])
            states[j].add((-leads[k], 0, pa, pb, values[k], errors[k], members))
    for job in states:
        heapq.heapify(job.heap)
        job.panels = len(job.heap)
        job.open = {
            n for n in range(len(job.values))
            if _over_budget(job.values[n], job.errors[n], abs_tol, rel_tol)
        }
    live = [j for j, job in enumerate(states) if job.open]
    while live:
        picks, rows, los, his = [], [], [], []
        for j in live:
            panel = states[j].worst()
            pa, pb = panel[2], panel[3]
            mid = 0.5 * (pa + pb)
            picks.append((j, panel, mid))
            if panel[1] < max_depth:
                rows += (j, j)
                los += (pa, mid)
                his += (mid, pb)
        if rows:
            values, errors, leads, finite = _evaluate(f, rows, los, his)
        k = 0
        for j, panel, mid in picks:
            job = states[j]
            neg_err, depth, pa, pb, _, _, members = panel
            if depth >= max_depth:
                unresolved = sorted(job.open.intersection(members))
                raise QuadratureFailure(
                    f"no convergence at depth {depth} on [{pa}, {pb}] (err {-neg_err:.3e})",
                    best_estimate=_lead(job.values[unresolved[0]]),
                    error_estimate=_lead(job.errors[unresolved[0]]),
                    job=j,
                    ranges=tuple(unresolved),
                )
            halves = []
            for lo, hi in ((pa, mid), (mid, pb)):
                if not finite[k]:
                    raise _nonfinite(j, lo, hi, members, values[k], errors[k])
                halves.append((lo, hi, values[k], errors[k], leads[k]))
                k += 1
            job.split(panel, *halves, abs_tol, rel_tol)
            if job.panels > max_panels:
                raise QuadratureFailure(
                    f"panel budget {max_panels} exhausted splitting [{pa}, {pb}]",
                    best_estimate=_lead(job.values[members[0]]),
                    error_estimate=_lead(job.errors[members[0]]),
                    job=j,
                    ranges=tuple(sorted(job.open)),
                )
        live = [j for j in live if states[j].open]
    return [list(zip(job.values, job.errors)) for job in states]


def mode_window_coefficients(spec, u0, u1):
    out = []
    for k, ak, bk in spec.modes:
        ds = math.sin(k * u1 / spec.b) - math.sin(k * u0 / spec.b)
        dc = math.cos(k * u1 / spec.b) - math.cos(k * u0 / spec.b)
        out.append(spec.b / k * (ak * ds - bk * dc))
    return tuple(out)


def _jac_terms(lam, am):
    lv = lam.value
    if am < 1.0:
        return (2.0, 2.0), (2.0 * (lv * am) ** 2, 2.0 * lv)
    return (2.0 * am ** (-2.0 / lv), 2.0), (2.0 * lv**2, 2.0 * lv)


def _moments(sigma, lo, hi):
    e_lo = math.exp(-sigma * lo)
    if hi == math.inf:
        return e_lo, 0.0, 1.0 / sigma, 1.0 / sigma**2
    length = hi - lo
    x = sigma * length
    if abs(x) < 0.5:
        m0 = m1 = 0.0
        term = 1.0
        for n in range(18):
            m0 += term / (n + 1)
            m1 += term / (n + 2)
            term *= -x / (n + 1)
        return e_lo, e_lo * math.exp(-x), m0 * length, m1 * length**2
    em = math.expm1(-x)
    m0 = -em / sigma
    return e_lo, e_lo * (1.0 + em), m0, (m0 - length * (1.0 + em)) / sigma


def _leaf_domain(lv, am, r):
    """(v_min, v_max) of the plaque, v_max None on half-planes; None if empty."""
    threshold = r ** (1.0 - lv)
    if lv > 0.0:
        if am >= threshold:
            return (math.log(am) - math.log(r)) / lv, None
        return -math.log(r), None
    if am >= threshold:
        return None
    return -math.log(r), (math.log(am) - math.log(r)) / lv


def exact_masses(current, rs, k0=0):
    """(mass, rounding bound) per radius, term by term in scalar Python."""
    lam = current.lam
    u0 = TWO_PI * k0
    u1 = u0 + TWO_PI
    values = [[] for _ in rs]
    mags = [[] for _ in rs]
    for atom in current.atoms:
        am, spec = atom.alpha_modulus, atom.spec
        drop = TWO_PI * spec.a0 / spec.strip_c if spec.on_strip else 0.0
        base, slope = TWO_PI * spec.a0, TWO_PI * spec.b0
        parts = [(base, slope - drop, 0.0, base, slope + drop)]
        for (k, ak, bk), coef in zip(spec.modes, mode_window_coefficients(spec, u0, u1)):
            grow = k / spec.b
            coef_bound = (abs(ak) + abs(bk)) * (2.0 / abs(grow) + max(abs(u0), abs(u1)))
            parts.append((coef, 0.0, grow, coef_bound, 0.0))
        w = atom.weight
        terms = [
            (w * c * a, w * c * b, s - grow, w * abs(c) * a_mag, w * abs(c) * b_mag,
             abs(s) + abs(grow))
            for c, s in _jac_terms(lam, am)
            for a, b, grow, a_mag, b_mag in parts
        ]
        shift = coordinate_shift(lam, am)
        log_am = abs(math.log(am))
        for r, vals, sizes in zip(rs, values, mags):
            dom = _leaf_domain(lam.value, am, r)
            if dom is None:
                continue
            lo, hi = dom[0] - shift, math.inf if dom[1] is None else dom[1]
            cond = (log_am - math.log(r)) / abs(lam.value)
            for a, b, sigma, a_mag, b_mag, rate in terms:
                e_lo, e_hi, m0, m1 = _moments(sigma, lo, hi)
                vals.append(e_lo * ((a + b * lo) * m0 + b * m1))
                size = a_mag + b_mag * cond
                body = (1.0 + rate * cond) * (size * m0 + b_mag * m1)
                sizes.append(e_lo * (body + cond * size) + e_hi * cond * size)
    unit = EXACT_ROUNDING * sys.float_info.epsilon
    return [(math.fsum(v), unit * math.fsum(m)) for v, m in zip(values, mags)]


def _poisson_window(grid, tail, y_top, c_lin, u0, u1, vflat):
    width = u1 - u0
    vi = vflat[:, None]
    j = grid.shell(float(vflat.max()))
    near = slice(None) if j is None else slice(*grid.near[j])
    kern = np.arctan2(width * vi, vi * vi + grid.gap[near])
    bulk = kern @ grid.weighted[near]
    if j is not None:
        bulk = bulk + _far_sum(grid.betas[j], vflat / grid.radii[j])
    right = tail * (
        0.5 * math.pi * width
        - _arctan_primitive(y_top - u0, vflat)
        + _arctan_primitive(y_top - u1, vflat)
    )
    left = tail * (
        0.5 * math.pi * width
        + _arctan_primitive(-y_top - u0, vflat)
        - _arctan_primitive(-y_top - u1, vflat)
    )
    return (bulk + right + left) / math.pi + c_lin * vflat * width


def _arctan_primitive(s, v):
    return s * np.arctan(s / v) - 0.5 * v * np.log(v * v + s * s)


def _direct_grid(ys, weighted, u0, u1):
    """The grid of ys over [u0, u1] with no shells."""
    return BoundaryGrid(0.5 * (u1 - u0), weighted, (ys - u0) * (ys - u1), np.empty(0),
                        np.empty((0, 2), dtype=int), np.empty((0, FAR_ORDER // 2)), np.empty(0))


def poisson_rows(spec, u0, u1, v, window=None):
    """(window integral, model error) of a Poisson spec: full grid, then probe grid.

    With window, the PoissonWindow of spec over [u0, u1], its two grids are
    summed; without it, two grids with no shells.
    """
    if not u1 > u0:
        raise DomainError("window integral needs u0 < u1")
    if window is None:
        full = _direct_grid(*_full_samples(spec), u0, u1)
        probe = _direct_grid(*_probe_samples(spec), u0, u1)
    else:
        full, probe = window.full, window.probe
    v_arr = np.asarray(v, dtype=float)
    _check_v_domain(spec, v_arr)
    vv = np.ravel(v_arr)
    value = np.empty_like(vv)
    at_boundary = vv <= 0.0
    if np.any(at_boundary):
        value[at_boundary] = boundary_integral(spec, u0, u1)
    inside = ~at_boundary
    if np.any(inside):
        value[inside] = _poisson_window(full, spec.tail, spec.half_width, spec.c_lin, u0, u1, vv[inside])
    model = np.zeros_like(vv)
    inside = vv > 0.0
    if np.any(inside):
        v_in = vv[inside]
        v_max = float(v_in.max())
        remainder = 2.0 * full.remainder(v_max) + probe.remainder(v_max)
        coarse = _poisson_window(probe, spec.tail, spec.half_width, spec.c_lin, u0, u1, v_in)
        model[inside] = np.abs(value[inside] - coarse) + remainder
    return value.reshape(v_arr.shape), model.reshape(v_arr.shape)


def truncate_half_plane(spec, lam, am, v_lo, cfg):
    p, q = _envelope_coefficients(spec)
    p *= TWO_PI
    q *= TWO_PI
    terms = _jac_terms(lam, am)
    threshold = cfg.abs_tol * 10.0 ** (-cfg.v_tail_cutoff_digits)

    def env(v):
        return (p + q * v) * sum(c * math.exp(-rate * v) for c, rate in terms)

    v_hi = v_lo + 1.0
    step = max(0.5, 0.5 / min(1.0, lam.value))
    while env(v_hi) > threshold and v_hi < v_lo + 5000.0:
        v_hi += step
    tail = sum(_tail_integral(p, q, rate, v_hi) for _, rate in terms)
    return v_hi, tail

