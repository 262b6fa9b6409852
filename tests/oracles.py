"""Loop-and-heap reference implementations the array code is checked against.

integrate_lockstep refines each job with a heap of panels and a parked list,
and exact_masses sums the exact route term by term in scalar Python. Both
are the earlier implementations of quadrature.integrate_lockstep and
mass._exact_masses, kept verbatim as oracles: the array versions must give
the same numbers bit for bit, the same integrand calls and the same failures.
"""

from __future__ import annotations

import heapq
import math
import sys

import numpy as np

from lelonglab.errors import InputError, QuadratureFailure
from lelonglab.foliation import coordinate_shift
from lelonglab.mass import EXACT_ROUNDING, TWO_PI
from lelonglab.quadrature import _NODES, _W_GAUSS, _W_KRONROD


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
