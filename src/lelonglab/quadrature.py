"""Adaptive Gauss-Kronrod integration on finite intervals.

One-dimensional only: every mass integral in this package reduces to a
v-integral whose u-part is done in closed form (see harmonic.window_integral),
so a careful scalar engine with honest error estimates beats a generic cubature.
Integrands must accept and return ndarrays. integrate_lockstep refines many
independent integrals side by side and evaluates each round's panels in one
integrand call; integrate is its one-job case.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, QuadratureFailure

# Standard 7-point Gauss / 15-point Kronrod pair; magnitudes descending,
# zero last. The Gauss nodes are every other Kronrod node.
_XGK_HALF = np.array(
    [
        0.9914553711208126,
        0.9491079123427585,
        0.8648644233597691,
        0.7415311855993944,
        0.5860872354676911,
        0.4058451513773972,
        0.2077849550078985,
        0.0,
    ]
)
_WGK_HALF = np.array(
    [
        0.0229353220105292,
        0.0630920926299785,
        0.1047900103222502,
        0.1406532597155259,
        0.1690047266392679,
        0.1903505780647854,
        0.2044329400752989,
        0.2094821410847278,
    ]
)
_WG_HALF = np.array(
    [
        0.1294849661688697,
        0.2797053914892767,
        0.3818300505051189,
        0.4179591836734694,
    ]
)

# ascending node order: [-x1 .. -x7, 0, x7 .. x1]
_NODES = np.concatenate((-_XGK_HALF[:-1], _XGK_HALF[::-1]))
_W_KRONROD = np.concatenate((_WGK_HALF[:-1], _WGK_HALF[::-1]))
# Gauss nodes sit at odd positions 1, 3, ..., 13 of the 15-point layout.
_W_GAUSS = np.concatenate((_WG_HALF[:-1], _WG_HALF[::-1]))


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_depth: int = 16
    v_tail_cutoff_digits: float = 3.0

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise InputError("quadrature tolerances must be positive")
        if not (isinstance(self.max_depth, int) and self.max_depth >= 1):
            raise InputError("max_depth must be an integer >= 1")
        if not (self.v_tail_cutoff_digits > 0.0):
            raise InputError("v_tail_cutoff_digits must be positive")


DEFAULT_CONFIG = QuadratureConfig()


def _job_spans(a: float, b: float, ranges):
    """The validated sub-ranges of one job."""
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
    """The panels between consecutive range ends, each with its member ranges."""
    cuts = sorted({x for lo, hi in spans if lo < hi for x in (lo, hi)})
    for pa, pb in zip(cuts, cuts[1:]):
        members = tuple([n for n, (lo, hi) in enumerate(spans) if lo <= pa and pb <= hi])
        if members:  # else a gap between ranges: nothing asks for it
            yield pa, pb, members


def _evaluate(f, rows, los, his):
    """Kronrod values, Kronrod-Gauss errors, row-0 errors and finiteness of panels.

    Panel p is [los[p], his[p]] of job rows[p]; one call of f evaluates them all.
    """
    lo = np.array(los)
    hi = np.array(his)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    fv = np.asarray(f(np.array(rows), mid[:, None] + half[:, None] * _NODES), dtype=float)
    single = fv.ndim == 2
    if single:
        fv = fv[:, None, :]
    # a (P, m, 15) @ (15,) product sums every panel as np.dot sums it alone,
    # so a panel's numbers do not depend on the block it is evaluated in
    half = half[:, None]
    kron = half * (fv @ _W_KRONROD)
    with np.errstate(invalid="ignore", over="ignore"):  # caught just below
        err = np.abs(kron - half * (fv[..., 1::2] @ _W_GAUSS))
    # a finite error implies finite Kronrod and Gauss sums; checking it keeps
    # a NaN, which passes every tolerance comparison, from being returned
    finite = np.isfinite(err).all(axis=1).tolist()
    leads = err[:, 0].tolist()
    if single:
        return kron[:, 0].tolist(), leads, leads, finite
    return list(kron), list(err), leads, finite


def _lead(x) -> float:
    """Row 0, the row that steers refinement, of a sum over one or m rows."""
    return x if isinstance(x, float) else float(x[0])


def _over_budget(value, err, abs_tol: float, rel_tol: float) -> bool:
    if not isinstance(err, float):  # (m,) rows: row 0 steers
        value, err = value[0], err[0]
    return err > max(abs_tol, rel_tol * abs(value))


def _nonfinite(job: int, pa: float, pb: float, members, value, err) -> QuadratureFailure:
    return QuadratureFailure(
        f"non-finite integrand on [{pa}, {pb}] (value {value}, err {err})",
        best_estimate=math.nan,
        error_estimate=math.inf,
        job=job,
        ranges=members,
    )


class _Job:
    """Refinement state of one job: per-range sums and its panels.

    A panel is (-row-0 error, depth, lo, hi, value, error, member ranges);
    the heap holds the panels still in play, parked those popped while no
    range they belong to was over its tolerance.
    """

    def __init__(self, n_ranges: int):
        self.values = [0.0] * n_ranges
        self.errors = [0.0] * n_ranges
        self.heap = []
        self.parked = []
        self.open = set()
        self.panels = 0

    def add(self, panel) -> None:
        self.heap.append(panel)
        for n in panel[6]:
            self.values[n] = self.values[n] + panel[4]
            self.errors[n] = self.errors[n] + panel[5]

    def worst(self):
        """The worst panel of an open range; converged ranges' panels are parked."""
        while True:
            panel = heapq.heappop(self.heap)
            if self.open.isdisjoint(panel[6]):
                self.parked.append(panel)
            else:
                return panel

    def split(self, panel, left, right, abs_tol: float, rel_tol: float) -> None:
        """Replace panel by its halves left and right, (lo, hi, value, error, lead) each."""
        depth, pval, perr, members = panel[1], panel[4], panel[5], panel[6]
        reopened = False
        for n in members:
            self.values[n] = self.values[n] + (left[2] + right[2] - pval)
            self.errors[n] = self.errors[n] + (left[3] + right[3] - perr)
            if not _over_budget(self.values[n], self.errors[n], abs_tol, rel_tol):
                self.open.discard(n)
            elif n not in self.open:
                # a split can raise the error of a range that had converged
                self.open.add(n)
                reopened = True
        for lo, hi, value, err, lead in (left, right):
            heapq.heappush(self.heap, (-lead, depth + 1, lo, hi, value, err, members))
        self.panels += 1
        if reopened:
            for item in self.parked:
                heapq.heappush(self.heap, item)
            self.parked = []


def integrate_lockstep(
    f,
    jobs,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
    max_depth: int = 16,
    max_panels: int = 20000,
):
    """Integrals of many independent jobs, refined in lockstep.

    A job is (a, b, ranges) with ranges sub-ranges (lo, hi) of [a, b] that
    share one partition, as in integrate. Every job has its own panels,
    open ranges, parked panels and max_depth/max_panels budget, and is
    refined exactly as integrate refines it alone: each round, every job
    with a range over its tolerance splits its worst panel. The jobs share
    only the integrand call: f(rows, v) gets the (P, 15) nodes of all the
    panels of a round, row p belonging to job rows[p], and returns their
    (P, 15) values, or (P, m, 15) for m integrands on one partition, of
    which row 0 steers.

    The result holds, per job, a list with one (value, error) pair per
    range. A failure is that of the lowest job in the first round that
    fails: its message names the panel's interval, and the
    QuadratureFailure carries the job and the ranges it leaves unresolved.
    """
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


def integrate(
    f,
    a: float,
    b: float,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
    max_depth: int = 16,
    max_panels: int = 20000,
    ranges=None,
):
    """Integral of the vectorized f over [a, b] with an error estimate.

    The worst panel is split until the summed Kronrod-vs-Gauss discrepancy
    meets max(abs_tol, rel_tol * |value|); panels that would need more than
    max_depth splits raise QuadratureFailure carrying the best estimate, and
    so does a panel whose value or error is not finite.

    With ranges, a sequence of sub-ranges (lo, hi) of [a, b], one partition
    serves them all: it starts from the panels between consecutive range
    ends, each range's value and error is the sum over its own panels, and
    the worst panel of any range still over its tolerance is split next
    (ties go to the shallower, then the leftmost panel). The result is then
    a list with one (value, error) pair per range; without ranges it is the
    single pair for [a, b].

    f may also return an (m, n) array for its n nodes: m integrands on one
    partition. Row 0 alone steers refinement and tolerances; values and
    errors then come back as length-m arrays.

    This is the one-job case of integrate_lockstep, with f called on the
    nodes of one panel at a time.
    """

    def per_panel(rows, v):
        return np.stack([np.asarray(f(nodes), dtype=float) for nodes in v])

    spans = [(a, b)] if ranges is None else ranges
    (parts,) = integrate_lockstep(
        per_panel, [(a, b, spans)], rel_tol=rel_tol, abs_tol=abs_tol,
        max_depth=max_depth, max_panels=max_panels,
    )
    return parts[0] if ranges is None else parts
