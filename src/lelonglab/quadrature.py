"""Adaptive Gauss-Kronrod integration on finite intervals.

One-dimensional only: every mass integral in this package reduces to a
v-integral whose u-part is done in closed form (see harmonic.window_integral),
so a careful scalar engine with honest error estimates beats a generic cubature.
Integrands must accept and return ndarrays. integrate_lockstep refines many
independent jobs side by side: it takes the ends of every job's ranges as two
(job, range) arrays, an empty range having lo = hi, keeps its state in arrays
over (job, panel) and (job, range), evaluates each round's panels in one
integrand call, and returns each range's value and error as (job, range, m)
arrays. integrate is its one-job case, on Python floats.
"""

from __future__ import annotations

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

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise InputError("quadrature tolerances must be positive")
        if not (isinstance(self.max_depth, int) and self.max_depth >= 1):
            raise InputError("max_depth must be an integer >= 1")


DEFAULT_CONFIG = QuadratureConfig()


def _check_job(a: float, b: float, spans) -> None:
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InputError("integration endpoints must be finite")
    if a > b:
        raise InputError("integration needs a < b")
    for lo, hi in spans:
        if not (a <= lo <= hi <= b):
            raise InputError(f"range [{lo}, {hi}] is not an ordered sub-range of [{a}, {b}]")


def _seed_panels(lo, hi):
    """The panels between consecutive range ends of each job, with their member ranges.

    Returns the (P,) panel ends, job indices and slots, each job's panels
    left to right in slots 0, 1, ..., with a (P, R) member mask, and each
    job's panel count. A panel between two ranges, in no range, is
    dropped: nothing asks for it.
    """
    n_jobs, width = lo.shape
    # each job's distinct ends of nonempty ranges; a stable sort keeps the
    # first of equal ends (0.0 and -0.0) in range order, as a set would
    ends = np.empty((n_jobs, width, 2))
    ends[..., 0] = lo
    ends[..., 1] = hi
    ends[~(lo < hi)] = math.inf
    ends = np.sort(ends.reshape(n_jobs, 2 * width), axis=1, kind="stable")
    ends[:, 1:][ends[:, 1:] == ends[:, :-1]] = math.inf
    ends = np.sort(ends, axis=1, kind="stable")
    pa, pb = ends[:, :-1, None], ends[:, 1:, None]
    member = (lo[:, None, :] <= pa) & (pb <= hi[:, None, :])
    keep = member.any(axis=2)  # an inf end is in no range
    job, _ = np.nonzero(keep)
    slot = np.cumsum(keep, axis=1)[keep] - 1
    return pa[keep, 0], pb[keep, 0], job, slot, member[keep], np.count_nonzero(keep, axis=1)


def _evaluate(f, rows, lo, hi):
    """Kronrod values and Kronrod-Gauss errors of panels, and whether f is single-row.

    Panel p is [lo[p], hi[p]] of job rows[p]; one call of f evaluates them
    all. Values and errors are (P, m) arrays, m = 1 for a single-row f.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    fv = np.asarray(f(rows, mid[:, None] + half[:, None] * _NODES), dtype=float)
    single = fv.ndim == 2
    if single:
        fv = fv[:, None, :]
    # a (P, m, 15) @ (15,) product sums every panel as np.dot sums it alone,
    # so a panel's numbers do not depend on the block it is evaluated in
    half = half[:, None]
    kron = half * (fv @ _W_KRONROD)
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite panels raise
        err = np.abs(kron - half * (fv[..., 1::2] @ _W_GAUSS))
    return kron, err, single


# Columns of a panel record; a record is (lo, hi, depth, row-0 error,
# m values, m errors), and a range's sums are (m values, m errors).
_LO, _HI, _DEPTH, _LEAD, _SUMS = 0, 1, 2, 3, 4


def _records(lo, hi, depth, kron, err) -> np.ndarray:
    """Panel records (lo, hi, depth, row-0 error, values, errors), one row per panel."""
    return np.concatenate((lo[:, None], hi[:, None], depth[:, None], err[:, :1], kron, err), axis=1)


def _open(sums, m: int, abs_tol: float, rel_tol: float) -> np.ndarray:
    """Which ranges are over their tolerance; row 0 steers.

    fmax, like max(abs_tol, x), ignores a NaN x.
    """
    return sums[..., m] > np.fmax(abs_tol, rel_tol * np.abs(sums[..., 0]))


def _add_split(sums, member, delta):
    """sums (J, R, 2m) with delta (J, 2m) added on the member ranges (J, R)."""
    return np.where(member[..., None], sums + delta[:, None, :], sums)


def _ranges(mask) -> tuple:
    return tuple(np.flatnonzero(mask).tolist())


def _nonfinite(job: int, pa: float, pb: float, members, value, err) -> QuadratureFailure:
    return QuadratureFailure(
        f"non-finite integrand on [{pa}, {pb}] (value {value}, err {err})",
        best_estimate=math.nan,
        error_estimate=math.inf,
        job=job,
        ranges=members,
    )


def _failure(ids, rec, members, is_open, sums, counts, go, kron, err, single, budget):
    """The failure of the lowest failing job of a round, or None.

    In a job, a panel at max_depth fails first, then a non-finite half,
    then the panel budget, with the sums after the split. Every job below
    the lowest failing one went on, so job j's halves are kron[2 j] and
    kron[2 j + 1].
    """
    max_panels, abs_tol, rel_tol = budget
    m = sums.shape[2] // 2
    bad_half = np.zeros((ids.size, 2), dtype=bool)
    if kron is not None:
        bad_half[go] = ~np.isfinite(err).all(axis=1).reshape(-1, 2)
    failing = ~go | bad_half.any(axis=1) | (counts >= max_panels)
    if not failing.any():
        return None
    j = int(failing.argmax())
    job, pa, pb = int(ids[j]), float(rec[j, _LO]), float(rec[j, _HI])
    mid = 0.5 * (pa + pb)
    if not go[j]:
        unresolved = _ranges(members[j] & is_open[j])
        return QuadratureFailure(
            f"no convergence at depth {int(rec[j, _DEPTH])} on [{pa}, {pb}] (err {rec[j, _LEAD]:.3e})",
            best_estimate=float(sums[j, unresolved[0], 0]),
            error_estimate=float(sums[j, unresolved[0], m]),
            job=job,
            ranges=unresolved,
        )
    if bad_half[j].any():
        h = int(bad_half[j].argmax())
        k = 2 * j + h
        value, error = (float(kron[k, 0]), float(err[k, 0])) if single else (kron[k], err[k])
        return _nonfinite(job, *((pa, mid), (mid, pb))[h], _ranges(members[j]), value, error)
    halves = np.concatenate((kron[2 * j:2 * j + 2], err[2 * j:2 * j + 2]), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # as float sums would
        after = _add_split(sums[j:j + 1], members[j:j + 1], halves[0] + halves[1] - rec[j:j + 1, _SUMS:])[0]
        still_open = np.where(members[j], _open(after, m, abs_tol, rel_tol), is_open[j])
    first = int(members[j].argmax())
    return QuadratureFailure(
        f"panel budget {max_panels} exhausted splitting [{pa}, {pb}]",
        best_estimate=float(after[first, 0]),
        error_estimate=float(after[first, m]),
        job=job,
        ranges=_ranges(still_open),
    )


def integrate_lockstep(
    f,
    lo,
    hi,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
    max_depth: int = 16,
    max_panels: int = 20000,
):
    """Integrals of many independent jobs, refined in lockstep.

    lo and hi are (J, R) arrays: job j integrates over its ranges
    [lo[j, r], hi[j, r]], which share one partition as in integrate. A
    range with lo = hi is empty, and its sums are 0; a reversed or
    non-finite range raises InputError naming its job and range. Every job
    has its own panels, open ranges and max_depth/max_panels budget, and is
    refined exactly as integrate refines it alone: each round, every job
    with a range over its tolerance splits its worst panel. The jobs share
    only the integrand call: f(rows, v) gets the (P, 15) nodes of all the
    panels of a round, row p belonging to job rows[p], and returns their
    (P, 15) values, or (P, m, 15) for m integrands on one partition, of
    which row 0 steers.

    The state is a few arrays over (job, panel slot) and (job, range), with
    no Python loop over jobs or panels: each slot's panel record and member
    ranges, and each range's sums and whether it is open, that is, over its
    tolerance. A panel is eligible while any of its ranges is open, and
    each round a job splits its eligible panel of largest row-0 error, ties
    going to the shallower, then the leftmost panel. Eligibility is worked
    out afresh each round, so no heap of panels is kept: the panels of a
    converged range drop out of the choice, and come back when a split
    pushes that range over its tolerance again. A split adds the halves'
    sums less the panel's to the ranges it belongs to; the left half takes
    the panel's slot, the right half the job's next free one. Jobs leave
    the arrays once none of their ranges is open.

    The result is (values, errors), two (J, R, m) arrays of every range's
    sums, with m = 1 for a single-row f or when every range is empty. A
    failure is that of the lowest job in the first round that fails: its
    message names the panel's interval, and the QuadratureFailure carries
    the job and the ranges it leaves unresolved. Within a job, a panel at
    max_depth fails first, then a non-finite half, then the max_panels
    budget.
    """
    budget = (max_panels, abs_tol, rel_tol)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    bad = ~(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi))
    if bad.any():
        j, r = np.argwhere(bad)[0].tolist()
        ends = [float(lo[j, r]), float(hi[j, r])]
        raise InputError(f"job {j}, range {r}: {ends} is not a finite ordered range")
    n_jobs, width = lo.shape
    seed_lo, seed_hi, seed_job, slot, seed_member, counts = _seed_panels(lo, hi)
    single = True
    sums_out = np.zeros((n_jobs, width, 2))
    live = None
    if seed_job.size:
        kron, err, single = _evaluate(f, seed_job, seed_lo, seed_hi)
        if not np.isfinite(err).all():
            k = int(np.isfinite(err).all(axis=1).argmin())
            value, error = (float(kron[k, 0]), float(err[k, 0])) if single else (kron[k], err[k])
            raise _nonfinite(int(seed_job[k]), float(seed_lo[k]), float(seed_hi[k]),
                             _ranges(seed_member[k]), value, error)
        m = kron.shape[1]
        top = int(counts.max())  # no job has more panels than this
        pan = np.zeros((n_jobs, 2 * top + 2, _SUMS + 2 * m))
        member = np.zeros(pan.shape[:2] + (width,), dtype=bool)
        pan[seed_job, slot] = _records(seed_lo, seed_hi, np.zeros(seed_job.size), kron, err)
        member[seed_job, slot] = seed_member
        with np.errstate(over="ignore", invalid="ignore"):  # as float sums would
            # each range's sums over its seed panels, added left to right;
            # the final + 0.0 turns a -0.0 sum into the 0.0 that a sum
            # started at 0.0 gives, and leaves every other sum as it is
            parts = np.where(member[:, :top, :, None], pan[:, :top, None, _SUMS:], 0.0)
            sums = parts.cumsum(axis=1)[:, -1] + 0.0
            is_open = _open(sums, m, abs_tol, rel_tol)
        sums_out = np.zeros((n_jobs, width, 2 * m))
        live = [np.arange(n_jobs), pan, member, sums, is_open, counts]
    rounds = 0  # no panel is deeper than this
    while live is not None:
        ids, pan, member, sums, is_open, counts = live
        going = np.logical_or.reduce(is_open, axis=1)
        if not going.all():
            sums_out[ids[~going]] = sums[~going]
            if not going.any():
                break
            live = [x[going] for x in live]
            ids, pan, member, sums, is_open, counts = live
        n, cap = pan.shape[:2]
        rr = np.arange(n)
        # the row-0 error of each eligible panel, -1 elsewhere
        score = np.where(np.logical_or.reduce(member & is_open[:, None, :], axis=2), pan[..., _LEAD], -1.0)
        pick = score.argmax(axis=1)
        best = score[rr, pick][:, None]
        if np.count_nonzero(score == best) > n:
            # ties: the shallower, then the leftmost panel
            tied = score == best
            for col in (_DEPTH, _LO, _HI):
                key = np.where(tied, pan[..., col], math.inf)
                tied &= key == key.min(axis=1)[:, None]
            pick = tied.argmax(axis=1)
        at = rr * cap + pick  # flat slot of the panel, then of its left half
        rec = pan.reshape(n * cap, -1)[at]
        members = member.reshape(n * cap, -1)[at]
        mid = 0.5 * (rec[:, _LO] + rec[:, _HI])
        los, his = np.empty(2 * n), np.empty(2 * n)  # the halves' ends
        los[0::2], los[1::2] = rec[:, _LO], mid
        his[0::2], his[1::2] = mid, rec[:, _HI]
        if rounds >= max_depth:
            go = rec[:, _DEPTH] < max_depth
            if not go.all():
                kron = err = None
                if go.any():
                    kron, err, _ = _evaluate(f, ids[go].repeat(2), los[go.repeat(2)], his[go.repeat(2)])
                raise _failure(ids, rec, members, is_open, sums, counts, go, kron, err, single, budget)
        kron, err, _ = _evaluate(f, ids.repeat(2), los, his)
        if top >= max_panels or not np.isfinite(err).all():
            failure = _failure(ids, rec, members, is_open, sums, counts, np.ones(n, dtype=bool), kron, err,
                               single, budget)
            if failure is not None:
                raise failure
        halves = _records(los, his, rec[:, _DEPTH].repeat(2) + 1.0, kron, err).reshape(n, 2, -1)
        with np.errstate(over="ignore", invalid="ignore"):  # as float sums would
            sums = _add_split(sums, members, halves[:, 0, _SUMS:] + halves[:, 1, _SUMS:] - rec[:, _SUMS:])
            is_open = np.where(members, _open(sums, m, abs_tol, rel_tol), is_open)
        top += 1
        rounds += 1
        if top > cap:
            pan = np.concatenate((pan, np.zeros_like(pan)), axis=1)
            member = np.concatenate((member, np.zeros_like(member)), axis=1)
            at += rr * cap
            cap *= 2
        fresh = rr * cap + counts  # flat slot of the right half
        flat = pan.reshape(n * cap, -1)
        flat[at] = halves[:, 0]
        flat[fresh] = halves[:, 1]
        member.reshape(n * cap, -1)[fresh] = members
        live = [ids, pan, member, sums, is_open, counts + 1]
    m = sums_out.shape[2] // 2
    return sums_out[..., :m], sums_out[..., m:]


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

    spans = [(a, b)] if ranges is None else list(ranges)
    _check_job(a, b, spans)
    ends = np.array(spans, dtype=float).reshape(1, -1, 2)
    values, errors = integrate_lockstep(
        per_panel, ends[..., 0], ends[..., 1], rel_tol=rel_tol, abs_tol=abs_tol,
        max_depth=max_depth, max_panels=max_panels,
    )
    if values.shape[2] == 1:
        parts = list(zip(values[0, :, 0].tolist(), errors[0, :, 0].tolist()))
    else:  # an empty range keeps scalar zero sums
        parts = [(value, err) if lo < hi else (0.0, 0.0)
                 for value, err, (lo, hi) in zip(values[0], errors[0], spans)]
    return parts[0] if ranges is None else parts
