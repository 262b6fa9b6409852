"""Adaptive Gauss-Kronrod integration on finite intervals.

One-dimensional only: every mass integral in this package reduces to a
v-integral whose u-part is done in closed form (see harmonic.window_integral),
so a careful scalar engine with honest error estimates beats a generic cubature.
Integrands must accept and return ndarrays. integrate_lockstep refines many
independent jobs side by side: it takes the ends of every job's ranges as two
(job, range) arrays, an empty range having lo = hi, keeps its state in arrays
over (job, panel) and (job, range), evaluates each round's panels in one
integrand call, and returns each range's value and error as (job, range, m)
arrays. integrate is its one-job, one-range case, on Python floats.

Both take their tolerances as one QuadratureConfig, which refuses a
tolerance that is not positive when it is built. The budgets of a call,
MAX_DEPTH splits of a panel and MAX_PANELS panels per job, are module
constants, read at each call.
"""

from __future__ import annotations

import math
import sys
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


# the budgets of every engine call: splits of one panel, and panels of one job
MAX_DEPTH = 16
MAX_PANELS = 20000

# A panel's error is its Kronrod-Gauss gap plus ROUNDING_FLOOR eps times
# half its width times sum |w f| over its Kronrod nodes: the rounding of a
# 15-term weighted sum of integrand values each good to an ulp or two. On a
# smooth integrand the gap can fall below that rounding, even to 0.
ROUNDING_FLOOR = 8.0


@dataclass(frozen=True)
class QuadratureConfig:
    """The tolerances of an engine call.

    A range converges once its error is at most max(abs_tol, rel_tol * |value|).
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise InputError("quadrature tolerances must be positive")


DEFAULT_CONFIG = QuadratureConfig()


def _seed_panels(lo, hi):
    """The panels between consecutive range ends of each job, with their member ranges.

    Returns the (P,) panel ends, job indices and slots, each job's panels
    left to right in slots 0, 1, ..., with a (P, R) member mask, and each
    job's panel count. A panel between two ranges, in no range, is
    dropped: nothing asks for it.
    """
    n_jobs, width = lo.shape
    if width == 1:  # as below: each nonempty range is its job's one panel
        full = lo[:, 0] < hi[:, 0]
        job = np.flatnonzero(full)
        return (lo[job, 0], hi[job, 0], job, np.zeros(job.size, dtype=np.intp),
                np.ones((job.size, 1), dtype=bool), full.astype(np.intp))
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
    """Kronrod values and errors of panels, and whether f is single-row.

    Panel p is [lo[p], hi[p]] of job rows[p]; one call of f evaluates them
    all. Values and errors are (P, m) arrays, m = 1 for a single-row f; an
    error is the Kronrod-Gauss gap plus the ROUNDING_FLOOR floor.
    """
    half = 0.5 * (hi - lo)
    nodes = half[:, None] * _NODES
    nodes += 0.5 * (lo + hi)[:, None]  # the midpoints
    fv = np.asarray(f(rows, nodes), dtype=float)
    single = fv.ndim == 2
    if single:
        fv = fv[:, None, :]
    # a (P, m, 15) @ (15,) product sums every panel as np.dot sums it alone,
    # so a panel's numbers do not depend on the block it is evaluated in
    half = half[:, None]
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite panels raise
        kron = half * (fv @ _W_KRONROD)
        err = np.abs(kron - half * (fv[..., 1::2] @ _W_GAUSS))
        err += (ROUNDING_FLOOR * sys.float_info.epsilon) * half * (np.abs(fv) @ _W_KRONROD)
    return kron, err, single


# Fields of a panel record; a record is (lo, hi, depth, row-0 error,
# m values, m errors), and a range's sums are (m values, m errors). Records
# are stored one row per field and sums as (2m, job, range), so that each
# step of a round runs along the panels or jobs, not along a few fields.
_LO, _HI, _DEPTH, _LEAD, _SUMS = 0, 1, 2, 3, 4


def _records(lo, hi, depth, kron, err) -> np.ndarray:
    """Panel records (lo, hi, depth, row-0 error, values, errors), one column per panel."""
    return np.concatenate((lo[None], hi[None], depth[None], err[:, :1].T, kron.T, err.T))


def _open(sums, m: int, cfg: QuadratureConfig) -> np.ndarray:
    """Which ranges of sums (2m, ...) are over their tolerance; row 0 steers.

    fmax, like max(abs_tol, x), ignores a NaN x.
    """
    return sums[m] > np.fmax(cfg.abs_tol, cfg.rel_tol * np.abs(sums[0]))


def _add_split(sums, member, delta):
    """sums (2m, J, R) with delta (2m, J) added on the member ranges (J, R)."""
    return np.where(member, sums + delta[..., None], sums)


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


def _failure(ids, rec, members, is_open, sums, counts, go, kron, err, single, max_panels, cfg):
    """The failure of the lowest failing job of a round, or None.

    go marks the jobs whose panel is still below the depth budget. In a
    job, a panel at that budget fails first, then a non-finite half, then
    the budget of max_panels panels, with the sums after the split judged
    by cfg's tolerances. Every job below the lowest failing one went on,
    so job j's halves are kron[2 j] and kron[2 j + 1].
    """
    m = sums.shape[0] // 2
    bad_half = np.zeros((ids.size, 2), dtype=bool)
    if kron is not None:
        bad_half[go] = ~np.isfinite(err).all(axis=1).reshape(-1, 2)
    failing = ~go | bad_half.any(axis=1) | (counts >= max_panels)
    if not failing.any():
        return None
    j = int(failing.argmax())
    job, pa, pb = int(ids[j]), float(rec[_LO, j]), float(rec[_HI, j])
    mid = 0.5 * (pa + pb)
    if not go[j]:
        unresolved = _ranges(members[j] & is_open[j])
        return QuadratureFailure(
            f"no convergence at depth {int(rec[_DEPTH, j])} on [{pa}, {pb}] (err {rec[_LEAD, j]:.3e})",
            best_estimate=float(sums[0, j, unresolved[0]]),
            error_estimate=float(sums[m, j, unresolved[0]]),
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
        delta = (halves[0] + halves[1] - rec[_SUMS:, j])[:, None]
        after = _add_split(sums[:, j:j + 1], members[j:j + 1], delta)[:, 0]
        still_open = _open(after, m, cfg)
    first = int(members[j].argmax())
    return QuadratureFailure(
        f"panel budget {max_panels} exhausted splitting [{pa}, {pb}]",
        best_estimate=float(after[0, first]),
        error_estimate=float(after[m, first]),
        job=job,
        ranges=_ranges(still_open),
    )


def integrate_lockstep(f, lo, hi, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Integrals of many independent jobs, refined in lockstep, to cfg's tolerances.

    lo and hi are (J, R) arrays: job j integrates over its ranges
    [lo[j, r], hi[j, r]], which share one partition: it starts from the
    panels between consecutive range ends, and each range's value and error
    is the sum over its own panels. A range with lo = hi is empty, and its
    sums are 0; a reversed or non-finite range raises InputError naming its
    job and range. Every job has its own panels, open ranges and
    MAX_DEPTH/MAX_PANELS budget, and is refined exactly as it would be
    alone: each round, every job with a range over its tolerance splits its
    worst panel. The jobs share only the integrand call: f(rows, v) gets
    the (P, 15) nodes of all the panels of a round, row p belonging to job
    rows[p], and returns their (P, 15) values, or (P, m, 15) for m
    integrands on one partition, of which row 0 steers.

    A panel is eligible while any of its ranges is open, that is, over its
    tolerance, and each round a job splits its eligible panel of largest
    row-0 error, ties going to the shallower, then the leftmost panel. A
    split adds the halves' sums less the panel's to the ranges it belongs
    to; the left half takes the panel's slot, the right half the job's next
    free one. The state is arrays with no Python loop over jobs or panels,
    and a round touches only the panels it splits:

    - every (job, slot)'s panel record and member ranges, each job's cap
      slots in one block, which a round reads and writes at the split
      panels' slots alone, and which are copied, for the jobs still
      refining alone, only when cap doubles;
    - per job still refining: its (slot,) scores, the row-0 error of each
      eligible panel and -1 elsewhere, its ranges' sums and open flags, and
      its panel count. Only these are cut down when jobs leave, once none
      of their ranges is open.

    The halves of a split are eligible, as their panel was, unless the
    split closes or reopens a range of a job that goes on; only then are
    that job's scores worked out afresh from its records. So no heap of
    panels is kept: the panels of a converged range drop out of the choice,
    and come back when a split pushes that range over its tolerance again.
    A round is a fixed number of array operations over the panels it
    splits and the jobs still refining, none over every panel held, and
    one integrand call; a job with one range is seeded with that range as
    its one panel.

    The result is (values, errors), two (J, R, m) arrays of every range's
    sums, with m = 1 for a single-row f or when every range is empty. A
    failure is that of the lowest job in the first round that fails: its
    message names the panel's interval, and the QuadratureFailure carries
    the job and the ranges it leaves unresolved. Within a job, a panel at
    MAX_DEPTH fails first, then a non-finite half, then the MAX_PANELS
    budget. Both budgets are read once per call.
    """
    max_depth, max_panels = MAX_DEPTH, MAX_PANELS
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    bad = ~(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi))
    if bad.any():
        j, r = np.argwhere(bad)[0].tolist()
        ends = [float(lo[j, r]), float(hi[j, r])]
        raise InputError(f"job {j}, range {r}: {ends} is not a finite ordered range")
    n_jobs, width = lo.shape
    seed_lo, seed_hi, seed_job, slot, seed_member, counts = _seed_panels(lo, hi)
    if not seed_job.size:
        return np.zeros((n_jobs, width, 1)), np.zeros((n_jobs, width, 1))
    kron, err, single = _evaluate(f, seed_job, seed_lo, seed_hi)
    if not np.isfinite(err).all():
        k = int(np.isfinite(err).all(axis=1).argmin())
        value, error = (float(kron[k, 0]), float(err[k, 0])) if single else (kron[k], err[k])
        raise _nonfinite(int(seed_job[k]), float(seed_lo[k]), float(seed_hi[k]),
                         _ranges(seed_member[k]), value, error)
    m = kron.shape[1]
    top = int(counts.max())  # no job has more panels than this
    cap = 2 * top + 2
    pan = np.zeros((_SUMS + 2 * m, n_jobs * cap))
    member = np.zeros((n_jobs * cap, width), dtype=bool)
    seed_at = seed_job * cap + slot
    pan[:, seed_at] = _records(seed_lo, seed_hi, np.zeros(seed_job.size), kron, err)
    member[seed_at] = seed_member
    with np.errstate(over="ignore", invalid="ignore"):  # as float sums would
        # each range's sums over its seed panels, added left to right;
        # the final + 0.0 turns a -0.0 sum into the 0.0 that a sum
        # started at 0.0 gives, and leaves every other sum as it is
        seeded = member.reshape(n_jobs, cap, width)[:, :top]
        parts = np.where(seeded, pan.reshape(-1, n_jobs, cap)[_SUMS:, :, :top, None], 0.0)
        sums = parts.cumsum(axis=2)[:, :, -1] + 0.0
        is_open = _open(sums, m, cfg)
    score = np.full((n_jobs, cap), -1.0)
    eligible = np.logical_or.reduce(seed_member & is_open[seed_job], axis=1)
    score[seed_job, slot] = np.where(eligible, err[:, 0], -1.0)
    sums_out = np.zeros((2 * m, n_jobs, width))
    ids = home = rr = np.arange(n_jobs)  # each job still refining, its block of slots and its row
    blocks = n_jobs
    base = home * cap  # each job's first slot
    going = np.logical_or.reduce(is_open, axis=1)
    rounds = 0  # no panel is deeper than this
    while True:
        if not going.all():
            sums_out[:, ids] = sums  # the finished jobs' among them
            if not going.any():
                break
            keep = np.flatnonzero(going)
            ids, home, counts = ids.take(keep), home.take(keep), counts.take(keep)
            score, sums, is_open = score.take(keep, axis=0), sums.take(keep, axis=1), is_open.take(keep, axis=0)
            base = home * cap
            rr = np.arange(ids.size)
        n = ids.size
        pick = score.argmax(axis=1)
        best = score[rr, pick]
        if np.count_nonzero(score == best[:, None]) > n:
            # ties: the shallower, then the leftmost panel
            tied = score == best[:, None]
            block = pan.reshape(-1, blocks, cap).take(home, axis=1)
            for field in (_DEPTH, _LO, _HI):
                key = np.where(tied, block[field], math.inf)
                tied &= key == key.min(axis=1)[:, None]
            pick = tied.argmax(axis=1)
        at = base + pick  # the panel's slot, then its left half's
        rec = pan.take(at, axis=1)
        members = member.take(at, axis=0)
        mid = 0.5 * (rec[_LO] + rec[_HI])
        los, his = np.empty(2 * n), np.empty(2 * n)  # the halves' ends
        los[0::2], los[1::2] = rec[_LO], mid
        his[0::2], his[1::2] = mid, rec[_HI]
        if rounds >= max_depth:
            go = rec[_DEPTH] < max_depth
            if not go.all():
                kron = err = None
                if go.any():
                    kron, err, _ = _evaluate(f, ids[go].repeat(2), los[go.repeat(2)], his[go.repeat(2)])
                raise _failure(ids, rec, members, is_open, sums, counts, go, kron, err, single, max_panels, cfg)
        kron, err, _ = _evaluate(f, ids.repeat(2), los, his)
        if top >= max_panels or not np.isfinite(err).all():
            failure = _failure(ids, rec, members, is_open, sums, counts, np.ones(n, dtype=bool), kron, err,
                               single, max_panels, cfg)
            if failure is not None:
                raise failure
        halves = _records(los, his, rec[_DEPTH].repeat(2) + 1.0, kron, err)
        with np.errstate(over="ignore", invalid="ignore"):  # as float sums would
            sums = _add_split(sums, members, halves[_SUMS:, 0::2] + halves[_SUMS:, 1::2] - rec[_SUMS:])
            # only the members' sums moved, so is_open stays _open(sums)
            opened = _open(sums, m, cfg)
        top += 1
        rounds += 1
        if top > cap:
            # twice the slots, for the jobs still refining alone
            pan = pan.reshape(-1, blocks, cap).take(home, axis=1)
            pan = np.concatenate((pan, np.zeros(pan.shape)), axis=2).reshape(pan.shape[0], -1)
            member = member.reshape(blocks, cap, width).take(home, axis=0)
            member = np.concatenate((member, np.zeros(member.shape, bool)), axis=1).reshape(-1, width)
            score = np.concatenate((score, np.full(score.shape, -1.0)), axis=1)
            cap *= 2
            home, blocks = rr, n
            base = home * cap
            at = base + pick
        fresh = base + counts  # the right half's slot
        dest = np.empty(2 * n, dtype=np.intp)
        dest[0::2], dest[1::2] = at, fresh
        pan[:, dest] = halves
        member[fresh] = members
        score[rr, pick] = err[0::2, 0]
        score[rr, counts] = err[1::2, 0]
        counts = counts + 1
        going = np.logical_or.reduce(opened, axis=1)
        if width > 1:
            # a job may close or reopen a range and go on; its panels'
            # eligibility then changes (a one-range job leaves as it closes)
            moved = np.flatnonzero(np.logical_or.reduce(opened != is_open, axis=1) & going)
            if moved.size:
                held = member.reshape(blocks, cap, width).take(home[moved], axis=0)
                lead = pan[_LEAD].reshape(blocks, cap).take(home[moved], axis=0)
                score[moved] = np.where(np.logical_or.reduce(held & opened[moved, None, :], axis=2), lead, -1.0)
        is_open = opened
    sums_out = sums_out.transpose(1, 2, 0)
    return sums_out[..., :m], sums_out[..., m:]


def integrate(f, a: float, b: float, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Integral of the vectorized f over [a, b] with an error estimate.

    The worst panel is split until the summed panel errors (each its
    Kronrod-vs-Gauss discrepancy plus the ROUNDING_FLOOR floor) meet
    max(cfg.abs_tol, cfg.rel_tol * |value|); a panel that would need
    more than MAX_DEPTH splits, a job that would need more than MAX_PANELS
    panels, and a panel whose value or error is not finite raise
    QuadratureFailure carrying the best estimate. An empty range, a = b,
    gives (0.0, 0.0).

    f may also return an (m, n) array for its n nodes: m integrands on one
    partition. Row 0 alone steers refinement and tolerances; values and
    errors then come back as length-m arrays.

    This is the one-job, one-range case of integrate_lockstep, with f
    called on the nodes of one panel at a time.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InputError("integration endpoints must be finite")
    if a > b:
        raise InputError("integration needs a < b")

    def per_panel(rows, v):
        return np.stack([np.asarray(f(nodes), dtype=float) for nodes in v])

    values, errors = integrate_lockstep(per_panel, [[a]], [[b]], cfg)
    if values.shape[2] == 1:
        return float(values[0, 0, 0]), float(errors[0, 0, 0])
    return values[0, 0], errors[0, 0]
