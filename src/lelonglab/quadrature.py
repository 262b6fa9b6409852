"""Adaptive Gauss-Kronrod integration on finite intervals.

One-dimensional only: every mass integral in this package reduces to a
v-integral whose u-part is done in closed form (see harmonic.window_integral),
so a careful scalar engine with honest error estimates beats a generic cubature.
Integrands must accept and return ndarrays.
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


def _panel(f, a: float, b: float):
    """(Kronrod value, Kronrod-Gauss error, error of row 0) of one panel."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fv = np.asarray(f(mid + half * _NODES), dtype=float)
    # a finite error implies finite Kronrod and Gauss sums; checking it keeps
    # a NaN, which passes every tolerance comparison, from being returned
    if fv.ndim == 1:
        kron = half * float(np.dot(_W_KRONROD, fv))
        err = abs(kron - half * float(np.dot(_W_GAUSS, fv[1::2])))
        if math.isfinite(err):
            return kron, err, err
    else:
        kron = half * (fv @ _W_KRONROD)
        err = np.abs(kron - half * (fv[:, 1::2] @ _W_GAUSS))
        if np.all(np.isfinite(err)):
            return kron, err, float(err[0])
    raise QuadratureFailure(
        f"non-finite integrand on [{a}, {b}] (value {kron}, err {err})",
        best_estimate=math.nan,
        error_estimate=math.inf,
    )


def _lead(x) -> float:
    """Row 0, the row that steers refinement, of a sum over one or m rows."""
    return x if isinstance(x, float) else float(x[0])


def _over_budget(value, err, abs_tol: float, rel_tol: float) -> bool:
    if not isinstance(err, float):  # (m,) rows: row 0 steers
        value, err = value[0], err[0]
    return err > max(abs_tol, rel_tol * abs(value))


def _seed(f, spans):
    """Per-range sums and the heap of the panels between consecutive range ends."""
    values = [0.0] * len(spans)
    errors = [0.0] * len(spans)
    heap = []
    cuts = sorted({x for lo, hi in spans if lo < hi for x in (lo, hi)})
    for pa, pb in zip(cuts, cuts[1:]):
        members = tuple([n for n, (lo, hi) in enumerate(spans) if lo <= pa and pb <= hi])
        if members:  # else a gap between ranges: nothing asks for it
            value, err, lead = _panel(f, pa, pb)
            heap.append((-lead, 0, pa, pb, value, err, members))
            for n in members:
                values[n] = values[n] + value
                errors[n] = errors[n] + err
    heapq.heapify(heap)
    return values, errors, heap


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
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InputError("integration endpoints must be finite")
    if a == b and ranges is None:
        return 0.0, 0.0
    if a > b:
        raise InputError("integration needs a < b")
    spans = [(a, b)] if ranges is None else list(ranges)
    for lo, hi in spans:
        if not (a <= lo <= hi <= b):
            raise InputError(f"range [{lo}, {hi}] is not an ordered sub-range of [{a}, {b}]")
    if not spans:
        return []
    # leaf panels: (-lead error, depth, lo, hi, value, error, member ranges)
    values, errors, heap = _seed(f, spans)
    open_ranges = {
        n for n in range(len(values)) if _over_budget(values[n], errors[n], abs_tol, rel_tol)
    }
    parked = []  # popped panels that lie in no open range
    panels = len(heap)
    while open_ranges:
        panel = heapq.heappop(heap)
        neg_err, depth, pa, pb, pval, perr, members = panel
        if open_ranges.isdisjoint(members):
            parked.append(panel)
            continue
        if depth >= max_depth:
            n = min(open_ranges.intersection(members))
            raise QuadratureFailure(
                f"no convergence at depth {depth} on [{pa}, {pb}] (err {-neg_err:.3e})",
                best_estimate=_lead(values[n]),
                error_estimate=_lead(errors[n]),
            )
        mid = 0.5 * (pa + pb)
        v1, e1, l1 = _panel(f, pa, mid)
        v2, e2, l2 = _panel(f, mid, pb)
        reopened = False
        for n in members:
            values[n] = values[n] + (v1 + v2 - pval)
            errors[n] = errors[n] + (e1 + e2 - perr)
            if not _over_budget(values[n], errors[n], abs_tol, rel_tol):
                open_ranges.discard(n)
            elif n not in open_ranges:
                # a split can raise the error of a range that had converged
                open_ranges.add(n)
                reopened = True
        heapq.heappush(heap, (-l1, depth + 1, pa, mid, v1, e1, members))
        heapq.heappush(heap, (-l2, depth + 1, mid, pb, v2, e2, members))
        panels += 1
        if panels > max_panels:
            n = members[0]
            raise QuadratureFailure(
                f"panel budget {max_panels} exhausted",
                best_estimate=_lead(values[n]),
                error_estimate=_lead(errors[n]),
            )
        if reopened:
            for item in parked:
                heapq.heappush(heap, item)
            parked = []
    if ranges is None:
        return values[0], errors[0]
    return list(zip(values, errors))
