"""Orchestrated verification of the headline claims over a fixed corpus.

Three current-level verifiers (positive limit, vanishing limit, forced
divergence) plus direct lattice checks of the quantitative lemmas the proofs
lean on. The lemmas are a table: LEMMAS maps each case id to a function that
evaluates its lemma on a fixed lattice and returns the values with their lower
and upper bounds, and one checker, check_bounds, turns them into the report.
A value passes only if it lies strictly between its bounds. Every verdict is
recomputable from the observed numbers and the tolerance spelled out in the
report details; the corpus is generated deterministically from a seed that
only jitters benign mode coefficients.

Each verifier is a schedule and a judge of it. verify_* schedule one current
with lelong_estimate; run_corpus builds the whole corpus with one
build_currents call and schedules all 14 trig currents with one exact-route
call at PERIODIC_STEPS radii, judging the STEPS-radius prefix where a
verifier takes STEPS: an exact mass depends on its radius alone, so the
prefix is bit for bit the STEPS-radius schedule. The two Poisson currents
keep one quadrature schedule each.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .current import (
    AtomTable,
    Current,
    TransversalAtom,
    accumulation_family,
    build_current,  # not called here: perfbench's layer trace wraps it by name
    build_currents,
    is_periodic,
    monodromy_family,
)
from .errors import InputError
from .foliation import Eigenvalue
from .harmonic import FourierSpec, PoissonSpec, normalize
from .mass import (
    _bracket_a,
    _exact_masses,
    closed_form_applicable,
    ia,
    ib,
    kernel_weight,
    interval_window,
    lelong_estimate,
    lelong_from_masses,
    lelong_radii,
    lower_bound_nonperiodic,
    mass_closed_form,
    nu_limit_positive_periodic,
)
from .quadrature import DEFAULT_CONFIG, QuadratureConfig

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class VerificationReport:
    case_id: str
    lam: float
    claim: str  # PositiveLelong | ZeroLelong | Divergence | LemmaBound
    observed: Tuple[float, ...]
    verdict: bool
    details: str


# The verifiers' schedules: STEPS halvings from r = 1. Closed-form schedules
# are cheap, so the periodic limit check runs deeper; 16 halvings put the
# slowest corpus decay safely inside 1e-4.
R_START = 1.0
RATIO = 0.5
STEPS = 12
PERIODIC_STEPS = 16
# window index and series length of the interval lower bound
INTERVAL_K = 2
INTERVAL_N_MAX = 20


@dataclass(frozen=True)
class VerifyConfig:
    quad: QuadratureConfig = DEFAULT_CONFIG
    # scales every pass threshold; 0 turns each check into an unmeetable
    # exact-equality demand (the forced-failure path)
    tol_scale: float = 1.0


DEFAULT_VERIFY = VerifyConfig()


@dataclass(frozen=True)
class CorpusCase:
    case_id: str
    kind: str  # "positive" | "negative" | "divergence"
    current: Current


# ---------------------------------------------------------------------------
# theorem verifiers: their argument checks, a schedule, then its judge


def verify_positive_lambda(
    current: Current,
    cfg: VerifyConfig = DEFAULT_VERIFY,
    case_id: str = "positive-lambda",
) -> VerificationReport:
    """Positive eigenvalue: the Lelong limit is strictly positive.

    The rigorous check is limit_bracket.lower > 0. Trig-series currents are
    additionally pinned to the closed-form limit; Poisson currents to the
    interval lower bound.
    """
    _check_positive(current)
    steps = PERIODIC_STEPS if closed_form_applicable(current) else STEPS
    est = lelong_estimate(current, r_start=R_START, ratio=RATIO, steps=steps, cfg=cfg.quad)
    return _judge_positive(current, est, cfg, case_id)


def _check_positive(current: Current) -> None:
    if current.lam.is_negative:
        raise InputError("positive-limit verifier needs a positive eigenvalue")
    for atom in current.atoms:
        growing = atom.spec.b0 if isinstance(atom.spec, FourierSpec) else atom.spec.c_lin
        if growing > 0.0:
            raise InputError("positive-limit verifier needs b0 = 0 and c_lin = 0 atoms")


def _judge_positive(current: Current, est, cfg: VerifyConfig, case_id: str) -> VerificationReport:
    if closed_form_applicable(current):
        reference = nu_limit_positive_periodic(current)
        tol = 1e-4 * cfg.tol_scale
        agrees = abs(est.limit_estimate - reference) <= tol * max(abs(reference), 1e-30)
        details = (
            f"pass iff bracket lower > 0 and |limit - {reference:.12g}| <= {tol:.3g} rel "
            f"(closed-form schedule, {len(est.rs)} halvings)"
        )
    else:
        reference = lower_bound_nonperiodic(current, k=INTERVAL_K, n_max=INTERVAL_N_MAX)
        agrees = est.limit_bracket[0] >= reference * (1.0 - 0.05 * cfg.tol_scale)
        details = (
            f"pass iff bracket lower > 0 and >= interval bound {reference:.12g} "
            f"x (1 - 0.05 x {cfg.tol_scale:g})"
        )
    positive = est.limit_bracket[0] > 0.0
    return VerificationReport(
        case_id=case_id,
        lam=current.lam.value,
        claim="PositiveLelong",
        observed=(est.limit_estimate, est.limit_bracket[0], est.limit_bracket[1], reference),
        verdict=bool(positive and agrees),
        details=details,
    )


def verify_negative_periodic(
    current: Current,
    cfg: VerifyConfig = DEFAULT_VERIFY,
    case_id: str = "negative-periodic",
) -> VerificationReport:
    """Negative eigenvalue, periodic current: the Lelong limit vanishes.

    Numeric half: nu at the end of the halving schedule falls below 5% of
    nu(1). Structural half: the atoms still admissible at the end radius
    carry a closed-form tail below 1% of the full mass (or none are left).
    """
    _check_negative(current)
    est = lelong_estimate(current, r_start=R_START, ratio=RATIO, steps=STEPS, cfg=cfg.quad)
    return _judge_negative(current, est, None, cfg, case_id)


def _check_negative(current: Current) -> None:
    if not current.lam.is_negative:
        raise InputError("vanishing-limit verifier needs a negative eigenvalue")
    if is_periodic(current) is None:
        raise InputError("vanishing-limit verifier needs a periodic current")


def _judge_negative(
    current: Current, est, mass_one: Optional[float], cfg: VerifyConfig, case_id: str,
) -> VerificationReport:
    # mass_one is the exact mass at r = 1, or None to work it out if needed
    nu_start, nu_end = est.nus[0], est.nus[-1]
    decay_ok = nu_end < 0.05 * cfg.tol_scale * nu_start
    r_end = est.rs[-1]
    lv = current.lam.value
    admissible = [
        atom for atom in current.atoms if atom.alpha_modulus < r_end ** (1.0 - lv)
    ]
    if admissible:
        amplify = math.exp(-1.0 / (lv * (1.0 - lv)))
        tail = TWO_PI * sum(
            atom.weight
            * (
                atom.spec.a0 * ia(lv, atom.alpha_modulus, 1.0)
                + atom.spec.b0 * amplify * ib(lv, atom.alpha_modulus, 1.0)
            )
            for atom in admissible
        )
        mass_ref = mass_closed_form(current, 1.0) if mass_one is None else mass_one
        tail_ok = tail < 0.01 * cfg.tol_scale * mass_ref
    else:
        tail = 0.0
        tail_ok = True
    return VerificationReport(
        case_id=case_id,
        lam=lv,
        claim="ZeroLelong",
        observed=(nu_start, nu_end, tail, float(len(admissible))),
        verdict=bool(decay_ok and tail_ok),
        details=(
            f"pass iff nu({r_end:.3g}) < 0.05 x {cfg.tol_scale:g} x nu({est.rs[0]:g}) "
            f"and the surviving-atom tail stays under 1% of the full mass"
        ),
    )


def verify_b0_divergence(
    current: Current,
    cfg: VerifyConfig = DEFAULT_VERIFY,
    case_id: str = "b0-divergence",
) -> VerificationReport:
    """Linear boundary growth forces nu to diverge like -log r."""
    _check_divergence(current)
    est = lelong_estimate(current, r_start=R_START, ratio=RATIO, steps=STEPS, cfg=cfg.quad)
    return _judge_divergence(current, est, cfg, case_id)


def _check_divergence(current: Current) -> None:
    if current.lam.is_negative:
        raise InputError("divergence verifier needs a positive eigenvalue")
    has_growth = any(
        (atom.spec.b0 if isinstance(atom.spec, FourierSpec) else atom.spec.c_lin) > 0.0
        for atom in current.atoms
    )
    if not has_growth:
        raise InputError("divergence verifier needs an atom with b0 > 0 or c_lin > 0")


def _judge_divergence(current: Current, est, cfg: VerifyConfig, case_id: str) -> VerificationReport:
    r2_floor = 1.0 - 0.01 * cfg.tol_scale
    slope_ok = est.slope > 0.0
    fit_ok = est.r_squared > r2_floor
    growth_ok = est.nus[-1] > 2.0 * est.nus[0]
    return VerificationReport(
        case_id=case_id,
        lam=current.lam.value,
        claim="Divergence",
        observed=(est.slope, est.r_squared, est.nus[-1] / max(est.nus[0], 1e-300)),
        verdict=bool(slope_ok and fit_ok and growth_ok),
        details=f"pass iff fitted slope > 0, R^2 > {r2_floor:g}, and nu grows by 2x over the schedule",
    )


# ---------------------------------------------------------------------------
# lemma lattices: each lemma function returns the arguments of check_bounds


def check_bounds(values, lower=-math.inf, upper=math.inf, skipped=0):
    """(violations, checked, skipped, min_margin) of values against strict bounds.

    A value passes only if lower < value < upper, so a value equal to a bound
    is a violation. Its margin is the distance to the nearer bound, and
    min_margin is the smallest over the lattice.
    """
    values = np.asarray(values, dtype=float)
    inside = (lower < values) & (values < upper)
    # rounding is monotone, so a scalar bound's smallest gap is the one to the
    # nearest value, with no array of gaps
    low = np.min(values - lower) if np.ndim(lower) else np.min(values) - lower
    high = np.min(upper - values) if np.ndim(upper) else upper - np.max(values)
    min_margin = min(float(low), float(high))
    return values.size - int(np.count_nonzero(inside)), values.size, skipped, min_margin


def _poisson_ratios():
    # both decay ratios on the (v, d) lattice of each lambda, v >= 1/lambda
    ratios = []
    d = np.linspace(0.0, 100.0, 51)
    for lv in (0.3, 0.7, 1.0):
        vv, dd = np.meshgrid(1.0 / lv + np.linspace(0.0, 20.0, 41), d, indexing="ij")
        bump = vv / (vv**2 + dd**2)
        ratios += [1.0 - 1.0 / (2.0 * vv) + bump, 1.0 - 1.0 / (2.0 * lv * vv) + bump / lv]
    return np.concatenate(ratios, axis=None), 0.5, 2.0


# the (t, r) lattice of the strip and region lemmas; the region lemmas compute
# with the numpy scalars of _LATTICE_R, the strip lemmas with floats
_LATTICE_T = tuple(np.linspace(0.1, 0.9, 9).tolist())
_LATTICE_R = np.linspace(0.05, 0.95, 10)
_LATTICE_R.setflags(write=False)
# (lambda, |alpha| = t r^(1 - lambda), r) for the strip integrals
_STRIP_LATTICE = tuple(
    (lv, t * r ** (1.0 - lv), r)
    for lv in (-1.0, -0.5, -0.25)
    for t in _LATTICE_T
    for r in _LATTICE_R.tolist()
)


def _strip_a_bound():
    values = [ia(lv, am, r) for lv, am, r in _STRIP_LATTICE]
    caps = [ia(lv, am, 1.0) for lv, am, _ in _STRIP_LATTICE]
    return values, 0.0, caps


def _strip_b_bound():
    # the amplified bound holds for r below exp(1 / (2 lambda (1 - lambda)))
    points = [
        (lv, am, r)
        for lv, am, r in _STRIP_LATTICE
        if r < math.exp(1.0 / (2.0 * lv * (1.0 - lv)))
    ]
    values = [ib(lv, am, r) for lv, am, r in points]
    bounds = [math.exp(-1.0 / (lv * (1.0 - lv))) * ib(lv, am, 1.0) for lv, am, _ in points]
    return values, -math.inf, bounds, len(_STRIP_LATTICE) - len(points)


def _interval_kernel():
    # the kernel's gap over its floor at every (window, u, y), the windows of
    # each k in turn. It is worked out in place: on this 101475-point lattice a
    # fresh array per step costs about as much again as the arithmetic.
    us = np.linspace(0.0, TWO_PI, 27)[1:-1]
    ks, ns = (2, 3, 5), range(-20, 21)
    lo, hi = np.array([interval_window(n, k) for k in ks for n in ns]).T
    ys = np.linspace(lo, hi, 33, endpoint=False, axis=1)
    width = np.repeat(TWO_PI * np.array(ks), len(ns))[:, None, None]
    gap = us[None, :, None] - ys[:, None, :]
    np.square(gap, out=gap)
    gap += width**2
    np.divide(width, gap, out=gap)
    gap -= np.array([kernel_weight(n) for n in ns] * len(ks))[:, None, None] / width
    return gap, 0.0


def _region_bracket(scales: Sequence[float], inner: bool):
    # _bracket_a at |alpha| = s r^(1 - lambda): inside (1, 1 + lambda) in the
    # inner region (s < 1), inside (lambda, 1 + lambda) in the outer (s > 1)
    lams = (0.3, 0.7, 1.0)
    values = [
        _bracket_a(lv, s * r ** (1.0 - lv), r) for lv in lams for s in scales for r in _LATTICE_R
    ]
    lv = np.repeat(lams, len(values) // len(lams))
    return values, 1.0 if inner else lv, 1.0 + lv


LEMMAS = {
    "lemma-poisson-ratio": (
        _poisson_ratios,
        "both decay ratios must lie strictly inside (1/2, 2) on the v >= 1/lambda lattice",
    ),
    "lemma-strip-a-bound": (
        _strip_a_bound,
        "0 < Ia(r) < Ia(1) across the (lambda, t, r) lattice",
    ),
    "lemma-strip-b-bound": (
        _strip_b_bound,
        "Ib(r) below the amplified Ib(1) on its admissible r-range; out-of-range probes skipped",
    ),
    "lemma-interval-kernel": (
        _interval_kernel,
        "window kernel stays above the symmetric weight 1/(1+(|N|+1)^2) per window length",
    ),
    "lemma-region-inner": (
        functools.partial(_region_bracket, _LATTICE_T, inner=True),
        "inner-region constant bracket strictly between 1 and 1 + lambda",
    ),
    "lemma-region-outer": (
        functools.partial(_region_bracket, (1.05, 1.5, 2.0, 4.0, 8.0), inner=False),
        "outer-region constant bracket strictly between lambda and 1 + lambda",
    ),
}
LEMMA_CASE_IDS = tuple(LEMMAS)


def _lemma_report(case_id: str) -> VerificationReport:
    lattice, details = LEMMAS[case_id]
    violations, checked, skipped, min_margin = check_bounds(*lattice())
    return VerificationReport(
        case_id=case_id,
        lam=0.0,
        claim="LemmaBound",
        observed=(float(violations), float(checked), float(skipped), float(min_margin)),
        verdict=violations == 0,
        details=details,
    )


def verify_lemma_bounds() -> List[VerificationReport]:
    """Every lemma of LEMMAS checked on its lattice, in report order."""
    return [_lemma_report(case_id) for case_id in LEMMAS]


# ---------------------------------------------------------------------------
# corpus


def _jittered_modes(rng, ks: Sequence[int], budget: float) -> Tuple[Tuple[int, float, float], ...]:
    raw = rng.uniform(0.2, 1.0, size=(len(ks), 2)) * rng.choice([-1.0, 1.0], size=(len(ks), 2))
    l1 = float(np.sum(np.abs(raw)))
    scale = budget / l1
    return tuple(
        (k, float(raw[i, 0]) * scale, float(raw[i, 1]) * scale) for i, k in enumerate(ks)
    )


def _fourier_atom(alpha: complex, weight: float, b: int, modes, b0: float = 0.0) -> TransversalAtom:
    return TransversalAtom(
        alpha=alpha,
        weight=weight,
        spec=normalize(FourierSpec(b=b, a0=1.0, b0=b0, modes=modes)),
    )


def _flat_poisson(c_lin: float = 0.0) -> PoissonSpec:
    # grid step pi/24 divides 2 pi, so deck translations realign exactly
    n = 769
    ys = np.linspace(-16.0 * math.pi, 16.0 * math.pi, n)
    return PoissonSpec(ys=ys, values=np.ones(n), tail=1.0, c_lin=c_lin)


def _corpus_batch(seed: int) -> Tuple[List[CorpusCase], AtomTable]:
    """The corpus's cases and the one AtomTable of all their currents, from one build_currents call."""
    rng = np.random.default_rng(seed)
    entries = []

    def add(case_id: str, kind: str, lam: Eigenvalue, atoms):
        entries.append((case_id, kind, lam, atoms))

    lam1 = Eigenvalue.rational(1, 1)
    lam12 = Eigenvalue.rational(1, 2)
    lam23 = Eigenvalue.rational(2, 3)
    silver = Eigenvalue.irrational(math.sqrt(2.0) - 1.0)
    invpi = Eigenvalue.irrational(1.0 / math.pi)
    neg1 = Eigenvalue.negative(-1.0)
    neg12 = Eigenvalue.negative(-0.5)
    neg14 = Eigenvalue.negative(-0.25)

    # positive eigenvalue, trig series
    add("pos-unit-inner-const", "positive", lam1,
        [TransversalAtom(0.5, 1.0, FourierSpec(b=1, a0=1.0))])
    add("pos-unit-inner-modes", "positive", lam1,
        [_fourier_atom(0.5 * complex(math.cos(0.4), math.sin(0.4)), 1.0, 1,
                       _jittered_modes(rng, (-1, -2), 0.5))])
    add("pos-half-outer-atom", "positive", lam12,
        [_fourier_atom(1.2, 0.8, 1, _jittered_modes(rng, (-1,), 0.4))])
    add("pos-half-orbit-family", "positive", lam12,
        monodromy_family(lam12, complex(math.cos(0.2), math.sin(0.2)), 0.7,
                         normalize(FourierSpec(b=2, a0=1.0, modes=_jittered_modes(rng, (-1, -3), 0.35)))))
    add("pos-twothirds-orbit-family", "positive", lam23,
        monodromy_family(lam23, 1.5, 0.6,
                         normalize(FourierSpec(b=3, a0=1.0, modes=_jittered_modes(rng, (-1, -2), 0.3)))))
    add("pos-silver-fourier", "positive", silver,
        [_fourier_atom(complex(math.cos(1.1), math.sin(1.1)), 1.0, 1,
                       _jittered_modes(rng, (-1, -2), 0.5))])
    add("pos-invpi-fourier", "positive", invpi,
        [_fourier_atom(2.0, 0.9, 1, _jittered_modes(rng, (-1,), 0.45))])

    # positive eigenvalue, Poisson data (flat boundary: deck-exact windows)
    add("pos-silver-poisson-flat", "positive", silver,
        [TransversalAtom(1.3, 1.0, _flat_poisson())])

    # negative eigenvalue strips
    add("neg-unit-single-strip", "negative", neg1,
        [TransversalAtom(math.exp(-1.0), 1.0, FourierSpec(b=1, a0=1.0, strip_c=1.0))])
    add("neg-unit-geometric-family", "negative", neg1,
        accumulation_family(neg1, 8))
    add("neg-unit-family-linear-part", "negative", neg1,
        accumulation_family(neg1, 8, b0=0.4))
    add("neg-half-geometric-family", "negative", neg12,
        accumulation_family(neg12, 6))
    add("neg-quarter-family-modes", "negative", neg14,
        accumulation_family(neg14, 5, alpha_base=0.3, b0=0.3,
                            modes=((-1, 0.05, 0.03),)))
    add("neg-half-family-mixed", "negative", neg12,
        accumulation_family(neg12, 6, alpha_base=1.0 / 3.0, b0=0.25))

    # forced divergence
    add("div-unit-linear-part", "divergence", lam1,
        [TransversalAtom(0.5, 1.0, FourierSpec(b=1, a0=1.0, b0=0.8))])
    add("div-half-poisson-linear", "divergence", lam12,
        [TransversalAtom(1.1, 1.0, _flat_poisson(c_lin=0.6))])

    currents, table = build_currents([(lam, atoms) for _, _, lam, atoms in entries])
    return [CorpusCase(case_id, kind, current) for (case_id, kind, _, _), current in zip(entries, currents)], table


def corpus(seed: int = 42) -> List[CorpusCase]:
    """The standard 16-case corpus; the seed only jitters mode coefficients."""
    return _corpus_batch(seed)[0]


# the ten dual-route fixtures of the closed-form/quadrature acceptance gate
DUAL_ROUTE_CASE_IDS = (
    "pos-unit-inner-const",
    "pos-unit-inner-modes",
    "pos-half-outer-atom",
    "pos-half-orbit-family",
    "pos-twothirds-orbit-family",
    "neg-unit-single-strip",
    "neg-unit-geometric-family",
    "neg-unit-family-linear-part",
    "neg-half-geometric-family",
    "neg-half-family-mixed",
)


def run_corpus(
    seed: int = 42,
    cfg: VerifyConfig = DEFAULT_VERIFY,
    only: Optional[str] = None,
) -> List[VerificationReport]:
    """Run every applicable verifier over the corpus, reports in corpus order.

    `only` filters to a single case id (theorem case or lemma lattice). The
    schedules are batched as the module docstring says; a lone trig case
    gets its own exact-route call.
    """
    cases, table = _corpus_batch(seed)
    known = [c.case_id for c in cases] + list(LEMMAS)
    if only is not None and only not in known:
        raise InputError(f"unknown case id {only!r}; known: {', '.join(known)}")
    picked = [case for case in cases if only in (None, case.case_id)]
    rs = lelong_radii(R_START, RATIO, PERIODIC_STEPS)
    if only is None:
        masses = _exact_masses(table, rs)
    else:  # a lone case: its own table, and the exact route only for trig data
        masses = [_exact_masses(c.current.table, rs)[0] if closed_form_applicable(c.current) else None
                  for c in picked]
    checks = {"positive": _check_positive, "negative": _check_negative, "divergence": _check_divergence}
    reports: List[VerificationReport] = []
    for case, exact in zip(picked, masses):
        current = case.current
        checks[case.kind](current)
        if exact is None:  # Poisson data
            est = lelong_estimate(current, r_start=R_START, ratio=RATIO, steps=STEPS, cfg=cfg.quad)
        else:
            steps = PERIODIC_STEPS if case.kind == "positive" else STEPS
            est = lelong_from_masses(rs[:steps], exact[:steps])
        if case.kind == "positive":
            reports.append(_judge_positive(current, est, cfg, case.case_id))
        elif case.kind == "negative":
            # rs[0] = R_START = 1, so exact[0] holds the mass at r = 1
            reports.append(_judge_negative(current, est, exact[0][0], cfg, case.case_id))
        else:
            reports.append(_judge_divergence(current, est, cfg, case.case_id))
    if only is None:
        reports.extend(verify_lemma_bounds())
    elif only in LEMMAS:
        reports.append(_lemma_report(only))
    return reports


def report_to_json(report: VerificationReport) -> dict:
    return {
        "case_id": report.case_id,
        "lambda": report.lam,
        "claim": report.claim,
        "observed": list(report.observed),
        "verdict": "pass" if report.verdict else "fail",
        "details": report.details,
    }
