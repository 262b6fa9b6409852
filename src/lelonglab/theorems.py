"""Orchestrated verification of the headline claims over a fixed corpus.

Three current-level verifiers (positive limit, vanishing limit, forced
divergence) plus six direct lattice checks of the quantitative lemmas the
proofs lean on. Every verdict is recomputable from the observed numbers and
the tolerance spelled out in the report details; the corpus is generated
deterministically from a seed that only jitters benign mode coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .current import (
    Current,
    TransversalAtom,
    accumulation_family,
    build_current,
    is_periodic,
    monodromy_family,
)
from .errors import InputError
from .foliation import Eigenvalue
from .harmonic import FourierSpec, PoissonSpec, normalize
from .mass import (
    closed_form_applicable,
    ia,
    ib,
    kernel_weight,
    interval_window,
    lelong_estimate,
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


@dataclass(frozen=True)
class VerifyConfig:
    quad: QuadratureConfig = DEFAULT_CONFIG
    r_start: float = 1.0
    ratio: float = 0.5
    steps: int = 12
    # closed-form schedules are cheap, so the periodic limit check runs
    # deeper; 16 halvings put the slowest corpus decay safely inside 1e-4
    periodic_steps: int = 16
    interval_k: int = 2
    interval_n_max: int = 20
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
# theorem verifiers


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
    if current.lam.is_negative:
        raise InputError("positive-limit verifier needs a positive eigenvalue")
    for atom in current.atoms:
        growing = atom.spec.b0 if isinstance(atom.spec, FourierSpec) else atom.spec.c_lin
        if growing > 0.0:
            raise InputError("positive-limit verifier needs b0 = 0 and c_lin = 0 atoms")
    all_fourier = closed_form_applicable(current)
    steps = max(cfg.steps, cfg.periodic_steps) if all_fourier else cfg.steps
    est = lelong_estimate(current, r_start=cfg.r_start, ratio=cfg.ratio, steps=steps, cfg=cfg.quad)
    if all_fourier:
        reference = nu_limit_positive_periodic(current)
        tol = 1e-4 * cfg.tol_scale
        agrees = abs(est.limit_estimate - reference) <= tol * max(abs(reference), 1e-30)
        details = (
            f"pass iff bracket lower > 0 and |limit - {reference:.12g}| <= {tol:.3g} rel "
            f"(closed-form schedule, {steps} halvings)"
        )
    else:
        reference = lower_bound_nonperiodic(current, k=cfg.interval_k, n_max=cfg.interval_n_max)
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
    if not current.lam.is_negative:
        raise InputError("vanishing-limit verifier needs a negative eigenvalue")
    if is_periodic(current) is None:
        raise InputError("vanishing-limit verifier needs a periodic current")
    est = lelong_estimate(
        current,
        r_start=cfg.r_start,
        ratio=cfg.ratio,
        steps=cfg.steps,
        cfg=cfg.quad,
    )
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
        mass_ref = mass_closed_form(current, 1.0)
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
    if current.lam.is_negative:
        raise InputError("divergence verifier needs a positive eigenvalue")
    has_growth = any(
        (atom.spec.b0 if isinstance(atom.spec, FourierSpec) else atom.spec.c_lin) > 0.0
        for atom in current.atoms
    )
    if not has_growth:
        raise InputError("divergence verifier needs an atom with b0 > 0 or c_lin > 0")
    est = lelong_estimate(
        current,
        r_start=cfg.r_start,
        ratio=cfg.ratio,
        steps=cfg.steps,
        cfg=cfg.quad,
    )
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
# lemma lattices


def _lattice_report(case_id: str, checked: int, skipped: int, violations: int, min_margin: float, details: str) -> VerificationReport:
    return VerificationReport(
        case_id=case_id,
        lam=0.0,
        claim="LemmaBound",
        observed=(float(violations), float(checked), float(skipped), float(min_margin)),
        verdict=violations == 0,
        details=details,
    )


def _check_poisson_ratios() -> VerificationReport:
    lams = (0.3, 0.7, 1.0)
    checked = violations = 0
    min_margin = math.inf
    for lv in lams:
        v = 1.0 / lv + np.linspace(0.0, 20.0, 41)
        d = np.linspace(0.0, 100.0, 51)
        vv, dd = np.meshgrid(v, d, indexing="ij")
        bump = vv / (vv**2 + dd**2)
        r1 = 1.0 - 1.0 / (2.0 * vv) + bump
        r2 = 1.0 - 1.0 / (2.0 * lv * vv) + bump / lv
        for ratio in (r1, r2):
            margin = float(min(np.min(ratio - 0.5), np.min(2.0 - ratio)))
            min_margin = min(min_margin, margin)
            checked += ratio.size
            violations += int(np.sum((ratio <= 0.5) | (ratio >= 2.0)))
    return _lattice_report(
        "lemma-poisson-ratio",
        checked,
        0,
        violations,
        min_margin,
        "both decay ratios must lie strictly inside (1/2, 2) on the v >= 1/lambda lattice",
    )


# the (t, r) lattice of the strip and region lemmas, built once; the region
# checks compute with its numpy scalars, the strip checks with floats
_LATTICE_T = np.linspace(0.1, 0.9, 9)
_LATTICE_R = np.linspace(0.05, 0.95, 10)
_LATTICE_T.setflags(write=False)
_LATTICE_R.setflags(write=False)


def _strip_lattice():
    for lv in (-1.0, -0.5, -0.25):
        for t in _LATTICE_T.tolist():
            for r in _LATTICE_R.tolist():
                yield lv, t, r


def _check_ia_bound() -> VerificationReport:
    checked = violations = 0
    min_margin = math.inf
    for lv, t, r in _strip_lattice():
        am = t * r ** (1.0 - lv)
        value = ia(lv, am, r)
        cap = ia(lv, am, 1.0)
        margin = min(value, cap - value)
        min_margin = min(min_margin, margin)
        checked += 1
        if not (0.0 < value < cap):
            violations += 1
    return _lattice_report(
        "lemma-strip-a-bound",
        checked,
        0,
        violations,
        min_margin,
        "0 < Ia(r) < Ia(1) across the (lambda, t, r) lattice",
    )


def _check_ib_bound() -> VerificationReport:
    checked = skipped = violations = 0
    min_margin = math.inf
    for lv, t, r in _strip_lattice():
        r_cap = math.exp(1.0 / (2.0 * lv * (1.0 - lv)))
        if r >= r_cap:
            skipped += 1
            continue
        am = t * r ** (1.0 - lv)
        value = ib(lv, am, r)
        bound = math.exp(-1.0 / (lv * (1.0 - lv))) * ib(lv, am, 1.0)
        margin = bound - value
        min_margin = min(min_margin, margin)
        checked += 1
        if not value < bound:
            violations += 1
    return _lattice_report(
        "lemma-strip-b-bound",
        checked,
        skipped,
        violations,
        min_margin,
        "Ib(r) below the amplified Ib(1) on its admissible r-range; out-of-range probes skipped",
    )


def _check_interval_kernel() -> VerificationReport:
    checked = violations = 0
    min_margin = math.inf
    us = np.linspace(0.0, TWO_PI, 27)[1:-1]
    for k in (2, 3, 5):
        # every window of this k at once: (window, u, y) kernel values
        width = TWO_PI * k
        ns = range(-20, 21)
        lo, hi = np.array([interval_window(n, k) for n in ns]).T
        ys = np.linspace(lo, hi, 33, endpoint=False, axis=1)
        kern = width / (width**2 + (us[None, :, None] - ys[:, None, :]) ** 2)
        floor = np.array([kernel_weight(n) for n in ns])[:, None, None] / width
        min_margin = min(min_margin, float(np.min(kern - floor)))
        checked += kern.size
        violations += int(np.sum(kern < floor))
    return _lattice_report(
        "lemma-interval-kernel",
        checked,
        0,
        violations,
        min_margin,
        "window kernel stays above the symmetric weight 1/(1+(|N|+1)^2) per window length",
    )


def _check_region_inner() -> VerificationReport:
    checked = violations = 0
    min_margin = math.inf
    for lv in (0.3, 0.7, 1.0):
        for t in _LATTICE_T:
            for r in _LATTICE_R:
                am = float(t) * r ** (1.0 - lv)
                value = 1.0 + lv * am**2 * r ** (2.0 * lv - 2.0)
                margin = min(value - 1.0, 1.0 + lv - value)
                min_margin = min(min_margin, margin)
                checked += 1
                if not (1.0 < value < 1.0 + lv):
                    violations += 1
    return _lattice_report(
        "lemma-region-inner",
        checked,
        0,
        violations,
        min_margin,
        "inner-region constant bracket strictly between 1 and 1 + lambda",
    )


def _check_region_outer() -> VerificationReport:
    checked = violations = 0
    min_margin = math.inf
    for lv in (0.3, 0.7, 1.0):
        for s in (1.05, 1.5, 2.0, 4.0, 8.0):
            for r in _LATTICE_R:
                am = s * r ** (1.0 - lv)
                value = am ** (-2.0 / lv) * r ** (2.0 / lv - 2.0) + lv
                margin = min(value - lv, 1.0 + lv - value)
                min_margin = min(min_margin, margin)
                checked += 1
                if not (lv < value < 1.0 + lv):
                    violations += 1
    return _lattice_report(
        "lemma-region-outer",
        checked,
        0,
        violations,
        min_margin,
        "outer-region constant bracket strictly between lambda and 1 + lambda",
    )


LEMMA_CASE_IDS = (
    "lemma-poisson-ratio",
    "lemma-strip-a-bound",
    "lemma-strip-b-bound",
    "lemma-interval-kernel",
    "lemma-region-inner",
    "lemma-region-outer",
)


def verify_lemma_bounds() -> List[VerificationReport]:
    """Direct evaluation of the quantitative lemma bounds on fixed lattices."""
    return [
        _check_poisson_ratios(),
        _check_ia_bound(),
        _check_ib_bound(),
        _check_interval_kernel(),
        _check_region_inner(),
        _check_region_outer(),
    ]


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


def corpus(seed: int = 42) -> List[CorpusCase]:
    """The standard 16-case corpus; the seed only jitters mode coefficients."""
    rng = np.random.default_rng(seed)
    cases: List[CorpusCase] = []

    def add(case_id: str, kind: str, lam: Eigenvalue, atoms):
        cases.append(CorpusCase(case_id, kind, build_current(lam, atoms)))

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

    return cases


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

    `only` filters to a single case id (theorem case or lemma lattice).
    """
    cases = corpus(seed)
    known = [c.case_id for c in cases] + list(LEMMA_CASE_IDS)
    if only is not None and only not in known:
        raise InputError(f"unknown case id {only!r}; known: {', '.join(known)}")
    reports: List[VerificationReport] = []
    for case in cases:
        if only is not None and case.case_id != only:
            continue
        if case.kind == "positive":
            reports.append(verify_positive_lambda(case.current, cfg, case.case_id))
        elif case.kind == "negative":
            reports.append(verify_negative_periodic(case.current, cfg, case.case_id))
        else:
            reports.append(verify_b0_divergence(case.current, cfg, case.case_id))
    if only is None:
        reports.extend(verify_lemma_bounds())
    elif only in LEMMA_CASE_IDS:
        reports.extend(rep for rep in verify_lemma_bounds() if rep.case_id == only)
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
