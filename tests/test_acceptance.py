"""End-to-end acceptance gate: ten criteria, one visible line each.

Every criterion re-derives its expectation from an independent route
(closed form vs quadrature, scipy vs own quadrature, coarse Riemann sums)
rather than trusting the code under test twice.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from lelonglab import (
    FourierSpec,
    PoissonSpec,
    ia,
    ib,
    jacobian_density,
    lelong_estimate,
    mass_closed_form,
    mass_quadrature,
    normalize,
    total_weight,
    translate,
    verify_lemma_bounds,
    verify_monodromy_relation,
    verify_negative_periodic,
    verify_positive_lambda,
)
from lelonglab.theorems import DUAL_ROUTE_CASE_IDS, corpus


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


@pytest.fixture(scope="module")
def cases():
    return {c.case_id: c for c in corpus()}


def test_01_dual_route_mass_agreement(cases, announce):
    start = time.perf_counter()
    worst = 0.0
    for cid in DUAL_ROUTE_CASE_IDS:
        current = cases[cid].current
        for r in (1.0, 0.5, 0.1):
            closed = mass_closed_form(current, r)
            numeric = mass_quadrature(current, r)
            worst = max(worst, _rel(closed, numeric.value))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 60.0
    announce(
        1, "dual-route mass agreement", ok,
        f"max rel diff {worst:.3e} over 10 fixtures x 3 radii (tol 1e-5), {elapsed:.2f}s",
    )
    assert ok


def test_02_unit_eigenvalue_exact_value(flagship, announce):
    closed = mass_closed_form(flagship, 1.0)
    numeric = mass_quadrature(flagship, 1.0)
    want = 2.5 * math.pi

    # independent coarse route: 10^6-point midpoint Riemann sum of the
    # constant-density leafwise integral over (u, v) in [0, 2pi) x (0, 20]
    nu, nv = 100, 10_000
    v_edges = np.linspace(0.0, 20.0, nv + 1)
    v_mid = 0.5 * (v_edges[:-1] + v_edges[1:])
    dv = v_edges[1] - v_edges[0]
    du = 2.0 * math.pi / nu
    fiber = jacobian_density(flagship.lam, 0.5, v_mid)
    riemann = float(nu * du * np.sum(fiber) * dv)

    errs = (
        _rel(closed, want),
        _rel(numeric.value, want),
        _rel(riemann, want),
    )
    est = lelong_estimate(flagship, steps=12)
    nu_err = max(abs(x - 2.5) / 2.5 for x in est.nus)
    ok = errs[0] <= 1e-5 and errs[1] <= 1e-5 and errs[2] <= 1e-4 and nu_err <= 1e-5
    announce(
        2, "unit-eigenvalue exact value", ok,
        f"mass 2.5pi rel errs closed/quad/riemann {errs[0]:.1e}/{errs[1]:.1e}/{errs[2]:.1e}, "
        f"nu const within {nu_err:.1e}",
    )
    assert ok


def test_03_skoda_monotonicity(cases, announce):
    def growth_free(current):
        return all(
            (a.spec.b0 if isinstance(a.spec, FourierSpec) else a.spec.c_lin) == 0.0
            for a in current.atoms
        )

    checked, worst = 0, -math.inf
    for case in cases.values():
        if not growth_free(case.current):
            continue
        est = lelong_estimate(case.current, steps=12)
        for i in range(len(est.nus) - 1):
            # nu may not rise as r shrinks, beyond combined error bars
            slack = est.errs[i] + est.errs[i + 1] + 1e-12 * max(1.0, abs(est.nus[i]))
            worst = max(worst, est.nus[i + 1] - est.nus[i] - slack)
        checked += 1
    ok = checked >= 11 and worst <= 0.0
    announce(
        3, "Skoda monotonicity", ok,
        f"{checked} growth-free currents, worst increase-minus-slack {worst:.3e}",
    )
    assert ok


def test_04_positive_lelong(cases, announce):
    reports = [
        verify_positive_lambda(c.current, case_id=cid)
        for cid, c in cases.items()
        if c.kind == "positive"
    ]
    all_pass = all(r.verdict for r in reports)
    lower_positive = all(r.observed[1] > 0.0 for r in reports)

    # the flat-Poisson fixture is periodic too: its boundary is the constant
    # density, so the closed-form limit 2 lambda sum(w) must hold at 1e-4
    flat = cases["pos-silver-poisson-flat"].current
    est = lelong_estimate(flat, steps=12)
    reference = 2.0 * flat.lam.value * total_weight(flat)
    flat_err = _rel(est.limit_estimate, reference)

    ok = all_pass and lower_positive and len(reports) == 8 and flat_err <= 1e-4
    announce(
        4, "positive Lelong limit", ok,
        f"{len(reports)} verdicts pass, brackets > 0, flat-Poisson limit rel err {flat_err:.1e}",
    )
    assert ok


def test_05_zero_lelong(cases, neg_single, announce):
    family_ids = [
        cid for cid, c in cases.items() if c.kind == "negative" and len(c.current.atoms) > 1
    ]
    decays = {}
    for cid in family_ids:
        est = lelong_estimate(cases[cid].current, steps=12)
        decays[cid] = est.nus[-1] / est.nus[0]
    families_ok = all(v < 0.05 for v in decays.values())

    # single strip: identically zero once r <= |alpha|^{1/(1-lambda)}
    r_cut = math.exp(-0.5)
    exact0 = mass_quadrature(neg_single, 0.99 * r_cut).value
    exact0_closed = mass_closed_form(neg_single, 0.99 * r_cut)
    single_ok = exact0 == 0.0 and exact0_closed == 0.0
    rep = verify_negative_periodic(neg_single, case_id="single")

    ok = families_ok and single_ok and rep.verdict and len(family_ids) == 5
    announce(
        5, "zero Lelong limit", ok,
        f"family decay ratios max {max(decays.values()):.2e} (< 0.05), "
        f"single strip exactly 0 below r = {r_cut:.3f}",
    )
    assert ok


def test_06_divergence_detector(cases, announce):
    results = {}
    for cid, c in cases.items():
        if c.kind != "divergence":
            continue
        est = lelong_estimate(c.current, steps=12)
        results[cid] = (est.slope, est.r_squared, est.diverging)
    ok = len(results) == 2 and all(
        slope > 0.0 and r2 > 0.99 and flagged for slope, r2, flagged in results.values()
    )
    announce(
        6, "divergence detector", ok,
        "; ".join(f"{cid}: slope {s:.4f}, R^2 {r2:.6f}" for cid, (s, r2, _) in results.items()),
    )
    assert ok


def test_07_lemma_lattices(announce):
    start = time.perf_counter()
    reports = verify_lemma_bounds()
    elapsed = time.perf_counter() - start
    violations = sum(int(r.observed[0]) for r in reports)
    ok = len(reports) == 6 and all(r.verdict for r in reports) and violations == 0 and elapsed < 10.0
    announce(
        7, "lemma lattices", ok,
        f"{len(reports)} lattices, {violations} violations, {elapsed:.2f}s",
    )
    assert ok


def test_08_strip_integrals_vs_quadrature(announce):
    worst = 0.0
    for lv in (-1.0, -0.5, -0.25):
        for t in (0.2, 0.5, 0.8):
            for r in (0.3, 0.6, 0.9):
                am = t * r ** (1.0 - lv)
                log_am = math.log(am)
                v_lo, v_hi = -math.log(r), (log_am - math.log(r)) / lv

                def jac(v):
                    return 2.0 * (
                        math.exp(-2.0 * v) + (lv * am) ** 2 * math.exp(-2.0 * lv * v)
                    )

                ref_a, _ = quad(lambda v: (1.0 - lv * v / log_am) * jac(v), v_lo, v_hi, epsabs=1e-13)
                ref_b, _ = quad(lambda v: v * jac(v), v_lo, v_hi, epsabs=1e-13)
                worst = max(worst, abs(ia(lv, am, r) - ref_a / r**2))
                worst = max(worst, abs(ib(lv, am, r) - ref_b / r**2))
    ok = worst <= 1e-10
    announce(
        8, "strip integrals vs scipy", ok,
        f"max abs discrepancy {worst:.3e} on the 27-point lattice (tol 1e-10)",
    )
    assert ok


def test_09_window_independence(cases, announce):
    worst_excess = -math.inf
    for case in cases.values():
        m0 = mass_quadrature(case.current, 1.0, k0=0)
        m5 = mass_quadrature(case.current, 1.0, k0=5)
        budget = 2.0 * (m0.error_estimate + m5.error_estimate) + 1e-15
        worst_excess = max(worst_excess, abs(m0.value - m5.value) - budget)
    ok = worst_excess <= 0.0
    announce(
        9, "window independence", ok,
        f"16 currents at k0 0 vs 5, worst |diff|-minus-budget {worst_excess:.3e}",
    )
    assert ok


def test_10_monodromy_relation(announce):
    # the deck turn k = 1 of an eigenvalue with period 2, such as lambda = 1/2
    mother = normalize(FourierSpec(b=2, a0=1.0, modes=((-1, 0.2, 0.1), (-3, 0.05, 0.0))))
    moved, _c = translate(mother, 1)
    fourier_ok = verify_monodromy_relation(mother, moved, 1)

    n = 1153
    ys = np.linspace(-24.0 * math.pi, 24.0 * math.pi, n)
    values = 0.3 + np.exp(-(ys**2) / 8.0)
    bump = normalize(PoissonSpec(ys=ys, values=values, tail=0.3))
    moved_bump, _c2 = translate(bump, 1)
    poisson_ok = verify_monodromy_relation(bump, moved_bump, 1)

    # a tampered pair must be rejected, or the check certifies nothing
    tampered = FourierSpec(
        b=2, a0=mother.a0,
        modes=tuple((k, 1.01 * ak, bk) for k, ak, bk in mother.modes),
    )
    rejected = not verify_monodromy_relation(mother, tampered, 1)

    ok = fourier_ok and poisson_ok and rejected
    announce(
        10, "monodromy relation", ok,
        f"fourier {fourier_ok}, poisson {poisson_ok}, tampered rejected {rejected}",
    )
    assert ok
