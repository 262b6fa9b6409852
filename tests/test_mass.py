import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lelonglab import (
    DomainError,
    Eigenvalue,
    FourierSpec,
    InputError,
    PoissonSpec,
    QuadratureFailure,
    TransversalAtom,
    UnsupportedCurrentError,
    accumulation_family,
    boundary_integral,
    boundary_reduction_check,
    build_current,
    closed_form_applicable,
    ia,
    ib,
    interval_window,
    kernel_weight,
    lelong_estimate,
    lelong_to_json,
    lower_bound_nonperiodic,
    mass_closed_form,
    mass_quadrature,
    mass_quadrature_schedule,
    monodromy_family,
    normalize,
    nu_limit_positive_periodic,
    total_weight,
)

import lelonglab.mass
from lelonglab import harmonic
from lelonglab.mass import _bracket_a, _bracket_b, _exact_masses, _exact_schedule, _moments
from lelonglab.quadrature import DEFAULT_CONFIG, QuadratureConfig
from lelonglab.theorems import corpus

from conftest import flat_poisson


def single_atom_current(lam, alpha, spec, weight=1.0):
    return build_current(lam, [TransversalAtom(alpha, weight, spec)])


class TestMassQuadrature:
    def test_flagship_value(self, flagship):
        result = mass_quadrature(flagship, 1.0)
        assert result.value == pytest.approx(2.5 * math.pi, rel=1e-9)
        assert result.error_estimate < 1e-6
        assert result.r == 1.0

    def test_scales_with_r_squared_at_lambda_one(self, flagship):
        # at lambda = 1 the bracket is r-free, so mass is exactly quadratic
        m1 = mass_quadrature(flagship, 1.0).value
        m2 = mass_quadrature(flagship, 0.5).value
        assert m2 == pytest.approx(0.25 * m1, rel=1e-9)

    def test_empty_leaf_zero(self, neg_single):
        result = mass_quadrature(neg_single, 0.1)
        assert result.value == 0.0
        assert result.error_estimate == 0.0

    def test_radius_validation(self, flagship):
        with pytest.raises(DomainError):
            mass_quadrature(flagship, 0.0)
        with pytest.raises(DomainError):
            mass_quadrature(flagship, 1.5)

    def test_additive_over_atoms(self):
        lam = Eigenvalue.rational(1, 1)
        a = TransversalAtom(0.5, 0.7, FourierSpec(b=1, a0=1.0))
        b = TransversalAtom(1.5, 0.3, FourierSpec(b=1, a0=1.0))
        whole = mass_quadrature(build_current(lam, [a, b]), 0.8).value
        parts = (
            mass_quadrature(build_current(lam, [a]), 0.8).value
            + mass_quadrature(build_current(lam, [b]), 0.8).value
        )
        assert whole == pytest.approx(parts, rel=1e-12)

    @given(scale=st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=20, deadline=None)
    def test_linear_in_weight(self, scale):
        lam = Eigenvalue.rational(1, 2)
        base = mass_quadrature(
            single_atom_current(lam, 1.2, FourierSpec(b=1, a0=1.0), weight=1.0), 0.7
        ).value
        scaled = mass_quadrature(
            single_atom_current(lam, 1.2, FourierSpec(b=1, a0=1.0), weight=scale), 0.7
        ).value
        assert scaled == pytest.approx(scale * base, rel=1e-11)

    def test_k0_window_invariance(self, flagship):
        m0 = mass_quadrature(flagship, 1.0, k0=0)
        m5 = mass_quadrature(flagship, 1.0, k0=5)
        assert m0.value == pytest.approx(m5.value, abs=2.0 * (m0.error_estimate + m5.error_estimate) + 1e-13)


def _schedule_cases():
    by_id = {case.case_id: case.current for case in corpus(42)}
    half = Eigenvalue.rational(1, 2)
    neg_half = Eigenvalue.negative(-0.5)
    return {
        "poisson-flat": by_id["pos-silver-poisson-flat"],
        "poisson-linear": by_id["div-half-poisson-linear"],
        # a b = 2 mode does not cancel over one 2 pi window
        "trig-half-b2": single_atom_current(
            half, 1.2, normalize(FourierSpec(b=2, a0=1.0, modes=((-1, 0.3, 0.1),)))
        ),
        "strip-family": build_current(neg_half, accumulation_family(
            neg_half, 6, alpha_base=1.0 / 3.0, b0=0.25, modes=((-1, 0.03, 0.02),)
        )),
    }


SCHEDULE_CASES = _schedule_cases()
HALVINGS = tuple(0.5**n for n in range(12))


class _IntegrateSpy:
    """Wraps mass.integrate_lockstep: counts calls and integrand points, keeps every job's result."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.points = 0
        self.results = []  # one list of per-range (value, error) pairs per job
        real = lelonglab.mass.integrate_lockstep

        def spy(f, jobs, **kwargs):
            def counted(rows, v):
                self.points += np.size(v)
                return f(rows, v)

            self.calls += 1
            out = real(counted, jobs, **kwargs)
            self.results.extend(out)
            return out

        monkeypatch.setattr(lelonglab.mass, "integrate_lockstep", spy)


class TestScheduleQuadrature:
    @pytest.mark.parametrize("k0", [0, 1])
    @pytest.mark.parametrize("case", sorted(SCHEDULE_CASES))
    def test_agrees_with_one_radius_route(self, case, k0, monkeypatch):
        current = SCHEDULE_CASES[case]
        spy = _IntegrateSpy(monkeypatch)
        sched = mass_quadrature_schedule(current, HALVINGS, k0=k0)
        per_range = [part for job in spy.results for part in job]
        singles = [mass_quadrature(current, r, k0=k0) for r in HALVINGS]
        for s, m in zip(sched, singles):
            assert s.r == m.r
            assert abs(s.value - m.value) <= s.error_estimate + m.error_estimate
            if case == "trig-half-b2":
                # the b = 2 mode does not cancel, and the exact route still applies
                value, bound = _exact_schedule(current, [s.r], k0)[0]
                assert abs(s.value - value) <= s.error_estimate + bound
        assert any(m.value > 0.0 for m in singles)
        cfg = DEFAULT_CONFIG
        for value, err in per_range:
            value, err = np.atleast_1d(value)[0], np.atleast_1d(err)[0]
            assert err <= max(cfg.abs_tol, cfg.rel_tol * abs(value))

    def test_one_partition_per_atom(self, monkeypatch):
        current = SCHEDULE_CASES["strip-family"]
        spy = _IntegrateSpy(monkeypatch)
        mass_quadrature_schedule(current, HALVINGS)
        assert spy.calls == 1
        assert len(spy.results) == len(current.atoms)
        assert all(len(job) > 0 for job in spy.results)

    def test_mixed_current_matches_its_atoms(self):
        # trig and Poisson atoms in one lockstep call, each as if alone; the
        # trig rows ride in the two-row block here, whose sums may round
        # differently in the last bit
        lam = Eigenvalue.irrational(math.sqrt(2.0) - 1.0)
        trig = TransversalAtom(0.7, 0.4, normalize(FourierSpec(b=1, a0=1.0, modes=((-1, 0.2, 0.1),))))
        poisson = TransversalAtom(1.3, 0.6, flat_poisson())
        rs = (1.0, 0.5, 0.1)
        both = mass_quadrature_schedule(build_current(lam, [poisson, trig]), rs, k0=1)
        alone = [mass_quadrature_schedule(build_current(lam, [atom]), rs, k0=1) for atom in (poisson, trig)]
        for m, (p, t) in zip(both, zip(*alone)):
            assert m.value == pytest.approx(p.value + t.value, rel=1e-14)
            assert m.error_estimate == pytest.approx(p.error_estimate + t.error_estimate, rel=1e-6)

    def test_failure_names_atom_radius_and_interval(self):
        # the short strip of atom 0 converges on its seed panel; the long
        # strip of atom 1 needs more than one split
        lam = Eigenvalue.negative(-0.5)
        atoms = [
            TransversalAtom(0.9, 1.0, FourierSpec(b=1, a0=1.0, strip_c=math.log(0.9) / -0.5)),
            TransversalAtom(1e-4, 1.0, normalize(FourierSpec(
                b=1, a0=1.0, b0=0.2, modes=((-1, 0.03, 0.01),), strip_c=math.log(1e-4) / -0.5,
            ))),
        ]
        cfg = QuadratureConfig(max_depth=1)
        current = build_current(lam, atoms)
        with pytest.raises(QuadratureFailure) as exc_info:
            mass_quadrature_schedule(current, (1.0, 0.5), cfg=cfg)
        failure = exc_info.value
        message = str(failure)
        assert message.startswith("atoms[1] at r = ")
        lo, hi = map(float, re.search(r"no convergence at depth 1 on \[(\S+), (\S+)\]", message).groups())
        assert 0.0 <= lo < hi <= atoms[1].spec.strip_c
        for n in failure.ranges:
            assert repr((1.0, 0.5)[n]) in message
        # atom 0 alone is fine at that depth
        mass_quadrature_schedule(build_current(lam, atoms[:1]), (1.0, 0.5), cfg=cfg)

    def test_schedule_work_is_near_one_mass(self, monkeypatch):
        # 3073-point flat grid; a schedule used to cost about 7 single masses
        lam = Eigenvalue.irrational(math.sqrt(2.0) - 1.0)
        current = single_atom_current(lam, 1.3, flat_poisson(half_turns=64))
        spy = _IntegrateSpy(monkeypatch)
        mass_quadrature(current, 1.0)
        single = spy.points
        spy.points = 0
        est = lelong_estimate(current, steps=12)
        assert len(est.nus) == 12
        assert spy.points <= 2 * single

    def test_empty_radii_are_zero(self, neg_single):
        masses = mass_quadrature_schedule(neg_single, (1.0, 0.1, 0.01))
        assert masses[0].value > 0.0
        assert [(m.value, m.error_estimate) for m in masses[1:]] == [(0.0, 0.0)] * 2

    def test_radius_validation(self, flagship):
        with pytest.raises(DomainError):
            mass_quadrature_schedule(flagship, (1.0, 0.0))


class _KernelSpy:
    """Wraps harmonic._poisson_window: kernel entries summed directly, and all the grid holds."""

    def __init__(self, monkeypatch):
        self.direct = 0
        self.dense = 0
        self.calls = 0
        real = harmonic._poisson_window

        def spy(window, v):
            grid = window.full
            j = grid.shell(float(v.max()))
            near = grid.gap.size if j is None else int(grid.near[j, 1] - grid.near[j, 0])
            self.calls += 1
            self.direct += near * v.size
            self.dense += grid.gap.size * v.size
            return real(window, v)

        monkeypatch.setattr(harmonic, "_poisson_window", spy)


class TestFarFieldSchedule:
    # (eigenvalue, |alpha|, c_lin) of the two flat-data schedules
    CASES = {
        "silver": (Eigenvalue.irrational(math.sqrt(2.0) - 1.0), 1.3, 0.0),
        "half-linear": (Eigenvalue.rational(1, 2), 1.1, 0.6),
    }

    @pytest.mark.parametrize("k0", [0, 1])
    @pytest.mark.parametrize("half_turns", [64, 256])  # 3073 and 12289 nodes
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_errors_cover_the_trig_twin(self, case, half_turns, k0, monkeypatch):
        # flat data with flat tails extends to 1 + c_lin v, exactly the
        # density of the trig twin, whose masses are exact
        lam, modulus, c_lin = self.CASES[case]
        spy = _KernelSpy(monkeypatch)
        est = lelong_estimate(single_atom_current(lam, modulus, flat_poisson(c_lin, half_turns)), k0=k0)
        twin = single_atom_current(lam, modulus, FourierSpec(b=1, a0=1.0, b0=c_lin))
        for r, nu, err, (mass, bound) in zip(est.rs, est.nus, est.errs, _exact_schedule(twin, est.rs, k0)):
            area = math.pi * r * r
            assert abs(nu - mass / area) <= err + bound / area
        if half_turns == 256:
            assert spy.direct <= 0.1 * spy.dense

    @pytest.mark.parametrize("case_id", ["pos-silver-poisson-flat", "div-half-poisson-linear"])
    def test_corpus_grids_are_summed_directly(self, case_id, monkeypatch):
        current = next(case.current for case in corpus(42) if case.case_id == case_id)
        assert current.atoms[0].spec.ys.size == 769
        spy = _KernelSpy(monkeypatch)
        lelong_estimate(current)
        assert spy.calls > 0
        assert spy.direct == spy.dense


class _Arctan2Count:
    """Stands in for numpy inside harmonic, recording the shape of every arctan2 block."""

    def __init__(self, monkeypatch):
        self.blocks = []
        monkeypatch.setattr(harmonic, "np", self)

    def __getattr__(self, name):
        return getattr(np, name)

    def arctan2(self, y, x):
        out = np.arctan2(y, x)
        self.blocks.append(out.shape)
        return out


class TestOneKernelBlockPerPanel:
    # (current, kernel entries of its 12-halving schedule): the two
    # benchmark-sized flat atoms and the corpus's two Poisson currents
    CASES = {
        "silver-12289": (lambda: single_atom_current(
            Eigenvalue.irrational(math.sqrt(2.0) - 1.0), 1.3, flat_poisson(0.0, 256)), 179955),
        "half-linear-12289": (lambda: single_atom_current(
            Eigenvalue.rational(1, 2), 1.1, flat_poisson(0.6, 256)), 199680),
        "pos-silver-poisson-flat": (lambda: next(
            case.current for case in corpus(42) if case.case_id == "pos-silver-poisson-flat"), 161490),
        "div-half-poisson-linear": (lambda: next(
            case.current for case in corpus(42) if case.case_id == "div-half-poisson-linear"), 184560),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_probe_takes_its_entries_from_the_panel_block(self, case, monkeypatch):
        # each panel computes one arctan2 block, the full grid's near nodes
        # at its interior heights, and the probe none
        make, entries = self.CASES[case]
        current = make()
        count = _Arctan2Count(monkeypatch)
        panels = []
        real = lelonglab.mass.poisson_rows

        def spy(window, v):
            first = len(count.blocks)
            out = real(window, v)
            inside = v[v > 0.0]
            j = window.full.shell(float(inside.max()))
            near = window.spec.ys.size if j is None else int(window.full.near[j, 1] - window.full.near[j, 0])
            panels.append((count.blocks[first:], (inside.size, near)))
            return out

        monkeypatch.setattr(lelonglab.mass, "poisson_rows", spy)
        lelong_estimate(current)
        assert panels
        for blocks, block in panels:
            assert blocks == [block]
        assert sum(rows * cols for _, (rows, cols) in panels) == entries
        if current.atoms[0].spec.ys.size == 769:  # no ladder: every node direct
            assert all(cols == 769 for _, (_, cols) in panels)


class TestTruncation:
    @given(
        fourier=st.booleans(),
        base=st.floats(min_value=0.0, max_value=3.0),
        slope=st.floats(min_value=0.0, max_value=2.0),
        mode=st.floats(min_value=-0.5, max_value=0.5),
        lam=st.one_of(st.floats(min_value=0.01, max_value=1.0), st.sampled_from([1.0, 0.5, math.sqrt(2.0) - 1.0])),
        modulus=st.floats(min_value=0.01, max_value=5.0),
        v_lo=st.floats(min_value=-10.0, max_value=40.0),
        cfg=st.sampled_from([DEFAULT_CONFIG, QuadratureConfig(abs_tol=1e-9, v_tail_cutoff_digits=1.5)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_envelope_matches_the_generator_sum(self, fourier, base, slope, mode, lam, modulus, v_lo, cfg):
        from oracles import truncate_half_plane

        if fourier:
            spec = FourierSpec(b=1, a0=base, b0=slope, modes=((-1, mode, 0.0),))
        else:
            ys = np.linspace(-math.pi, math.pi, 5)
            spec = PoissonSpec(ys=ys, values=base + abs(mode) * np.cos(ys) ** 2, tail=base, c_lin=slope)
        eig = Eigenvalue.irrational(lam)
        envelope = lelonglab.mass._envelope_coefficients(spec)
        got = lelonglab.mass._truncate_half_plane(envelope, eig, modulus, v_lo, cfg)
        want = truncate_half_plane(spec, eig, modulus, v_lo, cfg)
        assert [float.hex(x) for x in got] == [float.hex(x) for x in want]

    def test_corpus_schedules_keep_their_heights(self):
        # every atom and radius of the corpus's half-plane schedules
        from oracles import truncate_half_plane

        rs = [0.5**n for n in range(12)]
        for case in corpus(42):
            lam = case.current.lam
            if lam.is_negative:
                continue
            for atom in case.current.atoms:
                table = build_current(lam, [atom]).table
                (_, spans, _), = lelonglab.mass._atom_ranges(lam, table, rs, DEFAULT_CONFIG)
                envelope = lelonglab.mass._envelope_coefficients(atom.spec)
                for v_lo, _ in spans:
                    args = (lam, atom.alpha_modulus, v_lo, DEFAULT_CONFIG)
                    got = lelonglab.mass._truncate_half_plane(envelope, *args)
                    assert got == truncate_half_plane(atom.spec, *args)


class TestClosedFormPositive:
    def test_flagship_exact(self, flagship):
        assert mass_closed_form(flagship, 1.0) == pytest.approx(
            2.5 * math.pi, rel=1e-14
        )

    def test_b0_bracket_contribution_frozen(self):
        # difference isolates the linear-part bracket: 2 pi r^2 B(r) at
        # lambda=1, |alpha|=1/2, r=0.1
        lam = Eigenvalue.rational(1, 1)
        with_b0 = single_atom_current(lam, 0.5, FourierSpec(b=1, a0=1.0, b0=1.0))
        without = single_atom_current(lam, 0.5, FourierSpec(b=1, a0=1.0))
        diff = mass_closed_form(with_b0, 0.1) - mass_closed_form(without, 0.1)
        assert diff == pytest.approx(0.22011451848025903, rel=1e-12)

    def test_outer_region_agrees_with_quadrature(self):
        # |alpha| >= r^{1-lambda}: the r^{2/lambda - 2} power in the linear
        # bracket is the one the quadrature route certifies
        lam = Eigenvalue.rational(1, 2)
        cur = single_atom_current(lam, 1.2, FourierSpec(b=1, a0=1.0, b0=0.6), weight=0.8)
        for r in (1.0, 0.4, 0.1):
            closed = mass_closed_form(cur, r)
            result = mass_quadrature(cur, r)
            assert closed == pytest.approx(result.value, rel=1e-8)

    def test_rejects_poisson_atoms(self):
        lam = Eigenvalue.irrational(math.sqrt(2.0) - 1.0)
        cur = single_atom_current(lam, 1.3, flat_poisson())
        with pytest.raises(UnsupportedCurrentError):
            mass_closed_form(cur, 1.0)


class TestStripIntegrals:
    def test_frozen_value(self):
        want = 1.0 - math.exp(-2.0)
        assert ia(-1.0, math.exp(-1.0), 1.0) == pytest.approx(want, rel=1e-14)
        assert ib(-1.0, math.exp(-1.0), 1.0) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("lv", [-1.0, -0.5, -0.25])
    @pytest.mark.parametrize("t", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("r", [0.3, 0.6, 0.9])
    def test_against_defining_integrals(self, lv, t, r):
        am = t * r ** (1.0 - lv)
        log_am = math.log(am)
        v_lo, v_hi = -math.log(r), (log_am - math.log(r)) / lv

        def jac(v):
            return 2.0 * (math.exp(-2.0 * v) + (lv * am) ** 2 * math.exp(-2.0 * lv * v))

        want_a, _ = quad(lambda v: (1.0 - lv * v / log_am) * jac(v), v_lo, v_hi, epsabs=1e-13)
        want_b, _ = quad(lambda v: v * jac(v), v_lo, v_hi, epsabs=1e-13)
        assert ia(lv, am, r) == pytest.approx(want_a / r**2, abs=1e-10)
        assert ib(lv, am, r) == pytest.approx(want_b / r**2, abs=1e-10)

    @pytest.mark.parametrize("lv, t, r", [
        (-0.01, 0.5, 1e-6),  # r^(2/lambda - 2) overflows, am^(-2/lambda) underflows
        (-60.0, 0.5, 1e-3),  # r^(2 lambda - 2) overflows, am^2 is tiny
        (-0.5, 0.5, 0.25),  # no power overflows
    ])
    def test_against_mpmath_where_a_power_overflows(self, lv, t, r):
        mp = pytest.importorskip("mpmath").mp
        am = t * r ** (1.0 - lv)
        with mp.workdps(60):
            lam, a, rr = mp.mpf(lv), mp.mpf(am), mp.mpf(r)
            v_lo, v_hi = -mp.log(rr), (mp.log(a) - mp.log(rr)) / lam

            def jac(v):
                return 2 * (mp.exp(-2 * v) + (lam * a) ** 2 * mp.exp(-2 * lam * v))

            want_a = mp.quad(lambda v: (1 - lam * v / mp.log(a)) * jac(v), [v_lo, v_hi]) / rr**2
            want_b = mp.quad(lambda v: v * jac(v), [v_lo, v_hi]) / rr**2
        assert ia(lv, am, r) == pytest.approx(float(want_a), rel=1e-12)
        assert ib(lv, am, r) == pytest.approx(float(want_b), rel=1e-12)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            ia(-1.0, 0.5, 0.5)  # |alpha| >= r^{1-lambda}: no strip
        with pytest.raises(DomainError):
            ib(-1.0, 1.2, 1.0)
        with pytest.raises(DomainError):
            ia(0.5, 0.1, 0.5)  # positive eigenvalue has no strip integral

    def test_b_part_mass_increases_with_r(self):
        # 0.2 < r^1.5 keeps the strip nonempty along the whole sweep
        rs = np.linspace(0.4, 1.0, 13)
        vals = [r**2 * ib(-0.5, 0.2, r) for r in rs]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestClosedFormNegative:
    def test_single_atom(self, neg_single):
        want = 2.0 * math.pi * (1.0 - math.exp(-2.0))
        assert mass_closed_form(neg_single, 1.0) == pytest.approx(want, rel=1e-13)

    def test_skips_inadmissible_atoms(self, neg_single):
        # at r = 0.5 the single strip is empty: closed form must return 0
        assert mass_closed_form(neg_single, 0.5) == 0.0

    def test_agrees_with_quadrature(self, neg_single):
        for r in (1.0, 0.9, 0.7):
            closed = mass_closed_form(neg_single, r)
            result = mass_quadrature(neg_single, r)
            assert closed == pytest.approx(result.value, rel=1e-9, abs=1e-12)


class TestClosedFormApplicable:
    def test_constant_atom(self, flagship):
        assert closed_form_applicable(flagship)

    def test_full_period_modes(self):
        lam = Eigenvalue.rational(1, 2)
        spec = normalize(FourierSpec(b=2, a0=1.0, modes=((-2, 0.2, 0.1), (-4, 0.05, 0.0))))
        assert closed_form_applicable(single_atom_current(lam, 0.5, spec))

    def test_fractional_mode_atom_applicable(self):
        # a lone b=2 atom with k=-1 leaves a half-period residual in the
        # window; the exact route integrates it instead of needing an orbit
        lam = Eigenvalue.rational(1, 2)
        spec = normalize(FourierSpec(b=2, a0=1.0, modes=((-1, 0.2, 0.1),)))
        cur = single_atom_current(lam, 0.5, spec)
        assert closed_form_applicable(cur)
        for k0 in (0, 1):
            result = mass_quadrature(cur, 0.5, k0=k0)
            assert mass_closed_form(cur, 0.5, k0) == pytest.approx(result.value, rel=1e-8)

    def test_complete_orbit_applicable(self):
        lam = Eigenvalue.rational(1, 2)
        mother = normalize(FourierSpec(b=2, a0=1.0, modes=((-1, 0.2, 0.1),)))
        cur = build_current(lam, monodromy_family(lam, 1.0, 0.7, mother))
        assert closed_form_applicable(cur)

    def test_poisson_not_applicable(self):
        lam = Eigenvalue.irrational(math.sqrt(2.0) - 1.0)
        assert not closed_form_applicable(single_atom_current(lam, 1.3, flat_poisson()))

    def test_orbit_quadrature_matches_closed(self):
        lam = Eigenvalue.rational(1, 2)
        mother = normalize(FourierSpec(b=2, a0=1.0, modes=((-1, 0.2, 0.1),)))
        cur = build_current(lam, monodromy_family(lam, 1.0, 0.7, mother))
        for r in (1.0, 0.3):
            closed = mass_closed_form(cur, r)
            result = mass_quadrature(cur, r)
            assert closed == pytest.approx(result.value, rel=1e-8)


class TestExactRoute:
    """The exact route against the paper's displays, quadrature and mpmath."""

    RADII = (1.0, 0.7, 0.3, 0.05, 2.0**-12)

    @staticmethod
    def _paper_mass(current, r):
        # 2 pi r^2 sum w (a0 A + b0 B) with the three-region brackets, or
        # with the strip integrals over the admissible atoms
        lv = current.lam.value
        acc = 0.0
        for atom in current.atoms:
            spec, am = atom.spec, atom.alpha_modulus
            if lv > 0.0:
                acc += atom.weight * (spec.a0 * _bracket_a(lv, am, r) + spec.b0 * _bracket_b(lv, am, r))
            elif am < r ** (1.0 - lv):
                acc += atom.weight * (spec.a0 * ia(lv, am, r) + spec.b0 * ib(lv, am, r))
        return 2.0 * math.pi * r**2 * acc

    @pytest.mark.parametrize("case", [c for c in corpus(42) if closed_form_applicable(c.current)],
                             ids=lambda c: c.case_id)
    def test_matches_paper_formulas(self, case):
        # every corpus trig current is single-period or a complete orbit, so
        # its modes cancel over the window and the paper's displays apply
        for r in self.RADII:
            paper = self._paper_mass(case.current, r)
            assert mass_closed_form(case.current, r) == pytest.approx(paper, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("lam_value", [-0.5, -0.5 + 5e-10])
    def test_resonant_strip_family(self, lam_value):
        # mode k = -1 against the e^{-2 lambda v} jacobian term: decay rate
        # 2 lambda + 1, exactly 0 at lambda = -1/2 and 1e-9 just above it
        lam = Eigenvalue.negative(lam_value)
        cur = build_current(lam, accumulation_family(
            lam, 6, alpha_base=1.0 / 3.0, b0=0.25, modes=((-1, 0.03, 0.02),)
        ))
        for r in (1.0, 0.5, 0.2):
            for k0 in (0, 1):
                value, bound = _exact_schedule(cur, [r], k0)[0]
                result = mass_quadrature(cur, r, k0=k0)
                assert value > 0.0
                assert abs(value - result.value) <= result.error_estimate + bound

    @pytest.mark.parametrize("sigma", [0.0, 1e-9, -1e-9, 0.3, -0.3])
    def test_moments_series_branch(self, sigma):
        # the series branch against quad, and continuous across the switch
        lo, hi = 0.7, 1.9
        e_lo, e_hi, m0, m1 = _moments(sigma, lo, hi)
        want0, _ = quad(lambda t: math.exp(-sigma * t), 0.0, hi - lo, epsabs=0.0, epsrel=1e-13)
        want1, _ = quad(lambda t: t * math.exp(-sigma * t), 0.0, hi - lo, epsabs=0.0, epsrel=1e-13)
        assert (m0, m1) == (pytest.approx(want0, rel=1e-13), pytest.approx(want1, rel=1e-13))
        assert e_hi == pytest.approx(math.exp(-sigma * hi), rel=1e-15)
        length = 1.0
        for x in (0.5 * (1.0 - 1e-12), 0.5, -0.5 * (1.0 - 1e-12), -0.5):
            assert _moments(x, 0.0, length)[2:] == pytest.approx(
                _moments(x * (1.0 + 1e-12), 0.0, length)[2:], rel=1e-11
            )

    def test_rejects_poisson(self):
        lam = Eigenvalue.irrational(math.sqrt(2.0) - 1.0)
        with pytest.raises(UnsupportedCurrentError):
            _exact_schedule(single_atom_current(lam, 1.3, flat_poisson()), [1.0])

    @staticmethod
    def _mp_mass(current, r):
        # the defining integral at 40 digits, from the same float inputs
        mp = pytest.importorskip("mpmath").mp
        mp.dps = 40
        lv, big_r = mp.mpf(current.lam.value), mp.mpf(r)
        total = mp.mpf(0)
        for atom in current.atoms:
            am, spec = mp.mpf(atom.alpha_modulus), atom.spec
            cut = big_r ** (1 - lv)
            if lv > 0:
                v_min = (mp.log(am) - mp.log(big_r)) / lv if am >= cut else -mp.log(big_r)
                lo = v_min - (mp.log(am) / lv if am >= 1 else 0)
                limits = [lo, lo + 1, lo + 4, lo + 16, lo + 64, mp.inf]
            elif am < cut:
                limits = mp.linspace(-mp.log(big_r), (mp.log(am) - mp.log(big_r)) / lv, 5)
            else:
                continue
            if am < 1:
                c1, c2 = 2, 2 * (lv * am) ** 2
            else:
                c1, c2 = 2 * am ** (-2 / lv), 2 * lv**2

            def density(v, spec=spec, c1=c1, c2=c2):
                base = mp.mpf(spec.a0) + mp.mpf(spec.b0) * v
                if spec.on_strip:
                    base -= mp.mpf(spec.a0) * v / mp.mpf(spec.strip_c)
                window = 2 * mp.pi * base
                for k, ak, bk in spec.modes:
                    ds = mp.sin(2 * mp.pi * k / spec.b)
                    dc = mp.cos(2 * mp.pi * k / spec.b) - 1
                    window += mp.exp(k * v / spec.b) * spec.b / mp.mpf(k) * (ak * ds - bk * dc)
                return (c1 * mp.exp(-2 * v) + c2 * mp.exp(-2 * lv * v)) * window

            total += mp.mpf(atom.weight) * mp.quad(density, limits)
        return total

    @pytest.mark.parametrize("case", ["flagship", "trig-half-b2", "resonant-strips"])
    def test_rounding_bound_against_mpmath(self, case, flagship):
        neg_half = Eigenvalue.negative(-0.5)
        current = {
            "flagship": flagship,
            "trig-half-b2": SCHEDULE_CASES["trig-half-b2"],
            "resonant-strips": build_current(neg_half, accumulation_family(
                neg_half, 6, alpha_base=1.0 / 3.0, b0=0.25, modes=((-1, 0.03, 0.02),)
            )),
        }[case]
        for r in (1.0, 0.3, 2.0**-10):
            value, bound = _exact_schedule(current, [r])[0]
            if value == 0.0:
                continue
            assert float(abs(value - self._mp_mass(current, r))) <= bound <= 1e-12 * abs(value)

    def test_rounding_bound_covers_the_limits(self):
        # a strip just inside the bidisc is 1e-9 long, and its length comes
        # from a difference of logs: rounding the limits, not the integrand,
        # dominates the error, and the bound must still cover it
        lam = Eigenvalue.negative(-1.0)
        am = 0.25 * (1.0 - 1e-9)
        spec = normalize(FourierSpec(b=1, a0=1.0, b0=0.5, strip_c=-math.log(am)))
        current = build_current(lam, [TransversalAtom(am, 1.0, spec)])
        value, bound = _exact_schedule(current, [0.5])[0]
        assert value > 0.0
        assert float(abs(value - self._mp_mass(current, 0.5))) <= bound


_LAMBDAS = (
    Eigenvalue.rational(1, 1),
    Eigenvalue.rational(1, 2),
    Eigenvalue.irrational(math.sqrt(2.0) - 1.0),
    Eigenvalue.negative(-1.0),
    Eigenvalue.negative(-0.5),
    Eigenvalue.negative(-0.25),
)


@st.composite
def _trig_currents(draw):
    """One trig atom with up to two modes that need not cancel."""
    lam = draw(st.sampled_from(_LAMBDAS))
    b = draw(st.sampled_from((1, 2, 3)))
    ks = draw(st.lists(st.integers(1, 4), max_size=2, unique=True))
    coefs = [draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))) for _ in ks]
    if lam.is_negative:
        # |alpha| <= 0.7 keeps the strip height above 0.35, so b0 v at the
        # top outweighs modes capped at 0.05 (|a| + |b|) over the strip
        am = draw(st.floats(0.05, 0.7))
        height = math.log(am) / lam.value
        b0 = draw(st.sampled_from((0.3, 0.6))) if ks else 0.0
        signs = [draw(st.sampled_from((-1, 1))) for _ in ks]
        modes = tuple(
            (s * k, 0.05 * a * damp, 0.05 * c * damp)
            for s, k, (a, c) in zip(signs, ks, coefs)
            for damp in [math.exp(-max(s * k, 0) * height / b)]
        )
        spec = FourierSpec(b=b, a0=1.0, b0=b0, modes=modes, strip_c=height)
    else:
        am = draw(st.floats(0.1, 3.0))
        l1 = sum(abs(a) + abs(c) for a, c in coefs) or 1.0
        modes = tuple((-k, 0.45 * a / l1, 0.45 * c / l1) for k, (a, c) in zip(ks, coefs))
        spec = FourierSpec(b=b, a0=1.0, b0=draw(st.sampled_from((0.0, 0.5))), modes=modes)
    return build_current(lam, [TransversalAtom(am, 1.0, normalize(spec))])


@given(
    current=_trig_currents(),
    k0=st.sampled_from((0, 1, 2)),
    log2_r=st.floats(-10.0, 0.0),
)
@settings(max_examples=60, deadline=None)
def test_exact_route_matches_quadrature(current, k0, log2_r):
    r = 2.0**log2_r
    value, bound = _exact_schedule(current, [r], k0)[0]
    result = mass_quadrature(current, r, k0=k0)
    assert abs(value - result.value) <= result.error_estimate + bound


class TestBoundaryReduction:
    def test_flat_boundary_frozen_ratio(self):
        # H == 1 collapses the ratio to the pure jacobian integral: at
        # lambda = 1, |alpha| = 1/2 that is exactly 1 + |alpha|^2 = 1.25
        ratio = boundary_reduction_check(1.0, 0.5, flat_poisson(), math.exp(-1.0), 0.0)
        assert ratio == pytest.approx(1.25, rel=1e-5)

    @pytest.mark.parametrize("lam_value", [0.5, 1.0])
    @pytest.mark.parametrize("u", [0.0, 2.0, -5.0])
    def test_bump_ratios_inside_lemma_window(self, lam_value, u):
        n = 769
        ys = np.linspace(-16.0 * math.pi, 16.0 * math.pi, n)
        values = 0.4 + np.exp(-(ys**2) / 18.0)
        spec = PoissonSpec(ys=ys, values=values, tail=0.4)
        r = math.exp(-1.2 / lam_value)
        ratio = boundary_reduction_check(lam_value, 1.2, spec, r, u)
        c_min, c_max = min(1.0, lam_value), 1.0 + lam_value
        assert 0.5 * c_min <= ratio <= 2.0 * c_max

    def test_radius_gate(self):
        with pytest.raises(DomainError):
            boundary_reduction_check(0.5, 1.2, flat_poisson(), 0.5, 0.0)

    def test_rejects_linear_term(self):
        with pytest.raises(InputError):
            boundary_reduction_check(1.0, 0.5, flat_poisson(c_lin=0.2), math.exp(-1.0), 0.0)


class TestIntervalBound:
    def test_kernel_weight_symmetric(self):
        assert kernel_weight(0) == pytest.approx(0.5)
        assert kernel_weight(3) == kernel_weight(-3) == pytest.approx(1.0 / 17.0)

    def test_interval_windows_tile(self):
        # consecutive windows abut: no gaps, no overlaps
        k = 2
        for n in range(0, 5):
            assert interval_window(n, k)[1] == pytest.approx(interval_window(n + 1, k)[0])
        for n in range(-5, -1):
            assert interval_window(n, k)[1] == pytest.approx(interval_window(n + 1, k)[0])
        with pytest.raises(InputError):
            interval_window(0, 1)

    def test_matches_direct_arithmetic(self):
        lam = Eigenvalue.irrational(math.sqrt(2.0) - 1.0)
        spec = flat_poisson()
        cur = build_current(lam, [TransversalAtom(1.3, 0.9, spec)])
        k, n_max = 2, 20
        expected = 0.0
        for n in range(-n_max, n_max + 1):
            lo, hi = interval_window(n, k)
            expected += kernel_weight(n) * 0.9 * boundary_integral(spec, lo, hi) / (2.0 * math.pi * k)
        expected *= min(1.0, lam.value) / (2.0 * math.pi)
        assert lower_bound_nonperiodic(cur, k=k, n_max=n_max) == pytest.approx(expected, rel=1e-12)

    def test_flat_boundary_window_lengths(self):
        # constant boundary turns the sum into pure window arithmetic
        lam = Eigenvalue.rational(1, 1)
        cur = build_current(lam, [TransversalAtom(1.3, 1.0, flat_poisson())])
        raw = 0.75 + 2.0 * sum(1.0 / (1.0 + m**2) for m in range(2, 22))
        want = 1.0 / (2.0 * math.pi) * raw
        assert lower_bound_nonperiodic(cur, k=2, n_max=20) == pytest.approx(want, rel=1e-12)

    def test_monotone_in_n_max(self):
        lam = Eigenvalue.irrational(1.0 / math.pi)
        cur = build_current(lam, [TransversalAtom(1.3, 1.0, flat_poisson())])
        bounds = [lower_bound_nonperiodic(cur, n_max=n) for n in (5, 10, 20)]
        assert bounds[0] < bounds[1] < bounds[2]

    def test_rejects_negative_eigenvalue(self, neg_single):
        with pytest.raises(InputError):
            lower_bound_nonperiodic(neg_single)

    def test_rejects_fourier_atoms(self, flagship):
        with pytest.raises(UnsupportedCurrentError):
            lower_bound_nonperiodic(flagship)


class TestLelongEstimate:
    def test_flagship_constant_schedule(self, flagship):
        est = lelong_estimate(flagship, steps=12)
        assert len(est.rs) == 12
        assert est.rs[0] == 1.0 and est.rs[-1] == pytest.approx(2.0**-11)
        assert all(nu == pytest.approx(2.5, rel=1e-9) for nu in est.nus)
        assert est.monotone_ok
        assert not est.diverging
        assert est.limit_bracket[0] <= 2.5 <= est.limit_bracket[1]

    def test_engines_agree(self, flagship):
        exact = lelong_estimate(flagship, steps=6)
        numeric = mass_quadrature_schedule(flagship, exact.rs)
        nus = [m.value / (math.pi * m.r**2) for m in numeric]
        assert np.allclose(exact.nus, nus, rtol=1e-8)

    def test_auto_prefers_closed_for_applicable(self, flagship):
        est = lelong_estimate(flagship, steps=6)
        assert max(est.errs) < 1e-11  # closed-form error model, not quadrature's

    def test_hump_breaks_monotonicity_both_ways(self):
        # inner-region atom below lambda = 1: nu rises to a hump at
        # r = |alpha|^{1/(1-lambda)} and falls beyond it
        lam = Eigenvalue.rational(1, 2)
        cur = single_atom_current(lam, 0.5, FourierSpec(b=1, a0=1.0))
        est = lelong_estimate(cur, steps=12)
        assert not est.monotone_ok

    def test_divergence_slope_frozen(self):
        lam = Eigenvalue.rational(1, 1)
        cur = single_atom_current(lam, 0.5, FourierSpec(b=1, a0=1.0, b0=0.8))
        est = lelong_estimate(cur, steps=12)
        # region-1 linear bracket at lambda = 1: slope 2 w b0 (1 + |alpha|^2)
        assert est.slope == pytest.approx(2.0, rel=1e-10)
        assert est.r_squared > 0.9999
        assert est.diverging

    def test_negative_family_decays_to_zero(self):
        from lelonglab import accumulation_family

        lam = Eigenvalue.negative(-1.0)
        cur = build_current(lam, accumulation_family(lam, 8))
        est = lelong_estimate(cur, steps=12)
        assert est.nus[0] > 1.0
        assert est.nus[-1] == 0.0
        assert est.monotone_ok
        assert not est.diverging

    def test_schedule_validation(self, flagship):
        with pytest.raises(InputError):
            lelong_estimate(flagship, ratio=1.5)
        with pytest.raises(InputError):
            lelong_estimate(flagship, steps=1)

    def test_json_shape(self, flagship):
        est = lelong_estimate(flagship, steps=4)
        payload = lelong_to_json(est)
        assert set(payload) >= {
            "rs", "nus", "errs", "monotone_ok",
            "limit_estimate", "limit_bracket", "slope", "r_squared", "diverging",
        }
        assert len(payload["rs"]) == 4


class TestPositiveLimit:
    def test_flagship_limit(self, flagship):
        assert nu_limit_positive_periodic(flagship) == pytest.approx(5.0 * 0.5)

    def test_outer_atom_at_lambda_one(self):
        lam = Eigenvalue.rational(1, 1)
        cur = single_atom_current(lam, 2.0, FourierSpec(b=1, a0=1.0))
        assert nu_limit_positive_periodic(cur) == pytest.approx(2.0 * (1.0 + 0.25))

    def test_below_one_limit_is_2_lambda_weight(self):
        lam = Eigenvalue.rational(1, 2)
        cur = single_atom_current(lam, 1.2, FourierSpec(b=1, a0=1.0), weight=0.8)
        assert nu_limit_positive_periodic(cur) == pytest.approx(2.0 * 0.5 * 0.8)
        est = lelong_estimate(cur, steps=16)
        assert est.limit_estimate == pytest.approx(0.8, rel=1e-4)

    def test_total_weight(self, flagship):
        assert total_weight(flagship) == 1.0


def _same_pairs(got, want):
    """Lists of (value, bound) float pairs equal bit for bit, signs of zeros included."""
    return [tuple(float.hex(x) for x in pair) for pair in got] == [
        tuple(float.hex(x) for x in pair) for pair in want
    ]


@st.composite
def _trig_families(draw):
    """1-12 trig atoms with 0-3 modes each, not validated as a current.

    The exact route's arithmetic needs no valid current, and unvalidated
    atoms reach more of it: moduli on both sides of 1, empty plaques, modes
    of either sign on strips, and rates sigma = 0 where a mode's growth k/b
    meets a jacobian rate (2 or 2 lambda).
    """
    from lelonglab.current import Current

    lam = draw(st.sampled_from(_LAMBDAS))
    atoms = []
    for _ in range(draw(st.integers(1, 12))):
        b = draw(st.sampled_from((1, 2, 3)))
        ks = draw(st.lists(st.integers(1, 4), max_size=3, unique=True))
        signs = [draw(st.sampled_from((-1, 1))) if lam.is_negative else -1 for _ in ks]
        modes = tuple((s * k, draw(st.floats(-0.1, 0.1)), draw(st.floats(-0.1, 0.1)))
                      for s, k in zip(signs, ks))
        b0 = draw(st.sampled_from((0.0, 0.25, 0.5)))
        if lam.is_negative:
            am = draw(st.floats(0.02, 0.98))
            spec = FourierSpec(b=b, a0=1.0, b0=b0, modes=modes, strip_c=math.log(am) / lam.value)
        else:
            am = draw(st.floats(0.1, 3.0))
            spec = FourierSpec(b=b, a0=1.0, b0=b0, modes=modes)
        atoms.append(TransversalAtom(am, draw(st.floats(0.01, 2.0)), spec))
    return Current(lam=lam, atoms=tuple(atoms))


class TestExactRouteArrays:
    """_exact_masses against the term-by-term loop of tests/oracles.py, bit for bit."""

    @given(
        current=_trig_families(),
        k0=st.sampled_from((0, 1, 2)),
        rs=st.lists(st.one_of(st.just(1.0), st.floats(2.0**-12, 1.0)), min_size=1, max_size=16),
    )
    @settings(max_examples=120, deadline=None)
    def test_same_masses_and_bounds(self, current, k0, rs):
        from oracles import exact_masses

        assert _same_pairs(_exact_schedule(current, rs, k0), exact_masses(current, rs, k0))

    @pytest.mark.parametrize("lam_value", [-0.5, -0.5 + 5e-10, -0.25])
    def test_resonant_strips(self, lam_value):
        # modes k/b = 2 lambda: the e^{-2 lambda v} term's rate is 0 or 1e-9
        from oracles import exact_masses

        lam = Eigenvalue.negative(lam_value)
        b = 1 if lam_value < -0.3 else 2
        cur = build_current(lam, accumulation_family(
            lam, 12, alpha_base=1.0 / 3.0, b0=0.25, modes=((-1, 0.03, 0.02),)
        ))
        cur = build_current(lam, [TransversalAtom(a.alpha, a.weight, FourierSpec(
            b=b, a0=a.spec.a0, b0=a.spec.b0, modes=a.spec.modes, strip_c=a.spec.strip_c))
            for a in cur.atoms])
        rs = [2.0**-n for n in range(16)]
        for k0 in (0, 1):
            assert _same_pairs(_exact_schedule(cur, rs, k0), exact_masses(cur, rs, k0))

    def test_corpus_currents(self):
        from oracles import exact_masses

        rs = [0.7**n for n in range(16)]
        for case in corpus(42):
            if closed_form_applicable(case.current):
                got = _exact_schedule(case.current, rs)
                assert _same_pairs(got, exact_masses(case.current, rs)), case.case_id

    def test_radius_validation(self, flagship):
        for bad in (0.0, 1.5, math.nan):
            with pytest.raises(DomainError):
                _exact_schedule(flagship, [0.5, bad])

    @given(
        currents=st.lists(_trig_families(), min_size=1, max_size=5),
        k0=st.integers(-2, 2),
        rs=st.lists(st.one_of(st.just(1.0), st.floats(2.0**-12, 1.0)), min_size=1, max_size=16),
    )
    @settings(max_examples=80, deadline=None)
    def test_one_table_of_many_currents(self, currents, k0, rs):
        # currents of either sign in one table: each current's pairs are the
        # oracle's for that current alone
        from lelonglab.current import atom_table
        from oracles import exact_masses

        table = atom_table([(current.lam, current.atoms) for current in currents])
        got = _exact_masses(table, rs, k0)
        assert len(got) == len(currents)
        for current, pairs in zip(currents, got):
            assert _same_pairs(pairs, exact_masses(current, rs, k0))

    def test_a_poisson_current_gets_none(self, flagship):
        from lelonglab.current import atom_table

        poisson = single_atom_current(Eigenvalue.rational(1, 2), 1.3, flat_poisson())
        rs = [2.0**-n for n in range(6)]
        table = atom_table([(c.lam, c.atoms) for c in (flagship, poisson, flagship)])
        got = _exact_masses(table, rs)
        assert got[1] is None
        assert _same_pairs(got[0], _exact_schedule(flagship, rs))
        assert _same_pairs(got[2], got[0])
