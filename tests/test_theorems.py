import math

import numpy as np
import pytest

from lelonglab import (
    Eigenvalue,
    FourierSpec,
    InputError,
    TransversalAtom,
    build_current,
    corpus,
    current_to_json,
    mass_closed_form,
    report_to_json,
    run_corpus,
    verify_b0_divergence,
    verify_lemma_bounds,
    verify_negative_periodic,
    verify_positive_lambda,
)
from lelonglab.theorems import DUAL_ROUTE_CASE_IDS, LEMMA_CASE_IDS, LEMMAS, check_bounds


class TestCorpus:
    def test_shape(self):
        cases = corpus()
        assert len(cases) == 16
        ids = [c.case_id for c in cases]
        assert len(set(ids)) == 16
        kinds = {c.kind for c in cases}
        assert kinds == {"positive", "negative", "divergence"}

    def test_dual_route_subset(self):
        ids = {c.case_id for c in corpus()}
        assert len(DUAL_ROUTE_CASE_IDS) == 10
        assert set(DUAL_ROUTE_CASE_IDS) <= ids

    def test_same_seed_reproduces_currents(self):
        a = {c.case_id: current_to_json(c.current) for c in corpus(42)}
        b = {c.case_id: current_to_json(c.current) for c in corpus(42)}
        assert a == b

    def test_negative_seed_is_refused(self):
        for build in (corpus, run_corpus):
            with pytest.raises(InputError, match="^seed must be a non-negative integer, not -1$"):
                build(-1)

    def test_seed_jitters_only_mode_coefficients(self):
        by_id_a = {c.case_id: c for c in corpus(42)}
        by_id_b = {c.case_id: c for c in corpus(7)}
        assert by_id_a.keys() == by_id_b.keys()
        # structural data is seed-free
        for cid in by_id_a:
            ca, cb = by_id_a[cid], by_id_b[cid]
            assert ca.kind == cb.kind
            assert ca.current.lam == cb.current.lam
            for x, y in zip(ca.current.atoms, cb.current.atoms):
                assert x.alpha == y.alpha
                if x.spec == y.spec:
                    # orbit members fold the translated spec's normalizing
                    # constant into their weight, so only mode-free atoms
                    # keep bit-identical weights across seeds
                    assert x.weight == y.weight
        # the jitter really moves the oscillatory part
        modes_a = by_id_a["pos-unit-inner-modes"].current.atoms[0].spec.modes
        modes_b = by_id_b["pos-unit-inner-modes"].current.atoms[0].spec.modes
        assert modes_a != modes_b


class TestVerifiers:
    def test_positive_flagship(self, flagship):
        rep = verify_positive_lambda(flagship, case_id="flagship")
        assert rep.verdict
        assert rep.claim == "PositiveLelong"
        assert rep.case_id == "flagship"
        assert rep.observed[0] == pytest.approx(2.5, rel=1e-6)
        assert rep.observed[3] == pytest.approx(2.5)  # closed-form reference

    def test_positive_rejects_negative_eigenvalue(self, neg_single):
        with pytest.raises(InputError):
            verify_positive_lambda(neg_single)

    def test_positive_rejects_linear_growth(self):
        cur = build_current(
            Eigenvalue.rational(1, 1),
            [TransversalAtom(0.5, 1.0, FourierSpec(b=1, a0=1.0, b0=0.3))],
        )
        with pytest.raises(InputError):
            verify_positive_lambda(cur)

    def test_negative_single_strip(self, neg_single):
        rep = verify_negative_periodic(neg_single, case_id="single-strip")
        assert rep.verdict
        assert rep.claim == "ZeroLelong"
        nu_start, nu_end, tail, n_admissible = rep.observed
        assert nu_start == pytest.approx(2.0 * (1.0 - math.exp(-2.0)), rel=1e-9)
        assert nu_end == 0.0
        assert tail == 0.0 and n_admissible == 0.0  # strip empties long before r_end

    @pytest.mark.parametrize("small, tail_ok", [
        (((1e-7, 3e-4, 0.5),), True),
        (((1e-7, 1e-3, 0.5),), False),
        (((1e-7, 1e-4, 0.5), (5e-8, 2e-4, 0.25)), True),
        (((1e-7, 5e-4, 0.5), (5e-8, 5e-4, 0.25)), False),
    ])
    def test_negative_surviving_atoms_tail(self, small, tail_ok):
        # atoms below r_end^(1 - lambda) = 2^-22 still meet the bidisc at the
        # end of the schedule; the 1/e atom has left it long before
        mp = pytest.importorskip("mpmath").mp
        lam = Eigenvalue.negative(-1.0)
        atoms = [TransversalAtom(am, w, FourierSpec(b=1, a0=1.0, b0=b0, strip_c=-math.log(am)))
                 for am, w, b0 in small]
        atoms.append(TransversalAtom(math.exp(-1.0), 1.0, FourierSpec(b=1, a0=1.0, strip_c=1.0)))
        current = build_current(lam, atoms)
        rep = verify_negative_periodic(current)
        nu_start, nu_end, tail, survivors = rep.observed
        assert survivors == len(small)
        # 2 pi sum w (a0 Ia(1) + b0 e^(-1/(lambda (1 - lambda))) Ib(1)), with
        # Ia and Ib the integrals the docstrings of ia and ib define, at r = 1
        with mp.workdps(40):
            lv, want = mp.mpf(-1), mp.mpf(0)
            for am, w, b0 in small:
                log_am = mp.log(mp.mpf(am))
                top = log_am / lv

                def jac(v, am=mp.mpf(am)):
                    return 2 * (mp.exp(-2 * v) + (lv * am) ** 2 * mp.exp(-2 * lv * v))

                limits = [0, 1, top - 1, top]
                strip_a = mp.quad(lambda v: (1 - lv * v / log_am) * jac(v), limits)
                strip_b = mp.quad(lambda v: v * jac(v), limits)
                want += w * (strip_a + b0 * mp.exp(-1 / (lv * (1 - lv))) * strip_b)
            want *= 2 * mp.pi
        assert tail == pytest.approx(float(want), rel=1e-12)
        mass_at_one = mass_closed_form(current, 1.0)
        assert (tail < 0.01 * mass_at_one) == tail_ok
        assert rep.verdict == (nu_end < 0.05 * nu_start and tail_ok)

    def test_negative_rejects_positive_eigenvalue(self, flagship):
        with pytest.raises(InputError):
            verify_negative_periodic(flagship)

    def test_divergence_linear_part(self):
        cur = build_current(
            Eigenvalue.rational(1, 1),
            [TransversalAtom(0.5, 1.0, FourierSpec(b=1, a0=1.0, b0=0.8))],
        )
        rep = verify_b0_divergence(cur, case_id="forced")
        assert rep.verdict
        assert rep.claim == "Divergence"
        assert rep.observed[0] == pytest.approx(2.0, rel=1e-9)  # fitted slope
        assert rep.observed[1] > 0.9999  # R^2

    def test_divergence_requires_growth(self, flagship):
        with pytest.raises(InputError):
            verify_b0_divergence(flagship)

    def test_divergence_rejects_negative_eigenvalue(self, neg_single):
        with pytest.raises(InputError):
            verify_b0_divergence(neg_single)

    def test_misapplied_verifiers_fail_before_scheduling(self, flagship, neg_single, monkeypatch):
        import lelonglab.theorems

        def no_schedule(*args, **kwargs):
            raise AssertionError("scheduled before the argument checks")

        # every current is scheduled by the exact route, and a Poisson
        # atom's departures from its tail by _departure_masses
        monkeypatch.setattr(lelonglab.theorems, "_departure_masses", no_schedule)
        monkeypatch.setattr(lelonglab.theorems, "_exact_masses", no_schedule)
        for verify, current in ((verify_positive_lambda, neg_single), (verify_negative_periodic, flagship),
                                (verify_b0_divergence, flagship), (verify_b0_divergence, neg_single)):
            with pytest.raises(InputError):
                verify(current)


class TestLemmaLattices:
    def test_all_bounds_hold(self):
        reports = verify_lemma_bounds()
        assert tuple(r.case_id for r in reports) == LEMMA_CASE_IDS
        for rep in reports:
            assert rep.claim == "LemmaBound"
            violations, checked, _skipped, _margin = rep.observed
            assert rep.verdict, rep.case_id
            assert violations == 0.0
            assert checked > 0.0

    def test_strip_b_lattice_skips_out_of_range_radii(self):
        rep = next(r for r in verify_lemma_bounds() if r.case_id == "lemma-strip-b-bound")
        _violations, checked, skipped, margin = rep.observed
        assert checked == 135.0 and skipped == 135.0
        assert margin > 0.0

    def test_margins_never_negative(self):
        for rep in verify_lemma_bounds():
            assert rep.observed[3] >= 0.0, rep.case_id

    def test_table_order(self):
        assert LEMMA_CASE_IDS == tuple(LEMMAS) == (
            "lemma-poisson-ratio",
            "lemma-strip-a-bound",
            "lemma-strip-b-bound",
            "lemma-interval-kernel",
            "lemma-region-inner",
            "lemma-region-outer",
        )


class TestStripLattices:
    """The strip lemmas from one term table against ia and ib in mpmath, entry by entry, within their rounding."""

    def test_lattices_are_the_scalar_ones(self):
        import oracles
        import lelonglab.theorems as theorems

        strips = [oracles.mp_strip(*entry) for entry in theorems._STRIP_LATTICE]
        caps = [oracles.mp_strip(lv, am, 1.0) for lv, am, _ in theorems._STRIP_LATTICE]
        values, lower, bounds = theorems._strip_a_bound()
        assert lower == 0.0
        for got, (want, _, tol, _) in zip(values.tolist() + bounds.tolist(), strips + caps):
            assert abs(got - want) <= tol
        # Ib's amplified bound holds for r below exp(1 / (2 lambda (1 - lambda)))
        keep = [r < math.exp(1.0 / (2.0 * lv * (1.0 - lv))) for lv, _, r in theorems._STRIP_LATTICE]
        values, lower, bounds, skipped = theorems._strip_b_bound()
        assert lower == -math.inf and skipped == keep.count(False)
        kept = [(s, c, lv) for s, c, ok, (lv, _, _) in zip(strips, caps, keep, theorems._STRIP_LATTICE) if ok]
        assert len(values) == len(bounds) == len(kept)
        for got, bound, ((_, want, _, tol), (_, cap, _, cap_tol), lv) in zip(values.tolist(), bounds.tolist(), kept):
            amplify = math.exp(-1.0 / (lv * (1.0 - lv)))
            assert abs(got - want) <= tol
            assert abs(bound - amplify * cap) <= amplify * cap_tol + 4.0 * np.finfo(float).eps * abs(bound)


class TestCheckBounds:
    """The one bound checker, on 3-point lattices worked out by hand."""

    def test_counts_and_margin(self):
        # margins 0.5, 0.25 (to the upper bound) and 0.25: no violation
        assert check_bounds([0.5, 0.75, 0.25], 0.0, 1.0) == (0, 3, 0, 0.25)
        # per-point bounds; the second point sits 0.5 above its upper bound
        assert check_bounds([1.0, 2.5, 3.0], [0.0, 1.0, 2.0], [2.0, 2.0, 3.5]) == (1, 3, 0, -0.5)

    def test_a_value_on_a_bound_is_a_violation(self):
        assert check_bounds([0.0, 0.5, 1.0], 0.0, 1.0) == (2, 3, 0, 0.0)
        assert check_bounds([1.0, 2.0, 3.0], [1.0, 0.0, 0.0], [4.0, 4.0, 3.0]) == (2, 3, 0, 0.0)

    def test_a_missing_bound_never_causes_one(self):
        assert check_bounds([-1e308, 0.0, 1e308]) == (0, 3, 0, math.inf)
        assert check_bounds([-1.0, 0.0, 2.0], upper=3.0) == (0, 3, 0, 1.0)
        assert check_bounds([-1.0, 0.0, 2.0], lower=-1.5) == (0, 3, 0, 0.5)
        lower, upper = [-math.inf, 0.0, -math.inf], [math.inf, math.inf, 4.0]
        assert check_bounds([1.0, 2.0, 3.0], lower, upper) == (0, 3, 0, 1.0)

    def test_skipped_points_pass_through(self):
        assert check_bounds([1.0, 2.0, 3.0], upper=[2.0, 3.0, 4.0], skipped=4) == (0, 3, 4, 1.0)


class TestRunCorpus:
    def test_all_twenty_two_verdicts_pass(self):
        reports = run_corpus()
        assert len(reports) == 22
        failing = [r.case_id for r in reports if not r.verdict]
        assert failing == []

    def test_bit_stable_across_runs(self):
        assert run_corpus() == run_corpus()

    def test_only_filter(self):
        reports = run_corpus(only="pos-unit-inner-const")
        assert [r.case_id for r in reports] == ["pos-unit-inner-const"]
        lemma = run_corpus(only="lemma-region-outer")
        assert [r.case_id for r in lemma] == ["lemma-region-outer"]

    # every case id, not only the lemmas': a lone theorem case is a batch of
    # one on its own table, and must give the report of the whole batch
    @pytest.mark.parametrize("case_id", [case.case_id for case in corpus(42)] + list(LEMMA_CASE_IDS))
    def test_only_lemma_matches_the_full_run(self, case_id):
        full = next(r for r in run_corpus() if r.case_id == case_id)
        assert run_corpus(only=case_id) == [full]

    def test_unknown_case_id_lists_known_ones(self):
        with pytest.raises(InputError, match="pos-unit-inner-const"):
            run_corpus(only="no-such-case")

    def test_zero_tolerance_forces_failures(self):
        reports = run_corpus(tol_scale=0.0)
        assert any(not r.verdict for r in reports)

    def test_one_validation_and_one_exact_call(self, monkeypatch):
        import lelonglab.current
        import lelonglab.theorems

        calls = []
        for module, name in ((lelonglab.current, "_validate"), (lelonglab.theorems, "_exact_masses")):
            def spy(*args, _real=getattr(module, name), _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(module, name, spy)
        assert len(run_corpus()) == 22
        assert sorted(calls) == ["_exact_masses", "_validate"]

    def test_two_summary_calls(self, monkeypatch):
        import lelonglab.mass
        import lelonglab.theorems

        calls = []
        for module in (lelonglab.theorems, lelonglab.mass):
            def spy(rs, schedules, _real=module.lelong_from_masses, _name=module.__name__):
                calls.append((_name, len(rs), len(schedules)))
                return _real(rs, schedules)

            monkeypatch.setattr(module, "lelong_from_masses", spy)
        assert len(run_corpus(42)) == 22
        # all 16 schedules in one batch per length: the 7 positive trig
        # ones at 16 radii, the rest, the two Poisson ones among them, at 12
        assert sorted(calls) == [("lelonglab.theorems", 12, 9), ("lelonglab.theorems", 16, 7)]

    def test_lone_case_schedules_only_its_own_current(self, monkeypatch):
        import lelonglab.theorems

        tables = []
        real = lelonglab.theorems._exact_masses

        def spy(table, rs):
            tables.append(table)
            return real(table, rs)

        monkeypatch.setattr(lelonglab.theorems, "_exact_masses", spy)
        # Poisson data takes the exact route too, for its tail's extension
        assert run_corpus(only="pos-silver-poisson-flat")[0].verdict
        assert run_corpus(only="neg-unit-single-strip")[0].verdict
        assert [(table.trig.size, bool(table.trig[0])) for table in tables] == [(1, False), (1, True)]

    def test_public_verifiers_give_the_batch_reports(self):
        # each verify_* schedules its own current; run_corpus judges the
        # prefixes of one batch at PERIODIC_STEPS radii: the reports agree
        # to the bit
        verify = {"positive": verify_positive_lambda, "negative": verify_negative_periodic,
                  "divergence": verify_b0_divergence}
        for seed in (42, 7):
            single = [verify[case.kind](case.current, case_id=case.case_id) for case in corpus(seed)]
            assert single == run_corpus(seed)[:len(single)]

    def test_report_json_shape(self):
        rep = run_corpus(only="neg-unit-single-strip")[0]
        payload = report_to_json(rep)
        assert payload["verdict"] == "pass"
        assert set(payload) == {"case_id", "lambda", "claim", "observed", "verdict", "details"}
        assert payload["lambda"] == -1.0
