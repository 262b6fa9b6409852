import math
import re

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from lelonglab import InputError, QuadratureConfig, QuadratureFailure, integrate
from lelonglab.quadrature import _NODES, _W_KRONROD, integrate_lockstep


class TestIntegrate:
    def test_exponential_exact(self):
        value, err = integrate(np.exp, 0.0, 1.0)
        assert value == pytest.approx(math.e - 1.0, abs=1e-13)
        assert err < 1e-10

    def test_oscillatory(self):
        value, _ = integrate(lambda x: np.cos(40.0 * x), 0.0, math.pi)
        assert value == pytest.approx(math.sin(40.0 * math.pi) / 40.0, abs=1e-11)

    def test_empty_interval(self):
        assert integrate(np.exp, 2.0, 2.0) == (0.0, 0.0)

    def test_reversed_interval_rejected(self):
        with pytest.raises(InputError):
            integrate(np.exp, 1.0, 0.0)

    def test_nonfinite_endpoint_rejected(self):
        with pytest.raises(InputError):
            integrate(np.exp, 0.0, math.inf)

    def test_failure_carries_best_estimate(self):
        # endpoint singularity x^{-0.9}: integrable but not resolvable at
        # 1e-12 within the depth budget
        with pytest.raises(QuadratureFailure) as exc_info:
            integrate(lambda x: x**-0.9, 0.0, 1.0, rel_tol=1e-13, abs_tol=1e-15, max_depth=10)
        failure = exc_info.value
        # exact value is 10; the unresolved corner loses some mass but the
        # carried estimate must still be in the right ballpark
        assert 5.0 < failure.best_estimate < 10.5
        assert failure.error_estimate > 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_integrand_raises(self, bad):
        # nan > tol is False, so a NaN panel used to end the loop at once
        with pytest.raises(QuadratureFailure, match=r"\[0\.0, 1\.0\]") as exc_info:
            integrate(lambda x: np.full_like(x, bad), 0.0, 1.0)
        assert math.isnan(exc_info.value.best_estimate)

    def test_nonfinite_found_after_splitting(self):
        # finite on the first panel's nodes, infinite on a refined panel's
        def f(x):
            return np.where(x > 0.999, math.inf, np.sin(50.0 * x))

        with pytest.raises(QuadratureFailure, match="non-finite"):
            integrate(f, 0.0, 1.0)

    @given(
        a=st.floats(min_value=-4.0, max_value=4.0),
        width=st.floats(min_value=1e-6, max_value=8.0),
        c2=st.floats(min_value=-3.0, max_value=3.0),
        c1=st.floats(min_value=-3.0, max_value=3.0),
        c0=st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_polynomials_exact(self, a, width, c2, c1, c0):
        # Gauss-Kronrod nodes integrate low-degree polynomials exactly
        b = a + width
        value, err = integrate(lambda x: c2 * x * x + c1 * x + c0, a, b)
        want = c2 * (b**3 - a**3) / 3.0 + c1 * (b**2 - a**2) / 2.0 + c0 * (b - a)
        assert value == pytest.approx(want, rel=1e-12, abs=1e-10)


def _oscillating(x):
    return np.exp(-0.3 * x) * (2.0 + np.sin(3.0 * x))


class TestSubRanges:
    def test_one_full_range_is_the_plain_call(self):
        plain = integrate(_oscillating, 0.0, 9.0)
        assert integrate(_oscillating, 0.0, 9.0, ranges=[(0.0, 9.0)]) == [plain]

    def test_each_range_meets_its_own_tolerance(self):
        ranges = [(lo, 12.0) for lo in (0.0, 0.7, 1.4, 2.8, 5.6)] + [(1.0, 3.0)]
        rel_tol, abs_tol = 1e-10, 1e-13
        parts = integrate(_oscillating, 0.0, 12.0, rel_tol=rel_tol, abs_tol=abs_tol, ranges=ranges)
        assert len(parts) == len(ranges)
        for (lo, hi), (value, err) in zip(ranges, parts):
            alone, alone_err = integrate(_oscillating, lo, hi, rel_tol=rel_tol, abs_tol=abs_tol)
            assert abs(value - alone) <= err + alone_err + 1e-15 * abs(alone)
            assert err <= max(abs_tol, rel_tol * abs(value))

    def test_gaps_between_ranges_are_not_evaluated(self):
        def f(x):
            assert not np.any((x > 1.0) & (x < 2.0)), "evaluated inside the gap"
            return np.cos(x)

        (v1, _), (v2, _) = integrate(f, 0.0, 3.0, ranges=[(0.0, 1.0), (2.0, 3.0)])
        assert v1 == pytest.approx(math.sin(1.0), rel=1e-12)
        assert v2 == pytest.approx(math.sin(3.0) - math.sin(2.0), rel=1e-12)

    def test_empty_and_invalid_ranges(self):
        assert integrate(np.exp, 0.0, 1.0, ranges=[(0.5, 0.5)]) == [(0.0, 0.0)]
        with pytest.raises(InputError):
            integrate(np.exp, 0.0, 1.0, ranges=[(0.5, 1.5)])
        with pytest.raises(InputError):
            integrate(np.exp, 0.0, 1.0, ranges=[(0.6, 0.4)])

    def test_deterministic(self):
        ranges = [(0.0, 8.0), (0.5, 8.0), (3.0, 5.0)]
        assert integrate(_oscillating, 0.0, 8.0, ranges=ranges) == integrate(
            _oscillating, 0.0, 8.0, ranges=ranges
        )

    def test_reopened_range_gets_its_parked_panels_back(self):
        # a constant integrand plus a chosen Kronrod-only error per panel;
        # ranges A = [0, 2] and B = [1, 3] share the panel [1, 2]
        inject = {(0.0, 1.0): 1e-3, (1.0, 2.0): 5e-4, (2.0, 3.0): 1e-4,
                  (1.0, 1.5): 6e-4, (1.5, 2.0): 6e-4}
        seen = []

        def f(x):
            half = (x[-1] - x[7]) / _NODES[-1]
            lo, hi = round(float(x[7] - half), 9), round(float(x[7] + half), 9)
            seen.append((lo, hi))
            out = np.where(x < 2.0, 1.0, -1.0)
            out[0::2] += inject.get((lo, hi), 0.0) / (half * _W_KRONROD[0::2].sum())
            return out

        (va, ea), (vb, eb) = integrate(
            f, 0.0, 3.0, rel_tol=1e-3, abs_tol=1e-9, ranges=[(0.0, 2.0), (1.0, 3.0)]
        )
        # A starts converged, so its worst panel [0, 1] is parked while B
        # refines; splitting [1, 2] raises A's error over budget again, and
        # [0, 1] is then the worst panel of an open range
        assert (0.0, 0.5) in seen and (0.5, 1.0) in seen
        assert va == pytest.approx(2.0, abs=1e-12) and ea <= 1e-9
        assert vb == pytest.approx(0.0, abs=1e-12) and eb <= 1e-9

    def test_rows_share_the_partition(self):
        calls = []

        def pair(x):
            calls.append(x.size)
            return np.stack((_oscillating(x), np.abs(np.cos(x))))

        (value, err), = integrate(pair, 0.0, 9.0, ranges=[(0.0, 9.0)])
        plain, plain_err = integrate(_oscillating, 0.0, 9.0)
        assert value.shape == err.shape == (2,)
        assert value[0] == pytest.approx(plain, rel=1e-14)
        assert err[0] == pytest.approx(plain_err, rel=1e-6, abs=1e-18)
        # row 0 alone steers: as many panels as the scalar integral needs
        scalar_calls = []
        integrate(lambda x: scalar_calls.append(x.size) or _oscillating(x), 0.0, 9.0)
        assert len(calls) == len(scalar_calls)

    def test_failure_with_rows_reports_row_zero_as_floats(self):
        # the x^{-0.9} corner of test_failure_carries_best_estimate, with a
        # second row that must not leak into the reported estimate
        def pair(x):
            return np.stack((x**-0.9, np.ones_like(x)))

        with pytest.raises(QuadratureFailure) as exc_info:
            integrate(pair, 0.0, 1.0, rel_tol=1e-13, abs_tol=1e-15, max_depth=10)
        failure = exc_info.value
        assert type(failure.best_estimate) is float
        assert type(failure.error_estimate) is float
        assert 5.0 < failure.best_estimate < 10.5
        assert failure.error_estimate > 0.0


def _job_integrand(kind, params):
    """A vectorized integrand with per-job parameters."""
    if kind == "exp":
        rate, freq = params[0], 10.0 * abs(params[1])
        return lambda x: np.exp(rate * x) * (2.0 + np.sin(freq * x))
    # degree 17 and up is past what the 7-point Gauss rule integrates exactly
    return lambda x: np.polynomial.polynomial.polyval(x / 4.0, params)


def _rows_of(integrands, seen=None):
    """f(rows, v) evaluating every row with its own job's integrand."""

    def f(rows, v):
        if seen is not None:
            seen.append(np.bincount(rows, minlength=len(integrands)))
        out = np.empty(v.shape)
        for j in np.unique(rows):
            out[rows == j] = integrands[j](v[rows == j])
        return out

    return f


_SPANS = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted), min_size=1, max_size=3
)
_JOBS = st.lists(
    st.tuples(
        st.sampled_from(["exp", "poly"]),
        st.floats(-3.0, 3.0),
        st.floats(1e-3, 10.0),
        st.lists(st.floats(-2.0, 2.0), min_size=18, max_size=21),
        _SPANS,
    ),
    min_size=1,
    max_size=6,
)


class TestLockstep:
    @given(jobs=_JOBS)
    @settings(max_examples=60, deadline=None)
    def test_each_job_as_if_alone(self, jobs):
        integrands, specs = [], []
        for kind, a, width, params, spans in jobs:
            integrands.append(_job_integrand(kind, params))
            specs.append((a, a + width, [(a + width * lo, a + width * hi) for lo, hi in spans]))
        seen = []
        together = integrate_lockstep(_rows_of(integrands, seen), specs, rel_tol=1e-10)
        per_job = np.sum(seen, axis=0) if seen else np.zeros(len(specs), dtype=int)
        for j, (g, (a, b, spans)) in enumerate(zip(integrands, specs)):
            calls = []
            alone = integrate(lambda x: calls.append(1) or g(x), a, b, rel_tol=1e-10, ranges=spans)
            assert per_job[j] == len(calls)
            for (value, err), (want, want_err) in zip(together[j], alone):
                assert value == pytest.approx(want, rel=1e-14, abs=1e-300)
                assert err == pytest.approx(want_err, rel=1e-14, abs=1e-300)
        # one call seeds every job, then one call per round: a job splits
        # one panel per round, so the busiest job sets the count
        if seen:
            splits = (per_job - seen[0]) // 2
            assert len(seen) == 1 + max(splits)

    def test_no_jobs(self):
        assert integrate_lockstep(_rows_of([]), []) == []

    def test_panel_budget_is_per_job(self):
        easy, hard = np.exp, lambda x: np.cos(200.0 * x)
        jobs = [(0.0, 1.0, [(0.0, 1.0)]), (0.0, 10.0, [(0.0, 10.0)]), (0.0, 2.0, [(0.0, 2.0)])]
        with pytest.raises(QuadratureFailure, match="panel budget 20 exhausted") as exc_info:
            integrate_lockstep(_rows_of([easy, hard, easy]), jobs, max_panels=20)
        assert exc_info.value.job == 1
        assert exc_info.value.ranges == (0,)
        # the easy jobs alone stay within that budget
        parts = integrate_lockstep(_rows_of([easy, easy]), [jobs[0], jobs[2]], max_panels=20)
        assert parts[0][0][0] == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_lowest_failing_job_is_reported(self):
        # jobs 1 and 2 run out of depth in the same round; job 0 converges
        hard = lambda x: np.cos(200.0 * x)
        jobs = [(0.0, 1.0, [(0.0, 1.0)]), (0.0, 10.0, [(0.0, 10.0)]), (0.0, 10.0, [(0.0, 10.0)])]
        with pytest.raises(QuadratureFailure, match="no convergence at depth 3") as exc_info:
            integrate_lockstep(_rows_of([np.exp, hard, hard]), jobs, max_depth=3)
        assert exc_info.value.job == 1

    def test_nonfinite_row_names_its_interval(self):
        def spiky(x):
            # finite on the seed panel's nodes, infinite once refined near 0.999
            return np.where(x > 0.999, math.inf, np.sin(50.0 * x))

        jobs = [(0.0, 1.0, [(0.0, 1.0)])] * 3
        with pytest.raises(QuadratureFailure, match="non-finite") as exc_info:
            integrate_lockstep(_rows_of([np.exp, spiky, spiky]), jobs)
        failure = exc_info.value
        assert failure.job == 1
        lo, hi = map(float, re.search(r"on \[(\S+), (\S+)\]", str(failure)).groups())
        assert 0.0 <= lo < hi == 1.0 and hi - lo < 0.5
        assert math.isnan(failure.best_estimate)

    def test_nonfinite_seed_panel(self):
        jobs = [(0.0, 1.0, [(0.0, 0.5), (0.5, 1.0)]), (2.0, 3.0, [(2.0, 3.0)])]
        nan_past_two = lambda x: np.where(x > 2.5, math.nan, x)
        with pytest.raises(QuadratureFailure, match=r"non-finite integrand on \[2\.0, 3\.0\]") as exc_info:
            integrate_lockstep(_rows_of([np.exp, nan_past_two]), jobs)
        assert exc_info.value.job == 1

    def test_rows_of_several_integrands(self):
        # (P, 2, 15) blocks, as the Poisson atoms give: row 0 steers, the
        # second row (the grid-model defect there) rides on the same nodes
        def pair(params):
            g = _job_integrand("exp", params)
            return lambda x: np.stack((g(x), 1e-3 * np.abs(np.cos(x))))

        pairs = [pair((-0.3, 0.4)), pair((0.2, 1.9))]
        jobs = [(0.0, 9.0, [(0.0, 9.0), (2.0, 9.0)]), (-1.0, 4.0, [(-1.0, 4.0)])]

        def f(rows, v):
            return np.stack([pairs[j](x) for j, x in zip(rows, v)])

        together = integrate_lockstep(f, jobs)
        for j, (a, b, spans) in enumerate(jobs):
            alone = integrate(pairs[j], a, b, ranges=spans)
            steer = []
            integrate(lambda x: steer.append(1) or pairs[j](x)[0], a, b, ranges=spans)
            pair_calls = []
            integrate(lambda x: pair_calls.append(1) or pairs[j](x), a, b, ranges=spans)
            assert len(pair_calls) == len(steer)
            for (value, err), (want, want_err) in zip(together[j], alone):
                assert value.shape == err.shape == (2,)
                assert np.array_equal(value, want) and np.array_equal(err, want_err)
                assert value[1] > 0.0


class TestConfig:
    def test_defaults(self):
        cfg = QuadratureConfig()
        assert cfg.rel_tol == 1e-9
        assert cfg.abs_tol == 1e-12
        assert cfg.max_depth == 16

    def test_validation(self):
        with pytest.raises(InputError):
            QuadratureConfig(rel_tol=-1.0)
        with pytest.raises(InputError):
            QuadratureConfig(max_depth=0)


def _logged(f, log):
    """f(rows, v), recording a copy of every row block and node block."""

    def g(rows, v):
        log.append((rows.copy(), v.copy()))
        return f(rows, v)

    return g


def _outcome(engine, f, jobs, **kw):
    log = []
    try:
        result = ("ok", engine(_logged(f, log), jobs, **kw))
    except QuadratureFailure as exc:
        result = ("failure", str(exc), exc.job, exc.ranges, exc.best_estimate, exc.error_estimate)
    return result, log


def _same_numbers(x, y):
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return type(x) is type(y) and x.shape == y.shape and x.tobytes() == y.tobytes()
    if isinstance(x, float) and isinstance(y, float):
        return type(x) is type(y) and (x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
                                       or math.isnan(x) and math.isnan(y))
    if isinstance(x, (list, tuple)):
        return type(x) is type(y) and len(x) == len(y) and all(map(_same_numbers, x, y))
    return x == y


def _assert_same_as_heap(f, jobs, **kw):
    from oracles import integrate_lockstep as heap_lockstep

    got, got_log = _outcome(integrate_lockstep, f, jobs, **kw)
    want, want_log = _outcome(heap_lockstep, f, jobs, **kw)
    assert _same_numbers(got, want), (got, want)
    assert len(got_log) == len(want_log)
    for (rows, v), (want_rows, want_v) in zip(got_log, want_log):
        assert rows.dtype == want_rows.dtype and np.array_equal(rows, want_rows)
        assert v.tobytes() == want_v.tobytes()
    return got, got_log


def _noisy(seed):
    """1 on [a, b] plus a Kronrod-only error that depends on the panel.

    Errors of converged ranges jump when a shared panel is split, so ranges
    reopen and parked panels come back into play.
    """

    def g(x):
        half = (x[-1] - x[7]) / _NODES[-1]
        key = hash((seed, round(float(x[7]), 9), round(float(half), 9))) % 1000
        out = np.ones_like(x)
        with np.errstate(divide="ignore", over="ignore"):  # a panel too narrow for its nodes is non-finite
            out[0::2] += 1e-3 * key / 1000.0 / (half * _W_KRONROD[0::2].sum())
        return out

    return g


_RANGES = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted), min_size=1, max_size=4
)


class TestAgainstHeapEngine:
    """Bit for bit what the heap engine of tests/oracles.py gives."""

    @given(
        jobs=st.lists(
            st.tuples(
                st.sampled_from(["exp", "poly", "noisy"]),
                st.floats(-3.0, 3.0),
                st.floats(1e-3, 10.0),
                st.lists(st.floats(-2.0, 2.0), min_size=18, max_size=21),
                _RANGES,
                st.sampled_from([None] * 12 + [0.3, 0.9]),
            ),
            min_size=1,
            max_size=8,
        ),
        two_rows=st.booleans(),
        rel_tol=st.sampled_from([1e-3, 1e-10]),
        max_depth=st.sampled_from([3, 6, 16]),
        max_panels=st.sampled_from([4, 12, 20000]),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_partitions_numbers_and_failures(self, jobs, two_rows, rel_tol, max_depth, max_panels):
        integrands, specs = [], []
        for j, (kind, a, width, params, spans, spike) in enumerate(jobs):
            g = _noisy(j) if kind == "noisy" else _job_integrand(kind, params)
            if spike is not None:  # infinite past a point, found while refining or at once
                cut = a + width * spike
                g = (lambda g, cut: lambda x: np.where(x > cut, math.inf, g(x)))(g, cut)
            if two_rows:
                g = (lambda g: lambda x: np.stack((g(x), np.abs(np.cos(x)))))(g)
            integrands.append(g)
            specs.append((a, a + width, [(a + width * lo, a + width * hi) for lo, hi in spans]))

        def f(rows, v):
            return np.stack([integrands[j](x) for j, x in zip(rows.tolist(), v)])

        (kind, *rest), _ = _assert_same_as_heap(f, specs, rel_tol=rel_tol, abs_tol=1e-12,
                                                max_depth=max_depth, max_panels=max_panels)
        event(kind if kind == "ok" else rest[0].split(" ")[0])

    def test_reopened_range(self):
        # the injected errors of test_reopened_range_gets_its_parked_panels_back
        inject = {(0.0, 1.0): 1e-3, (1.0, 2.0): 5e-4, (2.0, 3.0): 1e-4,
                  (1.0, 1.5): 6e-4, (1.5, 2.0): 6e-4}

        def g(x):
            half = (x[-1] - x[7]) / _NODES[-1]
            lo, hi = round(float(x[7] - half), 9), round(float(x[7] + half), 9)
            out = np.where(x < 2.0, 1.0, -1.0)
            out[0::2] += inject.get((lo, hi), 0.0) / (half * _W_KRONROD[0::2].sum())
            return out

        def f(rows, v):
            return np.stack([g(x) for x in v])

        jobs = [(0.0, 3.0, [(0.0, 2.0), (1.0, 3.0)])] * 3
        (_, parts), log = _assert_same_as_heap(f, jobs, rel_tol=1e-3, abs_tol=1e-9)
        assert parts[2][0][0] == pytest.approx(2.0, abs=1e-12)
        # [0, 1] was parked while only B was open, and is split after A reopens
        lefts = [float(x[7] - (x[-1] - x[7]) / _NODES[-1]) for _, v in log for x in v]
        assert any(abs(lo - 0.5) < 1e-12 for lo in lefts)

    def test_invalid_jobs(self):
        jobs = [(0.0, 1.0, [(0.0, 1.0)]), (0.0, 1.0, [(0.2, 0.1)]), (math.nan, 1.0, [])]
        for bad in ([jobs[0], (0.0, math.inf, [])], [jobs[0], (2.0, 1.0, [])], jobs, jobs[::-1]):
            with pytest.raises(InputError) as got:
                integrate_lockstep(_rows_of([np.exp] * 3), bad)
            from oracles import integrate_lockstep as heap_lockstep

            with pytest.raises(InputError) as want:
                heap_lockstep(_rows_of([np.exp] * 3), bad)
            assert str(got.value) == str(want.value)
