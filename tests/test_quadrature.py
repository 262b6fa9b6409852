import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lelonglab import InputError, QuadratureConfig, QuadratureFailure, integrate
from lelonglab.quadrature import _NODES, _W_KRONROD


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
