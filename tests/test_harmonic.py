import math
import re
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from lelonglab import (
    DomainError,
    FourierSpec,
    InputError,
    InvalidSpecError,
    NormalizationError,
    PoissonSpec,
    boundary_integral,
    boundary_value,
    check_positivity,
    evaluate,
    laplacian_residual,
    normalize,
    spec_from_json,
    spec_to_json,
    translate,
    verify_monodromy_relation,
    window_integral,
    window_model_error,
)
from lelonglab import harmonic
from lelonglab.harmonic import (
    FAR_ORDER, FAR_RATIO, LADDER_MIN_POINTS, fourier_columns, fourier_window, mode_integrals, poisson_window,
)

from conftest import flat_poisson, spanning_poisson


def bump_poisson(sigma=2.0, tail=0.3, half_turns=24, step_div=24):
    n = 2 * half_turns * step_div + 1
    ys = np.linspace(-half_turns * math.pi, half_turns * math.pi, n)
    values = tail + np.exp(-(ys**2) / (2.0 * sigma**2))
    return PoissonSpec(ys=ys, values=values, tail=tail)


class TestSpecValidation:
    def test_fourier_defaults(self):
        spec = FourierSpec()
        assert spec.b == 1 and spec.a0 == 1.0 and not spec.on_strip

    def test_growing_mode_rejected_on_half_plane(self):
        with pytest.raises(InvalidSpecError):
            FourierSpec(b=1, a0=1.0, modes=((1, 0.1, 0.0),))

    def test_growing_mode_allowed_on_strip(self):
        spec = FourierSpec(b=1, a0=1.0, modes=((1, 0.01, 0.0),), strip_c=0.5)
        assert spec.on_strip

    def test_zero_mode_index_rejected(self):
        with pytest.raises(InvalidSpecError):
            FourierSpec(modes=((0, 0.1, 0.0),))

    def test_bad_period_multiple(self):
        with pytest.raises(InvalidSpecError):
            FourierSpec(b=0)

    def test_l1_violation_is_constructible(self):
        # the positivity counterexample must exist as a value; only
        # build_current rejects it
        spec = FourierSpec(b=1, a0=1.0, modes=((-1, 2.0, 0.0),))
        assert spec.mode_l1() == 2.0

    def test_poisson_grid_validation(self):
        with pytest.raises(InvalidSpecError):
            PoissonSpec(ys=np.array([0.0, 1.0, 1.5]), values=np.ones(3))  # nonuniform
        with pytest.raises(InvalidSpecError):
            PoissonSpec(ys=np.array([0.0, 1.0, 2.0]), values=np.ones(3))  # asymmetric
        with pytest.raises(InvalidSpecError):
            PoissonSpec(ys=np.array([-1.0, 1.0]), values=np.array([1.0, -0.5]))

    @pytest.mark.parametrize("field, spec", [
        ("spec.a0", lambda: FourierSpec(a0=math.inf)),
        ("spec.b0", lambda: FourierSpec(b0=math.nan)),
        ("spec.modes", lambda: FourierSpec(modes=((-1, math.nan, 0.0),))),
        ("spec.strip_c", lambda: FourierSpec(strip_c=math.inf)),
        ("spec.boundary.ys", lambda: PoissonSpec(ys=np.array([-1.0, math.nan, 1.0]), values=np.ones(3))),
        ("spec.boundary.values", lambda: PoissonSpec(ys=np.array([-1.0, 0.0, 1.0]), values=np.array([1.0, math.nan, 1.0]))),
        ("spec.boundary.tail", lambda: PoissonSpec(ys=np.array([-1.0, 1.0]), values=np.ones(2), tail=math.inf)),
        ("spec.c_lin", lambda: PoissonSpec(ys=np.array([-1.0, 1.0]), values=np.ones(2), c_lin=math.nan)),
    ])
    def test_non_finite_field_named(self, field, spec):
        with pytest.raises(InvalidSpecError, match=f"^{re.escape(field)}: .*finite"):
            spec()

    def test_poisson_arrays_frozen(self):
        spec = flat_poisson()
        with pytest.raises(ValueError):
            spec.values[0] = 5.0


class TestEvaluate:
    def test_constant(self):
        assert evaluate(FourierSpec(), 1.3, 2.7) == pytest.approx(1.0)

    def test_single_mode_values(self):
        spec = FourierSpec(b=1, a0=1.0, modes=((-1, 1.0, 0.0),))
        assert evaluate(spec, 0.0, 0.0) == pytest.approx(2.0)
        assert evaluate(spec, math.pi, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert evaluate(spec, 0.0, 1.0) == pytest.approx(1.0 + math.exp(-1.0))

    def test_strip_base_profile(self):
        spec = FourierSpec(b=1, a0=1.0, b0=1.0, strip_c=2.0)
        assert evaluate(spec, 0.0, 1.0) == pytest.approx(0.5 + 1.0)
        assert evaluate(spec, 0.0, 2.0) == pytest.approx(2.0)

    def test_below_domain_rejected(self):
        with pytest.raises(DomainError):
            evaluate(FourierSpec(), 0.0, -0.5)

    def test_above_strip_rejected(self):
        with pytest.raises(DomainError):
            evaluate(FourierSpec(strip_c=1.0), 0.0, 1.5)

    def test_broadcasting(self):
        spec = FourierSpec(b=2, a0=1.0, modes=((-1, 0.2, 0.1),))
        us = np.linspace(0.0, 1.0, 4)[:, None]
        vs = np.linspace(0.0, 2.0, 3)[None, :]
        out = evaluate(spec, us, vs)
        assert out.shape == (4, 3)

    def test_periodicity(self):
        spec = FourierSpec(b=3, a0=0.7, modes=((-1, 0.2, 0.1), (-5, 0.05, 0.0)))
        us = np.linspace(0.0, 6.0 * math.pi, 17)
        a = evaluate(spec, us, 0.8)
        b = evaluate(spec, us + 6.0 * math.pi, 0.8)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_poisson_boundary_limit(self):
        # at v = 0 the evaluation routes to the data exactly; above it, the
        # kernel acts as an approximate identity once v clears a few grid
        # steps (the trapezoid sum cannot resolve heights below the step)
        spec = bump_poisson()
        ys = np.array([-3.0, 0.0, 1.7])
        at_boundary = evaluate(spec, ys, 0.0)
        assert np.max(np.abs(at_boundary - boundary_value(spec, ys))) < 1e-12
        for v in (1.0, 0.5):
            near = evaluate(spec, ys, v)
            assert np.max(np.abs(near - boundary_value(spec, ys))) < 2.0 * v

    def test_poisson_tail_value(self):
        spec = bump_poisson(tail=0.3)
        assert boundary_value(spec, 1e6) == pytest.approx(0.3)


class TestHarmonicity:
    @pytest.mark.parametrize(
        "spec",
        [
            FourierSpec(b=2, a0=1.0, b0=0.5, modes=((-1, 0.2, 0.1), (-3, 0.05, 0.02))),
            FourierSpec(b=1, a0=1.0, modes=((1, 0.005, 0.0), (-2, 0.1, 0.0)), strip_c=3.0),
            bump_poisson(),
        ],
    )
    def test_laplacian_small(self, spec):
        res = laplacian_residual(spec, u=0.4, v=1.1, h=1e-3)
        scale = abs(evaluate(spec, 0.4, 1.1)) + 1.0
        assert abs(res) < 1e-4 * scale

    def test_laplacian_constant_exact(self):
        assert abs(laplacian_residual(FourierSpec(), 0.0, 1.0, 1e-3)) < 1e-9

    def test_stencil_domain_checks(self):
        with pytest.raises(DomainError):
            laplacian_residual(FourierSpec(), 0.0, 0.0005, 1e-3)
        with pytest.raises(DomainError):
            laplacian_residual(FourierSpec(strip_c=1.0), 0.0, 0.9999, 1e-3)
        for h in (0.0, -1e-3):
            with pytest.raises(DomainError, match="^stencil step must be positive$"):
                laplacian_residual(FourierSpec(), 0.0, 1.0, h)

    @pytest.mark.parametrize(
        "spec",
        [
            FourierSpec(b=1, a0=1.0, modes=((-1, 0.3, 0.2),)),
            bump_poisson(),
        ],
    )
    def test_mean_value_property(self, spec):
        u0, v0, rho = 0.3, 2.0, 1.5
        center = evaluate(spec, u0, v0)

        def integrand(theta):
            return evaluate(spec, u0 + rho * math.cos(theta), v0 + rho * math.sin(theta))

        avg, _ = quad(integrand, 0.0, 2.0 * math.pi, limit=200, epsabs=1e-12)
        assert avg / (2.0 * math.pi) == pytest.approx(center, abs=1e-8)


class TestPositivity:
    def test_constant_positive(self):
        assert check_positivity(FourierSpec())

    def test_l1_saturated_positive(self):
        spec = FourierSpec(b=1, a0=1.0, modes=((-1, 0.6, 0.0), (-2, 0.25, 0.1)))
        assert check_positivity(spec)

    def test_violating_spec_detected(self):
        # eval(pi, 0) = 1 - 2 = -1
        spec = FourierSpec(b=1, a0=1.0, modes=((-1, 2.0, 0.0),))
        assert evaluate(spec, math.pi, 0.0) == pytest.approx(-1.0)
        assert not check_positivity(spec)

    def test_poisson_positive(self):
        assert check_positivity(bump_poisson())

    def test_growth_past_the_float_range_is_invalid(self):
        # e^{k C / b} = e^{843} at the upper edge
        spec = FourierSpec(b=1, a0=0.999, modes=((4000, 0.001, 0.0),), strip_c=math.log(0.9) / -0.5)
        with pytest.raises(InvalidSpecError, match=r"^spec\.modes: .* overflows a float"):
            check_positivity(spec)

    def test_multi_mode_edge_certified_by_scan(self):
        # (1 - cos u)^2 + 1e-9: positive, but its envelope 1.5 - 2 - 0.5 is -1
        spec = FourierSpec(b=1, a0=1.5 + 1e-9, modes=((-1, -2.0, 0.0), (-2, 0.5, 0.0)))
        assert check_positivity(spec)
        dipping = FourierSpec(b=1, a0=1.5 - 1e-9, modes=((-1, -2.0, 0.0), (-2, 0.5, 0.0)))
        assert not check_positivity(dipping)

    def test_cancelling_modes_are_the_zero_density(self):
        # two k = -3 modes that cancel: the density is identically 0, which
        # the scan alone could not certify within its budget
        zero = FourierSpec(b=1, a0=0.0, b0=0.0, modes=((-3, 0.5, -0.5), (-3, -0.5, 0.5)))
        assert check_positivity(zero)
        # modes of equal k are summed: 1 - 0.6 cos u - 0.6 cos u dips at u = 0
        assert not check_positivity(FourierSpec(b=1, a0=1.0, modes=((-1, -0.6, 0.0), (-2, 0.01, 0.0), (-1, -0.6, 0.0))))

    def test_trig_spec_makes_no_2d_evaluate_call(self, monkeypatch):
        ndims = []
        real = harmonic.evaluate

        def spy(spec, u, v):
            ndims.append(np.broadcast(np.asarray(u), np.asarray(v)).ndim)
            return real(spec, u, v)

        monkeypatch.setattr(harmonic, "evaluate", spy)
        specs = [
            FourierSpec(b=1, a0=1.0, modes=((-1, 0.3, 0.2),)),
            FourierSpec(b=3, a0=1.0, b0=0.5, modes=((2, 0.1, -0.2),), strip_c=1.2),
            # fails the envelope on v = 0, so the edge is scanned
            FourierSpec(b=2, a0=1.0, b0=2.0, modes=((1, 0.6, 0.0), (-2, 0.5, 0.0)), strip_c=0.7),
        ]
        for spec in specs:
            assert check_positivity(spec)
        assert max(ndims, default=0) < 2
        # Poisson data is positive by construction: no evaluate call at all
        calls = len(ndims)
        assert check_positivity(bump_poisson())
        assert len(ndims) == calls


@st.composite
def trig_specs(draw, min_modes=1, max_modes=3, strip=st.booleans()):
    strip = draw(strip)
    b = draw(st.sampled_from([1, 2, 3]))
    ks = st.sampled_from([-3, -2, -1, 1, 2, 3] if strip else [-3, -2, -1])
    coef = st.floats(min_value=-0.5, max_value=0.5)
    modes = draw(st.lists(st.tuples(ks, coef, coef), min_size=min_modes, max_size=max_modes))
    return FourierSpec(
        b=b,
        a0=draw(st.floats(min_value=0.0, max_value=2.0)),
        b0=draw(st.floats(min_value=0.0, max_value=2.0)),
        modes=tuple(modes),
        strip_c=draw(st.floats(min_value=0.1, max_value=1.5)) if strip else None,
    )


def _edge_heights(spec):
    return (0.0, spec.strip_c) if spec.on_strip else (0.0,)


class TestEdgeCertificate:
    """check_positivity on trig specs against a fine grid on the edges."""

    FINE = 1 << 14

    def fine_grid(self, spec):
        us = np.linspace(0.0, 2.0 * math.pi * spec.b, self.FINE, endpoint=False)
        return us, us[1]

    def grid_miss(self, spec, v, h):
        """M h^2 / 8: how far the true minimum can sit below the grid's."""
        curvature = sum((k / spec.b) ** 2 * math.hypot(a, bb) * math.exp(k * v / spec.b)
                        for k, a, bb in spec.modes)
        return curvature * h * h / 8.0

    def fine_minimum(self, spec):
        """Least sample on the edges, and the most the grid can miss by."""
        us, h = self.fine_grid(spec)
        sampled = min(float(evaluate(spec, us, v).min()) for v in _edge_heights(spec))
        return sampled, max(self.grid_miss(spec, v, h) for v in _edge_heights(spec))

    @given(spec=trig_specs())
    @example(spec=FourierSpec(b=1, a0=0.0, b0=0.0, modes=((-3, 0.5, -0.5), (-3, -0.5, 0.5))))
    @settings(max_examples=200, deadline=None)
    def test_against_fine_grid(self, spec):
        accepted = check_positivity(spec)
        sampled, miss = self.fine_minimum(spec)
        if sampled < -1e-12:
            assert not accepted
        if sampled - miss >= 1e-6:
            assert accepted

    @given(spec=trig_specs(max_modes=1))
    @settings(max_examples=200, deadline=None)
    def test_one_mode_exact(self, spec):
        ((k, a, bb),) = spec.modes
        lowest = min(
            (spec.a0 * (1.0 - v / spec.strip_c) + spec.b0 * v if spec.on_strip else spec.a0)
            - math.hypot(a, bb) * math.exp(k * v / spec.b)
            for v in _edge_heights(spec)
        )
        assert check_positivity(spec) == (lowest >= -1e-12)

    @given(spec=trig_specs(min_modes=2, strip=st.just(False)), dip=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_near_touching_minimum(self, spec, dip):
        # shift a0 so the minimum on v = 0 sits just below or just above 0:
        # a dip far narrower than the scan's first 64 intervals
        us, h = self.fine_grid(spec)
        values = evaluate(spec, us, 0.0)
        i = int(np.argmin(values))
        polished = minimize_scalar(
            lambda u: evaluate(spec, u, 0.0), bounds=(us[i] - h, us[i] + h),
            method="bounded", options={"xatol": 1e-12},
        )
        lowest = min(float(polished.fun), float(values[i]))
        shift = -1e-6 if dip else 1e-6 + self.grid_miss(spec, 0.0, h)
        a0 = spec.a0 - lowest + shift
        assume(a0 >= 0.0)
        assert check_positivity(replace(spec, a0=a0)) == (not dip)


class TestNormalize:
    def test_fourier_example(self):
        spec = FourierSpec(b=1, a0=1.0, modes=((-1, 0.5, 0.0),))
        out = normalize(spec)
        assert out.a0 == pytest.approx(2.0 / 3.0)
        assert out.modes[0][1] == pytest.approx(1.0 / 3.0)
        assert evaluate(out, 0.0, 0.0) == pytest.approx(1.0)

    def test_poisson(self):
        out = normalize(bump_poisson(tail=0.3))
        assert evaluate(out, 0.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_rejected(self):
        spec = FourierSpec(b=1, a0=1.0, modes=((-1, -1.0, 0.0),))  # vanishes at base
        with pytest.raises(NormalizationError):
            normalize(spec)

    def test_overflowing_rescale_rejected(self):
        # a subnormal base or translation factor names itself, not the field it overflows
        values = np.ones(9)
        values[[4, 6]] = 5e-324  # at y = 0 and y = 2 pi
        subnormal = (FourierSpec(b=1, a0=5e-324, b0=1.0), FourierSpec(b=1, a0=0.0, modes=((-3, 5e-324, 0.5),)),
                     PoissonSpec(ys=np.linspace(-4.0 * math.pi, 4.0 * math.pi, 9), values=values))
        for spec in subnormal:
            with pytest.raises(NormalizationError, match=r"^degenerate normalization: .*5e-324"):
                normalize(spec)
        for spec in subnormal[:1] + subnormal[2:]:
            for k in (0, 1):
                with pytest.raises(NormalizationError, match=r"^degenerate normalization: .*5e-324"):
                    translate(spec, k)

    @given(spec=trig_specs(min_modes=0, max_modes=4))
    @example(spec=FourierSpec(b=1, a0=-0.0))
    @example(spec=FourierSpec(b=1, a0=0.0, b0=1.0, modes=((-1, -0.0, 0.5),)))
    # subnormal bases, whose rescale overflows
    @example(spec=FourierSpec(b=1, a0=5e-324, b0=1.0))
    @example(spec=FourierSpec(b=1, a0=0.0, modes=((-3, 5e-324, 0.5),)))
    @settings(max_examples=200, deadline=None)
    def test_trig_base_value_is_evaluate(self, spec):
        # normalize reads a0 + sum_k a_k where tests/oracles.py evaluates at (0, 0)
        import oracles

        def outcome(fn):
            try:
                out = fn(spec)
            except NormalizationError as exc:
                return str(exc)
            return [x.hex() for x in (out.a0, out.b0)] + [(k, a.hex(), bb.hex()) for k, a, bb in out.modes]

        want = outcome(oracles.normalize)
        assert outcome(normalize) == want
        if not isinstance(want, str):  # zero deck turns: its factor is the base value
            assert translate(spec, 0)[1].hex() == evaluate(spec, 0.0, 0.0).hex()


class TestTranslate:
    def test_fourier_translation_identity(self):
        spec = normalize(FourierSpec(b=2, a0=1.0, modes=((-1, 0.2, 0.1), (-3, 0.05, 0.02))))
        moved, c = translate(spec, 1)
        shift = 2.0 * math.pi
        us = np.linspace(-2.0, 2.0, 9)
        for v in (0.0, 0.5, 2.0):
            lhs = evaluate(spec, us + shift, v)
            rhs = c * np.asarray(evaluate(moved, us, v))
            assert np.max(np.abs(lhs - rhs)) < 1e-12
        assert evaluate(moved, 0.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_poisson_translation_identity(self):
        spec = normalize(bump_poisson())
        moved, c = translate(spec, 2)
        shift = 4.0 * math.pi
        us = np.linspace(-3.0, 3.0, 7)
        for v in (0.5, 1.0, 4.0):
            lhs = np.asarray(evaluate(spec, us + shift, v))
            rhs = c * np.asarray(evaluate(moved, us, v))
            # the translated grid loses 2|k| turns of covered boundary,
            # where the trapezoid sum hands off to the tail formula; that
            # seam keeps the identity from being exact, but only just
            assert np.max(np.abs(lhs - rhs)) < 1e-8 * max(1.0, float(np.max(np.abs(lhs))))

    def test_poisson_misaligned_shift_rejected(self):
        ys = np.linspace(-5.0, 5.0, 11)  # step 1 does not divide 2 pi
        spec = PoissonSpec(ys=ys, values=np.ones(11), tail=1.0)
        with pytest.raises(InvalidSpecError):
            translate(spec, 1)

    def test_poisson_narrow_grid_rejected(self):
        spec = flat_poisson(half_turns=2)
        with pytest.raises(InvalidSpecError):
            translate(spec, 4)

    def test_monodromy_relation_true_and_false(self):
        spec = normalize(FourierSpec(b=2, a0=1.0, modes=((-1, 0.2, 0.1),)))
        moved, _ = translate(spec, 1)
        assert verify_monodromy_relation(spec, moved, 1)
        tampered = FourierSpec(
            b=moved.b,
            a0=moved.a0,
            b0=moved.b0,
            modes=tuple((k, a * 1.01, bb) for k, a, bb in moved.modes),
        )
        assert not verify_monodromy_relation(spec, tampered, 1)

    def test_monodromy_relation_on_a_strip(self):
        # a strip density is compared on heights up to its strip_c, where it
        # is defined; the linear part b0 shows only above v = 0
        spec = normalize(FourierSpec(b=2, a0=1.0, b0=0.3, modes=((-1, 0.1, 0.05),), strip_c=1.5))
        moved, _ = translate(spec, 1)
        assert verify_monodromy_relation(spec, moved, 1)
        assert not verify_monodromy_relation(spec, replace(moved, b0=moved.b0 * 1.01), 1)


class TestWindowIntegral:
    @pytest.mark.parametrize(
        "spec",
        [
            FourierSpec(b=2, a0=0.8, b0=0.3, modes=((-1, 0.2, 0.1), (-3, 0.05, 0.02))),
            FourierSpec(b=1, a0=1.0, modes=((-2, 0.1, 0.05), (1, 0.002, 0.0)), strip_c=2.5),
            bump_poisson(),
            flat_poisson(c_lin=0.4),
        ],
    )
    @pytest.mark.parametrize("window", [(0.0, 2.0 * math.pi), (-1.3, 5.1)])
    def test_matches_quadrature_oracle(self, spec, window):
        u0, u1 = window
        for v in (0.25, 1.0, 2.3):
            want, _ = quad(lambda u: evaluate(spec, u, v), u0, u1, limit=200, epsabs=1e-12)
            got = window_integral(spec, u0, u1, v)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-11)

    def test_vector_heights(self):
        spec = bump_poisson()
        vs = np.array([0.5, 1.0, 2.0])
        out = window_integral(spec, 0.0, 2.0 * math.pi, vs)
        assert out.shape == (3,)
        assert np.all(out > 0.0)

    def test_poisson_boundary_height_matches_boundary_integral(self):
        spec = flat_poisson()
        got = window_integral(spec, 0.0, 2.0 * math.pi, 0.0)
        assert got == pytest.approx(boundary_integral(spec, 0.0, 2.0 * math.pi), rel=1e-12)

    def test_needs_ordered_window(self):
        with pytest.raises(DomainError):
            window_integral(FourierSpec(), 1.0, 1.0, 0.5)

    # modes with b | k, whose whole-turn integrals are 0, among the others
    STACKED = (
        FourierSpec(b=2, a0=0.8, b0=0.3, modes=((-1, 0.2, 0.1), (-2, 0.03, -0.01), (-3, 0.05, 0.02))),
        FourierSpec(b=1, a0=1.0, modes=((-2, 0.1, 0.05), (1, 0.002, 0.0)), strip_c=2.5),
        FourierSpec(b=1, a0=1.0),
        FourierSpec(b=3, a0=0.5, b0=0.1, modes=((3, 0.004, 0.001), (-1, 0.01, -0.02)), strip_c=4.0),
    )

    @pytest.mark.parametrize("window", [(0.0, 2.0 * math.pi), (-1.3, 5.1)])
    def test_stacked_window_is_the_per_spec_call(self, window):
        # rows padded with zero modes, half-planes with an infinite strip
        # height: each row is bit for bit its own spec's window integral
        u0, u1 = window
        stacked = fourier_window(fourier_columns(self.STACKED), u0, u1)
        rows = np.array([3, 0, 2, 1, 3])
        vs = np.linspace(0.0, 2.5, 15 * rows.size).reshape(rows.size, 15)
        block = window_integral(stacked.take(rows), u0, u1, vs)
        assert block.shape == vs.shape
        for row, v, got in zip(rows, vs, block):
            assert np.array_equal(got, window_integral(self.STACKED[row], u0, u1, v))

    @pytest.mark.parametrize("window", [(0.0, 2.0 * math.pi), (-1.3, 5.1), (4.0 * math.pi, 6.0 * math.pi),
                                        (0.0, 2.0 * math.pi, 10**15), (-1.3, 5.1, -7)]
                             + [(0.0, 2.0 * math.pi, k0) for k0 in (-3, -2, -1, 1, 2, 3, 10**18 + 1)])
    def test_stacked_coefficients_are_the_scalar_formula(self, window):
        # each C_k within its rounding of the formula in mpmath, the turns
        # taken exactly: 8 eps b / |k| (|a_k| + |b_k|) (2 + |phases|). On the
        # whole turn [0, 2 pi], any number of turns out, a mode with b | k
        # integrates to exactly 0 and its window keeps only the other modes,
        # in their order; every other window keeps every mode
        from oracles import mp_mode_integrals

        u0, u1, turns = (window + (0,))[:3]
        whole = (u0, u1) == (0.0, 2.0 * math.pi)
        cols = fourier_columns(self.STACKED)
        coefs = iter(mode_integrals(cols, u0, u1, turns).tolist())
        stacked = fourier_window(cols, u0, u1, turns)
        assert (stacked.u0, stacked.u1) == (u0, u1)
        eps = np.finfo(float).eps
        for row, spec in enumerate(self.STACKED):
            with mpmath.workdps(40):
                shift = 2 * mpmath.pi * turns
                want = [float(c) for c in mp_mode_integrals(spec, u0 + shift, u1 + shift)]
            kept = []
            for (k, ak, bk), g, w in zip(spec.modes, coefs, want):
                if whole and k % spec.b == 0:
                    assert g == 0.0
                    continue
                kept.append(g)
                reach = 2.0 * math.pi * (turns * k % spec.b) + abs(k) * max(abs(u0), abs(u1))
                assert abs(g - w) <= 8.0 * eps * spec.b / abs(k) * (abs(ak) + abs(bk)) * (2.0 + 2.0 * reach / spec.b)
            assert stacked.coefs[row, :len(kept)].tolist() == kept
            assert not stacked.coefs[row, len(kept):].any()

    def test_stacked_window_checks_each_strip(self):
        stacked = fourier_window(fourier_columns(self.STACKED), 0.0, 2.0 * math.pi)
        vs = np.full((4, 15), 3.0)
        vs[1] = 2.0  # the only row whose strip is lower than 3
        window_integral(stacked, 0.0, 2.0 * math.pi, vs)
        vs[1, 7] = 2.6
        with pytest.raises(DomainError, match="v = 2.6 above the strip height 2.5"):
            window_integral(stacked, 0.0, 2.0 * math.pi, vs)
        with pytest.raises(DomainError, match="below the boundary"):
            window_integral(stacked, 0.0, 2.0 * math.pi, -vs)

    def test_stacked_window_is_tied_to_its_u_window(self):
        stacked = fourier_window(fourier_columns(self.STACKED), 0.0, 2.0 * math.pi)
        with pytest.raises(InputError):
            window_integral(stacked, 0.0, 1.0, np.zeros((4, 15)))

    @pytest.mark.parametrize("y", [-0.5, -3.0, -2.0 * math.pi, -804.2477, -1e4, -1e6])
    @pytest.mark.parametrize("window", [(0.0, 2.0 * math.pi), (-1.3, 5.1), (6.0 * math.pi, 8.0 * math.pi)])
    def test_poisson_kernel_against_mpmath(self, y, window):
        # a three-point grid whose only nonzero sample sits at y: the window
        # integral is then step/2 times one kernel entry over pi
        u0, u1 = window
        spec = PoissonSpec(ys=np.array([y, 0.0, -y]), values=np.array([1.0, 0.0, 0.0]))
        vs = np.array([1e-3, 0.01, 0.5, 3.0, 40.0, 1e3])
        got = window_integral(spec, u0, u1, vs)
        mpmath.mp.dps = 40
        for v, g in zip(vs, got):
            yy, vv = mpmath.mpf(y), mpmath.mpf(v)
            kern = mpmath.atan((yy - u0) / vv) - mpmath.atan((yy - u1) / vv)
            want = float(-yy / 2 * kern / mpmath.pi)
            assert g == pytest.approx(want, rel=1e-15, abs=0.0)


class TestWindowModelError:
    @staticmethod
    def _flat(n):
        # samples 1 over a tail of 0, so every node departs from the tail
        ys = np.linspace(-16.0 * math.pi, 16.0 * math.pi, n)
        return PoissonSpec(ys=ys, values=np.ones(n), tail=0.0)

    @pytest.mark.parametrize("odd, even", [(769, 768), (1537, 1536)])
    def test_even_grid_probe_spans_the_grid(self, odd, even):
        # an even-length grid has an odd number of steps; the half-grid
        # probe must still reach its last node, or it reports the missing
        # interval as model error
        window = (0.0, 2.0 * math.pi, 0.5)
        on_odd = window_model_error(self._flat(odd), *window)
        on_even = window_model_error(self._flat(even), *window)
        assert on_odd / 10.0 <= on_even <= 10.0 * on_odd

    def test_odd_grid_probe_unchanged(self):
        # the gap of samples 1 over a tail of 0 is that of samples 1 over a
        # tail of 1 in the model that summed the samples themselves, frozen
        # from the probe before it learned even grids. That model took value
        # - coarse, which rounds at a few ulps of the window integral; the
        # gap of the two kernel sums does not, and is frozen from this one,
        # with the partial cell of the window's end at 2 pi, which the grid
        # puts 7e-15 past its nearest node
        got = window_model_error(self._flat(769), 0.0, 2.0 * math.pi, np.array([0.05, 0.5, 2.0]))
        before = np.array([1.3923305175467249e-08, 1.392045358983296e-07, 5.550900699091699e-07])
        assert np.all(np.abs(got - before) <= 8.0 * np.finfo(float).eps * 2.0 * math.pi)
        assert list(got) == [1.3923306154307344e-08, 1.3920453602476562e-07, 5.550900698628672e-07]

    def test_bounds_the_full_grid_deviation(self):
        # the full-grid sum of smooth data is far closer to the continuum
        # than the half-grid probe: the probe gap must dominate its error
        spec = bump_poisson(sigma=1.0, tail=0.0, step_div=6)
        fine = bump_poisson(sigma=1.0, tail=0.0, step_div=96)
        for v in (0.3, 1.0, 4.0):
            gap = window_model_error(spec, 0.0, 2.0 * math.pi, v)
            dev = abs(window_integral(spec, 0.0, 2.0 * math.pi, v)
                      - window_integral(fine, 0.0, 2.0 * math.pi, v))
            assert dev <= gap

    @pytest.mark.parametrize("tail", [0.3, 1.0, 5.0])
    def test_bounds_the_full_grid_deviation_over_a_tail(self, tail):
        # the same over a tail: the tail is exact on both grids, so only the
        # bump is left to the grid sums
        spec = bump_poisson(sigma=1.0, tail=tail, step_div=6)
        fine = bump_poisson(sigma=1.0, tail=tail, step_div=96)
        for v in (0.3, 1.0, 4.0):
            gap = window_model_error(spec, 0.0, 2.0 * math.pi, v)
            dev = abs(window_integral(spec, 0.0, 2.0 * math.pi, v)
                      - window_integral(fine, 0.0, 2.0 * math.pi, v))
            assert dev <= gap


def _grid_spec(n, step, shape, tail, c_lin, seed):
    """An n-node symmetric grid of the given step with flat, bump or random data.

    Flat data sits half a unit above the tail, and the bump decays like
    1/y^2, never to the tail, so that every node departs from the tail and
    enters the kernel sums.
    """
    ys = np.linspace(-0.5 * (n - 1) * step, 0.5 * (n - 1) * step, n)
    if shape == "flat":
        values = np.full(n, tail + 0.5)
    elif shape == "bump":
        values = tail + 1.0 / (1.0 + (ys / 7.0) ** 2)
    else:
        values = np.random.default_rng(seed).uniform(0.0, 3.0, n)
    return PoissonSpec(ys=ys, values=values, tail=tail, c_lin=c_lin)


def _panel_heights(rng, panels):
    """(panels, 15) heights > 0, each panel's between its own v_lo and v_hi, so the panels take different shells."""
    v_hi = 60.0 * 10.0 ** -rng.uniform(0.0, 4.0, (panels, 1))
    return v_hi * (1.0 - rng.uniform(0.0, 1.0, (panels, 1)) * np.sort(rng.uniform(size=(panels, 15)), axis=1))


class TestFarField:
    @pytest.mark.parametrize("h", [math.pi, 1e-3, 40.0])
    @pytest.mark.parametrize("factor", [1.0001, 1.7, 25.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_single_node_series_identity(self, h, factor, sign):
        # one far node at s: its moments (R / |s|)^p about a shell R that
        # the heights allow reproduce its kernel entry at every height
        vs = np.array([1e-6, 0.1, 0.5, 1.0, 3.0, 17.0]) * h
        radius = FAR_RATIO * (h + vs.max())
        s = sign * factor * radius
        p = np.arange(2, FAR_ORDER + 1, 2)
        betas = harmonic._far_coefficients(((radius / abs(s)) ** p)[None, :], np.array([h / radius]))
        got = harmonic._far_sum(betas[0], vs / radius)
        want = np.arctan2(2.0 * h * vs, vs * vs + s * s - h * h)
        x = (h + vs.max()) / abs(s)
        assert x < 1.0 / FAR_RATIO
        assert np.all(np.abs(got - want) <= 2.0 * x ** (FAR_ORDER + 1) / (1.0 - x) + 4e-16 * want)

    @given(
        n=st.integers(min_value=LADDER_MIN_POINTS, max_value=20000),
        step=st.one_of(
            st.integers(min_value=6, max_value=48).map(lambda m: math.pi / m),
            st.floats(min_value=0.02, max_value=0.3),
        ),
        shape=st.sampled_from(["flat", "bump", "random"]),
        tail=st.floats(min_value=0.0, max_value=2.0),
        c_lin=st.sampled_from([0.0, 0.6]),
        k0=st.integers(min_value=-2, max_value=2),
        seed=st.integers(min_value=0, max_value=2**16),
        v_lo=st.floats(min_value=1e-4, max_value=60.0),
        spread=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_ladder_against_direct_sum(self, n, step, shape, tail, c_lin, k0, seed, v_lo, spread):
        from oracles import poisson_rows as direct

        spec = _grid_spec(n, step, shape, tail, c_lin, seed)
        u0 = 2.0 * math.pi * k0
        u1 = u0 + 2.0 * math.pi
        window = poisson_window(spec, u0, u1)
        assert window.full.radii.size > 0
        assert window.probe.radii.size > 0 or window.probe.gap.size < LADDER_MIN_POINTS
        # a 15-node block in (0, 60]
        vs = v_lo + (60.0 - v_lo) * spread * np.sort(np.random.default_rng(seed).uniform(size=15))
        value, model = harmonic.poisson_rows(window, vs)
        want_value, want_model = direct(spec, u0, u1, vs)
        v_max = vs.max()
        full, probe = window.full.remainder(v_max), window.probe.remainder(v_max)
        if window.full.shell(v_max) is None:
            assert full == probe == 0.0
            assert np.array_equal(value, want_value) and np.array_equal(model, want_model)
        else:
            rounding = 1e-14 * math.pi * np.abs(window.full.weighted).sum()
            assert np.all(np.abs(value - want_value) <= full + rounding)
            # each far sum is within its remainder, and the model row adds
            # 2 full + probe on top of the gap, so it still covers the
            # direct sums' gap
            excess = model - want_model - (2.0 * full + probe)
            assert np.all(np.abs(excess) <= full + probe + 2.0 * rounding)

    def test_small_grids_stay_direct(self):
        from oracles import poisson_rows as direct

        spec = spanning_poisson(c_lin=0.4)  # 769 nodes, probe 385
        window = poisson_window(spec, 0.0, 2.0 * math.pi)
        assert (window.full.gap.size, window.probe.gap.size) == (769, 385)
        assert window.full.radii.size == window.probe.radii.size == 0
        vs = np.array([0.0, 0.05, 0.5, 3.0, 40.0])
        value, model = harmonic.poisson_rows(window, vs)
        want_value, want_model = direct(spec, 0.0, 2.0 * math.pi, vs)
        assert np.array_equal(value, want_value) and np.array_equal(model, want_model)

    def test_model_error_carries_the_remainders(self):
        from oracles import poisson_rows as direct

        spec = spanning_poisson(c_lin=0.4, half_turns=256)  # 12289 nodes
        u0, u1 = 2.0 * math.pi, 4.0 * math.pi
        window = poisson_window(spec, u0, u1)
        assert window.full.gap.size == 12289
        vs = np.linspace(0.5, 4.0, 15)
        remainder = 2.0 * window.full.remainder(4.0) + window.probe.remainder(4.0)
        assert 0.0 < remainder < 1e-13
        # the same exact tail and linear part makes the full grid's kernel
        # sum a window integral, and the gap is the two sums', with the
        # remainders and the window's partial cells on top
        full, probe = harmonic._poisson_window(window, vs)
        level = (spec.tail + spec.c_lin * vs) * (u1 - u0)
        assert np.array_equal(window_integral(spec, u0, u1, vs), full / math.pi + level)
        got = window_model_error(spec, u0, u1, vs)
        partial = harmonic._partial_cell_error(spec, window.cells, vs)
        assert np.array_equal(got, np.abs(full - probe) / math.pi + (remainder + partial))
        _, plain = direct(spec, u0, u1, vs)
        assert np.allclose(got, plain, rtol=0.0, atol=remainder + 1e-12)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestOneKernelBlock:
    @given(
        # up to 2397 nodes the grid has a shell ladder but its probe has none
        n=st.one_of(st.integers(min_value=300, max_value=20000),
                    st.integers(min_value=LADDER_MIN_POINTS, max_value=2 * LADDER_MIN_POINTS - 1)),
        step=st.one_of(
            st.integers(min_value=6, max_value=48).map(lambda m: math.pi / m),
            st.floats(min_value=0.02, max_value=0.3),
        ),
        shape=st.sampled_from(["flat", "bump", "random"]),
        tail=st.floats(min_value=0.0, max_value=2.0),
        c_lin=st.sampled_from([0.0, 0.6]),
        k0=st.integers(min_value=-2, max_value=2),
        zeros=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
        v_lo=st.floats(min_value=1e-4, max_value=60.0),
        spread=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_two_pass_sums(self, n, step, shape, tail, c_lin, k0, zeros, seed, v_lo, spread):
        # the probe's entries taken from the full grid's block, and the tail
        # terms worked out once, give the two separate sums bit for bit
        from oracles import poisson_rows as two_pass

        spec = _grid_spec(n, step, shape, tail, c_lin, seed)
        u0 = 2.0 * math.pi * k0
        u1 = u0 + 2.0 * math.pi
        window = poisson_window(spec, u0, u1)
        # a 15-node block in [0, 60], its first nodes at v = 0
        vs = v_lo + (60.0 - v_lo) * spread * np.sort(np.random.default_rng(seed).uniform(size=15))
        vs[:zeros] = 0.0
        value, model = two_pass(spec, u0, u1, vs, window)
        rows = harmonic.poisson_rows(window, vs)
        assert rows.shape == (2, 15)
        assert _bits(rows[0]) == _bits(value) and _bits(rows[1]) == _bits(model)
        assert _bits(window_integral(spec, u0, u1, vs)) == _bits(value)
        assert _bits(window_model_error(spec, u0, u1, vs)) == _bits(model)

    @given(
        panels=st.integers(min_value=1, max_value=16),
        # up to 2397 nodes the grid has a shell ladder but its probe has none
        n=st.one_of(st.integers(min_value=300, max_value=20000),
                    st.integers(min_value=LADDER_MIN_POINTS, max_value=2 * LADDER_MIN_POINTS - 1)),
        step=st.one_of(
            st.integers(min_value=6, max_value=48).map(lambda m: math.pi / m),
            st.floats(min_value=0.02, max_value=0.3),
        ),
        shape=st.sampled_from(["flat", "bump", "random"]),
        tail=st.floats(min_value=0.0, max_value=2.0),
        c_lin=st.sampled_from([0.0, 0.6]),
        k0=st.integers(min_value=-2, max_value=2),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_panels_are_each_the_panel_alone(self, panels, n, step, shape, tail, c_lin, k0, seed):
        # the terms worked out for the whole (P, 15) block give every panel
        # the bits poisson_rows gives it alone, whatever its spec and shell
        rng = np.random.default_rng(seed)
        u0 = 2.0 * math.pi * k0
        u1 = u0 + 2.0 * math.pi
        pair = [poisson_window(_grid_spec(n, step, shape, tail, c_lin, seed), u0, u1),
                poisson_window(_grid_spec(n, step, "random", 0.5 * tail, 0.6 - c_lin, seed + 1), u0, u1)]
        windows = [pair[i] for i in rng.integers(0, 2, panels)]
        v = _panel_heights(rng, panels)
        assert (v > 0.0).all()
        rows = harmonic.poisson_panel_rows(windows, v)
        assert rows.shape == (panels, 2, 15)
        for window, heights, got in zip(windows, v, rows):
            assert _bits(got) == _bits(harmonic.poisson_rows(window, heights))

    @given(
        n=st.one_of(st.integers(min_value=300, max_value=20000),
                    st.integers(min_value=LADDER_MIN_POINTS, max_value=2 * LADDER_MIN_POINTS - 1)),
        step=st.floats(min_value=0.02, max_value=0.3),
        shape=st.sampled_from(["flat", "bump", "random"]),
        tail=st.floats(min_value=0.0, max_value=2.0),
        c_lin=st.sampled_from([0.0, 0.6]),
        k0=st.integers(min_value=-2, max_value=2),
        zeros=st.sampled_from([0, 1, 3, 14, 15]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_boundary_heights_are_the_boundary_integral(self, n, step, shape, tail, c_lin, k0, zeros, seed):
        # poisson_rows alone takes v = 0: there the rows are the boundary
        # integral and error 0, and above it the panel rows, bit for bit
        u0 = 2.0 * math.pi * k0
        u1 = u0 + 2.0 * math.pi
        spec = _grid_spec(n, step, shape, tail, c_lin, seed)
        window = poisson_window(spec, u0, u1)
        heights = _panel_heights(np.random.default_rng(seed), 1)[0]
        heights[:zeros] = 0.0
        rows = harmonic.poisson_rows(window, heights)
        assert rows.shape == (2, 15)
        assert (rows[0, :zeros] == boundary_integral(spec, u0, u1)).all()
        assert (rows[1, :zeros] == 0.0).all()
        if zeros < 15:
            above = harmonic.poisson_panel_rows((window,), heights[None, zeros:])[0]
            assert _bits(rows[:, zeros:]) == _bits(above)

    def test_panel_rows_refuse_the_boundary(self):
        window = poisson_window(flat_poisson(), 0.0, 2.0 * math.pi)
        for bad in (0.0, -0.0, -1e-12, math.nan):
            v = np.array([[0.5, 1.0], [2.0, bad]])
            with pytest.raises(DomainError, match="not above the boundary"):
                harmonic.poisson_panel_rows((window, window), v)

    @pytest.mark.parametrize("n", [769, 768])
    def test_rows_keep_the_shape_of_v(self, n):
        spec = TestWindowModelError._flat(n)
        window = poisson_window(spec, 0.0, 2.0 * math.pi)
        vs = np.array([[0.0, 0.5], [2.0, 7.0]])
        rows = harmonic.poisson_rows(window, vs)
        assert rows.shape == (2, 2, 2)
        assert _bits(rows[0]) == _bits(window_integral(spec, 0.0, 2.0 * math.pi, vs))
        assert _bits(rows[1]) == _bits(window_model_error(spec, 0.0, 2.0 * math.pi, vs))
        assert harmonic.poisson_rows(window, 0.5).shape == (2,)
        assert isinstance(window_integral(spec, 0.0, 2.0 * math.pi, 0.5), float)

    def test_rows_check_their_inputs(self):
        spec = flat_poisson()
        with pytest.raises(DomainError, match="u0 < u1"):
            poisson_window(spec, 1.0, 1.0)
        with pytest.raises(DomainError, match="u0 < u1"):
            window_integral(spec, 1.0, 1.0, 0.5)
        window = poisson_window(spec, 0.0, 2.0 * math.pi)
        with pytest.raises(DomainError, match="below the boundary"):
            harmonic.poisson_rows(window, np.array([0.5, -0.1]))


class _Arctan2Entries:
    """Stands in for numpy inside harmonic, counting the entries of every arctan2 block."""

    def __init__(self, monkeypatch):
        self.entries = 0
        monkeypatch.setattr(harmonic, "np", self)

    def __getattr__(self, name):
        return getattr(np, name)

    def arctan2(self, y, x):
        out = np.arctan2(y, x)
        self.entries += out.size
        return out


class TestTailExactModel:
    @given(
        n=st.integers(min_value=3, max_value=3000),
        step=st.one_of(
            st.integers(min_value=6, max_value=48).map(lambda m: math.pi / m),
            st.floats(min_value=0.02, max_value=0.3),
        ),
        tail=st.floats(min_value=0.0, max_value=2.0),
        c=st.floats(min_value=0.0, max_value=10.0),
        c_lin=st.sampled_from([0.0, 0.6]),
        k0=st.integers(min_value=-2, max_value=2),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_constant_on_data_and_tail_adds_its_window_integral(self, n, step, tail, c, c_lin, k0, seed):
        # the tail's extension is exact, so raising the data and the tail by
        # c leaves the kernel sums as they were but for the rounding of the
        # departures, and adds c (u1 - u0)
        rng = np.random.default_rng(seed)
        ys = np.linspace(-0.5 * (n - 1) * step, 0.5 * (n - 1) * step, n)
        values = rng.uniform(0.0, 3.0, n)
        u0 = 2.0 * math.pi * k0
        u1 = u0 + 2.0 * math.pi
        vs = 10.0 ** rng.uniform(-3.0, math.log10(50.0), 15)
        base = window_integral(PoissonSpec(ys=ys, values=values, tail=tail, c_lin=c_lin), u0, u1, vs)
        raised = window_integral(PoissonSpec(ys=ys, values=values + c, tail=tail + c, c_lin=c_lin), u0, u1, vs)
        width = u1 - u0
        ulps = 8.0 * np.finfo(float).eps * (values.max() + tail + c + c_lin * vs) * width
        assert np.all(np.abs(raised - base - c * width) <= ulps)

    @pytest.mark.parametrize("n, half_width", [(769, 16.0 * math.pi), (768, 16.0 * math.pi),
                                               (12289, 256.0 * math.pi)])
    @pytest.mark.parametrize("k0", [0, 1])
    def test_flat_data_is_exact_and_computes_no_kernel_entry(self, n, half_width, k0, monkeypatch):
        # samples equal to the tail leave no node to sum: the rows are the
        # tail's extension, exactly, and its model error is 0, also on the
        # 768-node grid, whose step does not divide 2 pi
        ys = np.linspace(-half_width, half_width, n)
        spec = PoissonSpec(ys=ys, values=np.full(n, 1.7), tail=1.7, c_lin=0.4)
        u0 = 2.0 * math.pi * k0
        u1 = u0 + 2.0 * math.pi
        vs = np.array([1e-4, 0.05, 0.5, 3.0, 40.0])
        count = _Arctan2Entries(monkeypatch)
        assert list(window_integral(spec, u0, u1, vs)) == list((spec.tail + spec.c_lin * vs) * (u1 - u0))
        assert list(window_model_error(spec, u0, u1, vs)) == [0.0] * vs.size
        assert count.entries == 0

    @pytest.mark.parametrize("tail", [0.0, 0.3, 1.96])
    @given(
        n=st.integers(min_value=3, max_value=3001),
        step=st.one_of(
            st.integers(min_value=6, max_value=48).map(lambda m: math.pi / m),
            st.floats(min_value=0.02, max_value=0.3),
        ),
        kind=st.sampled_from(["zero", "random", "sparse"]),
        c_lin=st.sampled_from([0.0, 0.6]),
        k0=st.integers(min_value=-2, max_value=2),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    # the 768-node grid over +-16 pi, whose step does not divide 2 pi: the
    # window's end at 2 pi cuts a cell that the half-grid probe aliases
    @example(n=768, step=32.0 * math.pi / 767.0, kind="zero", c_lin=0.0, k0=0, seed=0)
    @settings(max_examples=40, deadline=None)
    def test_model_error_keeps_the_window_integral_nonnegative(self, tail, n, step, kind, c_lin, k0, seed):
        # a sample below the tail weighs its node negatively, so the window
        # integral of nonnegative data can dip below 0, but not below minus
        # its model error, on any grid
        rng = np.random.default_rng(seed)
        ys = np.linspace(-0.5 * (n - 1) * step, 0.5 * (n - 1) * step, n)
        values = {"zero": np.zeros(n), "random": rng.uniform(0.0, 3.0, n),
                  "sparse": rng.uniform(0.0, 3.0, n) * (rng.uniform(size=n) < 0.2)}[kind]
        spec = PoissonSpec(ys=ys, values=values, tail=tail, c_lin=c_lin)
        u0 = 2.0 * math.pi * k0
        u1 = u0 + 2.0 * math.pi
        vs = np.concatenate(([1e-6, 1e-4], 10.0 ** rng.uniform(-4.0, math.log10(50.0), 13)))
        assert np.all(window_integral(spec, u0, u1, vs) + window_model_error(spec, u0, u1, vs) >= 0.0)

    @pytest.mark.parametrize("n", [768, 769, 1000])
    @pytest.mark.parametrize("k0", [-1, 0, 1])
    def test_model_error_covers_the_partial_cells(self, n, k0):
        # zero samples under a tail of 1.96 over +-16 pi: the continuum window
        # integral is the tail's extension less its part over the grid, in
        # closed form through the primitive s arctan(s/v) - (v/2) log(v^2 + s^2)
        # of arctan(s/v). On the 768- and 1000-node grids the window's ends cut
        # grid cells, and the model error must still cover the grid sum's
        # deviation; on the 769-node grid they fall on nodes
        ys = np.linspace(-16.0 * math.pi, 16.0 * math.pi, n)
        spec = PoissonSpec(ys=ys, values=np.zeros(n), tail=1.96)
        u0 = 2.0 * math.pi * k0
        u1 = u0 + 2.0 * math.pi
        vs = np.array([1e-6, 1e-4, 1e-2, 0.1, 0.5, 2.0])
        got = window_integral(spec, u0, u1, vs)
        err = window_model_error(spec, u0, u1, vs)
        mpmath.mp.dps = 40
        y = mpmath.mpf(spec.half_width)
        for v, value, bound in zip(vs, got, err):
            v = mpmath.mpf(v)

            def primitive(s):
                return s * mpmath.atan(s / v) - v / 2 * mpmath.log(v * v + s * s)

            over_grid = primitive(y - u0) - primitive(-y - u0) - primitive(y - u1) + primitive(-y - u1)
            want = spec.tail * (u1 - u0 - over_grid / mpmath.pi)
            assert abs(value - float(want)) <= bound + 1e-13


class TestBoundaryIntegral:
    def test_flat_window(self):
        spec = flat_poisson()
        assert boundary_integral(spec, 0.0, 2.0 * math.pi) == pytest.approx(2.0 * math.pi)

    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (2.0, 1.0)])
    def test_window_needs_lo_below_hi(self, lo, hi):
        with pytest.raises(DomainError, match="^boundary integral needs lo < hi$"):
            boundary_integral(flat_poisson(), lo, hi)

    def test_tail_only_window(self):
        spec = bump_poisson(tail=0.3, half_turns=24)
        lo = spec.half_width + 10.0
        assert boundary_integral(spec, lo, lo + 4.0) == pytest.approx(1.2)

    def test_straddling_window_against_quadrature(self):
        spec = bump_poisson()
        lo, hi = spec.half_width - 3.0, spec.half_width + 5.0
        want, _ = quad(lambda y: boundary_value(spec, y), lo, hi, limit=200)
        assert boundary_integral(spec, lo, hi) == pytest.approx(want, rel=1e-9)

    @given(
        lo=st.floats(min_value=-90.0, max_value=89.0),
        width=st.floats(min_value=1e-3, max_value=30.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_additivity(self, lo, width):
        spec = bump_poisson()
        mid = lo + 0.37 * width
        hi = lo + width
        total = boundary_integral(spec, lo, hi)
        split = boundary_integral(spec, lo, mid) + boundary_integral(spec, mid, hi)
        assert total == pytest.approx(split, rel=1e-12, abs=1e-12)


class TestSerialization:
    @pytest.mark.parametrize(
        "spec",
        [
            FourierSpec(b=2, a0=0.9, b0=0.1, modes=((-1, 0.2, 0.1),)),
            FourierSpec(b=1, a0=1.0, strip_c=1.5),
            bump_poisson(),
        ],
    )
    def test_round_trip(self, spec):
        again = spec_from_json(spec_to_json(spec))
        us = np.linspace(-4.0, 4.0, 9)
        v = 0.75
        assert np.allclose(evaluate(spec, us, v), evaluate(again, us, v), rtol=0, atol=1e-14)

    def test_missing_field_named(self):
        with pytest.raises(InputError, match="spec.type"):
            spec_from_json({})
        with pytest.raises(InputError, match="spec.boundary.ys"):
            spec_from_json({"type": "poisson", "boundary": {"values": [1, 1]}})

    def test_unknown_type_named(self):
        with pytest.raises(InputError, match="spec.type"):
            spec_from_json({"type": "wavelet"})
