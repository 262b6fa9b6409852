import math
import re
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from lelonglab.foliation import Eigenvalue
from lelonglab import harmonic
from lelonglab.harmonic import FAR_ORDER, FAR_RATIO, LADDER_MIN_POINTS, fourier_window, poisson_window

from conftest import flat_poisson


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

    def test_grid_validation(self):
        with pytest.raises(InputError):
            check_positivity(FourierSpec(), grid_u=0)

    def test_multi_mode_edge_certified_by_scan(self):
        # (1 - cos u)^2 + 1e-9: positive, but its envelope 1.5 - 2 - 0.5 is -1
        spec = FourierSpec(b=1, a0=1.5 + 1e-9, modes=((-1, -2.0, 0.0), (-2, 0.5, 0.0)))
        assert check_positivity(spec)
        dipping = FourierSpec(b=1, a0=1.5 - 1e-9, modes=((-1, -2.0, 0.0), (-2, 0.5, 0.0)))
        assert not check_positivity(dipping)

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
        # the spy does see the Poisson grid scan
        assert check_positivity(bump_poisson())
        assert max(ndims) == 2


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
        lam = Eigenvalue.rational(1, 2)
        spec = normalize(FourierSpec(b=2, a0=1.0, modes=((-1, 0.2, 0.1),)))
        moved, _ = translate(spec, 1)
        assert verify_monodromy_relation(lam, spec, moved, 1)
        tampered = FourierSpec(
            b=moved.b,
            a0=moved.a0,
            b0=moved.b0,
            modes=tuple((k, a * 1.01, bb) for k, a, bb in moved.modes),
        )
        assert not verify_monodromy_relation(lam, spec, tampered, 1)


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

    STACKED = (
        FourierSpec(b=2, a0=0.8, b0=0.3, modes=((-1, 0.2, 0.1), (-3, 0.05, 0.02))),
        FourierSpec(b=1, a0=1.0, modes=((-2, 0.1, 0.05), (1, 0.002, 0.0)), strip_c=2.5),
        FourierSpec(b=1, a0=1.0),
        FourierSpec(b=3, a0=0.5, b0=0.1, modes=((-1, 0.01, -0.02),), strip_c=4.0),
    )

    @pytest.mark.parametrize("window", [(0.0, 2.0 * math.pi), (-1.3, 5.1)])
    def test_stacked_window_is_the_per_spec_call(self, window):
        # rows padded with zero modes, half-planes with an infinite strip
        # height: each row is bit for bit its own spec's window integral
        u0, u1 = window
        stacked = fourier_window(self.STACKED, u0, u1)
        rows = np.array([3, 0, 2, 1, 3])
        vs = np.linspace(0.0, 2.5, 15 * rows.size).reshape(rows.size, 15)
        block = window_integral(stacked.take(rows), u0, u1, vs)
        assert block.shape == vs.shape
        for row, v, got in zip(rows, vs, block):
            assert np.array_equal(got, window_integral(self.STACKED[row], u0, u1, v))

    @pytest.mark.parametrize("window", [(0.0, 2.0 * math.pi), (-1.3, 5.1), (4.0 * math.pi, 6.0 * math.pi)])
    def test_stacked_coefficients_are_the_scalar_formula(self, window):
        from oracles import mode_window_coefficients as scalar_coefficients

        stacked = fourier_window(self.STACKED, *window)
        for row, spec in enumerate(self.STACKED):
            want = scalar_coefficients(spec, *window)
            got = stacked.coefs[row, :len(want)].tolist()
            assert [float.hex(x) for x in got] == [float.hex(x) for x in want]
            assert not stacked.coefs[row, len(want):].any()

    def test_stacked_window_checks_each_strip(self):
        stacked = fourier_window(self.STACKED, 0.0, 2.0 * math.pi)
        vs = np.full((4, 15), 3.0)
        vs[1] = 2.0  # the only row whose strip is lower than 3
        window_integral(stacked, 0.0, 2.0 * math.pi, vs)
        vs[1, 7] = 2.6
        with pytest.raises(DomainError, match="v = 2.6 above the strip height 2.5"):
            window_integral(stacked, 0.0, 2.0 * math.pi, vs)
        with pytest.raises(DomainError, match="below the boundary"):
            window_integral(stacked, 0.0, 2.0 * math.pi, -vs)

    def test_stacked_window_is_tied_to_its_u_window(self):
        stacked = fourier_window(self.STACKED, 0.0, 2.0 * math.pi)
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
    @pytest.mark.parametrize("spec", [bump_poisson(), flat_poisson(c_lin=0.4)])
    def test_reused_window_gives_the_same_bound(self, spec):
        u0, u1 = 2.0 * math.pi, 4.0 * math.pi
        vs = np.array([0.0, 0.05, 0.5, 3.0])
        window = window_integral(spec, u0, u1, vs)
        reused = window_model_error(spec, u0, u1, vs, window=window)
        assert np.array_equal(reused, window_model_error(spec, u0, u1, vs))
        assert reused[0] == 0.0 and np.all(reused >= 0.0)

    @staticmethod
    def _flat(n):
        ys = np.linspace(-16.0 * math.pi, 16.0 * math.pi, n)
        return PoissonSpec(ys=ys, values=np.ones(n), tail=1.0)

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
        # frozen from the probe before it learned even grids
        got = window_model_error(self._flat(769), 0.0, 2.0 * math.pi, np.array([0.05, 0.5, 2.0]))
        assert list(got) == [1.3923305175467249e-08, 1.392045358983296e-07, 5.550900699091699e-07]

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


def _grid_spec(n, step, shape, tail, c_lin, seed):
    """An n-node symmetric grid of the given step with flat, bump or random data."""
    ys = np.linspace(-0.5 * (n - 1) * step, 0.5 * (n - 1) * step, n)
    if shape == "flat":
        values = np.ones(n)
    elif shape == "bump":
        values = tail + np.exp(-(ys / 7.0) ** 2)
    else:
        values = np.random.default_rng(seed).uniform(0.0, 3.0, n)
    return PoissonSpec(ys=ys, values=values, tail=tail, c_lin=c_lin)


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
        probe=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
        v_lo=st.floats(min_value=1e-4, max_value=60.0),
        spread=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_ladder_against_direct_sum(self, n, step, shape, tail, c_lin, k0, probe, seed, v_lo, spread):
        spec = _grid_spec(n, step, shape, tail, c_lin, seed)
        u0 = 2.0 * math.pi * k0
        u1 = u0 + 2.0 * math.pi
        window = poisson_window(spec, u0, u1)
        grid = window.probe if probe else window.full
        ys, weighted = (harmonic._probe_samples if probe else harmonic._full_samples)(spec)
        direct = harmonic._boundary_grid(ys, weighted, u0, u1, ladder=False)
        assert grid.radii.size > 0 or grid.gap.size < LADDER_MIN_POINTS
        # a 15-node block in (0, 60]
        vs = v_lo + (60.0 - v_lo) * spread * np.sort(np.random.default_rng(seed).uniform(size=15))
        args = (spec.tail, spec.half_width, spec.c_lin, u0, u1, vs)
        got = harmonic._poisson_window(grid, *args)
        want = harmonic._poisson_window(direct, *args)
        if grid.shell(vs.max()) is None:
            assert np.array_equal(got, want)
        else:
            tol = grid.remainder(vs.max()) + 1e-14 * math.pi * weighted.sum()
            assert np.all(np.abs(got - want) <= tol)

    def test_small_grids_stay_direct(self):
        spec = flat_poisson(c_lin=0.4)  # 769 nodes, probe 385
        window = poisson_window(spec, 0.0, 2.0 * math.pi)
        assert window.full.radii.size == window.probe.radii.size == 0
        vs = np.array([0.0, 0.05, 0.5, 3.0, 40.0])
        row = window_integral(spec, 0.0, 2.0 * math.pi, vs, prepared=window)
        assert np.array_equal(row, window_integral(spec, 0.0, 2.0 * math.pi, vs))
        assert np.array_equal(
            window_model_error(spec, 0.0, 2.0 * math.pi, vs, prepared=window),
            window_model_error(spec, 0.0, 2.0 * math.pi, vs),
        )

    def test_model_error_carries_the_remainders(self):
        spec = flat_poisson(half_turns=256)  # 12289 nodes
        u0, u1 = 2.0 * math.pi, 4.0 * math.pi
        window = poisson_window(spec, u0, u1)
        vs = np.linspace(0.5, 4.0, 15)
        remainder = 2.0 * window.full.remainder(4.0) + window.probe.remainder(4.0)
        assert 0.0 < remainder < 1e-13
        row = window_integral(spec, u0, u1, vs, prepared=window)
        coarse = harmonic._poisson_window(window.probe, spec.tail, spec.half_width, spec.c_lin, u0, u1, vs)
        got = window_model_error(spec, u0, u1, vs, prepared=window)
        assert np.array_equal(got, np.abs(row - coarse) + remainder)
        plain = window_model_error(spec, u0, u1, vs)
        assert np.allclose(got, plain, rtol=0.0, atol=remainder + 1e-12)

    def test_prepared_window_is_tied_to_its_spec_and_u_window(self):
        spec = flat_poisson()
        window = poisson_window(spec, 0.0, 2.0 * math.pi)
        with pytest.raises(InputError):
            window_integral(spec, 0.0, 1.0, 0.5, prepared=window)
        with pytest.raises(InputError):
            window_model_error(flat_poisson(), 0.0, 2.0 * math.pi, 0.5, prepared=window)
        with pytest.raises(DomainError):
            poisson_window(spec, 1.0, 1.0)


class TestBoundaryIntegral:
    def test_flat_window(self):
        spec = flat_poisson()
        assert boundary_integral(spec, 0.0, 2.0 * math.pi) == pytest.approx(2.0 * math.pi)

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
