import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lelonglab import (
    DomainError,
    Eigenvalue,
    InputError,
    coordinate_shift,
    equivalent,
    jacobian_density,
    leaf_domain,
    monodromy,
    psi,
    torus_curve,
)
from lelonglab.foliation import _jacobian_coefficients, jacobian_rows, plaque_limits

LAMBDAS = [
    Eigenvalue.rational(1, 1),
    Eigenvalue.rational(1, 2),
    Eigenvalue.rational(2, 3),
    Eigenvalue.irrational(math.sqrt(2.0) - 1.0),
    Eigenvalue.negative(-1.0),
    Eigenvalue.negative(-0.5),
]


class TestEigenvalue:
    def test_rational_reduces(self):
        lam = Eigenvalue.rational(2, 4)
        assert (lam.a, lam.b) == (1, 2)
        assert lam.value == 0.5
        assert lam.period == 2

    def test_irrational_has_no_period(self):
        assert Eigenvalue.irrational(1.0 / math.pi).period is None

    def test_negative_flag(self):
        lam = Eigenvalue.negative(-0.25)
        assert lam.is_negative
        assert not Eigenvalue.rational(1, 3).is_negative

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: Eigenvalue(0.0, "rational", 0, 1),
            lambda: Eigenvalue(1.5, "irrational"),
            lambda: Eigenvalue(-0.5, "irrational"),
            lambda: Eigenvalue(0.5, "negative"),
            lambda: Eigenvalue(0.5, "rational", 2, 4),
            lambda: Eigenvalue(0.5, "rational", 1, 3),
            lambda: Eigenvalue(0.5, "sporadic"),
        ],
    )
    def test_invalid_eigenvalues_rejected(self, bad):
        with pytest.raises(InputError):
            bad()


class TestLeafDomain:
    def test_positive_lambda_inner_atom(self):
        dom = leaf_domain(Eigenvalue.rational(1, 1), 0.5, 1.0)
        assert dom.kind == "half_plane"
        assert dom.v_min == 0.0

    def test_positive_lambda_outer_atom_binding_w(self):
        # |w| < r binds: v_min = (log|alpha| - log r)/lambda
        dom = leaf_domain(Eigenvalue.rational(1, 2), 1.2, 0.5)
        assert dom.kind == "half_plane"
        assert dom.v_min == pytest.approx((math.log(1.2) - math.log(0.5)) / 0.5, rel=1e-14)

    def test_negative_lambda_strip(self):
        dom = leaf_domain(Eigenvalue.negative(-1.0), math.exp(-1.0), 1.0)
        assert dom.kind == "strip"
        assert dom.v_min == 0.0
        assert dom.v_max == pytest.approx(1.0, rel=1e-14)

    def test_negative_lambda_empty_when_alpha_large(self):
        # |alpha| >= r^{1-lambda}: the two disc constraints cannot both hold
        dom = leaf_domain(Eigenvalue.negative(-1.0), math.exp(-1.0), 0.5)
        assert dom.is_empty
        assert not dom.contains(0.3)

    def test_domain_validation(self):
        lam = Eigenvalue.rational(1, 1)
        with pytest.raises(DomainError):
            leaf_domain(lam, 0.5, 0.0)
        with pytest.raises(DomainError):
            leaf_domain(lam, 0.5, 1.5)
        with pytest.raises(DomainError):
            leaf_domain(lam, -1.0, 0.5)

    def test_contains_respects_bounds(self):
        dom = leaf_domain(Eigenvalue.negative(-0.5), 0.25, 1.0)
        assert dom.contains(0.5 * (dom.v_min + dom.v_max))
        assert not dom.contains(dom.v_max + 1.0)


class TestPsiAndJacobian:
    @given(
        v=st.floats(min_value=0.0, max_value=30.0),
        u=st.floats(min_value=-50.0, max_value=50.0),
        idx=st.integers(min_value=0, max_value=len(LAMBDAS) - 1),
        am=st.floats(min_value=1e-3, max_value=3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_leaf_moduli(self, v, u, idx, am):
        # |z| = e^{-v} and |w| = |alpha| e^{-lambda v} along the leaf
        lam = LAMBDAS[idx]
        pt = psi(lam, am, u + 1j * v)
        assert abs(pt.z) == pytest.approx(math.exp(-v), rel=1e-12, abs=1e-300)
        assert abs(pt.w) == pytest.approx(am * math.exp(-lam.value * v), rel=1e-12, abs=1e-300)

    def test_jacobian_frozen_values(self):
        assert jacobian_density(Eigenvalue.rational(1, 1), 0.5, 0.0) == pytest.approx(2.5)
        assert jacobian_density(Eigenvalue.rational(1, 1), 1.0, 0.0) == pytest.approx(4.0)
        assert jacobian_density(Eigenvalue.negative(-1.0), 0.5, 0.0) == pytest.approx(2.5)

    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("am", [0.3, 0.9999999, 1.0])
    def test_jacobian_matches_derivative_of_psi(self, lam, am):
        # finite-difference |psi'|^2 oracle: 2(|dz/dzeta|^2 + |dw/dzeta|^2)
        h = 1e-5
        for v in (0.1, 0.7, 2.3):
            zp = (psi(lam, am, h + 1j * v).z - psi(lam, am, -h + 1j * v).z) / (2 * h)
            wp = (psi(lam, am, h + 1j * v).w - psi(lam, am, -h + 1j * v).w) / (2 * h)
            want = 2.0 * (abs(zp) ** 2 + abs(wp) ** 2)
            shift = coordinate_shift(lam, am)
            got = jacobian_density(lam, am, v - shift)
            assert got == pytest.approx(want, rel=1e-6)

    def test_branches_agree_at_unit_modulus(self):
        vs = np.linspace(0.0, 5.0, 11)
        for lam in LAMBDAS:
            inner = 2.0 * (np.exp(-2 * vs) + (lam.value * 1.0) ** 2 * np.exp(-2 * lam.value * vs))
            assert np.allclose(jacobian_density(lam, 1.0, vs), inner, rtol=1e-12)

    def test_accepts_arrays(self):
        out = jacobian_density(Eigenvalue.rational(1, 2), 0.5, np.array([0.0, 1.0]))
        assert out.shape == (2,)
        assert out[0] > out[1] > 0.0

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_array_of_moduli_is_the_scalar_calls(self, lam):
        # one modulus per row, both branches, bit for bit; numpy's own power
        # rounds differently from float ** on a few percent of such moduli
        moduli = np.exp(np.random.default_rng(5).uniform(-12.0, 3.0, 240))
        moduli[:3] = (1e-4, 0.9999999, 1.0)
        vs = np.linspace(0.0, 6.0, 15 * moduli.size).reshape(moduli.size, 15)
        block = jacobian_density(lam, moduli[:, None], vs)
        assert block.shape == vs.shape
        for am, v, row in zip(moduli.tolist(), vs, block):
            assert np.array_equal(row, jacobian_density(lam, am, v))


class TestMonodromy:
    @given(
        k1=st.integers(min_value=-5, max_value=5),
        k2=st.integers(min_value=-5, max_value=5),
        idx=st.integers(min_value=0, max_value=len(LAMBDAS) - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_composition(self, k1, k2, idx):
        lam = LAMBDAS[idx]
        alpha = 0.7 + 0.2j
        via = monodromy(lam, monodromy(lam, alpha, k1), k2)
        direct = monodromy(lam, alpha, k1 + k2)
        assert via == pytest.approx(direct, rel=1e-12)

    def test_rational_orbit_closes(self):
        lam = Eigenvalue.rational(1, 2)
        alpha = 0.8 * complex(math.cos(0.3), math.sin(0.3))
        assert monodromy(lam, alpha, 2) == pytest.approx(alpha, rel=1e-12)

    def test_equivalent_round_trip(self):
        lam = Eigenvalue.irrational(math.sqrt(2.0) - 1.0)
        alpha = 1.1 + 0.4j
        beta = monodromy(lam, alpha, 3)
        assert equivalent(lam, alpha, beta) == 3
        assert equivalent(lam, alpha, beta * 1.001) is None

    def test_equivalent_identity(self):
        lam = Eigenvalue.rational(1, 3)
        assert equivalent(lam, 0.5, 0.5) == 0

    def test_equivalent_rejects_zero(self):
        with pytest.raises(DomainError):
            equivalent(Eigenvalue.rational(1, 1), 0.0, 1.0)


class TestTorusCurve:
    def test_closes_for_rational(self):
        lam = Eigenvalue.rational(1, 2)
        curve = torus_curve(lam, 1.0, 0.5, u_span=4.0 * math.pi, samples=257)
        d0 = np.abs(curve[0] - curve[-1])
        wrap = np.minimum(d0, 2.0 * math.pi - d0)
        assert np.max(wrap) < 1e-9

    def test_example_waypoints(self):
        # lambda = 1, alpha real: curve passes (0,0) -> (pi,pi) -> (0,0)
        lam = Eigenvalue.rational(1, 1)
        curve = torus_curve(lam, 1.0, 0.5, u_span=2.0 * math.pi, samples=3)
        assert curve[0] == pytest.approx([0.0, 0.0], abs=1e-12)
        assert curve[1] == pytest.approx([math.pi, math.pi], rel=1e-12)
        d = np.abs(curve[2])
        assert np.max(np.minimum(d, 2.0 * math.pi - d)) < 1e-9

    def test_validation(self):
        lam = Eigenvalue.rational(1, 1)
        with pytest.raises(DomainError):
            torus_curve(lam, 1.0, 1.0, 2.0, 10)
        with pytest.raises(InputError):
            torus_curve(lam, 1.0, 0.5, 2.0, 1)
        with pytest.raises(InputError):
            torus_curve(lam, 1.0, 0.5, -2.0, 10)


class TestPlaqueArrays:
    """plaque_limits and coordinate_shift on arrays, bit for bit the scalar formulas."""

    @given(
        idx=st.integers(min_value=0, max_value=len(LAMBDAS) - 1),
        moduli=st.lists(st.floats(1e-3, 3.0), min_size=1, max_size=8),
        rs=st.lists(st.one_of(st.just(1.0), st.floats(1e-4, 1.0)), min_size=1, max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_entries_are_the_scalar_plaques(self, idx, moduli, rs):
        from oracles import _leaf_domain

        lam = LAMBDAS[idx]
        v_min, v_max, empty = plaque_limits(lam, moduli, rs)
        shifts = coordinate_shift(lam, np.array(moduli))
        for i, am in enumerate(moduli):
            assert float.hex(float(shifts[i])) == float.hex(coordinate_shift(lam, am))
            for n, r in enumerate(rs):
                want = _leaf_domain(lam.value, am, r)
                dom = leaf_domain(lam, am, r)
                assert bool(empty[i, n]) == (want is None) == dom.is_empty
                if want is None:
                    continue
                got = (float(v_min[i, n]), None if lam.value > 0.0 else float(v_max[i, n]))
                assert [None if x is None else float.hex(x) for x in got] == [
                    None if x is None else float.hex(x) for x in want]
                assert (dom.v_min, dom.v_max) == got
                assert math.copysign(1.0, dom.v_min) == math.copysign(1.0, want[0])

    def test_per_row_eigenvalues_are_each_rows_own(self):
        # rows of mixed eigenvalues, in runs and alone, against one call per
        # row with its Eigenvalue: plaques, shifts and Jacobian coefficients
        rng = np.random.default_rng(11)
        lams = [LAMBDAS[i] for i in rng.integers(0, len(LAMBDAS), 60)] + [LAMBDAS[0]] * 4
        moduli = np.exp(rng.uniform(-5.0, 1.0, len(lams)))
        moduli[:3] = (1.0, 0.9999999, 1.0000001)
        rs = [1.0, 0.5, 0.03]
        lv = np.array([lam.value for lam in lams])
        rows = plaque_limits(lv, moduli, rs)
        shifts = coordinate_shift(lv, moduli)
        coefficients = jacobian_rows(lv, moduli).coefficients
        for i, (lam, am) in enumerate(zip(lams, moduli.tolist())):
            one = plaque_limits(lam, [am], rs)
            for got, want in zip(rows, one):
                assert np.array_equal(got[i], want[0])
            assert float.hex(float(shifts[i])) == float.hex(coordinate_shift(lam, am))
            assert [float.hex(float(c)) for c in coefficients[:, i]] == [
                float.hex(c) for c in _jacobian_coefficients(lam.value, am)]

    def test_validation(self):
        lam = Eigenvalue.negative(-0.5)
        for moduli, rs in (([0.5, 0.0], [0.5]), ([0.5, math.nan], [0.5]), ([math.inf], [0.5])):
            with pytest.raises(DomainError, match="alpha modulus"):
                plaque_limits(lam, moduli, rs)
        for rs in ([0.5, 0.0], [1.5], [math.nan]):
            with pytest.raises(DomainError, match="radius"):
                plaque_limits(lam, [0.5], rs)
