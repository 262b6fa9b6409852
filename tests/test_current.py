import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lelonglab import (
    Current,
    EmptyLeafError,
    Eigenvalue,
    FourierSpec,
    InputError,
    InvalidSpecError,
    NormalizationError,
    PoissonSpec,
    TransversalAtom,
    accumulation_family,
    build_current,
    check_positivity,
    current_from_json,
    current_to_json,
    eigenvalue_from_json,
    eigenvalue_to_json,
    evaluate,
    is_periodic,
    monodromy,
    monodromy_family,
    normalize,
    total_weight,
)
from lelonglab import harmonic
from lelonglab.current import _base_values, atom_table

from conftest import flat_poisson


def bump_poisson():
    n = 769
    ys = np.linspace(-16.0 * math.pi, 16.0 * math.pi, n)
    values = 0.3 + np.exp(-(ys**2) / 8.0)
    return normalize(PoissonSpec(ys=ys, values=values, tail=0.3))


class TestBuildCurrent:
    def test_accepts_normalized_atom(self, flagship):
        assert len(flagship.atoms) == 1
        assert total_weight(flagship) == 1.0

    def test_empty_atom_list_rejected(self):
        with pytest.raises(InputError):
            build_current(Eigenvalue.rational(1, 1), [])

    def test_unnormalized_atom_rejected(self):
        atom = TransversalAtom(0.5, 1.0, FourierSpec(b=1, a0=2.0))
        with pytest.raises(NormalizationError, match="atoms\\[0\\]"):
            build_current(Eigenvalue.rational(1, 1), [atom])

    def test_l1_budget_enforced_at_build(self):
        # base value is 1 (the sine part vanishes at u = 0), so the only
        # violated invariant is the coefficient budget itself
        spec = FourierSpec(b=1, a0=1.0, modes=((-1, 0.0, 2.0),))
        atom = TransversalAtom(0.5, 1.0, spec)
        with pytest.raises(InvalidSpecError, match="atoms\\[0\\]"):
            build_current(Eigenvalue.rational(1, 1), [atom])

    def test_strip_on_positive_eigenvalue_rejected(self):
        atom = TransversalAtom(0.5, 1.0, FourierSpec(b=1, a0=1.0, strip_c=1.0))
        with pytest.raises(InvalidSpecError):
            build_current(Eigenvalue.rational(1, 1), [atom])

    def test_negative_eigenvalue_needs_small_alpha(self):
        atom = TransversalAtom(1.5, 1.0, FourierSpec(b=1, a0=1.0, strip_c=1.0))
        with pytest.raises(EmptyLeafError):
            build_current(Eigenvalue.negative(-1.0), [atom])

    def test_negative_eigenvalue_needs_matching_strip_height(self):
        # |alpha| = 1/e and lambda = -1 dictate strip height exactly 1
        atom = TransversalAtom(math.exp(-1.0), 1.0, FourierSpec(b=1, a0=1.0, strip_c=2.0))
        with pytest.raises(InvalidSpecError):
            build_current(Eigenvalue.negative(-1.0), [atom])

    def test_negative_eigenvalue_needs_strip(self):
        atom = TransversalAtom(math.exp(-1.0), 1.0, FourierSpec(b=1, a0=1.0))
        with pytest.raises(InvalidSpecError):
            build_current(Eigenvalue.negative(-1.0), [atom])

    def test_zero_alpha_rejected(self):
        atom = TransversalAtom(0.0, 1.0, FourierSpec())
        with pytest.raises(InputError):
            build_current(Eigenvalue.rational(1, 1), [atom])

    def test_overflowing_alpha_rejected(self):
        # both parts finite, the modulus past the float range; no warning either
        atom = TransversalAtom(complex(1.5e308, 1.5e308), 1.0, FourierSpec())
        with np.errstate(over="raise"), pytest.raises(InputError, match=r"atoms\[0\]\.alpha: transversal point"):
            build_current(Eigenvalue.rational(1, 1), [atom])

    def test_nonpositive_weight_rejected(self):
        atom = TransversalAtom(0.5, 0.0, FourierSpec())
        with pytest.raises(InputError):
            build_current(Eigenvalue.rational(1, 1), [atom])

    def test_error_names_offending_atom(self):
        good = TransversalAtom(0.5, 1.0, FourierSpec())
        bad = TransversalAtom(0.7, 1.0, FourierSpec(b=1, a0=2.0))
        with pytest.raises(NormalizationError, match="atoms\\[1\\]"):
            build_current(Eigenvalue.rational(1, 1), [good, bad])


class TestStripPositivity:
    def test_dipping_strip_rejected(self):
        # one mode, so its envelope is exact: the density dips to about
        # -1.2e-3 on the upper edge, between the points of a 64 x 48 grid
        lam = Eigenvalue.negative(-0.5)
        spec = normalize(FourierSpec(
            b=3, a0=1.0, b0=0.777, modes=((2, -0.2707, 0.0743),), strip_c=math.log(0.777) / -0.5,
        ))
        us = np.linspace(0.0, 6.0 * math.pi, 20001)
        assert evaluate(spec, us, spec.strip_c).min() < -1e-3
        with pytest.raises(InvalidSpecError, match=r"atoms\[0\]\.spec: strip density dips negative"):
            build_current(lam, [TransversalAtom(0.777, 1.0, spec)])
        assert not check_positivity(spec)

    def test_uncertified_strip_names_atom(self, monkeypatch):
        # positive, but its v = 0 edge fails the envelope, so it is scanned,
        # and the scan needs more than a budget of one sample
        spec = normalize(FourierSpec(
            b=2, a0=1.0, b0=2.0, modes=((1, 0.6, 0.0), (-2, 0.5, 0.0)), strip_c=0.7,
        ))
        flat = TransversalAtom(math.exp(-0.7), 1.0, FourierSpec(b=1, a0=1.0, strip_c=0.7))
        atom = TransversalAtom(math.exp(-0.7), 1.0, spec)
        build_current(Eigenvalue.negative(-1.0), [flat, atom])
        monkeypatch.setattr(harmonic, "EDGE_SCAN_BUDGET", 1)
        with pytest.raises(InvalidSpecError, match=r"atoms\[1\]\.spec: positivity could not be certified"):
            build_current(Eigenvalue.negative(-1.0), [flat, atom])


@st.composite
def base_point_specs(draw):
    strip = draw(st.booleans())
    ks = st.sampled_from([-3, -2, -1, 1, 2, 3] if strip else [-3, -2, -1])
    coef = st.floats(min_value=-2.0, max_value=2.0)
    return FourierSpec(
        b=draw(st.sampled_from([1, 2, 3])),
        a0=draw(st.floats(min_value=0.0, max_value=4.0)),
        b0=draw(st.floats(min_value=0.0, max_value=4.0)),
        modes=tuple(draw(st.lists(st.tuples(ks, coef, coef), max_size=5))),
        strip_c=draw(st.floats(min_value=0.01, max_value=20.0)) if strip else None,
    )


@given(specs=st.lists(base_point_specs(), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_base_point_matches_evaluate_bit_for_bit(specs):
    table = atom_table([(Eigenvalue.rational(1, 2), [TransversalAtom(0.5, 1.0, spec) for spec in specs])])
    assert [x.hex() for x in _base_values(table).tolist()] == [evaluate(s, 0.0, 0.0).hex() for s in specs]


class TestPeriodicity:
    def test_lcm_of_declared_periods(self):
        lam = Eigenvalue.rational(1, 2)
        atoms = [
            TransversalAtom(0.5, 1.0, FourierSpec(b=2, a0=1.0)),
            TransversalAtom(0.7, 1.0, FourierSpec(b=3, a0=1.0)),
        ]
        assert is_periodic(build_current(lam, atoms)) == 6

    def test_flat_poisson_detected_periodic(self):
        lam = Eigenvalue.irrational(math.sqrt(2.0) - 1.0)
        cur = build_current(lam, [TransversalAtom(1.3, 1.0, flat_poisson())])
        assert is_periodic(cur) == 1

    def test_bump_poisson_not_periodic(self):
        lam = Eigenvalue.irrational(math.sqrt(2.0) - 1.0)
        cur = build_current(lam, [TransversalAtom(1.3, 1.0, bump_poisson())])
        assert is_periodic(cur) is None


class TestFamilies:
    def test_monodromy_family_orbit(self):
        lam = Eigenvalue.rational(1, 2)
        mother = normalize(FourierSpec(b=2, a0=1.0, modes=((-1, 0.2, 0.1),)))
        atoms = monodromy_family(lam, 1.0 + 0.0j, 0.7, mother)
        assert len(atoms) == 2
        assert atoms[0].alpha == pytest.approx(1.0)
        assert atoms[1].alpha == pytest.approx(monodromy(lam, 1.0, 1), rel=1e-12)
        # every member is normalized; build must accept the family
        cur = build_current(lam, atoms)
        for atom in cur.atoms:
            assert evaluate(atom.spec, 0.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_family_weight_telescoping(self):
        # weight_k * a0_k is constant across the orbit: the normalizing
        # constant moves between weight and density but their product is
        # the mother's
        lam = Eigenvalue.rational(2, 3)
        mother = normalize(FourierSpec(b=3, a0=1.0, modes=((-1, 0.2, 0.1), (-2, 0.1, 0.05))))
        atoms = monodromy_family(lam, 1.5, 0.6, mother)
        products = [atom.weight * atom.spec.a0 for atom in atoms]
        assert all(p == pytest.approx(0.6 * mother.a0, rel=1e-12) for p in products)

    def test_monodromy_family_needs_rational(self):
        with pytest.raises(InputError):
            monodromy_family(Eigenvalue.irrational(0.3030), 1.0, 1.0, FourierSpec())

    def test_monodromy_family_needs_matching_b(self):
        lam = Eigenvalue.rational(1, 2)
        with pytest.raises(InputError, match="period multiple"):
            monodromy_family(lam, 1.0, 1.0, FourierSpec(b=3, a0=1.0))

    def test_accumulation_family_weights(self):
        lam = Eigenvalue.negative(-1.0)
        atoms = accumulation_family(lam, 8)
        assert len(atoms) == 8
        assert sum(a.weight for a in atoms) == pytest.approx(255.0 / 256.0, rel=1e-14)
        moduli = [a.alpha_modulus for a in atoms]
        assert moduli == sorted(moduli, reverse=True)
        build_current(lam, atoms)  # validates strip heights and positivity

    def test_accumulation_family_needs_negative(self):
        with pytest.raises(InputError):
            accumulation_family(Eigenvalue.rational(1, 1), 3)

    @pytest.mark.parametrize("count, alpha_base, message", [
        (0, 0.25, "need at least one family member"),
        (3, 0.0, r"alpha_base must lie in \(0, 1\)"),
        (3, 1.0, r"alpha_base must lie in \(0, 1\)"),
    ])
    def test_accumulation_family_arguments(self, count, alpha_base, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            accumulation_family(Eigenvalue.negative(-1.0), count, alpha_base=alpha_base)

    def test_monodromy_family_needs_half_plane_trig_mother(self):
        lam = Eigenvalue.rational(1, 1)
        for mother in (FourierSpec(b=1, a0=1.0, strip_c=1.0), flat_poisson()):
            with pytest.raises(InputError, match="^monodromy families are built from half-plane trig specs$"):
                monodromy_family(lam, 1.0, 1.0, mother)


class TestSerialization:
    @pytest.mark.parametrize(
        "lam",
        [
            Eigenvalue.rational(2, 3),
            Eigenvalue.irrational(1.0 / math.pi),
            Eigenvalue.negative(-0.5),
        ],
    )
    def test_eigenvalue_round_trip(self, lam):
        assert eigenvalue_from_json(eigenvalue_to_json(lam)) == lam

    def test_eigenvalue_class_required(self):
        with pytest.raises(InputError, match="class"):
            eigenvalue_from_json({"value": 0.5})

    def test_current_round_trip(self):
        lam = Eigenvalue.rational(1, 2)
        mother = normalize(FourierSpec(b=2, a0=1.0, modes=((-1, 0.2, 0.1),)))
        cur = build_current(lam, monodromy_family(lam, 1.0, 0.7, mother))
        payload = json.loads(json.dumps(current_to_json(cur)))
        again = current_from_json(payload)
        assert again.lam == cur.lam
        assert len(again.atoms) == len(cur.atoms)
        for a, b in zip(again.atoms, cur.atoms):
            assert a.alpha == pytest.approx(b.alpha, rel=1e-15)
            assert a.weight == pytest.approx(b.weight, rel=1e-15)

    def test_equal_currents_hash_equal(self):
        # equal when their eigenvalues and atoms are, however each was built:
        # from atoms, or from the table of a JSON load
        lam = Eigenvalue.rational(1, 2)
        mother = normalize(FourierSpec(b=2, a0=1.0, modes=((-1, 0.2, 0.1),)))
        atoms = monodromy_family(lam, 1.0, 0.7, mother)
        cur = build_current(lam, atoms)
        loaded = current_from_json(json.loads(json.dumps(current_to_json(cur))))
        assert loaded == cur and hash(loaded) == hash(cur)
        assert len({cur, loaded, build_current(lam, atoms)}) == 1
        assert cur != Current(lam, atoms[:1])
        assert cur != Current(Eigenvalue.rational(2, 3), atoms)
        assert cur.__eq__(atoms) is NotImplemented and cur != atoms

    def test_poisson_atom_round_trip(self):
        lam = Eigenvalue.irrational(math.sqrt(2.0) - 1.0)
        cur = build_current(lam, [TransversalAtom(1.3, 1.0, bump_poisson())])
        again = current_from_json(current_to_json(cur))
        spec_a, spec_b = cur.atoms[0].spec, again.atoms[0].spec
        us = np.linspace(-2.0, 2.0, 5)
        assert np.allclose(evaluate(spec_a, us, 0.7), evaluate(spec_b, us, 0.7), atol=1e-14)

    def test_poisson_row_is_its_tail_extension_built_or_loaded(self):
        # both builders give a Poisson atom the row of its tail's extension,
        # b = 1, a0 = tail, b0 = c_lin, strip_c = inf and no modes, among
        # the trig rows, bit for bit the same columns
        lam = Eigenvalue.rational(1, 2)
        trig = normalize(FourierSpec(b=2, a0=1.0, modes=((-1, 0.2, 0.1), (-3, 0.05, 0.0))))
        atoms = [TransversalAtom(1.3, 0.3, flat_poisson(0.6)), TransversalAtom(0.7, 0.2, trig),
                 TransversalAtom(1.1, 0.4, bump_poisson()), TransversalAtom(0.9, 0.1, trig)]
        built = atom_table([(lam, atoms)]).fourier
        loaded = current_from_json(json.loads(json.dumps(current_to_json(build_current(lam, atoms))))).table.fourier
        for field in built._fields:
            got, want = getattr(loaded, field), getattr(built, field)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field
        for i, atom in enumerate(atoms):
            spec = atom.spec
            row = (int(built.b[i]), float(built.a0[i]), float(built.b0[i]), float(built.strip_c[i]))
            if isinstance(spec, PoissonSpec):
                assert row == (1, spec.tail, spec.c_lin, math.inf)
            else:
                assert row == (spec.b, spec.a0, spec.b0, math.inf)
        assert built.owner.tolist() == [1, 1, 3, 3]

    def test_malformed_current_names_field(self):
        with pytest.raises(InputError, match="atoms"):
            current_from_json({"lambda": {"value": 1.0, "class": "rational", "a": 1, "b": 1}})
        with pytest.raises(InputError, match="alpha"):
            current_from_json(
                {
                    "lambda": {"value": 1.0, "class": "rational", "a": 1, "b": 1},
                    "atoms": [{"weight": 1.0, "spec": {"type": "fourier", "a0": 1.0}}],
                }
            )

    @pytest.mark.parametrize(
        "drop, message",
        [
            ("lambda", "lambda: missing required field"),
            ("atoms", "atoms: missing required field"),
            ("alpha", "atoms[0].alpha: missing required field"),
            ("weight", "atoms[0].weight: missing required field"),
            ("spec", "atoms[0].spec: missing required field"),
            ("type", "atoms[0].spec.type: missing required field"),
        ],
    )
    def test_missing_field_message(self, drop, message):
        atom = {"alpha": [0.5, 0.0], "weight": 1.0, "spec": {"type": "fourier", "b": 1, "a0": 1.0}}
        payload = {"lambda": {"value": 1.0, "class": "rational", "a": 1, "b": 1}, "atoms": [atom]}
        for obj in (payload, atom, atom["spec"]):
            obj.pop(drop, None)
        with pytest.raises(InputError) as info:
            current_from_json(payload)
        assert str(info.value) == message
