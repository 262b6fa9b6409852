import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    build_currents,
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
from lelonglab.current import Current, atom_table
from lelonglab.foliation import jacobian_density, jacobian_rows
from lelonglab.mass import _bracket_a, _bracket_b, _exact_masses, _moments, lelong_from_masses, lelong_radii
from lelonglab.quadrature import DEFAULT_CONFIG, QuadratureConfig
from lelonglab.theorems import _STRIP_LATTICE, _corpus_batch, corpus

from conftest import flat_poisson, spanning_poisson


def single_atom_current(lam, alpha, spec, weight=1.0):
    return build_current(lam, [TransversalAtom(alpha, weight, spec)])


def _exact_pairs(current, rs, k0=0):
    """(mass, rounding bound) of an all-trig current at each radius: its table's exact route."""
    return _exact_masses(current.table, rs, k0)[0]


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
        self.results = []  # per job, the (value, error) pairs of its nonempty ranges
        real = lelonglab.mass.integrate_lockstep

        def spy(f, lo, hi, **kwargs):
            def counted(rows, v):
                self.points += np.size(v)
                return f(rows, v)

            self.calls += 1
            values, errors = real(counted, lo, hi, **kwargs)
            self.results.extend([list(zip(v[n], e[n])) for v, e, n in zip(values, errors, lo < hi)])
            return values, errors

        monkeypatch.setattr(lelonglab.mass, "integrate_lockstep", spy)


def _row_spec(spec):
    """The spec that a row of the columns stands for: a PoissonSpec's tail twin a0 = tail, b0 = c_lin."""
    if isinstance(spec, PoissonSpec):
        return FourierSpec(b=1, a0=spec.tail, b0=spec.c_lin)
    return spec


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
                value, bound = _exact_pairs(current, [s.r], k0)[0]
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

    @pytest.mark.parametrize("case", ["strip-family", "two-poisson"])
    def test_sums_its_atoms_in_order(self, case):
        # each radius's value and error are the in-order float sums of what
        # every atom's row of the columns gets alone, an empty plaque adding
        # nothing, then the departures from the tails. A Poisson row alone
        # is its tail twin, the trig atom a0 = tail, b0 = c_lin, taken
        # unchecked: it is not normalized
        if case == "strip-family":
            lam = Eigenvalue.negative(-0.5)
            atoms = accumulation_family(lam, 12, alpha_base=0.7, b0=0.2, modes=((-1, 0.02, 0.01),))
        else:
            lam = Eigenvalue.irrational(math.sqrt(2.0) - 1.0)
            ys = np.linspace(-16.0 * math.pi, 16.0 * math.pi, 769)
            bump = normalize(PoissonSpec(ys=ys, values=0.3 + np.exp(-(ys**2) / 8.0), tail=0.3))
            atoms = [TransversalAtom(1.3, 0.6, flat_poisson()), TransversalAtom(0.8, 0.4, bump)]
        rs = (1.0, 0.5, 0.25, 0.125, 0.0625)
        current = build_current(lam, atoms)
        together = mass_quadrature_schedule(current, rs, k0=1)
        alone = [mass_quadrature_schedule(Current(lam, [dataclasses.replace(atom, spec=_row_spec(atom.spec))]),
                                          rs, k0=1) for atom in atoms]
        departures = lelonglab.mass._departure_masses(current.table, rs, 1)
        assert departures.shape == (1, len(rs), 2)
        if case == "strip-family":
            empty = [[m.value == 0.0 for m in masses] for masses in alone]
            assert any(map(any, empty)) and not all(map(all, empty))
            # no departing atom: zeros, which add nothing
            assert departures.tolist() == [[[0.0, 0.0]] * len(rs)]
        else:
            assert (departures[0, :, 0] > 0.0).all()
        for n, m in enumerate(together):
            value = sum(masses[n].value for masses in alone)
            error = sum(masses[n].error_estimate for masses in alone)
            extra, extra_error = departures[0, n].tolist()
            value, error = value + extra, error + extra_error
            assert m.value.hex() == value.hex()
            assert m.error_estimate.hex() == error.hex()

    def test_failure_names_atom_radius_and_interval(self, monkeypatch):
        # the short strip of atom 0 converges on its seed panel; the long
        # strip of atom 1 needs more than one split
        lam = Eigenvalue.negative(-0.5)
        atoms = [
            TransversalAtom(0.9, 1.0, FourierSpec(b=1, a0=1.0, strip_c=math.log(0.9) / -0.5)),
            TransversalAtom(1e-4, 1.0, normalize(FourierSpec(
                b=1, a0=1.0, b0=0.2, modes=((-1, 0.03, 0.01),), strip_c=math.log(1e-4) / -0.5,
            ))),
        ]
        monkeypatch.setattr(lelonglab.quadrature, "MAX_DEPTH", 1)
        current = build_current(lam, atoms)
        with pytest.raises(QuadratureFailure) as exc_info:
            mass_quadrature_schedule(current, (1.0, 0.5))
        failure = exc_info.value
        message = str(failure)
        assert message.startswith("atoms[1] at r = ")
        lo, hi = map(float, re.search(r"no convergence at depth 1 on \[(\S+), (\S+)\]", message).groups())
        assert 0.0 <= lo < hi <= atoms[1].spec.strip_c
        for n in failure.ranges:
            assert repr((1.0, 0.5)[n]) in message
        # atom 0 alone is fine at that depth
        mass_quadrature_schedule(build_current(lam, atoms[:1]), (1.0, 0.5))

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
        # foliation.plaque_logs refuses the radius, before any quadrature
        for bad in (0.0, -0.5, 1.5, math.nan):
            with pytest.raises(DomainError, match=r"^radius must lie in \(0, 1\]$"):
                mass_quadrature_schedule(flagship, (1.0, bad))

    @pytest.mark.parametrize("case", sorted(SCHEDULE_CASES))
    def test_no_radii_no_masses(self, case):
        assert mass_quadrature_schedule(SCHEDULE_CASES[case], ()) == []


def _strip_family(modes=((-1, -0.007481757672913113, 0.026837484657127236),)):
    """perfbench's strip-family-mass current at seed 42: 256 strips at lambda = -1/2, each with one b = 1 mode."""
    lam = Eigenvalue.negative(-0.5)
    return build_current(lam, accumulation_family(lam, 256, alpha_base=0.9, b0=0.2, modes=modes))


class TestWholeTurnModes:
    """A mode with b | k integrates to 0 over the whole turn, and neither route carries it."""

    def test_quadrature_window_carries_no_mode(self, monkeypatch):
        windows = []
        real = lelonglab.mass.fourier_window

        def spy(*args):
            windows.append(real(*args))
            return windows[-1]

        monkeypatch.setattr(lelonglab.mass, "fourier_window", spy)
        current = _strip_family()
        for k0 in (0, 3):
            mass_quadrature(current, 0.5, k0=k0)
        assert [w.fields.shape for w in windows] == [(4, 256)] * 2
        assert [w.modes for w in windows] == [0, 0]
        # another window keeps the mode
        assert harmonic.fourier_window(current.table.fourier, -1.3, 5.1).modes == 1

    def test_exact_route_builds_one_part_per_atom(self, monkeypatch):
        # the mode adds no term: each atom's base, times the two jacobian
        # exponentials, at each radius where its plaque is not empty, as
        # for the family without the mode
        sizes = []
        real = lelonglab.mass._moments

        def spy(sigma, lo, hi):
            sizes.append(sigma.size)
            return real(sigma, lo, hi)

        monkeypatch.setattr(lelonglab.mass, "_moments", spy)
        rs = (1.0, 0.5, 0.25, 0.125)
        for current in (_strip_family(), _strip_family(modes=())):
            _exact_masses(current.table, rs, 1)
            _exact_masses(current.table, (1.0,))
        assert sizes[:2] == sizes[2:]
        assert sizes[1] == 2 * 256

    def test_quadrature_keeps_its_partitions(self, monkeypatch):
        # the panels the family gets when its window carries the mode, whose
        # whole-turn integral is then rounding noise: leaving the mode out
        # moves no panel. Each mass is within its error of the closed form
        current = _strip_family()
        spy = _IntegrateSpy(monkeypatch)
        panels = []
        for r in (1.0, 0.5, 0.25, 0.125):
            spy.points = 0
            result = mass_quadrature(current, r)
            assert spy.points % 15 == 0
            panels.append(spy.points // 15)
            assert abs(result.value - mass_closed_form(current, r)) <= result.error_estimate
        assert panels == [2580, 2447, 2305, 2163]


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
        for r, nu, err, (mass, bound) in zip(est.rs, est.nus, est.errs, _exact_pairs(twin, est.rs, k0)):
            area = math.pi * r * r
            assert abs(nu - mass / area) <= err + bound / area
        if half_turns == 256:
            assert spy.direct <= 0.1 * spy.dense

    @pytest.mark.parametrize("case_id", ["pos-silver-poisson-flat", "div-half-poisson-linear"])
    def test_corpus_grids_are_summed_directly(self, case_id, monkeypatch):
        # the corpus's flat data computes no kernel entry; on its grid, data
        # that departs from the tail at both ends is summed node by node
        current = next(case.current for case in corpus(42) if case.case_id == case_id)
        atom = current.atoms[0]
        assert atom.spec.ys.size == 769
        spy = _KernelSpy(monkeypatch)
        lelong_estimate(current)
        assert spy.calls == 0
        spec = spanning_poisson(atom.spec.c_lin)
        assert np.array_equal(spec.ys, atom.spec.ys) and spec.tail == atom.spec.tail
        lelong_estimate(build_current(current.lam, [dataclasses.replace(atom, spec=spec)]))
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
    # (current, kernel entries of its 12-halving schedule, panels with a
    # kernel block): the two benchmark-sized flat atoms and the corpus's two
    # Poisson currents, whose data is the tail and computes no entry, and
    # the silver atom on data that departs from the tail at both ends of the
    # grid, which keeps every node and panel of the model that summed the
    # samples themselves. The schedule's departure pass and
    # mass_quadrature_schedule at the same radii give the spanning atom the
    # same 18 panels and entries, though the pass truncates lower: its
    # envelope is the departures', not the samples'. The pass adds one
    # block at its range ends, the 2 x 12 limits on 1921 near nodes
    CASES = {
        "silver-12289": (lambda: single_atom_current(
            Eigenvalue.irrational(math.sqrt(2.0) - 1.0), 1.3, flat_poisson(0.0, 256)), 0, 0),
        "half-linear-12289": (lambda: single_atom_current(
            Eigenvalue.rational(1, 2), 1.1, flat_poisson(0.6, 256)), 0, 0),
        "pos-silver-poisson-flat": (lambda: next(
            case.current for case in corpus(42) if case.case_id == "pos-silver-poisson-flat"), 0, 0),
        "div-half-poisson-linear": (lambda: next(
            case.current for case in corpus(42) if case.case_id == "div-half-poisson-linear"), 0, 0),
        "silver-12289-spanning": (lambda: single_atom_current(
            Eigenvalue.irrational(math.sqrt(2.0) - 1.0), 1.3, spanning_poisson(0.0, 256)), 191160 + 24 * 1921, 19),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_probe_takes_its_entries_from_the_panel_block(self, case, monkeypatch):
        # each panel computes one arctan2 block, the full grid's near nodes
        # at its interior heights, and the probe none
        make, entries, kernel_panels = self.CASES[case]
        current = make()
        count = _Arctan2Count(monkeypatch)
        panels = []
        real = harmonic._poisson_window

        def spy(window, v):
            first = len(count.blocks)
            out = real(window, v)
            inside = v[v > 0.0]
            j = window.full.shell(float(inside.max()))
            near = window.spec.ys.size if j is None else int(window.full.near[j, 1] - window.full.near[j, 0])
            panels.append((count.blocks[first:], (inside.size, near)))
            return out

        monkeypatch.setattr(harmonic, "_poisson_window", spy)
        lelong_estimate(current)
        assert len(panels) == kernel_panels
        assert len(count.blocks) == len(panels)  # no arctan2 block outside the panels'
        for blocks, block in panels:
            assert blocks == [block]
        assert sum(rows * cols for _, (rows, cols) in panels) == entries
        if current.atoms[0].spec.ys.size == 769:  # no ladder: every node direct
            assert all(cols == 769 for _, (_, cols) in panels)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_tail_terms_once_per_integrand_call(self, case, monkeypatch):
        # on the quadrature route the tail's extension is a trig row of the
        # columns, worked out in one window_integral call per integrand call
        # for all its panels, plus one at the range ends. The departures'
        # kernel sums take one poisson_departure_rows call per integrand
        # call of their own pass, plus one at its range ends, and one
        # kernel block per panel whose samples are not all the tail; flat
        # data makes no such call
        count = {"f": 0, "window": 0, "calls": 0, "panels": 0, "kernels": 0}
        real_lockstep, real_window = lelonglab.mass.integrate_lockstep, lelonglab.mass.window_integral
        real_rows, real_kernel = lelonglab.mass.poisson_departure_rows, harmonic._poisson_window

        def lockstep(f, lo, hi, **kwargs):
            def counted(rows, v):
                count["f"] += 1
                return f(rows, v)

            return real_lockstep(counted, lo, hi, **kwargs)

        def window(*args):
            count["window"] += 1
            return real_window(*args)

        def rows(windows, v):
            count["calls"] += 1
            count["panels"] += len(windows)
            return real_rows(windows, v)

        def kernel(window, v):
            count["kernels"] += 1
            return real_kernel(window, v)

        monkeypatch.setattr(lelonglab.mass, "integrate_lockstep", lockstep)
        monkeypatch.setattr(lelonglab.mass, "window_integral", window)
        monkeypatch.setattr(lelonglab.mass, "poisson_departure_rows", rows)
        monkeypatch.setattr(harmonic, "_poisson_window", kernel)
        make, _, kernel_panels = self.CASES[case]
        mass_quadrature_schedule(make(), HALVINGS)
        assert count["window"] + count["calls"] == count["f"] + (2 if kernel_panels else 1)
        assert count["kernels"] == count["panels"]
        if kernel_panels:
            assert 0 < count["calls"] < count["panels"]
        else:
            assert count["calls"] == count["panels"] == 0


@st.composite
def _poisson_currents(draw):
    """A positive-eigenvalue current with one to two Poisson atoms, and maybe a trig atom.

    Each Poisson atom's samples are its tail, a bump above it or a dip below
    it, on a 768- or 769-node grid over +-16 pi, with c_lin 0 or above.
    """
    lam = Eigenvalue.irrational(draw(st.sampled_from([1.0, 0.5, math.sqrt(2.0) - 1.0, 1.0 / math.pi])))
    atoms = []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.sampled_from([768, 769]))
        ys = np.linspace(-16.0 * math.pi, 16.0 * math.pi, n)
        tail = draw(st.floats(0.2, 2.0))
        shape = draw(st.sampled_from(["flat", "bump", "dip"]))
        height = draw(st.floats(0.05, 0.9)) * tail
        centre, width = draw(st.floats(-20.0, 20.0)), draw(st.floats(0.5, 8.0))
        sign = {"flat": 0.0, "bump": 1.0, "dip": -1.0}[shape]
        values = tail + sign * height * np.exp(-((ys - centre) ** 2) / width)
        c_lin = draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
        spec = normalize(PoissonSpec(ys=ys, values=values, tail=tail, c_lin=c_lin))
        atoms.append(TransversalAtom(draw(st.floats(0.3, 3.0)), draw(st.floats(0.2, 2.0)), spec))
    if draw(st.booleans()):
        mode = draw(st.floats(-0.4, 0.4))
        spec = normalize(FourierSpec(b=1, a0=1.0, b0=draw(st.floats(0.0, 0.5)), modes=((-1, mode, 0.1),)))
        atoms.insert(draw(st.integers(0, len(atoms))), TransversalAtom(draw(st.floats(0.3, 3.0)), 0.7, spec))
    return build_current(lam, atoms)


class TestDepartureSplit:
    """The split of both mass routes: every row of the columns, then quadrature for the departures only.

    A Poisson atom's row is its tail's extension, and both routes read that
    row and take the same departure pass, so they are held to
    oracles.whole_atom_masses, which integrates every atom whole.
    """

    @given(current=_poisson_currents(), k0=st.integers(-2, 2))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_the_quadrature_route(self, current, k0):
        from oracles import whole_atom_masses

        est = lelong_estimate(current, k0=k0)
        quad = mass_quadrature_schedule(current, est.rs, k0=k0)
        ref = whole_atom_masses(current, est.rs, k0)
        for r, nu, err, m, (mass, error) in zip(est.rs, est.nus, est.errs, quad, ref):
            area = math.pi * r * r
            # two divisions by the area, an ulp each
            slack = 4.0 * np.finfo(float).eps * abs(nu)
            assert abs(nu - mass / area) <= err + error / area + slack, r
            assert abs(m.value - mass) <= m.error_estimate + error, r

    @pytest.mark.parametrize("c_lin", [0.0, 0.6])
    def test_flat_schedule_is_its_trig_twin_with_no_quadrature(self, c_lin, monkeypatch):
        # flat data is its tail's extension: no lockstep call, no window, no
        # kernel block, and the schedule of the trig twin a0 = 1, b0 = c_lin
        def forbidden(*args, **kwargs):
            raise AssertionError("a flat schedule reached the quadrature side")

        lam = Eigenvalue.rational(1, 2)
        trig = TransversalAtom(0.7, 0.4, normalize(FourierSpec(b=1, a0=1.0, modes=((-1, 0.2, 0.1),))))
        current = build_current(lam, [TransversalAtom(1.1, 0.8, flat_poisson(c_lin)), trig])
        twin = build_current(lam, [TransversalAtom(1.1, 0.8, FourierSpec(b=1, a0=1.0, b0=c_lin)), trig])
        for name in ("integrate_lockstep", "poisson_window", "poisson_departure_rows"):
            monkeypatch.setattr(lelonglab.mass, name, forbidden)
        monkeypatch.setattr(harmonic, "_poisson_window", forbidden)
        for k0 in (0, -2, 5214):
            assert lelong_estimate(current, k0=k0) == lelong_estimate(twin, k0=k0)
        # a Poisson atom still refuses a window end whose ulp is too coarse
        with pytest.raises(InputError, match="has an ulp above"):
            lelong_estimate(current, k0=5215)
        lelong_estimate(twin, k0=5215)

    def test_only_departing_atoms_are_jobs(self, monkeypatch):
        # a flat atom beside a bump: one lockstep call, with the bump's job alone
        spy = _IntegrateSpy(monkeypatch)
        lam = Eigenvalue.irrational(math.sqrt(2.0) - 1.0)
        ys = np.linspace(-16.0 * math.pi, 16.0 * math.pi, 769)
        bump = normalize(PoissonSpec(ys=ys, values=0.3 + np.exp(-(ys**2) / 8.0), tail=0.3))
        lelong_estimate(build_current(lam, [TransversalAtom(1.3, 0.6, flat_poisson()),
                                            TransversalAtom(0.8, 0.4, bump)]))
        assert spy.calls == 1
        assert len(spy.results) == 1

    @given(currents=st.lists(_poisson_currents(), min_size=1, max_size=3), k0=st.integers(-2, 2))
    @settings(max_examples=30, deadline=None)
    def test_one_table_of_many_currents(self, currents, k0):
        # currents with their own eigenvalues in one table: each current's
        # departures are, bit for bit, those of its own table
        table = atom_table([(current.lam, current.atoms) for current in currents])
        rs = (1.0, 0.5, 0.125, 2.0**-7)
        got = lelonglab.mass._departure_masses(table, rs, k0)
        assert got.shape == (len(currents), len(rs), 2)
        for current, masses in zip(currents, got):
            alone = lelonglab.mass._departure_masses(current.table, rs, k0)
            assert [x.hex() for x in masses.ravel().tolist()] == [x.hex() for x in alone.ravel().tolist()]

    def test_error_counts_the_rounding_of_the_limits(self, monkeypatch):
        # the bump of the mixed-bump-poisson-trig golden family: its error
        # at each radius holds the rounding of its plaque limits, as the row
        # pass's does, EXACT_ROUNDING eps cond (|f(lo)| + |f(hi)|), f the
        # weighted integrand at each end, taken at v > 0 (at r = 1 the
        # range starts at v = 0, where the integrand is its limit from above)
        lam = Eigenvalue.irrational(math.sqrt(2.0) - 1.0)
        ys = np.linspace(-16.0 * math.pi, 16.0 * math.pi, 769)
        bump = normalize(PoissonSpec(ys=ys, values=0.3 + np.exp(-(ys**2) / 8.0), tail=0.3))
        table = build_current(lam, [TransversalAtom(1.3, 1.0, bump)]).table
        rs = (1.0, 0.5, 0.125, 2.0**-11)
        got = lelonglab.mass._departure_masses(table, rs)
        rounding = lelonglab.mass.EXACT_ROUNDING
        monkeypatch.setattr(lelonglab.mass, "EXACT_ROUNDING", 0.0)
        without = lelonglab.mass._departure_masses(table, rs)
        assert got[0, :, 0].tolist() == without[0, :, 0].tolist()
        envelope = [(float(np.max(np.abs(bump.values - bump.tail))), 0.0)]
        lo, hi, _, cond = lelonglab.mass._atom_ranges(table.lam, table.moduli, envelope, rs, DEFAULT_CONFIG)
        window = harmonic.poisson_window(bump, 0.0, 2.0 * math.pi)
        for n, (a, b) in enumerate(zip(lo[0].tolist(), hi[0].tolist())):
            ends = np.array([[max(a, np.finfo(float).tiny), b]])
            f = harmonic.poisson_departure_rows([window], ends)[0, 0] * jacobian_density(lam, 1.3, ends[0])
            term = rounding * np.finfo(float).eps * cond[0, n] * float(np.abs(f).sum())
            assert term > 0.0
            # the two errors are sums of the same terms but this one, each
            # to an ulp of the total
            slack = 8.0 * math.ulp(got[0, n, 1])
            assert got[0, n, 1] - without[0, n, 1] >= term - slack, n
            assert got[0, n, 1] - without[0, n, 1] <= term + slack, n

    def test_failure_names_the_atom_in_its_current(self, monkeypatch):
        # the bump is atom 1 of its current, and job 0 of the departure pass
        lam = Eigenvalue.irrational(math.sqrt(2.0) - 1.0)
        ys = np.linspace(-16.0 * math.pi, 16.0 * math.pi, 769)
        bump = normalize(PoissonSpec(ys=ys, values=0.3 + np.exp(-(ys**2) / 8.0), tail=0.3))
        current = build_current(lam, [TransversalAtom(1.3, 0.6, flat_poisson()), TransversalAtom(0.8, 0.4, bump)])
        monkeypatch.setattr(lelonglab.quadrature, "MAX_DEPTH", 1)
        with pytest.raises(QuadratureFailure) as exc_info:
            lelong_estimate(current, cfg=QuadratureConfig(rel_tol=1e-16))
        assert str(exc_info.value).startswith("atoms[1] at r = ")
        assert exc_info.value.job == 1


class TestTruncation:
    @given(
        fourier=st.booleans(),
        base=st.floats(min_value=0.0, max_value=3.0),
        slope=st.floats(min_value=0.0, max_value=2.0),
        mode=st.floats(min_value=-0.5, max_value=0.5),
        sine=st.floats(min_value=-0.5, max_value=0.5),
        lam=st.one_of(st.floats(min_value=0.01, max_value=1.0), st.sampled_from([1.0, 0.5, math.sqrt(2.0) - 1.0])),
        modulus=st.floats(min_value=0.01, max_value=5.0),
        v_lo=st.floats(min_value=-10.0, max_value=40.0),
        cfg=st.sampled_from([DEFAULT_CONFIG, QuadratureConfig(abs_tol=1e-9)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_envelope_matches_the_generator_sum(self, fourier, base, slope, mode, sine, lam, modulus, v_lo, cfg):
        from oracles import truncate_half_plane

        if fourier:
            spec = FourierSpec(b=1, a0=base, b0=slope, modes=((-1, mode, sine), (-2, sine, mode)))
        else:
            ys = np.linspace(-math.pi, math.pi, 5)
            spec = PoissonSpec(ys=ys, values=base + abs(mode) * np.cos(ys) ** 2, tail=base, c_lin=slope)
        eig = Eigenvalue.irrational(lam)
        table = atom_table([(eig, [TransversalAtom(modulus, 1.0, spec)])])
        envelope, = lelonglab.mass._envelopes(table)
        jac = jacobian_rows(eig, modulus).coefficients.tolist()
        got = lelonglab.mass._truncate_half_plane(envelope, lam, jac, v_lo, cfg)
        # a Poisson row of the columns is its tail's extension, and its
        # envelope that of the trig atom a0 = tail, b0 = c_lin
        want = truncate_half_plane(_row_spec(spec), eig, modulus, v_lo, cfg)
        # the Jacobian coefficients are numpy's powers here and Python's in
        # the oracle, an ulp apart: the same height, and the tail within 4 eps
        assert got[0] == want[0]
        assert abs(got[1] - want[1]) <= 4.0 * np.finfo(float).eps * abs(want[1])

    @given(
        # sizes whose tails stay normal floats, so that rounding is relative
        p=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=5.0)),
        q=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=3.0)),
        lam=st.one_of(st.floats(min_value=0.01, max_value=1.0), st.sampled_from([1.0, 0.5])),
        modulus=st.floats(min_value=0.01, max_value=5.0),
        v_lo=st.floats(min_value=0.0, max_value=40.0),  # on the half-plane, where p + q v >= 0
        cfg=st.sampled_from([DEFAULT_CONFIG, QuadratureConfig(abs_tol=1e-9)]),
    )
    @example(p=1.0, q=0.0, lam=1.0, modulus=0.5, v_lo=0.0, cfg=DEFAULT_CONFIG)
    @settings(max_examples=60, deadline=None)
    def test_tail_bound_is_the_envelope_tail(self, p, q, lam, modulus, v_lo, cfg):
        # the bound is the integral above the height of the envelope
        # 2 pi (p + q v)(2 c1 e^{-2v} + 2 c2 e^{-2 lambda v}), as mpmath's
        # quadrature gives it, to rounding: no coefficient left out. Each
        # exponential is integrated at v = v_hi + s / rate, its size
        # e^{-rate v_hi} taken out, since mpmath's tolerance is absolute
        import mpmath

        eig = Eigenvalue.irrational(lam)
        c1, c2 = jacobian_rows(eig, modulus).coefficients.tolist()
        v_hi, bound = lelonglab.mass._truncate_half_plane((p, q), lam, [c1, c2], v_lo, cfg)
        mpmath.mp.dps = 30
        want = 0
        for c, rate in ((c1, 2.0), (c2, 2.0 * lam)):
            shape = mpmath.quad(lambda s: 2 * mpmath.pi * (p + q * (v_hi + s / rate)) * 2 * c * mpmath.exp(-s) / rate,
                                [0, mpmath.inf])
            want += mpmath.exp(-mpmath.mpf(rate) * v_hi) * shape
        assert bound >= float(want) * (1.0 - 1e-12)
        assert bound <= float(want) * (1.0 + 1e-12)

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
                lo, hi, tails, _ = lelonglab.mass._atom_ranges(table.lam, table.moduli,
                                                               lelonglab.mass._envelopes(table), rs, DEFAULT_CONFIG)
                heights = [truncate_half_plane(_row_spec(atom.spec), lam, atom.alpha_modulus, v_lo, DEFAULT_CONFIG)
                           for v_lo in lo[0].tolist()]
                v_top, want_bound = max(heights)
                assert all(v_hi == v_top for v_hi in hi[0].tolist())
                # the oracle's Jacobian coefficients are an ulp from numpy's
                assert abs(tails[0] - want_bound) <= 4.0 * np.finfo(float).eps * want_bound


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
        with pytest.raises(DomainError, match=r"^radius must lie in \(0, 1\]$"):
            ia(-1.0, 0.1, 0.0)

    def test_b_part_mass_increases_with_r(self):
        # 0.2 < r^1.5 keeps the strip nonempty along the whole sweep
        rs = np.linspace(0.4, 1.0, 13)
        vals = [r**2 * ib(-0.5, 0.2, r) for r in rs]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def _strip_outcome(fn, *args):
    """fn(*args) as a list of floats, entry by entry, or the type and message of what it raises."""
    try:
        out = fn(*args)
    except DomainError as exc:
        return DomainError, str(exc)
    return np.ravel(out).tolist()


def _strip_within_mpmath(name, values, points):
    """Each value of ia or ib within the rounding tolerance of its mpmath value at its point."""
    import oracles

    for got, point in zip(values, points):
        ia_mp, ib_mp, tol_a, tol_b = oracles.mp_strip(*point)
        want, tol = (ia_mp, tol_a) if name == "ia" else (ib_mp, tol_b)
        assert abs(got - want) <= tol, (name, point, got, want, tol)


# (lambda, |alpha|, r) where a power of the outer weight overflows and the
# weight goes through logarithms
_OVERFLOW_ENTRY = (-0.01, 0.5 * 1e-6 ** 1.01, 1e-6)


class TestStripIntegralArrays:
    """Array ia and ib against the strip integrals' formulas in mpmath, within their rounding.

    tests/oracles.py's mp_strip gives each formula's value from the same
    floats at 40 digits, and its rounding tolerance: 8 eps times the sum of
    the magnitudes of its terms, each amplified by its powers' conditioning.
    Which entry raises, and how, is the scalar ia's of tests/oracles.py.
    """

    @pytest.mark.parametrize("name", ["ia", "ib"])
    def test_lattice_and_its_caps(self, name):
        fn = getattr(lelonglab.mass, name)
        lv, am, r = np.array(_STRIP_LATTICE).T
        _strip_within_mpmath(name, _strip_outcome(fn, lv, am, r), _STRIP_LATTICE)
        caps = [(lv, am, 1.0) for lv, am, _ in _STRIP_LATTICE]
        _strip_within_mpmath(name, _strip_outcome(fn, lv, am, 1.0), caps)

    @pytest.mark.parametrize("name", ["ia", "ib"])
    def test_floats_give_a_float(self, name):
        fn = getattr(lelonglab.mass, name)
        for entry in (_OVERFLOW_ENTRY, (-0.5, 0.2, 0.5), (-1.0, math.exp(-1.0), 1.0)):
            got = fn(*entry)
            assert type(got) is float
            _strip_within_mpmath(name, [got], [entry])

    @given(
        entries=st.lists(
            st.tuples(st.floats(-2.0, 1.8), st.floats(0.01, 0.99), st.floats(0.0, 8.0)),
            min_size=1, max_size=6,
        ),
        overflow=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_entries_are_the_scalar_formulas(self, entries, overflow):
        import oracles

        # lambda = -10^e down to -0.01, |alpha| = t r^(1 - lambda), r = 10^-f
        points = [(-(10.0**e), t * (10.0**-f) ** (1.0 + 10.0**e), 10.0**-f) for e, t, f in entries]
        if overflow:
            points.append(_OVERFLOW_ENTRY)
        for name in ("ia", "ib"):
            fn, scalar = getattr(lelonglab.mass, name), getattr(oracles, name)
            raised = [w for w in (_strip_outcome(scalar, *p) for p in points) if isinstance(w, tuple)]
            got = _strip_outcome(fn, *np.array(points).T)
            if raised:
                assert got == raised[0]
            else:
                _strip_within_mpmath(name, got, points)

    def test_inadmissible_entry_raises_its_scalar_error(self):
        import oracles

        # the second entry has |alpha| >= r^(1 - lambda): no strip
        points = [(-1.0, 0.1, 0.5), (-1.0, 0.5, 0.5), (0.5, 0.1, 0.5)]
        with pytest.raises(DomainError) as want:
            oracles.ia(*points[1])
        for fn in (ia, ib):
            with pytest.raises(DomainError) as got:
                fn(*np.array(points).T)
            assert str(got.value) == str(want.value)
        with pytest.raises(DomainError, match="negative eigenvalue"):
            ia(*np.array(points[::-1]).T)


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

    def test_a_batch_current_answers_as_a_lone_one(self):
        # a current from build_currents has no table of its own until asked
        lam = Eigenvalue.irrational(math.sqrt(2.0) - 1.0)
        trig = TransversalAtom(1.2, 1.0, FourierSpec(b=1, a0=1.0))
        poisson = TransversalAtom(1.3, 1.0, flat_poisson())
        groups = [[trig], [trig, poisson], [poisson]]
        batch, _ = build_currents([(lam, atoms) for atoms in groups])
        for current, atoms in zip(batch, groups):
            assert closed_form_applicable(current) == closed_form_applicable(build_current(lam, atoms))
        assert [closed_form_applicable(c) for c in batch] == [True, False, False]

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

    def test_middle_region_linear_bracket(self):
        # r^(1 - lambda) <= |alpha| < 1 from r = 0.3 on: the log|alpha| terms
        # of the linear bracket, which no corpus current reaches
        cur = single_atom_current(Eigenvalue.rational(1, 2), 0.8, FourierSpec(b=1, a0=1.0, b0=0.6))
        for r in self.RADII:
            assert mass_closed_form(cur, r) == pytest.approx(self._paper_mass(cur, r), rel=1e-12)

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
                value, bound = _exact_pairs(cur, [r], k0)[0]
                result = mass_quadrature(cur, r, k0=k0)
                assert value > 0.0
                assert abs(value - result.value) <= result.error_estimate + bound

    @staticmethod
    def _moment(sigma, lo, hi):
        # _moments of one entry
        return tuple(float(x[0]) for x in _moments(*(np.array([x]) for x in (sigma, lo, hi))))

    @pytest.mark.parametrize("sigma", [0.0, 1e-9, -1e-9, 0.3, -0.3])
    def test_moments_series_branch(self, sigma):
        # the series branch against quad, and continuous across the switch
        lo, hi = 0.7, 1.9
        e_lo, e_hi, m0, m1 = self._moment(sigma, lo, hi)
        want0, _ = quad(lambda t: math.exp(-sigma * t), 0.0, hi - lo, epsabs=0.0, epsrel=1e-13)
        want1, _ = quad(lambda t: t * math.exp(-sigma * t), 0.0, hi - lo, epsabs=0.0, epsrel=1e-13)
        assert (m0, m1) == (pytest.approx(want0, rel=1e-13), pytest.approx(want1, rel=1e-13))
        assert e_hi == pytest.approx(math.exp(-sigma * hi), rel=1e-15)
        length = 1.0
        for x in (0.5 * (1.0 - 1e-12), 0.5, -0.5 * (1.0 - 1e-12), -0.5):
            assert self._moment(x, 0.0, length)[2:] == pytest.approx(
                self._moment(x * (1.0 + 1e-12), 0.0, length)[2:], rel=1e-11
            )

    def test_rejects_poisson(self):
        # a Poisson atom alone, or beside a trig atom in either order
        lam = Eigenvalue.irrational(math.sqrt(2.0) - 1.0)
        trig = TransversalAtom(0.7, 0.4, FourierSpec(b=1, a0=1.0))
        poisson = TransversalAtom(1.3, 0.6, flat_poisson())
        for atoms in ([poisson], [trig, poisson], [poisson, trig]):
            with pytest.raises(UnsupportedCurrentError):
                mass_closed_form(build_current(lam, atoms), 1.0)

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
            value, bound = _exact_pairs(current, [r])[0]
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
        value, bound = _exact_pairs(current, [0.5])[0]
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
    value, bound = _exact_pairs(current, [r], k0)[0]
    result = mass_quadrature(current, r, k0=k0)
    assert abs(value - result.value) <= result.error_estimate + bound


@given(
    current=_trig_currents(),
    k0=st.integers(-4, 4),
    log2_r=st.floats(-10.0, 0.0),
)
# a short strip whose mass is off by the rounding of its plaque limits more
# than by its panels' errors
@example(
    current=build_current(Eigenvalue.negative(-0.25), [TransversalAtom(
        0.375, 1.0, FourierSpec(b=1, a0=1.0, strip_c=math.log(0.375) / -0.25))]),
    k0=0,
    log2_r=-1.125,
)
@settings(max_examples=60, deadline=None)
def test_quadrature_error_covers_the_mpmath_mass(current, k0, log2_r):
    # the quadrature's reported error bounds its gap to the closed form at
    # 40 digits: it covers its panels, a rounding floor included where the
    # Kronrod-Gauss gap is 0, and the rounding of its plaque limits
    from oracles import mp_exact_masses

    r = 2.0**log2_r
    result = mass_quadrature(current, r, k0=k0)
    assert float(abs(result.value - mp_exact_masses(current, [r], k0)[0])) <= result.error_estimate


class TestBoundaryReduction:
    def test_flat_boundary_frozen_ratio(self):
        # H == 1 collapses the ratio to the pure jacobian integral: at
        # lambda = 1, |alpha| = 1/2 that is exactly 1 + |alpha|^2 = 1.25
        ratio = boundary_reduction_check(Eigenvalue.rational(1, 1), 0.5, flat_poisson(), math.exp(-1.0), 0.0)
        assert ratio == pytest.approx(1.25, rel=1e-5)

    @pytest.mark.parametrize("lam_value", [0.5, 1.0])
    @pytest.mark.parametrize("u", [0.0, 2.0, -5.0])
    def test_bump_ratios_inside_lemma_window(self, lam_value, u):
        lam = Eigenvalue.rational(1, round(1.0 / lam_value))
        n = 769
        ys = np.linspace(-16.0 * math.pi, 16.0 * math.pi, n)
        values = 0.4 + np.exp(-(ys**2) / 18.0)
        spec = PoissonSpec(ys=ys, values=values, tail=0.4)
        r = math.exp(-1.2 / lam_value)
        ratio = boundary_reduction_check(lam, 1.2, spec, r, u)
        c_min, c_max = min(1.0, lam_value), 1.0 + lam_value
        assert 0.5 * c_min <= ratio <= 2.0 * c_max

    def test_radius_gate(self):
        with pytest.raises(DomainError):
            boundary_reduction_check(Eigenvalue.rational(1, 2), 1.2, flat_poisson(), 0.5, 0.0)

    def test_rejects_linear_term(self):
        with pytest.raises(InputError):
            boundary_reduction_check(Eigenvalue.rational(1, 1), 0.5, flat_poisson(c_lin=0.2), math.exp(-1.0), 0.0)

    def test_eigenvalue_gate(self):
        with pytest.raises(DomainError, match=r"^reduction check needs an eigenvalue in \(0, 1\]$"):
            boundary_reduction_check(Eigenvalue.negative(-0.5), 0.5, flat_poisson(), 0.1, 0.0)


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
        k, n_max = 2, 20  # the decomposition lower_bound_nonperiodic sums
        expected = 0.0
        for n in range(-n_max, n_max + 1):
            lo, hi = interval_window(n, k)
            expected += kernel_weight(n) * 0.9 * boundary_integral(spec, lo, hi) / (2.0 * math.pi * k)
        expected *= min(1.0, lam.value) / (2.0 * math.pi)
        assert lower_bound_nonperiodic(cur) == pytest.approx(expected, rel=1e-12)

    def test_flat_boundary_window_lengths(self):
        # constant boundary turns the sum into pure window arithmetic
        lam = Eigenvalue.rational(1, 1)
        cur = build_current(lam, [TransversalAtom(1.3, 1.0, flat_poisson())])
        raw = 0.75 + 2.0 * sum(1.0 / (1.0 + m**2) for m in range(2, 22))
        want = 1.0 / (2.0 * math.pi) * raw
        assert lower_bound_nonperiodic(cur) == pytest.approx(want, rel=1e-12)

    def test_rejects_negative_eigenvalue(self, neg_single):
        with pytest.raises(InputError):
            lower_bound_nonperiodic(neg_single)

    def test_rejects_linear_term(self):
        cur = build_current(Eigenvalue.rational(1, 1), [TransversalAtom(1.3, 1.0, flat_poisson(c_lin=0.2))])
        with pytest.raises(UnsupportedCurrentError, match="^interval lower bound needs c_lin = 0$"):
            lower_bound_nonperiodic(cur)

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


def _bits(value):
    """A value with its type, floats by their bits, tuples entry by entry."""
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    return type(value).__name__, value.hex() if isinstance(value, float) else value


def _summary_bits(est):
    return tuple(_bits(getattr(est, field.name)) for field in dataclasses.fields(est))


def _outcome(judge):
    """The bits of what judge() returns, or the type and message of what it raises."""
    try:
        result = judge()
    except Exception as exc:
        return type(exc), str(exc)
    return [_summary_bits(est) for est in result]


@st.composite
def _summary_batches(draw):
    """Radii 2 to 20, falling or rising, and a batch of schedules at them.

    Each schedule is flat (its nus equal, so ss_tot is at most rounding),
    rising or falling in -log r, or noise, with errors from 0 up; some
    masses and errors are then inf or NaN.
    """
    steps = draw(st.integers(2, 20))
    gaps = draw(st.lists(st.floats(0.05, 3.0), min_size=steps - 1, max_size=steps - 1))
    heights = np.cumsum([-math.log(draw(st.sampled_from([1.0, 0.9, 0.5])))] + gaps)
    rs = [math.exp(-h) for h in heights]
    if draw(st.booleans()):
        rs.reverse()
    level = st.floats(0.0, 10.0)
    schedules = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["flat", "rising", "falling", "noise"]))
        a, b = draw(level), draw(st.floats(0.0, 3.0))
        if kind == "flat":
            nus = [a] * steps
        elif kind == "noise":
            nus = draw(st.lists(level, min_size=steps, max_size=steps))
        else:
            sign = 1.0 if kind == "rising" else -1.0
            nus = [a + sign * b * -math.log(r) for r in rs]
        errs = draw(st.lists(st.sampled_from([0.0, 1e-15, 1e-9, 1e-3, 0.5]), min_size=steps, max_size=steps))
        pairs = [[nu * math.pi * r**2, err * math.pi * r**2] for nu, err, r in zip(nus, errs, rs)]
        for i, j in draw(st.lists(st.tuples(st.integers(0, steps - 1), st.integers(0, 1)), max_size=2)):
            pairs[i][j] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        schedules.append([tuple(pair) for pair in pairs])
    return rs, schedules


def _rising_schedule(rs, first_error):
    # nu = 1 - 2 log r, whose first error alone may be NaN
    return [(((1.0 - 2.0 * math.log(r)) * math.pi * r**2), first_error if n == 0 else 0.0)
            for n, r in enumerate(rs)]


_HALVINGS = [0.5**n for n in range(12)]


def _fit_tolerances(rs, nus):
    """Bounds on the gaps between two least-squares fits of a schedule's tail: slope, intercept, R^2.

    Each fit is backward stable, so it answers for nus perturbed by a few
    n eps (|nu| + |x| |slope|), x = -log r: the slope then moves by that
    over sqrt(Sxx), the
    intercept by that times |mean x| plus n eps |nu| / sqrt(n), each
    residual by at most max |x| times the first plus the second, and R^2 by
    what those residuals and the rounding of the total sum of squares give,
    over that sum. 32 covers the few.
    """
    steps = len(rs)
    start = 0 if steps < 6 else steps // 2
    x, y = -np.log(np.asarray(rs[start:])), np.asarray(nus[start:])
    n, eps = len(x), 32.0 * len(x) * np.finfo(float).eps
    dx, dy = x - x.mean(), y - y.mean()
    # |nu| through max |nu|, whose square cannot underflow; subnormal nus
    # round to a few of the smallest subnormals
    size = math.sqrt(n) * float(np.abs(y).max())
    line = np.polyfit(x, y, 1)
    # a fit's rounding of x moves nu by up to eps |x| |slope| too
    gap = eps * (size + math.sqrt(n) * float(np.abs(x).max()) * abs(float(line[0]))) + 64.0 * n * 2.0**-1074
    slope = gap / math.sqrt(float(dx @ dx))
    intercept = slope * abs(float(x.mean())) + gap / math.sqrt(n)
    shift = slope * float(np.abs(x).max()) + intercept
    tot = float(dy @ dy)
    res = float(((y - np.polyval(line, x)) ** 2).sum())
    r_squared = math.inf if tot <= 1e-30 else (
        (2.0 * math.sqrt(n * res) * shift + n * shift**2) / tot + res * eps * (size**2) / tot**2)
    return slope, intercept, r_squared


def _same_judgement(got, want, rs):
    """got and want, LelongEstimates of one schedule, agree: fits within _fit_tolerances, the rest exactly.

    The nus, errors, bracket and monotone flag are worked out alike, so they
    match bit for bit. A fit that is not finite is not finite in both. The
    divergence flag matches unless the slope or R^2 lies within its
    tolerance of the flag's threshold.
    """
    exact = ("rs", "nus", "errs", "monotone_ok", "limit_estimate", "limit_bracket")
    assert [_bits(getattr(got, f)) for f in exact] == [_bits(getattr(want, f)) for f in exact]
    if not all(map(math.isfinite, want.nus[(0 if len(rs) < 6 else len(rs) // 2):])):
        assert not math.isfinite(got.slope) or not math.isfinite(got.r_squared)
        return
    tol_slope, _, tol_r2 = _fit_tolerances(rs, want.nus)
    assert abs(got.slope - want.slope) <= tol_slope
    assert abs(got.r_squared - want.r_squared) <= tol_r2
    if abs(want.slope) > tol_slope and abs(want.r_squared - 0.99) > tol_r2:
        assert got.diverging == want.diverging


class TestScheduleSummaries:
    """lelong_from_masses against the scalar judge of tests/oracles.py, which fits with np.polyfit.

    The batch fits every schedule with the closed-form least squares of a
    line, so its slope and R^2 agree with polyfit's within _fit_tolerances;
    the rest of each estimate is the scalar judge's, bit for bit.
    """

    # a diverging schedule whose first error is NaN: max(nu_0, NaN) is nu_0
    @example(batch=(_HALVINGS, [_rising_schedule(_HALVINGS, math.nan), _rising_schedule(_HALVINGS, 0.0)]))
    @example(batch=(_HALVINGS[:4], [[(0.0, 0.0)] * 4]))
    @given(batch=_summary_batches())
    @settings(max_examples=300, deadline=None)
    def test_rows_are_the_scalar_judge(self, batch):
        import oracles

        rs, schedules = batch
        got = lelong_from_masses(rs, schedules)
        assert len(got) == len(schedules)
        for est, schedule in zip(got, schedules):
            _same_judgement(est, oracles.lelong_from_masses(rs, schedule), rs)
        # the batch of one is the first row of the batch
        assert _outcome(lambda: lelong_from_masses(rs, schedules[:1])) == _outcome(lambda: got[:1])

    def test_corpus_schedules(self):
        import oracles

        cases, table = _corpus_batch(42)
        rs = lelong_radii(1.0, 0.5, 16)
        schedules = _exact_masses(table, rs)
        for steps in (16, 12):
            # the batch takes the array, the oracle the same numbers as Python floats
            rows = schedules[:, :steps]
            for est, row in zip(lelong_from_masses(rs[:steps], rows), rows.tolist()):
                _same_judgement(est, oracles.lelong_from_masses(rs[:steps], row), rs[:steps])

    @given(
        x0=st.floats(0.0, 20.0), gaps=st.lists(st.floats(0.01, 3.0), min_size=1, max_size=15),
        a=st.floats(-1e3, 1e3), b=st.floats(-1e3, 1e3), noise=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
        scale=st.sampled_from([0.0, 1e-12, 1e-6, 1.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_fit_is_polyfit_within_its_tolerance(self, x0, gaps, a, b, noise, scale):
        # random lines through noise at radii e^-x: the closed-form slope,
        # intercept and R^2 against np.polyfit's
        xs = np.cumsum([x0] + gaps)
        rs = np.exp(-xs).tolist()
        nus = (a + b * xs + scale * np.array(noise[:xs.size])).tolist()
        est = lelong_from_masses(rs, [[(nu * math.pi * r**2, 0.0) for nu, r in zip(nus, rs)]])[0]
        tol_slope, tol_intercept, tol_r2 = _fit_tolerances(rs, est.nus)
        start = 0 if len(rs) < 6 else len(rs) // 2
        x, y = -np.log(np.asarray(rs[start:])), np.asarray(est.nus[start:])
        slope, intercept = np.polyfit(x, y, 1)
        assert abs(est.slope - slope) <= tol_slope
        mean_x = float(x.mean())
        assert abs((float(y.mean()) - est.slope * mean_x) - intercept) <= tol_intercept + tol_slope * abs(mean_x)
        tot = float(((y - y.mean()) ** 2).sum())
        want = 0.0 if tot <= 1e-30 else 1.0 - float(((y - (slope * x + intercept)) ** 2).sum()) / tot
        assert abs(est.r_squared - want) <= tol_r2

    def test_area_that_underflows_is_domain_error(self):
        # pi r^2 is 0 for r below about 9e-163; the error names the first such radius
        rs, masses = [1e-100, 1e-200, 1e-300], [(1.0, 0.0)] * 3
        with pytest.raises(DomainError, match=r"^r = 1e-200: the area pi r\^2 underflows to 0$"):
            lelong_from_masses(rs, [masses, masses])

    def test_no_schedules(self):
        assert lelong_from_masses([1.0, 0.5], []) == []

    @pytest.mark.parametrize("r_start, ratio, index", [(1.0, 1e-200, 2), (1e-10, 1e-160, 2), (0.5, 0.5, 1074)])
    def test_radius_that_underflows_is_domain_error(self, r_start, ratio, index):
        # the error names the first radius that is 0.0 by its index, r_start and ratio
        want = (f"schedule radius {index}, r_start * ratio^{index} with r_start = {r_start!r} and "
                f"ratio = {ratio!r}, underflows to 0")
        with pytest.raises(DomainError) as exc_info:
            lelong_radii(r_start, ratio, index + 2)
        assert str(exc_info.value) == want
        assert lelong_radii(r_start, ratio, index)[-1] > 0.0

    @pytest.mark.parametrize("steps", [10**12, 10**400])
    def test_long_schedule_is_refused_without_its_radii(self, steps):
        # radius 1075 of a halving schedule is 0.0; a list of 10^12 radii
        # would not fit in memory, and 10^400 is past the float range
        with pytest.raises(DomainError, match=r"^schedule radius 1075, r_start \* ratio\^1075 with r_start = 1\.0 "):
            lelong_radii(1.0, 0.5, steps)

    def test_more_than_max_steps_is_refused_by_name(self):
        # no radius of this schedule underflows, and its MAX_STEPS + 1
        # radii are refused before any is built
        from lelonglab.mass import MAX_STEPS

        with pytest.raises(InputError, match=rf"^steps must be at most {MAX_STEPS}, not {MAX_STEPS + 1}$"):
            lelong_radii(1.0, 1.0 - 1e-13, MAX_STEPS + 1)

    @given(
        r_start=st.floats(min_value=5e-324, max_value=1.0),
        ratio=st.floats(min_value=5e-324, max_value=1.0, exclude_max=True),
        steps=st.integers(2, 3000),
    )
    @example(r_start=1.0, ratio=0.5, steps=1076).via("the first zero is the last radius")
    @example(r_start=1.0, ratio=0.5, steps=1075).via("the last radius is the smallest subnormal")
    @example(r_start=0.3, ratio=1e-300, steps=3).via("r_start * ratio^2 underflows")
    @settings(max_examples=300, deadline=None)
    def test_first_zero_is_the_list_scan(self, r_start, ratio, steps):
        rs = [r_start * ratio**n for n in range(steps)]
        if 0.0 not in rs:
            assert lelong_radii(r_start, ratio, steps) == rs
            return
        n = rs.index(0.0)
        with pytest.raises(DomainError, match=rf"^schedule radius {n}, r_start \* ratio\^{n} with "):
            lelong_radii(r_start, ratio, steps)

    @pytest.mark.parametrize("r_start", [0.0, -0.5, 1.5, math.nan])
    def test_start_outside_the_unit_interval(self, r_start):
        with pytest.raises(DomainError, match=r"^r_start must lie in \(0, 1\]$"):
            lelong_radii(r_start, 0.5, 12)


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

    # r = 2^-4 ... 2^-128, far below a 16-step schedule
    DEEP_RADII = [2.0**-n for n in range(4, 129)]

    @pytest.mark.parametrize("lv", [0.1, 0.01, 0.001])
    def test_constant_atom_nu_is_two_lambda(self, lv):
        # a0 = 1, |alpha| = 1/2, weight 1: the exact route's nu(r) is 2 lambda
        # at every radius, so result 1's positive limit tends to 0 with lambda
        cur = single_atom_current(Eigenvalue.irrational(lv), 0.5, FourierSpec(b=1, a0=1.0))
        for r in self.DEEP_RADII:
            nu = mass_closed_form(cur, r) / (math.pi * r * r)
            assert abs(nu / (2.0 * lv) - 1.0) <= 1e-12, r

    def test_constant_atom_nu_at_lambda_one(self, flagship):
        for r in self.DEEP_RADII:
            assert abs(mass_closed_form(flagship, r) / (math.pi * r * r) - 2.5) <= 1e-12, r

    def test_poisson_atoms_are_unsupported(self):
        lam = Eigenvalue.irrational(math.sqrt(2.0) - 1.0)
        trig = TransversalAtom(1.2, 1.0, FourierSpec(b=1, a0=1.0))
        poisson = TransversalAtom(1.3, 1.0, flat_poisson())
        for atoms in ([poisson], [trig, poisson]):
            with pytest.raises(UnsupportedCurrentError, match="trig atoms"):
                nu_limit_positive_periodic(build_current(lam, atoms))

    def test_negative_eigenvalue_is_unsupported(self, neg_single):
        with pytest.raises(UnsupportedCurrentError, match="negative eigenvalue"):
            nu_limit_positive_periodic(neg_single)

    def test_total_weight(self, flagship):
        assert total_weight(flagship) == 1.0


def _same_pairs(got, want):
    """Lists of (value, bound) float pairs equal bit for bit, signs of zeros included."""
    return [tuple(float.hex(x) for x in pair) for pair in got] == [
        tuple(float.hex(x) for x in pair) for pair in want
    ]


def _within_bounds(current, rs, k0, pairs):
    """Each (mass, bound) of pairs within its bound of tests/oracles.py's mpmath mass of current."""
    from oracles import mp_exact_masses

    assert len(pairs) == len(rs)
    for r, (value, bound), want in zip(rs, pairs, mp_exact_masses(current, rs, k0)):
        assert float(abs(value - want)) <= bound, (r, k0, value, float(want), bound)


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
    """_exact_masses against the closed form in mpmath (tests/oracles.py), within its own bound."""

    @given(
        current=_trig_families(),
        k0=st.sampled_from((0, 1, 2)),
        rs=st.lists(st.one_of(st.just(1.0), st.floats(2.0**-12, 1.0)), min_size=1, max_size=16),
    )
    @settings(max_examples=120, deadline=None)
    def test_same_masses_and_bounds(self, current, k0, rs):
        _within_bounds(current, rs, k0, _exact_pairs(current, rs, k0))

    @pytest.mark.parametrize("lam_value", [-0.5, -0.5 + 5e-10, -0.25])
    def test_resonant_strips(self, lam_value):
        # modes k/b = 2 lambda: the e^{-2 lambda v} term's rate is 0 or 1e-9
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
            _within_bounds(cur, rs, k0, _exact_pairs(cur, rs, k0))

    def test_corpus_currents(self):
        rs = [0.7**n for n in range(16)]
        for case in corpus(42):
            if closed_form_applicable(case.current):
                _within_bounds(case.current, rs, 0, _exact_pairs(case.current, rs))

    @given(
        sign=st.sampled_from((1.0, -1.0)),
        log_lam=st.floats(math.log(1e-6), math.log1p(-1e-6)),
        atoms=st.lists(st.tuples(st.floats(0.02, 0.98), st.floats(0.5, 2.0), st.floats(0.01, 2.0),
                                 st.sampled_from((0.0, 0.25)),
                                 st.lists(st.tuples(st.integers(1, 4), st.sampled_from((-1, 1)),
                                                    st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)),
                                          max_size=2, unique_by=lambda m: m[0] * m[1])),
                       min_size=1, max_size=6),
        b=st.sampled_from((1, 2, 3)),
        k0=st.integers(-2, 2),
        rs=st.lists(st.one_of(st.just(1.0), st.floats(2.0**-12, 1.0)), min_size=1, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_within_the_bound_of_mpmath(self, sign, log_lam, atoms, b, k0, rs):
        # strips and half-planes with lambda log-uniform in [1e-6, 1 - 1e-6]:
        # the rounding bound covers the gap to the closed form at 40 digits.
        # A strip of height C = log|alpha|/lambda keeps only the modes that
        # grow less than e^50 over it; half-plane modes decay
        from lelonglab.current import Current

        lam = Eigenvalue(sign * math.exp(log_lam), "irrational" if sign > 0 else "negative")
        built = []
        for inner, outer, weight, b0, modes in atoms:
            am = inner if lam.is_negative else inner * outer * 1.5
            height = math.log(am) / lam.value if lam.is_negative else None
            kept = tuple((s * k, ak, bk) for k, s, ak, bk in modes
                         if (s < 0 if height is None else s * k * height / b < 50.0))
            built.append(TransversalAtom(am, weight, FourierSpec(b=b, a0=1.0, b0=b0, modes=kept, strip_c=height)))
        current = Current(lam=lam, atoms=tuple(built))
        _within_bounds(current, rs, k0, _exact_pairs(current, rs, k0))

    @given(
        current=_trig_families(),
        k0=st.integers(-3, 3),
        m=st.integers(-10**18, 10**18),
        rs=st.lists(st.floats(2.0**-12, 1.0), min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_whole_periods_of_k0_give_the_same_masses(self, current, k0, m, rs):
        # every mode's phase turns by whole periods between the k0-th and the
        # (k0 + m b)-th window, b the lcm of the specs' b: the integers take
        # the turns, so the masses are the same to the bit
        period = math.lcm(*(atom.spec.b for atom in current.atoms))
        assert _same_pairs(_exact_pairs(current, rs, k0 + m * period), _exact_pairs(current, rs, k0))

    def test_radius_validation(self, flagship):
        for bad in (0.0, 1.5, math.nan):
            with pytest.raises(DomainError):
                _exact_pairs(flagship, [0.5, bad])

    @given(
        currents=st.lists(_trig_families(), min_size=1, max_size=5),
        k0=st.integers(-2, 2),
        rs=st.lists(st.one_of(st.just(1.0), st.floats(2.0**-12, 1.0)), min_size=1, max_size=16),
    )
    @settings(max_examples=80, deadline=None)
    def test_one_table_of_many_currents(self, currents, k0, rs):
        # currents of either sign in one table: each current's pairs are,
        # bit for bit, those of a table of that current alone, and each
        # radius's those of that radius alone
        from lelonglab.current import atom_table

        table = atom_table([(current.lam, current.atoms) for current in currents])
        got = _exact_masses(table, rs, k0)
        assert len(got) == len(currents)
        for current, pairs in zip(currents, got):
            assert _same_pairs(pairs, _exact_pairs(current, rs, k0))
            assert _same_pairs(pairs, [_exact_pairs(current, [r], k0)[0] for r in rs])

    def test_a_poisson_current_gets_its_tail_twin(self, flagship):
        # a Poisson atom's base is its tail's extension: the trig atom
        # a0 = tail, b0 = c_lin, whatever its samples are and at any k0
        from lelonglab.current import atom_table

        lam = Eigenvalue.rational(1, 2)
        poisson = single_atom_current(lam, 1.3, spanning_poisson(0.6))
        twin = single_atom_current(lam, 1.3, FourierSpec(b=1, a0=1.0, b0=0.6))
        rs = [2.0**-n for n in range(6)]
        table = atom_table([(c.lam, c.atoms) for c in (flagship, poisson, flagship)])
        for k0 in (0, 3):
            got = _exact_masses(table, rs, k0)
            assert _same_pairs(got[1], _exact_pairs(twin, rs))
            assert _same_pairs(got[0], _exact_pairs(flagship, rs, k0))
            assert _same_pairs(got[2], got[0])
