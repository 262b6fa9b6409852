"""Reference implementations the package is checked against.

integrate_lockstep refines each job with a heap of panels and a parked list:
the earlier implementation of quadrature.integrate_lockstep, kept as an
oracle, which must split the same panels, give the same numbers bit for bit,
make the same integrand calls and fail the same way; its panel errors carry
the same rounding floor.
poisson_rows sums a Poisson window's full grid and its half-density probe
as two kernel blocks over the samples' departures from the tail, each made
a window integral by the same exact (tail + c_lin v)(u1 - u0), with the
package's error of the window's partial cells in the model row, and
truncate_half_plane sums the truncation envelope and its tail bound, each
exponential's tail weighted by its coefficient, with a generator, from
each spec's own envelope: the earlier forms of harmonic.poisson_rows and
mass._truncate_half_plane, which must agree with them bit for bit.
jacobian_coefficients is the scalar formula of foliation.jacobian_rows,
modulus by modulus, which must agree with it to an ulp or two of its
powers. Without a PoissonWindow, poisson_rows sums grids it builds with no
shells, every node directly: the reference for the far field.
current_from_json and build_current are the per-atom loader and validator:
one FourierSpec, one _validate_atom call and one positivity certificate per
atom. The package's column loader and array validator must build the same
current from the same input, or fail with the same error for the same atom.
load_current decodes every input file with the stdlib json and loads it with
that per-atom loader, as cli._load_current does with orjson and the column
loader: the two must load the same current from any text, or fail with the
same error.
whole_atom_masses integrates every atom of a current whole, a Poisson
atom's tail extension and departures together, by quadrature.integrate one
radius at a time: the reference for the split of both mass routes into the
table's trig rows and the Poisson departures.
mp_exact_masses is the exact route's closed form in mpmath, from the same
float inputs, and mp_mode_integrals its window coefficients: the masses of
mass._exact_masses must lie within their reported rounding bounds of it.
mp_strip gives ia and ib in mpmath with a rounding tolerance for the float
formulas; ia and ib here, of one (lambda, |alpha|, r) in scalar Python, say
which entry of an array call must raise, and how.
lelong_from_masses judges one schedule in scalar Python, fitting it with
np.polyfit: mass.lelong_from_masses must agree with it, its fit within a
stated bound and the rest bit for bit. normalize reads the base value with
a numpy evaluate at (0, 0), the earlier form of harmonic.normalize, which
must give its bits and the same errors.
"""

from __future__ import annotations

import heapq
import json
import math
import sys
from dataclasses import replace
from typing import Sequence

import mpmath
import numpy as np

from lelonglab.current import L1_SLACK, NORMALIZATION_TOL, Current, TransversalAtom, eigenvalue_from_json
from lelonglab.errors import (
    DomainError,
    EmptyLeafError,
    InputError,
    InvalidSpecError,
    NormalizationError,
    QuadratureFailure,
)
from lelonglab.foliation import Eigenvalue
from lelonglab.harmonic import (
    FAR_ORDER,
    BoundaryGrid,
    FourierSpec,
    HarmonicSpec,
    PoissonSpec,
    _check_v_domain,
    _end_cells,
    _far_sum,
    _full_samples,
    _partial_cell_error,
    _probe_samples,
    _require,
    boundary_integral,
    check_positivity,
    evaluate,
    json_float,
    poisson_window,
    spec_from_json,
    window_integral,
)
from lelonglab import harmonic
from lelonglab.mass import DIVERGENCE_FACTOR, TWO_PI, LelongEstimate, _tail_integral
from lelonglab.quadrature import _NODES, _W_GAUSS, _W_KRONROD, DEFAULT_CONFIG, ROUNDING_FLOOR, integrate


def load_current(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not valid UTF-8 ({exc})") from exc
    return current_from_json(json.loads(text))


def _base_value(spec: HarmonicSpec) -> float:
    """Density at u = v = 0, equal to evaluate(spec, 0.0, 0.0).

    For trig specs that is a0 + sum_k a_k, since every sine vanishes and
    every exponential is 1 there; the terms are added left to right, in the
    order evaluate adds them, so the sums agree to the bit.
    """
    if isinstance(spec, PoissonSpec):
        return evaluate(spec, 0.0, 0.0)
    base = float(spec.a0)
    for _, a, _ in spec.modes:
        base += a
    return base


def _validate_atom(lam: Eigenvalue, atom: TransversalAtom, index: int):
    tag = f"atoms[{index}]"
    if not (0.0 < math.hypot(atom.alpha.real, atom.alpha.imag) < math.inf):
        raise InputError(f"{tag}.alpha: transversal point must be nonzero and finite")
    if not (atom.weight > 0.0) or not math.isfinite(atom.weight):
        raise InputError(f"{tag}.weight: weight must be positive and finite")
    spec = atom.spec
    am = atom.alpha_modulus
    if lam.is_negative:
        if am >= 1.0:
            raise EmptyLeafError(f"{tag}: leaf through |alpha| = {am} misses the bidisc when the eigenvalue is negative")
        if not isinstance(spec, FourierSpec) or not spec.on_strip:
            raise InvalidSpecError(f"{tag}.spec: negative eigenvalue atoms need a strip spec")
        c_expected = math.log(am) / lam.value
        if abs(spec.strip_c - c_expected) > 1e-9 * max(1.0, c_expected):
            raise InvalidSpecError(
                f"{tag}.spec.strip_c: strip height {spec.strip_c} does not match log|alpha|/lambda = {c_expected}"
            )
    else:
        if isinstance(spec, FourierSpec) and spec.on_strip:
            raise InvalidSpecError(f"{tag}.spec: positive eigenvalue atoms live on a half-plane, not a strip")
    base = _base_value(spec)
    if abs(base - 1.0) > NORMALIZATION_TOL:
        raise NormalizationError(f"{tag}.spec: density at the base point is {base}, expected 1")
    if isinstance(spec, FourierSpec):
        if spec.on_strip:
            try:
                positive = check_positivity(spec)
            except InvalidSpecError as exc:
                raise InvalidSpecError(f"{tag}." + str(exc)) from exc
            if not positive:
                raise InvalidSpecError(f"{tag}.spec: strip density dips negative")
        elif spec.mode_l1() > spec.a0 * (1.0 + L1_SLACK) + L1_SLACK:
            raise InvalidSpecError(
                f"{tag}.spec: mode coefficients sum to {spec.mode_l1()}, exceeding a0 = {spec.a0}"
            )
    # Poisson positivity is structural: nonnegative samples, tail, c_lin.


def build_current(lam: Eigenvalue, atoms: Sequence[TransversalAtom]) -> Current:
    """Validate every atom invariant and assemble the current."""
    if not atoms:
        raise InputError("atoms: a current needs at least one atom")
    atoms = tuple(atoms)
    for i, atom in enumerate(atoms):
        _validate_atom(lam, atom, i)
    return Current(lam=lam, atoms=atoms)


def current_from_json(obj) -> Current:
    if not isinstance(obj, dict):
        raise InputError("current: expected a JSON object")
    lam = eigenvalue_from_json(_require(obj, "lambda", ""), "lambda")
    atoms_obj = _require(obj, "atoms", "")
    if not isinstance(atoms_obj, list) or not atoms_obj:
        raise InputError("atoms: expected a nonempty list")
    atoms = []
    for i, entry in enumerate(atoms_obj):
        tag = f"atoms[{i}]"
        if not isinstance(entry, dict):
            raise InputError(f"{tag}: expected an object")
        alpha_pair = _require(entry, "alpha", tag)
        if not isinstance(alpha_pair, (list, tuple)) or len(alpha_pair) != 2:
            raise InputError(f"{tag}.alpha: expected [re, im]")
        weight = _require(entry, "weight", tag)
        try:
            alpha = complex(json_float(alpha_pair[0], tag, "alpha"), json_float(alpha_pair[1], tag, "alpha"))
            weight = json_float(weight, tag, "weight")
        except OverflowError as exc:
            raise InputError(f"{tag}: non-numeric alpha or weight ({exc})") from exc
        spec = spec_from_json(_require(entry, "spec", tag), f"{tag}.spec")
        atoms.append(TransversalAtom(alpha=alpha, weight=weight, spec=spec))
    return build_current(lam, atoms)


def _job_spans(a, b, ranges):
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InputError("integration endpoints must be finite")
    if a > b:
        raise InputError("integration needs a < b")
    spans = list(ranges)
    for lo, hi in spans:
        if not (a <= lo <= hi <= b):
            raise InputError(f"range [{lo}, {hi}] is not an ordered sub-range of [{a}, {b}]")
    return spans


def _seed_panels(spans):
    cuts = sorted({x for lo, hi in spans if lo < hi for x in (lo, hi)})
    for pa, pb in zip(cuts, cuts[1:]):
        members = tuple([n for n, (lo, hi) in enumerate(spans) if lo <= pa and pb <= hi])
        if members:
            yield pa, pb, members


def _evaluate(f, rows, los, his):
    lo = np.array(los)
    hi = np.array(his)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    fv = np.asarray(f(np.array(rows), mid[:, None] + half[:, None] * _NODES), dtype=float)
    single = fv.ndim == 2
    if single:
        fv = fv[:, None, :]
    half = half[:, None]
    with np.errstate(invalid="ignore", over="ignore"):
        kron = half * (fv @ _W_KRONROD)
        err = np.abs(kron - half * (fv[..., 1::2] @ _W_GAUSS))
        err += (ROUNDING_FLOOR * sys.float_info.epsilon) * half * (np.abs(fv) @ _W_KRONROD)
    finite = np.isfinite(err).all(axis=1).tolist()
    leads = err[:, 0].tolist()
    if single:
        return kron[:, 0].tolist(), leads, leads, finite
    return list(kron), list(err), leads, finite


def _lead(x):
    return x if isinstance(x, float) else float(x[0])


def _over_budget(value, err, abs_tol, rel_tol):
    if not isinstance(err, float):
        value, err = value[0], err[0]
    return err > max(abs_tol, rel_tol * abs(value))


def _nonfinite(job, pa, pb, members, value, err):
    return QuadratureFailure(
        f"non-finite integrand on [{pa}, {pb}] (value {value}, err {err})",
        best_estimate=math.nan,
        error_estimate=math.inf,
        job=job,
        ranges=members,
    )


class _Job:
    def __init__(self, n_ranges):
        self.values = [0.0] * n_ranges
        self.errors = [0.0] * n_ranges
        self.heap = []
        self.parked = []
        self.open = set()
        self.panels = 0

    def add(self, panel):
        self.heap.append(panel)
        for n in panel[6]:
            self.values[n] = self.values[n] + panel[4]
            self.errors[n] = self.errors[n] + panel[5]

    def worst(self):
        while True:
            panel = heapq.heappop(self.heap)
            if self.open.isdisjoint(panel[6]):
                self.parked.append(panel)
            else:
                return panel

    def split(self, panel, left, right, abs_tol, rel_tol):
        depth, pval, perr, members = panel[1], panel[4], panel[5], panel[6]
        reopened = False
        for n in members:
            self.values[n] = self.values[n] + (left[2] + right[2] - pval)
            self.errors[n] = self.errors[n] + (left[3] + right[3] - perr)
            if not _over_budget(self.values[n], self.errors[n], abs_tol, rel_tol):
                self.open.discard(n)
            elif n not in self.open:
                self.open.add(n)
                reopened = True
        for lo, hi, value, err, lead in (left, right):
            heapq.heappush(self.heap, (-lead, depth + 1, lo, hi, value, err, members))
        self.panels += 1
        if reopened:
            for item in self.parked:
                heapq.heappush(self.heap, item)
            self.parked = []


def integrate_lockstep(f, jobs, rel_tol=1e-9, abs_tol=1e-12, max_depth=16, max_panels=20000):
    """The heap engine: per job a heap of panels, parked panels re-pushed on a reopen."""
    spans_of = [_job_spans(a, b, ranges) for a, b, ranges in jobs]
    states = [_Job(len(spans)) for spans in spans_of]
    seeds = [(j, pa, pb, members) for j, spans in enumerate(spans_of)
             for pa, pb, members in _seed_panels(spans)]
    if seeds:
        rows, los, his, _ = zip(*seeds)
        values, errors, leads, finite = _evaluate(f, rows, los, his)
        for k, (j, pa, pb, members) in enumerate(seeds):
            if not finite[k]:
                raise _nonfinite(j, pa, pb, members, values[k], errors[k])
            states[j].add((-leads[k], 0, pa, pb, values[k], errors[k], members))
    for job in states:
        heapq.heapify(job.heap)
        job.panels = len(job.heap)
        job.open = {
            n for n in range(len(job.values))
            if _over_budget(job.values[n], job.errors[n], abs_tol, rel_tol)
        }
    live = [j for j, job in enumerate(states) if job.open]
    while live:
        picks, rows, los, his = [], [], [], []
        for j in live:
            panel = states[j].worst()
            pa, pb = panel[2], panel[3]
            mid = 0.5 * (pa + pb)
            picks.append((j, panel, mid))
            if panel[1] < max_depth:
                rows += (j, j)
                los += (pa, mid)
                his += (mid, pb)
        if rows:
            values, errors, leads, finite = _evaluate(f, rows, los, his)
        k = 0
        for j, panel, mid in picks:
            job = states[j]
            neg_err, depth, pa, pb, _, _, members = panel
            if depth >= max_depth:
                unresolved = sorted(job.open.intersection(members))
                raise QuadratureFailure(
                    f"no convergence at depth {depth} on [{pa}, {pb}] (err {-neg_err:.3e})",
                    best_estimate=_lead(job.values[unresolved[0]]),
                    error_estimate=_lead(job.errors[unresolved[0]]),
                    job=j,
                    ranges=tuple(unresolved),
                )
            halves = []
            for lo, hi in ((pa, mid), (mid, pb)):
                if not finite[k]:
                    raise _nonfinite(j, lo, hi, members, values[k], errors[k])
                halves.append((lo, hi, values[k], errors[k], leads[k]))
                k += 1
            job.split(panel, *halves, abs_tol, rel_tol)
            if job.panels > max_panels:
                raise QuadratureFailure(
                    f"panel budget {max_panels} exhausted splitting [{pa}, {pb}]",
                    best_estimate=_lead(job.values[members[0]]),
                    error_estimate=_lead(job.errors[members[0]]),
                    job=j,
                    ranges=tuple(sorted(job.open)),
                )
        live = [j for j in live if states[j].open]
    return [list(zip(job.values, job.errors)) for job in states]


def jacobian_coefficients(lv, alpha_modulus):
    """(c1, c2) with jacobian_density = 2 (c1 e^{-2v} + c2 e^{-2 lambda v})."""
    if alpha_modulus < 1.0:
        return 1.0, (lv * alpha_modulus) ** 2
    return alpha_modulus ** (-2.0 / lv), lv**2


def _jac_terms(lam, am):
    c1, c2 = jacobian_coefficients(lam.value, am)
    return (2.0 * c1, 2.0), (2.0 * c2, 2.0 * lam.value)


def _leaf_domain(lv, am, r):
    """(v_min, v_max) of the plaque, v_max None on half-planes; None if empty.

    In logarithms: |z| = e^{-v} < r is v > -log r, and |w| = am e^{-lv v} < r
    is lv v > log am - log r, a lower cut for lv > 0 and an upper one for
    lv < 0, so no power of r rounds the comparison away when lv is tiny.
    """
    z_cut = -math.log(r)
    w_cut = (math.log(am) - math.log(r)) / lv
    if lv > 0.0:
        return (w_cut if w_cut >= z_cut else z_cut), None
    if w_cut > z_cut:
        return z_cut, w_cut
    return None


def mp_mode_integrals(spec, u0, u1):
    """mode_integrals of one spec over [u0, u1], in mpmath at the working precision.

    u0 and u1 may be mpmath numbers, so 2 pi k0 is exact.
    """
    out = []
    for k, ak, bk in spec.modes:
        upper, lower = k * mpmath.mpf(u1) / spec.b, k * mpmath.mpf(u0) / spec.b
        ds = mpmath.sin(upper) - mpmath.sin(lower)
        dc = mpmath.cos(upper) - mpmath.cos(lower)
        out.append(mpmath.mpf(spec.b) / k * (ak * ds - bk * dc))
    return out


def _mp_segment(a, b, s, lo, hi):
    """int_lo^hi (a + b v) e^{-s v} dv in mpmath; hi = inf needs s > 0."""
    if s == 0:
        return a * (hi - lo) + b * (hi**2 - lo**2) / 2

    def antiderivative(v):
        return -mpmath.exp(-s * v) * ((a + b * v) / s + b / s**2)

    return (0 if hi == mpmath.inf else antiderivative(hi)) - antiderivative(lo)


def mp_exact_masses(current, rs, k0=0, dps=40):
    """The mass of an all-trig current at each radius, in mpmath from the same float inputs.

    The closed form the exact route sums, with every number the float code
    rounds taken exactly: the eigenvalue, moduli, weights, coefficients and
    radii as given, 2 pi k0, the logs, powers, phases and exponentials at dps
    digits. Its gap to the float masses is their rounding error alone.
    """
    mpf = mpmath.mpf
    with mpmath.workdps(dps):
        lv = mpf(current.lam.value)
        u0 = 2 * mpmath.pi * k0
        u1 = u0 + 2 * mpmath.pi
        atoms = []
        for atom in current.atoms:
            am, spec = mpf(atom.alpha_modulus), atom.spec
            drop = 0 if spec.strip_c is None else mpf(spec.a0) / mpf(spec.strip_c)
            parts = [(2 * mpmath.pi * spec.a0, 2 * mpmath.pi * (spec.b0 - drop), 0)]
            parts += [(coef, 0, mpf(k) / spec.b)
                      for (k, _, _), coef in zip(spec.modes, mp_mode_integrals(spec, u0, u1))]
            c1, c2 = (1, (lv * am) ** 2) if am < 1 else (am ** (-2 / lv), lv**2)
            atoms.append((mpf(atom.weight), am, mpmath.log(am), ((2 * c1, 2), (2 * c2, 2 * lv)), parts))
        masses = []
        for r in rs:
            log_r = mpmath.log(mpf(r))
            total = mpf(0)
            for weight, am, log_am, jac, parts in atoms:
                cut = (log_am - log_r) / lv
                if lv > 0:
                    lo = (cut if cut >= -log_r else -log_r) - (log_am / lv if am >= 1 else 0)
                    hi = mpmath.inf
                elif cut > -log_r:
                    lo, hi = -log_r, cut
                else:
                    continue
                for c, rate in jac:
                    for a, b, grow in parts:
                        total += weight * c * _mp_segment(a, b, rate - grow, lo, hi)
            masses.append(total)
    return masses


def _kernel_sum(grid, u0, u1, vflat):
    width = u1 - u0
    vi = vflat[:, None]
    j = grid.shell(float(vflat.max()))
    near = slice(None) if j is None else slice(*grid.near[j])
    kern = np.arctan2(width * vi, vi * vi + grid.gap[near])
    bulk = kern @ grid.weighted[near]
    if j is not None:
        bulk = bulk + _far_sum(grid.betas[j], vflat / grid.radii[j])
    return bulk


def _direct_grid(ys, weighted, u0, u1):
    """The grid of ys over [u0, u1] with no shells."""
    return BoundaryGrid(0.5 * (u1 - u0), weighted, (ys - u0) * (ys - u1), np.empty(0),
                        np.empty((0, 2), dtype=int), np.empty((0, FAR_ORDER // 2)), np.empty(0))


def poisson_rows(spec, u0, u1, v, window=None):
    """(window integral, model error) of a Poisson spec: full grid, then probe grid.

    With window, the PoissonWindow of spec over [u0, u1], its two grids are
    summed; without it, two grids with no shells.
    """
    if not u1 > u0:
        raise DomainError("window integral needs u0 < u1")
    if window is None:
        full = _direct_grid(*_full_samples(spec), u0, u1)
        probe = _direct_grid(*_probe_samples(spec), u0, u1)
    else:
        full, probe = window.full, window.probe
    v_arr = np.asarray(v, dtype=float)
    _check_v_domain(spec, v_arr)
    vv = np.ravel(v_arr)
    value = np.empty_like(vv)
    at_boundary = vv <= 0.0
    if np.any(at_boundary):
        value[at_boundary] = boundary_integral(spec, u0, u1)
    model = np.zeros_like(vv)
    inside = ~at_boundary
    if np.any(inside):
        v_in = vv[inside]
        level = (spec.tail + spec.c_lin * v_in) * (u1 - u0)
        bulk = _kernel_sum(full, u0, u1, v_in)
        value[inside] = bulk / math.pi + level
        v_max = float(v_in.max())
        remainder = 2.0 * full.remainder(v_max) + probe.remainder(v_max)
        partial = _partial_cell_error(spec, _end_cells(spec, u0, u1), v_in)
        coarse = _kernel_sum(probe, u0, u1, v_in)
        model[inside] = np.abs(bulk - coarse) / math.pi + (remainder + partial)
    return value.reshape(v_arr.shape), model.reshape(v_arr.shape)


def truncate_half_plane(spec, lam, am, v_lo, cfg):
    if isinstance(spec, FourierSpec):
        p, q = spec.a0 + spec.mode_l1(), spec.b0
    else:
        p, q = max(float(np.max(spec.values)), spec.tail), spec.c_lin
    p *= TWO_PI
    q *= TWO_PI
    terms = _jac_terms(lam, am)
    threshold = cfg.abs_tol * 10.0 ** (-3.0)

    def env(v):
        return (p + q * v) * sum(c * math.exp(-rate * v) for c, rate in terms)

    v_hi = v_lo + 1.0
    step = max(0.5, 0.5 / min(1.0, lam.value))
    while env(v_hi) > threshold and v_hi < v_lo + 5000.0:
        v_hi += step
    tail = sum(c * _tail_integral(p, q, rate, v_hi) for c, rate in terms)
    return v_hi, tail


def whole_atom_masses(current, rs, k0=0, cfg=DEFAULT_CONFIG):
    """(mass, error) at each radius in rs, every atom integrated whole, one radius at a time.

    Per atom and radius, quadrature.integrate of the area density times the
    atom's window integral over [2 pi k0, 2 pi k0 + 2 pi]: for a Poisson
    atom, harmonic.poisson_rows on its PoissonWindow, which adds the tail's
    exact part (tail + c_lin v)(u1 - u0) itself, with the grid-model error
    as a second integrand on the same partition; for a trig atom,
    window_integral. The plaque is _leaf_domain's, the area density the
    scalar formula, and a half-plane is cut where truncate_half_plane puts
    it, from the atom's whole envelope, with its tail bound added to the
    error. Nothing here reads the atom table or splits off the departures.
    """
    lam = current.lam
    lv = lam.value
    u0 = TWO_PI * k0
    u1 = u0 + TWO_PI
    masses = [[0.0, 0.0] for _ in rs]
    for atom in current.atoms:
        am, spec = atom.alpha_modulus, atom.spec
        terms = _jac_terms(lam, am)
        if isinstance(spec, PoissonSpec):
            window = poisson_window(spec, u0, u1)

            def rows(v, window=window):
                return harmonic.poisson_rows(window, v)
        else:
            def rows(v, spec=spec):
                return np.stack((window_integral(spec, u0, u1, v), np.zeros(np.shape(v))))

        def integrand(v, rows=rows, terms=terms):
            return sum(c * np.exp(-rate * v) for c, rate in terms) * rows(v)

        shift = math.log(am) / lv if lv > 0.0 and am >= 1.0 else 0.0
        for mass, r in zip(masses, rs):
            plaque = _leaf_domain(lv, am, r)
            if plaque is None:
                continue
            lo, hi = plaque[0] - shift, plaque[1]
            tail = 0.0
            if hi is None:
                hi, tail = truncate_half_plane(spec, lam, am, lo, cfg)
            values, errors = integrate(integrand, lo, hi, cfg)
            mass[0] += atom.weight * values[0]
            mass[1] += atom.weight * (errors[0] + tail + values[1] + errors[1])
    return [tuple(mass) for mass in masses]


def _fit_against_log(rs, nus):
    # fit the asymptotic tail: early radii carry decaying transients from
    # the outer-region terms that would pollute slope and R^2
    start = 0 if len(rs) < 6 else len(rs) // 2
    x = -np.log(np.asarray(rs[start:]))
    y = np.asarray(nus[start:])
    # nus that are not finite, or whose squares overflow, give a fit that is
    # not finite either, which the command line then refuses by name
    with np.errstate(over="ignore", invalid="ignore"):
        slope, intercept = np.polyfit(x, y, 1)
        fitted = slope * x + intercept
        ss_res = float(np.sum((y - fitted) ** 2))
        ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot <= 1e-30:
        return float(slope), 0.0
    return float(slope), 1.0 - ss_res / ss_tot


def lelong_from_masses(rs, masses):
    """The LelongEstimate of (mass, error) pairs at the radii rs of a schedule.

    monotone_ok accepts monotonicity in either direction within per-point
    error bars: Skoda-style decay and b0-divergence are both monotone
    schedules, a hump is neither.
    """
    steps = len(rs)
    nus, errs = [], []
    for r, (value, err) in zip(rs, masses):
        area = math.pi * r**2
        nus.append(value / area)
        errs.append(err / area)

    eps = 1e-12
    up_break = any(
        nus[i + 1] > nus[i] + errs[i] + errs[i + 1] + eps * max(1.0, nus[i])
        for i in range(steps - 1)
    )
    down_break = any(
        nus[i + 1] < nus[i] - errs[i] - errs[i + 1] - eps * max(1.0, nus[i])
        for i in range(steps - 1)
    )
    monotone_ok = not (up_break and down_break)

    limit_estimate = nus[-1]
    lower = max(0.0, nus[-1] - errs[-1])
    upper = max(nus[-2] + errs[-2], nus[-1] + errs[-1])
    slope, r_squared = _fit_against_log(rs, nus)
    first = nus[0]
    diverging = bool(
        slope > 0.0
        and r_squared > 0.99
        and nus[-1] > DIVERGENCE_FACTOR * max(first, errs[0])
    )
    return LelongEstimate(
        rs=tuple(rs),
        nus=tuple(nus),
        errs=tuple(errs),
        monotone_ok=monotone_ok,
        limit_estimate=limit_estimate,
        limit_bracket=(lower, upper),
        slope=slope,
        r_squared=r_squared,
        diverging=diverging,
    )


def _strip_terms(lv: float, am: float, r: float):
    """log|alpha|, log r and the inner and outer weights of the strip integrals."""
    if not lv < 0.0:
        raise DomainError("strip integrals need a negative eigenvalue")
    if not (0.0 < r <= 1.0):
        raise DomainError("radius must lie in (0, 1]")
    if not (0.0 < am < r ** (1.0 - lv)):
        raise DomainError(
            f"|alpha| = {am} outside the admissible range (0, r^(1-lambda)) at r = {r}"
        )
    log_am, log_r = math.log(am), math.log(r)
    # On the admissible range both weights are below 1, but one power of a
    # product can overflow while the other underflows; only then does the
    # weight go through logarithms.
    try:
        s_in = am**2 * r ** (2.0 * lv - 2.0)  # e^{-2 lambda v} weight at work
    except OverflowError:
        s_in = math.exp(2.0 * log_am + (2.0 * lv - 2.0) * log_r)
    try:
        s_out = am ** (-2.0 / lv) * r ** (2.0 / lv - 2.0)
    except OverflowError:
        s_out = math.exp(-2.0 / lv * log_am + (2.0 / lv - 2.0) * log_r)
    return log_am, log_r, s_in, s_out


def ia(lv: float, am: float, r: float) -> float:
    """Strip integral of the interpolating part against the area density.

    (1/r^2) int (1 - lambda v / log|alpha|) jac dv over the plaque strip.
    """
    log_am, log_r, s_in, s_out = _strip_terms(lv, am, r)
    return (
        1.0
        + lv * s_in
        + (
            -2.0 * s_out * log_r
            + lv * s_out
            + 2.0 * lv**2 * s_in * log_r
            - lv * s_in
        )
        / (2.0 * log_am)
    )


def ib(lv: float, am: float, r: float) -> float:
    """Strip integral of v against the area density, (1/r^2) int v jac dv."""
    log_am, log_r, s_in, s_out = _strip_terms(lv, am, r)
    return 0.5 * (
        -s_out * (lv + 2.0 * log_am - 2.0 * log_r) / lv
        + s_in * (1.0 - 2.0 * lv * log_r)
        - 2.0 * log_am
    )


def mp_strip(lv, am, r, dps=40):
    """(ia, ib, ia_tol, ib_tol) of one (lambda, |alpha|, r) in mpmath, from the same floats.

    Each tolerance is a rounding bound for the float formula: 8 eps times
    the sum of the magnitudes of its terms, each term's magnitude times
    1 + the conditioning of its powers, |y log x| summed over the powers
    x^y it takes, which a rounded exponent or base amplifies.
    """
    mpf = mpmath.mpf
    eps = sys.float_info.epsilon
    with mpmath.workdps(dps):
        lv, am, r = mpf(lv), mpf(am), mpf(r)
        log_am, log_r = mpmath.log(am), mpmath.log(r)
        inner, outer = 2 * lv - 2, 2 / lv - 2
        s_in = am**2 * r**inner
        s_out = am ** (-2 / lv) * r**outer
        k_in = 1 + abs(2 * log_am) + abs(inner * log_r)
        k_out = 1 + abs(2 / lv * log_am) + abs(outer * log_r)
        a_terms = [(1, 1), (lv * s_in, k_in)] + [
            (t / (2 * log_am), k) for t, k in (
                (-2 * s_out * log_r, k_out), (lv * s_out, k_out), (2 * lv**2 * s_in * log_r, k_in), (-lv * s_in, k_in))]
        b_terms = [(-s_out / 2, k_out), (-s_out * log_am / lv, k_out), (s_out * log_r / lv, k_out),
                   (s_in / 2, k_in), (-s_in * lv * log_r, k_in), (-log_am, 1)]
        value_a, value_b = (sum(t for t, _ in terms) for terms in (a_terms, b_terms))
        tol_a, tol_b = (8 * eps * sum(abs(t) * k for t, k in terms) for terms in (a_terms, b_terms))
        return float(value_a), float(value_b), float(tol_a), float(tol_b)


def normalize(spec: HarmonicSpec) -> HarmonicSpec:
    """Rescale so the density is 1 at the base point u = v = 0."""
    base = evaluate(spec, 0.0, 0.0)
    if not (base > 0.0) or not math.isfinite(base):
        raise NormalizationError(f"degenerate normalization: density at the base point is {base}")
    if isinstance(spec, FourierSpec):
        a0, b0 = spec.a0 / base, spec.b0 / base
        modes = tuple((k, a / base, bb / base) for k, a, bb in spec.modes)
        coefs = [a0, b0] + [x for _, a, bb in modes for x in (a, bb)]
        if not all(math.isfinite(x) for x in coefs):  # a subnormal base
            raise NormalizationError(f"degenerate normalization: rescaling by the density {base} overflows")
        return replace(spec, a0=a0, b0=b0, modes=modes)
    return PoissonSpec(
        ys=spec.ys,
        values=spec.values / base,
        tail=spec.tail / base,
        c_lin=spec.c_lin / base,
    )
