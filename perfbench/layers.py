"""Outside-in layer trace for lelonglab.

Wrappers go on the module attributes where lelonglab's callers look the
functions up, and only for the duration of a traced operation. Every
wrapped call records a span (name, start, end, parent); a layer's self time
is its spans' durations minus the part covered by their child spans. The
layer of a span is the module that defines the wrapped function. Work
counters are taken at the same boundaries: panels and points by wrapping
the integrand handed to integrate, kernel entries from the Poisson grid
size times the number of interior heights evaluated.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional

import numpy as np

import lelonglab.cli
import lelonglab.current
import lelonglab.mass
import lelonglab.theorems
from lelonglab.current import TransversalAtom, build_current
from lelonglab.errors import QuadratureFailure
from lelonglab.harmonic import FourierSpec, PoissonSpec
from lelonglab.mass import closed_form_applicable, nu_limit_positive_periodic

# (module, attribute) pairs that get a span while tracing
TRACED = (
    (lelonglab.mass, ("integrate", "window_integral", "window_model_error", "jacobian_density",
                      "leaf_domain", "mass_quadrature", "mass_closed_form", "lelong_estimate")),
    (lelonglab.cli, ("current_from_json", "mass_quadrature", "mass_closed_form",
                     "lelong_estimate", "run_corpus")),
    (lelonglab.current, ("check_positivity",)),
    (lelonglab.theorems, ("build_current", "verify_lemma_bounds", "lelong_estimate")),
)

# per-op counts; every one must repeat exactly for a fixed seed
COUNT_METRICS = (
    "harmonic.kernel_entries",
    "harmonic.model_kernel_entries",
    "quadrature.calls",
    "quadrature.panels",
    "quadrature.points",
    "quadrature.failures",
    "foliation.jacobian_points",
    "current.positivity_calls",
    "mass.closed_form_calls",
    "theorems.verdicts_failed",
    "mass.bracket_misses",
)

# per-op seconds: (metric, "self" of a layer or "total" of span names)
TIME_METRICS = (
    ("harmonic.window_s", "total", ("mass.window_integral",)),
    ("harmonic.model_s", "total", ("mass.window_model_error",)),
    ("quadrature.self_s", "self", ("quadrature",)),
    ("foliation.jacobian_s", "total", ("mass.jacobian_density",)),
    ("current.load_s", "total", ("cli.current_from_json", "theorems.build_current")),
    ("current.positivity_s", "total", ("current.check_positivity",)),
    ("mass.self_s", "self", ("mass",)),
    ("theorems.lemma_s", "total", ("theorems.verify_lemma_bounds",)),
    ("theorems.self_s", "self", ("theorems",)),
    ("cli.self_s", "self", ("cli",)),
)

# spans that own a set of per-atom v-intervals (one schedule or one mass)
_SCOPES = ("cli.mass_quadrature", "cli.lelong_estimate", "theorems.lelong_estimate",
           "mass.lelong_estimate")
_MASS_CALLS = ("mass.mass_quadrature", "cli.mass_quadrature")


def _layer(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def _interior_points(v) -> int:
    return int(np.count_nonzero(np.asarray(v) > 0.0))


def _union_length(intervals) -> float:
    total, end = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


class OpTrace:
    """Spans and counters of one operation."""

    def __init__(self):
        self.names: List[str] = []
        self.layers: List[str] = []
        self.parents: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.child_s: List[float] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.scopes: List[int] = []
        self.atom_index = 0
        self.atom_key: Optional[tuple] = None
        self.v_intervals: Dict[tuple, list] = defaultdict(list)
        self.schedules: list = []  # (current, estimate) pairs, judged after the op

    def open(self, name: str, layer: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.child_s.append(0.0)
        self.ends.append(math.nan)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        self.ends[idx] = end
        self.stack.pop()
        parent = self.parents[idx]
        if parent >= 0:
            self.child_s[parent] += end - self.starts[idx]

    def summary(self) -> Dict[str, float]:
        """Per-op counts and seconds, keyed by metric name."""
        total: Dict[str, float] = defaultdict(float)
        self_by_layer: Dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            total[name] += dur
            self_by_layer[self.layers[i]] += dur - self.child_s[i]
        out = {name: float(self.counts[name]) for name in COUNT_METRICS}
        out["mass.bracket_misses"] = float(bracket_misses(self.schedules))
        for metric, kind, keys in TIME_METRICS:
            source = self_by_layer if kind == "self" else total
            out[metric] = sum(source[k] for k in keys)
        out["v_length"] = sum(hi - lo for ivs in self.v_intervals.values() for lo, hi in ivs)
        out["v_union"] = sum(_union_length(ivs) for ivs in self.v_intervals.values())
        return out

    def span_records(self) -> List[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]


class Tracer:
    """Installs span wrappers around one operation at a time."""

    def __init__(self):
        self.op: Optional[OpTrace] = None
        self._originals = []
        self._wrappers = []
        for module, attrs in TRACED:
            prefix = module.__name__.rsplit(".", 1)[-1]
            for attr in attrs:
                fn = getattr(module, attr)
                self._originals.append((module, attr, fn))
                self._wrappers.append((module, attr, self._wrap(f"{prefix}.{attr}", fn)))

    def __enter__(self) -> OpTrace:
        self.op = OpTrace()
        for module, attr, wrapper in self._wrappers:
            setattr(module, attr, wrapper)
        return self.op

    def __exit__(self, *exc) -> None:
        for module, attr, fn in self._originals:
            setattr(module, attr, fn)

    # -- per-call hooks; they only count, timing stays in the spans

    def _before(self, name: str, args):
        op = self.op
        if name in _SCOPES:
            op.scopes.append(len(op.names) - 1)
        if name in _MASS_CALLS:
            op.atom_index = 0
        elif name == "mass.leaf_domain":
            op.atom_index += 1
            op.atom_key = (op.scopes[-1] if op.scopes else -1, op.atom_index)
        elif name == "mass.integrate":
            f, a, b = args[0], args[1], args[2]
            op.counts["quadrature.calls"] += 1
            op.v_intervals[op.atom_key].append((a, b))
            counts = op.counts

            def counted(v):
                counts["quadrature.panels"] += 1
                counts["quadrature.points"] += np.size(v)
                return f(v)

            return (counted,) + tuple(args[1:])
        elif name == "mass.jacobian_density":
            op.counts["foliation.jacobian_points"] += np.size(args[2])
        elif name == "mass.window_integral" and isinstance(args[0], PoissonSpec):
            op.counts["harmonic.kernel_entries"] += _interior_points(args[3]) * args[0].ys.size
        elif name == "mass.window_model_error":
            grid = args[0].ys.size + args[0].ys[::2].size
            op.counts["harmonic.model_kernel_entries"] += _interior_points(args[3]) * grid
        elif name == "current.check_positivity":
            op.counts["current.positivity_calls"] += 1
        elif name.endswith(".mass_closed_form"):
            op.counts["mass.closed_form_calls"] += 1
        return args

    def _after(self, name: str, args, kwargs, result) -> None:
        op = self.op
        if name.endswith(".lelong_estimate"):
            op.schedules.append((kwargs.get("current", args[0] if args else None), result))
        elif name == "cli.run_corpus":
            op.counts["theorems.verdicts_failed"] += sum(1 for rep in result if not rep.verdict)

    def _wrap(self, name: str, fn):
        layer = _layer(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = tracer.op
            idx = op.open(name, layer)
            try:
                args = tracer._before(name, args)
                result = fn(*args, **kwargs)
            except QuadratureFailure:
                if name == "mass.integrate":  # outer spans see the same failure
                    op.counts["quadrature.failures"] += 1
                raise
            finally:
                op.close(idx)
                if name in _SCOPES and op.scopes and op.scopes[-1] == idx:
                    op.scopes.pop()
            tracer._after(name, args, kwargs, result)
            return result

        return wrapper


def bracket_misses(schedules) -> int:
    """Limit brackets that exclude a certified limit, plus finite divergent ones.

    Certified limits: the closed-form limit of periodic trig currents (and of
    the trig twin of flat Poisson data), and 0 for negative eigenvalues.
    This is a diagnostic of ROADMAP 2b; it never fails an operation.
    """
    misses = 0
    for current, est in schedules:
        lower, upper = est.limit_bracket
        if est.diverging:
            misses += int(math.isfinite(upper))
            continue
        if current.lam.is_negative:
            misses += int(lower > 0.0)
            continue
        specs = [atom.spec for atom in current.atoms]
        if all(isinstance(s, PoissonSpec) and s.c_lin == 0.0 and s.tail > 0.0
               and bool(np.all(s.values == s.tail)) for s in specs):
            current = build_current(current.lam, [
                TransversalAtom(a.alpha, a.weight * a.spec.tail, FourierSpec(b=1, a0=1.0))
                for a in current.atoms
            ])
        elif not (all(isinstance(s, FourierSpec) and s.b0 == 0.0 for s in specs)
                  and closed_form_applicable(current)):
            continue
        ref = nu_limit_positive_periodic(current)
        misses += int(not (lower <= ref <= upper))
    return misses
