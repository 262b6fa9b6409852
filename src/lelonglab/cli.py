"""Command-line front end: mass, Lelong schedules, corpus verification, plots.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 numerical
failure. All outputs are deterministic for a fixed config and seed; CSV uses
'.' decimals and '\\n' line endings regardless of locale.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from typing import List, Optional, Sequence

import numpy as np

from .current import (
    Current,
    TransversalAtom,
    accumulation_family,
    build_current,
    current_from_json,
)
from .errors import InputError, LelongLabError, NumericalFailure
from .foliation import Eigenvalue, torus_curve
from .harmonic import FourierSpec, normalize
from .mass import (
    MAX_STEPS,
    RATIO,
    R_START,
    STEPS,
    closed_form_applicable,
    lelong_estimate,
    lelong_to_json,
    mass_closed_form,
    mass_quadrature,
)
from .quadrature import DEFAULT_CONFIG, QuadratureConfig
from .theorems import report_to_json, run_corpus

CANVAS = 800
MARGIN = 40

# Cost bounds of the size flags, so that no typed number asks for unbounded
# memory or output. --steps takes lelong_radii's MAX_STEPS, whose 10**6
# steps also write 60 MB of CSV (60 B a step). A loop of the torus curve is
# 128 samples and about 2.9 KB of SVG, so 10**3 loops write about 2.9 MB.
MAX_LOOPS = 1_000


def _load_current(path: str) -> Current:
    # imported here, not at the top: verify and sweep read no input file, so
    # they should pay neither orjson's import time nor its memory
    import orjson

    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        payload = orjson.loads(raw)
    except orjson.JSONDecodeError:
        # orjson refuses NaN and Infinity literals, numbers that overflow to
        # inf, lone surrogate escapes and invalid UTF-8; json takes the text
        # the way it always has, and names what is wrong with it
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not valid UTF-8 ({exc})") from exc
        payload = json.loads(text)
    return current_from_json(payload)


def _quad_config(args: argparse.Namespace) -> QuadratureConfig:
    return QuadratureConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol)


def _non_finite_field(obj, path: str = "") -> Optional[str]:
    """The path of the first number in obj that is not finite, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path or "result"
    if isinstance(obj, dict):
        items = ((f"{path}.{key}" if path else str(key), value) for key, value in obj.items())
    elif isinstance(obj, (list, tuple)):
        items = ((f"{path}[{i}]", value) for i, value in enumerate(obj))
    else:
        return None
    return next(filter(None, (_non_finite_field(value, name) for name, value in items)), None)


def _json_text(payload) -> str:
    """payload as indented JSON; a number that is not finite is a numerical failure naming its field."""
    try:
        return json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:
        raise NumericalFailure(f"{_non_finite_field(payload)} is not a finite number") from None


def _add_quad_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rel-tol", type=float, default=DEFAULT_CONFIG.rel_tol)
    p.add_argument("--abs-tol", type=float, default=DEFAULT_CONFIG.abs_tol)


def _add_schedule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r-start", type=float, default=R_START)
    p.add_argument("--ratio", type=float, default=RATIO)
    p.add_argument("--steps", type=int, default=STEPS)


def _at_most(flag: str, value: int, bound: int) -> int:
    """The value of a size flag, refused above its bound before anything is built."""
    if value > bound:
        raise InputError(f"{flag} must be at most {bound}, not {value}")
    return value


def _estimate(args: argparse.Namespace, current: Current):
    """The LelongEstimate of current along the schedule and settings of the flags."""
    return lelong_estimate(current, r_start=args.r_start, ratio=args.ratio,
                           steps=_at_most("--steps", args.steps, MAX_STEPS), cfg=_quad_config(args), k0=args.k0)


# ---------------------------------------------------------------------------
# subcommands


def cmd_mass(args: argparse.Namespace) -> int:
    current = _load_current(args.input)
    result = mass_quadrature(current, args.r, k0=args.k0, cfg=_quad_config(args))
    payload = {
        "r": result.r,
        "k0": args.k0,
        "quadrature": {"value": result.value, "error_estimate": result.error_estimate},
        "closed_form": None,
        "discrepancy": None,
    }
    if closed_form_applicable(current):
        closed = mass_closed_form(current, args.r, args.k0)
        payload["closed_form"] = closed
        payload["discrepancy"] = abs(result.value - closed)
    print(_json_text(payload))
    return 0


def _write_schedule_csv(path: str, est) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["r", "nu", "err", "monotone_violation"])
        flag = 0 if est.monotone_ok else 1
        for r, nu, err in zip(est.rs, est.nus, est.errs):
            writer.writerow([repr(r), repr(nu), repr(err), flag])


def cmd_lelong(args: argparse.Namespace) -> int:
    est = _estimate(args, _load_current(args.input))
    text = _json_text(lelong_to_json(est))  # before the CSV: a failure writes nothing
    if args.out:
        _write_schedule_csv(args.out, est)
    print(text)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    reports = run_corpus(seed=args.seed, only=args.case, tol_scale=args.tol_scale)
    payload = [report_to_json(rep) for rep in reports]
    text = _json_text(payload)
    # stdout carries the JSON report alone; the table is for people
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    failures = sum(1 for rep in reports if not rep.verdict)
    table = [
        f"{rep.case_id:<30} {rep.claim:<15} lam={rep.lam:+.4f}  {'pass' if rep.verdict else 'FAIL'}"
        for rep in reports
    ]
    table.append(f"{len(reports) - failures}/{len(reports)} verifiers passed")
    sys.stderr.write("\n".join(table) + "\n")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# SVG plotting (hand-rolled: two fixed plot kinds, diffable output)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _svg_open() -> List[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" height="{CANVAS}" '
        f'viewBox="0 0 {CANVAS} {CANVAS}">',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{CANVAS - 2 * MARGIN}" '
        f'height="{CANVAS - 2 * MARGIN}" fill="none" stroke="black"/>',
    ]


def _polyline(points: Sequence[tuple], color: str) -> str:
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    return f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.2"/>'

def _torus_svg(curve: np.ndarray) -> str:
    # split the polyline wherever a coordinate wraps around the torus edge
    span = CANVAS - 2 * MARGIN
    scale = span / (2.0 * math.pi)
    lines = _svg_open()
    segment: List[tuple] = []
    prev = None
    for u, v in curve:
        pt = (MARGIN + u * scale, CANVAS - MARGIN - v * scale)
        if prev is not None and (
            abs(u - prev[0]) > math.pi or abs(v - prev[1]) > math.pi
        ):
            if len(segment) >= 2:
                lines.append(_polyline(segment, "steelblue"))
            segment = []
        segment.append(pt)
        prev = (u, v)
    if len(segment) >= 2:
        lines.append(_polyline(segment, "steelblue"))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _schedule_svg(rs: Sequence[float], nus: Sequence[float]) -> str:
    # horizontal axis is log r, largest radius on the left
    logs = [math.log(r) for r in rs]
    lo, hi = min(logs), max(logs)
    width = hi - lo if hi > lo else 1.0
    nu_lo, nu_hi = min(nus), max(nus)
    nu_span = nu_hi - nu_lo if nu_hi > nu_lo else 1.0
    span = CANVAS - 2 * MARGIN
    pts = []
    for lg, nu in zip(logs, nus):
        x = MARGIN + span * (hi - lg) / width
        y = CANVAS - MARGIN - span * (nu - nu_lo) / nu_span
        pts.append((x, y))
    lines = _svg_open()
    lines.append(_polyline(pts, "firebrick"))
    for x, y in pts:
        lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="firebrick"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_leafplot(args: argparse.Namespace) -> int:
    current = _load_current(args.input)
    atom = current.atoms[0]
    loops = args.loops
    if loops < 1:
        raise InputError(f"--loops must be a positive integer, not {loops}")
    _at_most("--loops", loops, MAX_LOOPS)
    est = _estimate(args, current)  # before the curve and either file: a failure writes nothing
    curve = torus_curve(
        current.lam,
        atom.alpha,
        u_span=2.0 * math.pi * loops,
        samples=max(2, 128 * loops),
    )
    torus_path = args.out + "/torus.svg" if args.out else "torus.svg"
    schedule_path = args.out + "/schedule.svg" if args.out else "schedule.svg"
    with open(torus_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_torus_svg(curve))
    with open(schedule_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_schedule_svg(est.rs, est.nus))
    print(json.dumps({"torus": torus_path, "schedule": schedule_path}))
    return 0


# ---------------------------------------------------------------------------
# sweep: fixed (eigenvalue, family) grid, no randomness


def _sweep_atoms(lam: Eigenvalue, family: str) -> Sequence[TransversalAtom]:
    if family == "single-constant":
        if lam.is_negative:
            return [TransversalAtom(math.exp(-1.0), 1.0, FourierSpec(b=1, a0=1.0, strip_c=1.0 / -lam.value))]
        return [TransversalAtom(0.5, 1.0, FourierSpec(b=1, a0=1.0))]
    if family == "single-modes":
        modes = ((-1, 0.3, 0.1), (-2, 0.1, -0.05))
        if lam.is_negative:
            return accumulation_family(lam, 1, alpha_base=0.25, weight_base=1.0, b0=0.2, modes=((-1, 0.04, 0.02),))
        return [TransversalAtom(1.2, 1.0, normalize(FourierSpec(b=1, a0=1.0, modes=modes)))]
    if family == "geometric-family":
        if lam.is_negative:
            return accumulation_family(lam, 5)
        return [
            TransversalAtom(0.4, 0.5, FourierSpec(b=1, a0=1.0)),
            TransversalAtom(0.9, 0.3, FourierSpec(b=1, a0=1.0)),
            TransversalAtom(1.5, 0.2, FourierSpec(b=1, a0=1.0)),
        ]
    raise ValueError(f"unknown family {family!r}")


SWEEP_FAMILIES = ("single-constant", "single-modes", "geometric-family")


def cmd_sweep(args: argparse.Namespace) -> int:
    """The nu summary of every (eigenvalue, family) current, one lelong_estimate each.

    Every sweep current is a trig series, so each schedule takes the exact
    route at its default settings; the sweep takes no tolerance flags.
    """
    steps = _at_most("--steps", args.steps, MAX_STEPS)
    lams = (Eigenvalue.rational(1, 1), Eigenvalue.rational(1, 2), Eigenvalue.negative(-1.0))
    rows = []
    for lam in lams:
        for family in SWEEP_FAMILIES:
            current = build_current(lam, _sweep_atoms(lam, family))
            est = lelong_estimate(current, r_start=args.r_start, ratio=args.ratio, steps=steps)
            rows.append([
                repr(lam.value),
                family,
                repr(est.rs[-1]),
                repr(est.nus[-1]),
                repr(est.limit_bracket[0]),
                repr(est.limit_bracket[1]),
                int(est.monotone_ok),
                int(est.diverging),
            ])
    out = args.out or "sweep.csv"
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([
            "lambda", "family", "r_end", "nu_end",
            "limit_lower", "limit_upper", "monotone_ok", "diverging",
        ])
        writer.writerows(rows)
    print(json.dumps({"rows": len(rows), "out": out}))
    return 0


# ---------------------------------------------------------------------------
# entry point


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # built on the first main() call and reused: parse_args leaves the parser
    # unchanged, and the subcommands look their engines up at call time
    parser = argparse.ArgumentParser(
        prog="lelonglab",
        description="mass and Lelong-number computations for harmonic currents "
        "near a linearizable foliation singularity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mass = sub.add_parser("mass", help="total mass in the polydisc of radius r")
    p_mass.add_argument("--input", required=True)
    p_mass.add_argument("--r", type=float, default=1.0)
    p_mass.add_argument("--k0", type=int, default=0)
    _add_quad_flags(p_mass)
    p_mass.set_defaults(func=cmd_mass)

    p_lelong = sub.add_parser("lelong", help="nu(r) along a halving schedule")
    p_lelong.add_argument("--input", required=True)
    p_lelong.add_argument("--out", default=None, help="CSV path for the schedule")
    p_lelong.add_argument("--k0", type=int, default=0)
    _add_schedule_flags(p_lelong)
    _add_quad_flags(p_lelong)
    p_lelong.set_defaults(func=cmd_lelong)

    p_verify = sub.add_parser("verify", help="run the verification corpus")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--case", default=None, help="run a single case id")
    p_verify.add_argument("--out", default=None, help="JSON report path")
    p_verify.add_argument("--tol-scale", type=float, default=1.0)
    p_verify.set_defaults(func=cmd_verify)

    p_plot = sub.add_parser("leafplot", help="torus leaf curve + nu schedule SVGs")
    p_plot.add_argument("--input", required=True)
    p_plot.add_argument("--out", default=None, help="output directory")
    p_plot.add_argument("--k0", type=int, default=0)
    p_plot.add_argument("--loops", type=int, default=12, help="turns of the torus curve")
    _add_schedule_flags(p_plot)
    _add_quad_flags(p_plot)
    p_plot.set_defaults(func=cmd_leafplot)

    p_sweep = sub.add_parser("sweep", help="nu summary over a fixed (lambda, family) grid")
    p_sweep.add_argument("--out", default=None)
    _add_schedule_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as exc:
        print(f"input error: invalid JSON ({exc})", file=sys.stderr)
        return 2
    except (LelongLabError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
