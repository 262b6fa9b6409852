"""Closed-loop benchmark of the lelonglab command line, with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload poisson-schedule --seed 42 --seconds 30 --trace 0

One process, one client: each operation is a call to lelonglab.cli.main(argv)
that starts only after the previous one returned, and every operation's output
is checked against a reference from another route (see workloads.py). After
each operation a fixed calibration kernel runs; the gated times are op time
over kernel time, which cancels most of the host's speed changes. With
--trace 1 the operations run alternately with and without the layer trace of
layers.py, and the per-layer metrics are printed instead of the end-to-end ones.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The line before it holds the details (environment, input sizes,
tail percentile and sample counts, raw seconds, layer map).
"""

from __future__ import annotations

import os
import sys

# pin the environment before numpy is imported
os.environ.pop("LELONGLAB_THREADS", None)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import time

SETUP_REPS = 5
IMPORT_REPS = 5
MIN_OPS = 11  # so the tail always has ten samples beyond it
MIN_TRACED_CYCLES = 2  # the determinism check compares traced cycles
WORKDIR = ".perfbench-run"

# gated end-to-end metrics; the other measurements go to the details line
END_TO_END = ("op_rel_p50", "op_rel_tail", "setup_s", "rss_peak_mb")

# which end-to-end metric each per-layer metric should move, and where
LAYER_MAP = {
    "op_rel_p50 on poisson-schedule": [
        "harmonic.kernel_entries", "harmonic.model_kernel_entries", "harmonic.window_s",
        "harmonic.model_s", "mass.v_reuse_ratio"],
    "op_rel_p50 on strip-family-mass": [
        "quadrature.calls", "quadrature.panels", "quadrature.points", "quadrature.self_s",
        "quadrature.failures", "foliation.jacobian_points", "foliation.jacobian_s"],
    "op_rel_p50 on strip-family-mass and corpus-verify; setup_s": [
        "current.load_s", "current.positivity_calls", "current.positivity_s"],
    "op_rel_p50 on corpus-verify": [
        "mass.closed_form_calls", "mass.self_s", "theorems.lemma_s", "theorems.self_s",
        "theorems.verdicts_failed"],
    "all workloads, small": ["cli.self_s"],
    "diagnostic only (ROADMAP 2b)": ["mass.bracket_misses"],
}


def import_program(root: str) -> bool:
    """Import lelonglab from <root>/src; False when that tree is missing."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lelonglab", "__init__.py")):
        return False
    sys.path.insert(0, src)
    import lelonglab.cli

    return os.path.abspath(lelonglab.cli.__file__).startswith(os.path.abspath(src) + os.sep)


_IMPORT_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import lelonglab.cli
print(time.perf_counter() - start)
"""


def import_seconds(root: str) -> float:
    """Median time to import lelonglab.cli in a fresh interpreter.

    One in-process import is a single, noisy sample, so set-up time takes
    the median of several child processes, each waited for.
    """
    times = []
    for _ in range(IMPORT_REPS):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, os.path.join(root, "src")],
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout))
    return statistics.median(times)


def calibration_inputs():
    import numpy as np

    rng = np.random.default_rng(20201111)
    heights = rng.uniform(0.1, 2.0, 15)  # one GK15 panel's worth of points
    weights = rng.uniform(0.0, 1.0, 15)
    grid = np.linspace(-256.0 * math.pi, 256.0 * math.pi, 12289)
    return heights, weights, grid, np.full(grid.size, math.pi / 24.0)


def calibration_kernel(inputs) -> float:
    """Fixed numpy/Python work shaped like the two kinds of operation.

    A Python loop of tiny 15-point numpy calls, like the panel loop of
    strip-family-mass, then four 15 x 12289 arctan kernel sums with a
    matrix-vector product, like one Poisson window integral each. It does
    not import lelonglab, so a change to the program cannot move it.
    """
    import numpy as np

    heights, weights, grid, trap = inputs
    acc = 0.0
    for i in range(3000):
        acc += float(np.dot(weights, np.exp(-(1.0 + 1e-3 * i) * heights)))
    for p in range(4):
        v = heights[:, None] * (1.0 + p)
        kern = np.arctan(grid[None, :] / v) - np.arctan((grid[None, :] - 2.0 * math.pi) / v)
        acc += float(np.sum(kern @ trap))
    return acc


def percentile_tail(samples):
    """(value, percentile, samples beyond): highest percentile with >= 10 beyond."""
    ordered = sorted(samples)
    n = len(ordered)
    idx = max(0, n - 11)
    return ordered[idx], 100.0 * (idx + 1) / n, n - 1 - idx


class Runner:
    """Runs one op through the CLI in-process and checks its output."""

    def __init__(self, check_failure):
        self.check_failure = check_failure
        self.errors = []

    def run(self, op):
        import lelonglab.cli

        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = lelonglab.cli.main(op.argv)
        except (Exception, SystemExit) as exc:  # an op that raises is a failed op
            code = exc
        seconds = time.perf_counter() - start
        ok = not isinstance(code, BaseException)
        if ok:
            try:
                op.check(out.getvalue(), code)
            except (self.check_failure, ValueError, KeyError, TypeError) as exc:
                code, ok = exc, False
        if not ok:
            self.errors.append(f"{' '.join(op.argv)}: {code!r}")
        return seconds, ok


def run_cycles(wl, runner, seconds, tracer):
    """Closed loop over whole cycles of the workload's ops.

    With a tracer, cycles alternate untraced and traced, so both sides see
    the same host conditions. Returns {traced: [cycle, ...]}, attempted,
    failed, and the span records of the first traced cycle.
    """
    cal_inputs = calibration_inputs()
    calibration_kernel(cal_inputs)
    cycles = {False: [], True: []}
    attempted = failed = 0
    first_spans = []
    deadline = time.perf_counter() + seconds
    while True:
        for traced in ((False, True) if tracer else (False,)):
            cycle = {"op_s": [], "cal_s": [], "rel": [], "layers": []}
            for op in wl.ops:
                if traced:
                    with tracer as op_trace:
                        root_span = op_trace.open("cli.main", "cli")
                        op_s, ok = runner.run(op)
                        op_trace.close(root_span)
                    cycle["layers"].append(op_trace.summary())
                    if not cycles[True]:
                        first_spans.append(op_trace.span_records())
                else:
                    op_s, ok = runner.run(op)
                start = time.perf_counter()
                calibration_kernel(cal_inputs)
                cal_s = time.perf_counter() - start
                attempted += 1
                failed += int(not ok)
                cycle["op_s"].append(op_s)
                cycle["cal_s"].append(cal_s)
                cycle["rel"].append(op_s / cal_s)
            cycles[traced].append(cycle)
        if tracer:
            enough = len(cycles[True]) >= MIN_TRACED_CYCLES
        else:
            enough = len(cycles[False]) * len(wl.ops) >= MIN_OPS
        if enough and time.perf_counter() >= deadline:
            return cycles, attempted, failed, first_spans


def end_to_end(cycles, attempted, failed, setup_s):
    """All untraced measurements as {name: (value, unit)}, plus tail details."""
    untraced = cycles[False]
    per_op = {k: [x for c in untraced for x in c[k]] for k in ("op_s", "cal_s")}
    op_s_tail, tail_pct, tail_beyond = percentile_tail(per_op["op_s"])
    cal_s_tail, _, _ = percentile_tail(per_op["cal_s"])
    measured = {
        "op_s_p50": (statistics.median(statistics.fmean(c["op_s"]) for c in untraced), "s"),
        "op_s_tail": (op_s_tail, "s"),
        "op_rel_p50": (statistics.median(statistics.fmean(c["rel"]) for c in untraced), "ratio"),
        "op_rel_tail": (op_s_tail / cal_s_tail, "ratio"),
        "ops_per_s": ((attempted - failed) / sum(per_op["op_s"]), "1/s"),
        "setup_s": (setup_s, "s"),
        "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "cycles": len(untraced),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": tail_beyond,
        "calibration_s_p50": statistics.median(per_op["cal_s"]),
        "calibration_s_tail": cal_s_tail,
    }
    return measured, details


def layer_metrics(layers, traced, untraced_op_s_p50):
    """Per-op layer metrics from the traced cycles, plus the determinism check.

    Counts are a cycle's total over its op count, taken from the first
    traced cycle; every later cycle must repeat them exactly. Times are
    medians over traced cycles.
    """
    per_cycle = []
    for c in traced:
        n = len(c["layers"])
        per_cycle.append({k: sum(s[k] for s in c["layers"]) / n for k in c["layers"][0]})
    exact = layers.COUNT_METRICS + ("v_length", "v_union")
    first = per_cycle[0]
    mismatched = sorted({k for c in per_cycle[1:] for k in exact if c[k] != first[k]})
    metrics = {name: (first[name], "count") for name in layers.COUNT_METRICS}
    reuse = first["v_length"] / first["v_union"] if first["v_union"] else 1.0
    metrics["mass.v_reuse_ratio"] = (reuse, "ratio")
    for name, _, _ in layers.TIME_METRICS:
        metrics[name] = (statistics.median(c[name] for c in per_cycle), "s")
    traced_p50 = statistics.median(statistics.fmean(c["op_s"]) for c in traced)
    metrics["trace.op_s_p50"] = (traced_p50, "s")
    metrics["trace.overhead_ratio"] = (traced_p50 / untraced_op_s_p50, "ratio")
    return metrics, mismatched


def bench(args, root: str) -> int:
    import numpy as np

    import workloads

    workdir = os.path.join(root, WORKDIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = Runner(workloads.CheckFailure)
        import_s = import_seconds(root)
        setup_times = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
            runner.run(wl.ops[0])  # warm-up
            setup_times.append(time.perf_counter() - start)
        setup_ok = not runner.errors
        tracer = None
        if args.trace:
            import layers

            tracer = layers.Tracer()
        cycles, attempted, failed, first_spans = run_cycles(wl, runner, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = import_s + statistics.median(setup_times)
    measured, details = end_to_end(cycles, attempted, failed, setup_s)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "LELONGLAB_THREADS": os.environ.get("LELONGLAB_THREADS"),
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        },
        "inputs": wl.sizes,
        "ops_per_cycle": len(wl.ops),
        **details,
        "setup_reps_s": setup_times,
        "import_s": import_s,
        "errors": runner.errors[:10],
        "layer_map": LAYER_MAP,
    }
    correct = setup_ok and failed == 0
    if tracer:
        metrics, mismatched = layer_metrics(layers, cycles[True], measured["op_s_p50"][0])
        spans_path = os.path.join(root, WORKDIR, f"spans-{args.workload}-{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"ops": first_spans}, fh)
        details.update(
            traced_cycles=len(cycles[True]),
            determinism_mismatches=mismatched,
            spans_first_cycle=os.path.relpath(spans_path, root),
            untraced={k: v for k, (v, _) in measured.items()},
        )
        correct = correct and not mismatched
    else:
        metrics = {k: measured[k] for k in END_TO_END}
        details["raw"] = {k: v for k, (v, _) in measured.items() if k not in END_TO_END}
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not import_program(root):
        print("perfbench: no lelonglab source tree under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return bench(args, root)


if __name__ == "__main__":
    sys.exit(main())
