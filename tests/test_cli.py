import csv
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import numpy as np

from lelonglab import (
    Eigenvalue,
    FourierSpec,
    InputError,
    PoissonSpec,
    TransversalAtom,
    accumulation_family,
    build_current,
    build_currents,
    corpus,
    current_to_json,
    mass_quadrature_schedule,
    normalize,
)
from lelonglab import cli
from lelonglab.cli import main

from conftest import FLAGSHIP_JSON

CONST_SPEC = {"type": "fourier", "b": 1, "a0": 1.0, "b0": 0.0, "modes": []}

MULTI_ATOM_JSON = {
    "lambda": {"value": 1.0, "class": "rational", "a": 1, "b": 1},
    "atoms": [
        {"alpha": [0.4, 0.0], "weight": 0.5, "spec": CONST_SPEC},
        {"alpha": [0.9, 0.0], "weight": 0.3, "spec": CONST_SPEC},
        {"alpha": [1.5, 0.0], "weight": 0.2, "spec": CONST_SPEC},
    ],
}

# one b = 3 atom whose mode cancels over the k0 = 0 window but not over k0 = 1
B3_CURRENT = build_current(Eigenvalue.rational(1, 1), [TransversalAtom(
    0.5, 1.0, normalize(FourierSpec(b=3, a0=1.0, modes=((-1, 0.2 * math.sqrt(3.0), 0.2),)))
)])


class TestMass:
    def test_flagship_payload(self, write_current, capsys):
        path = write_current(FLAGSHIP_JSON)
        assert main(["mass", "--input", path, "--r", "1.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["r"] == 1.0
        assert payload["quadrature"]["value"] == pytest.approx(2.5 * math.pi, rel=1e-9)
        assert payload["closed_form"] == pytest.approx(2.5 * math.pi, rel=1e-12)
        assert payload["discrepancy"] < 1e-6

    def test_poisson_case_has_no_closed_form(self, tmp_path, capsys):
        n = 769
        ys = [(-16.0 + 32.0 * i / (n - 1)) * math.pi for i in range(n)]
        payload = {
            "lambda": {"value": math.sqrt(2.0) - 1.0, "class": "irrational"},
            "atoms": [
                {
                    "alpha": [1.3, 0.0],
                    "weight": 1.0,
                    "spec": {
                        "type": "poisson",
                        "boundary": {"ys": ys, "values": [1.0] * n, "tail": 1.0},
                        "c_lin": 0.0,
                    },
                }
            ],
        }
        path = tmp_path / "poisson.json"
        path.write_text(json.dumps(payload))
        assert main(["mass", "--input", str(path), "--r", "0.5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["closed_form"] is None and out["discrepancy"] is None
        assert out["quadrature"]["value"] > 0.0

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert main(["mass", "--input", str(tmp_path / "absent.json")]) == 2
        assert "input error" in capsys.readouterr().err

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{this is not json")
        assert main(["mass", "--input", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_overflowing_alpha_is_input_error(self, write_current, capsys):
        # |alpha| overflows a float though both parts are finite
        payload = json.loads(json.dumps(FLAGSHIP_JSON))
        payload["atoms"][0]["alpha"] = [1.5e308, 1.5e308]
        path = write_current(payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["mass", "--input", path]) == 2
        assert "input error: atoms[0].alpha: transversal point must be nonzero and finite" in capsys.readouterr().err

    def test_strip_growth_past_the_float_range_is_input_error(self, write_current, capsys):
        # e^{k C / b} = e^{843} at the strip's upper edge: no float holds it
        spec = {"type": "fourier", "b": 1, "a0": 0.999, "modes": [[4000, 0.001, 0.0]],
                "strip_c": math.log(0.9) / -0.5}
        path = write_current({
            "lambda": {"value": -0.5, "class": "negative"},
            "atoms": [{"alpha": [0.9, 0.0], "weight": 1.0, "spec": spec}],
        })
        assert main(["mass", "--input", path]) == 2
        assert "input error: atoms[0].spec.modes: " in capsys.readouterr().err

    def test_missing_field_named_in_error(self, write_current, capsys):
        path = write_current({"atoms": FLAGSHIP_JSON["atoms"]})
        assert main(["mass", "--input", path]) == 2
        assert "lambda" in capsys.readouterr().err

    def test_k0_reaches_the_exact_route(self, write_current, capsys):
        path = write_current(current_to_json(B3_CURRENT))
        assert main(["mass", "--input", path, "--r", "1.0", "--k0", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["discrepancy"] <= payload["quadrature"]["error_estimate"]

    def test_k0_far_out_agrees_across_routes(self, write_current, capsys):
        # the 10^14-th window: its float ends are 0.125 apart in their last
        # bit, but both routes reduce the mode's phases in integers, and the
        # quadrature route takes the window's width as 2 pi
        spec = {"type": "fourier", "b": 1, "a0": 0.7, "b0": 0.0, "modes": [[-1, 0.3, 0.0]]}
        path = write_current({"lambda": {"value": 1.0, "class": "rational", "a": 1, "b": 1},
                              "atoms": [{"alpha": [0.5, 0.0], "weight": 1.0, "spec": spec}]})
        payloads = []
        for k0 in ("100000000000000", "0"):
            assert main(["mass", "--input", path, "--r", "0.5", "--k0", k0]) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        far, near = payloads
        assert far["discrepancy"] <= far["quadrature"]["error_estimate"]
        assert far["closed_form"] == near["closed_form"]
        assert far["quadrature"] == near["quadrature"]

    def test_poisson_k0_too_far_out_is_refused(self, write_current, capsys):
        # the window end 2 pi (k0 + 1) passes 2^15 at k0 = 5215, and its ulp
        # then exceeds 2^-40 of the window's width 2 pi
        path = write_current(POISSON_JSON)
        assert main(["mass", "--input", path, "--r", "0.5", "--k0", "5214"]) == 0
        capsys.readouterr()
        assert main(["mass", "--input", path, "--r", "0.5", "--k0", "5215"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("input error: k0 = 5215: an end of the Poisson window [2 pi k0, 2 pi k0 + 2 pi] "
                              "has an ulp above ")

    def test_error_estimate_has_a_rounding_floor(self, write_current, capsys):
        # the Kronrod-Gauss gap of this strip is 0 on every panel; the
        # estimate still covers the two routes' gap
        current = next(case.current for case in corpus(42) if case.case_id == "neg-unit-single-strip")
        path = write_current(current_to_json(current))
        assert main(["mass", "--input", path, "--r", "0.9", "--k0", "-3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 < payload["discrepancy"] <= payload["quadrature"]["error_estimate"]

    def test_rerun_is_byte_identical(self, write_current, capsys):
        path = write_current(MULTI_ATOM_JSON)
        assert main(["mass", "--input", path, "--r", "0.8"]) == 0
        first = capsys.readouterr().out
        assert main(["mass", "--input", path, "--r", "0.8"]) == 0
        assert capsys.readouterr().out == first

    def test_parser_is_built_once(self, write_current, capsys):
        import lelonglab.cli

        path = write_current(MULTI_ATOM_JSON)
        lelonglab.cli._build_parser.cache_clear()
        assert main(["mass", "--input", path, "--r", "0.8"]) == 0
        first = capsys.readouterr().out
        # flags of one call do not leak into the next
        assert main(["mass", "--input", path, "--r", "0.5", "--k0", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["k0"] == 1
        assert main(["mass", "--input", path, "--r", "0.8"]) == 0
        assert capsys.readouterr().out == first
        info = lelonglab.cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)


STRIP_JSON = {
    "lambda": {"value": -1.0, "class": "negative"},
    "atoms": [{"alpha": [math.exp(-1.0), 0.0], "weight": 1.0, "spec": dict(CONST_SPEC, strip_c=1.0)}],
}

POISSON_JSON = {
    "lambda": {"value": 0.5, "class": "rational", "a": 1, "b": 2},
    "atoms": [{
        "alpha": [1.1, 0.0],
        "weight": 1.0,
        "spec": {
            "type": "poisson",
            "boundary": {"ys": [-2.0, -1.0, 0.0, 1.0, 2.0], "values": [1.0] * 5, "tail": 1.0},
            "c_lin": 0.0,
        },
    }],
}


NON_FINITE_CASES = [
    # (field named in the error, valid input, keys into its atom, bad value)
    ("atoms[0].alpha", FLAGSHIP_JSON, ("alpha",), [math.nan, 0.0]),
    ("atoms[0].spec.a0", FLAGSHIP_JSON, ("spec", "a0"), math.inf),
    ("atoms[0].spec.b0", FLAGSHIP_JSON, ("spec", "b0"), math.nan),
    ("atoms[0].spec.modes", FLAGSHIP_JSON, ("spec", "modes"), [[-1, math.nan, 0.0]]),
    ("atoms[0].spec.strip_c", STRIP_JSON, ("spec", "strip_c"), math.inf),
    ("atoms[0].spec.boundary.ys", POISSON_JSON, ("spec", "boundary", "ys", 2), math.nan),
    ("atoms[0].spec.boundary.values", POISSON_JSON, ("spec", "boundary", "values", 2), math.nan),
    ("atoms[0].spec.boundary.tail", POISSON_JSON, ("spec", "boundary", "tail"), math.inf),
    ("atoms[0].spec.c_lin", POISSON_JSON, ("spec", "c_lin"), math.nan),
]


@pytest.mark.parametrize("field, base, keys, bad", NON_FINITE_CASES,
                         ids=[case[0] for case in NON_FINITE_CASES])
def test_non_finite_field_is_input_error(field, base, keys, bad, write_current, capsys):
    assert main(["mass", "--input", write_current(base)]) == 0
    capsys.readouterr()
    payload = json.loads(json.dumps(base))
    target = payload["atoms"][0]
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = bad
    assert main(["mass", "--input", write_current(payload, "bad.json")]) == 2
    assert f"{field}:" in capsys.readouterr().err


class TestLelong:
    def test_csv_schedule(self, write_current, tmp_path, capsys):
        path = write_current(FLAGSHIP_JSON)
        out = tmp_path / "schedule.csv"
        assert main(["lelong", "--input", path, "--out", str(out), "--steps", "6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rs"]) == 6
        assert all(nu == pytest.approx(2.5, rel=1e-9) for nu in payload["nus"])

        text = out.read_text(encoding="utf-8")
        assert "\r" not in text  # '\n' endings regardless of platform/locale
        rows = list(csv.reader(text.splitlines()))
        assert rows[0] == ["r", "nu", "err", "monotone_violation"]
        assert len(rows) == 7
        for r, nu, err, flag in rows[1:]:
            assert float(r) > 0.0 and float(err) >= 0.0
            assert float(nu) == pytest.approx(2.5, rel=1e-9)
            assert flag == "0"

    def test_schedule_flags(self, write_current, capsys):
        path = write_current(FLAGSHIP_JSON)
        code = main([
            "lelong", "--input", path,
            "--r-start", "0.5", "--ratio", "0.25", "--steps", "4",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rs"][0] == 0.5
        assert payload["rs"][1] == pytest.approx(0.125)
        assert len(payload["rs"]) == 4

    def test_k0_reaches_the_exact_route(self, write_current, capsys):
        path = write_current(current_to_json(B3_CURRENT))
        assert main(["lelong", "--input", path, "--k0", "1", "--steps", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        masses = mass_quadrature_schedule(B3_CURRENT, payload["rs"], k0=1)
        for nu, err, m in zip(payload["nus"], payload["errs"], masses):
            area = math.pi * m.r**2
            assert abs(nu - m.value / area) <= err + m.error_estimate / area
        assert payload["nus"][0] != pytest.approx(payload["nus"][-1], rel=1e-3)

    def test_bad_ratio_is_input_error(self, write_current, capsys):
        path = write_current(FLAGSHIP_JSON)
        assert main(["lelong", "--input", path, "--ratio", "1.5"]) == 2
        assert "ratio" in capsys.readouterr().err


class TestVerify:
    def test_single_case_passes(self, capsys):
        assert main(["verify", "--case", "pos-unit-inner-const"]) == 0
        err = capsys.readouterr().err
        assert "pos-unit-inner-const" in err
        assert "1/1 verifiers passed" in err

    def test_full_corpus_passes(self, capsys):
        assert main(["verify"]) == 0
        assert "22/22 verifiers passed" in capsys.readouterr().err

    def test_zero_tolerance_fails_with_exit_one(self, capsys):
        assert main(["verify", "--tol-scale", "0", "--case", "div-unit-linear-part"]) == 1
        err = capsys.readouterr().err
        assert "FAIL" in err
        assert "0/1 verifiers passed" in err

    def test_stdout_is_one_json_document(self, tmp_path, capsys, monkeypatch):
        class Writes(io.StringIO):
            calls = 0

            def write(self, text):
                Writes.calls += 1
                return super().write(text)

        table = Writes()
        monkeypatch.setattr(sys, "stderr", table)
        report = tmp_path / "report.json"
        assert main(["verify", "--case", "pos-unit-inner-const", "--out", str(report)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == json.loads(report.read_text(encoding="utf-8"))
        assert payload[0]["case_id"] == "pos-unit-inner-const"
        # the table and the summary line go to stderr in one write
        assert Writes.calls == 1
        assert table.getvalue().startswith("pos-unit-inner-const ")
        assert table.getvalue().endswith("\n1/1 verifiers passed\n")

    def test_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--case", "neg-unit-single-strip", "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload[0]["case_id"] == "neg-unit-single-strip"
        assert payload[0]["verdict"] == "pass"


def _one_constant_atom(lam, weight=1.0):
    return {"lambda": lam, "atoms": [{"alpha": [0.5, 0.0], "weight": weight, "spec": CONST_SPEC}]}


K0_REFUSAL = "k0: the u-window [2 pi k0, 2 pi k0 + 2 pi] overflows or has no width in floats"


class TestNumericalEdges:
    # every case runs with RuntimeWarnings as errors, as the suite does

    @pytest.mark.parametrize("command", [["mass", "--r", "0.5"], ["lelong"]])
    @pytest.mark.parametrize("lam", [
        {"value": 1e-300, "class": "irrational"},
        {"value": 1e-160, "class": "irrational"},
        {"value": -1e-300, "class": "negative"},
    ])
    def test_eigenvalue_whose_square_underflows_is_input_error(self, command, lam, write_current, capsys):
        # (2 lambda)^2 underflowed to 0: mass divided by it, lelong printed NaN
        path = write_current(_one_constant_atom(lam))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(command + ["--input", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("input error: lambda.value: |eigenvalue| must be at least 1.49e-154")

    @pytest.mark.parametrize("command", [["mass", "--r", "0.5"], ["lelong"]])
    def test_smallest_eigenvalue_loads(self, command, write_current, capsys):
        from lelonglab.foliation import LAMBDA_MIN

        assert LAMBDA_MIN ** 2 >= sys.float_info.min
        path = write_current(_one_constant_atom({"value": LAMBDA_MIN, "class": "irrational"}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(command + ["--input", path]) == 0
        json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("command, field", [
        (["mass", "--r", "0.5"], "quadrature.value"),
        (["lelong"], "nus[0]"),
    ])
    def test_non_finite_result_is_numerical_failure(self, command, field, write_current, tmp_path, capsys):
        # the mass overflows: the weighted terms are inf, and the exact route's NaN
        path = write_current(_one_constant_atom({"value": 1.0, "class": "rational", "a": 1, "b": 1}, 1e308))
        csv_path = tmp_path / "schedule.csv"
        extra = ["--out", str(csv_path)] if command == ["lelong"] else []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(command + ["--input", path] + extra) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"numerical failure: {field} is not a finite number\n"
        assert not csv_path.exists()

    def test_non_finite_closed_form_is_named(self, write_current, capsys):
        # a finite quadrature mass whose closed form overflows
        payload = _one_constant_atom({"value": 1.0, "class": "rational", "a": 1, "b": 1}, 1e307)
        payload["atoms"][0]["spec"] = dict(CONST_SPEC, b0=1.0)
        path = write_current(payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["mass", "--r", "0.5", "--input", path]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "numerical failure: closed_form is not a finite number\n"

    @pytest.mark.parametrize("command", [["lelong"], ["sweep"], ["leafplot"]])
    def test_area_that_underflows_is_input_error(self, command, write_current, tmp_path, capsys):
        # 540 halvings from r = 1 reach 2^-538 = 1.11e-162, where pi r^2 is 0
        path = write_current(FLAGSHIP_JSON)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out_path = out_dir if command == ["leafplot"] else out_dir / "out.csv"
        extra = [] if command == ["sweep"] else ["--input", path]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(command + extra + ["--steps", "540", "--out", str(out_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "input error: r = 1.1113793747425387e-162: the area pi r^2 underflows to 0\n"
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("command", [["lelong"], ["sweep"], ["leafplot"]])
    def test_schedule_radius_that_underflows_is_input_error(self, command, write_current, tmp_path, capsys):
        # r_start * ratio^2 = 1e-400 is 0.0: the error names that radius, which no flag gave
        path = write_current(FLAGSHIP_JSON)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out_path = out_dir if command == ["leafplot"] else out_dir / "out.csv"
        extra = [] if command == ["sweep"] else ["--input", path]
        assert main(command + extra + ["--ratio", "1e-200", "--steps", "3", "--out", str(out_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("input error: schedule radius 2, r_start * ratio^2 with r_start = 1.0 and "
                       "ratio = 1e-200, underflows to 0\n")
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("command, message", [
        (["verify", "--seed", "-1"], "seed must be a non-negative integer, not -1"),
        (["mass", "--k0", str(10**400)], K0_REFUSAL),
        (["mass", "--k0", str(10**300)], K0_REFUSAL),
        (["mass", "--k0", str(-10**300)], K0_REFUSAL),
        (["lelong", "--k0", str(10**300)], K0_REFUSAL),
        (["leafplot", "--loops", "0"], "--loops must be a positive integer, not 0"),
    ], ids=["seed=-1", "mass-k0=1e400", "mass-k0=1e300", "mass-k0=-1e300", "lelong-k0=1e300", "loops=0"])
    def test_flag_out_of_range_is_named(self, command, message, write_current, tmp_path, capsys):
        # each crashed, blamed an internal value or printed a meaningless schedule
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        extra = [] if command[0] == "verify" else ["--input", write_current(FLAGSHIP_JSON)]
        if command[0] != "mass":
            extra += ["--out", str(out_dir if command[0] == "leafplot" else out_dir / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(command + extra) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"input error: {message}\n"
        assert list(out_dir.iterdir()) == []

    HUGE = str(10**12)

    @pytest.mark.parametrize("command, message", [
        (["lelong", "--steps", HUGE, "--ratio", "0.9999999999999"], f"--steps must be at most {cli.MAX_STEPS}"),
        (["sweep", "--steps", HUGE, "--ratio", "0.9999999999999"], f"--steps must be at most {cli.MAX_STEPS}"),
        (["leafplot", "--steps", HUGE, "--ratio", "0.9999999999999"], f"--steps must be at most {cli.MAX_STEPS}"),
        (["leafplot", "--loops", HUGE], f"--loops must be at most {cli.MAX_LOOPS}"),
    ], ids=["lelong-steps", "sweep-steps", "leafplot-steps", "leafplot-loops"])
    def test_size_flag_above_its_bound_is_named(self, command, message, write_current, tmp_path, capsys,
                                                monkeypatch):
        # refused before a radius or a curve sample is formed: the builders
        # stand in for ones that would fail the test if they ran
        def never(*args, **kwargs):
            raise AssertionError("built the refused schedule or curve")

        monkeypatch.setattr(cli, "lelong_estimate", never)
        monkeypatch.setattr(cli, "torus_curve", never)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        extra = [] if command[0] == "sweep" else ["--input", write_current(FLAGSHIP_JSON)]
        extra += ["--out", str(out_dir if command[0] == "leafplot" else out_dir / "out")]
        assert main(command + extra) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"input error: {message}, not {self.HUGE}\n"
        assert list(out_dir.iterdir()) == []

    def test_size_bounds_admit_their_own_value(self):
        assert cli._at_most("--steps", cli.MAX_STEPS, cli.MAX_STEPS) == cli.MAX_STEPS
        with pytest.raises(InputError, match="^--loops must be at most 1000, not 1001$"):
            cli._at_most("--loops", cli.MAX_LOOPS + 1, cli.MAX_LOOPS)

    def test_non_finite_verify_report_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        from lelonglab.theorems import VerificationReport

        reports = [VerificationReport("a", 0.5, "PositiveLelong", (1.0, 2.0), True, ""),
                   VerificationReport("b", 0.5, "PositiveLelong", (1.0, math.inf), True, "")]
        monkeypatch.setattr(cli, "run_corpus", lambda **kwargs: reports)
        out_path = tmp_path / "report.json"
        assert main(["verify", "--out", str(out_path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "numerical failure: [1].observed[1] is not a finite number\n"
        assert not out_path.exists()


GOLDEN = Path(__file__).parent / "data"

# a number the output reports no error for is compared within this many
# ulps of its golden value
GOLDEN_ULPS = 4.0


def _near(got, want, tol, where):
    """got within tol of want, or within GOLDEN_ULPS ulps of it, whichever is wider."""
    tol = max(tol, GOLDEN_ULPS * np.finfo(float).eps * abs(want))
    assert abs(got - want) <= tol, f"{where}: {got!r} is not within {tol!r} of the golden {want!r}"


def _same_keys(got, want, where):
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert list(got) == list(want), where


def _fit_tolerance(rs, nus, errs):
    """How far lelong's slope and R^2 may move with each nu within its error: first-order sensitivities."""
    start = 0 if len(rs) < 6 else len(rs) // 2
    x = -np.log(np.asarray(rs[start:]))
    y, err = np.asarray(nus[start:]), np.asarray(errs[start:])
    dx, dy = x - x.mean(), y - y.mean()
    sxx, tot = float(dx @ dx), float(dy @ dy)
    slope = float(np.abs(dx) @ err) / sxx
    res = dy - (float(dx @ dy) / sxx) * dx
    r_squared = 2.0 * float(np.abs(res) @ err + np.abs(dy) @ err * float(res @ res) / tot) / tot if tot > 1e-30 else 0.0
    return slope, 2.0 * r_squared


def _lelong_within(got, want, where):
    """A lelong payload against its golden: each nu within its error, the fit within what those errors allow."""
    _same_keys(got, want, where)
    for key in ("rs", "monotone_ok", "diverging"):
        assert got[key] == want[key], f"{where}.{key}"
    errs, width = want["errs"], want["limit_bracket"][1] - want["limit_bracket"][0]
    for i, (nu, err) in enumerate(zip(want["nus"], errs)):
        _near(got["nus"][i], nu, err, f"{where}.nus[{i}]")
        _near(got["errs"][i], err, err, f"{where}.errs[{i}]")
    _near(got["limit_estimate"], want["limit_estimate"], errs[-1], f"{where}.limit_estimate")
    for i in (0, 1):
        _near(got["limit_bracket"][i], want["limit_bracket"][i], width, f"{where}.limit_bracket[{i}]")
    slope, r_squared = _fit_tolerance(want["rs"], want["nus"], errs)
    _near(got["slope"], want["slope"], slope, f"{where}.slope")
    _near(got["r_squared"], want["r_squared"], r_squared, f"{where}.r_squared")


def _verify_within(got, want):
    """A verify report against its golden: every field exact but the observed numbers.

    A positive claim's observed limit and bracket are compared within the
    bracket's width, its reference and every other claim's numbers within
    GOLDEN_ULPS ulps.
    """
    assert len(got) == len(want)
    for g, w in zip(got, want):
        where = w["case_id"]
        _same_keys(g, w, where)
        assert {k: v for k, v in g.items() if k != "observed"} == {k: v for k, v in w.items() if k != "observed"}
        assert len(g["observed"]) == len(w["observed"]), where
        width = w["observed"][2] - w["observed"][1] if w["claim"] == "PositiveLelong" else 0.0
        for i, (x, y) in enumerate(zip(g["observed"], w["observed"])):
            _near(x, y, width if i < 3 else 0.0, f"{where}.observed[{i}]")


def _mass_families_within(got, want):
    """mass-families.json: each run's numbers within the error its quadrature reports, r and k0 exact."""
    _same_keys(got, want, "mass-families")
    for name in want:
        assert len(got[name]) == len(want[name]), name
        for n, (g, w) in enumerate(zip(got[name], want[name])):
            where = f"{name}[{n}]"
            _same_keys(g, w, where)
            assert (g["r"], g["k0"]) == (w["r"], w["k0"]), where
            err = w["quadrature"]["error_estimate"]
            for key in ("value", "error_estimate"):
                _near(g["quadrature"][key], w["quadrature"][key], err, f"{where}.quadrature.{key}")
            for key in ("closed_form", "discrepancy"):
                assert (g[key] is None) == (w[key] is None), where
                if w[key] is not None:
                    _near(g[key], w[key], err, f"{where}.{key}")


def _sweep_within(got, want):
    """sweep.csv: its columns exact but nu_end and the limit bracket, compared within the bracket's width."""
    got, want = (list(csv.DictReader(io.StringIO(text))) for text in (got, want))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert list(g) == list(w)
        where = f"{w['lambda']},{w['family']}"
        for key in ("lambda", "family", "r_end", "monotone_ok", "diverging"):
            assert g[key] == w[key], where
        width = float(w["limit_upper"]) - float(w["limit_lower"])
        for key in ("nu_end", "limit_lower", "limit_upper"):
            _near(float(g[key]), float(w[key]), width, f"{where}.{key}")


class TestGoldenOutputs:
    """The CLI's output against tests/data (see scripts/make_golden.py), within its reported errors.

    Keys, verdicts, radii and flags match exactly. Each number is compared
    within the error the same output reports for it, or within GOLDEN_ULPS
    ulps where it reports none: numpy's exp, log, sin and cos round
    differently on other CPU features, and the numbers with them.
    """

    def test_verify_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--seed", "42", "--out", str(out)]) == 0
        capsys.readouterr()
        _verify_within(json.loads(out.read_text()), json.loads((GOLDEN / "verify-seed42.json").read_text()))

    def test_verify_report_seed7(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--seed", "7", "--out", str(out)]) == 0
        capsys.readouterr()
        _verify_within(json.loads(out.read_text()), json.loads((GOLDEN / "verify-seed7.json").read_text()))

    @pytest.mark.parametrize("case_id", ["pos-silver-poisson-flat", "div-half-poisson-linear"])
    def test_poisson_schedule(self, case_id, write_current, capsys):
        current = next(case.current for case in corpus(42) if case.case_id == case_id)
        assert main(["lelong", "--input", write_current(current_to_json(current))]) == 0
        got = json.loads(capsys.readouterr().out)
        _lelong_within(got, json.loads((GOLDEN / f"lelong-{case_id}.json").read_text()), case_id)

    def test_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--out", str(out)]) == 0
        capsys.readouterr()
        _sweep_within(out.read_text(), (GOLDEN / "sweep.csv").read_text())

    def test_mass_families(self):
        # the quadrature route on three many-atom currents, through the mass command
        root = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location("make_golden", root / "scripts" / "make_golden.py")
        make_golden = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(make_golden)
        _mass_families_within(json.loads(make_golden.mass_families()),
                              json.loads((GOLDEN / "mass-families.json").read_text()))

    def test_figures(self, tmp_path, capsys):
        # scripts/make_figures.py, run into tmp_path, redraws figures/ byte for byte
        root = Path(__file__).resolve().parents[1]
        figures = root / "figures"
        spec = importlib.util.spec_from_file_location("make_figures", root / "scripts" / "make_figures.py")
        make_figures = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(make_figures)
        assert make_figures.main(str(tmp_path)) == 0
        capsys.readouterr()
        expected = sorted(p.relative_to(figures) for p in figures.rglob("*.svg"))
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*.svg")) == expected
        for rel in expected:
            assert (tmp_path / rel).read_bytes() == (figures / rel).read_bytes(), rel


class TestLeafplot:
    def test_writes_both_svgs(self, write_current, tmp_path, capsys):
        path = write_current(FLAGSHIP_JSON)
        code = main([
            "leafplot", "--input", path, "--out", str(tmp_path),
            "--loops", "2",
        ])
        assert code == 0
        paths = json.loads(capsys.readouterr().out)
        torus = (tmp_path / "torus.svg").read_text(encoding="utf-8")
        schedule = (tmp_path / "schedule.svg").read_text(encoding="utf-8")
        assert paths["torus"].endswith("torus.svg")

        for svg in (torus, schedule):
            assert 'width="800" height="800"' in svg
            assert re.search(r'points="\d+\.\d{6},\d+\.\d{6}', svg)
        # two loops of the unit-eigenvalue leaf wrap the torus edge, so the
        # curve must be drawn as several disjoint polylines
        assert torus.count("<polyline") >= 2
        assert schedule.count("<circle") == 12

    def test_steps_and_k0_drive_the_schedule(self, write_current, tmp_path, capsys, monkeypatch):
        import lelonglab.cli

        seen = {}
        real = lelonglab.cli.lelong_estimate

        def spy(current, **kwargs):
            seen.update(kwargs)
            return real(current, **kwargs)

        monkeypatch.setattr(lelonglab.cli, "lelong_estimate", spy)
        path = write_current(FLAGSHIP_JSON)
        code = main([
            "leafplot", "--input", path, "--out", str(tmp_path),
            "--loops", "1", "--steps", "5", "--k0", "2",
        ])
        assert code == 0
        capsys.readouterr()
        assert seen["steps"] == 5 and seen["k0"] == 2
        assert (tmp_path / "schedule.svg").read_text(encoding="utf-8").count("<circle") == 5

    def test_failure_writes_no_file(self, write_current, tmp_path, capsys):
        # the schedule fails before either SVG is written
        path = write_current(FLAGSHIP_JSON)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["leafplot", "--input", path, "--out", str(out_dir), "--steps", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "input error: a schedule needs at least two steps\n"
        assert list(out_dir.iterdir()) == []


class TestSweep:
    def test_grid_shape(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--out", str(out)]) == 0
        meta = json.loads(capsys.readouterr().out)
        assert meta["rows"] == 9
        rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))
        assert rows[0] == [
            "lambda", "family", "r_end", "nu_end",
            "limit_lower", "limit_upper", "monotone_ok", "diverging",
        ]
        assert len(rows) == 10
        lams = {row[0] for row in rows[1:]}
        assert lams == {"1.0", "0.5", "-1.0"}
        families = [row[1] for row in rows[1:]]
        assert families.count("geometric-family") == 3
        # the shrinking-strip rows must decay, and nothing in the grid diverges
        for row in rows[1:]:
            assert row[7] == "0"
            if row[0] == "-1.0":
                assert float(row[3]) == 0.0

    def test_rerun_is_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--out", str(a)]) == 0
        assert main(["sweep", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag, value", [("--rel-tol", "0"), ("--rel-tol", "1e-9"), ("--abs-tol", "0")])
    def test_tolerance_flag_is_usage_error(self, flag, value, tmp_path, capsys):
        # the sweep runs no quadrature, and verify runs the corpus at the
        # default settings, so neither takes a tolerance, good or bad
        for command in ("sweep", "verify"):
            out = tmp_path / f"{command}.out"
            with pytest.raises(SystemExit) as exc_info:
                main([command, flag, value, "--out", str(out)])
            assert exc_info.value.code == 2
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
            assert not out.exists()


def _replaced(base, keys, value):
    """A copy of the payload base with the entry at keys set to value."""
    payload = json.loads(json.dumps(base))
    target = payload
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return payload


INTEGER_FIELD_CASES = [
    # (field named in the error, keys into the flagship payload, bad value)
    ("atoms[0].spec.b", ("atoms", 0, "spec", "b"), 2.5),
    ("atoms[0].spec.b", ("atoms", 0, "spec", "b"), True),
    ("atoms[0].spec.b", ("atoms", 0, "spec", "b"), 1.0),
    ("atoms[0].spec.b", ("atoms", 0, "spec", "b"), 2**63),
    ("atoms[0].spec.modes", ("atoms", 0, "spec", "modes"), [[-1.7, 0.1, 0.0]]),
    ("atoms[0].spec.modes", ("atoms", 0, "spec", "modes"), [[-(2**64), 0.0, 0.0]]),
    ("lambda.a", ("lambda", "a"), True),
    ("lambda.b", ("lambda", "b"), 1.0),
    ("lambda.b", ("lambda", "b"), 10**30),
]


@pytest.mark.parametrize("field, keys, bad", INTEGER_FIELD_CASES,
                         ids=[f"{case[0]}={case[2]!r}" for case in INTEGER_FIELD_CASES])
def test_integer_field_takes_only_json_integers(field, keys, bad, write_current, capsys):
    assert main(["mass", "--input", write_current(_replaced(FLAGSHIP_JSON, keys, bad))]) == 2
    assert f"input error: {field}: expected an integer with |n| < 2**63" in capsys.readouterr().err


@pytest.mark.parametrize("lam, field", [
    ({"class": "rational", "a": 1, "b": 0}, "lambda.b"),
    ({"class": "rational", "a": 1, "b": 0, "value": 0.5}, "lambda.b"),
    ({"class": "rational", "a": 1, "b": 2, "value": 0.3}, "lambda.value"),
    ({"class": "rational", "a": 2, "b": 4}, "lambda"),
    ({"class": "negative", "value": 0.5}, "lambda.value"),
    ({"class": "irrational", "value": None}, "lambda.value"),
    (5, "lambda"),
    ({"class": "rational", "value": 1.0}, "lambda"),
    ({"class": "irrational"}, "lambda.value"),
    ({"class": "complex", "value": 0.5}, "lambda.class"),
])
def test_eigenvalue_errors_name_the_field(lam, field, write_current, capsys):
    payload = dict(FLAGSHIP_JSON, **{"lambda": lam})
    assert main(["mass", "--input", write_current(payload)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {field}: ")


@pytest.mark.parametrize("field, keys", [
    ("atoms[0]", ("atoms", 0, "weight")),
    ("atoms[0].spec", ("atoms", 0, "spec", "a0")),
    ("atoms[0].spec.boundary", ("atoms", 0, "spec", "boundary", "values", 2)),
    ("lambda.value", ("lambda", "value")),
    ("atoms[0].spec", ("atoms", 0, "spec", "boundary", "tail")),
])
def test_integer_too_large_for_a_float_is_input_error(field, keys, write_current, capsys):
    # 10**400 is written out as 401 digits, too large for a double
    payload = _replaced(POISSON_JSON if "boundary" in keys else FLAGSHIP_JSON, keys, 10**400)
    assert main(["mass", "--input", write_current(payload)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {field}: non-numeric")


@pytest.mark.parametrize("field, base, keys, bad", [
    ("current", FLAGSHIP_JSON, (), [FLAGSHIP_JSON]),
    ("atoms", FLAGSHIP_JSON, ("atoms",), []),
    ("atoms[0]", FLAGSHIP_JSON, ("atoms", 0), 5),
    ("atoms[0].spec", FLAGSHIP_JSON, ("atoms", 0, "spec"), 5),
    ("atoms[0].spec.modes", FLAGSHIP_JSON, ("atoms", 0, "spec", "modes"), 5),
    ("atoms[0].spec.boundary", POISSON_JSON, ("atoms", 0, "spec", "boundary"), 5),
    ("atoms[0].spec.boundary", POISSON_JSON, ("atoms", 0, "spec", "boundary", "values"), [1.0] * 4),
], ids=["top-level-list", "no-atoms", "atom-not-object", "spec-5", "modes-5", "boundary-5", "ys-values-lengths"])
def test_malformed_document_names_the_field(field, base, keys, bad, write_current, capsys):
    payload = _replaced(base, keys, bad) if keys else bad
    assert main(["mass", "--input", write_current(payload)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"input error: {field}: ")


def test_non_utf8_input_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"lambda": \xff}')
    assert main(["mass", "--input", str(path), "--r", "0.5"]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {path}: not valid UTF-8 (")


# Input documents for the decoder comparison: each @field@ holds a valid
# value, or for a few drawn fields a raw token. The tokens are texts that
# orjson refuses (NaN, Infinity, overflow to inf, lone surrogates, bytes that
# are not UTF-8, a leading zero), integers at and beyond 2**63 and 2**64 that
# orjson returns as floats, floats and bools in integer fields, numbers
# written as strings and bools in float fields, and plain numbers written
# with long mantissas.
FOURIER_DOC = (
    b'{"lambda": {"value": @value@, "class": @class@, "a": @a@, "b": @b@}, '
    b'"atoms": [{"alpha": [@re@, @im@], "weight": @weight@, "spec": {"type": @type@, '
    b'"b": @sb@, "a0": @a0@, "b0": @b0@, "modes": [[@k@, @ak@, @bk@]]}}]}'
)
FOURIER_FIELDS = {
    "value": b"0.5", "class": b'"rational"', "a": b"1", "b": b"2", "re": b"0.5", "im": b"0.0",
    "weight": b"1.0", "type": b'"fourier"', "sb": b"2", "a0": b"1.0", "b0": b"0.25",
    "k": b"-1", "ak": b"0.0", "bk": b"0.1",
}
POISSON_DOC = (
    b'{"lambda": {"value": @value@, "class": "irrational"}, "atoms": [{"alpha": [@re@, 0.0], '
    b'"weight": @weight@, "spec": {"type": "poisson", "boundary": {"ys": [-2.0, -1.0, @y@, 1.0, 2.0], '
    b'"values": [1.0, @v@, 1.0, 1.0, 1.0], "tail": @tail@}, "c_lin": @clin@}}]}'
)
POISSON_FIELDS = {
    "value": b"0.4142135623730951", "re": b"1.1", "weight": b"1.0", "y": b"0.0", "v": b"1.0",
    "tail": b"1.0", "clin": b"0.0",
}
RAW_TOKENS = [
    b"NaN", b"Infinity", b"-Infinity", b"1e400", b"-1e400", b"true", b"null", b"-0", b"-0.0",
    b"2.5", b"-1.7", b"1.0", b"01", b"9223372036854775807", b"9223372036854775808", b"-9223372036854775808",
    b"18446744073709551616", b"1000000000000000000000000000000",
    b'"0.5"', b"false", b'"\\ud800"', b'"x\\udc00"', b'"\\ud83d\\ude00"', b'"\xff"', b'"\xc3("', b'"\xed\xa0\x80"', b"\x80",
]
TOKENS = st.one_of(
    st.sampled_from(RAW_TOKENS),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: repr(x).encode()),
    st.from_regex(r"-?(0|[1-9][0-9]{0,2})\.[0-9]{15,30}(e-?[0-9]{1,3})?", fullmatch=True).map(str.encode),
    st.integers(-(2**70), 2**70).map(lambda n: str(n).encode()),
)


def _fill(doc, fields, tokens):
    for name, valid in fields.items():
        doc = doc.replace(b"@%s@" % name.encode(), tokens.get(name, valid))
    return doc


@st.composite
def input_documents(draw):
    doc, fields = draw(st.sampled_from([(FOURIER_DOC, FOURIER_FIELDS), (POISSON_DOC, POISSON_FIELDS)]))
    drawn = draw(st.sets(st.sampled_from(sorted(fields)), max_size=3))
    return _fill(doc, fields, {name: draw(TOKENS) for name in sorted(drawn)})


def _current_bits(current):
    atoms = []
    for atom in current.atoms:
        spec = atom.spec
        if isinstance(spec, FourierSpec):
            fields = (spec.b, spec.a0.hex(), spec.b0.hex(),
                      tuple((k, a.hex(), bb.hex()) for k, a, bb in spec.modes),
                      None if spec.strip_c is None else spec.strip_c.hex())
        else:
            fields = (spec.ys.dtype.str, spec.ys.tobytes(), spec.values.dtype.str, spec.values.tobytes(),
                      spec.tail.hex(), spec.c_lin.hex())
        atoms.append((atom.alpha.real.hex(), atom.alpha.imag.hex(), atom.weight.hex(), fields))
    lam = current.lam
    return lam.value.hex(), lam.kind, lam.a, lam.b, tuple(atoms)


def _outcome(load, path):
    try:
        return _current_bits(load(str(path)))
    except Exception as exc:
        return type(exc), str(exc)


STRICT_FLOAT_CASES = [
    # (field named in the error, valid input, keys into it, bad value)
    ("lambda.value", FLAGSHIP_JSON, ("lambda", "value"), "1.0"),
    ("atoms[0].alpha", FLAGSHIP_JSON, ("atoms", 0, "alpha"), ["0.5", False]),
    ("atoms[0].alpha", FLAGSHIP_JSON, ("atoms", 0, "alpha"), [0.5, False]),
    ("atoms[0].weight", FLAGSHIP_JSON, ("atoms", 0, "weight"), True),
    ("atoms[0].spec.a0", FLAGSHIP_JSON, ("atoms", 0, "spec", "a0"), "1.0"),
    ("atoms[0].spec.b0", FLAGSHIP_JSON, ("atoms", 0, "spec", "b0"), None),
    ("atoms[0].spec.modes", FLAGSHIP_JSON, ("atoms", 0, "spec", "modes"), [[-1, "0.1", 0.0]]),
    ("atoms[0].spec.modes", FLAGSHIP_JSON, ("atoms", 0, "spec", "modes"), [[-1, 0.1, True]]),
    ("atoms[0].spec.strip_c", STRIP_JSON, ("atoms", 0, "spec", "strip_c"), "1.0"),
    ("atoms[0].spec.boundary.tail", POISSON_JSON, ("atoms", 0, "spec", "boundary", "tail"), "1.0"),
    ("atoms[0].spec.c_lin", POISSON_JSON, ("atoms", 0, "spec", "c_lin"), False),
]


class TestDecoders:
    """cli._load_current (orjson, json for what it refuses) against the json-only oracle."""

    def test_valid_file_never_reaches_json(self, write_current, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("stdlib json decoded a file orjson accepts")

        monkeypatch.setattr(cli.json, "loads", refuse)
        current = cli._load_current(write_current(POISSON_JSON))
        assert current.atoms[0].spec.ys.size == 5

    def test_cli_import_leaves_orjson_out(self):
        src = Path(cli.__file__).resolve().parents[1]
        probe = "import sys, lelonglab.cli; print('orjson' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                             env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
        assert out.stdout.strip() == "False"

    @given(doc=input_documents())
    # integers beyond 64 bits, which orjson gives as floats and json as ints,
    # in a string field (the gap this property first found), an integer
    # field and a float field
    @example(doc=_fill(FOURIER_DOC, FOURIER_FIELDS, {"type": b"18446744073709551616"}))
    @example(doc=_fill(FOURIER_DOC, FOURIER_FIELDS, {"class": b"18446744073709551616"}))
    @example(doc=_fill(FOURIER_DOC, FOURIER_FIELDS, {"sb": b"18446744073709551617"}))
    @example(doc=_fill(FOURIER_DOC, FOURIER_FIELDS, {"b0": b"18446744073709551617"}))
    # strings and bools in float fields, which float() used to take
    @example(doc=_fill(FOURIER_DOC, FOURIER_FIELDS, {"re": b'"0.5"', "im": b"false", "a0": b'"1.0"'}))
    @example(doc=_fill(POISSON_DOC, POISSON_FIELDS, {"weight": b"true", "tail": b'"1.0"', "value": b'"1.0"'}))
    # a0 + a_k overflows at the base point, which the column sum warned of
    @example(doc=_fill(FOURIER_DOC, FOURIER_FIELDS, {"a0": b"8.988465674311579e+307", "ak": b"8.98846567431158e+307"}))
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_current_or_same_error(self, doc, tmp_path):
        from oracles import load_current

        path = tmp_path / "doc.json"
        path.write_bytes(doc)
        assert _outcome(cli._load_current, path) == _outcome(load_current, path)

    @pytest.mark.parametrize("field, base, keys, bad", STRICT_FLOAT_CASES,
                             ids=[f"{case[0]}={case[3]!r}" for case in STRICT_FLOAT_CASES])
    def test_float_field_takes_only_json_numbers(self, field, base, keys, bad, write_current, capsys):
        from oracles import load_current

        path = write_current(_replaced(base, keys, bad))
        for load in (cli._load_current, load_current):
            with pytest.raises(InputError, match=f"^{re.escape(field)}: expected a number$"):
                load(path)
        assert main(["mass", "--input", path]) == 2
        assert f"input error: {field}: expected a number" in capsys.readouterr().err


# Many-atom documents for the column loader: strips, half-planes and a
# Poisson atom under either sign of the eigenvalue, so that most documents
# break some rule, with one or two fields of one or two atoms replaced by a
# raw token or dropped. Each path is tried on the atoms it fits.
ATOM_PATHS = [
    ("alpha",), ("alpha", 0), ("alpha", 1), ("weight",), ("spec",), ("spec", "type"), ("spec", "b"),
    ("spec", "a0"), ("spec", "b0"), ("spec", "strip_c"), ("spec", "modes"), ("spec", "modes", 0),
    ("spec", "modes", 0, 0), ("spec", "modes", 0, 1), ("spec", "modes", 0, 2), ("spec", "boundary"),
    ("spec", "boundary", "tail"), ("spec", "boundary", "values", 1), ("spec", "c_lin"),
]


def _atom_json(draw, kind, lam_value):
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    if kind == "poisson":
        modulus = draw(st.floats(0.5, 2.0))
        spec = {"type": "poisson", "boundary": {"ys": [-2.0, -1.0, 0.0, 1.0, 2.0], "values": [1.0] * 5,
                                                "tail": 1.0}, "c_lin": draw(st.sampled_from([0.0, 0.5]))}
    else:
        strip = kind == "strip"
        modulus = draw(st.floats(0.3, 0.95) if strip else st.floats(0.1, 3.0))
        ks = draw(st.lists(st.sampled_from([-2, -1, 1, 2] if strip else [-3, -2, -1]), max_size=2))
        modes = [[k, draw(st.floats(-0.2, 0.2)), draw(st.floats(-0.2, 0.2))] for k in ks]
        a0 = 1.0 - sum(a for _, a, _ in modes)
        spec = {"type": "fourier", "b": draw(st.sampled_from([1, 2])), "a0": a0,
                "b0": draw(st.floats(0.0, 1.0)), "modes": modes}
    alpha = [modulus * math.cos(theta), modulus * math.sin(theta)]
    if kind == "strip":
        spec["strip_c"] = abs(math.log(abs(complex(*alpha))) / lam_value)
    return {"alpha": alpha, "weight": draw(st.floats(0.1, 2.0)), "spec": spec}


def _replace_at(doc, path, value):
    """Set or, for value None, drop the entry at path; False if its parent is not there."""
    for key in path[:-1]:
        if not isinstance(doc, (dict, list)) or isinstance(doc, list) != isinstance(key, int):
            return False
        try:
            doc = doc[key]
        except (KeyError, IndexError):
            return False
    key = path[-1]
    if not isinstance(doc, (dict, list)) or isinstance(doc, list) != isinstance(key, int):
        return False
    if isinstance(doc, list) and not key < len(doc):
        return False
    if value is None:
        if isinstance(doc, dict):
            doc.pop(key, None)
        else:
            del doc[key]
    else:
        doc[key] = value
    return True


@st.composite
def many_atom_documents(draw):
    negative = draw(st.booleans())
    lam = {"value": -0.5, "class": "negative"} if negative else {"value": 0.5, "class": "rational", "a": 1, "b": 2}
    count = draw(st.integers(2, 6))
    usual = "strip" if negative else "half-plane"
    kinds = [draw(st.sampled_from([usual, usual, usual, "strip", "half-plane"])) for _ in range(count)]
    if draw(st.booleans()):
        kinds[draw(st.integers(0, count - 1))] = "poisson"
    doc = {"lambda": lam, "atoms": [_atom_json(draw, kind, lam["value"]) for kind in kinds]}
    tokens = {}
    for n in range(draw(st.integers(0, 2))):
        path = (draw(st.integers(0, count - 1)),) + draw(st.sampled_from(ATOM_PATHS))
        token = draw(st.one_of(st.none(), st.sampled_from(RAW_TOKENS)))
        marker = f"@raw{n}@"
        if _replace_at(doc["atoms"], path, None if token is None else marker) and token is not None:
            tokens[marker] = token
    text = json.dumps(doc).encode()
    for marker, token in tokens.items():
        text = text.replace(b'"%s"' % marker.encode(), token)
    return text


@st.composite
def atom_lists(draw):
    """(lam, atoms) with atoms that break the validator's rules now and then.

    Flaws: |alpha| >= 1 at a negative eigenvalue, a strip height that does
    not match, an unnormalized base, a half-plane ell-1 overflow, a
    two-mode strip that may dip (its envelope fails, so it is scanned),
    the wrong kind of spec for the eigenvalue, a weight or alpha that is 0.
    """
    negative = draw(st.booleans())
    lam = Eigenvalue.negative(-0.5) if negative else Eigenvalue.rational(1, 2)
    atoms = []
    for _ in range(draw(st.integers(1, 6))):
        flaw = draw(st.sampled_from([None, None, None, "alpha", "height", "base", "l1", "dip", "kind",
                                     "weight", "zero"]))
        strip = negative != (flaw == "kind")
        modulus = draw(st.floats(0.2, 0.9) if strip else st.floats(0.1, 3.0))
        if flaw == "alpha":
            modulus = draw(st.floats(1.0, 2.0))
        weight = draw(st.sampled_from([0.0, -1.0, math.nan])) if flaw == "weight" else draw(st.floats(0.1, 2.0))
        if draw(st.integers(0, 7)) == 0 and not strip:
            spec = normalize(PoissonSpec(ys=np.linspace(-2.0, 2.0, 5), values=np.ones(5), tail=1.0))
        else:
            dip = flaw == "dip" and strip
            size = 0.7 if dip else 0.6 if flaw == "l1" else 0.1
            ks = [1, -2] if dip else draw(st.lists(st.sampled_from([-2, -1, 1] if strip else [-2, -1]), max_size=2))
            modes = tuple((k, draw(st.floats(0.0, size)), 0.0 if dip else draw(st.floats(-size, size))) for k in ks)
            height = abs(math.log(modulus) / lam.value) if strip else None
            if strip and flaw in ("height", "alpha"):
                height = height * 1.5 + 0.5
            spec = normalize(FourierSpec(b=draw(st.sampled_from([1, 2])), a0=1.0, b0=draw(st.floats(0.0, 2.0)),
                                         modes=modes, strip_c=height))
        if flaw == "base":
            spec = FourierSpec(b=1, a0=1.5, strip_c=spec.strip_c) if isinstance(spec, FourierSpec) else PoissonSpec(
                ys=spec.ys, values=spec.values * 1.5, tail=spec.tail * 1.5)
        alpha = 0.0 if flaw == "zero" else modulus * complex(math.cos(1.0), math.sin(1.0))
        atoms.append(TransversalAtom(alpha, weight, spec))
    return lam, atoms


def _built(build, lam, atoms):
    try:
        return _current_bits(build(lam, atoms))
    except Exception as exc:
        return type(exc), str(exc)


class TestColumnLoader:
    """The column loader and the array validator against the per-atom ones of tests/oracles.py."""

    @given(doc=many_atom_documents())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_many_atoms_same_current_or_same_error(self, doc, tmp_path):
        from oracles import load_current

        path = tmp_path / "doc.json"
        path.write_bytes(doc)
        assert _outcome(cli._load_current, path) == _outcome(load_current, path)

    @given(case=atom_lists())
    # a strip whose scan certifies it, then one whose scan finds a dip
    @example(case=(Eigenvalue.negative(-1.0), [TransversalAtom(math.exp(-0.7), 1.0, normalize(FourierSpec(
        b=b, a0=1.0, b0=b0, modes=modes, strip_c=0.7))) for b, b0, modes in (
            (2, 2.0, ((1, 0.6, 0.0), (-2, 0.5, 0.0))), (1, 0.1, ((1, 0.5, 0.0), (-1, 0.6, 0.0))))]))
    @settings(max_examples=300, deadline=None)
    def test_build_current_same_current_or_same_error(self, case):
        import oracles

        lam, atoms = case
        assert _built(build_current, lam, atoms) == _built(oracles.build_current, lam, atoms)

    def test_mass_builds_no_atom_objects(self, write_current, capsys, monkeypatch):
        from oracles import load_current

        lam = Eigenvalue.negative(-0.5)
        family = accumulation_family(lam, 32, alpha_base=0.9, b0=0.2, modes=((-1, 0.02, -0.01),))
        path = write_current(current_to_json(build_current(lam, family)))
        argvs = [["mass", "--input", path, "--r", r, "--k0", k0] for r in ("1.0", "0.5") for k0 in ("0", "-2")]
        want = []
        for argv in argvs:
            assert main(argv) == 0
            want.append(capsys.readouterr().out)

        def refuse(*args, **kwargs):
            raise AssertionError("mass built a per-atom object")

        with monkeypatch.context() as patch:
            patch.setattr(FourierSpec, "__post_init__", refuse)
            patch.setattr(TransversalAtom, "__init__", refuse)
            for argv, out in zip(argvs, want):
                assert main(argv) == 0
                assert capsys.readouterr().out == out
        assert _current_bits(cli._load_current(path)) == _current_bits(load_current(path))


@st.composite
def current_batches(draw):
    """1-5 (lam, atoms) pairs of either sign from atom_lists, now and then with no atoms."""
    return [(draw(st.sampled_from([Eigenvalue.negative(-0.5), Eigenvalue.rational(1, 2)])), [])
            if draw(st.integers(0, 9)) == 0 else draw(atom_lists())
            for _ in range(draw(st.integers(1, 5)))]


def _batch_built(build, pairs):
    try:
        return [_current_bits(current) for current in build(pairs)]
    except Exception as exc:
        return type(exc), str(exc)


class TestBatchBuilder:
    """build_currents against the per-atom build_current of tests/oracles.py, current by current."""

    @given(pairs=current_batches())
    @settings(max_examples=300, deadline=None)
    def test_same_currents_or_the_first_error(self, pairs):
        import oracles

        def one_by_one(pairs):
            return [oracles.build_current(lam, atoms) for lam, atoms in pairs]

        def batch(pairs):
            currents, table = build_currents(pairs)
            # one row per atom, current by current, each with its eigenvalue
            counts = [len(atoms) for _, atoms in pairs]
            assert table.current.tolist() == [n for n, count in enumerate(counts) for _ in range(count)]
            assert table.lam.tolist() == [lam.value for lam, atoms in pairs for _ in atoms]
            return currents

        assert _batch_built(batch, pairs) == _batch_built(one_by_one, pairs)
