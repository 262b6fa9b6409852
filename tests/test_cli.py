import csv
import io
import json
import math
import re
import sys

import pytest

from lelonglab import (
    Eigenvalue,
    FourierSpec,
    TransversalAtom,
    build_current,
    current_to_json,
    mass_quadrature_schedule,
    normalize,
)
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

    def test_missing_field_named_in_error(self, write_current, capsys):
        path = write_current({"atoms": FLAGSHIP_JSON["atoms"]})
        assert main(["mass", "--input", path]) == 2
        assert "lambda" in capsys.readouterr().err

    def test_k0_reaches_the_exact_route(self, write_current, capsys):
        path = write_current(current_to_json(B3_CURRENT))
        assert main(["mass", "--input", path, "--r", "1.0", "--k0", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["discrepancy"] <= payload["quadrature"]["error_estimate"]

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


class TestLeafplot:
    def test_writes_both_svgs(self, write_current, tmp_path, capsys):
        path = write_current(FLAGSHIP_JSON)
        code = main([
            "leafplot", "--input", path, "--out", str(tmp_path),
            "--r", "0.5", "--loops", "2",
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
