"""Regenerate the golden CLI outputs under tests/data/.

tests/test_cli.py (TestGoldenOutputs) compares the CLI's output with these
files byte for byte: the verify report at seed 42, the lelong schedule of
each of the corpus's two Poisson currents, and the sweep CSV with its
default schedule. Regenerate them only for a change that is meant to move
the numbers, and say so with the change:

    PYTHONPATH=src python scripts/make_golden.py [out_dir]
"""

import contextlib
import io
import json
import os
import sys
import tempfile

from lelonglab import current_to_json
from lelonglab.cli import main as cli_main
from lelonglab.theorems import corpus

POISSON_CASES = ("pos-silver-poisson-flat", "div-half-poisson-linear")


def main(out_root: str = os.path.join("tests", "data")) -> int:
    os.makedirs(out_root, exist_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = cli_main(["verify", "--seed", "42", "--out", os.path.join(out_root, "verify-seed42.json")])
    if status != 0:
        print("verify failed", file=sys.stderr)
        return status
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli_main(["sweep", "--out", os.path.join(out_root, "sweep.csv")])
    if status != 0:
        print("sweep failed", file=sys.stderr)
        return status
    currents = {case.case_id: case.current for case in corpus(42)}
    for case_id in POISSON_CASES:
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False, encoding="utf-8") as fh:
            fh.write(json.dumps(current_to_json(currents[case_id])))
            path = fh.name
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                status = cli_main(["lelong", "--input", path])
        finally:
            os.unlink(path)
        if status != 0:
            print(f"lelong failed for {case_id}", file=sys.stderr)
            return status
        with open(os.path.join(out_root, f"lelong-{case_id}.json"), "w", encoding="utf-8") as fh:
            fh.write(out.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
