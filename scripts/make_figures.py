"""Regenerate the showcase SVGs under figures/.

Drives the ``lelonglab leafplot`` command on three fixtures:

* a rational eigenvalue (closed leaf: the torus curve is a finite link),
* an irrational one (dense winding: many parallel strands),
* a negative one (the Lelong schedule collapses to zero).

Each fixture gets a torus.svg / schedule.svg pair in its own directory.
"""

import json
import os
import sys
import tempfile

from lelonglab.cli import main as cli_main

FIXTURES = {
    "rational-half": {
        "lambda": {"value": 0.5, "class": "rational", "a": 1, "b": 2},
        "atoms": [
            {
                "alpha": [0.5, 0.0],
                "weight": 1.0,
                "spec": {"type": "fourier", "b": 2, "a0": 1.0, "b0": 0.0, "modes": []},
            }
        ],
    },
    "irrational-silver": {
        "lambda": {"value": 0.41421356237309515, "class": "irrational"},
        "atoms": [
            {
                "alpha": [0.5, 0.0],
                "weight": 1.0,
                "spec": {"type": "fourier", "b": 1, "a0": 1.0, "b0": 0.0, "modes": []},
            }
        ],
    },
    "negative-unit": {
        "lambda": {"value": -1.0, "class": "negative"},
        "atoms": [
            {
                "alpha": [0.36787944117144233, 0.0],
                "weight": 1.0,
                "spec": {
                    "type": "fourier",
                    "b": 1,
                    "a0": 1.0,
                    "b0": 0.0,
                    "modes": [],
                    "strip_c": 1.0,
                },
            }
        ],
    },
}

LOOPS = {"rational-half": 2, "irrational-silver": 20, "negative-unit": 3}


def main(out_root: str = "figures") -> int:
    for name, payload in FIXTURES.items():
        out_dir = os.path.join(out_root, name)
        os.makedirs(out_dir, exist_ok=True)
        with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False, encoding="utf-8"
        ) as fh:
            json.dump(payload, fh)
            spec_path = fh.name
        try:
            status = cli_main([
                "leafplot",
                "--input", spec_path,
                "--out", out_dir,
                "--loops", str(LOOPS[name]),
            ])
        finally:
            os.unlink(spec_path)
        if status != 0:
            print(f"leafplot failed for {name}", file=sys.stderr)
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
