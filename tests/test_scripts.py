"""The scripts under scripts/, run once each as a user runs them."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import apfp

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *argv):
    src = os.path.dirname(os.path.dirname(apfp.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv], env=env, capture_output=True, text=True, check=True
    )
    return list(csv.DictReader(io.StringIO(out.stdout)))


def test_scripts_write_their_tables():
    # m = 4 and 5 answer in closed form: no search runs
    plateau = run_script("distance_plateau.py", "--ms", "4", "5")
    assert [(r["m"], float(r["distance"])) for r in plateau] == [("4", 1.0), ("5", 1.0)] * 2
    curve = run_script("residual_curve.py", "--ms", "4", "5", "--instances", "1")
    assert [r["m"] for r in curve] == ["4", "5"]
    assert all(float(r["relative_residual"]) <= 1e-6 for r in curve)
