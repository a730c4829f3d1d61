"""The experiment drivers under scripts/ and the CLI's scaling sweep, each
run at a tiny size in a process of its own."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_python(*args: str) -> str:
    """Run the interpreter with the package source on its path; exit 0, its
    standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _run_script(name: str, *args: str) -> list[list[str]]:
    """Run one script; its output lines split into fields."""
    out = _run_python(str(ROOT / "scripts" / name), *args)
    return [line.split() for line in out.splitlines()]


def test_path_census_counts_every_path():
    rows = _run_script("path_census_experiment.py", "--depths", "4", "6")
    # depth, paths, 2^(L-1), nodes, weights
    assert [(int(r[0]), int(r[1])) for r in rows[1:]] == [(4, 8), (6, 32)]
    assert all(r[1] == r[2] for r in rows[1:])


def test_scaling_sweep_keeps_the_full_census_on_the_inv_linear_arm():
    out = _run_python(
        "-m", "paulipath.cli", "--mode", "scaling-sweep",
        "--sweep-qubits", "2", "--depths", "4,6", "--target-mse", "0.25",
    )
    rows = json.loads(out)["rows"]
    census = {r["depth"]: r["paths_emitted"] for r in rows if r["arm"] == "inv-linear"}
    assert census == {4: 8, 6: 32}


def test_truncation_mse_rows_pass_their_bound():
    rows = _run_script(
        "truncation_mse_experiment.py", "--depth", "3", "--samples", "8", "--noise", "0.3"
    )
    # lam, m, empirical, bound, passed; one row per m from depth to n(L+1)
    table = [r for r in rows if r and r[0] == "0.30"]
    assert [int(r[1]) for r in table] == [3, 5, 7]
    assert all(r[4] == "True" for r in table)
