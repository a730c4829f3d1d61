"""paulipath benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from the
checkout's `src/`, nothing is installed.  One run sets the workload up,
times ops in a closed loop for S seconds, checks every output and prints
each metric by name with its unit.  The last line of standard output is
the result object `{"correct", "attempted", "failed", "metrics"}`.

`--trace 0` reports the end-to-end metrics listed in BENCHMARK.json.
`--trace 1` wraps the program's public callables (see spans.py) around
every second op, reports the per-layer metrics from those ops, and writes
the spans to `.perfbench_out/`.  `--workload all` runs every workload in
its own process, one after the other.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
checkout has no paulipath sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

# One thread for BLAS and LAPACK, set before numpy loads: every workload is
# one single-threaded caller, and on a small machine a second thread inside
# eigvalsh would measure the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def units(trace: bool) -> dict[str, str]:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in config["per_layer" if trace else "end_to_end"]}


def run_one(args) -> int:
    spec = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        result = workloads.run(
            spec, args.seed, args.seconds, bool(args.trace), workdir, spans_file
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wanted = units(bool(args.trace))
    if set(result["metrics"]) != set(wanted):
        print(f"error: metrics {sorted(result['metrics'])} != BENCHMARK.json {sorted(wanted)}",
              file=sys.stderr)
        return 2
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit} for name, unit in wanted.items()
    }
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    failed = []
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        code = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        ).returncode
        if code != 0:
            failed.append(f"{name} (exit {code})")
    print("failed: " + ", ".join(failed) if failed else "all workloads passed their checks")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "paulipath" / "__init__.py").is_file():
        print(f"error: no paulipath sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
