"""Repeat benchmark runs over seeds and summarise every metric.

    python3 perfbench/sweep.py --workloads ansatz-loop,oracle-mse --seeds 1-10 \\
        [--trace 0|1] [--seconds S] [--baseline perfbench/baseline.json]

Runs `run.py` once per workload and seed, one run at a time.  For each
metric it prints the median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread (q3 - q1) / median,
flagging a spread above a third of the metric's bound in BENCHMARK.json.
With `--baseline`, the summary and a record of the machine go into that
file under "end_to_end" or "per_layer".  Exits 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def machine() -> dict:
    import numpy

    record = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
    try:
        with open("/proc/cpuinfo") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")]
        record["cpu"] = models[0] if models else platform.processor()
    except OSError:
        record["cpu"] = platform.processor()
    return record


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else None,
        "runs": values,
    }


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)
    section = "per_layer" if args.trace else "end_to_end"
    specs = {m["name"]: m for m in config[section]}
    summary: dict = {}
    failed = []
    for workload in args.workloads.split(","):
        runs: dict[str, list[float]] = {name: [] for name in specs}
        units = {}
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failed.append(f"{workload} seed {seed}: exit {proc.returncode}")
                sys.stderr.write(proc.stderr)
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                failed.append(f"{workload} seed {seed}: {result['failed']} failed")
            for name, metric in result["metrics"].items():
                runs[name].append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()), flush=True)
        if not all(len(v) >= 2 for v in runs.values()):
            continue
        summary[workload] = {}
        for name, values in runs.items():
            row = summarize(values)
            row["unit"] = units[name]
            summary[workload][name] = row
            bound = specs[name].get("bound")
            flag = ""
            if bound is not None and row["spread"] is not None and row["spread"] > bound / 3:
                flag = f"  SPREAD ABOVE {bound / 3:.3f}"
            spread = "n/a" if row["spread"] is None else f"{row['spread']:.4f}"
            print(f"  {workload:15s} {name:30s} median {row['median']:.6g} {units[name]}"
                  f"  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {spread}{flag}")
    if args.baseline is not None:
        baseline = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        baseline["machine"] = machine()
        baseline["run_seconds"] = args.seconds
        baseline[section] = {"seeds": args.seeds, "workloads": summary}
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")
    for line in failed:
        print("FAILED " + line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
