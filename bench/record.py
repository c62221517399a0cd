"""Run the benchmark over several seeds and record the results.

    python3 bench/record.py --seeds 1-10 --out bench/results/NAME.json
    python3 bench/record.py --seeds 1 --trace 1 --out bench/results/NAME-trace.json

Each run is a separate process (``bench/run.py``), one workload at a time,
for every workload in BENCHMARK.json unless ``--workload`` names some.
The output keeps every run's result and details line and, per workload and
metric, the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (interquartile range / median).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    out = {"median": median, "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="one seed or a range such as 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    record = {"trace": args.trace, "run_seconds": bench["run_seconds"], "workloads": {}}
    for name in names:
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
            runs.append({"seed": seed, "result": result, "details": details})
            print(name, seed, json.dumps({k: round(v["value"], 6) for k, v in
                                          result["metrics"].items()}), flush=True)
        metrics = {
            metric: summarize([r["result"]["metrics"][metric]["value"] for r in runs])
            for metric in runs[0]["result"]["metrics"]
        }
        record["workloads"][name] = {"summary": metrics, "runs": runs}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, entry in record["workloads"].items():
        units = entry["runs"][0]["result"]["metrics"]
        for metric, s in entry["summary"].items():
            spread = s.get("spread")
            print(f"{name:15s} {metric:45s} median {s['median']:.6g} {units[metric]['unit']}"
                  + (f"  spread {spread:.3f}" if spread is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
