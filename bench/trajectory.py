"""Record one point of the benchmark trajectory.

    python3 bench/trajectory.py --out bench/BENCH_<n>.json

Runs ``bench/run.py`` once per workload and seed (seeds 1-10) with
tracing off, then once per workload with tracing on (seed 1), and
writes every result line together with the environment.  For each
end-to-end metric it also stores the median over seeds and the spread:
the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, which
is what the bounds in ``BENCHMARK.json`` are compared against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS

SEEDS = range(1, 11)


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs = {}
        for seed in SEEDS:
            result, lines = bench(workload, seed, seconds, 0)
            out.setdefault("env", json.loads(next(l for l in lines if l.startswith("env "))[4:]))
            runs[seed] = result
            print(workload, seed, json.dumps(result), flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs.values()]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": bound}
            print(f"{workload} {name} median {med:.6g} spread {(q3 - q1) / med:.4f} bound {bound}", flush=True)
        traced, _ = bench(workload, SEEDS[0], seconds, 1)
        out["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs.values()) and traced["correct"],
            "summary": summary,
            "runs": runs,
            "trace": traced,
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
