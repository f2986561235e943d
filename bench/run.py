"""Benchmark runner for fockmod.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  A closed loop with one client:
each sample is a fresh interpreter (``bench/sample.py``) that imports
fockmod from ``src``, builds the workload's inputs from the seed and
runs it once; the next sample starts when the previous one has exited.
A set-up-only warm-up sample, not recorded, comes first.  Samples
repeat until the next one would end past ``--seconds`` (at least three
untraced samples).  Each untraced sample is followed by
set-up-only samples, so that ``setup_s`` is a median over many
set-ups.  BLAS and OpenMP threads are capped at the number of usable
CPUs, OpenBLAS workers sleep instead of spinning when idle, and both
settings are recorded.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(medians over samples); with ``--trace 1`` each traced sample is paired
with an untraced one and the line carries the per-layer metrics
(medians over pairs), including the tracing overhead as the ratio of
traced to untraced wall time.  Metric names and units come from
``BENCHMARK.json``.  Every sample's check statuses are counted; a check
whose status is not ``pass``, a sample that crashes or a report that
changes between samples of one seed makes the run incorrect.  Full
trace records go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORKLOADS = ("battery", "grid_scale", "dense_twist")
MIN_SAMPLES = 3
# set-up-only samples after each untraced sample
SETUPS_PER_SAMPLE = 2
# every run, traced ones included, must end well inside three minutes
TIME_CAP_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# OpenBLAS worker threads spin for 2**n cycles before they sleep (default
# n = 28).  The spin right after start-up slowed `import numpy` from 0.10
# to 0.17 s in some periods and not in others; n = 4, the smallest value,
# lets the workers sleep at once.
OPENBLAS_THREAD_TIMEOUT = 4


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 over the library sources, naming the code even without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "fockmod").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(cap: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "blas_threads": cap,
        "openblas_thread_timeout": OPENBLAS_THREAD_TIMEOUT,
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }


class Sampler:
    """Runs samples of one workload and seed in fresh interpreters."""

    def __init__(self, workload: str, seed: int, cap: int, seconds: float) -> None:
        self.seconds = seconds
        self.argv = [sys.executable, str(HERE / "sample.py"), workload, str(seed)]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env["PYTHONHASHSEED"] = "0"
        for var in THREAD_VARS:
            self.env[var] = str(cap)
        self.env["OPENBLAS_THREAD_TIMEOUT"] = str(OPENBLAS_THREAD_TIMEOUT)
        self.start = time.perf_counter()
        self.errors: list[str] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def sample(self, mode: str | None = None) -> dict | None:
        """One sample; mode is None, '--trace' or '--setup'."""
        timeout = max(TIME_CAP_S + 20.0 - self.elapsed(), 1.0)
        try:
            proc = subprocess.run(
                self.argv + ([mode] if mode else []),
                env=self.env,
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.errors.append(f"sample exceeded {timeout:.0f} s")
            return None
        if proc.returncode != 0:
            self.errors.append(proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else f"exit {proc.returncode}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def more(self, done: int, minimum: int) -> bool:
        """Whether another sample fits: predicted end within the budget."""
        if done == 0:
            return True
        per = self.elapsed() / done
        if self.elapsed() + per > TIME_CAP_S:
            return False
        return done < minimum or self.elapsed() + per <= self.seconds


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "fockmod" / "__init__.py").is_file():
        print(f"bench: no fockmod sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cap = len(os.sched_getaffinity(0))
    env = environment(cap)
    sampler = Sampler(args.workload, args.seed, cap, args.seconds)
    # warm-up, not recorded: compiles bytecode and fills the file cache
    # before the first timed sample
    sampler.sample("--setup")
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[dict] = []
    attempted = failed = 0
    while sampler.more(len(plain) if not args.trace else len(traced), 1 if args.trace else MIN_SAMPLES):
        for is_traced in ((False, True) if args.trace else (False,)):
            rec = sampler.sample("--trace" if is_traced else None)
            if rec is None:
                attempted += 1
                failed += 1
                continue
            attempted += rec["attempted"]
            failed += rec["failed"]
            sampler.errors.extend(f"check {name} did not pass" for name in rec["failures"])
            (traced if is_traced else plain).append(rec)
        for _ in range(0 if args.trace else SETUPS_PER_SAMPLE):
            rec = sampler.sample("--setup")
            if rec is not None:
                setups.append(rec)
        if sampler.errors:
            break
    records = plain + traced
    digests = sorted({r["digest"] for r in records})
    correct = failed == 0 and not sampler.errors and len(digests) == 1
    print(f"workload {args.workload}  seed {args.seed}  samples {len(plain)} untraced, {len(traced)} traced")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"report_sha256 {' '.join(digests)}")
    print(f"checks_failed {failed} of {attempted} attempted (count)")
    for err in sampler.errors:
        print(f"error {err}")
    metrics = {}
    if not args.trace:
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in plain + setups if m["name"] in r]
            if not values:
                continue
            q1, med, q3 = spread(values)
            metrics[m["name"]] = {"value": med, "unit": m["unit"]}
            print(f"{m['name']} {med:.6g} {m['unit']}  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    elif correct:
        # every sample succeeded, so plain and traced pair up one to one
        for rec_plain, rec_traced in zip(plain, traced):
            rec_traced["trace"]["trace.overhead_s"] = rec_traced["wall_s"] - rec_plain["wall_s"]
            rec_traced["trace"]["trace.overhead_ratio"] = rec_traced["wall_s"] / rec_plain["wall_s"]
        medians = {k: statistics.median(r["trace"][k] for r in traced) for k in traced[0]["trace"]}
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": medians.pop(m["name"]), "unit": m["unit"]}
        # measured but not in BENCHMARK.json: cli.*, per-check totals, ...
        for name in sorted(k for k, v in medians.items() if v):
            print(f"detail {name} {medians[name]:.6g}")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps({"env": env, "workload": args.workload, "seed": args.seed, "samples": traced}, indent=1))
        print(f"trace record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
