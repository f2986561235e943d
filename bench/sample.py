"""One benchmark sample in a fresh interpreter.

    python3 bench/sample.py WORKLOAD SEED [--trace | --setup]

Needs fockmod importable (``bench/run.py`` puts ``src`` on PYTHONPATH).
Set-up time runs from before fockmod is imported until the workload's
inputs exist; wall time covers the workload run alone.  Peak resident
memory is the high-water mark of this process, so it belongs to one
workload run.  With ``--trace`` the run goes through a ``Tracer`` and
the record carries its metrics and spans; with ``--setup`` the process
stops after set-up and the record holds ``setup_s`` alone.  Prints one
JSON record.
"""

import json
import resource
import sys
import time

T0 = time.perf_counter()


def main(argv: list[str]) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2:]
    import workloads  # imports fockmod and numpy: part of set-up time

    make_inputs, run = workloads.WORKLOADS[name]
    inputs = make_inputs(seed)
    t1 = time.perf_counter()
    if mode == ["--setup"]:
        print(json.dumps({"setup_s": t1 - T0}))
        return 0
    traced = mode == ["--trace"]
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer(run_id=seed)
        tracer.install()
        run = tracer.wrap(tracing.ROOT, run, span=True)
    try:
        out = run(inputs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    t2 = time.perf_counter()
    record = {
        "setup_s": t1 - T0,
        "wall_s": t2 - t1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": out.attempted,
        "failed": out.failed,
        "failures": [name for name, status in out.statuses if status != "pass"],
        "digest": out.digest,
    }
    if tracer is not None:
        record["trace"] = tracer.metrics()
        record["spans"] = tracer.spans
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
