#!/bin/sh
# Compare this checkout's JSON reports with those of another checkout.
#
#   sh scripts/compare_reports.sh BASE_DIR
#
# BASE_DIR is a second checkout of fockmod, for example the base commit
# of a pull request.  Both trees run `fockmod all --seed N` for N = 1, 2, 3,
# `fockmod all --seed 1 --truncation 2` (the smallest window in which every
# check runs), `fockmod all --seed 1 --truncation 4` (the only run that
# reaches Fock level 4), `fockmod verify-car` (the only run of the built-in
# CAR batteries at their default seed 7) and `fockmod model --config NAME`
# for each bundled scenario, all with `--format json`; the script prints
# one line per report, followed by the first 40 lines of `diff -u` for a
# report that differs byte for byte.  No CLI run reaches a twist that is
# not diagonal, a grid beyond 1D or a second spinor component, so both
# trees also run two of the benchmark's workloads for seeds 1, 2 and 3:
# `dense_twist` (a rotated, non-diagonal twist) and `grid_scale` (2D x
# 16^2 with two components and 3D x 8^3).  The script compares each run's
# digest (the `digest` field that `python bench/sample.py WORKLOAD N`
# prints).  When a digest differs it prints each side's checks, one line
# per check: name, status and the `repr` of every residual.  The checks
# are caught by wrapping `models.check_*` around the run, as
# `bench/tracing.py` does.  The script reads bench/ and writes nothing
# there.  It exits 1 if any report or digest differs.  Set PYTHON to pick
# the interpreter.
set -eu
[ $# -eq 1 ] || { echo "usage: $0 BASE_DIR" >&2; exit 2; }
base=$(cd "$1" && pwd)
head=$(cd "$(dirname "$0")/.." && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

status=0
for args in \
    "all --seed 1" "all --seed 2" "all --seed 3" \
    "all --seed 1 --truncation 2" "all --seed 1 --truncation 4" "verify-car" \
    "model --config bump_freeness" "model --config car_suite" \
    "model --config delta_locality" "model --config lebesgue_gauge" \
    "model --config poisson_nonlocal"; do
    for side in base head; do
        eval tree=\$$side
        # exit 1 only means a check failed; the report is still written
        PYTHONPATH="$tree/src" "${PYTHON:-python}" -m fockmod.cli $args --format json \
            > "$out/$side.json" || [ $? -eq 1 ]
    done
    if cmp -s "$out/base.json" "$out/head.json"; then
        echo "identical  $args"
    else
        echo "DIFFERENT  $args"
        diff -u "$out/base.json" "$out/head.json" | head -n 40
        status=1
    fi
done
# one run of workload $2 in tree $1 for seed $3: the digest on the first
# line, then one line per check; no byte-code lands in bench/
sample() {
    PYTHONDONTWRITEBYTECODE=1 PYTHONPATH="$1/src:$1/bench" "${PYTHON:-python}" - "$2" "$3" <<'PY'
import sys

import workloads
from fockmod import models

results = []


def wrap(fn):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        results.append(result)
        return result

    return wrapper


for name in [n for n in vars(models) if n.startswith("check_")]:
    setattr(models, name, wrap(getattr(models, name)))
make_inputs, run = workloads.WORKLOADS[sys.argv[1]]
out = run(make_inputs(int(sys.argv[2])))
print(out.digest)
for r in results:
    residuals = " ".join(f"{k}={float(x)!r}" for k, x in sorted(r.residuals.items()))
    print(f"{r.name} {r.status} {residuals}")
PY
}
for workload in dense_twist grid_scale; do
    for seed in 1 2 3; do
        sample "$base" $workload $seed > "$out/base.txt"
        sample "$head" $workload $seed > "$out/head.txt"
        if [ "$(head -n 1 "$out/base.txt")" = "$(head -n 1 "$out/head.txt")" ]; then
            echo "identical  $workload digest, seed $seed"
        else
            echo "DIFFERENT  $workload digest, seed $seed"
            sed 's/^/-/' "$out/base.txt"
            sed 's/^/+/' "$out/head.txt"
            status=1
        fi
    done
done
exit $status
