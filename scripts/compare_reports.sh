#!/bin/sh
# Compare this checkout's JSON reports with those of another checkout.
#
#   sh scripts/compare_reports.sh BASE_DIR
#
# BASE_DIR is a second checkout of fockmod, for example the base commit
# of a pull request.  Both trees run `fockmod all --seed N` for N = 1, 2, 3,
# `fockmod all --seed 1 --truncation 2` (the smallest window in which every
# check runs), `fockmod all --seed 1 --truncation 4` (the only run that
# reaches Fock level 4) and `fockmod model --config NAME` for each bundled
# scenario, all with `--format json`; the script prints one line per
# report, followed by the first 40 lines of `diff -u` for a report that
# differs byte for byte.  No CLI run reaches a twist that is not diagonal,
# so both trees also run the benchmark's rotated-twist workload,
# `workloads.dense_twist_run`, for seeds 1, 2 and 3, and the script
# compares its digest (the `digest` field that
# `python bench/sample.py dense_twist N` prints).  When a digest differs
# it prints each side's checks, one line per check: name, status and the
# `repr` of every residual.  The checks are caught by wrapping
# `models.check_*` around the run, as `bench/tracing.py` does.  The
# script reads bench/ and writes nothing there.  It exits 1 if any
# report or digest differs.  Set PYTHON to pick the interpreter.
set -eu
[ $# -eq 1 ] || { echo "usage: $0 BASE_DIR" >&2; exit 2; }
base=$(cd "$1" && pwd)
head=$(cd "$(dirname "$0")/.." && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

status=0
for args in \
    "all --seed 1" "all --seed 2" "all --seed 3" \
    "all --seed 1 --truncation 2" "all --seed 1 --truncation 4" \
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
# one dense_twist run in tree $1 for seed $2: the digest on the first
# line, then one line per check; no byte-code lands in bench/
dense_twist() {
    PYTHONDONTWRITEBYTECODE=1 PYTHONPATH="$1/src:$1/bench" "${PYTHON:-python}" - "$2" <<'PY'
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
out = workloads.dense_twist_run(workloads.dense_twist_inputs(int(sys.argv[1])))
print(out.digest)
for r in results:
    residuals = " ".join(f"{k}={float(x)!r}" for k, x in sorted(r.residuals.items()))
    print(f"{r.name} {r.status} {residuals}")
PY
}
for seed in 1 2 3; do
    dense_twist "$base" $seed > "$out/base.txt"
    dense_twist "$head" $seed > "$out/head.txt"
    if [ "$(head -n 1 "$out/base.txt")" = "$(head -n 1 "$out/head.txt")" ]; then
        echo "identical  dense_twist digest, seed $seed"
    else
        echo "DIFFERENT  dense_twist digest, seed $seed"
        sed 's/^/-/' "$out/base.txt"
        sed 's/^/+/' "$out/head.txt"
        status=1
    fi
done
exit $status
