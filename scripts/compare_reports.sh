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
# so it also compares the `digest` field that
# `python bench/sample.py dense_twist N` prints for N = 1, 2 (the
# residuals of the benchmark's rotated-twist workload); it reads bench/
# and writes nothing there.  It exits 1 if any report or digest differs.
# Set PYTHON to pick the interpreter.
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
# the digest of one dense_twist sample; no byte-code lands in bench/
digest() {
    PYTHONDONTWRITEBYTECODE=1 PYTHONPATH="$1/src" "${PYTHON:-python}" "$1/bench/sample.py" dense_twist "$2" |
        "${PYTHON:-python}" -c 'import json, sys; print(json.load(sys.stdin)["digest"])'
}
for seed in 1 2; do
    old=$(digest "$base" $seed)
    new=$(digest "$head" $seed)
    if [ "$old" = "$new" ]; then
        echo "identical  dense_twist digest, seed $seed"
    else
        echo "DIFFERENT  dense_twist digest, seed $seed"
        echo "-$old"
        echo "+$new"
        status=1
    fi
done
exit $status
