#!/bin/sh
# Time this checkout against another one in alternated pairs of samples.
#
#   sh scripts/ab_pairs.sh BASE_DIR WORKLOAD SEED PAIRS
#
# BASE_DIR is a second checkout of fockmod, for example the base commit
# of a pull request.  Each pair runs `python bench/sample.py WORKLOAD SEED`
# once in BASE_DIR and once in this checkout, base first in odd pairs and
# head first in even ones, so a drift of the machine over the run falls on
# both sides.  Every sample gets the environment `bench/run.py` gives it:
# PYTHONHASHSEED=0, OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and
# MKL_NUM_THREADS capped at the CPUs this process may use (`nproc`),
# OPENBLAS_THREAD_TIMEOUT=4 and PYTHONPATH=<tree>/src.  Byte-code goes to
# one temporary cache per tree (PYTHONPYCACHEPREFIX), written by one
# unrecorded set-up sample per tree before the first pair, so `setup_s`
# does not include compiling the sources and nothing is written under
# either tree.  The script prints, for each side, the median and the
# quartiles of `wall_s`, `setup_s` and `peak_rss_mb`; for each metric the
# number of pairs in which the head read lower; and whether every digest
# of both sides is the same.  It reads bench/ and writes nothing there.
# It exits non-zero if the digests differ or a sample fails.  Set PYTHON to pick
# the interpreter.
set -eu
[ $# -eq 4 ] || { echo "usage: $0 BASE_DIR WORKLOAD SEED PAIRS" >&2; exit 2; }
base=$(cd "$1" && pwd)
head=$(cd "$(dirname "$0")/.." && pwd)
workload=$2
seed=$3
pairs=$4
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
cap=$(nproc)

# one sample of tree $2 (side $1), its JSON record appended to $out/$1
sample() {
    (
        cd "$2"
        unset PYTHONDONTWRITEBYTECODE
        PYTHONHASHSEED=0 OMP_NUM_THREADS=$cap OPENBLAS_NUM_THREADS=$cap MKL_NUM_THREADS=$cap \
            OPENBLAS_THREAD_TIMEOUT=4 PYTHONPATH="$2/src" PYTHONPYCACHEPREFIX="$out/pycache-$1" \
            "${PYTHON:-python}" bench/sample.py "$workload" "$seed" $3
    )
}

sample base "$base" --setup > /dev/null
sample head "$head" --setup > /dev/null
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
    for side in $order; do
        eval tree=\$$side
        sample "$side" "$tree" "" >> "$out/$side"
    done
    i=$((i + 1))
done

"${PYTHON:-python}" - "$out/base" "$out/head" "$workload" "$seed" <<'PY'
import json
import statistics
import sys

base, head = ([json.loads(line) for line in open(path)] for path in sys.argv[1:3])
print(f"workload {sys.argv[3]}  seed {sys.argv[4]}  pairs {len(base)}")
for metric in ("wall_s", "setup_s", "peak_rss_mb"):
    for side, records in (("base", base), ("head", head)):
        values = [r[metric] for r in records]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        median = statistics.median(values)
        print(f"  {metric:<12} {side}  median {median:.6g}  quartiles {q1:.6g} .. {q3:.6g}")
    won = sum(h[metric] < b[metric] for b, h in zip(base, head))
    print(f"  {metric:<12} head lower in {won} of {len(base)} pairs")
digests = {r["digest"] for r in base + head}
failed = sum(r["failed"] for r in base + head)
print(f"  digests {'match' if len(digests) == 1 else 'DIFFER'}; failed checks {failed}")
sys.exit(0 if len(digests) == 1 and not failed else 1)
PY
