#!/bin/sh
# Compare this checkout's JSON reports with those of another checkout.
#
#   sh scripts/compare_reports.sh BASE_DIR
#
# BASE_DIR is a second checkout of fockmod, for example the base commit
# of a pull request.  Both trees run `fockmod all --seed N` for N = 1, 2, 3,
# `fockmod all --seed 1 --truncation 1` and `--truncation 4` (the shallowest
# and the deepest random cases of adjointness, covariance and
# norm_recovery, the only checks that read the truncation; every other
# check sweeps the whole Fock space at any truncation), `fockmod
# verify-car` (the only run of the built-in
# CAR batteries at their default seed 7) and `fockmod model --config NAME`
# for each bundled scenario, all with `--format json`.  No bundled config
# uses the quasifree state, the only one under which a sweep takes the
# whole basis, so each tree also runs a copy of each of its bundled
# configs with `"state": "quasifree"`, written under the script's
# temporary directory.  The script prints
# one line per report, followed by the first 40 lines of `diff -u` for a
# report that differs byte for byte.  No CLI run reaches a twist that is
# not diagonal, a grid beyond 1D or a second spinor component, so both
# trees also run two of the benchmark's workloads: `dense_twist` (a
# rotated, non-diagonal twist) for seeds 1 to 5 and `grid_scale` (2D x
# 16^2 with two components and 3D x 8^3) for seeds 1, 2 and 3.  The
# script compares each run's
# digest (the `digest` field that `python bench/sample.py WORKLOAD N`
# prints).  When a digest differs it prints each side's checks, one line
# per check: name, status, the `repr` of every residual and the witness.
# The checks are caught by wrapping `models.check_*` around the run, as
# `bench/tracing.py` does.  After each difference a summary line says
# whether every check's status and witness are identical, and gives the
# largest relative change of any residual, |a - b| / max(|a|, |b|), with
# its check and both values: a round-off move keeps statuses and
# witnesses, and moves a residual by about 1e-16 of itself, or one that
# measures a zero (itself about 1e-16) by any fraction.  Before that line
# it lists every residual that moved, one line each in report order:
# `run/check key: before -> after` (a digest's lines name the check
# alone).  Every run of BASE_DIR has PYTHONHASHSEED=0 and every run of
# this checkout PYTHONHASHSEED=1, so the script also checks that no
# report or digest depends on the hash seed; `sh scripts/compare_reports.sh .`
# checks that alone.  The script reads bench/ and writes nothing there.
# It exits 1 if any report or digest differs.  Set PYTHON to pick the
# interpreter.
set -eu
[ $# -eq 1 ] || { echo "usage: $0 BASE_DIR" >&2; exit 2; }
base=$(cd "$1" && pwd)
head=$(cd "$(dirname "$0")/.." && pwd)
# the hash seed of each side's runs
hash_base=0
hash_head=1
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# the summary line for two differing outputs: JSON reports, or samples
# (a digest line, then one line per check as `sample` prints them)
summarize() {
    "${PYTHON:-python}" - "$1" "$2" <<'PY'
import json
import sys


def checks(path):
    text = open(path).read()
    if text.startswith("{"):
        report = json.loads(text)
        return [
            (f"{r['name']}/{c['name']}", c["status"], json.dumps(c["witness"], sort_keys=True),
             {k: float(v) for k, v in c["residuals"].items()})
            for r in report["runs"] for c in r["checks"]
        ]
    out = []
    for line in text.splitlines()[1:]:
        name, status, *fields = line.split(" ")
        pairs = dict(f.split("=", 1) for f in fields)
        witness = pairs.pop("witness")
        out.append((name, status, witness, {k: float(v) for k, v in pairs.items()}))
    return out


base, head = checks(sys.argv[1]), checks(sys.argv[2])
same = [(n, s, w) for n, s, w, _ in base] == [(n, s, w) for n, s, w, _ in head]
worst, where = 0.0, "none"
for (name, _, _, a), (_, _, _, b) in zip(base, head):
    for key in [*a, *(k for k in b if k not in a)]:
        if a.get(key) != b.get(key):
            print(f"           {name} {key}: {a.get(key, 'absent')!r} -> {b.get(key, 'absent')!r}")
    for key in a.keys() & b.keys():
        scale = max(abs(a[key]), abs(b[key]))
        change = abs(a[key] - b[key]) / scale if scale else 0.0
        if change > worst:
            worst, where = change, f"{name} {key}: {a[key]!r} -> {b[key]!r}"
verdict = "identical" if same else "NOT identical"
print(f"           statuses and witnesses {verdict}; largest relative residual change {worst:.3g} ({where})")
PY
}

status=0
# prints the verdict on $out/base.json and $out/head.json for the run $1
compare() {
    if cmp -s "$out/base.json" "$out/head.json"; then
        echo "identical  $1"
    else
        echo "DIFFERENT  $1"
        diff -u "$out/base.json" "$out/head.json" | head -n 40
        summarize "$out/base.json" "$out/head.json"
        status=1
    fi
}
for args in \
    "all --seed 1" "all --seed 2" "all --seed 3" \
    "all --seed 1 --truncation 1" "all --seed 1 --truncation 4" "verify-car" \
    "model --config bump_freeness" "model --config car_suite" \
    "model --config delta_locality" "model --config lebesgue_gauge" \
    "model --config poisson_nonlocal"; do
    for side in base head; do
        eval tree=\$$side hs=\$hash_$side
        # exit 1 only means a check failed; the report is still written
        PYTHONHASHSEED=$hs PYTHONPATH="$tree/src" "${PYTHON:-python}" -m fockmod.cli $args --format json \
            > "$out/$side.json" || [ $? -eq 1 ]
    done
    compare "$args"
done
for name in bump_freeness car_suite delta_locality lebesgue_gauge poisson_nonlocal; do
    for side in base head; do
        eval tree=\$$side hs=\$hash_$side
        "${PYTHON:-python}" - "$tree/src/fockmod/configs/$name.json" "$out/$side-$name.json" <<'PY'
import json
import sys

with open(sys.argv[1]) as fh:
    config = json.load(fh)
config["state"] = "quasifree"
with open(sys.argv[2], "w") as fh:
    json.dump(config, fh)
PY
        PYTHONHASHSEED=$hs PYTHONPATH="$tree/src" "${PYTHON:-python}" -m fockmod.cli model --config "$out/$side-$name.json" \
            --format json > "$out/$side.json" || [ $? -eq 1 ]
    done
    compare "model --config $name, quasifree"
done
# one run of workload $3 in tree $1 under hash seed $2 for seed $4: the
# digest on the first line, then one line per check; no byte-code lands
# in bench/
sample() {
    PYTHONHASHSEED=$2 PYTHONDONTWRITEBYTECODE=1 PYTHONPATH="$1/src:$1/bench" "${PYTHON:-python}" - "$3" "$4" <<'PY'
import json
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
    residuals = "".join(f" {k}={float(x)!r}" for k, x in sorted(r.residuals.items()))
    witness = json.dumps(r.witness, sort_keys=True, separators=(",", ":"), default=repr)
    print(f"{r.name} {r.status}{residuals} witness={witness}")
PY
}
for run in "dense_twist 1 2 3 4 5" "grid_scale 1 2 3"; do
    set -- $run
    workload=$1
    shift
    for seed in "$@"; do
        sample "$base" $hash_base $workload $seed > "$out/base.txt"
        sample "$head" $hash_head $workload $seed > "$out/head.txt"
        if [ "$(head -n 1 "$out/base.txt")" = "$(head -n 1 "$out/head.txt")" ]; then
            echo "identical  $workload digest, seed $seed"
        else
            echo "DIFFERENT  $workload digest, seed $seed"
            sed 's/^/-/' "$out/base.txt"
            sed 's/^/+/' "$out/head.txt"
            summarize "$out/base.txt" "$out/head.txt"
            status=1
        fi
    done
done
exit $status
