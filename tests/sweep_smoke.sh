#!/bin/bash
# End-to-end smoke test for the tcsim_sweep and tcsim_regress binaries,
# driven by ctest:
#
#  1. cold single-process run (populates the artifact cache),
#  2. warm rerun — must be byte-identical with every cache lookup a
#     hit (hits change wall-clock only, never results),
#  3. tcsim_regress self-compare is clean (exit 0), and a current run
#     with one unit's IPC cut by 10% is flagged (exit 5); both
#     reports validate as tcsim-regression-v1.
#
# Kill, recovery and the scheduled byte-identical merge are covered
# by sched_smoke.sh.
#
# Usage: sweep_smoke.sh <cmake-build-dir>
set -eu

bin="$1/tools/tcsim_sweep"
regress="$1/tools/tcsim_regress"
validate="$(cd "$(dirname "$0")/.." && pwd)/tools/validate_obs.py"
for b in "$bin" "$regress"; do
    [ -x "$b" ] || { echo "missing binary: $b" >&2; exit 1; }
done
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

margs=(--benchmarks compress,li --configs baseline,promotion-t64
       --insts 20000 --warmup 5000 --cache-dir "$scratch/cache")

echo "== cold single-process reference =="
"$bin" "${margs[@]}" --out "$scratch/single.json"

echo "== warm rerun: byte-identical, all hits =="
"$bin" "${margs[@]}" --out "$scratch/warm.json" \
       --timing-out "$scratch/timing.json"
cmp "$scratch/single.json" "$scratch/warm.json"
python3 - "$scratch/timing.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "tcsim-bench-timing-v1", doc["schema"]
cache = doc["cache"]
assert cache["enabled"], cache
assert cache["hits"] > 0 and cache["misses"] == 0, cache
EOF

echo "== regress self-compare is clean =="
"$regress" --baseline "$scratch/single.json" \
           --current "$scratch/single.json" \
           --out "$scratch/regress-clean.json"
python3 "$validate" --regression "$scratch/regress-clean.json"

echo "== regress flags an injected IPC loss with exit 5 =="
python3 - "$scratch/single.json" "$scratch/perturbed.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc["results"][0]["ipc"] *= 0.9
json.dump(doc, open(sys.argv[2], "w"))
EOF
rc=0
"$regress" --baseline "$scratch/single.json" \
           --current "$scratch/perturbed.json" \
           --out "$scratch/regress-bad.json" || rc=$?
[ "$rc" -eq 5 ] || { echo "expected regress exit 5, got $rc" >&2; exit 1; }
python3 "$validate" --regression "$scratch/regress-bad.json"
python3 - "$scratch/regress-bad.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["regressed"] is True, doc
bad = [u for u in doc["units"] if u["regressed"]]
assert len(bad) == 1, bad
assert any(m["name"] == "ipc" and m["regressed"] for m in bad[0]["metrics"])
EOF

echo "sweep smoke OK"
