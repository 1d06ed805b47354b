#!/bin/bash
# End-to-end chaos smoke test for the sweep scheduler, driven by ctest:
#
#  1. single-process reference document,
#  2. store pre-seeded with garbage the resume scan must skip: a stale
#     fragment delivered by a farm over a DIFFERENT matrix, a corrupt
#     object, and a fragment truncated mid-record under a REAL unit
#     hash of this matrix,
#  3. /lease and /status answer 401 to a missing or a wrong bearer
#     token, and the 401 body names nothing of the matrix,
#  4. tcsim_sched + 3 pulled workers, one SIGKILLed mid-lease
#     (--die-mid-unit) and one injected straggler (--inject-slow-ms):
#     the schedule must recover both units (lease expiry / speculative
#     re-dispatch), with at least one re-dispatch observed,
#  5. the streamed-merge document must be byte-identical to the
#     single-process reference, and the status / partial
#     documents and every stored fragment of the matrix must validate,
#  6. a scheduler restart over the finished store resumes to done
#     without leasing anything — which also proves /complete healed
#     the truncated object (resume would re-dispatch it otherwise).
#
# Usage: sched_smoke.sh <cmake-build-dir>
set -eu

sweep="$1/tools/tcsim_sweep"
sched="$1/tools/tcsim_sched"
validate="$(cd "$(dirname "$0")/.." && pwd)/tools/validate_obs.py"
for bin in "$sweep" "$sched"; do
    [ -x "$bin" ] || { echo "missing binary: $bin" >&2; exit 1; }
done
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"; kill $(jobs -p) 2>/dev/null || true' EXIT

export TCSIM_FARM_TOKEN=sched-smoke-secret

matrix=(--benchmarks compress,li --configs baseline,promotion-t64
        --insts 20000 --warmup 5000)
margs=("${matrix[@]}" --cache-dir "$scratch/cache")

# start_sched <port-file> <tcsim_sched args...>: launch a scheduler in
# the background on an ephemeral port; sets sched_pid and url.
start_sched() {
    local port_file="$1"
    shift
    "$sched" "$@" --port 0 --port-file "$port_file" &
    sched_pid=$!
    for _ in $(seq 100); do
        [ -s "$port_file" ] && break
        kill -0 "$sched_pid" 2>/dev/null || {
            echo "scheduler died before binding" >&2; exit 1; }
        sleep 0.1
    done
    [ -s "$port_file" ] || { echo "scheduler never bound" >&2; exit 1; }
    url="http://127.0.0.1:$(cat "$port_file")"
}

echo "== single-process reference =="
"$sweep" "${margs[@]}" --out "$scratch/single.json"

echo "== pre-seed chaos: stale, corrupt and truncated fragments =="
# A fragment from a different matrix (other insts budget => other
# config fingerprint and content hash): valid bytes, wrong sweep.
# Made the one way fragments are made — by a farm run.
stale_matrix=(--benchmarks compress --configs baseline --insts 10000)
start_sched "$scratch/port0" "${stale_matrix[@]}" \
            --fragments-dir "$scratch/frags" --out "$scratch/stale.json" \
            --max-seconds 60
"$sweep" "${stale_matrix[@]}" --cache-dir "$scratch/cache" \
         --pull "$url" --worker seed
wait "$sched_pid"
stale=$(ls "$scratch/frags"/*.json)
[ -n "$stale" ] || { echo "no stale fragment seeded" >&2; exit 1; }
echo '{"schema": "tcsim-bench-fragment-v1", "truncated' \
    > "$scratch/frags/0123456789abcdef.json"
# A fragment truncated mid-record into VALID JSON (schema and unit
# header intact, result record incomplete) under a REAL unit hash of
# this matrix — e.g. a torn upload from a dying worker.
"$sweep" --list "${matrix[@]}" > "$scratch/list.txt"
matrix_hash=$(awk 'NR==1 {print $2}' "$scratch/list.txt")
poison=$(awk 'NR==2 {print $2}' "$scratch/list.txt")
poison_id=$(awk 'NR==2 {print $3}' "$scratch/list.txt")
[ -n "$poison" ] || { echo "cannot list the matrix" >&2; exit 1; }
printf '%s\n' "{\"schema\": \"tcsim-bench-fragment-v1\",
  \"unit\": {\"index\": 0, \"id\": \"$poison_id\",
             \"hash\": \"$poison\", \"benchmark\": \"compress\",
             \"config\": \"baseline\", \"insts\": 20000,
             \"warmup\": 5000},
  \"result\": {\"benchmark\": \"compress\", \"config\": \"baseline\",
               \"instructions\": 20000}}" \
    > "$scratch/frags/$poison.json"

echo "== scheduler up; a missing or wrong token gets 401 =="
start_sched "$scratch/port" "${matrix[@]}" \
            --fragments-dir "$scratch/frags" --out "$scratch/sched.json" \
            --lease-timeout 4 --straggler-k 2 --min-median-samples 2 \
            --partial-out "$scratch/partial.json" \
            --status-out "$scratch/status.json" \
            --max-seconds 120
# Every unit hash and id of the matrix is a secret the 401 must keep.
python3 - "$url" "$TCSIM_FARM_TOKEN" "$matrix_hash" \
        $(awk 'NR>1 {print $2, $3}' "$scratch/list.txt") <<'EOF'
import sys, urllib.error, urllib.request
url, token, matrix_hash = sys.argv[1:4]
secrets = sys.argv[3:]

def fetch(method, path, auth):
    headers = {"Authorization": auth} if auth else {}
    request = urllib.request.Request(
        url + path, method=method, headers=headers,
        data=b"" if method == "POST" else None)
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode()

for method, path in (("POST", "/lease?worker=intruder"),
                     ("GET", "/status")):
    for auth in (None, "Bearer wrong-token"):
        code, body = fetch(method, path, auth)
        assert code == 401, (method, path, auth, code)
        leaked = [s for s in secrets if s in body]
        assert not leaked, (path, "401 body leaks", leaked)
code, body = fetch("GET", "/status", "Bearer " + token)
assert code == 200 and matrix_hash in body, (code, body)
EOF

echo "== kill + straggler chaos =="
# w1 SIGKILLs itself right after taking its first lease; its unit must
# be recovered. Expected to die by signal, so `if` guards set -e.
if "$sweep" "${matrix[@]}" --pull "$url" --worker w1 \
            --die-mid-unit 1 2> "$scratch/w1.log"; then
    echo "w1 should have been SIGKILLed" >&2
    exit 1
fi
# w2 stalls 6s on every unit (>> 2 x median): a live straggler whose
# units get speculatively re-dispatched. w3 is healthy and steals the
# rest of the pool. Workers share the reference run's artifact cache.
"$sweep" "${margs[@]}" --pull "$url" --worker w2 \
         --inject-slow-ms 6000 > "$scratch/w2.log" 2>&1 &
"$sweep" "${margs[@]}" --pull "$url" --worker w3 \
         > "$scratch/w3.log" 2>&1 &
wait "$sched_pid"
wait

echo "== merged document is byte-identical =="
cmp "$scratch/single.json" "$scratch/sched.json"

echo "== re-dispatch fired and documents validate =="
# Every unit's stored fragment validates — the torn one included,
# since /complete replaced it with the verified payload.
fragments=()
for hash in $(awk 'NR>1 {print $2}' "$scratch/list.txt"); do
    fragments+=(--fragment "$scratch/frags/$hash.json")
done
python3 "$validate" --sched-status "$scratch/status.json" \
        --partial "$scratch/partial.json" \
        --results "$scratch/sched.json" "${fragments[@]}"
python3 - "$scratch/status.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["completed"] == doc["units"] == 4, doc
assert doc["redispatches"] >= 1, "straggler re-dispatch never fired"
assert doc["leases_expired"] + doc["redispatches"] >= 2, \
    "killed worker's unit was neither expired nor re-dispatched"
EOF

echo "== restart over the finished store resumes to done =="
"$sched" "${matrix[@]}" --fragments-dir "$scratch/frags" \
         --out "$scratch/resumed.json" --port 0 \
         --port-file "$scratch/port2" --max-seconds 30 \
         --status-out "$scratch/status2.json"
cmp "$scratch/single.json" "$scratch/resumed.json"
python3 - "$scratch/status2.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["completed"] == doc["units"] == 4, doc
assert doc["leases_issued"] == 0, "resume dispatched work needlessly"
EOF

echo "sched smoke OK"
