#!/bin/bash
# Runs every experiment binary, teeing combined output — or, with
# --sweep N, runs the (benchmark, config) matrix on a tools/tcsim_sched
# scheduler plus N local `tcsim_sweep --pull` worker processes.
#
# Exhibit mode: each exhibit fans its (benchmark, config) jobs across
# TCSIM_JOBS worker threads (default: all cores); results are
# identical at any job count. Per-exhibit wall-clock and per-run
# metrics (including simulated MIPS) are merged into
# BENCH_results.json (schema tcsim-bench-exhibits-v1) so the perf
# trajectory is machine-readable.
#
# Sweep mode (--sweep N): starts tcsim_sched on an ephemeral port with
# a generated TCSIM_FARM_TOKEN, then N pull workers sharing the
# artifact cache. Workers lease units (an idle worker always takes the
# next undone unit; stragglers are re-dispatched), and the scheduler
# folds each delivered fragment into SWEEP_results.json (schema
# tcsim-bench-results-v1 — byte-identical to a single-process run of
# the same matrix). A worker that crashes is replaced, up to
# TCSIM_SWEEP_RETRIES times per worker; its unit returns to the pool
# when its lease lapses. The sweep fails when every worker has crashed
# (a crashed farm) or when the scheduler's --max-seconds budget runs
# out (a hung farm). Scheduler counters and wall-clock land in
# BENCH_results.json. Generated program images and warmed predictor
# checkpoints are reused across workers and runs via the
# content-addressed cache in TCSIM_CACHE_DIR (default .tcsim_cache).
#
# Usage: run_benches.sh [--long] [--sweep N] [--inject-kill]
#                       [--warm-compare] [--sampled-errors]
#                       [--regress-against FILE]
#   --long          raise the default instruction budget to 1M per run
#                   (statistically meaningful sweeps; an explicit
#                   TCSIM_INSTS still wins).
#   --sweep N       sweep mode with N pull workers.
#   --inject-kill   (sweep mode) worker 0 SIGKILLs itself holding its
#                   first lease (--die-mid-unit 1), exercising lease
#                   expiry, re-dispatch and worker replacement (CI).
#   --warm-compare  (sweep mode) after the sweep, re-run the matrix
#                   single-process against the now-warm artifact cache,
#                   assert the document is byte-identical, and record
#                   the cold-vs-warm wall-clock in BENCH_results.json.
#   --sampled-errors (sampled sweep mode) after the sweep, run the
#                   sampled-vs-full error report (each unit simulated
#                   BOTH ways — expensive), fail if any unit's IPC or
#                   fetch-rate error exceeds TCSIM_ERROR_TOLERANCE (or
#                   its mispredict-rate error exceeds
#                   TCSIM_MISPREDICT_TOLERANCE), and embed the report
#                   in BENCH_results.json.
#   --regress-against FILE
#                   (sweep mode) after the sweep, gate
#                   SWEEP_results.json against the baseline results
#                   document FILE with tools/tcsim_regress; the
#                   verdict lands in REGRESSION_report.json and is
#                   embedded in BENCH_results.json. A regression
#                   (tcsim_regress exit 5) fails the run.
#
# Sweep-mode environment:
#   TCSIM_SWEEP_ARGS     extra matrix args for the scheduler and its
#                        workers, word-split (e.g. "--benchmarks
#                        compress,li --configs baseline,promotion-t64";
#                        "--insts-for li@baseline=2000000" skews one
#                        cell, "--replay" replays btrace artifacts)
#   TCSIM_WARMUP         per-unit predictor warm-up instructions
#   TCSIM_SAMPLED_INTERVAL / TCSIM_SAMPLED_K
#                        enable SimPoint-style sampled execution: BBV
#                        interval length and max cluster count (both
#                        required together; interval must divide the
#                        budget)
#   TCSIM_ERROR_TOLERANCE max IPC / fetch-rate relative error for
#                        --sampled-errors (default 0.05)
#   TCSIM_MISPREDICT_TOLERANCE max mispredict-rate ABSOLUTE error for
#                        --sampled-errors (default 0.08 = 8 points;
#                        per-region predictor warm-up bias shifts the
#                        sampled rate by a few points regardless of
#                        the base rate, so the bound is absolute)
#   TCSIM_CACHE_DIR      artifact cache directory (default
#                        .tcsim_cache; empty string disables)
#   TCSIM_UNIT_TIMEOUT   per-unit timeout seconds (default 600); the
#                        scheduler's --max-seconds is this times each
#                        worker's share of the units, times
#                        (1 + TCSIM_SWEEP_RETRIES)
#   TCSIM_SWEEP_RETRIES  replacements per crashed worker (default 2)
#   TCSIM_FARM_TOKEN     farm bearer token (generated when unset)
cd "$(dirname "$0")" || exit 1

sweep_workers=0
inject_kill=0
warm_compare=0
sampled_errors=0
regress_baseline=""
while [ $# -gt 0 ]; do
    case "$1" in
        --long)
            export TCSIM_INSTS="${TCSIM_INSTS:-1000000}"
            ;;
        --sweep)
            shift
            sweep_workers="$1"
            ;;
        --inject-kill)
            inject_kill=1
            ;;
        --warm-compare)
            warm_compare=1
            ;;
        --sampled-errors)
            sampled_errors=1
            ;;
        --regress-against)
            shift
            regress_baseline="$1"
            ;;
        *)
            echo "unknown option: $1" >&2
            exit 1
            ;;
    esac
    shift
done

# ----------------------------------------------------------------------
# Sweep mode: one scheduler, N local pull workers.
# ----------------------------------------------------------------------
if [ "$sweep_workers" -gt 0 ]; then
    sweep_bin=build/tools/tcsim_sweep
    sched_bin=build/tools/tcsim_sched
    for bin in "$sweep_bin" "$sched_bin"; do
        [ -x "$bin" ] || { echo "$bin not built" >&2; exit 1; }
    done

    unit_timeout="${TCSIM_UNIT_TIMEOUT:-600}"
    max_retries="${TCSIM_SWEEP_RETRIES:-2}"
    cache_dir="${TCSIM_CACHE_DIR-.tcsim_cache}"
    # A crashed worker's lease lapses after this many seconds and its
    # unit goes back to the pool. Live workers renew every third of it
    # from a thread beside the simulation, so a slow unit keeps its
    # lease however long it runs.
    lease_timeout=10
    if [ -z "${TCSIM_FARM_TOKEN:-}" ]; then
        TCSIM_FARM_TOKEN=$(od -An -tx1 -N16 /dev/urandom | tr -d ' \n')
        export TCSIM_FARM_TOKEN
    fi

    # Matrix arguments shared verbatim by the scheduler and its workers
    # — the lease handshake refuses a worker whose matrix hash differs.
    # TCSIM_SWEEP_ARGS is word-split by design.
    # shellcheck disable=SC2206
    matrix_args=(${TCSIM_SWEEP_ARGS-})
    [ -n "${TCSIM_INSTS:-}" ] && matrix_args+=(--insts "$TCSIM_INSTS")
    [ -n "${TCSIM_WARMUP:-}" ] && matrix_args+=(--warmup "$TCSIM_WARMUP")
    if [ -n "${TCSIM_SAMPLED_INTERVAL:-}" ] || \
       [ -n "${TCSIM_SAMPLED_K:-}" ]; then
        if [ -z "${TCSIM_SAMPLED_INTERVAL:-}" ] || \
           [ -z "${TCSIM_SAMPLED_K:-}" ]; then
            echo "TCSIM_SAMPLED_INTERVAL and TCSIM_SAMPLED_K must be" \
                 "set together" >&2
            exit 1
        fi
        matrix_args+=(--sampled-interval "$TCSIM_SAMPLED_INTERVAL"
                      --sampled-max-k "$TCSIM_SAMPLED_K")
    fi
    # Workers (and the single-process reruns below) also share the
    # artifact cache; the scheduler simulates nothing.
    run_args=("${matrix_args[@]}")
    [ -n "$cache_dir" ] && run_args+=(--cache-dir "$cache_dir")

    sweep_dir=.sweep.tmp
    rm -rf "$sweep_dir"
    mkdir -p "$sweep_dir"

    n_units=$("$sweep_bin" --list "${matrix_args[@]}" \
                  | sed -n 's/^matrix [0-9a-f]* (\([0-9]*\) units)$/\1/p')
    [ -n "$n_units" ] || { echo "cannot enumerate matrix" >&2; exit 1; }
    units_per_worker=$(( (n_units + sweep_workers - 1) / sweep_workers ))
    max_seconds=$(( unit_timeout * units_per_worker * (max_retries + 1) ))
    echo "sweep: $n_units units, scheduler + $sweep_workers pull workers" \
         "(per-unit timeout ${unit_timeout}s, farm budget ${max_seconds}s)"

    sweep_start=$(date +%s.%N)
    "$sched_bin" "${matrix_args[@]}" \
        --fragments-dir "$sweep_dir/fragments" --out SWEEP_results.json \
        --port 0 --port-file "$sweep_dir/port" \
        --lease-timeout "$lease_timeout" --max-seconds "$max_seconds" \
        --status-out "$sweep_dir/status.json" \
        > "$sweep_dir/sched.log" 2>&1 &
    sched_pid=$!
    for _ in $(seq 200); do
        [ -s "$sweep_dir/port" ] && break
        kill -0 "$sched_pid" 2>/dev/null || {
            echo "sweep: scheduler died before binding" \
                 "(log: $sweep_dir/sched.log)" >&2
            exit 1; }
        sleep 0.05
    done
    url="http://127.0.0.1:$(cat "$sweep_dir/port")"

    # Live workers by pid -> slot; a slot's replacements count against
    # TCSIM_SWEEP_RETRIES.
    declare -A slot_of=()
    restarts=()
    start_worker() {
        local slot="$1"
        shift
        "$sweep_bin" "${run_args[@]}" --pull "$url" \
            --worker "w$slot.${restarts[$slot]}" "$@" \
            >> "$sweep_dir/worker.$slot.log" 2>&1 &
        slot_of[$!]=$slot
    }
    for i in $(seq 0 $((sweep_workers - 1))); do
        restarts[i]=0
        if [ "$inject_kill" -eq 1 ] && [ "$i" -eq 0 ]; then
            start_worker "$i" --die-mid-unit 1
        else
            start_worker "$i"
        fi
    done

    # Supervise until the scheduler exits. A worker exits 0 only once
    # the sweep is over; any other exit is a crash (137 from
    # --inject-kill's SIGKILL) and the slot gets a fresh worker.
    crashed=0
    respawned=0
    sweep_over=0
    sched_code=""
    while [ -z "$sched_code" ]; do
        pid=""
        code=0
        wait -n -p pid "$sched_pid" "${!slot_of[@]}" || code=$?
        if [ "$pid" = "$sched_pid" ]; then
            sched_code=$code
            break
        fi
        slot=${slot_of[$pid]}
        unset "slot_of[$pid]"
        if [ "$code" -eq 0 ]; then
            sweep_over=1
        else
            crashed=$((crashed + 1))
            if [ "${restarts[$slot]}" -lt "$max_retries" ]; then
                restarts[slot]=$((restarts[slot] + 1))
                respawned=$((respawned + 1))
                echo "sweep: worker $slot exited with code $code;" \
                     "replacement ${restarts[$slot]}/$max_retries"
                start_worker "$slot"
                continue
            fi
            echo "sweep: worker $slot exited with code $code;" \
                 "no replacements left"
        fi
        if [ "${#slot_of[@]}" -eq 0 ] && [ "$sweep_over" -eq 0 ]; then
            kill "$sched_pid" 2> /dev/null
            wait "$sched_pid" 2> /dev/null
            echo "SWEEP FAILED: every worker crashed before the matrix" \
                 "was done (logs: $sweep_dir)" >&2
            exit 1
        fi
    done
    sweep_wall=$(date +%s.%N | awk -v s="$sweep_start" '{printf "%.3f", $1 - s}')
    # The scheduler wrote the final document; workers still running
    # hold only duplicate straggler work.
    for pid in "${!slot_of[@]}"; do kill "$pid" 2> /dev/null; done
    wait
    if [ "$sched_code" -ne 0 ]; then
        echo "SWEEP FAILED: scheduler exited with code $sched_code" \
             "($([ "$sched_code" -eq 5 ] && echo "farm budget" \
                 "${max_seconds}s exceeded; ")log: $sweep_dir/sched.log)" >&2
        exit 1
    fi

    # Optional perf-regression gate against a prior results document.
    regress_json=""
    if [ -n "$regress_baseline" ]; then
        regress_bin=build/tools/tcsim_regress
        [ -x "$regress_bin" ] || {
            echo "$regress_bin not built" >&2; exit 1; }
        [ -f "$regress_baseline" ] || {
            echo "baseline $regress_baseline not found" >&2; exit 1; }
        regress_code=0
        "$regress_bin" --baseline "$regress_baseline" \
            --current SWEEP_results.json \
            --out REGRESSION_report.json || regress_code=$?
        if [ "$regress_code" -ne 0 ] && [ "$regress_code" -ne 5 ]; then
            echo "tcsim_regress failed (exit $regress_code)" >&2
            exit 1
        fi
        regress_json=$(printf '"regression":%s,' \
            "$(tr -d '\n' < REGRESSION_report.json)")
        if [ "$regress_code" -eq 5 ]; then
            echo "sweep: PERF REGRESSION against $regress_baseline" \
                 "(details: REGRESSION_report.json)" >&2
            # Still emit BENCH_results.json below so the report is
            # preserved, then fail.
        else
            echo "sweep: no regression against $regress_baseline"
        fi
    fi

    # Optional warm rerun: with every program image and predictor
    # checkpoint now cached, a single-process pass must be faster AND
    # byte-identical — cache hits may only ever change wall-clock.
    warm_json=""
    if [ "$warm_compare" -eq 1 ] && [ -n "$cache_dir" ]; then
        warm_start=$(date +%s.%N)
        "$sweep_bin" "${run_args[@]}" \
            --out "$sweep_dir/warm.json" \
            --timing-out "$sweep_dir/warm.timing.json" \
            > "$sweep_dir/warm.log" 2>&1 || exit 1
        warm_end=$(date +%s.%N)
        if ! cmp -s SWEEP_results.json "$sweep_dir/warm.json"; then
            echo "warm rerun changed simulation results" >&2
            exit 1
        fi
        warm_json=$(printf \
            '"warm_rerun":{"wall_seconds":%s,"byte_identical":true,"timing":%s},' \
            "$(echo "$warm_end $warm_start" | awk '{printf "%.3f", $1-$2}')" \
            "$(tr -d '\n' < "$sweep_dir/warm.timing.json")")
        echo "sweep: warm rerun byte-identical"
    fi

    # Optional sampled-vs-full error report: re-simulates every unit
    # both ways, so only ask for it on matrices sized for calibration.
    error_json=""
    if [ "$sampled_errors" -eq 1 ]; then
        tolerance="${TCSIM_ERROR_TOLERANCE:-0.05}"
        mispredict_tolerance="${TCSIM_MISPREDICT_TOLERANCE:-0.08}"
        "$sweep_bin" "${run_args[@]}" \
            --error-out "$sweep_dir/errors.json" \
            --error-tolerance "$tolerance" \
            --mispredict-tolerance "$mispredict_tolerance" \
            > "$sweep_dir/errors.log" 2>&1
        error_code=$?
        if [ "$error_code" -ne 0 ] && [ "$error_code" -ne 4 ]; then
            echo "sampling-error report failed (exit $error_code)" >&2
            cat "$sweep_dir/errors.log" >&2
            exit 1
        fi
        cp "$sweep_dir/errors.json" SAMPLING_errors.json
        error_json=$(printf '"sampling_error":%s,' \
            "$(tr -d '\n' < "$sweep_dir/errors.json")")
        if [ "$error_code" -eq 4 ]; then
            echo "sweep: sampling error exceeds tolerance $tolerance" \
                 "(mispredict $mispredict_tolerance)" >&2
            exit 1
        fi
        echo "sweep: sampling errors within tolerance $tolerance" \
             "(mispredict $mispredict_tolerance, SAMPLING_errors.json)"
    fi

    # BENCH_results.json: sweep wall-clock, worker crashes and the
    # scheduler's final tcsim-sched-status-v1 document (the canonical
    # simulation numbers live in SWEEP_results.json; everything here
    # is wall-clock, which is why it is kept apart).
    {
        printf '{"schema":"tcsim-bench-exhibits-v1",'
        printf '"sweep":{"workers":%d,"units":%d,' \
            "$sweep_workers" "$n_units"
        printf '"total_wall_seconds":%s,' "$sweep_wall"
        printf '"crashed_workers":%d,"respawned_workers":%d,' \
            "$crashed" "$respawned"
        printf '%s%s%s"scheduler":%s' \
            "$warm_json" "$error_json" "$regress_json" \
            "$(tr -d '\n' < "$sweep_dir/status.json")"
        printf '},"exhibits":[]}\n'
    } > BENCH_results.json
    rm -rf "$sweep_dir"
    if [ -n "$regress_baseline" ] && [ "${regress_code:-0}" -eq 5 ]; then
        echo "SWEEP FAILED perf-regression gate in ${sweep_wall}s" \
             "(report: REGRESSION_report.json)" >&2
        exit 5
    fi
    echo "SWEEP COMPLETE in ${sweep_wall}s" \
         "(results: SWEEP_results.json, timing: BENCH_results.json)"
    exit 0
fi

# ----------------------------------------------------------------------
# Exhibit mode.
# ----------------------------------------------------------------------
results_dir=.bench_results.tmp
rm -rf "$results_dir"
mkdir -p "$results_dir"
: > bench_output.txt

total_start=$(date +%s)
for b in build/bench/*; do
    [ -x "$b" ] && [ -f "$b" ] || continue
    name=$(basename "$b")
    echo "### $name" | tee -a bench_output.txt
    start=$(date +%s)
    TCSIM_RESULTS_DIR="$results_dir" "$b" 2>>bench_stderr.log \
        | tee -a bench_output.txt
    end=$(date +%s)
    echo "### $name took $((end - start))s" | tee -a bench_output.txt
    echo | tee -a bench_output.txt
done
total_end=$(date +%s)
total=$((total_end - total_start))

# Merge the per-exhibit JSON fragments (one object per line each)
# into a single results file.
{
    printf '{"schema":"tcsim-bench-exhibits-v1","jobs":"%s",' \
        "${TCSIM_JOBS:-auto}"
    printf '"total_wall_seconds":%d,"exhibits":[' "$total"
    first=1
    for f in "$results_dir"/*.json; do
        [ -f "$f" ] || continue
        [ $first -eq 1 ] || printf ','
        first=0
        tr -d '\n' < "$f"
    done
    printf ']}\n'
} > BENCH_results.json
rm -rf "$results_dir"

echo "ALL BENCHES COMPLETE in ${total}s (results: BENCH_results.json)"
