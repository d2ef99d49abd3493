#!/usr/bin/env bash
# churnd_smoke.sh — serving-layer smoke test (run by `make smoke`).
#
# Exercises churnd's robustness contract end to end, across real processes:
#
#   1. reference daemon: two clients submit overlapping grids over HTTP; the
#      shared cells must be served from the scheduler cache (one compute per
#      distinct cell), and SIGTERM must drain gracefully with exit 0,
#   2. crash daemon: the same grid is submitted to a fresh daemon, which is
#      SIGKILLed mid-grid — the journal must hold a strict subset of cells,
#   3. restarted daemon: on the same journal it must report the recovered
#      cells, recompute only the missing ones, and serve a result CSV that
#      is byte-identical to the reference, with the recovered/shed counters
#      visible on /metrics.
set -euo pipefail

cd "$(dirname "$0")/.."
work=$(mktemp -d)
pids=()
cleanup() {
    for p in "${pids[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/churnd" ./cmd/churnd

# The test grid: one worker serializes the ascending sizes, seed 1,
# origins 3. The six small cells take about 110 ms together; the last one,
# n=25600, takes about 1.6 s (measured on a 2-vCPU Xeon VM), over 30 times
# the 50 ms poll of the SIGKILL step below. So once two cells are
# checkpointed the journal stays a strict subset for that whole cell, and
# the poll lands inside the window on a host many times faster than that.
GRID='{"tenant":"alice","scenarios":["BASELINE"],"sizes":[100,200,400,800,1600,3200,25600],"seed":1,"origins":3}'
SUBGRID='{"tenant":"bob","scenarios":["BASELINE"],"sizes":[400,800],"seed":1,"origins":3}'
TOTAL=7

# start_daemon <child|orphan> <logfile> <extra flags...>; sets $addr and
# appends the pid to $pids. "child" keeps the daemon a direct child (so
# `wait` can observe its exit code); "orphan" launches it via a subshell so
# a later SIGKILL does not trigger bash's job-termination notice.
start_daemon() {
    local mode=$1 log=$2
    shift 2
    if [ "$mode" = child ]; then
        "$work/churnd" -addr 127.0.0.1:0 "$@" >"$log" 2>&1 &
        pids+=($!)
    else
        ("$work/churnd" -addr 127.0.0.1:0 "$@" >"$log" 2>&1 &
            echo $! >"$work/last.pid")
        pids+=("$(cat "$work/last.pid")")
    fi
    for _ in $(seq 1 100); do
        addr=$(sed -n 's|.*serving on http://||p' "$log")
        [ -n "$addr" ] && return 0
        sleep 0.1
    done
    echo "FAIL: daemon never reported its address" >&2
    cat "$log" >&2
    return 1
}

# submit <base> <json>; prints the job id.
submit() {
    curl -sf -X POST -d "$2" "http://$1/jobs" | sed -n 's/.*"id": "\(j[0-9]*\)".*/\1/p' | head -1
}

# wait_done <base> <id> <tries>
wait_done() {
    for _ in $(seq 1 "$3"); do
        state=$(curl -sf "http://$1/jobs/$2" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p' | head -1)
        case "$state" in
        done) return 0 ;;
        failed | cancelled)
            echo "FAIL: job $2 ended $state" >&2
            curl -s "http://$1/jobs/$2" >&2
            return 1
            ;;
        esac
        sleep 0.2
    done
    echo "FAIL: job $2 never finished" >&2
    return 1
}

echo "== reference daemon: two tenants, overlapping grids, graceful drain"
start_daemon child "$work/ref.log" -journal "$work/ref.journal"
ref_addr=$addr
ja=$(submit "$ref_addr" "$GRID")
wait_done "$ref_addr" "$ja" 300
jb=$(submit "$ref_addr" "$SUBGRID")
wait_done "$ref_addr" "$jb" 300
curl -sf "http://$ref_addr/jobs/$ja/result.csv" >"$work/ref.csv"

# Dedup across clients: bob's two cells overlap alice's grid entirely, so
# the cache must have served them — misses stay at the distinct cell count.
hits=$(curl -sf "http://$ref_addr/stats" | sed -n 's/.*"Hits": \([0-9]*\).*/\1/p')
misses=$(curl -sf "http://$ref_addr/stats" | sed -n 's/.*"Misses": \([0-9]*\).*/\1/p')
if [ "$misses" -ne "$TOTAL" ] || [ "$hits" -lt 2 ]; then
    echo "FAIL: cache stats hits=$hits misses=$misses; want misses=$TOTAL (one compute per distinct cell) and hits>=2" >&2
    exit 1
fi
echo "   dedup ok: $misses computes, $hits cache hits"

kill -TERM "${pids[0]}"
if ! wait "${pids[0]}"; then
    echo "FAIL: SIGTERM drain exited non-zero" >&2
    cat "$work/ref.log" >&2
    exit 1
fi
grep -q 'churnd: drained in' "$work/ref.log" || {
    echo "FAIL: no drain log line" >&2
    cat "$work/ref.log" >&2
    exit 1
}

echo "== crash daemon: SIGKILL mid-grid"
start_daemon orphan "$work/crash.log" -journal "$work/cells.journal" -workers 1
crash_addr=$addr
crash_pid=${pids[1]}
submit "$crash_addr" "$GRID" >/dev/null
# Poll the journal (header + one line per checkpointed cell) and kill while
# a strict subset is on disk.
killed=0
for _ in $(seq 1 600); do
    lines=$(wc -l <"$work/cells.journal" 2>/dev/null || echo 0)
    if [ "$lines" -ge 3 ] && [ "$lines" -le "$TOTAL" ]; then
        kill -9 "$crash_pid"
        killed=1
        break
    fi
    sleep 0.05
done
# The daemon is an orphan (not our child), so poll until the kill lands.
for _ in $(seq 1 100); do
    kill -0 "$crash_pid" 2>/dev/null || break
    sleep 0.05
done
checkpointed=$(($(wc -l <"$work/cells.journal") - 1))
if [ "$killed" -ne 1 ] || [ "$checkpointed" -lt 1 ] || [ "$checkpointed" -ge "$TOTAL" ]; then
    echo "FAIL: journal holds $checkpointed cells after SIGKILL, want a strict subset of $TOTAL" >&2
    exit 1
fi
echo "   killed with $checkpointed/$TOTAL cells checkpointed"

echo "== restarted daemon: recovery and byte-identical results"
start_daemon orphan "$work/restart.log" -journal "$work/cells.journal" -workers 1
re_addr=$addr
recovered=$(sed -n 's/churnd: recovered \([0-9]*\) cells.*/\1/p' "$work/restart.log")
if [ "$recovered" -ne "$checkpointed" ]; then
    echo "FAIL: daemon recovered $recovered cells, journal held $checkpointed" >&2
    exit 1
fi
jr=$(submit "$re_addr" "$GRID")
wait_done "$re_addr" "$jr" 300
curl -sf "http://$re_addr/jobs/$jr/result.csv" >"$work/restart.csv"

if ! diff "$work/ref.csv" "$work/restart.csv"; then
    echo "FAIL: post-crash CSV differs from the reference" >&2
    exit 1
fi

metrics=$(curl -sf "http://$re_addr/metrics")
rec_metric=$(printf '%s\n' "$metrics" | sed -n 's/^bgpchurn_core_journal_loads_total \([0-9]*\)$/\1/p')
if [ -z "$rec_metric" ] || [ "$rec_metric" -lt 1 ]; then
    echo "FAIL: bgpchurn_core_journal_loads_total missing or zero on /metrics" >&2
    exit 1
fi
printf '%s\n' "$metrics" | grep -q '^bgpchurn_serve_jobs_shed_total ' || {
    echo "FAIL: bgpchurn_serve_jobs_shed_total missing from /metrics" >&2
    exit 1
}

echo "ok: recovered $recovered/$TOTAL cells, recomputed the rest, reference reproduced byte-for-byte"
