#!/usr/bin/env bash
# sse_smoke.sh — /progress streaming smoke test (run by `make smoke`).
#
# Both binaries serve the same /progress feed (core.Scheduler.PublishProgress),
# so both get the same assertions:
#
#   leg 1: cmd/experiments runs a -fast grid with the obs server on a free
#          port and /progress is streamed with curl while the grid runs; its
#          cell events must carry the cell record (a "seed" field);
#   leg 2: cmd/churnd starts on a free port, /progress is opened, a two-cell
#          job is POSTed and streamed until both cells' attribution arrives;
#          once the job is done, its own /jobs/{id}/stream must answer 200
#          with the banner and the terminal job event, then end.
#
# Each stream must:
#
#   1. open with the comment banner line,
#   2. carry both cell and attribution events,
#   3. frame every data: line as one JSON object directly after event:/id:.
#
# Any drift in the SSE framing, the broker wiring, or the event payloads
# fails this script.
set -euo pipefail

cd "$(dirname "$0")/.."
work=$(mktemp -d)
pids=()
cleanup() {
    for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

# check_stream <file> <label>: the banner, event and framing assertions.
check_stream() {
    local f=$1 label=$2
    if ! head -1 "$f" | grep -q '^:'; then
        echo "FAIL ($label): stream does not open with the SSE comment banner" >&2
        head -5 "$f" >&2
        exit 1
    fi
    for ev in cell attribution; do
        if ! grep -q "^event: $ev\$" "$f"; then
            echo "FAIL ($label): no $ev event in stream" >&2
            head -20 "$f" >&2
            exit 1
        fi
    done
    # Framing: every data: line is preceded by event: then id:, and its
    # payload is one JSON object.
    awk -v label="$label" '
        /^event: /{ prev2 = prev1; prev1 = "event"; next }
        /^id: [0-9]+$/{ prev2 = prev1; prev1 = "id"; next }
        /^data: /{
            if (prev1 != "id" || prev2 != "event") { print "FAIL (" label "): bad framing before: " $0; exit 1 }
            payload = substr($0, 7)
            if (payload !~ /^\{.*\}$/) { print "FAIL (" label "): non-object payload: " $0; exit 1 }
            prev2 = prev1; prev1 = "data"; next
        }
        { prev2 = prev1; prev1 = "other" }
    ' "$f"
}

# wait_addr <log> <sed-expr> <pid>: prints the address the daemon logs.
wait_addr() {
    local log=$1 expr=$2 pid=$3 addr=
    for _ in $(seq 1 100); do
        addr=$(sed -n "$expr" "$log" | head -1)
        [ -n "$addr" ] && break
        if ! kill -0 "$pid" 2>/dev/null; then
            break
        fi
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "FAIL: no serving line in $log" >&2
        cat "$log" >&2
        exit 1
    fi
    echo "$addr"
}

go build -o "$work/experiments" ./cmd/experiments
go build -o "$work/churnd" ./cmd/churnd

echo "== leg 1: cmd/experiments -fast grid with obs server"
"$work/experiments" -fig all -fast -obs 127.0.0.1:0 -out "$work/out" \
    -manifest '' -journal '' >"$work/exp.log" 2>&1 &
exp_pid=$!
pids+=("$exp_pid")
# The serving line prints the bound address before the grid starts.
addr=$(wait_addr "$work/exp.log" 's#^obs: serving .* on http://##p' "$exp_pid")
echo "   obs server on $addr"

echo "== streaming /progress mid-grid"
# Stream for a few seconds while cells complete; curl exits 28 on --max-time,
# which is the expected way to stop reading an endless stream.
set +e
curl -sN --max-time 5 "http://$addr/progress" >"$work/exp-stream.txt"
curl_code=$?
set -e
if [ "$curl_code" -ne 0 ] && [ "$curl_code" -ne 28 ] && [ "$curl_code" -ne 18 ]; then
    echo "FAIL: curl exited $curl_code" >&2
    exit 1
fi
check_stream "$work/exp-stream.txt" experiments
# A cell event's data is the scheduler's cell record, which names the seed.
if ! grep -A2 '^event: cell$' "$work/exp-stream.txt" | grep -q '^data: {.*"seed":'; then
    echo "FAIL (experiments): no cell data line carries the record's seed" >&2
    head -20 "$work/exp-stream.txt" >&2
    exit 1
fi
exp_events=$(grep -c '^event: ' "$work/exp-stream.txt")
echo "== waiting for grid to finish"
wait "$exp_pid"
echo "   experiments: $exp_events well-formed SSE events"

echo "== leg 2: churnd, two-cell job"
"$work/churnd" -addr 127.0.0.1:0 -journal '' >"$work/churnd.log" 2>&1 &
churnd_pid=$!
pids+=("$churnd_pid")
addr=$(wait_addr "$work/churnd.log" 's|.*serving on http://||p' "$churnd_pid")
echo "   churnd on $addr"
curl -sN --max-time 60 "http://$addr/progress" >"$work/churnd-stream.txt" &
curl_pid=$!
pids+=("$curl_pid")
# The banner is written after the subscription exists: wait for it so the
# job cannot outrun the stream.
for _ in $(seq 1 100); do
    [ -s "$work/churnd-stream.txt" ] && break
    sleep 0.05
done
job_id=$(curl -sf -X POST -d '{"scenarios":["BASELINE"],"sizes":[100,200],"seed":1,"origins":3}' \
    "http://$addr/jobs" | sed -n 's/^ *"id": "\([^"]*\)".*/\1/p')
if [ -z "$job_id" ]; then
    echo "FAIL (churnd): POST /jobs returned no job id" >&2
    exit 1
fi
attrs=0
for _ in $(seq 1 200); do
    attrs=$(grep -c '^event: attribution$' "$work/churnd-stream.txt" || true)
    [ "$attrs" -ge 2 ] && break
    sleep 0.05
done
kill "$curl_pid" 2>/dev/null || true
if [ "$attrs" -lt 2 ]; then
    echo "FAIL (churnd): $attrs attribution events for a two-cell job, want 2" >&2
    cat "$work/churnd-stream.txt" >&2
    exit 1
fi
check_stream "$work/churnd-stream.txt" churnd
churnd_events=$(grep -c '^event: ' "$work/churnd-stream.txt")

echo "== streaming the finished job's /jobs/$job_id/stream"
for _ in $(seq 1 200); do
    curl -sf "http://$addr/jobs/$job_id" | grep -q '^  "state": "done"' && break
    sleep 0.05
done
# A finished job's stream replays its retained events and ends by itself.
status=$(curl -sN --max-time 10 -o "$work/job-stream.txt" -w '%{http_code}' \
    "http://$addr/jobs/$job_id/stream") || true
if [ "$status" != 200 ]; then
    echo "FAIL (churnd job stream): status $status, want 200" >&2
    cat "$work/job-stream.txt" >&2
    exit 1
fi
if ! head -1 "$work/job-stream.txt" | grep -q '^:'; then
    echo "FAIL (churnd job stream): stream does not open with the SSE comment banner" >&2
    head -5 "$work/job-stream.txt" >&2
    exit 1
fi
if ! grep -A2 '^event: job$' "$work/job-stream.txt" | grep -q '^data: {.*"state":"done"'; then
    echo "FAIL (churnd job stream): no event: job frame with the done job" >&2
    cat "$work/job-stream.txt" >&2
    exit 1
fi
kill -TERM "$churnd_pid"
wait "$churnd_pid"

echo "ok: streamed $exp_events (experiments) and $churnd_events (churnd) well-formed SSE events from live grids, and job $job_id's own stream"
