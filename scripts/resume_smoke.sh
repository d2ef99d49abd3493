#!/usr/bin/env bash
# resume_smoke.sh — crash-resume smoke test (run by `make smoke`).
#
# Exercises the fault-tolerance contract end to end, across real processes:
#
#   1. run the full -fast figure grid uninterrupted (the reference),
#   2. run it again and SIGINT it partway through — the process must exit
#      130 and leave a valid journal holding a strict subset of the cells,
#   3. rerun with -resume — only the missing cells may be recomputed, and
#      every figure CSV must be byte-identical to the reference.
#
# Any drift in the byte-identical property, the journal format, or the
# interrupt exit path fails this script.
set -euo pipefail

cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

go build -o "$work/experiments" ./cmd/experiments

echo "== reference run (uninterrupted)"
"$work/experiments" -fig all -fast -out "$work/ref" \
    -manifest "$work/ref-manifest.json" -journal "$work/ref.journal" >/dev/null

# Cell count = journal lines minus the header line.
total=$(($(wc -l <"$work/ref.journal") - 1))
if [ "$total" -lt 2 ]; then
    echo "FAIL: reference journal has $total cells; need >=2 to interrupt between" >&2
    exit 1
fi

# SIGINT lands as soon as the first cell is checkpointed, so the interrupt
# falls mid-grid however fast the host runs the grid (a fixed delay did not:
# the -fast grid takes ~2 s on a 2-vCPU host).
echo "== interrupted run (SIGINT after the first checkpointed cell)"
"$work/experiments" -fig all -fast -out "$work/int" \
    -manifest "$work/int-manifest.json" -journal "$work/cells.journal" >"$work/int.log" 2>&1 &
pid=$!
while kill -0 "$pid" 2>/dev/null &&
    [ "$(cat "$work/cells.journal" 2>/dev/null | wc -l)" -lt 2 ]; do
    sleep 0.02
done
kill -INT "$pid" 2>/dev/null || true
set +e
wait "$pid"
code=$?
set -e
if [ "$code" -ne 130 ]; then
    echo "FAIL: interrupted run exited $code, want 130 (SIGINT)" >&2
    tail -5 "$work/int.log" >&2
    exit 1
fi
checkpointed=$(($(wc -l <"$work/cells.journal") - 1))
if [ "$checkpointed" -lt 1 ] || [ "$checkpointed" -ge "$total" ]; then
    echo "FAIL: journal holds $checkpointed cells after interrupt, want a strict subset of $total" >&2
    exit 1
fi
echo "   interrupted with $checkpointed/$total cells checkpointed"

echo "== resumed run"
"$work/experiments" -fig all -fast -resume -out "$work/res" \
    -manifest "$work/res-manifest.json" -journal "$work/cells.journal" >"$work/res.log" 2>&1

# Only the cells missing from the journal may have been recomputed.
computed=$(grep -o 'grid cells computed: [0-9]*' "$work/res.log" | grep -o '[0-9]*$')
want=$((total - checkpointed))
if [ "$computed" -ne "$want" ]; then
    echo "FAIL: resumed run computed $computed cells, want only the $want missing ones" >&2
    tail -5 "$work/res.log" >&2
    exit 1
fi

# The recovery guarantee: resumed output is byte-identical to a run that
# was never interrupted.
if ! diff -r "$work/ref" "$work/res"; then
    echo "FAIL: resumed CSVs differ from the uninterrupted reference" >&2
    exit 1
fi

echo "ok: resumed run recomputed $computed/$total cells and reproduced the reference byte-for-byte"
