#!/usr/bin/env bash
# Persistent trace-store smoke (scripts/check.sh --store and CI):
#   1. record a sweep cold and check exactly one .urctrc file appears;
#   2. replay it warm: byte-identical stdout, and the telemetry must
#      prove the Simulator never ran (sim.store.hits >= 1, sim.runs == 0,
#      no sim.run phase, a sweep.store-serve phase);
#   3. a plain run (no --sweep) against the same store must match the
#      live run byte for byte and be answered from the stored summary
#      alone (sim.store.summary-served >= 1, sim.store.decode-ns == 0,
#      sim.runs == 0);
#   4. corrupt one payload byte: the next run must report a CRC
#      diagnostic, fall back to live simulation with identical output,
#      and re-record a good file (verified by a final clean warm run).
#
# Usage: scripts/store_smoke.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}
URCMC="$BUILD_DIR/tools/urcmc"
[ -x "$URCMC" ] || { echo "store_smoke: $URCMC not built" >&2; exit 1; }

STORE_DIR=$(mktemp -d /tmp/urcm_store.XXXXXX)
trap 'rm -rf "$STORE_DIR"' EXIT
SWEEP="--workload=Sieve --sweep=16,64,256"

# Cold: records the trace. Exactly one .urctrc file must appear.
"$URCMC" $SWEEP --trace-store="$STORE_DIR/cache" \
  --telemetry-json="$STORE_DIR/cold.json" > "$STORE_DIR/cold.out"
STORE_FILE=$(ls "$STORE_DIR"/cache/*.urctrc)
[ "$(ls "$STORE_DIR"/cache | wc -l)" = 1 ] || {
  echo "store: expected exactly one trace file" >&2; exit 1; }

# Warm: byte-identical output, Simulator provably not invoked.
"$URCMC" $SWEEP --trace-store="$STORE_DIR/cache" \
  --telemetry-json="$STORE_DIR/warm.json" > "$STORE_DIR/warm.out"
cmp "$STORE_DIR/cold.out" "$STORE_DIR/warm.out" || {
  echo "store: warm sweep output differs from cold" >&2; exit 1; }
python3 - "$STORE_DIR/cold.json" "$STORE_DIR/warm.json" <<'PY'
import json, sys
cold = json.load(open(sys.argv[1]))
warm = json.load(open(sys.argv[2]))
if cold["counters"].get("sim.store.misses", 0) < 1:
    sys.exit("cold run did not record a store miss")
if cold["counters"].get("sim.store.bytes-written", 0) < 1:
    sys.exit("cold run wrote no store bytes")
if warm["counters"].get("sim.store.hits", 0) < 1:
    sys.exit("warm run did not hit the store")
if warm["counters"].get("sim.runs", 0) != 0:
    sys.exit("warm run invoked the Simulator")
if any(p.startswith("sim.run") for p in warm.get("phases", {})):
    sys.exit("warm run has a sim.run phase; it was not served from the store")
if not any(p.startswith("sweep.store-serve") for p in warm.get("phases", {})):
    sys.exit("warm run has no sweep.store-serve phase")
print("store telemetry OK: cold recorded, warm served without the Simulator")
PY

# Base-only warm run: the summary recorded by the sweep above was
# measured under this run's own cache configuration, so it answers the
# run with no decode and no replay.
"$URCMC" --workload=Sieve --stats > "$STORE_DIR/base.cold.out"
"$URCMC" --workload=Sieve --stats --trace-store="$STORE_DIR/cache" \
  --telemetry-json="$STORE_DIR/base.warm.json" \
  > "$STORE_DIR/base.warm.out" 2> "$STORE_DIR/base.warm.err"
cmp "$STORE_DIR/base.cold.out" "$STORE_DIR/base.warm.out" || {
  echo "store: warm base-only run differs from the live run" >&2; exit 1; }
if [ -s "$STORE_DIR/base.warm.err" ]; then
  echo "store: warm base-only run reports diagnostics:" >&2
  cat "$STORE_DIR/base.warm.err" >&2; exit 1
fi
python3 - "$STORE_DIR/base.warm.json" <<'PY'
import json, sys
c = json.load(open(sys.argv[1]))["counters"]
if c.get("sim.store.summary-served", 0) < 1:
    sys.exit("base-only warm run was not served from the stored summary")
if c.get("sim.store.decode-ns", 0) != 0:
    sys.exit("base-only warm run decoded trace chunks")
if c.get("sim.runs", 0) != 0:
    sys.exit("base-only warm run invoked the Simulator")
print("store telemetry OK: base-only warm run served from the summary")
PY

# Corrupt one payload byte: the next run must report the file, fall
# back to live simulation with identical output, and re-record.
python3 - "$STORE_FILE" <<'PY'
import sys
path = sys.argv[1]
data = bytearray(open(path, "rb").read())
data[len(data) // 2] ^= 0x40
open(path, "wb").write(data)
PY
"$URCMC" $SWEEP --trace-store="$STORE_DIR/cache" \
  > "$STORE_DIR/corrupt.out" 2> "$STORE_DIR/corrupt.err"
cmp "$STORE_DIR/cold.out" "$STORE_DIR/corrupt.out" || {
  echo "store: corrupt-fallback output differs from cold" >&2; exit 1; }
grep -q "CRC" "$STORE_DIR/corrupt.err" || {
  echo "store: corrupt file produced no CRC diagnostic" >&2
  cat "$STORE_DIR/corrupt.err" >&2; exit 1; }

# The fallback re-recorded; a final warm run must serve cleanly again.
"$URCMC" $SWEEP --trace-store="$STORE_DIR/cache" \
  > "$STORE_DIR/healed.out" 2> "$STORE_DIR/healed.err"
cmp "$STORE_DIR/cold.out" "$STORE_DIR/healed.out" || {
  echo "store: healed warm output differs from cold" >&2; exit 1; }
if [ -s "$STORE_DIR/healed.err" ]; then
  echo "store: healed warm run still reports diagnostics:" >&2
  cat "$STORE_DIR/healed.err" >&2; exit 1
fi
echo "trace-store smoke OK"
