#!/usr/bin/env bash
# Report fixed point (scripts/check.sh and CI): urcm_report must print
# exactly the committed urcmbench/expected/report.md, byte for byte,
#   1. cold, with point-parallel replay off (--replay-workers=1) and at
#      the default width (--replay-workers=auto);
#   2. recording a trace store, then warm from that store;
# and the warm run's telemetry must show the store served it from the
# stored point records alone (sim.store.points-served == 54, no chunk
# decoded, no replay) and that every served point obeyed the replay
# conservation laws (check.replay.points == 54,
# check.replay.violations == 0), so a warm report that silently falls
# back to decode and replay fails. The work is pinned too, so a
# redundant simulation or replay fails the check: the recording pass
# stores exactly 12 traces (two simulations per workload), and the cold
# default-width pass replays exactly 54 points (nine distinct policy
# points per workload) with no violation.
# The expected file is only read here, never written.
#
# Usage: scripts/report_fixed_point.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}
REPORT="$BUILD_DIR/tools/urcm_report"
EXPECTED=urcmbench/expected/report.md
[ -x "$REPORT" ] || { echo "report_fixed_point: $REPORT not built" >&2; exit 1; }

OUT=$(mktemp -d /tmp/urcm_report.XXXXXX)
trap 'rm -rf "$OUT"' EXIT

"$REPORT" --replay-workers=1 > "$OUT/cold.1.md"
"$REPORT" --replay-workers=auto --telemetry-json="$OUT/cold.json" \
  > "$OUT/cold.auto.md"
for workers in 1 auto; do
  cmp "$EXPECTED" "$OUT/cold.$workers.md" || {
    echo "report (cold, --replay-workers=$workers) drifted from $EXPECTED" >&2
    exit 1; }
done
python3 - "$OUT/cold.json" <<'PY'
import json, sys
c = json.load(open(sys.argv[1]))["counters"]
if c.get("check.replay.points", 0) != 54:
    sys.exit("cold report replayed %d points, expected 54"
             % c.get("check.replay.points", 0))
if c.get("check.replay.violations", 0) != 0:
    sys.exit("cold replayed counters broke a conservation law")
PY

"$REPORT" --trace-store="$OUT/store" > "$OUT/record.md"
cmp "$EXPECTED" "$OUT/record.md" || {
  echo "report (recording a trace store) drifted from $EXPECTED" >&2
  exit 1; }
traces=$(find "$OUT/store" -name '*.urctrc' | wc -l)
[ "$traces" -eq 12 ] || {
  echo "recording pass stored $traces traces, expected 12" >&2; exit 1; }
"$REPORT" --trace-store="$OUT/store" --telemetry-json="$OUT/warm.json" \
  > "$OUT/warm.md"
cmp "$EXPECTED" "$OUT/warm.md" || {
  echo "report (warm trace store) drifted from $EXPECTED" >&2; exit 1; }

python3 - "$OUT/warm.json" <<'PY'
import json, sys
c = json.load(open(sys.argv[1]))["counters"]
if c.get("sim.store.misses", 0) != 0 or c.get("sim.store.hits", 0) < 1:
    sys.exit("warm report was not served from the trace store")
if c.get("sim.store.points-served", 0) != 54:
    sys.exit("warm report served %d points from stored records, expected 54"
             % c.get("sim.store.points-served", 0))
if c.get("sim.store.decode-ns", 0) != 0 or c.get("sweep.replay-ns", 0) != 0:
    sys.exit("warm report decoded or replayed a stored trace")
if c.get("check.replay.points", 0) != 54:
    sys.exit("warm report checked %d points, expected 54"
             % c.get("check.replay.points", 0))
if c.get("check.replay.violations", 0) != 0:
    sys.exit("replayed counters broke a conservation law")
PY
echo "report fixed point OK"
