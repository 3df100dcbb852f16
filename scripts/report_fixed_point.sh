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
# back to decode and replay fails; its CRC counter
# (sim.store.crc-bytes) must be nonzero and at most
# sim.store.bytes-read, and its store layer must carry the validation:
# at least 24 sweep.store-serve spans (a validate span and a serve span
# per stored experiment).
# The work is pinned too, so a redundant simulation or replay fails the
# check: the recording pass stores exactly 12 files (two simulations
# per workload) of under 1 MB in total (summaries and point records
# only: a file that carries the trace again fails here), and the cold
# default-width pass replays exactly 54 points (nine distinct policy
# points per workload) with no violation, and checks every one of its
# live runs' data-cache counters against the same laws
# (check.live.runs == sim.runs, check.live.violations == 0).
# That pass also bounds the footprint: its peak resident set (the
# child's ru_maxrss, read with os.wait4) must stay under 48 MB. Simulated
# memory is lazily zeroed, so up to five concurrent runs cost about
# 17 MB; arrays zero-filled up front read 100-115 MB.
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
python3 - "$REPORT" "$OUT" <<'PY'
import json, os, subprocess, sys
report, out = sys.argv[1], sys.argv[2]
with open(os.path.join(out, "cold.auto.md"), "wb") as md:
    child = subprocess.Popen(
        [report, "--replay-workers=auto",
         "--telemetry-json=" + os.path.join(out, "cold.json")], stdout=md)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
if child.returncode != 0:
    sys.exit("cold report (--replay-workers=auto) exited %d"
             % child.returncode)
peak_mb = usage.ru_maxrss / 1024
if peak_mb >= 48:
    sys.exit("cold report peaked at %.1f MB resident, expected under 48 MB"
             % peak_mb)
c = json.load(open(os.path.join(out, "cold.json")))["counters"]
if c.get("check.replay.points", 0) != 54:
    sys.exit("cold report replayed %d points, expected 54"
             % c.get("check.replay.points", 0))
if c.get("check.replay.violations", 0) != 0:
    sys.exit("cold replayed counters broke a conservation law")
if c.get("check.live.runs", 0) != c.get("sim.runs", 0):
    sys.exit("cold report checked %d of %d live runs"
             % (c.get("check.live.runs", 0), c.get("sim.runs", 0)))
if c.get("check.live.violations", 0) != 0:
    sys.exit("cold live counters broke a conservation law")
PY
for workers in 1 auto; do
  cmp "$EXPECTED" "$OUT/cold.$workers.md" || {
    echo "report (cold, --replay-workers=$workers) drifted from $EXPECTED" >&2
    exit 1; }
done

"$REPORT" --trace-store="$OUT/store" > "$OUT/record.md"
cmp "$EXPECTED" "$OUT/record.md" || {
  echo "report (recording a trace store) drifted from $EXPECTED" >&2
  exit 1; }
traces=$(find "$OUT/store" -name '*.urctrc' | wc -l)
[ "$traces" -eq 12 ] || {
  echo "recording pass stored $traces traces, expected 12" >&2; exit 1; }
store_bytes=$(find "$OUT/store" -name '*.urctrc' -printf '%s\n' |
  awk '{ s += $1 } END { print s + 0 }')
[ "$store_bytes" -lt 1048576 ] || {
  echo "recording pass stored $store_bytes bytes, expected under 1 MB" >&2
  exit 1; }
"$REPORT" --trace-store="$OUT/store" --telemetry-json="$OUT/warm.json" \
  > "$OUT/warm.md"
cmp "$EXPECTED" "$OUT/warm.md" || {
  echo "report (warm trace store) drifted from $EXPECTED" >&2; exit 1; }

python3 - "$OUT/warm.json" <<'PY'
import json, sys
warm = json.load(open(sys.argv[1]))
c = warm["counters"]
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
crc = c.get("sim.store.crc-bytes", 0)
if not 0 < crc <= c.get("sim.store.bytes-read", 0):
    sys.exit("warm report CRC-checked %d bytes of %d read"
             % (crc, c.get("sim.store.bytes-read", 0)))
spans = warm.get("phases", {}).get("sweep.store-serve", {}).get("count", 0)
if spans < 24:
    sys.exit("warm report opened %d sweep.store-serve spans, expected at "
             "least 24 (12 validations and 12 serves)" % spans)
PY
echo "report fixed point OK"
