#!/usr/bin/env bash
# One-stop pre-merge gate:
#   1. tier-1 build + tests in the default (RelWithDebInfo) preset
#   2. the report fixed point: urcm_report, cold at --replay-workers=1
#      and auto and warm from a trace store, must print the committed
#      urcmbench/expected/report.md byte for byte
#      (scripts/report_fixed_point.sh)
#   3. the same suite under ASan+UBSan, once per dispatch strategy
#      (the sanitizer presets differ only in URCM_FORCE_SWITCH_DISPATCH,
#      so both the computed-goto and the switch engines get scrubbed)
#   4. opt-in (--bench): rerun the paper exhibits and diff their wall
#      times against the committed BENCH_sweep.json trajectory
#   5. opt-in (--telemetry): run an instrumented Towers sweep and
#      validate the telemetry snapshot against docs/telemetry_schema.json
#      plus the Chrome trace export's structure
#   6. opt-in (--store): persistent trace-store smoke — record a sweep
#      cold, replay it warm (byte-identical output, Simulator provably
#      not invoked), and corrupt the store file to prove the fallback
#   7. opt-in (--profile): attribution-profiler smoke — golden-compare
#      the Towers per-line mismatch report (deterministic in program +
#      geometry), validate the JSON profile against
#      docs/profile_schema.json and the metrics JSONL stream
#   8. opt-in (--policy): replacement-policy differential — the unified
#      cache model's grid (PLRU/SRRIP/bypass-predictor included) must
#      be bit-identical across sequential, parallel and warm-store
#      runs, and one trace-store file must end up serving every policy
#      recorded into it
#
# Usage: scripts/check.sh [--bench] [--telemetry] [--store] [--profile]
#                         [--policy] [--skip-sanitizers]
#
# Wall-time caveat: single-core CI boxes show +/-15% run-to-run noise,
# so the bench diff only *flags* regressions past a generous threshold;
# treat it as a tripwire, not a verdict. Confirm any flagged exhibit
# with an interleaved A/B against the previous commit's binaries.
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_BENCH=0
RUN_TELEMETRY=0
RUN_STORE=0
RUN_PROFILE=0
RUN_POLICY=0
RUN_SAN=1
for arg in "$@"; do
  case "$arg" in
    --bench) RUN_BENCH=1 ;;
    --telemetry) RUN_TELEMETRY=1 ;;
    --store) RUN_STORE=1 ;;
    --profile) RUN_PROFILE=1 ;;
    --policy) RUN_POLICY=1 ;;
    --skip-sanitizers) RUN_SAN=0 ;;
    *) echo "usage: scripts/check.sh [--bench] [--telemetry] [--store] [--profile] [--policy] [--skip-sanitizers]" >&2
       exit 2 ;;
  esac
done

echo "== tier-1: default preset =="
cmake --preset default >/dev/null
cmake --build --preset default -j"$(nproc)"
ctest --preset default -j"$(nproc)"

echo "== pass pipeline: golden text + verify-each smoke =="
# The printed pipeline is an output format (DESIGN.md §12): the driver
# must resolve the boolean options to exactly these texts.
got=$(./build/tools/urcmc --print-pipeline)
[ "$got" = "regalloc,unified,codegen" ] || {
  echo "default pipeline drifted: $got" >&2; exit 1; }
got=$(./build/tools/urcmc --O1 --print-pipeline)
[ "$got" = "promote,cleanup,regalloc,unified,codegen" ] || {
  echo "--O1 pipeline drifted: $got" >&2; exit 1; }
for w in Bubble Intmm Puzzle Queen Sieve Towers Quick Perm; do
  ./build/tools/urcmc --workload="$w" --O1 --verify-each >/dev/null
  ./build/tools/urcmc --workload="$w" --era --verify-each >/dev/null
done

echo "== report fixed point: cold, parallel and warm vs urcmbench/expected =="
scripts/report_fixed_point.sh build

if [ "$RUN_SAN" = 1 ]; then
  for preset in asan-ubsan asan-ubsan-threaded; do
    echo "== sanitizers: $preset =="
    cmake --preset "$preset" >/dev/null
    cmake --build --preset "$preset" -j"$(nproc)"
    # Leak checking stays on (default); halt-on-error comes from
    # -fno-sanitize-recover in the preset flags.
    ctest --test-dir "$([ "$preset" = asan-ubsan ] && echo build-asan \
                                                  || echo build-asan-threaded)" \
      -j"$(nproc)" --output-on-failure
  done

  echo "== sanitizers: tsan (parallel sim suites) =="
  # TSan over the suites that exercise the thread pool, the SPSC trace
  # stream, and point-parallel replay; the full suite under TSan is
  # disproportionately slow and the remaining suites are single-threaded.
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j"$(nproc)" --target \
    support_test tracesim_test cachemodel_test sweepengine_test \
    shardedreplay_test tracestore_test
  # Only these binaries exist in the tsan tree, so invoke them
  # directly rather than through ctest's discovery (which would trip
  # over the unbuilt suites).
  for t in support_test tracesim_test cachemodel_test sweepengine_test \
           shardedreplay_test tracestore_test; do
    TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
      ./build-tsan/tests/"$t" || { echo "tsan: $t failed" >&2; exit 1; }
  done
fi

if [ "$RUN_TELEMETRY" = 1 ]; then
  echo "== telemetry smoke: instrumented Towers sweep =="
  TELEMETRY_DIR=$(mktemp -d /tmp/urcm_telemetry.XXXXXX)
  ./build/tools/urcmc --workload=Towers --sweep=16,64 \
    --telemetry-json="$TELEMETRY_DIR/telemetry.json" \
    --trace-out="$TELEMETRY_DIR/trace.json" >/dev/null
  python3 scripts/validate_telemetry.py snapshot "$TELEMETRY_DIR/telemetry.json"
  python3 scripts/validate_telemetry.py trace "$TELEMETRY_DIR/trace.json"
  rm -rf "$TELEMETRY_DIR"
fi

if [ "$RUN_STORE" = 1 ]; then
  echo "== trace-store smoke: record cold, replay warm, corrupt, fall back =="
  scripts/store_smoke.sh build
fi

if [ "$RUN_PROFILE" = 1 ]; then
  echo "== attribution-profiler smoke: Towers golden + schema validation =="
  PROFILE_DIR=$(mktemp -d /tmp/urcm_profile.XXXXXX)
  # The pressured 16x2 geometry makes the bypass-vs-miss mismatch flags
  # fire (tests/golden/towers_profile_annotate.txt is committed from the
  # same invocation — the report is a pure function of program + config,
  # so any diff is an attribution or rendering change, not noise).
  ./build/tools/urcmc --workload=Towers --era --cache-lines=16 --assoc=2 \
    --profile-refs="$PROFILE_DIR/towers.json" \
    --profile-annotate="$PROFILE_DIR/towers.txt" \
    --metrics-out="$PROFILE_DIR/metrics.jsonl" >/dev/null
  diff -u tests/golden/towers_profile_annotate.txt "$PROFILE_DIR/towers.txt" \
    || { echo "Towers mismatch report drifted from golden" >&2; exit 1; }
  grep -q '!bypass-miss' "$PROFILE_DIR/towers.txt" \
    || { echo "Towers report lost its mismatch flags" >&2; exit 1; }
  python3 scripts/validate_telemetry.py profile "$PROFILE_DIR/towers.json"
  python3 scripts/validate_telemetry.py metrics "$PROFILE_DIR/metrics.jsonl"
  rm -rf "$PROFILE_DIR"
fi

if [ "$RUN_POLICY" = 1 ]; then
  echo "== policy differential: parallel + warm-store bit-identity =="
  POLICY_DIR=$(mktemp -d /tmp/urcm_policy.XXXXXX)
  SWEEP="--workload=Sieve --sweep=16,64"
  # Every policy's sweep must be deterministic and bit-identical under
  # point-parallel replay (each point keeps all of its state, so the
  # invariant holds for every policy).
  for p in lru fifo random plru srrip min bypass; do
    ./build/tools/urcmc $SWEEP --policy="$p" --replay-workers=1 \
      > "$POLICY_DIR/$p.out"
    ./build/tools/urcmc $SWEEP --policy="$p" --replay-workers=7 \
      > "$POLICY_DIR/$p.parallel.out"
    cmp "$POLICY_DIR/$p.out" "$POLICY_DIR/$p.parallel.out" || {
      echo "policy $p: parallel sweep diverges from sequential" >&2
      exit 1; }
  done
  # One store file serves the whole policy grid: record under LRU; a
  # policy the file has no records for runs live once (byte-identical
  # to the live sweep) and re-records the same file with the old records
  # kept; after that every recorded policy must warm-hit, with no
  # simulation, and the store still holds exactly one file.
  ./build/tools/urcmc $SWEEP --policy=lru \
    --trace-store="$POLICY_DIR/cache" > /dev/null
  [ "$(ls "$POLICY_DIR"/cache | wc -l)" = 1 ] || {
    echo "policy store: expected exactly one trace file" >&2; exit 1; }
  for p in fifo srrip bypass; do
    ./build/tools/urcmc $SWEEP --policy="$p" \
      --trace-store="$POLICY_DIR/cache" > "$POLICY_DIR/$p.miss.out"
    cmp "$POLICY_DIR/$p.out" "$POLICY_DIR/$p.miss.out" || {
      echo "policy $p: store-miss sweep diverges from live" >&2
      exit 1; }
  done
  for p in lru fifo srrip bypass; do
    ./build/tools/urcmc $SWEEP --policy="$p" \
      --trace-store="$POLICY_DIR/cache" \
      --telemetry-json="$POLICY_DIR/$p.warm.json" \
      > "$POLICY_DIR/$p.warm.out"
    cmp "$POLICY_DIR/$p.out" "$POLICY_DIR/$p.warm.out" || {
      echo "policy $p: warm-store sweep diverges from live" >&2
      exit 1; }
    python3 - "$POLICY_DIR/$p.warm.json" "$p" <<'PY'
import json, sys
warm = json.load(open(sys.argv[1]))
p = sys.argv[2]
if warm["counters"].get("sim.store.misses", 0) != 0:
    sys.exit(f"policy {p}: a recorded policy missed the store")
if warm["counters"].get("sim.store.hits", 0) < 1:
    sys.exit(f"policy {p}: warm run did not hit the store")
if warm["counters"].get("sim.runs", 0) != 0:
    sys.exit(f"policy {p}: warm run invoked the Simulator")
PY
  done
  [ "$(ls "$POLICY_DIR"/cache | wc -l)" = 1 ] || {
    echo "policy store: a policy change left a second file" >&2
    exit 1; }
  rm -rf "$POLICY_DIR"
  echo "policy differential OK"
fi

if [ "$RUN_BENCH" = 1 ]; then
  echo "== bench trajectory diff =="
  TMP_JSON=$(mktemp /tmp/bench_sweep.XXXXXX.json)
  trap 'rm -f "$TMP_JSON"' EXIT
  bench/run_benches.sh build "$TMP_JSON"
  python3 - BENCH_sweep.json "$TMP_JSON" <<'PY'
import json, sys

base_path, new_path = sys.argv[1], sys.argv[2]
fresh = json.load(open(new_path))
# Provenance gate: the trajectory is only meaningful from an optimized
# build (run_benches.sh refuses others, but a hand-edited or stale JSON
# must not slip through either).
build_type = fresh.get("build_type")
if build_type not in ("Release", "RelWithDebInfo"):
    print(f"bench JSON stamped with build_type={build_type!r}; "
          "rerun from a Release/RelWithDebInfo tree")
    sys.exit(1)
try:
    base = json.load(open(base_path))["wall_time_s"]
except FileNotFoundError:
    print(f"no committed {base_path}; nothing to diff against")
    sys.exit(0)
new = fresh["wall_time_s"]

THRESHOLD = 1.25  # generous: single-core wall times carry ~15% noise
regressed = []
print(f"{'exhibit':<28}{'base':>8}{'new':>8}{'ratio':>8}")
for name in sorted(set(base) | set(new)):
    b, n = base.get(name), new.get(name)
    if b is None or n is None:
        print(f"{name:<28}{b or '-':>8}{n or '-':>8}{'new' if b is None else 'gone':>8}")
        continue
    ratio = n / b if b else float("inf")
    print(f"{name:<28}{b:>8.2f}{n:>8.2f}{ratio:>7.2f}x")
    if ratio > THRESHOLD:
        regressed.append((name, ratio))

if regressed:
    print("\npossible regressions (confirm with interleaved A/B):")
    for name, ratio in regressed:
        print(f"  {name}: {ratio:.2f}x slower than committed baseline")
    sys.exit(1)
print("\nbench trajectory OK")
PY
fi

echo "== check.sh: all gates passed =="
