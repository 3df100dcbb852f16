#!/usr/bin/env bash
# Runs the paper-exhibit bench binaries and merges their google-benchmark
# JSON output, plus each binary's end-to-end wall time, into one
# BENCH_sweep.json so the performance trajectory of the experiment
# harness can be tracked across PRs. The wall times are the numbers that
# matter for the sweep engine: each binary precomputes its whole
# experiment grid (traced base simulations + replays) in main() before
# the benchmark rows run, so the per-row timings are near zero and the
# binary's wall time is the true cost of the exhibit.
#
# Usage: bench/run_benches.sh [build-dir] [out-json] [bench-name...]
#   build-dir   CMake build tree containing bench/ binaries (default: build)
#   out-json    merged output path (default: BENCH_sweep.json)
#   bench-name  subset to run (default: every exhibit); the CTest smoke
#               test passes a single fast exhibit here.
set -euo pipefail

BUILD_DIR=${1:-build}
OUT=${2:-BENCH_sweep.json}

# Wall times from an unoptimized build are not a perf trajectory: refuse
# debug trees (override with URCM_BENCH_ALLOW_DEBUG=1 for local
# spelunking — the stamped build_type still exposes it downstream).
BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' \
  "$BUILD_DIR/CMakeCache.txt" 2>/dev/null || true)
case "$BUILD_TYPE" in
  Release|RelWithDebInfo) ;;
  *)
    if [ "${URCM_BENCH_ALLOW_DEBUG:-0}" = 1 ]; then
      echo "run_benches: WARNING: benchmarking a '$BUILD_TYPE' build;" \
           "timings are not comparable to the committed trajectory" >&2
    else
      echo "run_benches: refusing to benchmark build tree '$BUILD_DIR'" \
           "with CMAKE_BUILD_TYPE='$BUILD_TYPE' (need Release or" \
           "RelWithDebInfo; configure with 'cmake --preset default' or" \
           "set URCM_BENCH_ALLOW_DEBUG=1 to override)" >&2
      exit 1
    fi
    ;;
esac

if [ "$#" -gt 2 ]; then
  shift 2
  BENCHES=("$@")
else
  BENCHES=(
    fig5_traffic_reduction
    static_dynamic_ambiguity
    miller_ratio
    deadtag_ablation
    scheme_decomposition
    replacement_policies
    policy_sweep
    line_size_sweep
    cache_size_sweep
    hint_encoding
    icache_effect
    software_vs_hardware_dse
    cache_occupancy
    memory_access_time
    reuse_threshold_sweep
    sharded_replay
    trace_store
  )
fi

JSON_DIR=$(mktemp -d)
trap 'rm -rf "$JSON_DIR"' EXIT

for B in "${BENCHES[@]}"; do
  BIN="$BUILD_DIR/bench/$B"
  if [ ! -x "$BIN" ]; then
    echo "run_benches: missing bench binary $BIN (build the repo first)" >&2
    exit 1
  fi
  START=$(date +%s.%N)
  # Rows register with Iterations(1) — results are deterministic tables,
  # not throughput — so one iteration is always enough. Newer
  # google-benchmark accepts the explicit "1x"; older versions print a
  # flag-type warning and ignore it, which is equally fine.
  "$BIN" --benchmark_min_time=1x \
         --benchmark_out="$JSON_DIR/$B.json" \
         --benchmark_out_format=json
  END=$(date +%s.%N)
  echo "$B $(echo "$END $START" | awk '{printf "%.3f", $1 - $2}')" \
    >> "$JSON_DIR/walltimes.txt"
done

# Host provenance for the stamp: wall times are only comparable across
# runs on the same core count, compiler output, and telemetry build
# flavor, so record all three next to the numbers they qualify.
GIT_SHA=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
# -dirty means the *source* differs from HEAD. Untracked files never
# count (diff-against-HEAD semantics), stale stat info must not count
# (refresh first), and neither do the bench outputs this very script
# rewrites — without the excludes every run self-stamps dirty.
if [ "$GIT_SHA" != unknown ]; then
  git update-index -q --refresh 2>/dev/null || true
  if ! git diff --quiet HEAD -- \
      ':(top)' ':(top,exclude)BENCH_*.json' \
      ':(top,exclude)bench/history' 2>/dev/null; then
    GIT_SHA="$GIT_SHA-dirty"
  fi
fi
# URCM_TELEMETRY_DISABLED compiles the counters out entirely (see
# urcm/support/Telemetry.h); a tree built that way produces slightly
# different wall times than the default always-compiled-in build.
if grep -qs "URCM_TELEMETRY_DISABLED" "$BUILD_DIR/CMakeCache.txt"; then
  TELEMETRY=disabled
else
  TELEMETRY=enabled
fi

# Merge: google-benchmark JSON shape (context + concatenated benchmark
# rows; row names are globally unique exhibit labels) plus a wall-time
# map for the trajectory comparison and the provenance stamp ("which
# build type produced these numbers" — asserted by check.sh --bench).
# Each run also appends one line to bench/history/<out>.jsonl so the
# wall-time trajectory across commits survives the single-snapshot
# committed JSON being overwritten.
URCM_BENCH_DIR="$(cd "$(dirname "$0")" && pwd)" \
python3 - "$JSON_DIR" "$OUT" "$BUILD_TYPE" "$GIT_SHA" "$TELEMETRY" <<'PY'
import datetime, json, os, pathlib, sys

json_dir, out = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
build_type, git_sha, telemetry = sys.argv[3], sys.argv[4], sys.argv[5]
walltimes = {}
for line in (json_dir / "walltimes.txt").read_text().splitlines():
    name, seconds = line.split()
    walltimes[name] = float(seconds)

provenance = {
    "git_sha": git_sha,
    "nproc": os.cpu_count() or 1,
    "telemetry": telemetry,
}
merged = {"context": None, "build_type": build_type,
          "provenance": provenance,
          "benchmarks": [], "wall_time_s": walltimes,
          "total_wall_time_s": round(sum(walltimes.values()), 3)}
for name in walltimes:
    data = json.loads((json_dir / f"{name}.json").read_text())
    if merged["context"] is None:
        merged["context"] = data.get("context")
    merged["benchmarks"].extend(data.get("benchmarks", []))

out.write_text(json.dumps(merged, indent=2) + "\n")

# Anchor on the script's repo layout: bench/history/ next to this
# runner, regardless of the caller's working directory.
history_dir = pathlib.Path(os.environ["URCM_BENCH_DIR"]) / "history"
history_dir.mkdir(parents=True, exist_ok=True)
entry = dict(provenance)
entry.update({
    "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
    "build_type": build_type,
    "wall_time_s": walltimes,
    "total_wall_time_s": merged["total_wall_time_s"],
})
history_file = history_dir / (out.stem + ".jsonl")
with history_file.open("a") as handle:
    handle.write(json.dumps(entry, sort_keys=True) + "\n")

print(f"wrote {out}: {len(merged['benchmarks'])} rows, "
      f"{merged['total_wall_time_s']}s total "
      f"(history -> {history_file})")
PY
