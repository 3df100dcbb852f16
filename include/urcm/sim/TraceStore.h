//===- urcm/sim/TraceStore.h - Persistent trace store -----------*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A persistent on-disk store of recorded simulation results: record
/// once, serve everywhere. The sweep engine made replay cheap *within* a
/// process (compile-once/replay-many); this store makes executing the
/// functional Simulator a once-per-program cost *across* processes:
/// urcmc, urcm_report, the bench binaries and the tests can all serve
/// their sweeps from one recorded run.
///
/// ## Container format (version 5, little-endian)
///
///   header   : magic "URCMTRC\x01" (8) | version u32 | flags u32 (0) |
///              content-hash u64 | nominal chunk events u32
///              (TraceStoreWriter::ChunkEvents) | reserved u32 (0)
///   chunks   : repeated { payload-bytes u32 | event-count u32 |
///              crc32(payload) u32 | payload }
///   sentinel : u32 0xFFFFFFFF (end of chunks)
///   summary  : bytes u32 | measured-under policy u8 (0xFF = unknown) |
///              seed varint | serialized trace-free SimResult |
///              point count varint | points | crc32(summary) u32
///   point    : lines varint | assoc varint | line-words varint |
///              policy u8 | write u8 | seed varint | ignore-hints u8 |
///              16 CacheStats varints
///   footer   : total-events u64 | chunk-count u64 |
///              end magic "URCMEND\x01" (8)
///
/// The sweep engine writes no chunks: its files are the header, the
/// sentinel, the summary with one record per sweep point it needed (see
/// StoredPoint) and a footer counting 0 events in 0 chunks, a few
/// hundred bytes per program. The summary records the data-cache policy
/// and seed its cache row was measured under (see SummaryCachePolicy).
/// Chunks are written only through the raw append() API, which the
/// benchmark's store rows measure.
///
/// A chunk payload is its events, eight little-endian bytes each:
/// address u32 | is-write u8 (0 or 1) | hints u8 (bit 0 bypass, bit 1
/// last-ref, the rest 0) | RefId u16. A payload whose size is not eight
/// bytes per event, or an event with any other is-write or hint byte,
/// is malformed.
///
/// ## Invalidation and robustness
///
/// The header carries a content hash of the compiled MachineIR plus
/// every simulation input that can affect the result (see
/// traceContentHash), so stale files self-invalidate: a reader opened
/// with a different expected hash rejects the file and the caller falls
/// back to live simulation. open() validates the *whole* file up front
/// (magic, version, the header's constant words, hash, every chunk CRC,
/// summary CRC, footer counts, exact end-of-file), so every byte of a
/// file is covered by a check; the chunks are checked in one serial
/// pass, frame by frame. Validation failures are reported through
/// DiagnosticEngine — never asserted — and decode stays bounds-checked
/// even after a successful open (a file mutated mid-read produces a
/// clean failure, not UB).
///
/// Writers write a temp file in the store directory and publish it
/// with an atomic rename, so concurrent processes recording the same
/// program race benignly (both files are valid; last rename wins) and a
/// crashed writer never leaves a half-written store behind.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_SIM_TRACESTORE_H
#define URCM_SIM_TRACESTORE_H

#include "urcm/codegen/MachineIR.h"
#include "urcm/sim/Simulator.h"
#include "urcm/support/Diagnostics.h"

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

namespace urcm {

/// Fingerprint of everything that determines a recorded trace *and* the
/// trace-free SimResult summary stored beside it: the full machine
/// program (instructions including hint bits and classification,
/// entry point, global layout, stack top) and the simulation inputs
/// that can change the outcome (step limit, cache and i-cache
/// geometry, paranoid checking). Pure observers — the execution engine,
/// trace sinks, chunk sizes, reserve hints — are deliberately excluded:
/// they cannot change a single recorded event. FNV-1a over a canonical
/// byte serialization; stable within a format version (the store salts
/// it, so bumping the format version retires every old file at once).
uint64_t traceContentHash(const MachineProgram &Prog,
                          const SimConfig &Config);

/// The store file path for \p ContentHash under \p Dir:
/// `<Dir>/<16-hex-digits>.urctrc`.
std::string traceStorePath(const std::string &Dir, uint64_t ContentHash);

/// The data-cache replacement policy and RNG seed a stored summary's
/// cache row was measured under. The content hash salts the cache
/// geometry and write policy but not these two (the trace is the same
/// under every policy), so a reader needs them to tell whether the row
/// answers its own base configuration.
struct SummaryCachePolicy {
  CachePolicy Policy = CachePolicy::LRU;
  uint64_t Seed = 0;

  /// True if the row was measured under \p Config's policy and seed.
  bool measures(const CacheConfig &Config) const {
    return Policy == Config.Policy && Seed == Config.Seed;
  }
};

/// The counters of one sweep point a recording run needed, stored in the
/// summary (since format v4). Config is canonical: its Policy field is the
/// point's replay policy mapped through canonicalReplayPolicy, so every
/// point that replays identically finds the same record. No attribution
/// table is stored; points that want one always run live.
struct StoredPoint {
  CacheConfig Config;
  bool IgnoreHints = false;
  CacheStats Stats;
};

/// Records one store file into a store directory. Lifecycle: open()
/// creates the directory (if needed) and a temp file; append() buffers
/// trace events (any batch sizes — the writer re-chunks internally, so
/// the file layout is independent of the caller's batching; the sweep
/// engine appends none); commit() writes the summary and footer and
/// atomically publishes the file; discard() (or destruction before
/// commit) removes the temp file. Call append() from one thread at a
/// time.
class TraceStoreWriter {
public:
  TraceStoreWriter() = default;
  TraceStoreWriter(const TraceStoreWriter &) = delete;
  TraceStoreWriter &operator=(const TraceStoreWriter &) = delete;
  ~TraceStoreWriter();

  /// Events per chunk (64K events = 512 KB): the decode granularity.
  static constexpr uint32_t ChunkEvents = 1u << 16;

  /// Creates \p Dir if missing and opens a temp file for the trace of
  /// \p ContentHash. On I/O failure reports to \p Diags and returns
  /// false (the writer stays closed; append/commit become no-ops, so
  /// recording failure can never fail the simulation it observes).
  bool open(const std::string &Dir, uint64_t ContentHash,
            DiagnosticEngine &Diags);

  /// Buffers the next \p Count events of the trace.
  void append(const TraceEvent *Events, size_t Count);

  /// Flushes the final chunk, writes the summary (\p Summary's Trace
  /// field is ignored) and footer, and
  /// atomically renames the temp file into place. \p Measured is the
  /// data-cache configuration \p Summary's cache row was measured
  /// under; its policy and seed are recorded so a reader with the same
  /// base configuration can use the row as is. \p Points are the
  /// counters of sweep points, stored so a later run can read them
  /// instead of simulating. Returns false (with a diagnostic) on I/O
  /// failure; the temp file is removed either way.
  bool commit(const SimResult &Summary, const CacheConfig &Measured,
              DiagnosticEngine &Diags,
              const std::vector<StoredPoint> &Points = {});
  /// As above for a summary whose cache row was measured under an
  /// unknown policy: readers never use that row as base counters.
  bool commit(const SimResult &Summary, DiagnosticEngine &Diags);

  /// Removes the temp file without publishing (failed or abandoned
  /// runs). Idempotent.
  void discard();

private:
  bool flushChunk(); ///< Writes Pending as a chunk; false on I/O error.
  bool commitSummary(const SimResult &Summary,
                     const std::optional<SummaryCachePolicy> &Measured,
                     const std::vector<StoredPoint> &Points,
                     DiagnosticEngine &Diags);

  std::FILE *File = nullptr;
  std::string TempPath;
  std::string FinalPath;
  uint64_t Hash = 0;
  uint64_t Events = 0;
  uint64_t Chunks = 0;
  uint64_t BytesWritten = 0;
  bool Failed = false;
  std::vector<TraceEvent> Pending; ///< Re-chunk buffer (<= ChunkEvents).
  std::vector<uint8_t> Encoded;    ///< Reused encode scratch.
};

/// Reads one store file. open() fully validates before anything is
/// served; next() then decodes chunk by chunk into a caller-provided
/// buffer (capacity reused across calls).
class TraceStoreReader {
public:
  enum class OpenStatus {
    Ok,       ///< Validated; summary, records and chunks are servable.
    NotFound, ///< No file at the path (a cache miss, not an error).
    Invalid,  ///< Present but rejected (diagnostic explains why).
  };

  TraceStoreReader() = default;
  TraceStoreReader(const TraceStoreReader &) = delete;
  TraceStoreReader &operator=(const TraceStoreReader &) = delete;
  ~TraceStoreReader();

  /// Opens \p Path and validates the entire container: magic, version,
  /// the header's flags, nominal chunk size and reserved words (each
  /// must hold what the writer writes), content hash against
  /// \p ExpectHash, every chunk's CRC and size
  /// bound, the summary CRC, and the footer's event/chunk counts
  /// against what the chunks actually hold. Invalid files report one
  /// error to \p Diags; a missing file reports nothing (the caller
  /// treats it as a plain cache miss). A path that is not a regular
  /// file (a FIFO, a directory) is rejected before anything is read.
  ///
  /// Chunks are validated in one pass in file order: each frame's
  /// bounds, that its payload ends inside the file and holds eight
  /// bytes per event, then its CRC. The first failure is the one
  /// reported. open() does not decode the events; next() does.
  OpenStatus open(const std::string &Path, uint64_t ExpectHash,
                  DiagnosticEngine &Diags);

  /// The recorded trace-free SimResult. Valid after OpenStatus::Ok.
  const SimResult &summary() const { return Summary; }

  /// The policy and seed summary().Cache was measured under, or nullopt
  /// if the writer did not record them. Valid after OpenStatus::Ok.
  const std::optional<SummaryCachePolicy> &summaryCachePolicy() const {
    return SummaryPolicy;
  }

  /// The sweep points recorded with their counters, in the order the
  /// writer stored them. Each record's configuration passed
  /// validateCacheConfig. Valid after OpenStatus::Ok.
  const std::vector<StoredPoint> &storedPoints() const { return Points; }

  /// Total recorded events (footer count). Valid after OpenStatus::Ok.
  uint64_t eventCount() const { return TotalEvents; }

  /// Decodes the next chunk into \p Chunk (contents replaced, capacity
  /// reused). Returns false at end of trace or on failure — check
  /// failed() to tell the two apart. Never throws, never reads out of
  /// bounds, even if the file changed since open().
  bool next(std::vector<TraceEvent> &Chunk);

  /// True if a next() call hit an I/O or decode failure after a
  /// successful open (e.g. the file was truncated mid-read).
  bool failed() const { return Failed; }

  /// Repositions next() at the first chunk (for a second pass).
  void rewind();

private:
  std::FILE *File = nullptr;
  SimResult Summary;
  std::optional<SummaryCachePolicy> SummaryPolicy;
  std::vector<StoredPoint> Points;
  uint64_t TotalEvents = 0;
  uint64_t ChunkCount = 0;
  uint64_t ChunksSeen = 0;
  bool Failed = false;
  std::vector<uint8_t> Payload; ///< Reused read/decode scratch.
};

namespace detail {

/// Chunk payload codec, exposed for tests: encodes \p Count events into
/// \p Out (replaced), eight bytes each, and decodes exactly \p Count
/// events from a payload. decodeChunkPayload returns false if the
/// payload is malformed: its size is not eight bytes per event, or an
/// event's is-write byte is not 0 or 1 or its hint byte has a bit above
/// bit 1 set.
void encodeChunkPayload(const TraceEvent *Events, size_t Count,
                        std::vector<uint8_t> &Out);
bool decodeChunkPayload(const uint8_t *Payload, size_t PayloadBytes,
                        size_t Count, std::vector<TraceEvent> &Out);

/// CRC-32 (IEEE 802.3, reflected) of \p Bytes, eight bytes per step
/// (slicing-by-8). Counts the bytes in `sim.store.crc-bytes`.
uint32_t crc32(const uint8_t *Bytes, size_t Count);

} // namespace detail

} // namespace urcm

#endif // URCM_SIM_TRACESTORE_H
