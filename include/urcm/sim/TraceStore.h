//===- urcm/sim/TraceStore.h - Persistent compressed trace store -*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A persistent on-disk container for recorded data-reference traces:
/// record once, replay everywhere. The sweep engine made replay cheap
/// *within* a process (compile-once/replay-many); this store makes the
/// expensive part — executing the functional Simulator to produce the
/// reference stream — a once-per-program cost *across* processes: urcmc,
/// urcm_report, the bench binaries and the tests can all serve their
/// sweeps from one recorded trace.
///
/// ## Container format (version 4, little-endian)
///
///   header   : magic "URCMTRC\x01" (8) | version u32 | flags u32 (0) |
///              content-hash u64 | nominal chunk events u32 |
///              reserved u32
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
/// Each chunk payload is self-contained: first a packed bit stream of 6
/// bits per event (is-write, bypass, last-ref, a 2-bit delta-base
/// selector, and a ref-predicted bit), then the varint stream. The
/// encoder keeps a 4-entry ring of the most recent addresses
/// (zero-initialized per chunk) and encodes each address as a zigzag
/// delta against whichever entry gives the shortest varint —
/// stack/global/array streams interleave freely in real traces, and a
/// single "previous address" base would pay a 3-byte varint at every
/// region switch. The ref-predicted bit (new in version 2) carries the
/// static reference id for the attribution profiler: set, the event's
/// RefId is the predicted one (previous event's id plus one — ids are
/// numbered in code order, so straight-line runs match — or NoRefId
/// while the previous event was unnumbered, so hint-free traces cost
/// nothing); clear, a zigzag varint of the difference from the
/// prediction follows the address delta. Version 3 records in the
/// summary the data-cache replacement policy and seed its cache row was
/// measured under (see SummaryCachePolicy). Version 4 appends to the
/// summary one record per sweep point the recording run replayed (see
/// StoredPoint), so a later run asking for the same points reads their
/// counters instead of decoding and replaying the trace. The hint/kind
/// bits are packed separately from the varint stream so both stay
/// byte-aligned and branch-predictable to decode. Encoded size on the paper benchmarks
/// runs well under 1/3 of the raw 8-byte-per-event form (asserted by
/// bench/trace_store).
///
/// ## Invalidation and robustness
///
/// The header carries a content hash of the compiled MachineIR plus
/// every simulation input that can affect the result (see
/// traceContentHash), so stale traces self-invalidate: a reader opened
/// with a different expected hash rejects the file and the caller falls
/// back to live simulation. open() validates the *whole* file up front
/// (magic, version, hash, every chunk CRC, summary CRC, footer counts,
/// exact end-of-file), so a sweep served from an accepted store cannot
/// discover corruption halfway through feeding replay consumers. The
/// CRC is table-sliced (eight bytes per step), so this walk costs a
/// small fraction of decoding the same bytes.
/// Validation failures are reported through DiagnosticEngine — never
/// asserted — and decode stays bounds-checked even after a successful
/// open (a file mutated mid-read produces a clean failure, not UB).
///
/// Writers encode into a temp file in the store directory and publish
/// with an atomic rename, so concurrent processes recording the same
/// program race benignly (both files are valid; last rename wins) and a
/// crashed writer never leaves a half-written store behind.
///
/// ## Replay integration
///
/// streamStoredTrace() decodes chunks on a dedicated thread and feeds
/// them, in order, to a consumer on the calling thread through the same
/// recycled-buffer SPSC pipeline live generation uses
/// (urcm/sim/TraceStream.h): decode overlaps replay, each decoded chunk
/// is recycled as soon as its replay consumers finish, and peak memory
/// stays O(chunk) exactly as on the live streaming path. A summary whose
/// cache row was measured under the reader's own base configuration
/// answers that configuration without any decode at all, and so does a
/// stored point record for the point it describes: a run whose points
/// all have records decodes nothing.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_SIM_TRACESTORE_H
#define URCM_SIM_TRACESTORE_H

#include "urcm/codegen/MachineIR.h"
#include "urcm/sim/Simulator.h"
#include "urcm/support/Diagnostics.h"

#include <cstdint>
#include <cstdio>
#include <functional>
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

/// The counters of one sweep point the recording run replayed, stored in
/// the summary (format v4). Config is canonical: its Policy field is the
/// point's replay policy mapped through canonicalReplayPolicy, so every
/// point that replays identically finds the same record. No attribution
/// table is stored; points that want one are always replayed.
struct StoredPoint {
  CacheConfig Config;
  bool IgnoreHints = false;
  CacheStats Stats;
};

/// Records one trace into a store directory. Lifecycle: open() creates
/// the directory (if needed) and a temp file; append() encodes events
/// (any batch sizes — the writer re-chunks internally, so the file
/// layout is independent of the producer's chunking); commit() writes
/// the summary and footer and atomically publishes the file; discard()
/// (or destruction before commit) removes the temp file. append() is
/// single-producer: call it from one thread at a time (the simulating
/// thread, when teeing off a TraceSink).
class TraceStoreWriter {
public:
  TraceStoreWriter() = default;
  TraceStoreWriter(const TraceStoreWriter &) = delete;
  TraceStoreWriter &operator=(const TraceStoreWriter &) = delete;
  ~TraceStoreWriter();

  /// Events per encoded chunk (64K events = 512 KB raw): the decode
  /// granularity and the peak per-buffer memory on the warm path.
  static constexpr uint32_t ChunkEvents = 1u << 16;

  /// Creates \p Dir if missing and opens a temp file for the trace of
  /// \p ContentHash. On I/O failure reports to \p Diags and returns
  /// false (the writer stays closed; append/commit become no-ops, so
  /// recording failure can never fail the simulation it observes).
  bool open(const std::string &Dir, uint64_t ContentHash,
            DiagnosticEngine &Diags);
  bool isOpen() const { return File != nullptr; }

  /// Encodes and buffers the next \p Count events of the trace.
  void append(const TraceEvent *Events, size_t Count);

  /// Flushes the final chunk, writes the summary (\p Summary's Trace
  /// field is ignored — the chunks are the trace) and footer, and
  /// atomically renames the temp file into place. \p Measured is the
  /// data-cache configuration \p Summary's cache row was measured
  /// under; its policy and seed are recorded so a reader with the same
  /// base configuration can use the row as is. \p Points are the
  /// counters of replayed sweep points, stored so a later run can read
  /// them instead of replaying. Returns false (with a diagnostic) on I/O
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

  uint64_t eventCount() const { return Events; }
  /// Encoded bytes written so far (header + flushed chunks).
  uint64_t bytesWritten() const { return BytesWritten; }

private:
  bool flushChunk(); ///< Encodes and writes Pending; false on I/O error.
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

/// A recording-only TraceSink: every chunk is appended to the writer
/// and the (cleared) buffer handed straight back to the producer, so a
/// cold run with no replay consumers can still record its trace with
/// zero steady-state allocation. Also usable as the producer-side tap
/// of streamTrace() to tee recording off a replayed stream.
class TraceRecordSink : public TraceSink {
public:
  explicit TraceRecordSink(TraceStoreWriter &Writer) : Writer(Writer) {}

  std::vector<TraceEvent> chunk(std::vector<TraceEvent> Chunk) override {
    Writer.append(Chunk.data(), Chunk.size());
    Chunk.clear();
    return Chunk;
  }

private:
  TraceStoreWriter &Writer;
};

/// Reads one store file. open() fully validates before anything is
/// served; next() then decodes chunk by chunk into a caller-provided
/// buffer (capacity reused across calls).
class TraceStoreReader {
public:
  enum class OpenStatus {
    Ok,       ///< Validated; summary and chunks are servable.
    NotFound, ///< No file at the path (a cache miss, not an error).
    Invalid,  ///< Present but rejected (diagnostic explains why).
  };

  TraceStoreReader() = default;
  TraceStoreReader(const TraceStoreReader &) = delete;
  TraceStoreReader &operator=(const TraceStoreReader &) = delete;
  ~TraceStoreReader();

  /// Opens \p Path and validates the entire container: magic, version,
  /// content hash against \p ExpectHash, every chunk's CRC and size
  /// bound, the summary CRC, and the footer's event/chunk counts
  /// against what the chunks actually hold. Invalid files report one
  /// error to \p Diags; a missing file reports nothing (the caller
  /// treats it as a plain cache miss).
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

  /// Decodes the whole trace into \p Trace (replaced; reserved to the
  /// footer's event count). For multi-pass consumers (Belady MIN).
  /// Returns false on decode failure.
  bool readAll(std::vector<TraceEvent> &Trace);

private:
  std::FILE *File = nullptr;
  SimResult Summary;
  std::optional<SummaryCachePolicy> SummaryPolicy;
  std::vector<StoredPoint> Points;
  uint64_t TotalEvents = 0;
  uint64_t ChunkCount = 0;
  long ChunksBegin = 0;
  uint64_t ChunksSeen = 0;
  bool Failed = false;
  std::vector<uint8_t> Payload; ///< Reused read/decode scratch.
};

/// Feeds a validated reader's trace to \p Consume chunk by chunk, in
/// order, with decode running on a dedicated thread and delivery
/// through the recycled-buffer SPSC pipeline (peak memory O(chunk);
/// decode overlaps the consumer's replay work). Returns false if decode
/// failed mid-stream — the consumer may have seen a prefix of the
/// trace, so on false the caller must discard its replay state and fall
/// back to live simulation.
bool streamStoredTrace(
    TraceStoreReader &Reader,
    const std::function<void(const TraceEvent *, size_t)> &Consume,
    size_t QueueDepth = 4);

namespace detail {

/// Chunk payload codec, exposed for tests: encodes \p Count events into
/// \p Out (replaced), and decodes exactly \p Count events from a
/// payload. decodeChunkPayload returns false if the payload is
/// malformed (short streams, varint overruns) — bounds-checked
/// throughout.
void encodeChunkPayload(const TraceEvent *Events, size_t Count,
                        std::vector<uint8_t> &Out);
bool decodeChunkPayload(const uint8_t *Payload, size_t PayloadBytes,
                        size_t Count, std::vector<TraceEvent> &Out);

/// CRC-32 (IEEE 802.3, reflected) of \p Bytes, eight bytes per step
/// (slicing-by-8).
uint32_t crc32(const uint8_t *Bytes, size_t Count);

} // namespace detail

} // namespace urcm

#endif // URCM_SIM_TRACESTORE_H
