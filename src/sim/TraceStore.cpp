//===- TraceStore.cpp - Persistent trace store ----------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// See the header for the container format. Implementation notes:
//
//  * The sweep engine writes no chunks (format v5): its files hold the
//    header, the summary with its point records, and the footer. The
//    chunk framing serves the raw writer/reader API alone, and a chunk
//    payload is the events themselves, eight bytes each.
//
//  * Validation is front-loaded: TraceStoreReader::open checks the whole
//    file (CRCs included) before reporting Ok, so a reader never serves
//    a prefix of a file that turns out corrupt. After open, decode stays
//    bounds-checked anyway (the file could change under us); failures
//    turn into failed(), never UB. The chunks are checked in one serial
//    pass: each frame's bounds, then its payload's CRC, stopping at the
//    first failure in file order. The file is read, not mapped: mapped
//    page-cache pages count in the process's resident set, and a file
//    truncated under a mapping raises SIGBUS instead of a diagnostic.
//    The header's constant words are checked too, so every byte of a
//    file is covered by a check.
//
//  * Writes go to a temp file published by atomic rename, so two
//    processes recording the same program race benignly and crashes
//    leave no partial store behind.
//
//===----------------------------------------------------------------------===//

#include "urcm/sim/TraceStore.h"

#include "urcm/support/Telemetry.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h> // getpid (temp-file uniqueness).

using namespace urcm;

URCM_STAT(NumStoreBytesWritten, "sim.store.bytes-written",
          "Bytes written to published store files");
URCM_STAT(NumStoreBytesRead, "sim.store.bytes-read",
          "Store file bytes read and validated");
URCM_STAT(StoreDecodeNs, "sim.store.decode-ns",
          "Nanoseconds spent decoding store chunks into trace events");
URCM_STAT(NumCrcBytes, "sim.store.crc-bytes", "Bytes CRC-checked");

//===----------------------------------------------------------------------===//
// Primitive codecs.
//===----------------------------------------------------------------------===//

namespace {

constexpr char HeaderMagic[8] = {'U', 'R', 'C', 'M', 'T', 'R', 'C', '\x01'};
constexpr char FooterMagic[8] = {'U', 'R', 'C', 'M', 'E', 'N', 'D', '\x01'};
// v2: chunk payloads carry the static reference id (attribution
// profiler). v3: the summary records
// the data-cache policy and seed its cache row was measured under. v4:
// the summary ends with one record per replayed sweep point. v5: the
// sweep engine writes no chunks; an older reader must reject such a
// file rather than replay its empty chunk stream as the trace. The
// version is part of the content-hash salt below, so bumping it retires
// existing files as plain misses — no migration path needed.
constexpr uint32_t FormatVersion = 5;
constexpr uint32_t ChunkSentinel = 0xFFFFFFFFu;
/// Sanity bounds a corrupt length field must not exceed (decode buffers
/// are allocated from these numbers, so garbage must be caught before
/// it sizes an allocation).
constexpr uint32_t MaxChunkPayloadBytes = 1u << 26; // 64 MB
constexpr uint32_t MaxChunkEvents = 1u << 22;       // 4M events
constexpr uint32_t MaxSummaryBytes = 1u << 26;

uint64_t zigzag(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^
         static_cast<uint64_t>(V >> 63);
}

int64_t unzigzag(uint64_t Z) {
  return static_cast<int64_t>((Z >> 1) ^ (~(Z & 1) + 1));
}

void appendVarint(std::vector<uint8_t> &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<uint8_t>(V) | 0x80);
    V >>= 7;
  }
  Out.push_back(static_cast<uint8_t>(V));
}

/// Bounds-checked LEB128 read; false on overrun or an over-long (>10
/// byte) encoding.
bool readVarint(const uint8_t *Bytes, size_t Size, size_t &Pos,
                uint64_t &Out) {
  uint64_t V = 0;
  for (unsigned Shift = 0; Shift < 64; Shift += 7) {
    if (Pos >= Size)
      return false;
    uint8_t B = Bytes[Pos++];
    V |= static_cast<uint64_t>(B & 0x7F) << Shift;
    if (!(B & 0x80)) {
      Out = V;
      return true;
    }
  }
  return false;
}

void appendMagic(std::vector<uint8_t> &Out, const char (&Magic)[8]) {
  for (char C : Magic)
    Out.push_back(static_cast<uint8_t>(C));
}

void appendLE32(std::vector<uint8_t> &Out, uint32_t V) {
  Out.push_back(static_cast<uint8_t>(V));
  Out.push_back(static_cast<uint8_t>(V >> 8));
  Out.push_back(static_cast<uint8_t>(V >> 16));
  Out.push_back(static_cast<uint8_t>(V >> 24));
}

void appendLE64(std::vector<uint8_t> &Out, uint64_t V) {
  appendLE32(Out, static_cast<uint32_t>(V));
  appendLE32(Out, static_cast<uint32_t>(V >> 32));
}

uint32_t readLE32(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | static_cast<uint32_t>(P[1]) << 8 |
         static_cast<uint32_t>(P[2]) << 16 |
         static_cast<uint32_t>(P[3]) << 24;
}

uint64_t readLE64(const uint8_t *P) {
  return static_cast<uint64_t>(readLE32(P)) |
         static_cast<uint64_t>(readLE32(P + 4)) << 32;
}

/// Slicing-by-8 tables for the IEEE 802.3 reflected polynomial. T[0] is
/// the classic byte-at-a-time table; T[K][B] is the CRC contribution of
/// byte B followed by K zero bytes, so eight lookups advance the CRC over
/// eight input bytes at once.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables makeCrcTables() {
  CrcTables T{};
  for (uint32_t I = 0; I != 256; ++I) {
    uint32_t C = I;
    for (int K = 0; K != 8; ++K)
      C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
    T[0][I] = C;
  }
  for (size_t K = 1; K != 8; ++K)
    for (uint32_t I = 0; I != 256; ++I)
      T[K][I] = (T[K - 1][I] >> 8) ^ T[0][T[K - 1][I] & 0xFF];
  return T;
}

constexpr CrcTables CrcSlices = makeCrcTables();

} // namespace

uint32_t urcm::detail::crc32(const uint8_t *Bytes, size_t Count) {
  NumCrcBytes.add(Count);
  uint32_t C = 0xFFFFFFFFu;
  for (; Count >= 8; Bytes += 8, Count -= 8) {
    const uint32_t Lo = readLE32(Bytes) ^ C;
    const uint32_t Hi = readLE32(Bytes + 4);
    C = CrcSlices[7][Lo & 0xFF] ^ CrcSlices[6][(Lo >> 8) & 0xFF] ^
        CrcSlices[5][(Lo >> 16) & 0xFF] ^ CrcSlices[4][Lo >> 24] ^
        CrcSlices[3][Hi & 0xFF] ^ CrcSlices[2][(Hi >> 8) & 0xFF] ^
        CrcSlices[1][(Hi >> 16) & 0xFF] ^ CrcSlices[0][Hi >> 24];
  }
  for (; Count != 0; ++Bytes, --Count)
    C = CrcSlices[0][(C ^ *Bytes) & 0xFF] ^ (C >> 8);
  return ~C;
}

//===----------------------------------------------------------------------===//
// Chunk payload codec.
//===----------------------------------------------------------------------===//

namespace {

/// Bytes of one event in a chunk payload.
constexpr size_t EventBytes = 8;

/// Hint-byte bits of an event; the other six must be clear.
constexpr uint8_t BypassBit = 1, LastRefBit = 2;

} // namespace

void urcm::detail::encodeChunkPayload(const TraceEvent *Events,
                                      size_t Count,
                                      std::vector<uint8_t> &Out) {
  Out.resize(Count * EventBytes);
  uint8_t *P = Out.data();
  for (size_t I = 0; I != Count; ++I, P += EventBytes) {
    const TraceEvent &E = Events[I];
    P[0] = static_cast<uint8_t>(E.Addr);
    P[1] = static_cast<uint8_t>(E.Addr >> 8);
    P[2] = static_cast<uint8_t>(E.Addr >> 16);
    P[3] = static_cast<uint8_t>(E.Addr >> 24);
    P[4] = E.IsWrite ? 1 : 0;
    P[5] = static_cast<uint8_t>((E.Info.Bypass ? BypassBit : 0) |
                                (E.Info.LastRef ? LastRefBit : 0));
    P[6] = static_cast<uint8_t>(E.RefId);
    P[7] = static_cast<uint8_t>(E.RefId >> 8);
  }
}

bool urcm::detail::decodeChunkPayload(const uint8_t *Payload,
                                      size_t PayloadBytes, size_t Count,
                                      std::vector<TraceEvent> &Out) {
  Out.clear();
  if (PayloadBytes % EventBytes != 0 || PayloadBytes / EventBytes != Count)
    return false;
  Out.resize(Count);
  const uint8_t *P = Payload;
  for (size_t I = 0; I != Count; ++I, P += EventBytes) {
    // Only bytes the encoder writes are accepted: consumers compare
    // events as raw words, so a stray bit would make an event that
    // equals no recorded one.
    if (P[4] > 1 || (P[5] & ~(BypassBit | LastRefBit)) != 0) {
      Out.clear();
      return false;
    }
    TraceEvent &E = Out[I];
    E.Addr = readLE32(P);
    E.IsWrite = P[4] != 0;
    E.Info = TraceEvent::Hints((P[5] & BypassBit) != 0,
                               (P[5] & LastRefBit) != 0);
    E.RefId = static_cast<uint16_t>(P[6] | P[7] << 8);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// SimResult summary codec (Trace field excluded by construction).
//===----------------------------------------------------------------------===//

namespace {

/// The CacheStats counters in serialization order. Listing them once
/// keeps encode and decode in lock-step; adding a field here without
/// bumping FormatVersion would silently corrupt old files, so the
/// format version must change with this list.
std::array<uint64_t *, 16> statsFields(CacheStats &S) {
  return {&S.Reads,          &S.Writes,
          &S.ReadHits,       &S.WriteHits,
          &S.Fills,          &S.FillWords,
          &S.WriteBacks,     &S.WriteBackWords,
          &S.Evictions,      &S.DeadFrees,
          &S.DeadWriteBacksAvoided, &S.BypassReads,
          &S.BypassWrites,   &S.BypassHitMigrations,
          &S.WriteThroughWords, &S.FlushWriteBackWords};
}

/// Policy byte of a summary whose cache row's policy is unknown.
constexpr uint8_t UnknownSummaryPolicy = 0xFF;

void serializeSummary(const SimResult &R,
                      const std::optional<SummaryCachePolicy> &Measured,
                      const std::vector<StoredPoint> &Points,
                      std::vector<uint8_t> &Out) {
  Out.clear();
  Out.push_back(Measured ? static_cast<uint8_t>(Measured->Policy)
                         : UnknownSummaryPolicy);
  appendVarint(Out, Measured ? Measured->Seed : 0);
  Out.push_back(R.Halted ? 1 : 0);
  appendVarint(Out, R.Error.size());
  Out.insert(Out.end(), R.Error.begin(), R.Error.end());
  appendVarint(Out, R.Steps);
  appendVarint(Out, R.Output.size());
  for (int64_t V : R.Output)
    appendVarint(Out, zigzag(V));
  // Const-cast through the shared field list so encode and decode use
  // the identical ordering.
  CacheStats Cache = R.Cache, ICache = R.ICache;
  for (uint64_t *F : statsFields(Cache))
    appendVarint(Out, *F);
  appendVarint(Out, R.Refs.Unambiguous);
  appendVarint(Out, R.Refs.Ambiguous);
  appendVarint(Out, R.Refs.Spill);
  appendVarint(Out, R.Refs.Unknown);
  appendVarint(Out, R.Refs.Bypassed);
  appendVarint(Out, R.Refs.LastRefTagged);
  for (uint64_t *F : statsFields(ICache))
    appendVarint(Out, *F);
  appendVarint(Out, R.InstructionFetches);
  appendVarint(Out, R.BypassTransitions);
  appendVarint(Out, R.CoherenceViolations);
  appendVarint(Out, Points.size());
  for (const StoredPoint &P : Points) {
    appendVarint(Out, P.Config.NumLines);
    appendVarint(Out, P.Config.Assoc);
    appendVarint(Out, P.Config.LineWords);
    Out.push_back(static_cast<uint8_t>(P.Config.Policy));
    Out.push_back(static_cast<uint8_t>(P.Config.Write));
    appendVarint(Out, P.Config.Seed);
    Out.push_back(P.IgnoreHints ? 1 : 0);
    CacheStats Stats = P.Stats;
    for (uint64_t *F : statsFields(Stats))
      appendVarint(Out, *F);
  }
}

/// Decodes one point record at \p Pos into \p P. On failure returns
/// false with the reason in \p Why (left alone for a plain overrun).
bool deserializePoint(const uint8_t *Bytes, size_t Size, size_t &Pos,
                      StoredPoint &P, std::string &Why) {
  uint64_t Geometry[3];
  for (uint64_t &G : Geometry)
    if (!readVarint(Bytes, Size, Pos, G) || G > UINT32_MAX)
      return false;
  if (Size - Pos < 2)
    return false;
  const uint8_t PolicyByte = Bytes[Pos++], WriteByte = Bytes[Pos++];
  if (PolicyByte > static_cast<uint8_t>(CachePolicy::LivenessBypass)) {
    Why = "stored point records unknown cache policy " +
          std::to_string(PolicyByte);
    return false;
  }
  if (WriteByte > 1) {
    Why = "stored point records unknown write policy " +
          std::to_string(WriteByte);
    return false;
  }
  P.Config.NumLines = static_cast<uint32_t>(Geometry[0]);
  P.Config.Assoc = static_cast<uint32_t>(Geometry[1]);
  P.Config.LineWords = static_cast<uint32_t>(Geometry[2]);
  P.Config.Policy = static_cast<CachePolicy>(PolicyByte);
  P.Config.Write = static_cast<WritePolicy>(WriteByte);
  if (const char *Bad = validateCacheConfig(P.Config, P.Config.Policy)) {
    Why = std::string("stored point records an invalid cache: ") + Bad;
    return false;
  }
  if (!readVarint(Bytes, Size, Pos, P.Config.Seed) || Pos >= Size ||
      Bytes[Pos] > 1)
    return false;
  P.IgnoreHints = Bytes[Pos++] != 0;
  for (uint64_t *F : statsFields(P.Stats))
    if (!readVarint(Bytes, Size, Pos, *F))
      return false;
  return true;
}

/// Decodes a summary into \p R, \p Measured and \p Points. On failure
/// returns false with the reason in \p Why.
bool deserializeSummary(const uint8_t *Bytes, size_t Size, SimResult &R,
                        std::optional<SummaryCachePolicy> &Measured,
                        std::vector<StoredPoint> &Points,
                        std::string &Why) {
  Why = "malformed summary";
  size_t Pos = 0;
  uint64_t V;
  if (Size < 1)
    return false;
  const uint8_t PolicyByte = Bytes[Pos++];
  if (!readVarint(Bytes, Size, Pos, V))
    return false;
  Measured.reset();
  if (PolicyByte != UnknownSummaryPolicy) {
    if (PolicyByte > static_cast<uint8_t>(CachePolicy::LivenessBypass)) {
      Why = "summary records unknown cache policy " +
            std::to_string(PolicyByte);
      return false;
    }
    Measured = SummaryCachePolicy{static_cast<CachePolicy>(PolicyByte), V};
  }
  if (Pos >= Size)
    return false;
  R.Halted = Bytes[Pos++] != 0;
  if (!readVarint(Bytes, Size, Pos, V) || V > Size - Pos)
    return false;
  R.Error.assign(reinterpret_cast<const char *>(Bytes + Pos),
                 static_cast<size_t>(V));
  Pos += static_cast<size_t>(V);
  if (!readVarint(Bytes, Size, Pos, R.Steps))
    return false;
  if (!readVarint(Bytes, Size, Pos, V) || V > MaxSummaryBytes)
    return false;
  R.Output.clear();
  R.Output.reserve(static_cast<size_t>(V));
  for (uint64_t I = 0, N = V; I != N; ++I) {
    if (!readVarint(Bytes, Size, Pos, V))
      return false;
    R.Output.push_back(unzigzag(V));
  }
  for (uint64_t *F : statsFields(R.Cache))
    if (!readVarint(Bytes, Size, Pos, *F))
      return false;
  if (!readVarint(Bytes, Size, Pos, R.Refs.Unambiguous) ||
      !readVarint(Bytes, Size, Pos, R.Refs.Ambiguous) ||
      !readVarint(Bytes, Size, Pos, R.Refs.Spill) ||
      !readVarint(Bytes, Size, Pos, R.Refs.Unknown) ||
      !readVarint(Bytes, Size, Pos, R.Refs.Bypassed) ||
      !readVarint(Bytes, Size, Pos, R.Refs.LastRefTagged))
    return false;
  for (uint64_t *F : statsFields(R.ICache))
    if (!readVarint(Bytes, Size, Pos, *F))
      return false;
  if (!readVarint(Bytes, Size, Pos, R.InstructionFetches) ||
      !readVarint(Bytes, Size, Pos, R.BypassTransitions) ||
      !readVarint(Bytes, Size, Pos, R.CoherenceViolations))
    return false;
  // Every record takes well over one byte, so a count above the bytes
  // left is corrupt; checking it first bounds the reservation.
  if (!readVarint(Bytes, Size, Pos, V) || V > Size - Pos)
    return false;
  Points.assign(static_cast<size_t>(V), StoredPoint());
  for (StoredPoint &P : Points)
    if (!deserializePoint(Bytes, Size, Pos, P, Why))
      return false;
  R.Trace.clear();
  return Pos == Size;
}

} // namespace

//===----------------------------------------------------------------------===//
// Content hash.
//===----------------------------------------------------------------------===//

namespace {

/// FNV-1a over a canonical little-endian serialization.
struct Fnv1a {
  uint64_t H = 14695981039346656037ull;

  void bytes(const void *Data, size_t Size) {
    const uint8_t *P = static_cast<const uint8_t *>(Data);
    for (size_t I = 0; I != Size; ++I) {
      H ^= P[I];
      H *= 1099511628211ull;
    }
  }
  void u8(uint8_t V) { bytes(&V, 1); }
  void u32(uint32_t V) {
    uint8_t B[4] = {static_cast<uint8_t>(V), static_cast<uint8_t>(V >> 8),
                    static_cast<uint8_t>(V >> 16),
                    static_cast<uint8_t>(V >> 24)};
    bytes(B, 4);
  }
  void u64(uint64_t V) {
    u32(static_cast<uint32_t>(V));
    u32(static_cast<uint32_t>(V >> 32));
  }
  void str(const std::string &S) {
    u64(S.size());
    bytes(S.data(), S.size());
  }
};

void hashCacheConfig(Fnv1a &H, const CacheConfig &C) {
  H.u32(C.NumLines);
  H.u32(C.Assoc);
  H.u32(C.LineWords);
  H.u8(static_cast<uint8_t>(C.Policy));
  H.u8(static_cast<uint8_t>(C.Write));
  H.u64(C.Seed);
}

/// The data cache is a pure observer of the reference stream: the trace
/// a run records is identical under every replacement policy and RNG
/// seed, so neither salts the content hash. One stored trace therefore
/// warm-serves the whole policy grid. The summary records the policy and
/// seed its cache row was measured under; SweepEngine::serveFromStore
/// uses that row when they match the base configuration and re-derives
/// the base counters by replay when they do not. Geometry and the write
/// policy stay salted conservatively: they are cheap to keep, and
/// narrowing the invariant to "policy and seed are observers" is the
/// exact guarantee the sweep's policy grid needs.
void hashDataGeometry(Fnv1a &H, const CacheConfig &C) {
  H.u32(C.NumLines);
  H.u32(C.Assoc);
  H.u32(C.LineWords);
  H.u8(static_cast<uint8_t>(C.Write));
}

} // namespace

uint64_t urcm::traceContentHash(const MachineProgram &Prog,
                                const SimConfig &Config) {
  Fnv1a H;
  // Format salt: bumping FormatVersion retires every existing file.
  H.bytes(HeaderMagic, sizeof(HeaderMagic));
  H.u32(FormatVersion);

  // The program: everything execution touches. MemInfo.Class feeds the
  // DynamicRefStats in the stored summary, so it is part of the
  // fingerprint even though the cache never sees it.
  H.u64(Prog.Code.size());
  for (const MInst &I : Prog.Code) {
    H.u8(static_cast<uint8_t>(I.Op));
    H.u32(I.Rd);
    H.u32(I.Rs1);
    H.u32(I.Rs2);
    H.u64(static_cast<uint64_t>(I.Imm));
    H.u8(I.UseImm ? 1 : 0);
    H.u32(I.Target);
    H.u8(static_cast<uint8_t>(I.MemInfo.Class));
    H.u8(I.MemInfo.Bypass ? 1 : 0);
    H.u8(I.MemInfo.LastRef ? 1 : 0);
    H.u32(static_cast<uint32_t>(I.MemInfo.AliasSetId));
    H.u8(I.CodeDeadHint ? 1 : 0);
  }
  H.u32(Prog.EntryIndex);
  H.u64(Prog.Globals.size());
  for (const MachineProgram::GlobalLayout &G : Prog.Globals) {
    H.str(G.Name);
    H.u32(G.Address);
    H.u32(G.SizeWords);
  }
  H.u64(Prog.GlobalBase);
  H.u64(Prog.StackTop);

  // Simulation inputs that can change the trace or the stored summary.
  // The execution engine, sinks, chunk sizes and reserve hints are pure
  // observers and deliberately excluded.
  H.u64(Config.MaxSteps);
  H.u8(Config.Paranoid ? 1 : 0);
  hashDataGeometry(H, Config.Cache);
  H.u8(Config.ModelICache ? 1 : 0);
  if (Config.ModelICache)
    hashCacheConfig(H, Config.ICache);
  return H.H;
}

std::string urcm::traceStorePath(const std::string &Dir,
                                 uint64_t ContentHash) {
  char Name[32];
  std::snprintf(Name, sizeof(Name), "%016llx.urctrc",
                static_cast<unsigned long long>(ContentHash));
  std::string Path = Dir;
  if (!Path.empty() && Path.back() != '/')
    Path += '/';
  return Path + Name;
}

//===----------------------------------------------------------------------===//
// TraceStoreWriter
//===----------------------------------------------------------------------===//

TraceStoreWriter::~TraceStoreWriter() { discard(); }

bool TraceStoreWriter::open(const std::string &Dir, uint64_t ContentHash,
                            DiagnosticEngine &Diags) {
  discard();
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC) {
    Diags.error({}, "trace store: cannot create directory '" + Dir +
                        "': " + EC.message());
    return false;
  }
  FinalPath = traceStorePath(Dir, ContentHash);
  // Unique per process and per writer: concurrent recorders of the same
  // program write distinct temp files and race only on the final
  // rename, which is atomic (both published files are valid).
  static std::atomic<uint64_t> Seq{0};
  TempPath = FinalPath + ".tmp." + std::to_string(::getpid()) + "." +
             std::to_string(Seq.fetch_add(1, std::memory_order_relaxed));
  File = std::fopen(TempPath.c_str(), "wb");
  if (!File) {
    Diags.error({}, "trace store: cannot create '" + TempPath +
                        "': " + std::strerror(errno));
    TempPath.clear();
    return false;
  }
  Hash = ContentHash;
  Events = Chunks = BytesWritten = 0;
  Failed = false;
  Pending.clear();

  std::vector<uint8_t> Header;
  appendMagic(Header, HeaderMagic);
  appendLE32(Header, FormatVersion);
  appendLE32(Header, 0); // Flags, reserved.
  appendLE64(Header, Hash);
  appendLE32(Header, ChunkEvents);
  appendLE32(Header, 0); // Reserved.
  if (std::fwrite(Header.data(), 1, Header.size(), File) != Header.size())
    Failed = true;
  BytesWritten += Header.size();
  return true;
}

void TraceStoreWriter::append(const TraceEvent *EventsIn, size_t Count) {
  if (!File || Failed)
    return;
  Pending.reserve(ChunkEvents);
  while (Count != 0) {
    const size_t Room = ChunkEvents - Pending.size();
    const size_t Take = std::min(Room, Count);
    Pending.insert(Pending.end(), EventsIn, EventsIn + Take);
    EventsIn += Take;
    Count -= Take;
    if (Pending.size() == ChunkEvents && !flushChunk())
      return;
  }
}

bool TraceStoreWriter::flushChunk() {
  if (Pending.empty())
    return true;
  detail::encodeChunkPayload(Pending.data(), Pending.size(), Encoded);
  std::vector<uint8_t> ChunkHeader;
  appendLE32(ChunkHeader, static_cast<uint32_t>(Encoded.size()));
  appendLE32(ChunkHeader, static_cast<uint32_t>(Pending.size()));
  appendLE32(ChunkHeader,
             detail::crc32(Encoded.data(), Encoded.size()));
  if (std::fwrite(ChunkHeader.data(), 1, ChunkHeader.size(), File) !=
          ChunkHeader.size() ||
      std::fwrite(Encoded.data(), 1, Encoded.size(), File) !=
          Encoded.size()) {
    Failed = true;
    return false;
  }
  BytesWritten += ChunkHeader.size() + Encoded.size();
  Events += Pending.size();
  ++Chunks;
  Pending.clear();
  return true;
}

bool TraceStoreWriter::commit(const SimResult &Summary,
                              const CacheConfig &Measured,
                              DiagnosticEngine &Diags,
                              const std::vector<StoredPoint> &Points) {
  return commitSummary(Summary,
                       SummaryCachePolicy{Measured.Policy, Measured.Seed},
                       Points, Diags);
}

bool TraceStoreWriter::commit(const SimResult &Summary,
                              DiagnosticEngine &Diags) {
  return commitSummary(Summary, std::nullopt, {}, Diags);
}

bool TraceStoreWriter::commitSummary(
    const SimResult &Summary,
    const std::optional<SummaryCachePolicy> &Measured,
    const std::vector<StoredPoint> &Points, DiagnosticEngine &Diags) {
  if (!File)
    return false; // open() already reported.
  flushChunk();
  if (!Failed) {
    std::vector<uint8_t> Tail;
    appendLE32(Tail, ChunkSentinel);
    serializeSummary(Summary, Measured, Points, Encoded);
    appendLE32(Tail, static_cast<uint32_t>(Encoded.size()));
    Tail.insert(Tail.end(), Encoded.begin(), Encoded.end());
    appendLE32(Tail, detail::crc32(Encoded.data(), Encoded.size()));
    appendLE64(Tail, Events);
    appendLE64(Tail, Chunks);
    appendMagic(Tail, FooterMagic);
    if (std::fwrite(Tail.data(), 1, Tail.size(), File) != Tail.size() ||
        std::fflush(File) != 0 || std::ferror(File))
      Failed = true;
    BytesWritten += Tail.size();
  }
  std::fclose(File);
  File = nullptr;
  if (!Failed && std::rename(TempPath.c_str(), FinalPath.c_str()) != 0)
    Failed = true;
  if (Failed) {
    std::remove(TempPath.c_str());
    Diags.error({}, "trace store: failed to write '" + FinalPath +
                        "': " + std::strerror(errno));
    TempPath.clear();
    return false;
  }
  TempPath.clear();
  NumStoreBytesWritten.add(BytesWritten);
  return true;
}

void TraceStoreWriter::discard() {
  if (File) {
    std::fclose(File);
    File = nullptr;
  }
  if (!TempPath.empty()) {
    std::remove(TempPath.c_str());
    TempPath.clear();
  }
}

//===----------------------------------------------------------------------===//
// TraceStoreReader
//===----------------------------------------------------------------------===//

TraceStoreReader::~TraceStoreReader() {
  if (File)
    std::fclose(File);
}

namespace {

/// Reads exactly \p Size bytes; false on short read.
bool readExact(std::FILE *File, void *Out, size_t Size) {
  return std::fread(Out, 1, Size, File) == Size;
}

/// Bytes of the file header; the first chunk starts right after it.
constexpr long HeaderBytes = 32;

/// Bytes of framing in front of every chunk payload: length, event
/// count, CRC.
constexpr uint64_t ChunkHeaderBytes = 12;

} // namespace

TraceStoreReader::OpenStatus
TraceStoreReader::open(const std::string &Path, uint64_t ExpectHash,
                       DiagnosticEngine &Diags) {
  if (File) {
    std::fclose(File);
    File = nullptr;
  }
  Failed = false;
  ChunksSeen = 0;

  // Non-blocking, so a FIFO at the path cannot stall the open; it is
  // rejected below as not a regular file.
  const int Fd = ::open(Path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  int OpenErrno = errno;
  if (Fd >= 0) {
    File = ::fdopen(Fd, "rb");
    OpenErrno = errno;
    if (!File)
      ::close(Fd);
  }
  if (!File) {
    // A missing file is a plain cache miss, not a corruption report.
    if (OpenErrno != ENOENT)
      Diags.error({}, "trace store: cannot open '" + Path +
                          "': " + std::strerror(OpenErrno));
    return OpenErrno == ENOENT ? OpenStatus::NotFound : OpenStatus::Invalid;
  }

  auto Reject = [&](const std::string &Why) {
    Diags.error({}, "trace store: rejecting '" + Path + "': " + Why +
                        " (falling back to live simulation)");
    std::fclose(File);
    File = nullptr;
    return OpenStatus::Invalid;
  };

  struct stat St;
  if (::fstat(Fd, &St) != 0)
    return Reject(std::string("cannot stat: ") + std::strerror(errno));
  if (!S_ISREG(St.st_mode))
    return Reject("not a regular file");
  ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL) & ~O_NONBLOCK);
  const uint64_t FileSize = static_cast<uint64_t>(St.st_size);

  uint8_t Header[HeaderBytes];
  if (!readExact(File, Header, sizeof(Header)))
    return Reject("truncated header");
  if (std::memcmp(Header, HeaderMagic, 8) != 0)
    return Reject("bad magic (not a trace store file)");
  if (readLE32(Header + 8) != FormatVersion)
    return Reject("format version " + std::to_string(readLE32(Header + 8)) +
                  " (expected " + std::to_string(FormatVersion) + ")");
  // The writer writes these three words as constants; anything else is
  // corruption the CRCs (which cover only payloads) would not see.
  if (readLE32(Header + 12) != 0)
    return Reject("nonzero header flags " +
                  std::to_string(readLE32(Header + 12)));
  if (readLE64(Header + 16) != ExpectHash)
    return Reject("content hash mismatch (recorded for a different "
                  "program or simulation configuration)");
  if (readLE32(Header + 24) != TraceStoreWriter::ChunkEvents)
    return Reject("nominal chunk size " +
                  std::to_string(readLE32(Header + 24)) + " (expected " +
                  std::to_string(TraceStoreWriter::ChunkEvents) + ")");
  if (readLE32(Header + 28) != 0)
    return Reject("nonzero reserved header word " +
                  std::to_string(readLE32(Header + 28)));

  // Validate every chunk before serving anything: corruption discovered
  // mid-replay cannot be recovered from without restarting the replay
  // consumers. One pass in file order checks each frame's bounds, that
  // its payload ends inside the file (so a corrupt length is caught
  // before anything is allocated for it) and holds eight bytes per
  // event, then the payload's CRC; the first failure is the one
  // reported.
  uint64_t SeenEvents = 0, SeenChunks = 0;
  for (uint64_t At = sizeof(Header);; ++SeenChunks) {
    uint8_t Frame[ChunkHeaderBytes];
    if (!readExact(File, Frame, 4))
      return Reject("truncated chunk stream");
    const uint32_t PayloadBytes = readLE32(Frame);
    if (PayloadBytes == ChunkSentinel)
      break;
    if (!readExact(File, Frame + 4, 8))
      return Reject("truncated chunk header");
    const uint32_t Count = readLE32(Frame + 4);
    if (PayloadBytes > MaxChunkPayloadBytes || Count > MaxChunkEvents)
      return Reject("implausible chunk size (corrupt length field)");
    const uint64_t Span = ChunkHeaderBytes + PayloadBytes;
    if (At > FileSize || FileSize - At < Span)
      return Reject("truncated chunk payload");
    const std::string Chunk = "chunk " + std::to_string(SeenChunks);
    if (PayloadBytes != uint64_t(Count) * EventBytes)
      return Reject(Chunk + " holds " + std::to_string(PayloadBytes) +
                    " bytes for " + std::to_string(Count) +
                    " events (expected 8 per event)");
    Payload.resize(PayloadBytes);
    if (!readExact(File, Payload.data(), PayloadBytes))
      return Reject("truncated chunk payload");
    if (detail::crc32(Payload.data(), PayloadBytes) != readLE32(Frame + 8))
      return Reject(Chunk + " CRC mismatch");
    At += Span;
    SeenEvents += Count;
  }

  uint8_t Word[4];
  if (!readExact(File, Word, 4))
    return Reject("truncated summary");
  const uint32_t SummaryBytes = readLE32(Word);
  if (SummaryBytes > MaxSummaryBytes)
    return Reject("implausible summary size");
  const long SummaryAt = std::ftell(File);
  if (SummaryAt < 0 ||
      FileSize - static_cast<uint64_t>(SummaryAt) < SummaryBytes)
    return Reject("truncated summary payload");
  Payload.resize(SummaryBytes);
  if (!readExact(File, Payload.data(), SummaryBytes))
    return Reject("truncated summary payload");
  uint8_t SummaryCrc[4];
  if (!readExact(File, SummaryCrc, 4))
    return Reject("truncated summary CRC");
  if (detail::crc32(Payload.data(), SummaryBytes) != readLE32(SummaryCrc))
    return Reject("summary CRC mismatch");
  std::string Why;
  if (!deserializeSummary(Payload.data(), SummaryBytes, Summary,
                          SummaryPolicy, Points, Why))
    return Reject(Why);

  uint8_t Footer[24];
  if (!readExact(File, Footer, sizeof(Footer)))
    return Reject("truncated footer");
  if (std::memcmp(Footer + 16, FooterMagic, 8) != 0)
    return Reject("bad footer magic");
  TotalEvents = readLE64(Footer);
  ChunkCount = readLE64(Footer + 8);
  if (TotalEvents != SeenEvents || ChunkCount != SeenChunks)
    return Reject("footer counts disagree with chunk contents");
  if (std::fgetc(File) != EOF)
    return Reject("trailing bytes after footer");

  NumStoreBytesRead.add(static_cast<uint64_t>(std::ftell(File)));
  if (std::fseek(File, HeaderBytes, SEEK_SET) != 0)
    return Reject("seek failed");
  return OpenStatus::Ok;
}

bool TraceStoreReader::next(std::vector<TraceEvent> &Chunk) {
  Chunk.clear();
  if (!File || Failed || ChunksSeen == ChunkCount)
    return false;
  // The file was fully validated by open(), but it may have changed on
  // disk since; every read and decode below fails cleanly instead of
  // trusting the earlier pass.
  uint8_t Header[12];
  if (!readExact(File, Header, sizeof(Header))) {
    Failed = true;
    return false;
  }
  const uint32_t PayloadBytes = readLE32(Header);
  const uint32_t Count = readLE32(Header + 4);
  if (PayloadBytes == ChunkSentinel || PayloadBytes > MaxChunkPayloadBytes ||
      Count > MaxChunkEvents) {
    Failed = true;
    return false;
  }
  Payload.resize(PayloadBytes);
  if (!readExact(File, Payload.data(), PayloadBytes)) {
    Failed = true;
    return false;
  }
  const bool Metered = telemetry::enabled();
  const uint64_t T0 = Metered ? telemetry::nowNanos() : 0;
  if (!detail::decodeChunkPayload(Payload.data(), PayloadBytes, Count,
                                  Chunk)) {
    Failed = true;
    return false;
  }
  if (Metered)
    StoreDecodeNs.add(telemetry::nowNanos() - T0);
  ++ChunksSeen;
  return true;
}

void TraceStoreReader::rewind() {
  if (!File)
    return;
  Failed = std::fseek(File, HeaderBytes, SEEK_SET) != 0;
  ChunksSeen = 0;
}
