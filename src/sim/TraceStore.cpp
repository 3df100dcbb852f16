//===- TraceStore.cpp - Persistent compressed trace store ----------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// See the header for the container format. Implementation notes:
//
//  * The codec is deliberately boring: a packed 6-bit-per-event flag
//    stream (is-write, bypass, last-ref, 2-bit delta-base selector,
//    ref-predicted) followed by a byte-aligned varint stream of zigzag
//    LEB128 address deltas against a 4-entry recent-address ring. Real
//    traces interleave stack, global and array streams; the ring lets
//    each stream delta against its own last address (usually a 1-byte
//    varint) instead of paying a 3-byte varint at every region switch.
//    The ref-predicted bit (v2) carries the static reference id: set,
//    the event's RefId is the predicted one — previous RefId plus one,
//    or NoRefId while the previous was NoRefId — which makes both
//    straight-line code (ids are numbered in code order) and unnumbered
//    traces free; clear, a zigzag varint of (RefId - predicted) follows
//    the event's address delta in the varint stream. Both streams are
//    byte-aligned and chunk-self-contained (ring and RefId predictor
//    reset per chunk), so any chunk decodes independently of the rest
//    of the file.
//
//  * Validation is front-loaded: TraceStoreReader::open walks the whole
//    file (CRCs included) before reporting Ok, because a sweep that
//    discovers corruption after feeding half the trace into replay
//    consumers cannot "un-feed" it — the engine would have to throw the
//    replay state away and restart live. After open, decode stays
//    bounds-checked anyway (the file could change under us); failures
//    turn into failed(), never UB. The CRC is slicing-by-8 so that this
//    walk stays cheap next to the decode it protects: it is the whole
//    cost of a warm experiment served from its summary alone.
//
//  * Writes go to a temp file published by atomic rename, so two
//    processes recording the same program race benignly and crashes
//    leave no partial store behind.
//
//===----------------------------------------------------------------------===//

#include "urcm/sim/TraceStore.h"

#include "urcm/sim/TraceStream.h"
#include "urcm/support/Telemetry.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <thread>

#include <unistd.h> // getpid: temp-file uniqueness across processes.

using namespace urcm;

URCM_STAT(NumStoreHits, "sim.store.hits",
          "Experiments served from the persistent trace store");
URCM_STAT(NumStoreMisses, "sim.store.misses",
          "Trace-store lookups that fell back to live simulation");
URCM_STAT(NumStoreBytesWritten, "sim.store.bytes-written",
          "Encoded bytes written to published store files");
URCM_STAT(NumStoreBytesRead, "sim.store.bytes-read",
          "Store file bytes read and validated");
URCM_STAT(StoreDecodeNs, "sim.store.decode-ns",
          "Nanoseconds spent decoding store chunks into trace events");
URCM_HISTOGRAM(StoreCompressRatio, "sim.store.compress-ratio",
               "Encoded size as a percent of the raw 8-byte-per-event "
               "trace, per committed store file");

//===----------------------------------------------------------------------===//
// Primitive codecs.
//===----------------------------------------------------------------------===//

namespace {

constexpr char HeaderMagic[8] = {'U', 'R', 'C', 'M', 'T', 'R', 'C', '\x01'};
constexpr char FooterMagic[8] = {'U', 'R', 'C', 'M', 'E', 'N', 'D', '\x01'};
// v2: the per-event flag stream grew from 5 to 6 bits to carry the
// static reference id (attribution profiler). v3: the summary records
// the data-cache policy and seed its cache row was measured under. v4:
// the summary ends with one record per replayed sweep point. The
// version is part of the content-hash salt below, so bumping it retires
// existing files as plain misses — no migration path needed.
constexpr uint32_t FormatVersion = 4;
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

size_t varintLen(uint64_t V) {
  size_t Len = 1;
  while (V >= 0x80) {
    V >>= 7;
    ++Len;
  }
  return Len;
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

} // namespace

namespace {

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
  return C ^ 0xFFFFFFFFu;
}

//===----------------------------------------------------------------------===//
// Chunk payload codec.
//===----------------------------------------------------------------------===//

/// The RefId the codec predicts after seeing \p Prev: code-order
/// numbering makes "previous plus one" the straight-line common case,
/// and an unnumbered (NoRefId) event predicts another unnumbered one so
/// hint-free traces stay free of per-event ref bytes.
static uint16_t predictRefId(uint16_t Prev) {
  return Prev == MemRefInfo::NoRefId
             ? MemRefInfo::NoRefId
             : static_cast<uint16_t>(Prev + 1);
}

void urcm::detail::encodeChunkPayload(const TraceEvent *Events,
                                      size_t Count,
                                      std::vector<uint8_t> &Out) {
  const size_t BitBytes = (Count * 6 + 7) / 8;
  Out.clear();
  Out.resize(BitBytes, 0);
  Out.reserve(BitBytes + Count * 2); // Typical: ~1-2 byte varints.
  uint32_t Ring[4] = {0, 0, 0, 0};
  unsigned RingPos = 0;
  uint16_t PrevRef = MemRefInfo::NoRefId;
  for (size_t I = 0; I != Count; ++I) {
    const TraceEvent &E = Events[I];
    unsigned BestSel = 0;
    size_t BestLen = ~size_t(0);
    uint64_t BestZig = 0;
    for (unsigned S = 0; S != 4; ++S) {
      uint64_t Zig = zigzag(static_cast<int64_t>(E.Addr) -
                            static_cast<int64_t>(Ring[S]));
      size_t Len = varintLen(Zig);
      if (Len < BestLen) {
        BestLen = Len;
        BestSel = S;
        BestZig = Zig;
      }
    }
    const uint16_t Predicted = predictRefId(PrevRef);
    const uint32_t Bits =
        (E.IsWrite ? 1u : 0u) | (E.Info.Bypass ? 2u : 0u) |
        (E.Info.LastRef ? 4u : 0u) | (BestSel << 3) |
        (E.RefId == Predicted ? 32u : 0u);
    const size_t BitPos = I * 6;
    Out[BitPos >> 3] |= static_cast<uint8_t>(Bits << (BitPos & 7));
    if ((BitPos & 7) > 2)
      Out[(BitPos >> 3) + 1] |=
          static_cast<uint8_t>(Bits >> (8 - (BitPos & 7)));
    appendVarint(Out, BestZig);
    if (E.RefId != Predicted)
      appendVarint(Out, zigzag(static_cast<int64_t>(E.RefId) -
                               static_cast<int64_t>(Predicted)));
    PrevRef = E.RefId;
    Ring[RingPos] = E.Addr;
    RingPos = (RingPos + 1) & 3;
  }
}

bool urcm::detail::decodeChunkPayload(const uint8_t *Payload,
                                      size_t PayloadBytes, size_t Count,
                                      std::vector<TraceEvent> &Out) {
  const size_t BitBytes = (Count * 6 + 7) / 8;
  if (PayloadBytes < BitBytes)
    return false;
  const uint8_t *Varints = Payload + BitBytes;
  const size_t VarintBytes = PayloadBytes - BitBytes;
  size_t VPos = 0;
  Out.clear();
  Out.reserve(Count);
  uint32_t Ring[4] = {0, 0, 0, 0};
  unsigned RingPos = 0;
  uint16_t PrevRef = MemRefInfo::NoRefId;
  for (size_t I = 0; I != Count; ++I) {
    const size_t BitPos = I * 6;
    uint32_t Bits = Payload[BitPos >> 3] >> (BitPos & 7);
    if ((BitPos & 7) > 2)
      Bits |= static_cast<uint32_t>(Payload[(BitPos >> 3) + 1])
              << (8 - (BitPos & 7));
    Bits &= 63;
    uint64_t Zig;
    if (!readVarint(Varints, VarintBytes, VPos, Zig))
      return false;
    const uint32_t Addr = static_cast<uint32_t>(
        static_cast<int64_t>(Ring[(Bits >> 3) & 3]) + unzigzag(Zig));
    const uint16_t Predicted = predictRefId(PrevRef);
    uint16_t RefId = Predicted;
    if (!(Bits & 32)) {
      if (!readVarint(Varints, VarintBytes, VPos, Zig))
        return false;
      RefId = static_cast<uint16_t>(static_cast<int64_t>(Predicted) +
                                    unzigzag(Zig));
    }
    TraceEvent E;
    E.Addr = Addr;
    E.IsWrite = (Bits & 1) != 0;
    E.Info.Bypass = (Bits & 2) != 0;
    E.Info.LastRef = (Bits & 4) != 0;
    E.RefId = RefId;
    Out.push_back(E);
    PrevRef = RefId;
    Ring[RingPos] = Addr;
    RingPos = (RingPos + 1) & 3;
  }
  return VPos == VarintBytes; // Trailing bytes mean a malformed payload.
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
void hashDataCacheConfig(Fnv1a &H, const CacheConfig &C) {
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
  hashDataCacheConfig(H, Config.Cache);
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
  Pending.reserve(ChunkEvents);

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
  if (Events != 0)
    StoreCompressRatio.record(BytesWritten * 100 /
                              (Events * sizeof(TraceEvent)));
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

  File = std::fopen(Path.c_str(), "rb");
  if (!File) {
    // A missing file is a plain cache miss, not a corruption report.
    NumStoreMisses.add();
    if (errno != ENOENT)
      Diags.error({}, "trace store: cannot open '" + Path +
                          "': " + std::strerror(errno));
    return errno == ENOENT ? OpenStatus::NotFound : OpenStatus::Invalid;
  }

  auto Reject = [&](const std::string &Why) {
    Diags.error({}, "trace store: rejecting '" + Path + "': " + Why +
                        " (falling back to live simulation)");
    std::fclose(File);
    File = nullptr;
    NumStoreMisses.add();
    return OpenStatus::Invalid;
  };

  uint8_t Header[32];
  if (!readExact(File, Header, sizeof(Header)))
    return Reject("truncated header");
  if (std::memcmp(Header, HeaderMagic, 8) != 0)
    return Reject("bad magic (not a trace store file)");
  if (readLE32(Header + 8) != FormatVersion)
    return Reject("format version " + std::to_string(readLE32(Header + 8)) +
                  " (expected " + std::to_string(FormatVersion) + ")");
  if (readLE64(Header + 16) != ExpectHash)
    return Reject("content hash mismatch (recorded for a different "
                  "program or simulation configuration)");
  ChunksBegin = static_cast<long>(sizeof(Header));

  // Walk and validate every chunk before serving anything: corruption
  // discovered mid-replay cannot be recovered from without restarting
  // the replay consumers.
  uint64_t SeenEvents = 0, SeenChunks = 0;
  for (;;) {
    uint8_t Word[4];
    if (!readExact(File, Word, 4))
      return Reject("truncated chunk stream");
    const uint32_t PayloadBytes = readLE32(Word);
    if (PayloadBytes == ChunkSentinel)
      break;
    uint8_t Rest[8];
    if (!readExact(File, Rest, 8))
      return Reject("truncated chunk header");
    const uint32_t Count = readLE32(Rest);
    const uint32_t Crc = readLE32(Rest + 4);
    if (PayloadBytes > MaxChunkPayloadBytes || Count > MaxChunkEvents)
      return Reject("implausible chunk size (corrupt length field)");
    Payload.resize(PayloadBytes);
    if (!readExact(File, Payload.data(), PayloadBytes))
      return Reject("truncated chunk payload");
    if (detail::crc32(Payload.data(), PayloadBytes) != Crc)
      return Reject("chunk " + std::to_string(SeenChunks) +
                    " CRC mismatch");
    SeenEvents += Count;
    ++SeenChunks;
  }

  uint8_t Word[4];
  if (!readExact(File, Word, 4))
    return Reject("truncated summary");
  const uint32_t SummaryBytes = readLE32(Word);
  if (SummaryBytes > MaxSummaryBytes)
    return Reject("implausible summary size");
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
  if (std::fseek(File, ChunksBegin, SEEK_SET) != 0)
    return Reject("seek failed");
  NumStoreHits.add();
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
  Failed = std::fseek(File, ChunksBegin, SEEK_SET) != 0;
  ChunksSeen = 0;
}

bool TraceStoreReader::readAll(std::vector<TraceEvent> &Trace) {
  rewind();
  Trace.clear();
  Trace.reserve(TotalEvents);
  std::vector<TraceEvent> Chunk;
  while (next(Chunk))
    Trace.insert(Trace.end(), Chunk.begin(), Chunk.end());
  return !Failed && ChunksSeen == ChunkCount;
}

//===----------------------------------------------------------------------===//
// Streamed decode (decode thread + SPSC hand-off, recycled buffers).
//===----------------------------------------------------------------------===//

bool urcm::streamStoredTrace(
    TraceStoreReader &Reader,
    const std::function<void(const TraceEvent *, size_t)> &Consume,
    size_t QueueDepth) {
  StreamedTrace Stream(QueueDepth);
  std::thread Decoder([&] {
    if (telemetry::enabled())
      telemetry::setThreadName("store-decoder");
    std::vector<TraceEvent> Chunk;
    while (Reader.next(Chunk)) {
      if (Chunk.empty())
        continue;
      // Hand the decoded chunk off; the returned buffer is a recycled
      // one the consumer has finished with (or a fresh empty one), so
      // the steady state allocates nothing and peak memory is O(chunk).
      Chunk = Stream.chunk(std::move(Chunk));
    }
    Stream.producerDone();
  });

  std::exception_ptr ConsumerError;
  std::vector<TraceEvent> Chunk;
  while (Stream.next(Chunk)) {
    if (ConsumerError)
      continue; // Keep draining so the decoder never deadlocks.
    try {
      Consume(Chunk.data(), Chunk.size());
    } catch (...) {
      ConsumerError = std::current_exception();
    }
  }
  Decoder.join();
  if (ConsumerError)
    std::rethrow_exception(ConsumerError);
  return !Reader.failed();
}
