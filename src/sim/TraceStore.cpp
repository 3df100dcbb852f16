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
//  * The sweep engine writes no chunks (format v5): its files hold the
//    header, the summary with its point records, and the footer. The
//    codec and the chunk framing serve the raw writer/reader API alone.
//
//  * Validation is front-loaded: TraceStoreReader::open checks the whole
//    file (CRCs included) before reporting Ok, so a reader never serves
//    a prefix of a file that turns out corrupt. After open, decode stays
//    bounds-checked anyway (the file could change under us); failures
//    turn into failed(), never UB. Chunk validation runs in two
//    phases: a sequential walk of the chunk headers (bounds and
//    framing, nothing allocated from a length it has not bounded), then
//    the payload CRCs in 256 KB batches across the thread pool, one
//    pread per batch. The first failure in file order is reported, so
//    the diagnostic is the one a sequential walk gives. The file is
//    read, not mapped: mapped page-cache pages count in the process's
//    resident set, and a file truncated under a mapping raises SIGBUS
//    instead of a diagnostic. The CRC is a carry-less-multiply fold
//    (PCLMULQDQ, 64 bytes per step) where the CPU has it, chosen once per
//    process, and slicing-by-8 tables elsewhere and as its test oracle.
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
#include "urcm/support/ThreadPool.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h> // getpid (temp-file uniqueness), pread.

// The carry-less-multiply CRC needs x86-64 and a compiler that can
// target PCLMULQDQ per function; crc32 picks it at run time when the CPU
// has it.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define URCM_CRC_CLMUL 1
#include <immintrin.h>
#else
#define URCM_CRC_CLMUL 0
#endif

using namespace urcm;

URCM_STAT(NumStoreBytesWritten, "sim.store.bytes-written",
          "Encoded bytes written to published store files");
URCM_STAT(NumStoreBytesRead, "sim.store.bytes-read",
          "Store file bytes read and validated");
URCM_STAT(StoreDecodeNs, "sim.store.decode-ns",
          "Nanoseconds spent decoding store chunks into trace events");
URCM_STAT(NumCrcClmulBytes, "sim.store.crc.clmul-bytes",
          "Bytes CRC-checked by the carry-less-multiply fold");
URCM_STAT(NumCrcTableBytes, "sim.store.crc.table-bytes",
          "Bytes CRC-checked by the slicing-by-8 table loop");
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

/// Advances the raw (pre-inverted) CRC register \p C over \p Count
/// bytes, eight bytes per step.
uint32_t crcTableUpdate(uint32_t C, const uint8_t *Bytes, size_t Count) {
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
  return C;
}

/// The length of the prefix of a \p Count-byte buffer the carry-less
/// fold consumes: whole 16-byte blocks, and none below the 64 bytes
/// that seed its four accumulators. The table loop finishes the rest.
size_t foldedPrefix(size_t Count) {
  return Count < 64 ? 0 : Count & ~size_t(15);
}

#if URCM_CRC_CLMUL
/// Multiplies the two 64-bit halves of \p X by those of \p K and adds
/// the products to \p Next: \p X carried forward over the distance \p K
/// encodes. (A lambda would not inherit the target attribute.)
__attribute__((target("pclmul,sse4.1"))) inline __m128i
fold(__m128i X, __m128i K, __m128i Next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(X, K, 0x00),
                                     _mm_clmulepi64_si128(X, K, 0x11)),
                       Next);
}

/// Carry-less-multiply CRC folding (Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ", Intel 2009), in the
/// bit-reflected domain of the IEEE polynomial. Advances the raw CRC
/// register \p C over \p Count bytes, a multiple of 16 and at least 64.
///
/// Four 128-bit accumulators each take every fourth 16-byte block: one
/// step multiplies an accumulator's two 64-bit halves by x^(512+32) and
/// x^(512-32) mod P (the distance of 64 bytes) and XORs in the next
/// block. The four are then folded into one at a distance of 16 bytes,
/// the remaining 16-byte blocks are folded in one by one, the 128-bit
/// remainder is folded to 64 bits, and a Barrett step reduces it to the
/// 32-bit register. Each fold constant is the reflected residue shifted
/// left by one, as the reflected product of two 64-bit operands lands
/// one bit lower than the unreflected one.
__attribute__((target("pclmul,sse4.1"))) uint32_t
crcFoldUpdate(uint32_t C, const uint8_t *Bytes, size_t Count) {
  // x^(4*128+32) mod P and x^(4*128-32) mod P: fold across 64 bytes.
  const __m128i Fold64 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  // x^(128+32) mod P and x^(128-32) mod P: fold across 16 bytes.
  const __m128i Fold16 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  // x^64 mod P: fold 32 bits across 8 bytes.
  const __m128i Fold8 = _mm_set_epi64x(0, 0x163cd6124);
  // P itself and the Barrett quotient floor(x^64 / P), both reflected.
  const __m128i Barrett = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i Low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  auto Load = [](const uint8_t *P) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(P));
  };

  __m128i X0 =
      _mm_xor_si128(Load(Bytes), _mm_cvtsi32_si128(static_cast<int>(C)));
  __m128i X1 = Load(Bytes + 16);
  __m128i X2 = Load(Bytes + 32);
  __m128i X3 = Load(Bytes + 48);
  for (Bytes += 64, Count -= 64; Count >= 64; Bytes += 64, Count -= 64) {
    X0 = fold(X0, Fold64, Load(Bytes));
    X1 = fold(X1, Fold64, Load(Bytes + 16));
    X2 = fold(X2, Fold64, Load(Bytes + 32));
    X3 = fold(X3, Fold64, Load(Bytes + 48));
  }
  __m128i X = fold(fold(fold(X0, Fold16, X1), Fold16, X2), Fold16, X3);
  for (; Count != 0; Bytes += 16, Count -= 16)
    X = fold(X, Fold16, Load(Bytes));

  // 128 -> 96 bits: the low half times x^(128-32) plus the high half.
  X = _mm_xor_si128(_mm_clmulepi64_si128(X, Fold16, 0x10),
                    _mm_srli_si128(X, 8));
  // 96 -> 64 bits: the low 32 bits times x^64 plus the rest.
  X = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(X, Low32), Fold8, 0x00),
      _mm_srli_si128(X, 4));
  // Barrett, 64 -> 32 bits: the quotient T = (low 32 bits) *
  // floor(x^64 / P), then subtract T * P; the register is left in bits
  // 32..63.
  __m128i T = _mm_clmulepi64_si128(_mm_and_si128(X, Low32), Barrett, 0x10);
  T = _mm_clmulepi64_si128(_mm_and_si128(T, Low32), Barrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(X, T), 1));
}
#endif

} // namespace

uint32_t urcm::detail::crc32Table(const uint8_t *Bytes, size_t Count) {
  return ~crcTableUpdate(0xFFFFFFFFu, Bytes, Count);
}

bool urcm::detail::crc32FoldedAvailable() {
#if URCM_CRC_CLMUL
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") &&
         __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

uint32_t urcm::detail::crc32Folded(const uint8_t *Bytes, size_t Count) {
#if URCM_CRC_CLMUL
  const size_t Folded = foldedPrefix(Count);
  const uint32_t C = Folded != 0
                         ? crcFoldUpdate(0xFFFFFFFFu, Bytes, Folded)
                         : 0xFFFFFFFFu;
  return ~crcTableUpdate(C, Bytes + Folded, Count - Folded);
#else
  return crc32Table(Bytes, Count);
#endif
}

uint32_t urcm::detail::crc32(const uint8_t *Bytes, size_t Count) {
  static const bool UseFolded = crc32FoldedAvailable();
  if (!UseFolded) {
    NumCrcTableBytes.add(Count);
    return crc32Table(Bytes, Count);
  }
  const size_t Folded = foldedPrefix(Count);
  NumCrcClmulBytes.add(Folded);
  NumCrcTableBytes.add(Count - Folded);
  return crc32Folded(Bytes, Count);
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

/// Reads exactly \p Size bytes at \p Offset; false on a short read.
bool preadExact(int Fd, uint8_t *Out, size_t Size, uint64_t Offset) {
  while (Size != 0) {
    const ssize_t N = ::pread(Fd, Out, Size, static_cast<off_t>(Offset));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Out += N;
    Size -= static_cast<size_t>(N);
    Offset += static_cast<uint64_t>(N);
  }
  return true;
}

/// Bytes of framing in front of every chunk payload: length, event
/// count, CRC.
constexpr uint64_t ChunkHeaderBytes = 12;

/// The span a validation batch reads with one pread: whole chunks,
/// closed once the next would take it past this (a single larger chunk
/// is a batch of its own). Small enough that a batch stays in L2 between
/// the read copy and the CRC pass.
constexpr uint64_t ValidateBatchBytes = 256u << 10;

/// A run of consecutive chunks, headers included, found by the framing
/// walk and CRC-checked as one unit.
struct ChunkBatch {
  uint64_t Offset = 0; ///< File offset of the first chunk's header.
  uint64_t Bytes = 0;  ///< Through the end of the last chunk's payload.
  uint64_t FirstChunk = 0;
  uint64_t Chunks = 0;
};

/// The first chunk of a batch that failed its check, if any.
struct BatchFault {
  static constexpr uint64_t None = ~uint64_t(0);
  uint64_t Chunk = None;
  bool CrcMismatch = false; ///< Otherwise the bytes changed since the walk.
};

/// Reads \p B into \p Buffer and checks each payload against the CRC in
/// its header. The framing walk already bounded every header, so a
/// re-read that disagrees with it means the file changed in between.
BatchFault checkBatch(int Fd, const ChunkBatch &B,
                      std::vector<uint8_t> &Buffer) {
  Buffer.resize(B.Bytes);
  if (!preadExact(Fd, Buffer.data(), B.Bytes, B.Offset))
    return {B.FirstChunk, false};
  uint64_t Pos = 0;
  for (uint64_t C = 0; C != B.Chunks; ++C) {
    if (B.Bytes - Pos < ChunkHeaderBytes)
      return {B.FirstChunk + C, false};
    const uint32_t PayloadBytes = readLE32(Buffer.data() + Pos);
    const uint32_t Crc = readLE32(Buffer.data() + Pos + 8);
    Pos += ChunkHeaderBytes;
    if (PayloadBytes > B.Bytes - Pos)
      return {B.FirstChunk + C, false};
    if (detail::crc32(Buffer.data() + Pos, PayloadBytes) != Crc)
      return {B.FirstChunk + C, true};
    Pos += PayloadBytes;
  }
  if (Pos != B.Bytes)
    return {B.FirstChunk + B.Chunks - 1, false};
  return {};
}

} // namespace

TraceStoreReader::OpenStatus
TraceStoreReader::open(const std::string &Path, uint64_t ExpectHash,
                       DiagnosticEngine &Diags, ThreadPool *Pool) {
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

  uint8_t Header[32];
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
  ChunksBegin = static_cast<long>(sizeof(Header));

  // Validate every chunk before serving anything: corruption discovered
  // mid-replay cannot be recovered from without restarting the replay
  // consumers. Phase 1 walks the framing alone, reading each header and
  // seeking past its payload, and stops at the first structural error;
  // a length running past the end of the file is caught here, before
  // anything is allocated for it.
  uint64_t SeenEvents = 0, SeenChunks = 0;
  std::vector<ChunkBatch> Batches;
  const char *Structural = nullptr;
  for (uint64_t At = sizeof(Header);;) {
    uint8_t Word[4];
    if (!readExact(File, Word, 4)) {
      Structural = "truncated chunk stream";
      break;
    }
    const uint32_t PayloadBytes = readLE32(Word);
    if (PayloadBytes == ChunkSentinel)
      break;
    uint8_t Rest[8];
    if (!readExact(File, Rest, 8)) {
      Structural = "truncated chunk header";
      break;
    }
    const uint32_t Count = readLE32(Rest);
    if (PayloadBytes > MaxChunkPayloadBytes || Count > MaxChunkEvents) {
      Structural = "implausible chunk size (corrupt length field)";
      break;
    }
    const uint64_t Span = ChunkHeaderBytes + PayloadBytes;
    if (At > FileSize || FileSize - At < Span ||
        ::fseeko(File, static_cast<off_t>(At + Span), SEEK_SET) != 0) {
      Structural = "truncated chunk payload";
      break;
    }
    if (Batches.empty() || Batches.back().Bytes + Span > ValidateBatchBytes)
      Batches.push_back({At, 0, SeenChunks, 0});
    Batches.back().Bytes += Span;
    ++Batches.back().Chunks;
    At += Span;
    SeenEvents += Count;
    ++SeenChunks;
  }

  // Phase 2 CRCs the payloads the walk framed, batch by batch on the
  // pool; each participating thread claims batches and reads them into
  // one buffer of its own. The first failure in file order wins (the
  // lowest bad chunk, else the walk's structural error), so the
  // diagnostic is the sequential walk's whatever the pool width or
  // scheduling.
  std::vector<BatchFault> Faults(Batches.size());
  ThreadPool &Workers = Pool ? *Pool : ThreadPool::global();
  std::atomic<size_t> NextBatch{0};
  Workers.parallelFor(
      std::min<size_t>(Batches.size(), Workers.size() + 1), [&](size_t) {
        std::vector<uint8_t> Buffer;
        for (size_t B = NextBatch.fetch_add(1); B < Batches.size();
             B = NextBatch.fetch_add(1)) {
          telemetry::ScopedPhase Validate("sweep.store-serve", "validate");
          Faults[B] = checkBatch(Fd, Batches[B], Buffer);
        }
      });
  for (const BatchFault &F : Faults)
    if (F.Chunk != BatchFault::None)
      return Reject("chunk " + std::to_string(F.Chunk) +
                    (F.CrcMismatch ? " CRC mismatch"
                                   : " changed during validation"));
  if (Structural)
    return Reject(Structural);

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
  if (std::fseek(File, ChunksBegin, SEEK_SET) != 0)
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
