//===- tracestore_test.cpp - Persistent trace store tests ----------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
// The trace store's contract has three legs, each pinned here:
//
//  1. fidelity — write→read is bit-identical for any trace (fuzzed
//     hint bits, odd chunk sizes, extreme addresses), and a
//     sweep served warm from the store produces counters bit-identical
//     to the cold live run, for every replay worker count;
//  2. robustness — corrupt, truncated, stale or foreign files are
//     rejected with a clean diagnostic (never an assert or a crash) and
//     the engine falls back to live simulation automatically;
//  3. the warm path really is warm — on a store hit the producer (and
//     the Simulator inside it) is never invoked and nothing is decoded:
//     the summary and the point records answer the experiment. A point
//     without a record makes the experiment a miss that runs live,
//     replays only that point, and re-records the file with the old
//     records kept, so the next run is a hit.
//
//===----------------------------------------------------------------------===//

#include "urcm/sim/TraceStore.h"

#include "urcm/driver/Driver.h"
#include "urcm/sim/SweepEngine.h"
#include "urcm/support/RNG.h"
#include "urcm/support/Telemetry.h"
#include "urcm/support/ThreadPool.h"
#include "urcm/workloads/Workloads.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <memory>

#include <sys/stat.h> // mkfifo
#include <unistd.h>   // getpid

using namespace urcm;

namespace {

bool operator==(const TraceEvent &A, const TraceEvent &B) {
  return A.Addr == B.Addr && A.IsWrite == B.IsWrite &&
         A.Info.Bypass == B.Info.Bypass &&
         A.Info.LastRef == B.Info.LastRef && A.RefId == B.RefId;
}

/// A deterministic trace with locality, writes, and hint bits on a
/// fraction of events; interleaves a "stack" region and a far "global"
/// region the way real traces do. Reference ids mix straight-line runs
/// (Prev+1), back jumps (loops), and unnumbered (NoRefId) stretches.
std::vector<TraceEvent> hintedTrace(uint64_t Seed, size_t N) {
  SplitMix64 Rng(Seed);
  std::vector<TraceEvent> Trace;
  Trace.reserve(N);
  uint32_t Stack = 0xFF000, Global = 0x1000;
  uint16_t Ref = 0;
  for (size_t I = 0; I != N; ++I) {
    uint64_t Roll = Rng.nextBelow(100);
    TraceEvent E;
    if (Roll < 45)
      E.Addr = Stack - static_cast<uint32_t>(Rng.nextBelow(16));
    else if (Roll < 90)
      E.Addr = Global + static_cast<uint32_t>(Rng.nextBelow(64));
    else
      E.Addr = static_cast<uint32_t>(Rng.nextBelow(0xFFFFFF));
    E.IsWrite = Rng.nextBelow(4) == 0;
    E.Info.Bypass = Rng.nextBelow(10) == 0;
    E.Info.LastRef = !E.Info.Bypass && Rng.nextBelow(13) == 0;
    if (Roll < 70)
      Ref = static_cast<uint16_t>(Ref + 1); // Straight-line.
    else if (Roll < 85)
      Ref = static_cast<uint16_t>(Rng.nextBelow(300)); // Branch target.
    E.RefId = Roll < 95 ? Ref : MemRefInfo::NoRefId;
    Trace.push_back(E);
  }
  return Trace;
}

/// Fresh scratch directory per test case, removed on destruction.
struct ScratchDir {
  std::filesystem::path Path;
  explicit ScratchDir(const char *Name) {
    Path = std::filesystem::temp_directory_path() /
           (std::string("urcm_tracestore_") + Name + "." +
            std::to_string(::getpid()));
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~ScratchDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
};

/// Decodes every chunk of the opened \p Reader from the first into
/// \p Trace; false if a chunk fails to decode.
bool readAllEvents(TraceStoreReader &Reader, std::vector<TraceEvent> &Trace) {
  Reader.rewind();
  Trace.clear();
  std::vector<TraceEvent> Chunk;
  while (Reader.next(Chunk))
    Trace.insert(Trace.end(), Chunk.begin(), Chunk.end());
  return !Reader.failed() && Trace.size() == Reader.eventCount();
}

/// Round-trips \p Trace through a store file written in \p BatchSize
/// batches and returns the decoded trace.
std::vector<TraceEvent> roundTrip(const std::vector<TraceEvent> &Trace,
                                  const std::string &Dir, uint64_t Hash,
                                  size_t BatchSize) {
  DiagnosticEngine Diags;
  TraceStoreWriter Writer;
  EXPECT_TRUE(Writer.open(Dir, Hash, Diags));
  for (size_t I = 0; I < Trace.size(); I += BatchSize)
    Writer.append(Trace.data() + I,
                  std::min(BatchSize, Trace.size() - I));
  SimResult Summary;
  Summary.Halted = true;
  EXPECT_TRUE(Writer.commit(Summary, Diags));
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();

  TraceStoreReader Reader;
  EXPECT_EQ(Reader.open(traceStorePath(Dir, Hash), Hash, Diags),
            TraceStoreReader::OpenStatus::Ok)
      << Diags.str();
  EXPECT_EQ(Reader.eventCount(), Trace.size());
  std::vector<TraceEvent> Decoded;
  EXPECT_TRUE(readAllEvents(Reader, Decoded));
  return Decoded;
}

/// Bit-at-a-time CRC-32 (IEEE 802.3, reflected): the definition the
/// sliced implementation must reproduce.
uint32_t bitwiseCrc32(const uint8_t *Bytes, size_t Count) {
  uint32_t C = 0xFFFFFFFFu;
  for (size_t I = 0; I != Count; ++I) {
    C ^= Bytes[I];
    for (int K = 0; K != 8; ++K)
      C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
  }
  return C ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> randomBytes(uint64_t Seed, size_t N) {
  SplitMix64 Rng(Seed);
  std::vector<uint8_t> Bytes(N);
  for (uint8_t &B : Bytes)
    B = static_cast<uint8_t>(Rng.next());
  return Bytes;
}

/// Enables telemetry for one test and resets the counters around it.
struct TelemetryGuard {
  TelemetryGuard() {
    telemetry::setEnabled(true);
    telemetry::reset();
  }
  ~TelemetryGuard() {
    telemetry::setEnabled(false);
    telemetry::reset();
  }
};

/// The current value of telemetry counter \p Name (0 if never bumped).
uint64_t counterValue(const char *Name) {
  std::string JSON = telemetry::snapshotJSON();
  std::string Key = std::string("\"") + Name + "\": ";
  size_t At = JSON.find(Key);
  if (At == std::string::npos)
    return 0;
  return std::strtoull(JSON.c_str() + At + Key.size(), nullptr, 10);
}

/// Every scheduled point is counted once, by the path that answered
/// it: reused + replayed + served = scheduled (DESIGN.md §13).
void expectEveryPointCountedOnce(uint64_t Scheduled) {
  EXPECT_EQ(counterValue("sweep.points-reused") +
                counterValue("sweep.points-replayed") +
                counterValue("sim.store.points-served"),
            Scheduled);
}

TEST(TraceStoreCrc, KnownAnswer) {
  const char *Check = "123456789";
  EXPECT_EQ(detail::crc32(reinterpret_cast<const uint8_t *>(Check), 9),
            0xCBF43926u);
  EXPECT_EQ(detail::crc32(nullptr, 0), 0u);
}

TEST(TraceStoreCrc, MatchesBitwiseReference) {
  // Every length 0..320 at every start offset 0..15 walks the table
  // loop's eight-byte steps and every byte tail, at every alignment.
  const std::vector<uint8_t> Small = randomBytes(3, 320 + 16);
  for (size_t Offset = 0; Offset != 16; ++Offset)
    for (size_t Len = 0; Len <= 320; ++Len) {
      const uint8_t *Bytes = Small.data() + Offset;
      ASSERT_EQ(detail::crc32(Bytes, Len), bitwiseCrc32(Bytes, Len))
          << "offset " << Offset << " length " << Len;
    }
  const std::vector<uint8_t> Big = randomBytes(0xC4C, 1u << 20);
  EXPECT_EQ(detail::crc32(Big.data(), Big.size()),
            bitwiseCrc32(Big.data(), Big.size()));
}

TEST(TraceStoreCrc, CounterCountsEveryByte) {
  TelemetryGuard Guard;
  const std::vector<uint8_t> Bytes = randomBytes(11, 1000);
  uint64_t Want = 0;
  for (size_t Len : {size_t(0), size_t(13), size_t(64), size_t(1000)}) {
    detail::crc32(Bytes.data(), Len);
    Want += Len;
    EXPECT_EQ(counterValue("sim.store.crc-bytes"), Want) << "length " << Len;
  }
}

TEST(TraceStoreCodec, RoundTripFuzzedPayloads) {
  // Chunk payloads of fuzzed events at assorted sizes, including empty
  // and single-event, are eight bytes per event and decode to the
  // events encoded.
  for (size_t N : {size_t(0), size_t(1), size_t(2), size_t(3), size_t(7),
                   size_t(8), size_t(63), size_t(1000), size_t(65537)}) {
    std::vector<TraceEvent> Trace = hintedTrace(N * 31 + 5, N);
    std::vector<uint8_t> Encoded;
    detail::encodeChunkPayload(Trace.data(), Trace.size(), Encoded);
    ASSERT_EQ(Encoded.size(), 8 * N);
    std::vector<TraceEvent> Decoded;
    ASSERT_TRUE(detail::decodeChunkPayload(Encoded.data(), Encoded.size(),
                                           Trace.size(), Decoded))
        << "N=" << N;
    ASSERT_EQ(Decoded.size(), Trace.size());
    for (size_t I = 0; I != Trace.size(); ++I)
      ASSERT_TRUE(Decoded[I] == Trace[I]) << "N=" << N << " event " << I;
  }
}

TEST(TraceStoreCodec, ExtremeAddressDeltas) {
  // Alternating far-apart addresses, the u32 extremes and every RefId
  // byte pattern round-trip exactly, little-endian in the payload.
  std::vector<TraceEvent> Trace;
  for (uint32_t I = 0; I != 100; ++I) {
    TraceEvent E;
    E.Addr = (I % 2) ? 0xFFFFFFFFu - I : I;
    E.IsWrite = I % 3 == 0;
    E.Info.Bypass = I % 5 == 0;
    E.Info.LastRef = I % 7 == 0;
    E.RefId = static_cast<uint16_t>(0xFFFF - I * 0x0101);
    Trace.push_back(E);
  }
  std::vector<uint8_t> Encoded;
  detail::encodeChunkPayload(Trace.data(), Trace.size(), Encoded);
  // Event 1: address 0xFFFFFFFE, a read, no hints, RefId 0xFEFE.
  EXPECT_EQ(std::vector<uint8_t>(Encoded.begin() + 8, Encoded.begin() + 16),
            (std::vector<uint8_t>{0xFE, 0xFF, 0xFF, 0xFF, 0, 0, 0xFE, 0xFE}));
  std::vector<TraceEvent> Decoded;
  ASSERT_TRUE(detail::decodeChunkPayload(Encoded.data(), Encoded.size(),
                                         Trace.size(), Decoded));
  for (size_t I = 0; I != Trace.size(); ++I)
    EXPECT_TRUE(Decoded[I] == Trace[I]) << "event " << I;
}

TEST(TraceStoreCodec, RejectsMalformedPayloads) {
  std::vector<TraceEvent> Trace = hintedTrace(11, 500);
  std::vector<uint8_t> Encoded;
  detail::encodeChunkPayload(Trace.data(), Trace.size(), Encoded);
  std::vector<TraceEvent> Decoded;
  // A payload that is not eight bytes per event fails cleanly, never
  // reading out of bounds (ASan-checked in the sanitizer presets):
  // every truncation, and trailing bytes.
  for (size_t Cut = 0; Cut != Encoded.size(); ++Cut)
    EXPECT_FALSE(detail::decodeChunkPayload(Encoded.data(), Cut,
                                            Trace.size(), Decoded))
        << "prefix " << Cut;
  std::vector<uint8_t> Long = Encoded;
  Long.push_back(0x00);
  EXPECT_FALSE(detail::decodeChunkPayload(Long.data(), Long.size(),
                                          Trace.size(), Decoded));
  // The right size for one event fewer or more is still wrong.
  EXPECT_FALSE(detail::decodeChunkPayload(Encoded.data(), Encoded.size(),
                                          Trace.size() - 1, Decoded));
  // An is-write byte other than 0 or 1, or a hint byte with any of bits
  // 2-7 set, would decode to an event no recording produces.
  for (unsigned Byte = 2; Byte != 256; ++Byte) {
    std::vector<uint8_t> M = Encoded;
    M[8 * 17 + 4] = static_cast<uint8_t>(Byte);
    EXPECT_FALSE(detail::decodeChunkPayload(M.data(), M.size(),
                                            Trace.size(), Decoded))
        << "is-write byte " << Byte;
  }
  for (unsigned Bit = 2; Bit != 8; ++Bit) {
    std::vector<uint8_t> M = Encoded;
    M[8 * 17 + 5] |= static_cast<uint8_t>(1u << Bit);
    EXPECT_FALSE(detail::decodeChunkPayload(M.data(), M.size(),
                                            Trace.size(), Decoded))
        << "hint bit " << Bit;
  }
  // The unmodified payload still decodes.
  EXPECT_TRUE(detail::decodeChunkPayload(Encoded.data(), Encoded.size(),
                                         Trace.size(), Decoded));
}

TEST(TraceStoreFile, RoundTripAcrossBatchAndChunkBoundaries) {
  ScratchDir Dir("file_roundtrip");
  // Batch sizes that land chunk flushes everywhere: single events, odd
  // primes, exactly one chunk, just past one chunk.
  const uint32_t CE = TraceStoreWriter::ChunkEvents;
  size_t Batches[] = {1, 977, CE, CE + 1, 3 * CE + 17};
  std::vector<TraceEvent> Trace = hintedTrace(42, 2 * CE + 1234);
  for (size_t Batch : Batches) {
    std::vector<TraceEvent> Decoded =
        roundTrip(Trace, Dir.str(), /*Hash=*/Batch, Batch);
    ASSERT_EQ(Decoded.size(), Trace.size()) << "batch " << Batch;
    for (size_t I = 0; I != Trace.size(); ++I)
      ASSERT_TRUE(Decoded[I] == Trace[I])
          << "batch " << Batch << " event " << I;
  }
}

TEST(TraceStoreFile, SummaryRoundTripsEveryField) {
  ScratchDir Dir("summary");
  SimResult R;
  R.Halted = true;
  R.Error = "";
  R.Steps = 123456789;
  R.Output = {-5, 0, 42, INT64_MIN, INT64_MAX};
  R.Cache.Reads = 1;
  R.Cache.Writes = 2;
  R.Cache.ReadHits = 3;
  R.Cache.WriteHits = 4;
  R.Cache.Fills = 5;
  R.Cache.FillWords = 6;
  R.Cache.WriteBacks = 7;
  R.Cache.WriteBackWords = 8;
  R.Cache.Evictions = 9;
  R.Cache.DeadFrees = 10;
  R.Cache.DeadWriteBacksAvoided = 11;
  R.Cache.BypassReads = 12;
  R.Cache.BypassWrites = 13;
  R.Cache.BypassHitMigrations = 14;
  R.Cache.WriteThroughWords = 15;
  R.Cache.FlushWriteBackWords = 16;
  R.Refs.Unambiguous = 17;
  R.Refs.Ambiguous = 18;
  R.Refs.Spill = 19;
  R.Refs.Unknown = 20;
  R.Refs.Bypassed = 21;
  R.Refs.LastRefTagged = 22;
  R.ICache.Reads = 23;
  R.ICache.FillWords = 24;
  R.InstructionFetches = 25;
  R.BypassTransitions = 26;
  R.CoherenceViolations = 27;
  R.Trace = hintedTrace(1, 10); // Must NOT be stored.

  CacheConfig Measured;
  Measured.Policy = CachePolicy::SRRIP;
  Measured.Seed = 0xFEDCBA9876543210ull;

  DiagnosticEngine Diags;
  TraceStoreWriter Writer;
  ASSERT_TRUE(Writer.open(Dir.str(), 99, Diags));
  std::vector<TraceEvent> Trace = hintedTrace(2, 100);
  Writer.append(Trace.data(), Trace.size());
  ASSERT_TRUE(Writer.commit(R, Measured, Diags)) << Diags.str();

  TraceStoreReader Reader;
  ASSERT_EQ(Reader.open(traceStorePath(Dir.str(), 99), 99, Diags),
            TraceStoreReader::OpenStatus::Ok)
      << Diags.str();
  ASSERT_TRUE(Reader.summaryCachePolicy().has_value());
  EXPECT_EQ(Reader.summaryCachePolicy()->Policy, CachePolicy::SRRIP);
  EXPECT_EQ(Reader.summaryCachePolicy()->Seed, Measured.Seed);
  EXPECT_TRUE(Reader.summaryCachePolicy()->measures(Measured));
  CacheConfig OtherSeed = Measured;
  OtherSeed.Seed ^= 1;
  EXPECT_FALSE(Reader.summaryCachePolicy()->measures(OtherSeed));
  const SimResult &S = Reader.summary();
  EXPECT_EQ(S.Halted, R.Halted);
  EXPECT_EQ(S.Error, R.Error);
  EXPECT_EQ(S.Steps, R.Steps);
  EXPECT_EQ(S.Output, R.Output);
  EXPECT_EQ(S.Cache, R.Cache);
  EXPECT_EQ(S.Refs.Unambiguous, R.Refs.Unambiguous);
  EXPECT_EQ(S.Refs.Ambiguous, R.Refs.Ambiguous);
  EXPECT_EQ(S.Refs.Spill, R.Refs.Spill);
  EXPECT_EQ(S.Refs.Unknown, R.Refs.Unknown);
  EXPECT_EQ(S.Refs.Bypassed, R.Refs.Bypassed);
  EXPECT_EQ(S.Refs.LastRefTagged, R.Refs.LastRefTagged);
  EXPECT_EQ(S.ICache, R.ICache);
  EXPECT_EQ(S.InstructionFetches, R.InstructionFetches);
  EXPECT_EQ(S.BypassTransitions, R.BypassTransitions);
  EXPECT_EQ(S.CoherenceViolations, R.CoherenceViolations);
  EXPECT_TRUE(S.Trace.empty());

  // A writer that does not say which policy measured the row records
  // none, and readers never take the row as base counters.
  TraceStoreWriter Unmeasured;
  ASSERT_TRUE(Unmeasured.open(Dir.str(), 100, Diags));
  ASSERT_TRUE(Unmeasured.commit(R, Diags)) << Diags.str();
  TraceStoreReader UnmeasuredReader;
  ASSERT_EQ(UnmeasuredReader.open(traceStorePath(Dir.str(), 100), 100,
                                  Diags),
            TraceStoreReader::OpenStatus::Ok)
      << Diags.str();
  EXPECT_FALSE(UnmeasuredReader.summaryCachePolicy().has_value());
  EXPECT_EQ(UnmeasuredReader.summary().Cache, R.Cache);
}

/// Distinct, law-abiding-looking counters for record \p I.
CacheStats recordStats(uint64_t I) {
  CacheStats S;
  S.Reads = 1000 + I;
  S.Writes = 500 + I;
  S.ReadHits = 900 + I;
  S.WriteHits = 400 + I;
  S.Fills = 200;
  S.FillWords = 200;
  S.WriteBacks = 50 + I;
  S.WriteBackWords = 50 + I;
  S.Evictions = 150 + I;
  S.DeadFrees = 7 * I;
  S.DeadWriteBacksAvoided = 3 * I;
  S.BypassReads = I;
  S.BypassWrites = 2 * I;
  S.BypassHitMigrations = I / 2;
  S.WriteThroughWords = 11 * I;
  S.FlushWriteBackWords = uint64_t(1) << (I % 64);
  return S;
}

/// Writes a store file at \p Hash holding \p Points and reopens it.
TraceStoreReader::OpenStatus
writeAndOpenRecords(const std::string &Dir, uint64_t Hash,
                    const std::vector<StoredPoint> &Points,
                    TraceStoreReader &Reader, DiagnosticEngine &Diags) {
  TraceStoreWriter Writer;
  EXPECT_TRUE(Writer.open(Dir, Hash, Diags));
  std::vector<TraceEvent> Trace = hintedTrace(Hash, 500);
  Writer.append(Trace.data(), Trace.size());
  SimResult Summary;
  Summary.Halted = true;
  EXPECT_TRUE(Writer.commit(Summary, CacheConfig(), Diags, Points))
      << Diags.str();
  return Reader.open(traceStorePath(Dir, Hash), Hash, Diags);
}

TEST(TraceStoreFile, PointRecordsRoundTripEveryPolicyAndWritePolicy) {
  ScratchDir Dir("records");
  std::vector<StoredPoint> Points;
  for (CachePolicy Policy :
       {CachePolicy::LRU, CachePolicy::FIFO, CachePolicy::Random,
        CachePolicy::MIN, CachePolicy::TreePLRU, CachePolicy::SRRIP,
        CachePolicy::LivenessBypass})
    for (WritePolicy Write :
         {WritePolicy::WriteBack, WritePolicy::WriteThrough}) {
      StoredPoint P;
      const uint32_t N = static_cast<uint32_t>(Points.size());
      P.Config.NumLines = 64u << (N % 4);
      P.Config.Assoc = 1u << (N % 4);
      P.Config.LineWords = 1u << (N % 3);
      P.Config.Policy = Policy;
      P.Config.Write = Write;
      P.Config.Seed = 0xFEDCBA9876543210ull ^ N;
      P.IgnoreHints = N % 2 == 1;
      P.Stats = recordStats(N);
      Points.push_back(P);
    }

  DiagnosticEngine Diags;
  TraceStoreReader Reader;
  ASSERT_EQ(writeAndOpenRecords(Dir.str(), 31, Points, Reader, Diags),
            TraceStoreReader::OpenStatus::Ok)
      << Diags.str();
  const std::vector<StoredPoint> &Read = Reader.storedPoints();
  ASSERT_EQ(Read.size(), Points.size());
  for (size_t I = 0; I != Points.size(); ++I) {
    EXPECT_EQ(Read[I].Config, Points[I].Config) << I;
    EXPECT_EQ(Read[I].IgnoreHints, Points[I].IgnoreHints) << I;
    EXPECT_EQ(Read[I].Stats, Points[I].Stats) << I;
  }
  std::vector<TraceEvent> Decoded;
  EXPECT_TRUE(readAllEvents(Reader, Decoded));
  EXPECT_EQ(Decoded.size(), 500u);

  // A file without records reads back an empty list.
  TraceStoreReader Empty;
  ASSERT_EQ(writeAndOpenRecords(Dir.str(), 32, {}, Empty, Diags),
            TraceStoreReader::OpenStatus::Ok)
      << Diags.str();
  EXPECT_TRUE(Empty.storedPoints().empty());
}

TEST(TraceStoreFile, RejectsMalformedPointRecords) {
  // The writer stores whatever it is given, so these files are CRC-valid
  // and only the reader's record checks can refuse them.
  ScratchDir Dir("bad_records");
  StoredPoint Good;
  Good.Stats = recordStats(1);
  const struct {
    const char *Name;
    void (*Break)(StoredPoint &);
    const char *Why;
  } Cases[] = {
      {"policy byte", [](StoredPoint &P) {
         P.Config.Policy = static_cast<CachePolicy>(9);
       }, "unknown cache policy 9"},
      {"write byte", [](StoredPoint &P) {
         P.Config.Write = static_cast<WritePolicy>(2);
       }, "unknown write policy 2"},
      {"assoc", [](StoredPoint &P) { P.Config.Assoc = 3; },
       "associativity must divide"},
      {"lines", [](StoredPoint &P) { P.Config.NumLines = 0; },
       "at least one line"},
      {"tree", [](StoredPoint &P) {
         P.Config.NumLines = P.Config.Assoc = 128;
         P.Config.Policy = CachePolicy::TreePLRU;
       }, "TreePLRU needs"},
  };
  uint64_t Hash = 100;
  for (const auto &Case : Cases) {
    StoredPoint Bad = Good;
    Case.Break(Bad);
    DiagnosticEngine Diags;
    TraceStoreReader Reader;
    EXPECT_EQ(writeAndOpenRecords(Dir.str(), ++Hash, {Good, Bad}, Reader,
                                  Diags),
              TraceStoreReader::OpenStatus::Invalid)
        << Case.Name;
    EXPECT_NE(Diags.str().find(Case.Why), std::string::npos)
        << Case.Name << ": " << Diags.str();
  }
}

TEST(TraceStoreFile, StreamedDecodeMatchesReadAll) {
  // Chunk-by-chunk decode with next(), after a rewind, yields the trace
  // a first full pass decodes, in order.
  ScratchDir Dir("streamed");
  std::vector<TraceEvent> Trace = hintedTrace(77, 150000);
  DiagnosticEngine Diags;
  TraceStoreWriter Writer;
  ASSERT_TRUE(Writer.open(Dir.str(), 7, Diags));
  Writer.append(Trace.data(), Trace.size());
  SimResult Summary;
  Summary.Halted = true;
  ASSERT_TRUE(Writer.commit(Summary, Diags));

  TraceStoreReader Reader;
  ASSERT_EQ(Reader.open(traceStorePath(Dir.str(), 7), 7, Diags),
            TraceStoreReader::OpenStatus::Ok);
  std::vector<TraceEvent> All;
  ASSERT_TRUE(readAllEvents(Reader, All));
  Reader.rewind();
  std::vector<TraceEvent> Streamed, Chunk;
  size_t Chunks = 0;
  while (Reader.next(Chunk)) {
    EXPECT_LE(Chunk.size(), TraceStoreWriter::ChunkEvents);
    Streamed.insert(Streamed.end(), Chunk.begin(), Chunk.end());
    ++Chunks;
  }
  EXPECT_FALSE(Reader.failed());
  EXPECT_EQ(Chunks, 3u);
  ASSERT_EQ(Streamed.size(), Trace.size());
  ASSERT_EQ(All.size(), Trace.size());
  for (size_t I = 0; I != Trace.size(); ++I) {
    ASSERT_TRUE(Streamed[I] == Trace[I]) << "event " << I;
    ASSERT_TRUE(All[I] == Trace[I]) << "event " << I;
  }
}

TEST(TraceStoreFile, RejectsCorruptionCleanly) {
  ScratchDir Dir("corrupt");
  std::vector<TraceEvent> Trace = hintedTrace(5, 80000);
  DiagnosticEngine Diags;
  TraceStoreWriter Writer;
  ASSERT_TRUE(Writer.open(Dir.str(), 1234, Diags));
  Writer.append(Trace.data(), Trace.size());
  SimResult Summary;
  Summary.Halted = true;
  ASSERT_TRUE(Writer.commit(Summary, Diags));
  const std::string Path = traceStorePath(Dir.str(), 1234);
  std::vector<char> Bytes;
  {
    std::ifstream In(Path, std::ios::binary);
    Bytes.assign(std::istreambuf_iterator<char>(In),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(Bytes.size(), 100u);

  auto ExpectInvalid = [&](const std::vector<char> &Mutated,
                           const char *What) {
    std::ofstream(Path, std::ios::binary)
        .write(Mutated.data(), static_cast<long>(Mutated.size()));
    DiagnosticEngine D;
    TraceStoreReader R;
    EXPECT_EQ(R.open(Path, 1234, D), TraceStoreReader::OpenStatus::Invalid)
        << What;
    EXPECT_EQ(D.errorCount(), 1u) << What;
    return D.str();
  };

  // Missing file: a miss, not an error.
  {
    DiagnosticEngine D;
    TraceStoreReader R;
    EXPECT_EQ(R.open(Dir.str() + "/absent.urctrc", 1234, D),
              TraceStoreReader::OpenStatus::NotFound);
    EXPECT_FALSE(D.hasErrors()) << D.str();
  }
  // Stale: hash mismatch (recorded for another program/config).
  {
    DiagnosticEngine D;
    TraceStoreReader R;
    EXPECT_EQ(R.open(Path, 4321, D), TraceStoreReader::OpenStatus::Invalid);
    EXPECT_TRUE(D.hasErrors());
    EXPECT_NE(D.str().find("hash"), std::string::npos) << D.str();
  }
  // Flipped byte mid-chunk: CRC mismatch.
  {
    std::vector<char> M = Bytes;
    M[M.size() / 2] ^= 0x40;
    ExpectInvalid(M, "flipped payload byte");
  }
  // The header words no CRC covers: flags (bytes 12-15), nominal chunk
  // size (24-27) and reserved (28-31) must hold what the writer writes.
  for (size_t Byte = 12; Byte != 32; ++Byte) {
    if (Byte >= 16 && Byte < 24)
      continue; // The content hash, checked above.
    const char *Why = Byte < 16   ? "header flags"
                      : Byte < 28 ? "nominal chunk size"
                                  : "reserved header word";
    std::vector<char> M = Bytes;
    M[Byte] ^= 0x01;
    EXPECT_NE(ExpectInvalid(M, Why).find(Why), std::string::npos)
        << "byte " << Byte;
  }
  // Truncations at every region: header, chunk payload, summary,
  // footer.
  for (size_t Keep : {size_t(10), size_t(40), Bytes.size() / 2,
                      Bytes.size() - 9, Bytes.size() - 1})
    ExpectInvalid(std::vector<char>(Bytes.begin(), Bytes.begin() + Keep),
                  "truncated file");
  // Trailing garbage after the footer.
  {
    std::vector<char> M = Bytes;
    M.push_back('x');
    ExpectInvalid(M, "trailing bytes");
  }
  // Not a store file at all.
  ExpectInvalid({'h', 'e', 'l', 'l', 'o'}, "bad magic");

  // The original bytes still serve (the corruption tests wrote over the
  // file; restore and confirm the baseline is intact end to end).
  std::ofstream(Path, std::ios::binary)
      .write(Bytes.data(), static_cast<long>(Bytes.size()));
  DiagnosticEngine D;
  TraceStoreReader R;
  ASSERT_EQ(R.open(Path, 1234, D), TraceStoreReader::OpenStatus::Ok);
  std::vector<TraceEvent> Decoded;
  ASSERT_TRUE(readAllEvents(R, Decoded));
  ASSERT_EQ(Decoded.size(), Trace.size());
}

uint32_t loadLE32(const std::vector<char> &Bytes, size_t At) {
  uint32_t V = 0;
  for (size_t B = 0; B != 4; ++B)
    V |= static_cast<uint32_t>(static_cast<uint8_t>(Bytes[At + B])) << (8 * B);
  return V;
}

void storeLE32(std::vector<char> &Bytes, size_t At, uint32_t V) {
  for (size_t B = 0; B != 4; ++B)
    Bytes[At + B] = static_cast<char>(V >> (8 * B));
}

void writeBytes(const std::string &Path, const std::vector<char> &Bytes) {
  std::ofstream(Path, std::ios::binary)
      .write(Bytes.data(), static_cast<long>(Bytes.size()));
}

/// A recorded store file of a 600K-event synthetic trace (ten chunks)
/// with two point records, and the offsets of its framing.
struct MultiChunkFile {
  static constexpr uint64_t Hash = 600;
  std::string Path;
  std::vector<char> Bytes;
  std::vector<size_t> Chunks; ///< Offset of each chunk header.
  size_t Sentinel = 0;        ///< Offset of the end-of-chunks word.

  explicit MultiChunkFile(const std::string &Dir)
      : Path(traceStorePath(Dir, Hash)) {
    std::vector<TraceEvent> Trace = hintedTrace(600, 600000);
    SimResult Summary;
    Summary.Halted = true;
    Summary.Steps = 1234567;
    Summary.Output = {1, -2, 3};
    Summary.Cache = recordStats(3);
    std::vector<StoredPoint> Points(2);
    Points[1].IgnoreHints = true;
    Points[0].Stats = recordStats(1);
    Points[1].Stats = recordStats(2);
    DiagnosticEngine Diags;
    TraceStoreWriter Writer;
    EXPECT_TRUE(Writer.open(Dir, Hash, Diags));
    Writer.append(Trace.data(), Trace.size());
    EXPECT_TRUE(Writer.commit(Summary, CacheConfig(), Diags, Points))
        << Diags.str();
    std::ifstream In(Path, std::ios::binary);
    Bytes.assign(std::istreambuf_iterator<char>(In),
                 std::istreambuf_iterator<char>());
    for (size_t At = 32; loadLE32(Bytes, At) != 0xFFFFFFFFu;
         At += 12 + loadLE32(Bytes, At))
      Chunks.push_back(At);
    Sentinel = Chunks.back() + 12 + loadLE32(Bytes, Chunks.back());
  }

  /// Offset of byte \p Byte of chunk \p Chunk's payload.
  size_t payload(size_t Chunk, size_t Byte) const {
    return Chunks[Chunk] + 12 + Byte;
  }
};

/// One file to open: the recorded bytes or a corruption of them, and the
/// reason the reader must give ("" for a valid file).
struct FileCase {
  const char *Name;
  std::vector<char> Bytes;
  std::string Why;
};

/// The pinned corruptions of \p F, each with the sequential walk's
/// first failure in file order.
std::vector<FileCase> pinnedCases(const MultiChunkFile &F) {
  std::vector<FileCase> Cases;
  auto Add = [&](const char *Name, std::string Why, auto Mutate) {
    std::vector<char> M = F.Bytes;
    Mutate(M);
    Cases.push_back({Name, std::move(M), std::move(Why)});
  };
  Add("valid", "", [](std::vector<char> &) {});
  Add("bad CRC in chunk 2, implausible length in chunk 5",
      "chunk 2 CRC mismatch", [&](std::vector<char> &M) {
        M[F.payload(2, 100)] ^= 0x10;
        storeLE32(M, F.Chunks[5], 0xF0000000u);
      });
  Add("bad CRCs in chunks 3 and 8", "chunk 3 CRC mismatch",
      [&](std::vector<char> &M) {
        M[F.payload(8, 1)] ^= 0x02;
        M[F.payload(3, 1)] ^= 0x02;
      });
  Add("implausible length in chunk 5",
      "implausible chunk size (corrupt length field)",
      [&](std::vector<char> &M) { storeLE32(M, F.Chunks[5], 0xF0000000u); });
  Add("bad CRC in the last chunk",
      "chunk " + std::to_string(F.Chunks.size() - 1) + " CRC mismatch",
      [&](std::vector<char> &M) { M[F.payload(F.Chunks.size() - 1, 7)] ^= 1; });
  Add("plausible length past EOF in chunk 6", "truncated chunk payload",
      [&](std::vector<char> &M) {
        storeLE32(M, F.Chunks[6], static_cast<uint32_t>(M.size()));
      });
  Add("cut mid-header of chunk 4", "truncated chunk header",
      [&](std::vector<char> &M) { M.resize(F.Chunks[4] + 6); });
  Add("cut inside chunk 4's length word", "truncated chunk stream",
      [&](std::vector<char> &M) { M.resize(F.Chunks[4] + 2); });
  Add("bad CRC in chunk 7, cut inside chunk 8", "chunk 7 CRC mismatch",
      [&](std::vector<char> &M) {
        M[F.payload(7, 5000)] ^= 0x80;
        M.resize(F.payload(8, 50));
      });
  Add("event count of chunk 4 off by one, bad CRC in chunk 6",
      "chunk 4 holds 524288 bytes for 65537 events (expected 8 per event)",
      [&](std::vector<char> &M) {
        storeLE32(M, F.Chunks[4] + 4, loadLE32(M, F.Chunks[4] + 4) + 1);
        M[F.payload(6, 3)] ^= 0x01;
      });
  Add("bad summary CRC", "summary CRC mismatch",
      [&](std::vector<char> &M) { M[F.Sentinel + 8] ^= 0x04; });
  return Cases;
}

TEST(TraceStoreFile, PinnedDiagnosticsOfMultiChunkFiles) {
  ScratchDir Dir("pinned");
  const MultiChunkFile F(Dir.str());
  ASSERT_GE(F.Chunks.size(), 8u);
  for (const FileCase &C : pinnedCases(F)) {
    writeBytes(F.Path, C.Bytes);
    DiagnosticEngine D;
    TraceStoreReader R;
    const TraceStoreReader::OpenStatus Status =
        R.open(F.Path, MultiChunkFile::Hash, D);
    if (C.Why.empty()) {
      EXPECT_EQ(Status, TraceStoreReader::OpenStatus::Ok) << D.str();
      EXPECT_EQ(R.eventCount(), 600000u);
      continue;
    }
    EXPECT_EQ(Status, TraceStoreReader::OpenStatus::Invalid) << C.Name;
    ASSERT_EQ(D.errorCount(), 1u) << C.Name << ": " << D.str();
    EXPECT_EQ(D.diagnostics()[0].Message,
              "trace store: rejecting '" + F.Path + "': " + C.Why +
                  " (falling back to live simulation)")
        << C.Name;
  }
}

TEST(TraceStoreFile, BadEventUnderAValidCrcFailsOnDecode) {
  // open() checks framing and CRCs, not event contents: a file whose
  // CRC was recomputed over an is-write byte of 2 opens, and next()
  // then fails cleanly on that chunk.
  ScratchDir Dir("bad_event");
  const MultiChunkFile F(Dir.str());
  std::vector<char> M = F.Bytes;
  M[F.payload(1, 8 * 5 + 4)] = 2;
  const uint32_t PayloadBytes = loadLE32(M, F.Chunks[1]);
  storeLE32(M, F.Chunks[1] + 8,
            detail::crc32(reinterpret_cast<const uint8_t *>(M.data()) +
                              F.payload(1, 0),
                          PayloadBytes));
  writeBytes(F.Path, M);
  DiagnosticEngine D;
  TraceStoreReader R;
  ASSERT_EQ(R.open(F.Path, MultiChunkFile::Hash, D),
            TraceStoreReader::OpenStatus::Ok)
      << D.str();
  std::vector<TraceEvent> Chunk;
  ASSERT_TRUE(R.next(Chunk));
  EXPECT_EQ(Chunk.size(), TraceStoreWriter::ChunkEvents);
  EXPECT_FALSE(R.next(Chunk));
  EXPECT_TRUE(R.failed());
  EXPECT_TRUE(Chunk.empty());
  EXPECT_FALSE(R.next(Chunk)); // Stays failed.
  EXPECT_FALSE(D.hasErrors()) << D.str();
}

TEST(TraceContentHash, TracksTraceAffectingInputsOnly) {
  const Workload *W = findWorkload("Queen");
  ASSERT_NE(W, nullptr);
  DiagnosticEngine Diags;
  CompileOptions Options;
  CompileResult R = compileProgram(W->Source, Options, Diags);
  ASSERT_TRUE(R.Ok) << Diags.str();
  SimConfig Sim;

  const uint64_t H = traceContentHash(R.Program, Sim);
  EXPECT_EQ(H, traceContentHash(R.Program, Sim)) << "not deterministic";

  // Pure observers must not change the key: engine choice, sinks,
  // chunking, reserve hints, trace recording.
  SimConfig Observer = Sim;
  Observer.Engine = SimEngine::Switch;
  Observer.RecordTrace = true;
  Observer.TraceChunkEvents = 17;
  Observer.TraceSizeHint = 999;
  EXPECT_EQ(H, traceContentHash(R.Program, Observer));

  // Everything that can change the trace or the stored summary must.
  SimConfig C1 = Sim;
  C1.MaxSteps = 1000;
  EXPECT_NE(H, traceContentHash(R.Program, C1));
  SimConfig C2 = Sim;
  C2.Cache.NumLines *= 2;
  EXPECT_NE(H, traceContentHash(R.Program, C2));
  SimConfig C3 = Sim;
  C3.Paranoid = !C3.Paranoid;
  EXPECT_NE(H, traceContentHash(R.Program, C3));
  SimConfig C4 = Sim;
  C4.ModelICache = true;
  EXPECT_NE(H, traceContentHash(R.Program, C4));

  MachineProgram P1 = R.Program;
  P1.Code.back().Imm ^= 1;
  EXPECT_NE(H, traceContentHash(P1, Sim));
  MachineProgram P2 = R.Program;
  for (MInst &I : P2.Code)
    if (I.isMemAccess()) {
      I.MemInfo.Bypass = !I.MemInfo.Bypass;
      break;
    }
  EXPECT_NE(H, traceContentHash(P2, Sim));
  MachineProgram P3 = R.Program;
  P3.StackTop += 64;
  EXPECT_NE(H, traceContentHash(P3, Sim));
}

//===----------------------------------------------------------------------===//
// Engine integration: warm == cold, bit for bit, with no Simulator.
//===----------------------------------------------------------------------===//

/// Compiles \p Name and returns a producer that counts its invocations.
struct CountedProducer {
  std::shared_ptr<MachineProgram> Prog;
  std::shared_ptr<std::atomic<int>> Calls =
      std::make_shared<std::atomic<int>>(0);

  explicit CountedProducer(const std::string &Name) {
    const Workload *W = findWorkload(Name);
    EXPECT_NE(W, nullptr);
    DiagnosticEngine Diags;
    CompileOptions Options;
    CompileResult R = compileProgram(W->Source, Options, Diags);
    EXPECT_TRUE(R.Ok) << Diags.str();
    Prog = std::make_shared<MachineProgram>(std::move(R.Program));
  }

  SweepEngine::Producer producer() const {
    auto P = Prog;
    auto C = Calls;
    return [P, C](const SimConfig &Config) {
      C->fetch_add(1);
      Simulator S(Config);
      return S.run(*P);
    };
  }
};

/// A point mix covering every replay family: stack-distance sizes,
/// the two-way kernel, the generic replayer, Random, Belady MIN (the
/// materialized-trace path), hinted and hint-stripped.
std::vector<SweepPoint> mixedPoints() {
  auto Cfg = [](uint32_t Lines, uint32_t Assoc) {
    CacheConfig C;
    C.NumLines = Lines;
    C.Assoc = Assoc;
    C.LineWords = 1;
    return C;
  };
  return {
      {Cfg(128, 2), CachePolicy::LRU, false},
      {Cfg(128, 2), CachePolicy::LRU, true},
      {Cfg(64, 4), CachePolicy::LRU, false},
      {Cfg(64, 64), CachePolicy::LRU, false},
      {Cfg(64, 2), CachePolicy::Random, false},
      {Cfg(64, 2), CachePolicy::MIN, false},
      {Cfg(64, 2), CachePolicy::MIN, true},
  };
}

void expectSameBase(const SimResult &A, const SimResult &B) {
  EXPECT_EQ(A.Steps, B.Steps);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.Cache, B.Cache);
  EXPECT_EQ(A.ICache, B.ICache);
  EXPECT_EQ(A.Refs.total(), B.Refs.total());
  EXPECT_EQ(A.Refs.Bypassed, B.Refs.Bypassed);
  EXPECT_EQ(A.Refs.LastRefTagged, B.Refs.LastRefTagged);
  EXPECT_EQ(A.CoherenceViolations, B.CoherenceViolations);
}

TEST(TraceStoreEngine, WarmMatchesColdAcrossShardCounts) {
  ScratchDir Dir("engine");
  CountedProducer Queen("Queen");
  std::vector<SweepPoint> Points = mixedPoints();
  SimConfig Base;
  const uint64_t Hash = traceContentHash(*Queen.Prog, Base);

  // Cold: records. The producer runs exactly once.
  DiagnosticEngine ColdDiags;
  SweepEngine Cold;
  Cold.setTraceStore(Dir.str(), &ColdDiags);
  Cold.schedule("exp", "g", Base, Points, Queen.producer(), Hash);
  Cold.run();
  EXPECT_EQ(Queen.Calls->load(), 1);
  EXPECT_FALSE(ColdDiags.hasErrors()) << ColdDiags.str();
  ASSERT_TRUE(Cold.base("exp").ok());
  ASSERT_TRUE(std::filesystem::exists(traceStorePath(Dir.str(), Hash)));

  // Warm, across worker counts {1, 7, auto}: the producer is never
  // invoked again and every counter is bit-identical to cold.
  for (uint32_t Workers : {1u, 7u, 0u}) {
    DiagnosticEngine WarmDiags;
    SweepEngine Warm;
    Warm.setReplayWorkers(Workers);
    Warm.setTraceStore(Dir.str(), &WarmDiags);
    Warm.schedule("exp", "g", Base, Points, Queen.producer(), Hash);
    Warm.run();
    EXPECT_EQ(Queen.Calls->load(), 1) << "workers " << Workers;
    EXPECT_FALSE(WarmDiags.hasErrors()) << WarmDiags.str();
    const SimResult &CB = Cold.base("exp"), &WB = Warm.base("exp");
    EXPECT_EQ(WB.Steps, CB.Steps) << "workers " << Workers;
    EXPECT_EQ(WB.Output, CB.Output) << "workers " << Workers;
    EXPECT_EQ(WB.Cache, CB.Cache) << "workers " << Workers;
    for (size_t P = 0; P != Points.size(); ++P)
      EXPECT_EQ(Warm.point("exp", P), Cold.point("exp", P))
          << "workers " << Workers << " point " << P;
  }
}

TEST(TraceStoreEngine, NoStoreMatchesStore) {
  // The store must be invisible in the numbers: an engine with no
  // store configured produces the same counters as cold and warm.
  ScratchDir Dir("plain");
  CountedProducer Sieve("Sieve");
  std::vector<SweepPoint> Points = mixedPoints();
  SimConfig Base;
  const uint64_t Hash = traceContentHash(*Sieve.Prog, Base);

  SweepEngine Plain;
  Plain.schedule("exp", "g", Base, Points, Sieve.producer(), Hash);
  Plain.run();

  SweepEngine Cold;
  Cold.setTraceStore(Dir.str());
  Cold.schedule("exp", "g", Base, Points, Sieve.producer(), Hash);
  Cold.run();

  SweepEngine Warm;
  Warm.setTraceStore(Dir.str());
  Warm.schedule("exp", "g", Base, Points, Sieve.producer(), Hash);
  Warm.run();
  EXPECT_EQ(Sieve.Calls->load(), 2); // Plain + cold; warm served.

  for (size_t P = 0; P != Points.size(); ++P) {
    EXPECT_EQ(Cold.point("exp", P), Plain.point("exp", P)) << P;
    EXPECT_EQ(Warm.point("exp", P), Plain.point("exp", P)) << P;
  }
}

TEST(TraceStoreEngine, FallsBackToLiveOnCorruptFile) {
  ScratchDir Dir("fallback");
  CountedProducer Queen("Queen");
  std::vector<SweepPoint> Points = mixedPoints();
  SimConfig Base;
  const uint64_t Hash = traceContentHash(*Queen.Prog, Base);

  SweepEngine Cold;
  Cold.setTraceStore(Dir.str());
  Cold.schedule("exp", "g", Base, Points, Queen.producer(), Hash);
  Cold.run();
  ASSERT_EQ(Queen.Calls->load(), 1);

  // Corrupt the published file: a warm engine must report one clean
  // diagnostic, simulate live (producer invoked), match cold bit for
  // bit — and re-record a good file, so the *next* run is warm again.
  const std::string Path = traceStorePath(Dir.str(), Hash);
  {
    std::fstream F(Path, std::ios::in | std::ios::out | std::ios::binary);
    F.seekp(200);
    F.put('\x7f');
  }
  DiagnosticEngine Diags;
  SweepEngine Fallback;
  Fallback.setTraceStore(Dir.str(), &Diags);
  Fallback.schedule("exp", "g", Base, Points, Queen.producer(), Hash);
  Fallback.run();
  EXPECT_EQ(Queen.Calls->load(), 2);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.str().find("CRC"), std::string::npos) << Diags.str();
  for (size_t P = 0; P != Points.size(); ++P)
    EXPECT_EQ(Fallback.point("exp", P), Cold.point("exp", P)) << P;

  DiagnosticEngine WarmDiags;
  SweepEngine Warm;
  Warm.setTraceStore(Dir.str(), &WarmDiags);
  Warm.schedule("exp", "g", Base, Points, Queen.producer(), Hash);
  Warm.run();
  EXPECT_EQ(Queen.Calls->load(), 2) << "re-record did not heal the file";
  EXPECT_FALSE(WarmDiags.hasErrors()) << WarmDiags.str();
  for (size_t P = 0; P != Points.size(); ++P)
    EXPECT_EQ(Warm.point("exp", P), Cold.point("exp", P)) << P;
}

/// Regression for the observability contract: a store lookup must light
/// up the sim.store.* counters (a miss or a hit, bytes read) and a live
/// run with automatic replay workers the sweep.parallel.* counters
/// (streams, units, workers) — a refactor that serves the store without
/// metering, or replays in parallel without counting, silently blinds
/// the benches and the metrics time series.
TEST(TraceStoreEngine, WarmAutoShardedRunKeepsStoreAndShardCounters) {
  TelemetryGuard Guard;

  ScratchDir Dir("counters");
  CountedProducer Queen("Queen");
  std::vector<SweepPoint> Points = mixedPoints();
  SimConfig Base;
  const uint64_t Hash = traceContentHash(*Queen.Prog, Base);

  SweepEngine Plain;
  Plain.schedule("exp", "g", Base, Points, Queen.producer(), 0);
  Plain.run();

  // The first run records only the first two points, so the second run
  // has five points without a stored record: it runs live and replays
  // them in parallel.
  const std::vector<SweepPoint> ColdPoints(Points.begin(),
                                           Points.begin() + 2);
  telemetry::reset();
  SweepEngine Cold;
  Cold.setTraceStore(Dir.str());
  Cold.schedule("exp", "g", Base, ColdPoints, Queen.producer(), Hash);
  Cold.run();
  ASSERT_EQ(Queen.Calls->load(), 2);

  auto counter = counterValue;
  EXPECT_EQ(counter("sim.store.misses"), 1u);
  EXPECT_GT(counter("sim.store.bytes-written"), 0u);

  // An explicit pool: auto resolves to the pool width, which must
  // exceed 1 for parallel replay to engage even on a 1-core host.
  ThreadPool Pool(4);
  telemetry::reset();
  SweepEngine Partial(&Pool);
  Partial.setReplayWorkers(0); // auto
  Partial.setTraceStore(Dir.str());
  Partial.schedule("exp", "g", Base, Points, Queen.producer(), Hash);
  Partial.run();
  EXPECT_EQ(Queen.Calls->load(), 3) << "a point without a record ran live";
  ASSERT_TRUE(Partial.base("exp").ok());
  EXPECT_EQ(counter("sim.store.hits"), 0u);
  EXPECT_EQ(counter("sim.store.misses"), 1u);
  EXPECT_GT(counter("sim.store.bytes-read"), 0u);
  EXPECT_GT(counter("sim.store.bytes-written"), 0u);
  EXPECT_EQ(counter("sim.store.points-served"), 1u);
  EXPECT_GT(counter("sweep.parallel.streams"), 0u);
  EXPECT_GT(counter("sweep.parallel.units"), 0u);
  EXPECT_GT(counter("sweep.parallel.workers"), 0u);
  for (size_t P = 0; P != Points.size(); ++P)
    EXPECT_EQ(Partial.point("exp", P), Plain.point("exp", P)) << P;

  // The re-recorded file answers every point: a hit, nothing simulated.
  telemetry::reset();
  SweepEngine Warm(&Pool);
  Warm.setReplayWorkers(0);
  Warm.setTraceStore(Dir.str());
  Warm.schedule("exp", "g", Base, Points, Queen.producer(), Hash);
  Warm.run();
  EXPECT_EQ(Queen.Calls->load(), 3) << "warm run was not warm";
  EXPECT_EQ(counter("sim.runs"), 0u);
  EXPECT_EQ(counter("sim.store.hits"), 1u);
  EXPECT_EQ(counter("sim.store.misses"), 0u);
  EXPECT_GT(counter("sim.store.bytes-read"), 0u);
  EXPECT_EQ(counter("sim.store.points-served"), 6u);
  for (size_t P = 0; P != Points.size(); ++P)
    EXPECT_EQ(Warm.point("exp", P), Plain.point("exp", P)) << P;
}

TEST(TraceStoreEngine, BaseOnlyWarmIsServedFromSummary) {
  TelemetryGuard Guard;
  ScratchDir Dir("summary_served");
  CountedProducer Queen("Queen");
  SimConfig Base;
  const uint64_t Hash = traceContentHash(*Queen.Prog, Base);

  SweepEngine Cold;
  Cold.setTraceStore(Dir.str());
  Cold.schedule("exp", "g", Base, {}, Queen.producer(), Hash);
  Cold.run();
  ASSERT_EQ(Queen.Calls->load(), 1);
  ASSERT_TRUE(Cold.base("exp").ok());

  // The stored row was measured under this very base configuration, so
  // the warm run takes it as is: no Simulator, and not one chunk
  // decoded.
  telemetry::reset();
  DiagnosticEngine Diags;
  SweepEngine Warm;
  Warm.setTraceStore(Dir.str(), &Diags);
  Warm.schedule("exp", "g", Base, {}, Queen.producer(), Hash);
  Warm.run();
  EXPECT_EQ(Queen.Calls->load(), 1);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  EXPECT_EQ(counterValue("sim.store.hits"), 1u);
  EXPECT_EQ(counterValue("sim.store.summary-served"), 1u);
  EXPECT_EQ(counterValue("sim.store.decode-ns"), 0u);
  EXPECT_EQ(counterValue("sim.runs"), 0u);
  expectSameBase(Warm.base("exp"), Cold.base("exp"));
}

TEST(TraceStoreEngine, PolicyOrSeedMismatchRunsLiveThenServes) {
  // The content hash ignores the base policy and seed, so these stores
  // are found; their summary rows answer another configuration and no
  // record answers this one, so the run is a miss: it simulates once,
  // matches live, and re-records. The next run with either base is then
  // served without simulating.
  TelemetryGuard Guard;
  CountedProducer Queen("Queen");
  auto WithPolicy = [](CachePolicy Policy, uint64_t Seed) {
    SimConfig C;
    C.Cache.Policy = Policy;
    C.Cache.Seed = Seed;
    return C;
  };
  const struct {
    const char *Name;
    SimConfig Recorded, Served;
  } Cases[] = {
      {"fifo_serves_lru", WithPolicy(CachePolicy::FIFO, 0x5eed),
       WithPolicy(CachePolicy::LRU, 0x5eed)},
      {"random_other_seed", WithPolicy(CachePolicy::Random, 1),
       WithPolicy(CachePolicy::Random, 2)},
  };
  for (const auto &Case : Cases) {
    SCOPED_TRACE(Case.Name);
    ScratchDir Dir(Case.Name);
    const uint64_t Hash = traceContentHash(*Queen.Prog, Case.Recorded);
    ASSERT_EQ(Hash, traceContentHash(*Queen.Prog, Case.Served));
    SweepEngine Record;
    Record.setTraceStore(Dir.str());
    Record.schedule("exp", "g", Case.Recorded, {}, Queen.producer(), Hash);
    Record.run();

    SweepEngine Live;
    Live.schedule("exp", "g", Case.Served, mixedPoints(), Queen.producer(),
                  Hash);
    Live.run();
    const int Calls = Queen.Calls->load();

    telemetry::reset();
    DiagnosticEngine Diags;
    SweepEngine Miss;
    Miss.setTraceStore(Dir.str(), &Diags);
    Miss.schedule("exp", "g", Case.Served, mixedPoints(), Queen.producer(),
                  Hash);
    Miss.run();
    EXPECT_EQ(Queen.Calls->load(), Calls + 1);
    EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
    EXPECT_EQ(counterValue("sim.store.hits"), 0u);
    EXPECT_EQ(counterValue("sim.store.misses"), 1u);
    EXPECT_EQ(counterValue("sim.store.summary-served"), 0u);
    expectSameBase(Miss.base("exp"), Live.base("exp"));
    for (size_t P = 0; P != mixedPoints().size(); ++P)
      EXPECT_EQ(Miss.point("exp", P), Live.point("exp", P)) << P;

    // Both bases are served from the re-recorded file: the served one
    // from the summary, the recorded one from its carried-over row.
    for (const SimConfig *Base : {&Case.Served, &Case.Recorded}) {
      telemetry::reset();
      SweepEngine Warm;
      Warm.setTraceStore(Dir.str(), &Diags);
      Warm.schedule("exp", "g", *Base, mixedPoints(), Queen.producer(),
                    Hash);
      Warm.run();
      EXPECT_EQ(Queen.Calls->load(), Calls + 1);
      EXPECT_EQ(counterValue("sim.runs"), 0u);
      EXPECT_EQ(counterValue("sim.store.hits"), 1u);
      // The recorded base is answered by a record, not the summary; it
      // is not a scheduled point and counts in neither.
      EXPECT_EQ(counterValue("sweep.points-replayed"), 0u);
      expectEveryPointCountedOnce(mixedPoints().size());
      EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
      expectSameBase(Warm.base("exp"), Base == &Case.Served
                                           ? Live.base("exp")
                                           : Record.base("exp"));
      for (size_t P = 0; P != mixedPoints().size(); ++P)
        EXPECT_EQ(Warm.point("exp", P), Live.point("exp", P)) << P;
    }
  }
}

TEST(TraceStoreEngine, OutOfRangeSummaryPolicyFallsBackToLive) {
  ScratchDir Dir("bad_policy");
  CountedProducer Sieve("Sieve");
  SimConfig Base;
  const uint64_t Hash = traceContentHash(*Sieve.Prog, Base);
  SweepEngine Cold;
  Cold.setTraceStore(Dir.str());
  Cold.schedule("exp", "g", Base, mixedPoints(), Sieve.producer(), Hash);
  Cold.run();
  ASSERT_EQ(Sieve.Calls->load(), 1);

  // Rewrite the summary's policy byte (its first byte) to a value no
  // CachePolicy has, and fix up the summary CRC so that only the range
  // check can catch it.
  const std::string Path = traceStorePath(Dir.str(), Hash);
  std::vector<uint8_t> Bytes;
  {
    std::ifstream In(Path, std::ios::binary);
    Bytes.assign(std::istreambuf_iterator<char>(In),
                 std::istreambuf_iterator<char>());
  }
  auto LE32 = [&](size_t At) {
    return static_cast<uint32_t>(Bytes[At]) |
           static_cast<uint32_t>(Bytes[At + 1]) << 8 |
           static_cast<uint32_t>(Bytes[At + 2]) << 16 |
           static_cast<uint32_t>(Bytes[At + 3]) << 24;
  };
  size_t At = 32; // First chunk header.
  while (LE32(At) != 0xFFFFFFFFu)
    At += 12 + LE32(At);
  const size_t SummaryLen = LE32(At + 4), Summary = At + 8;
  ASSERT_LE(Summary + SummaryLen + 4, Bytes.size());
  ASSERT_EQ(Bytes[Summary], static_cast<uint8_t>(CachePolicy::LRU));
  Bytes[Summary] = static_cast<uint8_t>(CachePolicy::LivenessBypass) + 1;
  const uint32_t Crc = detail::crc32(Bytes.data() + Summary, SummaryLen);
  for (int B = 0; B != 4; ++B)
    Bytes[Summary + SummaryLen + B] = static_cast<uint8_t>(Crc >> (8 * B));
  std::ofstream(Path, std::ios::binary)
      .write(reinterpret_cast<const char *>(Bytes.data()),
             static_cast<long>(Bytes.size()));

  DiagnosticEngine Diags;
  SweepEngine Fallback;
  Fallback.setTraceStore(Dir.str(), &Diags);
  Fallback.schedule("exp", "g", Base, mixedPoints(), Sieve.producer(), Hash);
  Fallback.run();
  EXPECT_EQ(Sieve.Calls->load(), 2) << "bad summary was served";
  EXPECT_NE(Diags.str().find("unknown cache policy 7"), std::string::npos)
      << Diags.str();
  expectSameBase(Fallback.base("exp"), Cold.base("exp"));
  for (size_t P = 0; P != mixedPoints().size(); ++P)
    EXPECT_EQ(Fallback.point("exp", P), Cold.point("exp", P)) << P;
}

TEST(TraceStoreEngine, WarmServesEveryRecordedPointWithoutDecoding) {
  // The cold run stores the counters of every point it replayed — MIN
  // included — so a warm run of the same grid decodes and replays
  // nothing, and still matches cold bit for bit.
  TelemetryGuard Guard;
  ScratchDir Dir("all_records");
  CountedProducer Queen("Queen");
  std::vector<SweepPoint> Points = mixedPoints();
  SimConfig Base;
  const uint64_t Hash = traceContentHash(*Queen.Prog, Base);

  SweepEngine Cold;
  Cold.setTraceStore(Dir.str());
  Cold.schedule("exp", "g", Base, Points, Queen.producer(), Hash);
  Cold.run();
  ASSERT_EQ(Queen.Calls->load(), 1);
  ASSERT_TRUE(Cold.base("exp").ok());

  for (uint32_t Workers : {1u, 0u}) {
    telemetry::reset();
    DiagnosticEngine Diags;
    SweepEngine Warm;
    Warm.setReplayWorkers(Workers);
    Warm.setTraceStore(Dir.str(), &Diags);
    Warm.schedule("exp", "g", Base, Points, Queen.producer(), Hash);
    Warm.run();
    SCOPED_TRACE(Workers);
    EXPECT_EQ(Queen.Calls->load(), 1);
    EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
    EXPECT_EQ(counterValue("sim.runs"), 0u);
    EXPECT_EQ(counterValue("sim.store.hits"), 1u);
    EXPECT_EQ(counterValue("sim.store.decode-ns"), 0u);
    EXPECT_EQ(counterValue("sweep.replay-ns"), 0u);
    // Point 0 is the base configuration (reused); the other six were
    // replayed cold and are served from their records now.
    EXPECT_EQ(counterValue("sim.store.points-served"), 6u);
    EXPECT_EQ(counterValue("sweep.points-replayed"), 0u);
    expectEveryPointCountedOnce(Points.size());
    EXPECT_EQ(counterValue("check.replay.points"), 6u);
    EXPECT_EQ(counterValue("check.replay.violations"), 0u);
    expectSameBase(Warm.base("exp"), Cold.base("exp"));
    for (size_t P = 0; P != Points.size(); ++P)
      EXPECT_EQ(Warm.point("exp", P), Cold.point("exp", P)) << P;
  }
}

TEST(TraceStoreEngine, PartialRecordsReplayOnlyMissingPoints) {
  TelemetryGuard Guard;
  ScratchDir Dir("partial_records");
  CountedProducer Queen("Queen");
  std::vector<SweepPoint> Points = mixedPoints();
  SimConfig Base;
  const uint64_t Hash = traceContentHash(*Queen.Prog, Base);

  SweepEngine Plain;
  Plain.schedule("exp", "g", Base, Points, Queen.producer(), 0);
  Plain.run();

  // Records for points 1-3 only; Random and both MIN points have none.
  SweepEngine Cold;
  Cold.setTraceStore(Dir.str());
  Cold.schedule("exp", "g", Base,
                std::vector<SweepPoint>(Points.begin(), Points.begin() + 4),
                Queen.producer(), Hash);
  Cold.run();
  ASSERT_EQ(Queen.Calls->load(), 2);

  // The run simulates once more and replays only the three points
  // without a record; the other three come from the file.
  telemetry::reset();
  DiagnosticEngine Diags;
  SweepEngine Partial;
  Partial.setTraceStore(Dir.str(), &Diags);
  Partial.schedule("exp", "g", Base, Points, Queen.producer(), Hash);
  Partial.run();
  EXPECT_EQ(Queen.Calls->load(), 3);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  EXPECT_EQ(counterValue("sim.runs"), 1u);
  EXPECT_EQ(counterValue("sim.store.points-served"), 3u);
  EXPECT_EQ(counterValue("sweep.points-replayed"), 3u);
  expectEveryPointCountedOnce(Points.size());
  // Three served plus the three that replayed.
  EXPECT_EQ(counterValue("check.replay.points"), 6u);
  EXPECT_EQ(counterValue("sim.store.decode-ns"), 0u);
  for (size_t P = 0; P != Points.size(); ++P)
    EXPECT_EQ(Partial.point("exp", P), Plain.point("exp", P)) << P;

  // The re-recorded file holds all six records.
  telemetry::reset();
  SweepEngine Warm;
  Warm.setTraceStore(Dir.str(), &Diags);
  Warm.schedule("exp", "g", Base, Points, Queen.producer(), Hash);
  Warm.run();
  EXPECT_EQ(Queen.Calls->load(), 3) << "warm run was not warm";
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  EXPECT_EQ(counterValue("sim.runs"), 0u);
  EXPECT_EQ(counterValue("sim.store.points-served"), 6u);
  EXPECT_EQ(counterValue("sweep.points-replayed"), 0u);
  expectEveryPointCountedOnce(Points.size());
  for (size_t P = 0; P != Points.size(); ++P)
    EXPECT_EQ(Warm.point("exp", P), Plain.point("exp", P)) << P;
}

TEST(TraceStoreEngine, PartialMissCountsOneMissAndNoHit) {
  TelemetryGuard Guard;
  ScratchDir Dir("partial_miss");
  CountedProducer Sieve("Sieve");
  std::vector<SweepPoint> Points = mixedPoints();
  SimConfig Base;
  const uint64_t Hash = traceContentHash(*Sieve.Prog, Base);

  SweepEngine Cold;
  Cold.setTraceStore(Dir.str());
  Cold.schedule("exp", "g", Base,
                std::vector<SweepPoint>(Points.begin(), Points.begin() + 3),
                Sieve.producer(), Hash);
  Cold.run();

  telemetry::reset();
  DiagnosticEngine Diags;
  SweepEngine Partial;
  Partial.setTraceStore(Dir.str(), &Diags);
  Partial.schedule("exp", "g", Base, Points, Sieve.producer(), Hash);
  Partial.run();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  EXPECT_EQ(Sieve.Calls->load(), 2);
  EXPECT_EQ(counterValue("sim.store.misses"), 1u);
  EXPECT_EQ(counterValue("sim.store.hits"), 0u);
}

TEST(TraceStoreEngine, AttributionPointReplaysNextToRecordedPoints) {
  TelemetryGuard Guard;
  ScratchDir Dir("attrib_records");
  CountedProducer Queen("Queen");
  const uint32_t NumRefs =
      static_cast<uint32_t>(Queen.Prog->RefTable.size());
  ASSERT_GT(NumRefs, 0u);
  const std::vector<SweepPoint> Grid = mixedPoints();
  std::vector<SweepPoint> Points = Grid;
  SweepPoint Attributed = Points[2]; // 64 lines, 4-way, LRU, hinted.
  Attributed.AttributionRefs = NumRefs;
  Points.push_back(Attributed);
  SimConfig Base;
  const uint64_t Hash = traceContentHash(*Queen.Prog, Base);

  SweepEngine Cold;
  Cold.setTraceStore(Dir.str());
  Cold.schedule("exp", "g", Base, Points, Queen.producer(), Hash);
  Cold.run();
  ASSERT_TRUE(Cold.base("exp").ok());
  const size_t A = Points.size() - 1;

  // No attribution table is stored, so the run simulates once more and
  // replays the attribution point alone; the others come from records.
  telemetry::reset();
  DiagnosticEngine Diags;
  SweepEngine Again;
  Again.setTraceStore(Dir.str(), &Diags);
  Again.schedule("exp", "g", Base, Points, Queen.producer(), Hash);
  Again.run();
  EXPECT_EQ(Queen.Calls->load(), 2);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  EXPECT_EQ(counterValue("sim.store.points-served"), 6u);
  EXPECT_EQ(counterValue("check.replay.points"), 7u);
  EXPECT_EQ(counterValue("sim.store.misses"), 1u);
  for (size_t P = 0; P != Points.size(); ++P)
    EXPECT_EQ(Again.point("exp", P), Cold.point("exp", P)) << P;
  EXPECT_EQ(Again.point("exp", A), Again.point("exp", 2));
  EXPECT_TRUE(Again.attribution("exp", A) == Cold.attribution("exp", A));
  uint64_t Accesses = Again.attribution("exp", A).overflow().accesses();
  for (uint32_t R = 0; R != NumRefs; ++R)
    Accesses += Again.attribution("exp", A).row(R).accesses();
  EXPECT_GT(Accesses, 0u);

  // Without the attribution point, the grid is served from the file.
  telemetry::reset();
  SweepEngine Warm;
  Warm.setTraceStore(Dir.str(), &Diags);
  Warm.schedule("exp", "g", Base, Grid, Queen.producer(), Hash);
  Warm.run();
  EXPECT_EQ(Queen.Calls->load(), 2);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  EXPECT_EQ(counterValue("sim.runs"), 0u);
  for (size_t P = 0; P != Grid.size(); ++P)
    EXPECT_EQ(Warm.point("exp", P), Cold.point("exp", P)) << P;
}

TEST(TraceStoreEngine, LawBreakingRecordFallsBackToLiveAndHeals) {
  TelemetryGuard Guard;
  ScratchDir Dir("law_record");
  CountedProducer Queen("Queen");
  std::vector<SweepPoint> Points = mixedPoints();
  SimConfig Base;
  const uint64_t Hash = traceContentHash(*Queen.Prog, Base);

  SweepEngine Cold;
  Cold.schedule("exp", "g", Base, Points, Queen.producer(), 0);
  Cold.run();
  ASSERT_TRUE(Cold.base("exp").ok());

  // A CRC-valid file whose record for point 2 (64 lines, 4-way, LRU,
  // hinted) claims more read hits than reads.
  {
    StoredPoint Bad;
    Bad.Config = Points[2].Config;
    Bad.Stats = Cold.point("exp", 2);
    Bad.Stats.ReadHits = Bad.Stats.Reads + 1;
    DiagnosticEngine Diags;
    TraceStoreWriter Writer;
    ASSERT_TRUE(Writer.open(Dir.str(), Hash, Diags));
    ASSERT_TRUE(Writer.commit(Cold.base("exp"), Base.Cache, Diags, {Bad}))
        << Diags.str();
  }

  telemetry::reset();
  DiagnosticEngine Diags;
  SweepEngine Fallback;
  Fallback.setTraceStore(Dir.str(), &Diags);
  Fallback.schedule("exp", "g", Base, Points, Queen.producer(), Hash);
  Fallback.run();
  EXPECT_EQ(Queen.Calls->load(), 2) << "the bad record was served";
  EXPECT_NE(Diags.str().find("conservation law 'ReadHits <= Reads'"),
            std::string::npos)
      << Diags.str();
  EXPECT_NE(Diags.str().find("LRU, 64 lines, 4-way"), std::string::npos)
      << Diags.str();
  EXPECT_EQ(counterValue("check.replay.violations"), 1u);
  ASSERT_TRUE(Fallback.base("exp").ok());
  expectSameBase(Fallback.base("exp"), Cold.base("exp"));
  for (size_t P = 0; P != Points.size(); ++P)
    EXPECT_EQ(Fallback.point("exp", P), Cold.point("exp", P)) << P;

  // The live fallback re-recorded the file: the next run is warm, clean
  // and served from the new records.
  telemetry::reset();
  DiagnosticEngine WarmDiags;
  SweepEngine Warm;
  Warm.setTraceStore(Dir.str(), &WarmDiags);
  Warm.schedule("exp", "g", Base, Points, Queen.producer(), Hash);
  Warm.run();
  EXPECT_EQ(Queen.Calls->load(), 2) << "re-record did not heal the file";
  EXPECT_FALSE(WarmDiags.hasErrors()) << WarmDiags.str();
  EXPECT_EQ(counterValue("sim.store.points-served"), 6u);
  EXPECT_EQ(counterValue("check.replay.violations"), 0u);
  for (size_t P = 0; P != Points.size(); ++P)
    EXPECT_EQ(Warm.point("exp", P), Cold.point("exp", P)) << P;
}

TEST(TraceStoreEngine, UnusableStoreDirectoryIsOneDiagnostic) {
  // A store path that names a file is reported once for the whole run,
  // not by a reader and a writer per experiment, and the run goes
  // store-less with the store-less counters.
  ScratchDir Dir("notadir");
  const std::string NotADir = (Dir.Path / "store").string();
  std::ofstream(NotADir) << "a file, not a directory";
  CountedProducer Sieve("Sieve");
  std::vector<SweepPoint> Points = mixedPoints();
  SimConfig Base;
  const uint64_t Hash = traceContentHash(*Sieve.Prog, Base);
  const char *Keys[] = {"a", "b", "c"};

  SweepEngine Plain;
  for (const char *Key : Keys)
    Plain.schedule(Key, "g", Base, Points, Sieve.producer(), Hash);
  Plain.run();

  DiagnosticEngine Diags;
  SweepEngine Engine;
  Engine.setTraceStore(NotADir, &Diags);
  for (const char *Key : Keys)
    Engine.schedule(Key, "g", Base, Points, Sieve.producer(), Hash);
  Engine.run();
  EXPECT_EQ(Sieve.Calls->load(), 6);
  EXPECT_EQ(Diags.errorCount(), 1u) << Diags.str();
  EXPECT_NE(Diags.str().find("trace store: cannot use '" + NotADir + "'"),
            std::string::npos)
      << Diags.str();
  for (const char *Key : Keys) {
    ASSERT_TRUE(Engine.base(Key).ok()) << Key;
    expectSameBase(Engine.base(Key), Plain.base(Key));
    for (size_t P = 0; P != Points.size(); ++P)
      EXPECT_EQ(Engine.point(Key, P), Plain.point(Key, P))
          << Key << " point " << P;
  }
  EXPECT_TRUE(std::filesystem::is_regular_file(NotADir));
}

TEST(TraceStoreEngine, NonRegularFileFallsBackToLive) {
  // A FIFO or a directory at the stored path is one diagnostic naming
  // it, then a live run with the store-less counters: never a read that
  // blocks on the FIFO. The FIFO is replaced by a recorded file; the
  // directory cannot be, and is left alone.
  ScratchDir Dir("special");
  CountedProducer Sieve("Sieve");
  std::vector<SweepPoint> Points = mixedPoints();
  SimConfig Base;
  const uint64_t Hash = traceContentHash(*Sieve.Prog, Base);
  const std::string Path = traceStorePath(Dir.str(), Hash);

  SweepEngine Plain;
  Plain.schedule("exp", "g", Base, Points, Sieve.producer(), Hash);
  Plain.run();

  for (bool Fifo : {true, false}) {
    const char *What = Fifo ? "FIFO" : "directory";
    if (Fifo)
      ASSERT_EQ(::mkfifo(Path.c_str(), 0600), 0) << std::strerror(errno);
    else
      ASSERT_TRUE(std::filesystem::create_directory(Path));
    DiagnosticEngine Diags;
    SweepEngine Engine;
    Engine.setTraceStore(Dir.str(), &Diags);
    Engine.schedule("exp", "g", Base, Points, Sieve.producer(), Hash);
    Engine.run();
    ASSERT_EQ(Diags.errorCount(), 1u) << What << ": " << Diags.str();
    EXPECT_EQ(Diags.diagnostics()[0].Message,
              "trace store: rejecting '" + Path +
                  "': not a regular file (falling back to live simulation)")
        << What;
    ASSERT_TRUE(Engine.base("exp").ok()) << What;
    expectSameBase(Engine.base("exp"), Plain.base("exp"));
    for (size_t P = 0; P != Points.size(); ++P)
      EXPECT_EQ(Engine.point("exp", P), Plain.point("exp", P))
          << What << " point " << P;
    if (Fifo)
      EXPECT_TRUE(std::filesystem::is_regular_file(Path));
    else
      EXPECT_TRUE(std::filesystem::is_directory(Path));
    std::filesystem::remove_all(Path);
  }
  EXPECT_EQ(Sieve.Calls->load(), 3);
}

/// Compares \p Lines with tests/golden/\p Name line by line; on a
/// mismatch writes them to `<Name>.actual` in the working directory.
void expectGolden(const std::vector<std::string> &Lines, const char *Name) {
  std::vector<std::string> Expected;
  std::ifstream Golden(std::string(URCM_GOLDEN_DIR "/") + Name);
  EXPECT_TRUE(Golden) << "missing " URCM_GOLDEN_DIR "/" << Name;
  for (std::string Line; std::getline(Golden, Line);)
    Expected.push_back(Line);
  if (Lines == Expected)
    return;
  std::ofstream Out(std::string(Name) + ".actual");
  for (const std::string &Line : Lines)
    Out << Line << "\n";
  ADD_FAILURE() << Name << " drifted from the golden file; computed lines "
                << "written to " << Name << ".actual";
  for (size_t I = 0; I != std::min(Lines.size(), Expected.size()); ++I)
    EXPECT_EQ(Lines[I], Expected[I]);
  EXPECT_EQ(Lines.size(), Expected.size());
}

TEST(TraceStoreEngine, EveryCorruptionFallsBackToLive) {
  // 150 seeded corruptions of a recorded Sieve store (a records-only
  // file: header, sentinel, summary, footer): truncations, single bit
  // flips, header-byte rewrites and 8-byte smears. Every one is
  // rejected with one diagnostic naming the file, and the experiment
  // runs live with the store-less counters. The diagnostics, path
  // stripped, are pinned by a golden file.
  ScratchDir Dir("fuzz");
  CountedProducer Sieve("Sieve");
  CacheConfig Small;
  Small.NumLines = 64;
  Small.Assoc = 4;
  const std::vector<SweepPoint> Points = {
      {SimConfig().Cache, CachePolicy::LRU, /*IgnoreHints=*/true},
      {Small, CachePolicy::LRU, false},
  };
  SimConfig Base;
  const uint64_t Hash = traceContentHash(*Sieve.Prog, Base);

  SweepEngine Plain;
  Plain.schedule("exp", "g", Base, Points, Sieve.producer(), Hash);
  Plain.run();
  SweepEngine Cold;
  Cold.setTraceStore(Dir.str());
  Cold.schedule("exp", "g", Base, Points, Sieve.producer(), Hash);
  Cold.run();
  const std::string Path = traceStorePath(Dir.str(), Hash);
  std::vector<char> Bytes;
  {
    std::ifstream In(Path, std::ios::binary);
    Bytes.assign(std::istreambuf_iterator<char>(In),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(Bytes.size(), 64u);

  SplitMix64 Rng(150);
  int Tried = 0;
  std::vector<std::string> Messages;
  for (int I = 0; I != 150; ++I) {
    std::vector<char> M = Bytes;
    switch (I % 4) {
    case 0: // Truncation anywhere, header included.
      M.resize(Rng.nextBelow(Bytes.size()));
      break;
    case 1: // One bit flip.
      M[Rng.nextBelow(M.size())] ^=
          static_cast<char>(1u << Rng.nextBelow(8));
      break;
    case 2: // One header byte rewritten.
      M[Rng.nextBelow(32)] = static_cast<char>(Rng.next());
      break;
    case 3: { // Eight bytes smeared with noise.
      const size_t At = Rng.nextBelow(M.size() - 7);
      const uint64_t Noise = Rng.next();
      for (size_t B = 0; B != 8; ++B)
        M[At + B] = static_cast<char>(Noise >> (8 * B));
      break;
    }
    }
    if (M == Bytes)
      continue;
    ++Tried;
    std::ofstream(Path, std::ios::binary)
        .write(M.data(), static_cast<long>(M.size()));
    const int CallsBefore = Sieve.Calls->load();
    DiagnosticEngine Diags;
    SweepEngine Warm;
    Warm.setTraceStore(Dir.str(), &Diags);
    Warm.schedule("exp", "g", Base, Points, Sieve.producer(), Hash);
    Warm.run();
    EXPECT_EQ(Sieve.Calls->load(), CallsBefore + 1)
        << "mutant " << I << " was served";
    EXPECT_EQ(Diags.errorCount(), 1u) << "mutant " << I << ": "
                                      << Diags.str();
    EXPECT_NE(Diags.str().find("'" + Path + "'"), std::string::npos)
        << "mutant " << I << ": " << Diags.str();
    std::string Line = "mutant " + std::to_string(I) + ":";
    for (const Diagnostic &D : Diags.diagnostics()) {
      std::string Message = D.Message;
      for (size_t At; (At = Message.find(Path)) != std::string::npos;)
        Message.replace(At, Path.size(), "<file>");
      Line += " " + Message;
    }
    Messages.push_back(Line);
    ASSERT_TRUE(Warm.base("exp").ok()) << "mutant " << I;
    expectSameBase(Warm.base("exp"), Plain.base("exp"));
    for (size_t P = 0; P != Points.size(); ++P)
      EXPECT_EQ(Warm.point("exp", P), Plain.point("exp", P))
          << "mutant " << I << " point " << P;
  }
  EXPECT_GT(Tried, 140);
  expectGolden(Messages, "store_corruption_messages.txt");

  // Control: the original bytes are served warm, without the producer.
  std::ofstream(Path, std::ios::binary)
      .write(Bytes.data(), static_cast<long>(Bytes.size()));
  const int CallsBefore = Sieve.Calls->load();
  DiagnosticEngine Diags;
  SweepEngine Warm;
  Warm.setTraceStore(Dir.str(), &Diags);
  Warm.schedule("exp", "g", Base, Points, Sieve.producer(), Hash);
  Warm.run();
  EXPECT_EQ(Sieve.Calls->load(), CallsBefore);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
}

/// The bytes of the store file at \p Path.
std::vector<char> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(In),
                           std::istreambuf_iterator<char>());
}

TEST(TraceStoreEngine, EngineFileHoldsOnlySummaryAndRecords) {
  // The engine writes no chunks: the header is followed at once by the
  // sentinel, the footer counts 0 events in 0 chunks, and the whole file
  // for Queen's mixed grid stays under 1 KB.
  ScratchDir Dir("records_only");
  CountedProducer Queen("Queen");
  SimConfig Base;
  const uint64_t Hash = traceContentHash(*Queen.Prog, Base);
  SweepEngine Cold;
  Cold.setTraceStore(Dir.str());
  Cold.schedule("exp", "g", Base, mixedPoints(), Queen.producer(), Hash);
  Cold.run();
  ASSERT_TRUE(Cold.base("exp").ok());

  const std::string Path = traceStorePath(Dir.str(), Hash);
  const std::vector<char> Bytes = readFile(Path);
  ASSERT_GT(Bytes.size(), 32u + 4 + 24);
  EXPECT_LT(Bytes.size(), 1024u);
  EXPECT_EQ(loadLE32(Bytes, 32), 0xFFFFFFFFu) << "a chunk was written";
  const size_t Footer = Bytes.size() - 24;
  for (size_t B = 0; B != 16; ++B)
    EXPECT_EQ(Bytes[Footer + B], 0) << "footer count byte " << B;

  DiagnosticEngine Diags;
  TraceStoreReader Reader;
  ASSERT_EQ(Reader.open(Path, Hash, Diags), TraceStoreReader::OpenStatus::Ok)
      << Diags.str();
  EXPECT_EQ(Reader.eventCount(), 0u);
  // Every replayed point has a record: all but the reused base point.
  EXPECT_EQ(Reader.storedPoints().size(), mixedPoints().size() - 1);
  std::vector<TraceEvent> Chunk;
  EXPECT_FALSE(Reader.next(Chunk));
  EXPECT_FALSE(Reader.failed());
}

TEST(TraceStoreEngine, TwoGridsRecordedInTurnKeepBothRecordSets) {
  // Two grids on one program share one file. Recording the second keeps
  // the first one's records, so afterwards both are served without
  // simulating.
  TelemetryGuard Guard;
  ScratchDir Dir("carry_forward");
  CountedProducer Queen("Queen");
  const std::vector<SweepPoint> Points = mixedPoints();
  const std::vector<SweepPoint> GridA(Points.begin(), Points.begin() + 4);
  const std::vector<SweepPoint> GridB(Points.begin() + 4, Points.end());
  SimConfig Base;
  const uint64_t Hash = traceContentHash(*Queen.Prog, Base);

  SweepEngine Plain;
  Plain.schedule("a", "g", Base, GridA, Queen.producer(), 0);
  Plain.schedule("b", "g", Base, GridB, Queen.producer(), 0);
  Plain.run();

  for (const auto *Grid : {&GridA, &GridB}) {
    SweepEngine Record;
    Record.setTraceStore(Dir.str());
    Record.schedule("exp", "g", Base, *Grid, Queen.producer(), Hash);
    Record.run();
    ASSERT_TRUE(Record.base("exp").ok());
  }
  ASSERT_EQ(Queen.Calls->load(), 4);
  {
    DiagnosticEngine Diags;
    TraceStoreReader Reader;
    ASSERT_EQ(Reader.open(traceStorePath(Dir.str(), Hash), Hash, Diags),
              TraceStoreReader::OpenStatus::Ok)
        << Diags.str();
    // GridA's three replayed points (its first is the base), then
    // GridB's three.
    EXPECT_EQ(Reader.storedPoints().size(), 6u);
  }

  for (const char *Key : {"a", "b"}) {
    const std::vector<SweepPoint> &Grid = *Key == 'a' ? GridA : GridB;
    telemetry::reset();
    DiagnosticEngine Diags;
    SweepEngine Warm;
    Warm.setTraceStore(Dir.str(), &Diags);
    Warm.schedule(Key, "g", Base, Grid, Queen.producer(), Hash);
    Warm.run();
    EXPECT_EQ(Queen.Calls->load(), 4) << Key;
    EXPECT_FALSE(Diags.hasErrors()) << Key << ": " << Diags.str();
    EXPECT_EQ(counterValue("sim.runs"), 0u) << Key;
    EXPECT_EQ(counterValue("sim.store.hits"), 1u) << Key;
    for (size_t P = 0; P != Grid.size(); ++P)
      EXPECT_EQ(Warm.point(Key, P), Plain.point(Key, P)) << Key << " " << P;
  }
}

TEST(TraceStoreEngine, SieveSweepFileMiddleByteIsInTheSummary) {
  // scripts/store_smoke.sh flips the middle byte of the file that
  // `urcmc --workload=Sieve --sweep=16,64,256` records and expects a CRC
  // diagnostic. That holds because the middle byte lies inside the
  // CRC-covered summary; this is the same experiment urcmc schedules.
  ScratchDir Dir("sieve_sweep");
  CountedProducer Sieve("Sieve");
  std::vector<SweepPoint> Points;
  for (uint32_t Size : {16u, 64u, 256u}) {
    SweepPoint P;
    P.Config.NumLines = P.Config.Assoc = Size;
    P.Config.LineWords = 1;
    Points.push_back(P);
    P.IgnoreHints = true;
    Points.push_back(P);
  }
  SimConfig Base;
  const uint64_t Hash = traceContentHash(*Sieve.Prog, Base);
  SweepEngine Cold;
  Cold.setTraceStore(Dir.str());
  Cold.schedule("exp", "g", Base, Points, Sieve.producer(), Hash);
  Cold.run();
  ASSERT_TRUE(Cold.base("exp").ok());

  const std::string Path = traceStorePath(Dir.str(), Hash);
  std::vector<char> Bytes = readFile(Path);
  ASSERT_EQ(loadLE32(Bytes, 32), 0xFFFFFFFFu);
  const size_t SummaryAt = 40, SummaryBytes = loadLE32(Bytes, 36);
  const size_t Middle = Bytes.size() / 2;
  EXPECT_GE(Middle, SummaryAt);
  EXPECT_LT(Middle, SummaryAt + SummaryBytes);

  Bytes[Middle] ^= 0x40;
  writeBytes(Path, Bytes);
  DiagnosticEngine Diags;
  SweepEngine Warm;
  Warm.setTraceStore(Dir.str(), &Diags);
  Warm.schedule("exp", "g", Base, Points, Sieve.producer(), Hash);
  Warm.run();
  EXPECT_EQ(Sieve.Calls->load(), 2);
  EXPECT_NE(Diags.str().find("summary CRC mismatch"), std::string::npos)
      << Diags.str();
}

TEST(TraceStoreEngine, ZeroHashOptsOut) {
  ScratchDir Dir("optout");
  CountedProducer Sieve("Sieve");
  SimConfig Base;
  for (int Round = 0; Round != 2; ++Round) {
    SweepEngine Engine;
    Engine.setTraceStore(Dir.str());
    Engine.schedule("exp" + std::to_string(Round), "g", Base,
                    mixedPoints(), Sieve.producer(), /*ContentHash=*/0);
    Engine.run();
  }
  // No hash, no store: both rounds simulated, nothing written.
  EXPECT_EQ(Sieve.Calls->load(), 2);
  EXPECT_TRUE(std::filesystem::is_empty(Dir.Path));
}

} // namespace
