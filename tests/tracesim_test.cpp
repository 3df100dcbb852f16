//===- tracesim_test.cpp - Trace replay and Belady MIN tests -------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/sim/CacheModel.h"

#include "urcm/support/RNG.h"

#include <gtest/gtest.h>

using namespace urcm;

namespace {

TraceEvent read(uint32_t Addr) { return TraceEvent{Addr, false, {}}; }
TraceEvent write(uint32_t Addr) { return TraceEvent{Addr, true, {}}; }

TraceEvent readLast(uint32_t Addr) {
  TraceEvent E{Addr, false, {}};
  E.Info.LastRef = true;
  return E;
}

TraceEvent readBypass(uint32_t Addr) {
  TraceEvent E{Addr, false, {}};
  E.Info.Bypass = true;
  return E;
}

CacheConfig config(uint32_t Lines, uint32_t Assoc, uint32_t LineWords = 1) {
  CacheConfig C;
  C.NumLines = Lines;
  C.Assoc = Assoc;
  C.LineWords = LineWords;
  return C;
}

/// A deterministic pseudo-random trace with some locality.
std::vector<TraceEvent> randomTrace(uint64_t Seed, size_t N,
                                    uint64_t AddressRange) {
  SplitMix64 Rng(Seed);
  std::vector<TraceEvent> Trace;
  Trace.reserve(N);
  uint64_t Hot = 0;
  for (size_t I = 0; I != N; ++I) {
    uint64_t Roll = Rng.nextBelow(100);
    uint64_t Addr = Roll < 60 ? Hot + Rng.nextBelow(8)
                              : Rng.nextBelow(AddressRange);
    if (Roll == 99)
      Hot = Rng.nextBelow(AddressRange);
    bool IsWrite = Rng.nextBelow(4) == 0;
    Trace.push_back(IsWrite ? write(Addr) : read(Addr));
  }
  return Trace;
}

} // namespace

TEST(TraceSim, BasicHitMissCounting) {
  std::vector<TraceEvent> Trace = {read(1), read(1), write(1), read(2)};
  CacheStats S = replayTrace(Trace, config(4, 2), CachePolicy::LRU);
  EXPECT_EQ(S.Reads, 3u);
  EXPECT_EQ(S.Writes, 1u);
  EXPECT_EQ(S.ReadHits, 1u);
  EXPECT_EQ(S.WriteHits, 1u);
  EXPECT_EQ(S.Fills, 2u);
}

TEST(TraceSim, LastRefDropsWriteBack) {
  std::vector<TraceEvent> Trace = {write(1), readLast(1), read(9),
                                   read(17)};
  // Single line: without the dead tag, reading 9 would write back 1.
  CacheStats S = replayTrace(Trace, config(1, 1), CachePolicy::LRU);
  EXPECT_EQ(S.DeadFrees, 1u);
  EXPECT_EQ(S.DeadWriteBacksAvoided, 1u);
  EXPECT_EQ(S.WriteBacks, 0u);
}

TEST(TraceSim, BypassDoesNotAllocate) {
  std::vector<TraceEvent> Trace = {readBypass(1), readBypass(1), read(1)};
  CacheStats S = replayTrace(Trace, config(4, 2), CachePolicy::LRU);
  EXPECT_EQ(S.BypassReads, 2u);
  EXPECT_EQ(S.Reads, 1u);
  EXPECT_EQ(S.ReadHits, 0u) << "bypass reads must not have warmed the set";
}

TEST(TraceSim, MINBeatsOrTiesEveryPolicyOnRandomTraces) {
  // Belady's MIN is provably optimal in miss count; any violation means
  // the replayer's future-knowledge bookkeeping is broken.
  for (uint64_t Seed : {1ull, 2ull, 3ull, 4ull, 5ull, 6ull, 7ull, 8ull}) {
    auto Trace = randomTrace(Seed, 4000, 512);
    for (auto Geometry : {config(16, 2), config(32, 4), config(8, 8)}) {
      CacheStats Min = replayTrace(Trace, Geometry, CachePolicy::MIN);
      for (CachePolicy P : {CachePolicy::LRU, CachePolicy::FIFO,
                            CachePolicy::Random}) {
        CacheStats Other = replayTrace(Trace, Geometry, P);
        EXPECT_LE(Min.misses(), Other.misses())
            << "seed=" << Seed << " policy=" << cachePolicyName(P)
            << " lines=" << Geometry.NumLines;
      }
    }
  }
}

TEST(TraceSim, LRUMatchesLiveCacheSemantics) {
  // The replay and live forms of the model must agree on
  // hit/miss/fill/write-back accounting for the same reference stream.
  auto Trace = randomTrace(11, 2000, 256);
  CacheConfig Geometry = config(16, 4);

  MainMemory Mem(4096);
  CacheModel Live(Geometry, Mem);
  for (const TraceEvent &E : Trace) {
    if (E.IsWrite)
      Live.write(E.Addr, 1, E.Info);
    else
      Live.read(E.Addr, E.Info);
  }
  CacheStats Replayed = replayTrace(Trace, Geometry, CachePolicy::LRU);

  EXPECT_EQ(Live.stats().Reads, Replayed.Reads);
  EXPECT_EQ(Live.stats().Writes, Replayed.Writes);
  EXPECT_EQ(Live.stats().ReadHits, Replayed.ReadHits);
  EXPECT_EQ(Live.stats().WriteHits, Replayed.WriteHits);
  EXPECT_EQ(Live.stats().Fills, Replayed.Fills);
  EXPECT_EQ(Live.stats().WriteBacks, Replayed.WriteBacks);
  EXPECT_EQ(Live.stats().FillWords, Replayed.FillWords);
}

TEST(TraceSim, ConservationInvariants) {
  // Misses == fills; every eviction of a dirty line is a write-back or a
  // dead drop; hits + misses == refs.
  for (uint64_t Seed : {21ull, 22ull, 23ull}) {
    auto Trace = randomTrace(Seed, 3000, 300);
    for (CachePolicy P : {CachePolicy::LRU, CachePolicy::FIFO,
                          CachePolicy::Random, CachePolicy::MIN}) {
      CacheStats S = replayTrace(Trace, config(16, 2), P);
      EXPECT_EQ(S.Reads + S.Writes,
                S.ReadHits + S.WriteHits + S.misses());
      EXPECT_EQ(S.misses(), S.Fills);
    }
  }
}

TEST(TraceSim, MultiWordLineSharing) {
  // Consecutive addresses share a 4-word line: 1 fill serves 4 reads.
  std::vector<TraceEvent> Trace = {read(0), read(1), read(2), read(3)};
  CacheStats S = replayTrace(Trace, config(4, 2, 4), CachePolicy::LRU);
  EXPECT_EQ(S.Fills, 1u);
  EXPECT_EQ(S.ReadHits, 3u);
  EXPECT_EQ(S.FillWords, 4u);
}

TEST(TraceSim, EmptyTrace) {
  CacheStats S = replayTrace({}, config(4, 2), CachePolicy::MIN);
  EXPECT_EQ(S.Reads + S.Writes, 0u);
  EXPECT_EQ(S.Fills, 0u);
}
