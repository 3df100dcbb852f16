//===- support_test.cpp - urcm_support unit tests -----------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/support/BitSet.h"
#include "urcm/support/Casting.h"
#include "urcm/support/Diagnostics.h"
#include "urcm/support/RNG.h"
#include "urcm/support/SPSCQueue.h"
#include "urcm/support/StringUtils.h"
#include "urcm/support/ThreadPool.h"
#include "urcm/support/ZeroedWords.h"

#include "urcm/driver/Driver.h"
#include "urcm/ir/Interpreter.h"
#include "urcm/sim/Cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <sys/mman.h>
#include <thread>
#include <unistd.h>

using namespace urcm;

TEST(StringUtils, FormatBasic) {
  EXPECT_EQ(formatString("x=%d", 42), "x=42");
  EXPECT_EQ(formatString("%s-%s", "a", "b"), "a-b");
  EXPECT_EQ(formatString("empty"), "empty");
}

TEST(StringUtils, FormatLongOutput) {
  std::string Long(500, 'y');
  EXPECT_EQ(formatString("%s", Long.c_str()), Long);
}

TEST(StringUtils, Join) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringUtils, StartsWith) {
  EXPECT_TRUE(startsWith("hello", "he"));
  EXPECT_TRUE(startsWith("hello", ""));
  EXPECT_FALSE(startsWith("he", "hello"));
  EXPECT_FALSE(startsWith("hello", "lo"));
}

TEST(SourceLoc, Render) {
  EXPECT_EQ(SourceLoc().str(), "<unknown>");
  EXPECT_EQ(SourceLoc(3, 7).str(), "3:7");
  EXPECT_FALSE(SourceLoc().isValid());
  EXPECT_TRUE(SourceLoc(1, 1).isValid());
}

TEST(Diagnostics, CountsErrors) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(Diags.hasErrors());
  Diags.warning(SourceLoc(1, 2), "something odd");
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error(SourceLoc(2, 3), "something bad");
  Diags.note(SourceLoc(), "context");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 1u);
  EXPECT_EQ(Diags.diagnostics().size(), 3u);
}

TEST(Diagnostics, RenderStyle) {
  DiagnosticEngine Diags;
  Diags.error(SourceLoc(4, 9), "unexpected token");
  EXPECT_EQ(Diags.diagnostics()[0].str(), "4:9: error: unexpected token");
  Diags.clear();
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Diags.diagnostics().empty());
}

TEST(RNG, Deterministic) {
  SplitMix64 A(7), B(7);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RNG, DifferentSeedsDiffer) {
  SplitMix64 A(1), B(2);
  bool AnyDifferent = false;
  for (int I = 0; I != 10; ++I)
    AnyDifferent |= A.next() != B.next();
  EXPECT_TRUE(AnyDifferent);
}

TEST(RNG, BoundRespected) {
  SplitMix64 R(99);
  for (int I = 0; I != 1000; ++I)
    EXPECT_LT(R.nextBelow(17), 17u);
}

namespace {
// Tiny hierarchy to exercise the casting helpers.
struct Base {
  enum class Kind { A, B };
  explicit Base(Kind K) : TheKind(K) {}
  Kind kind() const { return TheKind; }

private:
  Kind TheKind;
};
struct DerivedA : Base {
  DerivedA() : Base(Kind::A) {}
  static bool classof(const Base *B) { return B->kind() == Kind::A; }
};
struct DerivedB : Base {
  DerivedB() : Base(Kind::B) {}
  static bool classof(const Base *B) { return B->kind() == Kind::B; }
};
} // namespace

TEST(Casting, IsaAndDynCast) {
  DerivedA A;
  Base *B = &A;
  EXPECT_TRUE(isa<DerivedA>(B));
  EXPECT_FALSE(isa<DerivedB>(B));
  EXPECT_EQ(dyn_cast<DerivedA>(B), &A);
  EXPECT_EQ(dyn_cast<DerivedB>(B), nullptr);
  EXPECT_EQ(cast<DerivedA>(B), &A);
  Base *Null = nullptr;
  EXPECT_EQ(dyn_cast_if_present<DerivedA>(Null), nullptr);
}

//===----------------------------------------------------------------------===//
// ThreadPool exception propagation
//===----------------------------------------------------------------------===//

TEST(ThreadPool, ParallelForPropagatesWorkerException) {
  ThreadPool Pool(3);
  std::atomic<size_t> Ran{0};
  EXPECT_THROW(Pool.parallelFor(32,
                                [&](size_t I) {
                                  if (I == 7)
                                    throw std::runtime_error("task 7 failed");
                                  Ran.fetch_add(1);
                                }),
               std::runtime_error);
  // Remaining indexes still run to completion before the rethrow.
  EXPECT_EQ(Ran.load(), 31u);
}

TEST(ThreadPool, ParallelForSerialFastPathPropagates) {
  // N == 1 executes inline on the caller; the exception must still
  // surface identically.
  ThreadPool Pool(2);
  EXPECT_THROW(
      Pool.parallelFor(1, [](size_t) { throw std::logic_error("inline"); }),
      std::logic_error);
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool Pool(2);
  EXPECT_THROW(
      Pool.parallelFor(8, [](size_t) { throw std::runtime_error("boom"); }),
      std::runtime_error);
  // The pool must survive a throwing batch: workers keep running and a
  // later parallelFor completes normally.
  std::atomic<size_t> Sum{0};
  Pool.parallelFor(100, [&](size_t I) { Sum.fetch_add(I); });
  EXPECT_EQ(Sum.load(), 4950u);
}

TEST(ThreadPool, FirstExceptionWins) {
  ThreadPool Pool(4);
  try {
    Pool.parallelFor(64, [](size_t I) {
      throw std::runtime_error("task " + std::to_string(I));
    });
    FAIL() << "expected parallelFor to rethrow";
  } catch (const std::runtime_error &E) {
    EXPECT_EQ(std::string(E.what()).rfind("task ", 0), 0u);
  }
}

TEST(ThreadPool, ParallelForGrainCoversEveryIndexOnce) {
  ThreadPool Pool(3);
  for (size_t Grain : {1ul, 7ul, 64ul, 1000ul, 5000ul}) {
    std::vector<std::atomic<uint32_t>> Hits(1000);
    Pool.parallelFor(
        Hits.size(), [&](size_t I) { Hits[I].fetch_add(1); }, Grain);
    for (size_t I = 0; I != Hits.size(); ++I)
      ASSERT_EQ(Hits[I].load(), 1u) << "grain " << Grain << " index " << I;
  }
}

TEST(ThreadPool, ParallelForGrainSerialPathPropagates) {
  // N <= Grain runs inline on the caller; the exception contract
  // (remaining indexes still run, first exception rethrown) holds.
  ThreadPool Pool(2);
  std::atomic<size_t> Ran{0};
  EXPECT_THROW(Pool.parallelFor(
                   8,
                   [&](size_t I) {
                     if (I == 2)
                       throw std::runtime_error("grain serial");
                     Ran.fetch_add(1);
                   },
                   16),
               std::runtime_error);
  EXPECT_EQ(Ran.load(), 7u);
}

TEST(ThreadPool, NestedParallelForCompletes) {
  // Parallel replay fans out inside an experiment that is itself a
  // parallelFor index: the inner call drains its own index space on the
  // caller plus any free workers, so nesting must not deadlock.
  ThreadPool Pool(2);
  std::atomic<size_t> Inner{0};
  Pool.parallelFor(4, [&](size_t) {
    Pool.parallelFor(8, [&](size_t) { Inner.fetch_add(1); });
  });
  EXPECT_EQ(Inner.load(), 32u);
}

//===----------------------------------------------------------------------===//
// SPSCQueue wait counters
//===----------------------------------------------------------------------===//

TEST(SPSCQueue, CountsProducerWaits) {
  SPSCQueue<int> Q(1);
  EXPECT_EQ(Q.pushWaits(), 0u);
  Q.push(1); // Fills the queue without waiting.
  EXPECT_EQ(Q.pushWaits(), 0u);
  EXPECT_EQ(Q.size(), 1u);

  // The second push must find the queue full and block; the counter
  // increments before the wait, so polling it sequences the test
  // deterministically.
  std::thread Producer([&] { Q.push(2); });
  while (Q.pushWaits() == 0)
    std::this_thread::yield();
  int V = 0;
  ASSERT_TRUE(Q.pop(V));
  EXPECT_EQ(V, 1);
  ASSERT_TRUE(Q.pop(V));
  EXPECT_EQ(V, 2);
  Producer.join();
  // The second pop may or may not beat the awakened producer, so only
  // the push side is exact here.
  EXPECT_EQ(Q.pushWaits(), 1u);
}

TEST(SPSCQueue, CountsConsumerWaits) {
  SPSCQueue<int> Q(4);
  std::thread Consumer([&] {
    int V = 0;
    ASSERT_TRUE(Q.pop(V)); // Blocks: queue starts empty.
    EXPECT_EQ(V, 9);
    EXPECT_FALSE(Q.pop(V)); // Blocks again until close().
  });
  while (Q.popWaits() == 0)
    std::this_thread::yield();
  Q.push(9);
  while (Q.popWaits() < 2)
    std::this_thread::yield();
  Q.close();
  Consumer.join();
  EXPECT_EQ(Q.popWaits(), 2u);
  EXPECT_EQ(Q.pushWaits(), 0u);
}

//===----------------------------------------------------------------------===//
// ZeroedWords: lazily-zeroed storage with a guard page
//===----------------------------------------------------------------------===//

namespace {

size_t pageSize() { return static_cast<size_t>(::sysconf(_SC_PAGESIZE)); }

/// Pages of \p W that mincore reports resident.
size_t residentPages(const ZeroedWords &W) {
  const size_t Page = pageSize();
  const uintptr_t Begin =
      reinterpret_cast<uintptr_t>(W.data()) / Page * Page;
  const uintptr_t End = reinterpret_cast<uintptr_t>(W.data() + W.size());
  std::vector<unsigned char> Vec((End - Begin + Page - 1) / Page);
  EXPECT_EQ(::mincore(reinterpret_cast<void *>(Begin), End - Begin,
                      Vec.data()),
            0);
  size_t N = 0;
  for (unsigned char C : Vec)
    N += C & 1;
  return N;
}

/// Resident set size of this process, in bytes.
size_t residentBytes() {
  std::FILE *F = std::fopen("/proc/self/statm", "r");
  unsigned long long Size = 0, Resident = 0;
  if (F) {
    if (std::fscanf(F, "%llu %llu", &Size, &Resident) != 2)
      Resident = 0;
    std::fclose(F);
  }
  return static_cast<size_t>(Resident) * pageSize();
}

} // namespace

TEST(ZeroedWords, UntouchedWordsReadZero) {
  ZeroedWords W(1 << 20);
  ASSERT_EQ(W.size(), uint64_t(1) << 20);
  for (uint64_t I = 0; I < W.size(); I += 4099)
    EXPECT_EQ(W[I], 0) << I;
  EXPECT_EQ(W[W.size() - 1], 0);
}

TEST(ZeroedWords, FirstAndLastWordsRoundTrip) {
  // 100 words is not a multiple of the page: the array still ends
  // exactly at the guard page.
  for (uint64_t Size : {uint64_t(1), uint64_t(100), uint64_t(512),
                        uint64_t(1) << 20}) {
    SCOPED_TRACE(Size);
    ZeroedWords W(Size);
    W[0] = -1;
    W[Size - 1] = 0x123456789abcdefLL;
    if (Size > 1) {
      EXPECT_EQ(W[0], -1);
    }
    EXPECT_EQ(W[Size - 1], 0x123456789abcdefLL);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(W.data() + W.size()) %
                  pageSize(),
              0u);
  }
}

TEST(ZeroedWords, OnlyWrittenPagesAreResident) {
  ZeroedWords W(1 << 20); // 8 MB of words.
  const uint64_t K = 16;
  for (uint64_t I = 0; I != K; ++I)
    W[(I * 2654435761u) % W.size()] = static_cast<int64_t>(I + 1);
  const size_t Resident = residentPages(W);
  EXPECT_GE(Resident, 1u);
  EXPECT_LE(Resident, K);
  for (uint64_t I = 0; I != K; ++I)
    EXPECT_EQ(W[(I * 2654435761u) % W.size()], static_cast<int64_t>(I + 1));
}

TEST(ZeroedWords, MoveLeavesOneOwner) {
  ZeroedWords A(100);
  A[7] = 42;
  const int64_t *Words = A.data();

  ZeroedWords B(std::move(A));
  EXPECT_EQ(A.size(), 0u);
  EXPECT_EQ(A.data(), nullptr);
  EXPECT_EQ(B.size(), 100u);
  EXPECT_EQ(B.data(), Words);
  EXPECT_EQ(B[7], 42);

  ZeroedWords C(10);
  C = std::move(B);
  EXPECT_EQ(B.size(), 0u);
  EXPECT_EQ(B.data(), nullptr);
  EXPECT_EQ(C.size(), 100u);
  EXPECT_EQ(C[7], 42);

  { ZeroedWords Gone(std::move(A)); } // A moved-from empty: nothing to unmap.
  EXPECT_EQ(C[7], 42);
}

TEST(ZeroedWords, ImpossibleSizesThrowBadAlloc) {
  EXPECT_THROW(ZeroedWords(UINT64_MAX), std::bad_alloc);
  // Fits size_t, but no address space holds 2^63 bytes.
  EXPECT_THROW(ZeroedWords(uint64_t(1) << 60), std::bad_alloc);
}

TEST(ZeroedWordsDeathTest, PastTheEndHitsTheGuardPage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ZeroedWords W(100);
  EXPECT_DEATH(
      {
        volatile int64_t *P = W.data();
        P[W.size()] = 1;
      },
      "");
  EXPECT_DEATH(
      {
        const volatile int64_t *P = W.data();
        (void)P[W.size()];
      },
      "");
}

// The same properties through the simulated machine's memory: both the
// data array and the shadow read zero, cost only the pages written, and
// end at a guard page.
TEST(ZeroedWords, MainMemoryIsLazilyZeroed) {
  const uint64_t Size = 0x100000 + 64; // The simulator's default span.
  const size_t Before = residentBytes();
  MainMemory Mem(Size);
  ASSERT_EQ(Mem.size(), Size);
  EXPECT_EQ(Mem.read(0), 0);
  EXPECT_EQ(Mem.shadowRead(Size - 1), 0);
  for (uint64_t I = 0; I != 16; ++I) {
    const uint64_t Addr = (I * 2654435761u) % Size;
    Mem.write(Addr, static_cast<int64_t>(I) - 8);
    Mem.shadowWrite(Addr, static_cast<int64_t>(I) - 8);
  }
  Mem.write(Size - 1, 5);
  Mem.shadowWrite(0, 6);
  EXPECT_EQ(Mem.read(Size - 1), 5);
  EXPECT_EQ(Mem.shadowRead(0), 6);
  // Zero-filled vectors would make both 8 MB arrays resident.
  const size_t After = residentBytes();
  EXPECT_LT(After - std::min(After, Before), size_t(2) << 20);
}

TEST(ZeroedWordsDeathTest, MainMemoryEndsAtTheGuardPage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MainMemory Mem(100);
  EXPECT_DEATH(Mem.write(Mem.size(), 1), "");
  EXPECT_DEATH(Mem.shadowWrite(Mem.size(), 1), "");
}

TEST(ZeroedWords, InterpreterReadsUnwrittenGlobalAsZero) {
  DiagnosticEngine Diags;
  CompiledModule Module =
      compileToIR("int g[5000];\n"
                  "void main() { g[3] = 7; print(g[4999]); print(g[3]); }\n",
                  Diags, IRGenOptions());
  ASSERT_TRUE(static_cast<bool>(Module)) << Diags.str();
  InterpResult R = interpretModule(*Module.IR);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int64_t>{0, 7}));
}

namespace {

/// Members of \p Bits by single-bit queries (independent of the word
/// loops under test).
std::set<size_t> members(const BitSet &Bits) {
  std::set<size_t> Out;
  for (size_t I = 0; I != Bits.size(); ++I)
    if (Bits.test(I))
      Out.insert(I);
  return Out;
}

/// A pseudo-random subset of [0, Size).
std::set<size_t> randomSubset(SplitMix64 &Rng, size_t Size) {
  std::set<size_t> Out;
  for (size_t I = 0; I != Size; ++I)
    if (Rng.nextBelow(3) == 0)
      Out.insert(I);
  return Out;
}

BitSet fromSet(size_t Size, const std::set<size_t> &Members) {
  BitSet Bits(Size);
  for (size_t I : Members)
    Bits.set(I);
  return Bits;
}

} // namespace

// Sizes around every word boundary and the inline/heap storage edge.
constexpr size_t BitSetSizes[] = {0,  1,   2,   63,  64,  65, 127,
                                  128, 129, 191, 192, 193, 640};

TEST(BitSet, AllOnesStopsAtSize) {
  for (size_t Size : BitSetSizes) {
    BitSet Full(Size, true);
    EXPECT_EQ(members(Full).size(), Size) << Size;
    BitSet Cleared(Size);
    EXPECT_TRUE(members(Cleared).empty()) << Size;
    Cleared.setAll();
    EXPECT_EQ(Cleared, Full) << Size;
    Cleared.clear();
    EXPECT_EQ(Cleared, BitSet(Size)) << Size;
    // Intersecting with all ones changes nothing; uniting with all
    // ones fills the set.
    BitSet Some = fromSet(Size, Size ? std::set<size_t>{Size - 1}
                                     : std::set<size_t>{});
    EXPECT_FALSE(Some.intersectWith(Full)) << Size;
    EXPECT_EQ(Some.unionWith(Full), Size > 1) << Size;
    EXPECT_EQ(Some, Full) << Size;
  }
}

TEST(BitSet, WordOperatorsMatchStdSet) {
  SplitMix64 Rng(27);
  for (size_t Size : BitSetSizes)
    for (int Trial = 0; Trial != 20; ++Trial) {
      const auto A = randomSubset(Rng, Size), B = randomSubset(Rng, Size),
                 C = randomSubset(Rng, Size);
      std::set<size_t> Union = A, Inter, Transfer = C;
      Union.insert(B.begin(), B.end());
      for (size_t I : A)
        if (B.count(I))
          Inter.insert(I);
      for (size_t I : A)
        if (!B.count(I))
          Transfer.insert(I);

      BitSet U = fromSet(Size, A);
      EXPECT_EQ(U.unionWith(fromSet(Size, B)), Union != A);
      EXPECT_EQ(members(U), Union);
      BitSet I = fromSet(Size, A);
      EXPECT_EQ(I.intersectWith(fromSet(Size, B)), Inter != A);
      EXPECT_EQ(members(I), Inter);
      // Transfer = Gen | (In & ~Kill) with Gen = C, In = A, Kill = B.
      BitSet T = fromSet(Size, B);
      EXPECT_EQ(T.assignTransfer(fromSet(Size, C), fromSet(Size, A),
                                 fromSet(Size, B)),
                Transfer != B);
      EXPECT_EQ(members(T), Transfer);
      BitSet Copy(Size);
      EXPECT_EQ(Copy.assign(T), !Transfer.empty());
      EXPECT_EQ(Copy, T);
    }
}

TEST(BitSet, CopiesAndMovesAcrossInlineAndHeapStorage) {
  SplitMix64 Rng(64);
  for (size_t From : BitSetSizes)
    for (size_t To : BitSetSizes) {
      const auto Members = randomSubset(Rng, From);
      const BitSet Source = fromSet(From, Members);
      BitSet Assigned(To, true);
      Assigned = Source;
      EXPECT_EQ(Assigned, Source);
      EXPECT_EQ(members(Assigned), Members);
      BitSet Copy(Source);
      BitSet Moved(std::move(Copy));
      EXPECT_EQ(members(Moved), Members);
      EXPECT_EQ(Copy.size(), 0u);
      BitSet MoveAssigned(To, true);
      MoveAssigned = std::move(Moved);
      EXPECT_EQ(members(MoveAssigned), Members);
      EXPECT_EQ(MoveAssigned.size(), From);
      // The copy is independent of its source.
      if (From != 0) {
        Assigned.reset(0);
        EXPECT_EQ(Source.test(0), Members.count(0) != 0);
      }
    }
  std::vector<BitSet> Sets(3, BitSet(200, true));
  Sets.resize(40, BitSet(200));
  EXPECT_EQ(members(Sets[2]).size(), 200u);
  EXPECT_TRUE(members(Sets[39]).empty());
}
