//===- urcm/support/BitSet.h - Word-backed dense bit set --------*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size set of small integers [0, size()) stored as 64-bit words.
/// Every compiler dataflow problem (register liveness, reaching
/// definitions, memory liveness, definite assignment) and the
/// interference matrix run on it: the meet and transfer operators work a
/// word at a time and report whether anything changed, so a fixpoint
/// sweep costs one pass over the words instead of one per bit. Sets of
/// up to 128 members (most functions' registers, defs and locations)
/// keep their words inline, so a function's per-block sets cost no heap
/// allocation.
///
/// Invariant: the bits of the last word at and above size() are zero.
/// Whole-set comparison and the word operators rely on it; only setAll()
/// and the all-ones constructor create such bits, and they trim them.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_SUPPORT_BITSET_H
#define URCM_SUPPORT_BITSET_H

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace urcm {

class BitSet {
public:
  using Word = uint64_t;
  static constexpr size_t WordBits = 64;

  BitSet() = default;
  explicit BitSet(size_t Size, bool Value = false) : Size(Size) {
    allocate();
    std::fill_n(data(), numWords(), Value ? ~Word(0) : Word(0));
    if (Value)
      trimTail();
  }
  BitSet(const BitSet &Other) : Size(Other.Size) {
    allocate();
    std::copy_n(Other.data(), numWords(), data());
  }
  BitSet(BitSet &&Other) noexcept
      : Size(Other.Size), Inline(Other.Inline), Heap(std::move(Other.Heap)) {
    Other.Size = 0;
  }
  BitSet &operator=(const BitSet &Other) {
    if (this != &Other) {
      const bool Resize = numWordsFor(Other.Size) != numWords();
      Size = Other.Size;
      if (Resize)
        allocate();
      std::copy_n(Other.data(), numWords(), data());
    }
    return *this;
  }
  BitSet &operator=(BitSet &&Other) noexcept {
    Size = Other.Size;
    Inline = Other.Inline;
    Heap = std::move(Other.Heap);
    Other.Size = 0;
    return *this;
  }

  size_t size() const { return Size; }
  size_t numWords() const { return numWordsFor(Size); }
  const Word *words() const { return data(); }

  bool test(size_t I) const {
    assert(I < Size && "bit index out of range");
    return (data()[I / WordBits] >> (I % WordBits)) & 1;
  }
  void set(size_t I) {
    assert(I < Size && "bit index out of range");
    data()[I / WordBits] |= Word(1) << (I % WordBits);
  }
  void reset(size_t I) {
    assert(I < Size && "bit index out of range");
    data()[I / WordBits] &= ~(Word(1) << (I % WordBits));
  }

  void setAll() {
    std::fill_n(data(), numWords(), ~Word(0));
    trimTail();
  }
  void clear() { std::fill_n(data(), numWords(), Word(0)); }

  friend bool operator==(const BitSet &A, const BitSet &B) {
    return A.Size == B.Size &&
           std::equal(A.data(), A.data() + A.numWords(), B.data());
  }

  /// Copies \p Other (same size) into this set; returns whether any bit
  /// changed.
  bool assign(const BitSet &Other) {
    assert(Size == Other.Size && "size mismatch");
    Word *W = data();
    const Word *O = Other.data();
    Word Diff = 0;
    for (size_t I = 0, E = numWords(); I != E; ++I) {
      Diff |= W[I] ^ O[I];
      W[I] = O[I];
    }
    return Diff != 0;
  }

  /// this |= \p Other; returns whether any bit was added.
  bool unionWith(const BitSet &Other) {
    assert(Size == Other.Size && "size mismatch");
    Word *W = data();
    const Word *O = Other.data();
    Word Added = 0;
    for (size_t I = 0, E = numWords(); I != E; ++I) {
      Added |= O[I] & ~W[I];
      W[I] |= O[I];
    }
    return Added != 0;
  }

  /// this &= \p Other; returns whether any bit was removed.
  bool intersectWith(const BitSet &Other) {
    assert(Size == Other.Size && "size mismatch");
    Word *W = data();
    const Word *O = Other.data();
    Word Removed = 0;
    for (size_t I = 0, E = numWords(); I != E; ++I) {
      Removed |= W[I] & ~O[I];
      W[I] &= O[I];
    }
    return Removed != 0;
  }

  /// this = \p Gen | (\p In & ~\p Kill), the gen/kill transfer of one
  /// block; returns whether any bit changed.
  bool assignTransfer(const BitSet &Gen, const BitSet &In,
                      const BitSet &Kill) {
    assert(Size == Gen.Size && Size == In.Size && Size == Kill.Size &&
           "size mismatch");
    Word *W = data();
    const Word *G = Gen.data(), *Live = In.data(), *K = Kill.data();
    Word Diff = 0;
    for (size_t I = 0, E = numWords(); I != E; ++I) {
      Word New = G[I] | (Live[I] & ~K[I]);
      Diff |= New ^ W[I];
      W[I] = New;
    }
    return Diff != 0;
  }

private:
  /// Mask of the valid bits of the last word.
  static Word tailMask(size_t Size) {
    const size_t Rem = Size % WordBits;
    return Rem == 0 ? ~Word(0) : (Word(1) << Rem) - 1;
  }
  static size_t numWordsFor(size_t Size) {
    return (Size + WordBits - 1) / WordBits;
  }
  void trimTail() {
    if (Size != 0)
      data()[numWords() - 1] &= tailMask(Size);
  }

  /// Sets up storage for numWords() words: the inline words when they
  /// suffice, else a heap block. Contents are unspecified.
  void allocate() {
    Heap.reset(numWords() > InlineWords ? new Word[numWords()] : nullptr);
  }
  Word *data() { return Heap ? Heap.get() : Inline.data(); }
  const Word *data() const { return Heap ? Heap.get() : Inline.data(); }

  /// Sets of up to this many words (the registers, defs or locations of
  /// a typical function) need no heap block.
  static constexpr size_t InlineWords = 2;

  size_t Size = 0;
  std::array<Word, InlineWords> Inline{};
  std::unique_ptr<Word[]> Heap;
};

} // namespace urcm

#endif // URCM_SUPPORT_BITSET_H
