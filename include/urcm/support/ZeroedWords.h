//===- urcm/support/ZeroedWords.h - Lazily-zeroed word storage --*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size array of 64-bit words that reads as zero and costs
/// resident memory only for the pages actually written. It backs the
/// simulated machine's memory and shadow (sim/Cache.h) and the IR
/// interpreter's memory: both size their arrays to the whole address
/// space (about 8 MB each), while a program touches a few hundred KB.
///
/// The words live in an anonymous private mapping, so the kernel
/// supplies zero pages on first touch instead of the process zero-filling
/// every page up front. The mapping is marked MADV_NOHUGEPAGE so the
/// footprint does not depend on the host's transparent-huge-page
/// setting. One PROT_NONE guard page follows the array, and the array
/// ends exactly at it: an access one word past the end faults instead of
/// reading a neighbour. Callers still bounds-check every address; the
/// guard page only turns a missed check into a crash rather than silent
/// corruption.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_SUPPORT_ZEROEDWORDS_H
#define URCM_SUPPORT_ZEROEDWORDS_H

#include <cstddef>
#include <cstdint>

namespace urcm {

class ZeroedWords {
public:
  /// Maps \p SizeWords zeroed words plus the guard page. Throws
  /// std::bad_alloc when the mapping fails or the size overflows.
  explicit ZeroedWords(uint64_t SizeWords);
  ~ZeroedWords();

  ZeroedWords(ZeroedWords &&Other) noexcept;
  ZeroedWords &operator=(ZeroedWords &&Other) noexcept;
  ZeroedWords(const ZeroedWords &) = delete;
  ZeroedWords &operator=(const ZeroedWords &) = delete;

  uint64_t size() const { return Size; }
  int64_t *data() { return Words; }
  const int64_t *data() const { return Words; }

  int64_t &operator[](uint64_t I) { return Words[I]; }
  const int64_t &operator[](uint64_t I) const { return Words[I]; }

private:
  void release();

  void *Map = nullptr;     ///< Start of the mapping (page aligned).
  size_t MapBytes = 0;     ///< Array pages plus the guard page.
  int64_t *Words = nullptr;
  uint64_t Size = 0;
};

} // namespace urcm

#endif // URCM_SUPPORT_ZEROEDWORDS_H
