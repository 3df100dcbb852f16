//===- ZeroedWords.cpp - Lazily-zeroed word storage -----------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/support/ZeroedWords.h"

#include <new>
#include <sys/mman.h>
#include <unistd.h>
#include <utility>

using namespace urcm;

ZeroedWords::ZeroedWords(uint64_t SizeWords) {
  const size_t Page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  // Array pages + one guard page must fit in size_t.
  if (SizeWords > (SIZE_MAX - 2 * Page) / sizeof(int64_t))
    throw std::bad_alloc();
  const size_t ArrayBytes = static_cast<size_t>(SizeWords) * sizeof(int64_t);
  const size_t ArrayPages = (ArrayBytes + Page - 1) / Page;
  const size_t Bytes = (ArrayPages + 1) * Page;

  void *P = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (P == MAP_FAILED)
    throw std::bad_alloc();
  char *Base = static_cast<char *>(P);
  char *Guard = Base + ArrayPages * Page;
  if (::mprotect(Guard, Page, PROT_NONE) != 0) {
    ::munmap(P, Bytes);
    throw std::bad_alloc();
  }
#ifdef MADV_NOHUGEPAGE
  // Advisory: a kernel without THP refuses it, and then there are no
  // huge pages to avoid.
  if (ArrayPages != 0)
    (void)::madvise(P, ArrayPages * Page, MADV_NOHUGEPAGE);
#endif

  Map = P;
  MapBytes = Bytes;
  Words = reinterpret_cast<int64_t *>(Guard - ArrayBytes);
  Size = SizeWords;
}

ZeroedWords::~ZeroedWords() { release(); }

ZeroedWords::ZeroedWords(ZeroedWords &&Other) noexcept
    : Map(std::exchange(Other.Map, nullptr)),
      MapBytes(std::exchange(Other.MapBytes, 0)),
      Words(std::exchange(Other.Words, nullptr)),
      Size(std::exchange(Other.Size, 0)) {}

ZeroedWords &ZeroedWords::operator=(ZeroedWords &&Other) noexcept {
  if (this != &Other) {
    release();
    Map = std::exchange(Other.Map, nullptr);
    MapBytes = std::exchange(Other.MapBytes, 0);
    Words = std::exchange(Other.Words, nullptr);
    Size = std::exchange(Other.Size, 0);
  }
  return *this;
}

void ZeroedWords::release() {
  if (Map)
    ::munmap(Map, MapBytes);
  Map = nullptr;
  MapBytes = 0;
  Words = nullptr;
  Size = 0;
}
