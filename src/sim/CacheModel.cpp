//===- CacheModel.cpp - Policy-generic cache replay ----------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/sim/CacheModel.h"

#include <cctype>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_map>

using namespace urcm;

const char *urcm::cachePolicyName(CachePolicy Policy) {
  switch (Policy) {
  case CachePolicy::LRU:
    return "LRU";
  case CachePolicy::FIFO:
    return "FIFO";
  case CachePolicy::Random:
    return "Random";
  case CachePolicy::MIN:
    return "MIN";
  case CachePolicy::TreePLRU:
    return "TreePLRU";
  case CachePolicy::SRRIP:
    return "SRRIP";
  case CachePolicy::LivenessBypass:
    return "LivenessBypass";
  }
  return "?";
}

CachePolicy urcm::canonicalReplayPolicy(const CacheConfig &Config,
                                        CachePolicy Policy) {
  if (Policy == CachePolicy::TreePLRU && Config.Assoc == 2 &&
      Config.LineWords == 1)
    return CachePolicy::LRU;
  return Policy;
}

const char *urcm::validateCacheConfig(const CacheConfig &Config,
                                      CachePolicy Policy) {
  if (Config.NumLines == 0)
    return "the cache needs at least one line";
  if (Config.Assoc == 0 || Config.NumLines % Config.Assoc != 0)
    return "the associativity must divide the line count";
  if (Config.LineWords == 0 || Config.LineWords > MaxCacheLineWords)
    return "the line size must be 1 to 4096 words";
  if (uint64_t(Config.NumLines) * Config.LineWords > MaxCacheWords)
    return "the cache must hold at most 16M words";
  if (Policy == CachePolicy::TreePLRU &&
      (Config.Assoc > 64 || (Config.Assoc & (Config.Assoc - 1)) != 0))
    return "TreePLRU needs a power-of-two associativity of at most 64";
  return nullptr;
}

bool urcm::parseCachePolicy(const char *Spelling, CachePolicy &Out) {
  std::string Lower;
  for (const char *P = Spelling; *P; ++P)
    Lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(*P))));
  struct Entry {
    const char *Name;
    CachePolicy Policy;
  };
  static const Entry Table[] = {
      {"lru", CachePolicy::LRU},
      {"fifo", CachePolicy::FIFO},
      {"random", CachePolicy::Random},
      {"min", CachePolicy::MIN},
      {"plru", CachePolicy::TreePLRU},
      {"treeplru", CachePolicy::TreePLRU},
      {"srrip", CachePolicy::SRRIP},
      {"bypass", CachePolicy::LivenessBypass},
      {"livenessbypass", CachePolicy::LivenessBypass},
  };
  for (const Entry &E : Table)
    if (Lower == E.Name) {
      Out = E.Policy;
      return true;
    }
  return false;
}

namespace {
constexpr uint64_t Never = std::numeric_limits<uint64_t>::max();
} // namespace

std::shared_ptr<const std::vector<uint64_t>>
urcm::computeNextLineUses(const std::vector<TraceEvent> &Trace,
                          uint32_t LineWords, bool IgnoreHints) {
  CacheConfig Geo;
  Geo.LineWords = LineWords;
  CacheGeometry G(Geo);
  auto Next = std::make_shared<std::vector<uint64_t>>(Trace.size(), Never);
  std::unordered_map<uint64_t, uint64_t> NextOfLine;
  for (uint64_t Index = Trace.size(); Index-- > 0;) {
    const TraceEvent &E = Trace[Index];
    if (E.Info.Bypass && !IgnoreHints)
      continue;
    uint64_t LA = G.lineAddr(E.Addr);
    auto It = NextOfLine.find(LA);
    (*Next)[Index] = It == NextOfLine.end() ? Never : It->second;
    NextOfLine[LA] = Index;
  }
  return Next;
}

CacheStats urcm::replayTrace(const std::vector<TraceEvent> &Trace,
                             const CacheConfig &Config,
                             CachePolicy Policy) {
  std::shared_ptr<const std::vector<uint64_t>> NextUses;
  if (Policy == CachePolicy::MIN)
    NextUses = computeNextLineUses(Trace, Config.LineWords);
  CacheModel R(Config, Policy, std::move(NextUses));
  R.feed(Trace.data(), Trace.size(), 0);
  return R.finish();
}
