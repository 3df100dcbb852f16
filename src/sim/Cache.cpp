//===- Cache.cpp - Cache statistics and the latency model ----------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/sim/Cache.h"

#include "urcm/support/StringUtils.h"

using namespace urcm;

const char *urcm::writePolicyName(WritePolicy Policy) {
  switch (Policy) {
  case WritePolicy::WriteBack:
    return "write-back";
  case WritePolicy::WriteThrough:
    return "write-through";
  }
  return "?";
}

std::string CacheStats::str() const {
  return formatString(
      "refs=%llu hits=%llu (%.2f%%) fills=%llu wb=%llu deadfree=%llu "
      "wbAvoided=%llu bypassR=%llu bypassW=%llu cacheTraffic=%llu "
      "busTraffic=%llu",
      static_cast<unsigned long long>(Reads + Writes),
      static_cast<unsigned long long>(ReadHits + WriteHits),
      hitRate() * 100.0, static_cast<unsigned long long>(Fills),
      static_cast<unsigned long long>(WriteBacks),
      static_cast<unsigned long long>(DeadFrees),
      static_cast<unsigned long long>(DeadWriteBacksAvoided),
      static_cast<unsigned long long>(BypassReads),
      static_cast<unsigned long long>(BypassWrites),
      static_cast<unsigned long long>(cacheTraffic()),
      static_cast<unsigned long long>(busTraffic()));
}

uint64_t urcm::memoryAccessCycles(const CacheStats &Stats,
                                  const LatencyModel &Model) {
  // Every through-cache reference pays the hit latency (misses pay it
  // on top of the transfer); every bus word pays the memory latency.
  return (Stats.Reads + Stats.Writes) * Model.CacheHitCycles +
         Stats.busTraffic() * Model.MemoryCycles;
}
