//===- urcm/support/CacheAlign.h - False-sharing constants ------*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The destructive-interference stride used to pad data shared across
/// threads (SPSC queue indices, pool job counters). Two objects closer than this stride can ping-pong a cache
/// line between cores even when each thread touches only its own object.
///
/// The value mirrors std::hardware_destructive_interference_size where
/// the library provides it. GCC warns on every *use* of the std constant
/// (its value is ABI-affecting and varies between compiler versions);
/// capturing it once here, with the warning suppressed locally, keeps
/// the rest of the tree clean while staying honest about the source.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_SUPPORT_CACHEALIGN_H
#define URCM_SUPPORT_CACHEALIGN_H

#include <cstddef>
#include <new>

namespace urcm {

#if defined(__cpp_lib_hardware_interference_size)
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winterference-size"
#endif
inline constexpr std::size_t DestructiveInterferenceSize =
    std::hardware_destructive_interference_size;
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#else
inline constexpr std::size_t DestructiveInterferenceSize = 64;
#endif

} // namespace urcm

#endif // URCM_SUPPORT_CACHEALIGN_H
