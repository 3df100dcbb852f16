//===- urcm/support/SPSCQueue.h - Bounded SPSC handoff queue ----*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded single-producer/single-consumer queue used to hand trace
/// chunks from the simulating thread to a replaying thread. The fast
/// path is a classic SPSC ring over two monotonic indices: the producer
/// owns Tail, the consumer owns Head, and each side reads the other's
/// index without taking a lock. The indices (and the slot array) are
/// padded to the destructive-interference stride so a producer bumping
/// Tail never invalidates the cache line the consumer spins on — under
/// the old mutex design both sides serialized on one line per handoff,
/// which showed up as pushWaits/popWaits stalls even when neither side
/// was actually ahead.
///
/// Blocking is the slow path only: a side that finds no room (or no
/// item) raises its Waiting flag and sleeps on a condvar; the opposite
/// side checks the flag after publishing and notifies under the mutex.
/// The flag handshake uses seq_cst on both sides (store-then-load on
/// each, Dekker-style) so a publish and a sleep cannot miss each other.
/// The bounded capacity remains the backpressure mechanism: a producer
/// that outruns the consumer blocks instead of buffering the whole
/// trace, which is what keeps streaming memory O(capacity).
///
/// The queue counts its blocking waits (pushWaits/popWaits): a high
/// pushWaits says the consumer is the bottleneck, a high popWaits says
/// the producer is. Telemetry reads these per stream, not per handoff.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_SUPPORT_SPSCQUEUE_H
#define URCM_SUPPORT_SPSCQUEUE_H

#include "urcm/support/CacheAlign.h"

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

namespace urcm {

template <typename T> class SPSCQueue {
public:
  /// \p Capacity bounds the number of in-flight items (>= 1).
  explicit SPSCQueue(size_t Capacity)
      : Capacity(Capacity), Slots(Capacity) {
    assert(Capacity > 0 && "a zero-capacity queue cannot make progress");
  }

  /// Enqueues \p Value, blocking while the queue is full.
  void push(T Value) {
    const uint64_t T0 = Tail.load(std::memory_order_relaxed);
    if (T0 - Head.load(std::memory_order_seq_cst) >= Capacity) {
      std::unique_lock<std::mutex> Lock(M);
      PushWaits.fetch_add(1, std::memory_order_relaxed);
      ProducerWaiting.store(true, std::memory_order_seq_cst);
      NotFull.wait(Lock, [&] {
        return T0 - Head.load(std::memory_order_seq_cst) < Capacity;
      });
      ProducerWaiting.store(false, std::memory_order_relaxed);
    }
    assert(!Closed.load(std::memory_order_relaxed) && "push after close");
    Slots[T0 % Capacity] = std::move(Value);
    Tail.store(T0 + 1, std::memory_order_seq_cst);
    if (ConsumerWaiting.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> Lock(M);
      NotEmpty.notify_one();
    }
  }

  /// Enqueues \p Value if space is available without blocking.
  bool tryPush(T Value) {
    const uint64_t T0 = Tail.load(std::memory_order_relaxed);
    if (T0 - Head.load(std::memory_order_seq_cst) >= Capacity)
      return false;
    assert(!Closed.load(std::memory_order_relaxed) && "push after close");
    Slots[T0 % Capacity] = std::move(Value);
    Tail.store(T0 + 1, std::memory_order_seq_cst);
    if (ConsumerWaiting.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> Lock(M);
      NotEmpty.notify_one();
    }
    return true;
  }

  /// Dequeues into \p Out, blocking while the queue is empty. Returns
  /// false once the queue is closed *and* drained.
  bool pop(T &Out) {
    const uint64_t H = Head.load(std::memory_order_relaxed);
    if (H == Tail.load(std::memory_order_seq_cst) &&
        !Closed.load(std::memory_order_seq_cst)) {
      std::unique_lock<std::mutex> Lock(M);
      PopWaits.fetch_add(1, std::memory_order_relaxed);
      ConsumerWaiting.store(true, std::memory_order_seq_cst);
      NotEmpty.wait(Lock, [&] {
        return H != Tail.load(std::memory_order_seq_cst) ||
               Closed.load(std::memory_order_seq_cst);
      });
      ConsumerWaiting.store(false, std::memory_order_relaxed);
    }
    if (H == Tail.load(std::memory_order_seq_cst))
      return false; // Closed and drained.
    Out = std::move(Slots[H % Capacity]);
    Head.store(H + 1, std::memory_order_seq_cst);
    if (ProducerWaiting.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> Lock(M);
      NotFull.notify_one();
    }
    return true;
  }

  /// Dequeues into \p Out if an item is ready; never blocks and never
  /// consults the closed flag (pure opportunistic grab).
  bool tryPop(T &Out) {
    const uint64_t H = Head.load(std::memory_order_relaxed);
    if (H == Tail.load(std::memory_order_seq_cst))
      return false;
    Out = std::move(Slots[H % Capacity]);
    Head.store(H + 1, std::memory_order_seq_cst);
    if (ProducerWaiting.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> Lock(M);
      NotFull.notify_one();
    }
    return true;
  }

  /// Producer-side end-of-stream: wakes a blocked consumer; pop()
  /// returns false once the remaining items drain. The flag is flipped
  /// under the mutex so a consumer between its empty check and its
  /// sleep cannot miss the close.
  void close() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Closed.store(true, std::memory_order_seq_cst);
    }
    NotEmpty.notify_all();
  }

  /// Producer side: true when push() would block now. Only the producer
  /// pushes, so a queue it finds not full stays so until its next push.
  bool full() const {
    return Tail.load(std::memory_order_relaxed) -
               Head.load(std::memory_order_seq_cst) >=
           Capacity;
  }

  /// Consumer side: true when pop() would block now (or, once closed,
  /// return false). Only the consumer pops, so a queue it finds
  /// non-empty stays so until its next pop.
  bool empty() const {
    return Head.load(std::memory_order_relaxed) ==
           Tail.load(std::memory_order_seq_cst);
  }

  /// Times push() found the queue full and had to block.
  uint64_t pushWaits() const {
    return PushWaits.load(std::memory_order_relaxed);
  }

  /// Times pop() found the queue empty (and not closed) and had to block.
  uint64_t popWaits() const {
    return PopWaits.load(std::memory_order_relaxed);
  }

  /// Current occupancy; instantaneous, for telemetry sampling only.
  size_t size() const {
    const uint64_t T0 = Tail.load(std::memory_order_seq_cst);
    const uint64_t H = Head.load(std::memory_order_seq_cst);
    return T0 >= H ? static_cast<size_t>(T0 - H) : 0;
  }

private:
  const size_t Capacity;
  std::vector<T> Slots;
  /// Producer-owned index of the next slot to fill; monotonic, slot =
  /// Tail % Capacity. Its own line: the consumer re-reads it on every
  /// pop, and it must not share a line with Head (or Slots' bookkeeping).
  alignas(DestructiveInterferenceSize) std::atomic<uint64_t> Tail{0};
  /// Consumer-owned index of the next slot to drain; same reasoning.
  alignas(DestructiveInterferenceSize) std::atomic<uint64_t> Head{0};
  /// Slow-path state; only touched around actual blocking, so sharing a
  /// line among these is fine.
  alignas(DestructiveInterferenceSize) mutable std::mutex M;
  std::condition_variable NotFull;
  std::condition_variable NotEmpty;
  std::atomic<bool> ProducerWaiting{false};
  std::atomic<bool> ConsumerWaiting{false};
  std::atomic<bool> Closed{false};
  std::atomic<uint64_t> PushWaits{0};
  std::atomic<uint64_t> PopWaits{0};
};

} // namespace urcm

#endif // URCM_SUPPORT_SPSCQUEUE_H
