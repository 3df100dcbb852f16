//===- urcm/support/ThreadPool.h - Minimal worker pool ----------*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size thread pool used by the sweep engine to run
/// independent experiment points concurrently. Design constraints:
///
///  * deterministic results: parallelFor writes each result through its
///    own index, so outcomes never depend on scheduling order;
///  * the calling thread participates in parallelFor (a pool of size N
///    brings N+1 workers to bear, and a pool on a single-core machine
///    degrades gracefully to near-serial execution);
///  * exceptions from tasks are captured and rethrown on the caller.
///
/// parallelFor may be called from inside a pool task (point-parallel
/// replay fans each trace chunk out across the sweep points from within
/// an experiment task). Nesting cannot deadlock: the caller drains its own index
/// space, so it only ever waits on indexes that some thread is
/// *actively* executing, never on queued-but-unclaimed work; when every
/// worker is busy the nested loop simply degrades to serial execution
/// on the calling thread. Idle workers that pick up a nested job's
/// helper tasks late find the index space exhausted and return.
///
/// Small work items can be batched with the grain-size parameter: a
/// grain of G hands out indexes G at a time, so dispatch overhead (one
/// atomic fetch_add plus one mutex round-trip per batch) amortizes over
/// G body calls. The shared cursor is padded to the destructive-
/// interference stride so concurrent claimers do not drag the job's
/// cold fields (limit, body pointer) into their ping-ponging line.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_SUPPORT_THREADPOOL_H
#define URCM_SUPPORT_THREADPOOL_H

#include "urcm/support/CacheAlign.h"
#include "urcm/support/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace urcm {

class ThreadPool {
public:
  /// \p ThreadCount 0 picks the hardware concurrency (at least 1).
  explicit ThreadPool(unsigned ThreadCount = 0) {
    if (ThreadCount == 0) {
      ThreadCount = std::thread::hardware_concurrency();
      if (ThreadCount == 0)
        ThreadCount = 1;
    }
    Workers.reserve(ThreadCount);
    for (unsigned I = 0; I != ThreadCount; ++I)
      Workers.emplace_back([this, I] {
        if (telemetry::enabled())
          telemetry::setThreadName("pool-" + std::to_string(I));
        workerLoop();
      });
  }

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Stopping = true;
    }
    WakeWorkers.notify_all();
    for (std::thread &T : Workers)
      T.join();
  }

  unsigned size() const { return static_cast<unsigned>(Workers.size()); }

  /// Runs Body(0), ..., Body(N-1), possibly concurrently, and returns
  /// once every call has finished. The first exception thrown by any
  /// call is rethrown here (remaining indexes still run to completion).
  /// \p Grain batches indexes: each claim hands a thread up to Grain
  /// consecutive indexes, so bodies much cheaper than a dispatch should
  /// pass a grain that makes a batch worth one atomic claim.
  void parallelFor(size_t N, const std::function<void(size_t)> &Body,
                   size_t Grain = 1) {
    if (Grain == 0)
      Grain = 1;
    if (N == 0)
      return;
    if (N <= Grain) { // One batch; skip the queue round-trip.
      std::exception_ptr First;
      for (size_t I = 0; I != N; ++I) {
        try {
          Body(I);
        } catch (...) {
          if (!First)
            First = std::current_exception();
        }
      }
      if (First)
        std::rethrow_exception(First);
      return;
    }

    auto Job = std::make_shared<ParallelJob>();
    Job->Limit = N;
    Job->Grain = Grain;
    Job->Body = &Body;

    const size_t Batches = (N + Grain - 1) / Grain;
    size_t Helpers = std::min<size_t>(Workers.size(), Batches - 1);
    {
      std::lock_guard<std::mutex> Lock(M);
      for (size_t I = 0; I != Helpers; ++I)
        Tasks.push([Job] { Job->drain(); });
    }
    WakeWorkers.notify_all();

    // The caller works too; drain() returns when the index space is
    // exhausted (other workers may still be finishing their last batch).
    Job->drain();
    std::unique_lock<std::mutex> Lock(Job->DoneM);
    Job->DoneCV.wait(Lock, [&] { return Job->Done == N; });
    if (Job->Error)
      std::rethrow_exception(Job->Error);
  }

  /// The process-wide pool (sized to the hardware), created on first use.
  static ThreadPool &global() {
    static ThreadPool Pool;
    return Pool;
  }

private:
  struct ParallelJob {
    /// The claim cursor every participating thread hammers; keep it off
    /// the line holding the read-only job fields below.
    alignas(DestructiveInterferenceSize) std::atomic<size_t> Next{0};
    alignas(DestructiveInterferenceSize) size_t Limit = 0;
    size_t Grain = 1;
    const std::function<void(size_t)> *Body = nullptr;
    std::mutex DoneM;
    std::condition_variable DoneCV;
    size_t Done = 0;
    std::exception_ptr Error;

    void drain() {
      for (;;) {
        const size_t Begin = Next.fetch_add(Grain, std::memory_order_relaxed);
        if (Begin >= Limit)
          return;
        const size_t End = std::min(Begin + Grain, Limit);
        std::exception_ptr E;
        for (size_t I = Begin; I != End; ++I) {
          try {
            (*Body)(I);
          } catch (...) {
            if (!E)
              E = std::current_exception();
          }
        }
        {
          std::lock_guard<std::mutex> Lock(DoneM);
          if (E && !Error)
            Error = E;
          Done += End - Begin;
          if (Done == Limit)
            DoneCV.notify_all();
        }
      }
    }
  };

  void workerLoop() {
    for (;;) {
      std::function<void()> Task;
      {
        std::unique_lock<std::mutex> Lock(M);
        WakeWorkers.wait(Lock, [&] { return Stopping || !Tasks.empty(); });
        if (Tasks.empty())
          return; // Stopping, queue drained.
        Task = std::move(Tasks.front());
        Tasks.pop();
      }
      Task();
    }
  }

  std::mutex M;
  std::condition_variable WakeWorkers;
  std::queue<std::function<void()>> Tasks;
  bool Stopping = false;
  std::vector<std::thread> Workers;
};

} // namespace urcm

#endif // URCM_SUPPORT_THREADPOOL_H
