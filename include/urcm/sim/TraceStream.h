//===- urcm/sim/TraceStream.h - Streaming trace pipeline --------*- C++ -*-===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The streaming side of trace production. StreamedTrace is a TraceSink
/// that hands fixed-size chunks from the simulating (producer) thread to
/// a replaying (consumer) thread through a bounded SPSC queue, with the
/// consumer's drained buffers recycled back to the producer so the
/// steady state allocates nothing. streamTrace() wires both ends up:
/// generation runs on a dedicated thread while the caller replays each
/// chunk as it lands, so peak trace memory is O(queue depth x chunk)
/// instead of O(trace), and on multi-core hosts generation and replay
/// overlap.
///
/// Single-pass consumers (the lock-step multi-configuration replay and
/// the Mattson stack-distance sweep, urcm/sim/SweepEngine.h) stream;
/// multi-pass consumers (Belady MIN's next-use precomputation, the
/// occupancy analyzer) keep the materialized-trace path.
///
//===----------------------------------------------------------------------===//

#ifndef URCM_SIM_TRACESTREAM_H
#define URCM_SIM_TRACESTREAM_H

#include "urcm/sim/Simulator.h"
#include "urcm/support/SPSCQueue.h"

#include <functional>

namespace urcm {

/// A TraceSink bridging one producer (the simulator) to one consumer
/// over bounded queues. Producer side: chunk() (called by the
/// simulator) and producerDone(). Consumer side: next() / recycle().
class StreamedTrace : public TraceSink {
public:
  /// \p QueueDepth bounds in-flight chunks (the streaming memory
  /// ceiling is QueueDepth+2 chunks: in-flight plus one being filled
  /// and one being drained).
  explicit StreamedTrace(size_t QueueDepth = 4)
      : Full(QueueDepth), Free(QueueDepth) {}

  /// Producer side (TraceSink): blocks when the consumer is more than
  /// QueueDepth chunks behind. A blocking push runs under a
  /// trace.producer-wait span, so the wait is not billed to the
  /// simulation that produced the chunk.
  std::vector<TraceEvent> chunk(std::vector<TraceEvent> Chunk) override;

  /// Producer side: no more chunks will arrive; unblocks next().
  void producerDone() { Full.close(); }

  /// Consumer side: pops the next chunk into \p Chunk (its previous
  /// contents are recycled to the producer). False at end of stream. A
  /// pop that finds the queue empty runs under a trace.consumer-wait
  /// span, so the wait is not billed to the replay that consumes.
  bool next(std::vector<TraceEvent> &Chunk) {
    if (!Chunk.empty()) {
      Chunk.clear();
      Free.tryPush(std::move(Chunk));
      Chunk = std::vector<TraceEvent>();
    }
    return Full.empty() ? waitNext(Chunk) : Full.pop(Chunk);
  }

  /// Total events streamed so far (consumer side: stable after the
  /// stream ends; used for trace-length accounting).
  uint64_t eventCount() const { return Events; }

  /// Chunks handed off so far (stable after the stream ends).
  uint64_t chunkCount() const { return Chunks; }

  /// Times the producer blocked on a full queue (consumer-bound stream).
  uint64_t producerStalls() const { return Full.pushWaits(); }

  /// Times the consumer blocked on an empty queue (producer-bound
  /// stream; includes the unavoidable wait for the first chunk).
  uint64_t consumerStalls() const { return Full.popWaits(); }

  /// Nanoseconds the producer spent in blocking pushes, measured while
  /// telemetry is enabled (stable after the stream ends).
  uint64_t producerWaitNs() const { return WaitNs; }

  /// Nanoseconds the consumer spent in pops that found the queue empty,
  /// measured while telemetry is enabled (stable after the stream ends).
  uint64_t consumerWaitNs() const { return PopWaitNs; }

private:
  /// next()'s pop when the queue is empty: timed, under its own span.
  bool waitNext(std::vector<TraceEvent> &Chunk);

  SPSCQueue<std::vector<TraceEvent>> Full;
  SPSCQueue<std::vector<TraceEvent>> Free;
  uint64_t Events = 0;
  uint64_t Chunks = 0;
  uint64_t WaitNs = 0;
  uint64_t PopWaitNs = 0;
};

/// Runs \p Produce — a closure that must pass \p Config (sink included)
/// to Simulator::run — on a dedicated thread, and delivers every trace
/// chunk, in order, to \p Consume on the calling thread while
/// generation continues. Returns the producer's SimResult. \p Config's
/// Sink field is overwritten; RecordTrace is cleared (the stream
/// replaces materialization).
SimResult
streamTrace(SimConfig Config,
            const std::function<SimResult(const SimConfig &)> &Produce,
            const std::function<void(const TraceEvent *, size_t)> &Consume,
            size_t QueueDepth = 4, uint64_t *EventCount = nullptr);

} // namespace urcm

#endif // URCM_SIM_TRACESTREAM_H
