//===- TraceStream.cpp - Streaming trace pipeline ------------------------------===//
//
// Part of the URCM project (Chi & Dietz, PLDI 1989 reproduction).
//
//===----------------------------------------------------------------------===//

#include "urcm/sim/TraceStream.h"

#include "urcm/support/Telemetry.h"

#include <thread>

using namespace urcm;

URCM_STAT(NumTraceChunks, "trace.chunks", "Trace chunks streamed");
URCM_STAT(NumTraceEvents, "trace.events", "Trace events streamed");
URCM_STAT(NumProducerStalls, "trace.producer-stalls",
          "Producer blocked on a full chunk queue");
URCM_STAT(NumConsumerStalls, "trace.consumer-stalls",
          "Consumer blocked on an empty chunk queue");
URCM_STAT(ProducerWaitNs, "trace.producer-wait-ns",
          "Nanoseconds the producer blocked on a full chunk queue");
URCM_STAT(ConsumerWaitNs, "trace.consumer-wait-ns",
          "Nanoseconds the consumer waited on an empty chunk queue");

std::vector<TraceEvent>
StreamedTrace::chunk(std::vector<TraceEvent> Chunk) {
  Events += Chunk.size();
  ++Chunks;
  if (Full.full()) {
    telemetry::ScopedPhase Wait("trace.producer-wait");
    const uint64_t T0 = telemetry::enabled() ? telemetry::nowNanos() : 0;
    Full.push(std::move(Chunk));
    if (T0)
      WaitNs += telemetry::nowNanos() - T0;
  } else {
    Full.push(std::move(Chunk));
  }
  std::vector<TraceEvent> Recycled;
  Free.tryPop(Recycled); // Empty fresh buffer if none drained yet.
  return Recycled;
}

bool StreamedTrace::waitNext(std::vector<TraceEvent> &Chunk) {
  telemetry::ScopedPhase Wait("trace.consumer-wait");
  const uint64_t T0 = telemetry::enabled() ? telemetry::nowNanos() : 0;
  const bool Got = Full.pop(Chunk);
  if (T0)
    PopWaitNs += telemetry::nowNanos() - T0;
  return Got;
}

SimResult urcm::streamTrace(
    SimConfig Config,
    const std::function<SimResult(const SimConfig &)> &Produce,
    const std::function<void(const TraceEvent *, size_t)> &Consume,
    size_t QueueDepth, uint64_t *EventCount) {
  StreamedTrace Stream(QueueDepth);
  Config.Sink = &Stream;
  Config.RecordTrace = false;

  SimResult Result;
  std::exception_ptr ProducerError;
  std::thread Producer([&] {
    if (telemetry::enabled())
      telemetry::setThreadName("trace-producer");
    try {
      Result = Produce(Config);
    } catch (...) {
      ProducerError = std::current_exception();
    }
    // Close even on failure so the consumer drains and unblocks.
    Stream.producerDone();
  });

  std::exception_ptr ConsumerError;
  std::vector<TraceEvent> Chunk;
  while (Stream.next(Chunk)) {
    if (ConsumerError)
      continue; // Keep draining so the producer never deadlocks.
    try {
      Consume(Chunk.data(), Chunk.size());
    } catch (...) {
      ConsumerError = std::current_exception();
    }
  }
  Producer.join();
  if (telemetry::enabled()) {
    NumTraceChunks.add(Stream.chunkCount());
    NumTraceEvents.add(Stream.eventCount());
    NumProducerStalls.add(Stream.producerStalls());
    NumConsumerStalls.add(Stream.consumerStalls());
    ProducerWaitNs.add(Stream.producerWaitNs());
    ConsumerWaitNs.add(Stream.consumerWaitNs());
  }
  if (EventCount)
    *EventCount = Stream.eventCount();
  if (ProducerError)
    std::rethrow_exception(ProducerError);
  if (ConsumerError)
    std::rethrow_exception(ConsumerError);
  return Result;
}
