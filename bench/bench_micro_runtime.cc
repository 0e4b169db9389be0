// Micro-benchmarks of the threaded runtime's ack accounting and idle wait
// (not a paper figure):
//
//   * BM_AckFanout{PerTuple,Coalesced} — the tuple-tree ack accounting, as
//     the pre-overhaul runtime did it (one shared-atomic RMW per routed copy
//     at emit, three per ack) versus the coalesced protocol (one release
//     store seeds the tree, acks buffered per executor and flushed once per
//     scheduling quantum with adjacent-run merging). The arg is the tree
//     fanout; the counter is acks/s. These replicate the runtime's RootSlot
//     layout and ordering (alignas(kCacheLineBytes), acq_rel on the closing
//     decrement) rather than driving the engine.
//
//   * BM_IdleWake — one park->wake round trip through the engine's own
//     IdleGate, WakeGate and ParkOnGate (runtime_internal.h): a helper
//     thread parks, the benchmark thread wakes it and spins until it
//     answers. It runs ParkWakeProbe, the probe the engine's spin-budget
//     calibration takes the median of, so this is the cost that sizes how
//     long an idle executor spins before it parks.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "slb/dspe/runtime_internal.h"
#include "slb/dspe/spsc_queue.h"

namespace slb {
namespace {

struct alignas(kCacheLineBytes) BenchRootSlot {
  std::atomic<uint32_t> pending{0};
};

constexpr size_t kSlots = 64;       // a realistic credit window
constexpr size_t kQuantum = 64;     // acks buffered per flush (batch_size)

// The pre-overhaul protocol: every routed copy is a fetch_add at emit;
// every completed tuple pays an acq_rel fetch_sub on the shared slot plus
// relaxed decrements of the spout's in-flight credit and the global
// active-roots count.
void BM_AckFanoutPerTuple(benchmark::State& state) {
  const uint32_t fanout = static_cast<uint32_t>(state.range(0));
  std::vector<BenchRootSlot> slots(kSlots);
  std::atomic<uint32_t> in_flight{0};
  std::atomic<uint64_t> active_roots{0};

  uint64_t acks = 0;
  for (auto _ : state) {
    const size_t slot = acks % kSlots;
    BenchRootSlot& root = slots[slot];
    // Emit: anchor ref, then one fetch_add per routed copy.
    root.pending.store(1, std::memory_order_relaxed);
    in_flight.fetch_add(1, std::memory_order_relaxed);
    active_roots.fetch_add(1, std::memory_order_relaxed);
    for (uint32_t c = 0; c < fanout; ++c) {
      root.pending.fetch_add(1, std::memory_order_relaxed);
    }
    root.pending.fetch_sub(1, std::memory_order_acq_rel);  // drop the anchor
    // Ack: every copy completes with three shared RMWs.
    for (uint32_t c = 0; c < fanout; ++c) {
      if (root.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        in_flight.fetch_sub(1, std::memory_order_relaxed);
        active_roots.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    ++acks;
  }
  state.SetItemsProcessed(static_cast<int64_t>(acks) * fanout);
}
BENCHMARK(BM_AckFanoutPerTuple)->Arg(1)->Arg(4);

// The coalesced protocol: one release store seeds the whole tree, final
// acks land in a thread-local buffer (adjacent-run merge) and flush once
// per quantum — one fetch_sub per distinct root plus two batched counter
// updates per flush, instead of three RMWs per tuple.
void BM_AckFanoutCoalesced(benchmark::State& state) {
  const uint32_t fanout = static_cast<uint32_t>(state.range(0));
  std::vector<BenchRootSlot> slots(kSlots);
  std::atomic<uint32_t> in_flight{0};
  std::atomic<uint64_t> active_roots{0};

  struct PendingAck {
    size_t slot;
    uint32_t count;
  };
  std::vector<PendingAck> acks_buffer;
  acks_buffer.reserve(kQuantum);

  uint64_t acks = 0;
  uint64_t emitted = 0;
  for (auto _ : state) {
    const size_t slot = acks % kSlots;
    BenchRootSlot& root = slots[slot];
    // Emit: one release store covers all copies; credit charged in batch.
    root.pending.store(fanout, std::memory_order_release);
    ++emitted;
    // Ack: defer with adjacent-run merging; the fanout-1 intermediate
    // completions are net-zero (the tree stays open) and cost nothing.
    for (uint32_t c = 1; c < fanout; ++c) {
      benchmark::DoNotOptimize(root.pending.load(std::memory_order_relaxed));
    }
    if (!acks_buffer.empty() && acks_buffer.back().slot == slot) {
      ++acks_buffer.back().count;
    } else {
      acks_buffer.push_back({slot, 1});
    }
    ++acks;
    if (acks_buffer.size() == kQuantum || (acks % kQuantum) == 0) {
      in_flight.fetch_add(static_cast<uint32_t>(emitted),
                          std::memory_order_relaxed);
      active_roots.fetch_add(emitted, std::memory_order_relaxed);
      uint64_t completed = 0;
      for (const PendingAck& ack : acks_buffer) {
        slots[ack.slot].pending.fetch_sub(ack.count,
                                          std::memory_order_acq_rel);
        completed += ack.count;
      }
      acks_buffer.clear();
      in_flight.fetch_sub(static_cast<uint32_t>(completed),
                          std::memory_order_relaxed);
      active_roots.fetch_sub(completed, std::memory_order_release);
      emitted = 0;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(acks) * fanout);
}
BENCHMARK(BM_AckFanoutCoalesced)->Arg(1)->Arg(4);

// One park->wake round trip per iteration, timed around the wake alone:
// the wait for the helper to fall asleep stays out of the measurement.
void BM_IdleWake(benchmark::State& state) {
  runtime_internal::ParkWakeProbe probe;
  for (auto _ : state) {
    state.SetIterationTime(
        std::chrono::duration<double>(probe.RoundTrip()).count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_IdleWake)->UseManualTime();

}  // namespace
}  // namespace slb

BENCHMARK_MAIN();
