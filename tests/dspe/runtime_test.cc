// Tests for the threaded topology runtime and its SPSC transport.
//
// The concurrency tests (ordering, fan-in, backpressure, shutdown drain) are
// written to be meaningful under ThreadSanitizer: they exercise real
// producer/consumer threads, not mocked interleavings. The determinism test
// locks down the contract in runtime.h: single-layer topologies route
// identically under both engines and any thread count.

#include "slb/dspe/runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "slb/dspe/spsc_queue.h"
#include "slb/dspe/standard_bolts.h"
#include "slb/dspe/topology.h"

#if defined(__linux__)
#include <sched.h>
#endif

namespace slb {
namespace {

// ---------------------------------------------------------------------------
// SpscRing

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
}

TEST(SpscRingTest, PushFailsWhenFullPopFailsWhenEmpty) {
  SpscRing<int> ring(4);
  int out = 0;
  EXPECT_FALSE(ring.TryPop(&out));
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.TryPush(i));
  EXPECT_FALSE(ring.TryPush(99));  // full: backpressure signal
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.TryPop(&out));
}

TEST(SpscRingTest, BatchPushAcceptsPartialPrefixWhenNearlyFull) {
  SpscRing<int> ring(4);
  const int items[6] = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(ring.TryPushBatch(items, 3), 3u);
  // Only one slot left: a 3-item batch lands a 1-item prefix.
  EXPECT_EQ(ring.TryPushBatch(items + 3, 3), 1u);
  int out[8];
  EXPECT_EQ(ring.TryPopBatch(out, 8), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], i);
}

TEST(SpscRingTest, ConcurrentProducerConsumerPreservesFifoOrder) {
  constexpr uint64_t kCount = 50000;
  SpscRing<uint64_t> ring(256);
  std::thread producer([&] {
    for (uint64_t i = 0; i < kCount;) {
      if (ring.TryPush(i)) {
        ++i;
      } else {
        std::this_thread::yield();  // single-core machines: let consumer run
      }
    }
  });
  uint64_t expected = 0;
  while (expected < kCount) {
    uint64_t value = 0;
    if (!ring.TryPop(&value)) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_EQ(value, expected);  // FIFO, no loss, no duplication
    ++expected;
  }
  producer.join();
  EXPECT_TRUE(ring.EmptyApprox());
}

TEST(SpscRingTest, ConcurrentBatchTransferDeliversEverySampleOnce) {
  constexpr uint64_t kCount = 50000;
  SpscRing<uint64_t> ring(128);
  std::thread producer([&] {
    uint64_t batch[32];
    uint64_t next = 0;
    while (next < kCount) {
      uint64_t n = 0;
      while (n < 32 && next + n < kCount) {
        batch[n] = next + n;
        ++n;
      }
      const size_t pushed = ring.TryPushBatch(batch, n);
      next += pushed;
      if (pushed < n) std::this_thread::yield();
    }
  });
  uint64_t out[48];
  uint64_t expected = 0;
  while (expected < kCount) {
    const size_t popped = ring.TryPopBatch(out, 48);
    for (size_t i = 0; i < popped; ++i) {
      ASSERT_EQ(out[i], expected);
      ++expected;
    }
    if (popped == 0) std::this_thread::yield();
  }
  producer.join();
}

// MPSC fan-in as the runtime uses it: N producer threads, each with its own
// ring, one consumer polling round-robin. Every tuple must arrive exactly
// once and per-producer order must hold.
TEST(SpscRingTest, PolledFanInDeliversAllProducersInOrder) {
  constexpr int kProducers = 4;
  constexpr uint64_t kPerProducer = 10000;
  std::vector<std::unique_ptr<SpscRing<uint64_t>>> rings;
  for (int p = 0; p < kProducers; ++p) {
    rings.push_back(std::make_unique<SpscRing<uint64_t>>(64));
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer;) {
        // Tag each value with its producer so the consumer can check order.
        if (rings[p]->TryPush(static_cast<uint64_t>(p) << 32 | i)) {
          ++i;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<uint64_t> next_expected(kProducers, 0);
  uint64_t received = 0;
  while (received < kProducers * kPerProducer) {
    std::this_thread::yield();
    for (int p = 0; p < kProducers; ++p) {
      uint64_t value = 0;
      while (rings[p]->TryPop(&value)) {
        ASSERT_EQ(value >> 32, static_cast<uint64_t>(p));
        ASSERT_EQ(value & 0xffffffffu, next_expected[p]);
        ++next_expected[p];
        ++received;
      }
    }
  }
  for (auto& t : producers) t.join();
  for (const auto& ring : rings) EXPECT_TRUE(ring->EmptyApprox());
}

// Producer stops mid-stream; the consumer must still be able to drain every
// tuple published before the stop (the runtime's shutdown path relies on
// rings draining after spouts exhaust).
TEST(SpscRingTest, ConsumerDrainsAfterProducerStops) {
  SpscRing<int> ring(64);
  std::thread producer([&] {
    for (int i = 0; i < 40; ++i) {
      while (!ring.TryPush(i)) {
      }
    }
  });
  producer.join();
  int out = 0;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.TryPop(&out));
}

// ---------------------------------------------------------------------------
// ExecuteTopologyThreaded

class CountBolt final : public Bolt {
 public:
  void Execute(const TopologyTuple& tuple, OutputCollector*) override {
    total_ += tuple.value;
  }
  size_t StateEntries() const override { return 1; }

 private:
  uint64_t total_ = 0;
};

class FanoutBolt final : public Bolt {
 public:
  explicit FanoutBolt(int fanout) : fanout_(fanout) {}
  void Execute(const TopologyTuple& tuple, OutputCollector* out) override {
    for (int i = 0; i < fanout_; ++i) {
      out->Emit(TopologyTuple{tuple.key * 10 + static_cast<uint64_t>(i), 1});
    }
  }

 private:
  int fanout_;
};

class ThrowingBolt final : public Bolt {
 public:
  void Execute(const TopologyTuple&, OutputCollector*) override {
    if (++seen_ == 100) throw std::runtime_error("bolt exploded");
  }

 private:
  uint64_t seen_ = 0;
};

// Emits `count` tuples whose value encodes (spout index, sequence number).
class SequenceSpout final : public Spout {
 public:
  SequenceSpout(uint32_t spout, uint64_t count)
      : spout_(spout), count_(count) {}
  bool NextTuple(TopologyTuple* out) override {
    if (next_ == count_) return false;
    out->key = next_ * 7919 + spout_;
    out->value = static_cast<uint64_t>(spout_) << 32 | next_;
    ++next_;
    return true;
  }

 private:
  uint32_t spout_;
  uint64_t count_;
  uint64_t next_ = 0;
};

// Throws when a spout's sequence numbers arrive out of order at this task.
class SenderOrderBolt final : public Bolt {
 public:
  explicit SenderOrderBolt(uint32_t spouts) : next_(spouts, 0) {}
  void Execute(const TopologyTuple& tuple, OutputCollector*) override {
    const uint64_t spout = tuple.value >> 32;
    const uint64_t seq = tuple.value & 0xffffffffu;
    if (seq < next_.at(spout)) {
      throw std::runtime_error("per-sender order violated");
    }
    next_[spout] = seq + 1;
  }

 private:
  std::vector<uint64_t> next_;
};

TopologyBuilder::Topology PkgWordCount(uint64_t messages_per_spout) {
  TopologyBuilder builder;
  builder.AddSpout("words", [messages_per_spout](uint32_t task) {
    return std::make_unique<ZipfSpout>(1.2, 1000, messages_per_spout,
                                       1000 + task);
  }, 4);
  builder.AddBolt("count", [](uint32_t) { return std::make_unique<CountBolt>(); },
                  8)
      .Input("words", Grouping::Pkg());
  return builder.Build();
}

TEST(RuntimeTest, ProcessesEveryTupleSingleThread) {
  TopologyOptions options;
  options.max_pending_per_spout = 16;
  TopologyRuntimeOptions rt;
  rt.num_threads = 1;
  auto result = ExecuteTopologyThreaded(PkgWordCount(5000), options, rt);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const TopologyStats& stats = result.value();
  EXPECT_EQ(stats.roots_acked, 4u * 5000u);
  EXPECT_EQ(stats.tuples_processed, 2u * 4u * 5000u);  // spout emit + bolt
  EXPECT_GT(stats.throughput_per_s, 0.0);
  EXPECT_GT(stats.makespan_s, 0.0);
  ASSERT_EQ(stats.components.size(), 2u);
  EXPECT_EQ(stats.components[0].tuples_processed, 4u * 5000u);
  EXPECT_EQ(stats.components[1].tuples_processed, 4u * 5000u);
}

TEST(RuntimeTest, ProcessesEveryTupleManyThreads) {
  TopologyOptions options;
  options.max_pending_per_spout = 64;
  TopologyRuntimeOptions rt;
  rt.num_threads = 8;
  auto result = ExecuteTopologyThreaded(PkgWordCount(20000), options, rt);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().roots_acked, 4u * 20000u);
  EXPECT_EQ(result.value().latency_p50_ms,
            result.value().latency_p50_ms);  // not NaN
  EXPECT_GE(result.value().latency_p99_ms, result.value().latency_p50_ms);
}

// Two spouts -> 4 fan-out bolts (3 children each) -> 6 counting bolts.
TopologyBuilder::Topology TwoStageFanout() {
  TopologyBuilder builder;
  builder.AddSpout("src", [](uint32_t task) {
    return std::make_unique<ZipfSpout>(1.1, 500, 3000, 7 + task);
  }, 2);
  builder.AddBolt("fan", [](uint32_t) { return std::make_unique<FanoutBolt>(3); },
                  4)
      .Input("src", Grouping::Shuffle());
  builder.AddBolt("count",
                  [](uint32_t) { return std::make_unique<CountBolt>(); }, 6)
      .Input("fan", Grouping::Key());
  return builder.Build();
}

// Tiny rings + tiny credit window: progress must still be made (the
// cooperative scheduler may never block a thread on a full ring). With few
// threads many tasks share one lane, so a blocked fan-out bolt holds up the
// tuples queued behind it for its host-mates (head-of-line) — which must
// still drain, since the blocking only ever waits on a deeper stage.
TEST(RuntimeTest, SurvivesSevereBackpressure) {
  for (uint32_t threads : {1u, 2u, 3u}) {
    for (uint32_t pending : {1u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " pending=" + std::to_string(pending));
      TopologyOptions options;
      options.max_pending_per_spout = pending;
      TopologyRuntimeOptions rt;
      rt.num_threads = threads;
      rt.queue_capacity = 2;
      rt.batch_size = 1;
      auto single = ExecuteTopologyThreaded(PkgWordCount(2000), options, rt);
      ASSERT_TRUE(single.ok()) << single.status().ToString();
      EXPECT_EQ(single.value().roots_acked, 4u * 2000u);
      EXPECT_EQ(single.value().components[0].tuples_processed, 4u * 2000u);
      EXPECT_EQ(single.value().components[1].tuples_processed, 4u * 2000u);

      auto fanout = ExecuteTopologyThreaded(TwoStageFanout(), options, rt);
      ASSERT_TRUE(fanout.ok()) << fanout.status().ToString();
      const TopologyStats& stats = fanout.value();
      EXPECT_EQ(stats.roots_acked, 2u * 3000u);
      EXPECT_EQ(stats.components[0].tuples_processed, 2u * 3000u);
      EXPECT_EQ(stats.components[1].tuples_processed, 2u * 3000u);
      EXPECT_EQ(stats.components[2].tuples_processed, 2u * 3000u * 3u);
    }
  }
}

TEST(RuntimeTest, MultiLayerTupleTreesFullyAck) {
  TopologyOptions options;
  options.max_pending_per_spout = 32;
  TopologyRuntimeOptions rt;
  rt.num_threads = 4;
  auto result = ExecuteTopologyThreaded(TwoStageFanout(), options, rt);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const TopologyStats& stats = result.value();
  EXPECT_EQ(stats.roots_acked, 2u * 3000u);
  // spout roots + fanout bolt inputs + 3x fanned-out counts.
  EXPECT_EQ(stats.tuples_processed, 2u * 3000u * (1 + 1 + 3));
  EXPECT_EQ(stats.components[2].tuples_processed, 2u * 3000u * 3u);
}

// Per-(sender, destination) FIFO, end to end: a lane carries many
// destinations' tuples, and each destination must still see every spout's
// tuples in emission order.
TEST(RuntimeTest, PreservesPerSenderOrderOnSharedLanes) {
  static constexpr uint32_t kSpouts = 8;
  static constexpr uint64_t kPerSpout = 4000;
  TopologyBuilder builder;
  builder.AddSpout("seq", [](uint32_t task) {
    return std::make_unique<SequenceSpout>(task, kPerSpout);
  }, kSpouts);
  builder.AddBolt("check",
                  [](uint32_t) {
                    return std::make_unique<SenderOrderBolt>(kSpouts);
                  },
                  80)
      .Input("seq", Grouping::Pkg());
  const TopologyBuilder::Topology topology = builder.Build();
  for (uint32_t threads : {1u, 3u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    TopologyOptions options;
    options.max_pending_per_spout = 64;
    TopologyRuntimeOptions rt;
    rt.num_threads = threads;
    auto result = ExecuteTopologyThreaded(topology, options, rt);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().roots_acked, kSpouts * kPerSpout);
  }
}

// A spout quantum goes out as one batch per host lane: at one executor
// thread every bolt shares a single lane, so each quantum of `batch_size`
// roots costs exactly one publish.
TEST(RuntimeTest, SpoutQuantumPublishesOncePerHostLane) {
  static constexpr uint64_t kQuanta = 50;
  TopologyBuilder builder;
  builder.AddSpout("src", [](uint32_t task) {
    return std::make_unique<SequenceSpout>(task, kQuanta * 64);
  }, 1);
  builder.AddBolt("count",
                  [](uint32_t) { return std::make_unique<CountBolt>(); }, 8)
      .Input("src", Grouping::Shuffle());
  TopologyOptions options;
  options.max_pending_per_spout = 64;
  TopologyRuntimeOptions rt;
  rt.num_threads = 1;
  rt.batch_size = 64;
  auto result = ExecuteTopologyThreaded(builder.Build(), options, rt);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().roots_acked, kQuanta * 64);
  EXPECT_EQ(result.value().publishes, kQuanta);
}

TEST(RuntimeTest, BoltExceptionSurfacesAsStatus) {
  TopologyBuilder builder;
  builder.AddSpout("src", [](uint32_t) {
    return std::make_unique<ZipfSpout>(1.0, 100, 10000, 3);
  }, 1);
  builder.AddBolt("boom",
                  [](uint32_t) { return std::make_unique<ThrowingBolt>(); }, 2)
      .Input("src", Grouping::Shuffle());
  TopologyOptions options;
  options.max_pending_per_spout = 8;
  TopologyRuntimeOptions rt;
  rt.num_threads = 2;
  auto result = ExecuteTopologyThreaded(builder.Build(), options, rt);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("bolt exploded"), std::string::npos);
}

TEST(RuntimeTest, RejectsInvalidOptions) {
  TopologyOptions options;
  options.max_pending_per_spout = 0;
  EXPECT_FALSE(ExecuteTopologyThreaded(PkgWordCount(10), options, {}).ok());

  options.max_pending_per_spout = 4;
  TopologyRuntimeOptions rt;
  rt.queue_capacity = 1;
  EXPECT_FALSE(ExecuteTopologyThreaded(PkgWordCount(10), options, rt).ok());
  rt.queue_capacity = 64;
  rt.batch_size = 0;
  EXPECT_FALSE(ExecuteTopologyThreaded(PkgWordCount(10), options, rt).ok());
}

TEST(RuntimeTest, MaxTuplesBudgetAborts) {
  TopologyOptions options;
  options.max_pending_per_spout = 8;
  options.max_tuples = 100;
  auto result = ExecuteTopologyThreaded(PkgWordCount(5000), options, {});
  EXPECT_FALSE(result.ok());
}

// The determinism contract: routing state is sender-local, so per-component
// tuple counts, load vectors, and imbalance must be byte-identical between
// the discrete-event engine and the threaded runtime at any thread count.
TEST(RuntimeTest, RoutingMatchesSimulatorExactly) {
  TopologyOptions options;
  options.hash_seed = 99;
  options.seed = 5;
  options.max_pending_per_spout = 40;

  auto sim = ExecuteTopology(PkgWordCount(10000), options);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();

  for (uint32_t threads : {1u, 4u}) {
    TopologyRuntimeOptions rt;
    rt.num_threads = threads;
    auto threaded = ExecuteTopologyThreaded(PkgWordCount(10000), options, rt);
    ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
    ASSERT_EQ(threaded.value().components.size(),
              sim.value().components.size());
    for (size_t c = 0; c < sim.value().components.size(); ++c) {
      const ComponentStats& a = sim.value().components[c];
      const ComponentStats& b = threaded.value().components[c];
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.tuples_processed, b.tuples_processed);
      ASSERT_EQ(a.task_loads.size(), b.task_loads.size());
      for (size_t i = 0; i < a.task_loads.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.task_loads[i], b.task_loads[i])
            << "component " << a.name << " task " << i << " @" << threads
            << " threads";
      }
      EXPECT_DOUBLE_EQ(a.imbalance, b.imbalance);
    }
  }
}

// Hot-path audit: per-tuple routing-log capture exists only for the elastic
// replay, so a run with no rescale schedule must never reserve a byte of
// log storage — the capture branch is compiled out of the non-logging route
// path (RouteCopies<false>), and this stat is the observable proof. A
// regression that re-enables capture unconditionally shows up here as a
// nonzero capacity long before it shows up in a profile.
TEST(RuntimeTest, RoutingLogCaptureDisabledWithoutRescale) {
  TopologyOptions options;
  options.max_pending_per_spout = 32;
  TopologyRuntimeOptions rt;
  rt.num_threads = 4;
  auto result = ExecuteTopologyThreaded(PkgWordCount(5000), options, rt);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().routing_log_capacity_bytes, 0u);
  EXPECT_GT(result.value().roots_acked, 0u);
}

// ...and the same stat must be nonzero when a rescale schedule is present
// (the replay needs the logs), so the audit cannot pass vacuously.
TEST(RuntimeTest, RoutingLogCaptureEnabledWithRescale) {
  TopologyBuilder builder;
  builder.AddSpout("src", [](uint32_t task) {
    return std::make_unique<ZipfSpout>(1.2, 400, 4000, 11 + task);
  }, 2);
  builder.AddBolt("count",
                  [](uint32_t) { return std::make_unique<CountingBolt>(); }, 6)
      .Input("src", Grouping::Pkg());

  TopologyOptions options;
  options.max_pending_per_spout = 16;
  TopologyRuntimeOptions rt;
  rt.num_threads = 4;
  rt.rescale.schedule.events = {RescaleEvent{0.5, 9}};
  rt.rescale.total_messages = 2 * 4000;

  auto result = ExecuteTopologyThreaded(builder.Build(), options, rt);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().routing_log_capacity_bytes, 0u);
  EXPECT_EQ(result.value().rescale.final_parallelism, 9u);
}

// Latency is sampled: each spout times one root in eight, picked by a fixed
// hash of its emission index that always includes its first root.
TEST(RuntimeTest, TimesOneRootInEight) {
  TopologyOptions options;
  options.max_pending_per_spout = 16;
  TopologyRuntimeOptions rt;
  rt.num_threads = 3;
  for (uint64_t per_spout : {5000u, 1u}) {
    SCOPED_TRACE("roots per spout=" + std::to_string(per_spout));
    auto result = ExecuteTopologyThreaded(PkgWordCount(per_spout), options, rt);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const TopologyStats& stats = result.value();
    ASSERT_EQ(stats.roots_acked, 4u * per_spout);
    if (per_spout == 1) {
      EXPECT_EQ(stats.latency_samples, stats.roots_acked);
    } else {
      EXPECT_GT(stats.latency_samples, stats.roots_acked / 12);
      EXPECT_LT(stats.latency_samples, stats.roots_acked / 5);
    }
    EXPECT_GT(stats.latency_p50_ms, 0.0);
    EXPECT_LE(stats.latency_p50_ms, stats.latency_p99_ms);
  }
}

// The executor idle accounting must be well-formed under the default wait:
// park time is a subset of idle time, and a run with no parks reports no
// park time.
TEST(RuntimeTest, IdleAccountingWellFormed) {
  TopologyOptions options;
  options.max_pending_per_spout = 16;
  TopologyRuntimeOptions rt;
  rt.num_threads = 4;
  auto result = ExecuteTopologyThreaded(PkgWordCount(5000), options, rt);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const TopologyStats& stats = result.value();
  EXPECT_GE(stats.idle_s, stats.park_s);
  EXPECT_GE(stats.park_s, 0.0);
  if (stats.parks == 0) {
    EXPECT_EQ(stats.park_s, 0.0);
  }
}

// A process that may run on one CPU only gets no idle spin: a spinning
// executor could only steal its producer's timeslice. Every idle second is
// then parked time.
TEST(RuntimeTest, SingleCpuParksWithoutSpinning) {
#if defined(__linux__)
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first_cpu = 0;
  while (!CPU_ISSET(first_cpu, &saved)) ++first_cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first_cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);

  TopologyOptions options;
  options.max_pending_per_spout = 16;
  TopologyRuntimeOptions rt;
  rt.num_threads = 3;
  auto result = ExecuteTopologyThreaded(PkgWordCount(2000), options, rt);
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const TopologyStats& stats = result.value();
  EXPECT_EQ(stats.roots_acked, 4u * 2000u);
  ASSERT_EQ(stats.components.size(), 2u);
  EXPECT_EQ(stats.components[1].tuples_processed, 4u * 2000u);
  EXPECT_EQ(stats.idle_s, stats.park_s);
#else
  GTEST_SKIP() << "thread affinity is Linux-only";
#endif
}

// pin_threads is best-effort: on Linux every executor should pin (the count
// equals the thread count); elsewhere it must degrade to a no-op run that
// still completes with threads_pinned == 0.
TEST(RuntimeTest, PinThreadsCompletesAndReportsCount) {
  TopologyOptions options;
  options.max_pending_per_spout = 16;
  TopologyRuntimeOptions rt;
  rt.num_threads = 4;
  rt.pin_threads = true;
  auto result = ExecuteTopologyThreaded(PkgWordCount(3000), options, rt);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().roots_acked, 4u * 3000u);
#if defined(__linux__)
  EXPECT_EQ(result.value().threads_pinned, 4u);
#else
  EXPECT_EQ(result.value().threads_pinned, 0u);
#endif
}

}  // namespace
}  // namespace slb
