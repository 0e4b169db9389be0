// Concurrency stress battery for the executor idle wait (runtime.h,
// TopologyRuntimeOptions::spin_budget): spin for one park->wake round trip,
// then park on a per-thread idle gate, with producers waking consumers on the
// empty -> non-empty ring edge.
//
// The wait's failure modes are all liveness bugs, so every test here is a
// completion check under conditions tuned to force maximal park/unpark
// churn (a spin budget of 0 sends an idle executor straight to the
// condition variable):
//
//   * lost wakeup — a producer publishes while the consumer is between its
//     "rings empty" poll and the park; the Dekker-style fence pairing in
//     WakeGate/ParkIdle must make the publish visible or the wake land,
//     else the run hangs until the 1 ms safety timeout masks it (the test
//     still passes then, but TSan + the park counters keep the machinery
//     honest);
//   * shutdown while parked — the last root can ack while other executors
//     are parked; termination must broadcast to every gate;
//   * rescale quiesce reaching parked executors — the elastic barrier
//     requires every executor to observe the phase change, including ones
//     parked with empty rings.
//
// These tests are written to be meaningful under ThreadSanitizer: they run
// the real executor threads at 1/4/8 threads through real park/wake cycles.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "slb/common/rng.h"
#include "slb/dspe/runtime.h"
#include "slb/dspe/standard_bolts.h"
#include "slb/dspe/topology.h"
#include "slb/workload/zipf.h"

namespace slb {
namespace {

std::shared_ptr<const std::vector<uint64_t>> MakeZipfKeys(uint64_t count,
                                                          uint64_t num_keys,
                                                          uint64_t seed) {
  auto keys = std::make_shared<std::vector<uint64_t>>();
  keys->reserve(count);
  ZipfDistribution zipf(1.2, num_keys);
  Rng rng(seed);
  for (uint64_t i = 0; i < count; ++i) keys->push_back(zipf.Sample(&rng));
  return keys;
}

struct DeliveryHistogram {
  explicit DeliveryHistogram(uint64_t num_keys) : per_key(num_keys) {}
  std::vector<std::atomic<uint64_t>> per_key;
};

TopologyBuilder::Topology SpoutBoltTopology(
    std::shared_ptr<const std::vector<uint64_t>> keys, uint32_t num_spouts,
    uint32_t num_workers, AlgorithmKind algorithm,
    std::shared_ptr<DeliveryHistogram> histogram = nullptr) {
  TopologyBuilder builder;
  builder.AddSpout(
      "sources",
      [keys, num_spouts](uint32_t task) {
        return std::make_unique<VectorSpout>(keys, task, num_spouts);
      },
      num_spouts);
  Grouping grouping;
  grouping.algorithm = algorithm;
  builder
      .AddBolt("workers",
               [histogram](uint32_t) {
                 CountingBolt::Sink sink = nullptr;
                 if (histogram) {
                   sink = [histogram](uint64_t key, uint64_t) {
                     histogram->per_key[key].fetch_add(
                         1, std::memory_order_relaxed);
                   };
                 }
                 return std::make_unique<CountingBolt>(std::move(sink));
               },
               num_workers)
      .Input("sources", grouping);
  return builder.Build();
}

// Runtime options tuned for maximal park churn: executors park on the first
// idle pass, 2-slot rings and a 2-credit window force constant tiny
// publishes, batch 1 defeats emit batching so every tuple is its own
// empty -> non-empty wake edge.
TopologyRuntimeOptions HammerOptions(uint32_t threads) {
  TopologyRuntimeOptions rt;
  rt.num_threads = threads;
  rt.queue_capacity = 2;
  rt.batch_size = 1;
  rt.spin_budget = std::chrono::nanoseconds(0);
  return rt;
}

TEST(WaitStrategyTest, LostWakeupHammerAcrossThreadCounts) {
  constexpr uint64_t kMessages = 8000;
  constexpr uint64_t kNumKeys = 200;
  constexpr uint32_t kSpouts = 4;
  constexpr uint32_t kWorkers = 8;

  auto keys = MakeZipfKeys(kMessages, kNumKeys, 17);
  std::vector<uint64_t> expected_per_key(kNumKeys, 0);
  for (uint64_t key : *keys) ++expected_per_key[key];

  for (uint32_t threads : {1u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto histogram = std::make_shared<DeliveryHistogram>(kNumKeys);
    TopologyOptions options;
    options.hash_seed = 7;
    options.seed = 17;
    options.max_pending_per_spout = 2;

    auto result = ExecuteTopologyThreaded(
        SpoutBoltTopology(keys, kSpouts, kWorkers, AlgorithmKind::kPkg,
                          histogram),
        options, HammerOptions(threads));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const TopologyStats& stats = result.value();

    // Completion is the property under test: a lost wakeup stalls the run on
    // the 1 ms safety timeout per lost edge, and a wake that dereferences a
    // retired gate is a TSan report.
    EXPECT_EQ(stats.roots_acked, kMessages);
    ASSERT_EQ(stats.components.size(), 2u);
    EXPECT_EQ(stats.components[1].tuples_processed, kMessages);
    for (uint64_t key = 0; key < kNumKeys; ++key) {
      ASSERT_EQ(histogram->per_key[key].load(std::memory_order_relaxed),
                expected_per_key[key])
          << "key " << key;
    }
    // Idle accounting is well-formed: parks imply park time, park time is
    // part of idle time, nothing negative.
    EXPECT_GE(stats.idle_s, stats.park_s);
    EXPECT_GE(stats.park_s, 0.0);
    if (stats.parks == 0) {
      EXPECT_EQ(stats.park_s, 0.0);
    }
    // With more executors than runnable work and a zero spin budget,
    // parking must actually happen — a wait that never reaches the
    // condition variable would trivially "pass" the lost-wakeup hammer.
    if (threads >= 4) {
      EXPECT_GT(stats.parks, 0u);
    }
  }
}

// The last root can ack while every other executor is parked with empty
// rings; termination (and spout exhaustion before it) must broadcast to all
// gates or the run hangs in the parked threads' join.
TEST(WaitStrategyTest, ShutdownReachesParkedExecutors) {
  constexpr uint64_t kMessages = 64;
  auto keys = MakeZipfKeys(kMessages, 16, 3);

  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    TopologyOptions options;
    options.hash_seed = 7;
    options.seed = static_cast<uint64_t>(round);
    options.max_pending_per_spout = 2;

    // 12 tasks on 8 threads but only 64 tuples: most executors go idle and
    // park almost immediately, then must be woken to observe termination.
    auto result = ExecuteTopologyThreaded(
        SpoutBoltTopology(keys, 4, 8, AlgorithmKind::kPkg), options,
        HammerOptions(8));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->roots_acked, kMessages);
  }
}

// A rescale quiesce begins while executors hosting drained tasks are parked;
// the phase change must reach them (WakeAll at the phase CAS) so they join
// the barrier, or the mutation deadlocks.
TEST(WaitStrategyTest, RescaleQuiesceReachesParkedExecutors) {
  constexpr uint64_t kMessages = 12000;
  constexpr uint64_t kNumKeys = 300;

  auto keys = MakeZipfKeys(kMessages, kNumKeys, 29);
  std::vector<uint64_t> expected_per_key(kNumKeys, 0);
  for (uint64_t key : *keys) ++expected_per_key[key];

  RescaleSchedule schedule;
  schedule.events = {RescaleEvent{0.3, 12}, RescaleEvent{0.7, 6}};

  for (uint32_t threads : {4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto histogram = std::make_shared<DeliveryHistogram>(kNumKeys);
    TopologyOptions options;
    options.hash_seed = 7;
    options.seed = 29;
    options.max_pending_per_spout = 8;
    TopologyRuntimeOptions rt = HammerOptions(threads);
    rt.queue_capacity = 8;
    rt.rescale.schedule = schedule;
    rt.rescale.total_messages = kMessages;

    auto result = ExecuteTopologyThreaded(
        SpoutBoltTopology(keys, 4, 8, AlgorithmKind::kPkg, histogram), options,
        rt);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const TopologyStats& stats = result.value();

    EXPECT_EQ(stats.roots_acked, kMessages);
    for (uint64_t key = 0; key < kNumKeys; ++key) {
      ASSERT_EQ(histogram->per_key[key].load(std::memory_order_relaxed),
                expected_per_key[key])
          << "key " << key;
    }
    EXPECT_EQ(stats.rescale.rescale_events, schedule.events.size());
    EXPECT_EQ(stats.rescale.final_parallelism, 6u);
    EXPECT_GT(stats.rescale.handoff_frames, 0u);
  }
}

// An unbounded spin budget is the busy-wait baseline: executors never park,
// and delivery stays exact without a single wake reaching a sleeper.
TEST(WaitStrategyTest, UnboundedSpinNeverParksAndStaysExact) {
  constexpr uint64_t kMessages = 4000;
  constexpr uint64_t kNumKeys = 100;

  auto keys = MakeZipfKeys(kMessages, kNumKeys, 11);
  std::vector<uint64_t> expected_per_key(kNumKeys, 0);
  for (uint64_t key : *keys) ++expected_per_key[key];

  auto histogram = std::make_shared<DeliveryHistogram>(kNumKeys);
  TopologyOptions options;
  options.hash_seed = 7;
  options.seed = 11;
  TopologyRuntimeOptions rt;
  rt.num_threads = 4;
  rt.queue_capacity = 64;
  rt.batch_size = 16;
  rt.spin_budget = std::chrono::nanoseconds::max();

  auto result = ExecuteTopologyThreaded(
      SpoutBoltTopology(keys, 4, 8, AlgorithmKind::kPkg, histogram), options,
      rt);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const TopologyStats& stats = result.value();

  EXPECT_EQ(stats.roots_acked, kMessages);
  for (uint64_t key = 0; key < kNumKeys; ++key) {
    ASSERT_EQ(histogram->per_key[key].load(std::memory_order_relaxed),
              expected_per_key[key])
        << "key " << key;
  }
  EXPECT_EQ(stats.parks, 0u);
  EXPECT_EQ(stats.park_s, 0.0);
  EXPECT_GE(stats.idle_s, 0.0);
}

}  // namespace
}  // namespace slb
