// Concurrency stress battery for live elastic rescale (runtime.h).
//
// Seeded random add/remove schedules run across thread counts and
// partitioning schemes, checking the invariants the protocol must hold at
// every epoch regardless of interleaving:
//
//   * no lost or duplicated tuples — every spout root is acked exactly once
//     and the bolt component processes exactly the input count;
//   * per-key delivery counts match the input histogram exactly (checked
//     through a thread-safe sink, so a tuple delivered twice or dropped
//     during a handoff epoch is caught even when totals happen to balance);
//   * per-key state is conserved — every bolt, live or retired, reports its
//     remaining state when the engine destroys it, and each key's total
//     equals its input count (a frame lost, duplicated or installed twice
//     in a handoff shows up here even when delivery was exact);
//   * acks conserved — the run terminates with all credit windows returned
//     (a leaked credit deadlocks the run; a double-returned one overshoots
//     roots_acked);
//   * the final worker set matches the schedule, and the modeled migration
//     accounting is byte-identical at every thread count (it replays the
//     recorded routing logs, so interleaving must not leak into it).
//
// These tests are written to be meaningful under ThreadSanitizer: they run
// the real executor threads through real quiesce/mutate/resume cycles.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "slb/common/rng.h"
#include "slb/dspe/runtime.h"
#include "slb/dspe/standard_bolts.h"
#include "slb/dspe/topology.h"
#include "slb/sim/migration_tracker.h"
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

// Per-key counters shared by every bolt task (tasks run on different
// executor threads, hence atomics).
struct KeyCounters {
  explicit KeyCounters(uint64_t num_keys) : per_key(num_keys) {}
  std::vector<std::atomic<uint64_t>> per_key;
};

// CountingBolt that, when destroyed, adds the per-key state it still holds
// to `state`. The engine destroys every bolt it created (live and retired)
// before it returns, so the table then holds each key's final state total.
class StateReportingBolt final : public Bolt {
 public:
  StateReportingBolt(CountingBolt::Sink sink,
                     std::shared_ptr<KeyCounters> state)
      : inner_(std::move(sink)), state_(std::move(state)) {}
  StateReportingBolt(const StateReportingBolt&) = delete;
  StateReportingBolt& operator=(const StateReportingBolt&) = delete;
  ~StateReportingBolt() override {
    if (!state_) return;
    std::vector<uint64_t> keys;
    inner_.AppendStateKeys(&keys);
    for (uint64_t key : keys) {
      uint64_t value = 0;
      inner_.ExtractKeyState(key, &value);
      state_->per_key[key].fetch_add(value, std::memory_order_relaxed);
    }
  }

  void Execute(const TopologyTuple& tuple, OutputCollector* out) override {
    inner_.Execute(tuple, out);
  }
  size_t StateEntries() const override { return inner_.StateEntries(); }
  bool SupportsStateHandoff() const override { return true; }
  void AppendStateKeys(std::vector<uint64_t>* keys) const override {
    inner_.AppendStateKeys(keys);
  }
  bool ExtractKeyState(uint64_t key, uint64_t* value) override {
    return inner_.ExtractKeyState(key, value);
  }
  void InstallKeyState(uint64_t key, uint64_t value) override {
    inner_.InstallKeyState(key, value);
  }

 private:
  CountingBolt inner_;
  std::shared_ptr<KeyCounters> state_;
};

TopologyBuilder::Topology ElasticTopology(
    std::shared_ptr<const std::vector<uint64_t>> keys, uint32_t num_spouts,
    uint32_t num_workers, AlgorithmKind algorithm,
    std::shared_ptr<KeyCounters> histogram = nullptr,
    std::shared_ptr<KeyCounters> state = nullptr) {
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
               [histogram, state](uint32_t) {
                 CountingBolt::Sink sink = nullptr;
                 if (histogram) {
                   sink = [histogram](uint64_t key, uint64_t) {
                     histogram->per_key[key].fetch_add(
                         1, std::memory_order_relaxed);
                   };
                 }
                 return std::make_unique<StateReportingBolt>(std::move(sink),
                                                             state);
               },
               num_workers)
      .Input("sources", grouping);
  return builder.Build();
}

// A random add/remove schedule: 1-3 events at spaced positions, each moving
// to a target different from the current count (no-op events never fire).
RescaleSchedule RandomSchedule(Rng* rng, uint32_t base_workers,
                               uint32_t* final_workers) {
  RescaleSchedule schedule;
  const int num_events = 1 + static_cast<int>(rng->NextBounded(3));
  double at = 0.1 + 0.15 * rng->NextDouble();
  uint32_t current = base_workers;
  for (int e = 0; e < num_events && at < 0.9; ++e) {
    uint32_t target = current;
    while (target == current) {
      target = 2 + static_cast<uint32_t>(rng->NextBounded(15));
    }
    schedule.events.push_back(RescaleEvent{at, target});
    current = target;
    at += 0.12 + 0.3 * rng->NextDouble();
  }
  *final_workers = current;
  return schedule;
}

struct ScheduleCase {
  uint64_t seed = 0;  // key stream
  RescaleSchedule schedule;
  uint32_t final_workers = 0;
  std::vector<AlgorithmKind> algorithms;
};

// Random schedules, plus near-stacked ones whose events land within a few
// messages of each other (or at the same position), so each barrier fires
// while the previous window's drain or pulls are still unfinished and the
// mutator must settle them itself.
std::vector<ScheduleCase> StressCases(uint32_t base_workers) {
  std::vector<ScheduleCase> cases;
  for (uint64_t seed : {11u, 29u, 83u}) {
    Rng rng(seed * 977 + 13);
    ScheduleCase c;
    c.seed = seed;
    c.schedule = RandomSchedule(&rng, base_workers, &c.final_workers);
    c.algorithms = {AlgorithmKind::kPkg, AlgorithmKind::kConsistentHash};
    cases.push_back(std::move(c));
  }
  const std::vector<std::vector<RescaleEvent>> stacked = {
      {{0.3, 4}, {0.30001, 12}, {0.6, 3}},
      {{0.5, 2}, {0.5001, 16}},
      {{0.2, 14}, {0.4, 5}, {0.40001, 9}, {0.7, 2}}};
  for (size_t i = 0; i < stacked.size(); ++i) {
    ScheduleCase c;
    c.seed = 101 + i;
    c.schedule.events = stacked[i];
    c.final_workers = stacked[i].back().num_workers;
    c.algorithms = {AlgorithmKind::kPkg, AlgorithmKind::kConsistentHash,
                    AlgorithmKind::kDChoices};
    cases.push_back(std::move(c));
  }
  return cases;
}

TEST(RescaleStressTest, RandomSchedulesHoldInvariantsAcrossThreadCounts) {
  constexpr uint64_t kMessages = 24000;
  constexpr uint64_t kNumKeys = 400;
  constexpr uint32_t kSpouts = 4;
  constexpr uint32_t kBaseWorkers = 8;

  for (const ScheduleCase& stress : StressCases(kBaseWorkers)) {
    const uint64_t seed = stress.seed;
    const RescaleSchedule& schedule = stress.schedule;
    const uint32_t final_workers = stress.final_workers;
    auto keys = MakeZipfKeys(kMessages, kNumKeys, seed);
    std::vector<uint64_t> expected_per_key(kNumKeys, 0);
    for (uint64_t key : *keys) ++expected_per_key[key];

    for (AlgorithmKind algorithm : stress.algorithms) {
      std::vector<uint64_t> reference_migrated;
      uint64_t reference_stalled = 0;
      bool have_reference = false;

      for (uint32_t threads : {1u, 4u, 8u}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " algo=" + std::to_string(static_cast<int>(algorithm)) +
                     " threads=" + std::to_string(threads));
        auto histogram = std::make_shared<KeyCounters>(kNumKeys);
        auto state = std::make_shared<KeyCounters>(kNumKeys);
        TopologyOptions options;
        options.hash_seed = 7;
        options.seed = seed;
        options.max_pending_per_spout = 24;
        TopologyRuntimeOptions rt;
        rt.num_threads = threads;
        rt.queue_capacity = 64;
        rt.batch_size = 16;
        rt.rescale.schedule = schedule;
        rt.rescale.total_messages = kMessages;

        auto result = ExecuteTopologyThreaded(
            ElasticTopology(keys, kSpouts, kBaseWorkers, algorithm, histogram,
                            state),
            options, rt);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        const TopologyStats& stats = result.value();

        // Acks conserved: every root acked exactly once, run terminated.
        EXPECT_EQ(stats.roots_acked, kMessages);
        // No lost/duplicated tuples through any handoff epoch.
        ASSERT_EQ(stats.components.size(), 2u);
        EXPECT_EQ(stats.components[0].tuples_processed, kMessages);
        EXPECT_EQ(stats.components[1].tuples_processed, kMessages);
        for (uint64_t key = 0; key < kNumKeys; ++key) {
          ASSERT_EQ(histogram->per_key[key].load(std::memory_order_relaxed),
                    expected_per_key[key])
              << "key " << key;
          // Every tuple adds 1 to its key's state, wherever the state lives.
          ASSERT_EQ(state->per_key[key].load(std::memory_order_relaxed),
                    expected_per_key[key])
              << "state of key " << key;
        }
        // Final worker set matches the schedule.
        EXPECT_EQ(stats.rescale.final_parallelism, final_workers);
        EXPECT_EQ(stats.rescale.rescale_events, schedule.events.size());
        EXPECT_EQ(stats.components[1].task_loads.size(), final_workers);
        // Live protocol did real work on every non-static schedule.
        EXPECT_GT(stats.rescale.handoff_frames, 0u);
        EXPECT_GT(stats.rescale.keys_migrated, 0u);
        EXPECT_GE(stats.rescale.total_quiesce_s, 0.0);

        // The modeled accounting replays recorded routing logs, so it must
        // not depend on the interleaving at all.
        if (!have_reference) {
          reference_migrated = stats.rescale.migrated_keys;
          reference_stalled = stats.rescale.stalled_messages;
          have_reference = true;
        } else {
          EXPECT_EQ(stats.rescale.migrated_keys, reference_migrated);
          EXPECT_EQ(stats.rescale.stalled_messages, reference_stalled);
        }
      }
    }
  }
}

// Satellite pin for the credit-backpressure audit: a 1-credit window with
// 2-slot rings must survive quiesce points. The quiesce barrier requires
// every in-flight tree to ack while spouts are paused; a credit leaked
// across the mutation (or a stashed batch dropped with it) deadlocks here,
// and a double-returned credit overshoots roots_acked.
TEST(RescaleStressTest, CreditWindowSurvivesQuiesceUnderSevereBackpressure) {
  constexpr uint64_t kMessages = 6000;
  auto keys = MakeZipfKeys(kMessages, 150, 5);

  RescaleSchedule schedule;
  schedule.events = {RescaleEvent{0.3, 12}, RescaleEvent{0.65, 5}};

  for (uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    TopologyOptions options;
    options.max_pending_per_spout = 1;
    options.seed = 5;
    TopologyRuntimeOptions rt;
    rt.num_threads = threads;
    rt.queue_capacity = 2;
    rt.batch_size = 1;
    rt.rescale.schedule = schedule;
    rt.rescale.total_messages = kMessages;

    auto result = ExecuteTopologyThreaded(
        ElasticTopology(keys, 2, 8, AlgorithmKind::kPkg), options, rt);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().roots_acked, kMessages);
    EXPECT_EQ(result.value().rescale.rescale_events, 2u);
    EXPECT_EQ(result.value().rescale.final_parallelism, 5u);
  }
}

// The stream ends before the promised total_messages: pending events must be
// cancelled (not fired at a bogus position, not deadlock a paused spout) and
// the run still drains completely.
TEST(RescaleStressTest, ShortStreamCancelsRemainingEvents) {
  constexpr uint64_t kMessages = 4000;
  auto keys = MakeZipfKeys(kMessages, 100, 9);

  RescaleSchedule schedule;
  // The second event's trigger lies beyond the actual stream end.
  schedule.events = {RescaleEvent{0.25, 12}, RescaleEvent{0.9, 4}};

  TopologyOptions options;
  options.max_pending_per_spout = 16;
  TopologyRuntimeOptions rt;
  rt.num_threads = 4;
  rt.rescale.schedule = schedule;
  // Promise twice the real stream: the first event fires (25% of the promise
  // lands inside the stream), the second cannot and must cancel.
  rt.rescale.total_messages = kMessages * 2;

  auto result = ExecuteTopologyThreaded(
      ElasticTopology(keys, 4, 8, AlgorithmKind::kPkg), options, rt);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().roots_acked, kMessages);
  EXPECT_EQ(result.value().rescale.rescale_events, 1u);
  EXPECT_EQ(result.value().rescale.final_parallelism, 12u);
}

// Rescale demands an elastic-capable topology: a partitioner without rescale
// support or a bolt without the state-handoff API must be rejected up front,
// not discovered mid-quiesce.
TEST(RescaleStressTest, RejectsNonRescalableTopologies) {
  auto keys = MakeZipfKeys(100, 10, 1);
  RescaleSchedule schedule;
  schedule.events = {RescaleEvent{0.5, 4}};

  TopologyOptions options;
  options.max_pending_per_spout = 8;
  TopologyRuntimeOptions rt;
  rt.rescale.schedule = schedule;
  rt.rescale.total_messages = 100;

  // kDChoices supports rescale but this bolt has no state handoff.
  TopologyBuilder builder;
  builder.AddSpout(
      "sources",
      [keys](uint32_t task) {
        return std::make_unique<VectorSpout>(keys, task, 2);
      },
      2);
  class PlainBolt final : public Bolt {
   public:
    void Execute(const TopologyTuple&, OutputCollector*) override {}
  };
  builder
      .AddBolt("workers",
               [](uint32_t) { return std::make_unique<PlainBolt>(); }, 4)
      .Input("sources", Grouping::Pkg());
  EXPECT_FALSE(ExecuteTopologyThreaded(builder.Build(), options, rt).ok());

  // Unknown target component name.
  TopologyRuntimeOptions bad_component = rt;
  bad_component.rescale.component = "nonexistent";
  EXPECT_FALSE(ExecuteTopologyThreaded(
                   ElasticTopology(keys, 2, 4, AlgorithmKind::kPkg), options,
                   bad_component)
                   .ok());

  // total_messages is required (event positions are fractions of it).
  TopologyRuntimeOptions no_total = rt;
  no_total.rescale.total_messages = 0;
  EXPECT_FALSE(ExecuteTopologyThreaded(
                   ElasticTopology(keys, 2, 4, AlgorithmKind::kPkg), options,
                   no_total)
                   .ok());
}

// Scale-out places its new workers on the executors the run started with:
// no thread is added mid-run. Each bolt records the thread executing it
// whenever that changes, so a worker hosted by an extra thread shows up in
// the set; a pinned run pins exactly the starting threads.
TEST(ElasticRescale, ScaleOutKeepsTheExecutorSet) {
  constexpr uint64_t kMessages = 20000;
  constexpr uint64_t kNumKeys = 300;
  auto keys = MakeZipfKeys(kMessages, kNumKeys, 17);
  std::vector<uint64_t> expected_per_key(kNumKeys, 0);
  for (uint64_t key : *keys) ++expected_per_key[key];

  struct ThreadSet {
    std::mutex mu;
    std::set<std::thread::id> ids;  // guarded by mu
  };
  RescaleSchedule schedule;
  schedule.events = {RescaleEvent{0.4, 16}};

  for (uint32_t threads : {1u, 2u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto histogram = std::make_shared<KeyCounters>(kNumKeys);
    auto seen = std::make_shared<ThreadSet>();
    TopologyBuilder builder;
    builder.AddSpout(
        "sources",
        [keys](uint32_t task) {
          return std::make_unique<VectorSpout>(keys, task, 2);
        },
        2);
    builder
        .AddBolt("workers",
                 [histogram, seen](uint32_t) {
                   std::thread::id last;
                   return std::make_unique<CountingBolt>(
                       [histogram, seen, last](uint64_t key,
                                               uint64_t) mutable {
                         histogram->per_key[key].fetch_add(
                             1, std::memory_order_relaxed);
                         const std::thread::id self =
                             std::this_thread::get_id();
                         if (self == last) return;
                         last = self;
                         std::lock_guard<std::mutex> lock(seen->mu);
                         seen->ids.insert(self);
                       });
                 },
                 8)
        .Input("sources", Grouping::Pkg());
    TopologyOptions options;
    options.max_pending_per_spout = 32;
    options.seed = 17;
    TopologyRuntimeOptions rt;
    rt.num_threads = threads;
    rt.pin_threads = true;
    rt.rescale.schedule = schedule;
    rt.rescale.total_messages = kMessages;

    auto result = ExecuteTopologyThreaded(builder.Build(), options, rt);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const TopologyStats& stats = result.value();
    EXPECT_EQ(stats.roots_acked, kMessages);
    EXPECT_EQ(stats.rescale.rescale_events, 1u);
    EXPECT_EQ(stats.rescale.final_parallelism, 16u);
    for (uint64_t key = 0; key < kNumKeys; ++key) {
      ASSERT_EQ(histogram->per_key[key].load(std::memory_order_relaxed),
                expected_per_key[key])
          << "key " << key;
    }
    {
      std::lock_guard<std::mutex> lock(seen->mu);
      EXPECT_GE(seen->ids.size(), 1u);
      EXPECT_LE(seen->ids.size(), threads);
    }
#if defined(__linux__)
    EXPECT_EQ(stats.threads_pinned, threads);
#endif
  }
}

}  // namespace
}  // namespace slb
