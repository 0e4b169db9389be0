// Sim-vs-threaded migration equivalence (the contract in runtime.h and
// docs/ARCHITECTURE.md "Elastic rescale protocol"): for every rescalable
// AlgorithmKind, a live threaded run over a stream must report exactly the
// migration accounting RunPartitionSimulation computes for the same
// per-sender streams and schedule — the same migrated-key set in the same
// handoff order, the same stall count, the same moved-key fraction.
//
// The alignment recipe: the threaded spouts split one materialized stream
// round-robin (spout s takes positions s, s+S, ...) — the interleave the
// simulator models — and the simulator's partitioners are seeded with the
// topology's edge hash seed (EdgeHashSeed(base, 0, 0)), so every sender
// makes identical routing decisions in both engines. The threaded engine
// then replays its recorded routing logs through the same MigrationTracker
// (ReplayRoundRobinMigration), which this test pins as byte-identical to
// the simulator's online accounting.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "slb/dspe/plan.h"
#include "slb/dspe/runtime.h"
#include "slb/dspe/standard_bolts.h"
#include "slb/dspe/topology.h"
#include "slb/sim/partition_simulator.h"
#include "slb/workload/stream_generator.h"

namespace slb {
namespace {

constexpr uint64_t kMessages = 20000;
constexpr uint64_t kNumKeys = 300;
constexpr uint32_t kSources = 4;
constexpr uint32_t kBaseWorkers = 8;
constexpr uint64_t kBaseHashSeed = 42;
constexpr uint64_t kStreamSeed = 1234;

SyntheticStreamGenerator::Options StreamOptions() {
  SyntheticStreamGenerator::Options options;
  options.zipf_exponent = 1.1;
  options.num_keys = kNumKeys;
  options.num_messages = kMessages;
  options.seed = kStreamSeed;
  return options;
}

RescaleSchedule OutThenInSchedule() {
  RescaleSchedule schedule;
  schedule.events = {RescaleEvent{0.3, kBaseWorkers + 4},
                     RescaleEvent{0.7, kBaseWorkers - 3}};
  return schedule;
}

struct ModeledCounters {
  uint32_t rescale_events = 0;
  uint32_t final_num_workers = 0;
  uint64_t keys_migrated = 0;
  uint64_t state_bytes_migrated = 0;
  uint64_t stalled_messages = 0;
  double moved_key_fraction = 0.0;
  std::vector<uint64_t> migrated_keys;
};

ModeledCounters RunSim(AlgorithmKind algorithm,
                       const RescaleSchedule& schedule) {
  PartitionSimConfig config;
  config.algorithm = algorithm;
  config.partitioner.num_workers = kBaseWorkers;
  // The seed every sender of the threaded topology's single edge derives
  // its partitioner from; the simulator must route with the same one.
  config.partitioner.hash_seed = EdgeHashSeed(kBaseHashSeed, 0, 0);
  config.num_sources = kSources;
  config.rescale = schedule;
  config.record_migrated_keys = true;

  SyntheticStreamGenerator stream(StreamOptions());
  auto result = RunPartitionSimulation(config, &stream);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  ModeledCounters counters;
  counters.rescale_events = result->rescale_events;
  counters.final_num_workers = result->final_num_workers;
  counters.keys_migrated = result->keys_migrated;
  counters.state_bytes_migrated = result->state_bytes_migrated;
  counters.stalled_messages = result->stalled_messages;
  counters.moved_key_fraction = result->moved_key_fraction;
  counters.migrated_keys = result->migrated_keys;
  return counters;
}

Result<TopologyStats> RunThreaded(AlgorithmKind algorithm,
                                  const RescaleSchedule& schedule,
                                  uint32_t threads) {
  SyntheticStreamGenerator stream(StreamOptions());
  auto keys = std::make_shared<std::vector<uint64_t>>();
  keys->reserve(kMessages);
  for (uint64_t i = 0; i < kMessages; ++i) keys->push_back(stream.NextKey());
  std::shared_ptr<const std::vector<uint64_t>> shared = keys;

  TopologyBuilder builder;
  builder.AddSpout(
      "sources",
      [shared](uint32_t task) {
        return std::make_unique<VectorSpout>(shared, task, kSources);
      },
      kSources);
  Grouping grouping;
  grouping.algorithm = algorithm;
  builder
      .AddBolt("workers",
               [](uint32_t) { return std::make_unique<CountingBolt>(); },
               kBaseWorkers)
      .Input("sources", grouping);

  TopologyOptions options;
  options.hash_seed = kBaseHashSeed;
  options.max_pending_per_spout = 32;
  TopologyRuntimeOptions rt;
  rt.num_threads = threads;
  rt.rescale.schedule = schedule;
  rt.rescale.total_messages = kMessages;
  return ExecuteTopologyThreaded(builder.Build(), options, rt);
}

class RescaleEquivalenceTest : public ::testing::TestWithParam<AlgorithmKind> {
};

TEST_P(RescaleEquivalenceTest, ThreadedMigrationMatchesSimulator) {
  const AlgorithmKind algorithm = GetParam();
  const RescaleSchedule schedule = OutThenInSchedule();
  const ModeledCounters sim = RunSim(algorithm, schedule);
  ASSERT_EQ(sim.rescale_events, 2u);
  ASSERT_GT(sim.keys_migrated, 0u);

  for (uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto threaded = RunThreaded(algorithm, schedule, threads);
    ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
    const TopologyRescaleStats& rs = threaded->rescale;

    EXPECT_EQ(rs.rescale_events, sim.rescale_events);
    EXPECT_EQ(rs.final_parallelism, sim.final_num_workers);
    EXPECT_EQ(rs.keys_migrated, sim.keys_migrated);
    EXPECT_EQ(rs.state_bytes_migrated, sim.state_bytes_migrated);
    EXPECT_EQ(rs.stalled_messages, sim.stalled_messages);
    EXPECT_DOUBLE_EQ(rs.moved_key_fraction, sim.moved_key_fraction);
    // The migrated-key SET in handoff-enqueue ORDER — the strongest form of
    // "the live protocol moved what the model says moves".
    EXPECT_EQ(rs.migrated_keys, sim.migrated_keys);

    // And the live half actually ran: state crossed the handoff mailboxes and
    // the measured phase costs were recorded.
    EXPECT_GT(rs.handoff_frames, 0u);
    EXPECT_GT(rs.total_quiesce_s, 0.0);
    EXPECT_EQ(threaded->roots_acked, kMessages);
  }
}

INSTANTIATE_TEST_SUITE_P(AllRescalableAlgorithms, RescaleEquivalenceTest,
                         ::testing::Values(AlgorithmKind::kKeyGrouping,
                                           AlgorithmKind::kPkg,
                                           AlgorithmKind::kDChoices,
                                           AlgorithmKind::kWChoices,
                                           AlgorithmKind::kConsistentHash),
                         [](const auto& info) {
                           std::string name = AlgorithmKindName(info.param);
                           std::string safe;
                           for (char c : name) {
                             if (std::isalnum(static_cast<unsigned char>(c))) {
                               safe += c;
                             }
                           }
                           return safe;
                         });

}  // namespace
}  // namespace slb
