#include "slb/dspe/topology.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>

#include "slb/dspe/standard_bolts.h"

namespace slb {
namespace {

// Counts tuples per key (stateful aggregation). Optionally mirrors counts
// into a caller-owned sink: the engine owns and destroys bolt instances, so
// tests must not hold raw pointers into them past ExecuteTopology().
class CountBolt final : public Bolt {
 public:
  explicit CountBolt(std::map<uint64_t, uint64_t>* sink = nullptr)
      : sink_(sink) {}

  void Execute(const TopologyTuple& tuple, OutputCollector*) override {
    counts_[tuple.key] += tuple.value;
    if (sink_ != nullptr) (*sink_)[tuple.key] += tuple.value;
  }
  size_t StateEntries() const override { return counts_.size(); }

 private:
  std::map<uint64_t, uint64_t> counts_;
  std::map<uint64_t, uint64_t>* sink_;
};

// Re-emits each tuple `fanout` times (exercises the ack tree).
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

TopologyOptions FastOptions() {
  TopologyOptions options;
  options.transport_rate_per_s = 100000;  // 0.01 ms per routed copy
  options.bolt_service_ms = 0.05;
  options.max_pending_per_spout = 100;
  return options;
}

TEST(TopologyValidationTest, RejectsEmptyTopology) {
  TopologyBuilder builder;
  EXPECT_FALSE(ExecuteTopology(builder.Build(), FastOptions()).ok());
}

TEST(TopologyValidationTest, RejectsDuplicateNames) {
  TopologyBuilder builder;
  builder.AddSpout("a", [](uint32_t) {
    return std::make_unique<ZipfSpout>(1.0, 10, 5, 1);
  }, 1);
  builder.AddBolt("a", [](uint32_t) { return std::make_unique<CountBolt>(); }, 1)
      .Input("a", Grouping::Shuffle());
  EXPECT_FALSE(ExecuteTopology(builder.Build(), FastOptions()).ok());
}

TEST(TopologyValidationTest, RejectsUnknownUpstream) {
  TopologyBuilder builder;
  builder.AddSpout("src", [](uint32_t) {
    return std::make_unique<ZipfSpout>(1.0, 10, 5, 1);
  }, 1);
  builder.AddBolt("sink", [](uint32_t) { return std::make_unique<CountBolt>(); },
                  1)
      .Input("nope", Grouping::Shuffle());
  EXPECT_FALSE(ExecuteTopology(builder.Build(), FastOptions()).ok());
}

TEST(TopologyValidationTest, RejectsBoltWithoutInputs) {
  TopologyBuilder builder;
  builder.AddSpout("src", [](uint32_t) {
    return std::make_unique<ZipfSpout>(1.0, 10, 5, 1);
  }, 1);
  builder.AddBolt("lonely",
                  [](uint32_t) { return std::make_unique<CountBolt>(); }, 1);
  EXPECT_FALSE(ExecuteTopology(builder.Build(), FastOptions()).ok());
}

TEST(TopologyValidationTest, RejectsCycles) {
  TopologyBuilder builder;
  builder.AddSpout("src", [](uint32_t) {
    return std::make_unique<ZipfSpout>(1.0, 10, 5, 1);
  }, 1);
  builder.AddBolt("a", [](uint32_t) { return std::make_unique<CountBolt>(); }, 1)
      .Input("src", Grouping::Shuffle())
      .Input("b", Grouping::Shuffle());
  builder.AddBolt("b", [](uint32_t) { return std::make_unique<CountBolt>(); }, 1)
      .Input("a", Grouping::Shuffle());
  EXPECT_FALSE(ExecuteTopology(builder.Build(), FastOptions()).ok());
}

TEST(TopologyExecutionTest, ProcessesEveryTupleExactlyOnce) {
  const uint64_t count = 2000;
  std::map<uint64_t, uint64_t> sink;  // engine is single-threaded
  TopologyBuilder builder;
  builder.AddSpout("src", [&](uint32_t i) {
    return std::make_unique<ZipfSpout>(1.2, 100, count / 2, 7 + i);
  }, 2);
  builder.AddBolt("count", [&](uint32_t) {
    return std::make_unique<CountBolt>(&sink);
  }, 4).Input("src", Grouping::Pkg());

  auto stats = ExecuteTopology(builder.Build(), FastOptions());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->roots_acked, count);
  EXPECT_EQ(stats->tuples_processed, count * 2);  // spout emits + bolt execs
  uint64_t total = 0;
  for (const auto& [key, c] : sink) total += c;
  EXPECT_EQ(total, count);
}

TEST(TopologyExecutionTest, AckTreeCoversDescendants) {
  // src -> fanout(3) -> count: each root completes only after its three
  // descendants are processed, so throughput and acks must both be exact.
  const uint64_t count = 500;
  TopologyBuilder builder;
  builder.AddSpout("src", [&](uint32_t) {
    return std::make_unique<ZipfSpout>(1.0, 50, count, 3);
  }, 1);
  builder.AddBolt("fan", [](uint32_t) { return std::make_unique<FanoutBolt>(3); },
                  2).Input("src", Grouping::Shuffle());
  builder.AddBolt("count", [](uint32_t) { return std::make_unique<CountBolt>(); },
                  4).Input("fan", Grouping::Pkg());

  auto stats = ExecuteTopology(builder.Build(), FastOptions());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->roots_acked, count);
  // spout count + fan count + 3x count at the counter.
  EXPECT_EQ(stats->tuples_processed, count + count + 3 * count);
  ASSERT_EQ(stats->components.size(), 3u);
  EXPECT_EQ(stats->components[2].tuples_processed, 3 * count);
}

TEST(TopologyExecutionTest, BoltEmissionsCrossTransportStage) {
  // src -> fan(3) -> sink with near-free bolts: every root costs one spout
  // copy plus three bolt-emitted copies at the shared transport stage, so
  // roots complete at a quarter of its rate.
  TopologyBuilder builder;
  builder.AddSpout("src", [&](uint32_t) {
    return std::make_unique<ZipfSpout>(1.0, 50, 4000, 3);
  }, 1);
  builder.AddBolt("fan", [](uint32_t) { return std::make_unique<FanoutBolt>(3); },
                  2).Input("src", Grouping::Shuffle());
  builder.AddBolt("sink", [](uint32_t) { return std::make_unique<CountBolt>(); },
                  4).Input("fan", Grouping::Shuffle());
  TopologyOptions options;
  options.bolt_service_ms = 1e-6;
  options.transport_rate_per_s = 4000;
  auto stats = ExecuteTopology(builder.Build(), options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->roots_acked, 4000u);
  EXPECT_NEAR(stats->throughput_per_s, options.transport_rate_per_s / 4, 1.0);
}

TEST(TopologyExecutionTest, KeyGroupingImbalancedUnderSkew) {
  TopologyBuilder builder;
  builder.AddSpout("src", [&](uint32_t) {
    return std::make_unique<ZipfSpout>(1.8, 1000, 5000, 11);
  }, 1);
  builder.AddBolt("agg", [](uint32_t) { return std::make_unique<CountBolt>(); },
                  10).Input("src", Grouping::Key());
  auto kg = ExecuteTopology(builder.Build(), FastOptions());
  ASSERT_TRUE(kg.ok());

  TopologyBuilder builder2;
  builder2.AddSpout("src", [&](uint32_t) {
    return std::make_unique<ZipfSpout>(1.8, 1000, 5000, 11);
  }, 1);
  builder2.AddBolt("agg", [](uint32_t) { return std::make_unique<CountBolt>(); },
                   10).Input("src", Grouping::DChoices());
  auto dc = ExecuteTopology(builder2.Build(), FastOptions());
  ASSERT_TRUE(dc.ok());

  const double kg_imb = kg->components[1].imbalance;
  const double dc_imb = dc->components[1].imbalance;
  EXPECT_GT(kg_imb, 0.2) << "z=1.8 pins ~45% of tuples on one task";
  EXPECT_LT(dc_imb, kg_imb / 4);
  // Throughput follows balance: D-C must clearly beat KG here.
  EXPECT_GT(dc->throughput_per_s, 1.2 * kg->throughput_per_s);
}

TEST(TopologyExecutionTest, StateEntriesReported) {
  TopologyBuilder builder;
  builder.AddSpout("src", [&](uint32_t) {
    return std::make_unique<ZipfSpout>(1.0, 200, 3000, 5);
  }, 1);
  builder.AddBolt("agg", [](uint32_t) { return std::make_unique<CountBolt>(); },
                  5).Input("src", Grouping::Pkg());
  auto stats = ExecuteTopology(builder.Build(), FastOptions());
  ASSERT_TRUE(stats.ok());
  // PKG: every key on at most 2 tasks => state <= 2 * |K|.
  EXPECT_GT(stats->components[1].state_entries, 0u);
  EXPECT_LE(stats->components[1].state_entries, 2 * 200u);
}

TEST(TopologyExecutionTest, DeterministicForFixedSeeds) {
  auto run = [] {
    TopologyBuilder builder;
    builder.AddSpout("src", [&](uint32_t) {
      return std::make_unique<ZipfSpout>(1.4, 300, 2000, 9);
    }, 2);
    builder.AddBolt("agg", [](uint32_t) { return std::make_unique<CountBolt>(); },
                    6).Input("src", Grouping::DChoices());
    return ExecuteTopology(builder.Build(), FastOptions());
  };
  auto a = run();
  auto b = run();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->makespan_s, b->makespan_s);
  EXPECT_DOUBLE_EQ(a->latency_p99_ms, b->latency_p99_ms);
  EXPECT_EQ(a->components[1].task_loads, b->components[1].task_loads);
}

TEST(TopologyExecutionTest, TupleBudgetGuardsAgainstLoops) {
  TopologyBuilder builder;
  builder.AddSpout("src", [&](uint32_t) {
    return std::make_unique<ZipfSpout>(1.0, 10, 1000, 1);
  }, 1);
  builder.AddBolt("fan", [](uint32_t) { return std::make_unique<FanoutBolt>(5); },
                  1).Input("src", Grouping::Shuffle());
  builder.AddBolt("sink", [](uint32_t) { return std::make_unique<CountBolt>(); },
                  1).Input("fan", Grouping::Shuffle());
  TopologyOptions options = FastOptions();
  options.max_tuples = 100;  // far below the 7000 the run needs
  auto stats = ExecuteTopology(builder.Build(), options);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TopologyExecutionTest, MultiStagePipelineLatencyOrdering) {
  TopologyBuilder builder;
  builder.AddSpout("src", [&](uint32_t) {
    return std::make_unique<ZipfSpout>(1.0, 100, 1000, 2);
  }, 1);
  builder.AddBolt("a", [](uint32_t) { return std::make_unique<FanoutBolt>(1); },
                  2).Input("src", Grouping::Shuffle());
  builder.AddBolt("b", [](uint32_t) { return std::make_unique<CountBolt>(); },
                  2).Input("a", Grouping::Pkg());
  auto stats = ExecuteTopology(builder.Build(), FastOptions());
  ASSERT_TRUE(stats.ok());
  // Tree latency >= 2 bolt service times + 2 transport hops.
  EXPECT_GE(stats->latency_p50_ms, 2 * 0.05 + 2 * 0.01 - 1e-9);
  EXPECT_LE(stats->latency_p50_ms, stats->latency_p99_ms);
}

}  // namespace
}  // namespace slb
