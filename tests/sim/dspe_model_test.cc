// Behaviour of ExecuteTopology's cluster model (docs/ARCHITECTURE.md,
// "Cluster model") on the Figs. 13-14 shape: per-source Zipf spouts feeding
// one sink bolt component over the grouping under test. DspeTheoryTest
// cross-checks the model against closed-form predictions — the quantitative
// backing for its claim to reproduce the throughput/latency *mechanisms* of
// the paper's cluster.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "slb/dspe/standard_bolts.h"
#include "slb/dspe/topology.h"
#include "slb/workload/zipf.h"

namespace slb {
namespace {

struct ClusterRun {
  AlgorithmKind algorithm = AlgorithmKind::kShuffleGrouping;
  uint32_t num_workers = 20;
  uint32_t num_sources = 8;
  uint64_t num_messages = 20000;
  double zipf_exponent = 1.4;
  uint64_t num_keys = 2000;
  TopologyOptions options;
};

ClusterRun BaseRun(AlgorithmKind algo) {
  ClusterRun run;
  run.algorithm = algo;
  run.options.bolt_service_ms = 1.0;
  run.options.transport_rate_per_s = 4000;
  run.options.max_pending_per_spout = 50;
  run.options.hash_seed = 5;
  run.options.seed = 11;
  return run;
}

Result<TopologyStats> RunCluster(const ClusterRun& run) {
  TopologyBuilder builder;
  builder.AddSpout(
      "sources",
      [&](uint32_t i) {
        return std::make_unique<ZipfSpout>(run.zipf_exponent, run.num_keys,
                                           run.num_messages / run.num_sources,
                                           run.options.seed + i);
      },
      run.num_sources);
  builder
      .AddBolt("workers",
               [](uint32_t) { return std::make_unique<CountingBolt>(); },
               run.num_workers)
      .Input("sources", Grouping{run.algorithm, {}});
  return ExecuteTopology(builder.Build(), run.options);
}

double MaxWorkerAvgLatency(const TopologyStats& stats) {
  const std::vector<double>& avg = stats.components.back().task_latency_avg_ms;
  return *std::max_element(avg.begin(), avg.end());
}

TEST(DspeSimTest, RejectsBadConfig) {
  ClusterRun run = BaseRun(AlgorithmKind::kShuffleGrouping);
  run.num_sources = 0;
  EXPECT_FALSE(RunCluster(run).ok());
  run = BaseRun(AlgorithmKind::kShuffleGrouping);
  run.options.bolt_service_ms = 0;
  EXPECT_FALSE(RunCluster(run).ok());
  run = BaseRun(AlgorithmKind::kShuffleGrouping);
  run.options.transport_rate_per_s = 0;
  EXPECT_FALSE(RunCluster(run).ok());
  run = BaseRun(AlgorithmKind::kShuffleGrouping);
  run.options.max_pending_per_spout = 0;
  EXPECT_FALSE(RunCluster(run).ok());
}

TEST(DspeSimTest, LatencyIsAtLeastServicePlusTransport) {
  auto result = RunCluster(BaseRun(AlgorithmKind::kShuffleGrouping));
  ASSERT_TRUE(result.ok());
  // Every tuple pays transport (0.25ms) + worker service (1ms).
  EXPECT_GE(result->latency_p50_ms, 1.25 - 1e-9);
  EXPECT_GE(result->latency_max_ms, result->latency_p99_ms);
  EXPECT_GE(result->latency_p99_ms, result->latency_p50_ms);
}

TEST(DspeSimTest, BalancedThroughputIsTransportBound) {
  // 20 workers x 1000/s capacity >> 4000/s transport: SG must saturate the
  // transport stage.
  auto result = RunCluster(BaseRun(AlgorithmKind::kShuffleGrouping));
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->throughput_per_s, 4000.0, 250.0);
}

TEST(DspeSimTest, SkewCollapsesKeyGroupingThroughput) {
  ClusterRun run = BaseRun(AlgorithmKind::kKeyGrouping);
  run.zipf_exponent = 2.0;  // p1 ~ 0.6 of the stream on one worker
  auto kg = RunCluster(run);
  run.algorithm = AlgorithmKind::kShuffleGrouping;
  auto sg = RunCluster(run);
  ASSERT_TRUE(kg.ok());
  ASSERT_TRUE(sg.ok());
  // KG is bottlenecked by the hot worker: ~1000/0.6 ~= 1667/s.
  EXPECT_LT(kg->throughput_per_s, 2300.0);
  EXPECT_GT(sg->throughput_per_s, 1.5 * kg->throughput_per_s);
}

TEST(DspeSimTest, SkewInflatesKeyGroupingLatency) {
  ClusterRun run = BaseRun(AlgorithmKind::kKeyGrouping);
  run.zipf_exponent = 2.0;
  auto kg = RunCluster(run);
  run.algorithm = AlgorithmKind::kWChoices;
  auto wc = RunCluster(run);
  ASSERT_TRUE(kg.ok());
  ASSERT_TRUE(wc.ok());
  EXPECT_GT(MaxWorkerAvgLatency(*kg), 3 * MaxWorkerAvgLatency(*wc));
}

TEST(DspeSimTest, HeadAwareAlgorithmsMatchShuffleThroughput) {
  ClusterRun run = BaseRun(AlgorithmKind::kShuffleGrouping);
  run.zipf_exponent = 2.0;
  auto sg = RunCluster(run);
  run.algorithm = AlgorithmKind::kDChoices;
  auto dc = RunCluster(run);
  run.algorithm = AlgorithmKind::kWChoices;
  auto wc = RunCluster(run);
  ASSERT_TRUE(sg.ok());
  ASSERT_TRUE(dc.ok());
  ASSERT_TRUE(wc.ok());
  EXPECT_GT(dc->throughput_per_s, 0.85 * sg->throughput_per_s);
  EXPECT_GT(wc->throughput_per_s, 0.85 * sg->throughput_per_s);
}

TEST(DspeSimTest, WorkerLatencyPercentilesOrdered) {
  // In a spout -> sink topology a tuple's latency is its root's, so the
  // load-weighted mean of the per-worker averages is the tuple-level mean,
  // which therefore lies between the smallest and largest worker average.
  auto result = RunCluster(BaseRun(AlgorithmKind::kPkg));
  ASSERT_TRUE(result.ok());
  const ComponentStats& workers = result->components.back();
  ASSERT_EQ(workers.task_latency_avg_ms.size(), 20u);
  double weighted = 0.0;
  double min_avg = result->latency_max_ms;
  for (size_t i = 0; i < workers.task_latency_avg_ms.size(); ++i) {
    ASSERT_GT(workers.task_loads[i], 0.0);
    weighted += workers.task_loads[i] * workers.task_latency_avg_ms[i];
    min_avg = std::min(min_avg, workers.task_latency_avg_ms[i]);
  }
  EXPECT_NEAR(weighted, result->latency_avg_ms, 1e-6 * result->latency_avg_ms);
  EXPECT_LE(min_avg, result->latency_avg_ms);
  EXPECT_LE(result->latency_avg_ms, MaxWorkerAvgLatency(*result));
  EXPECT_LE(MaxWorkerAvgLatency(*result), result->latency_max_ms);
  // Spouts finish their work at emission.
  EXPECT_EQ(result->components.front().task_latency_avg_ms,
            std::vector<double>(8, 0.0));
}

TEST(DspeSimTest, SmallRunSingleSourceSingleWorker) {
  ClusterRun run = BaseRun(AlgorithmKind::kShuffleGrouping);
  run.num_sources = 1;
  run.num_workers = 1;
  run.num_messages = 100;
  auto result = RunCluster(run);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->roots_acked, 100u);
  // Single worker at 1ms/tuple: makespan >= 0.1s.
  EXPECT_GE(result->makespan_s, 0.099);
}

ClusterRun TheoryRun(AlgorithmKind algo, double z) {
  ClusterRun run;
  run.algorithm = algo;
  run.num_workers = 40;
  run.num_sources = 16;
  run.num_messages = 40000;
  run.zipf_exponent = z;
  run.num_keys = 10000;
  run.options.bolt_service_ms = 2.0;         // 500/s per worker
  run.options.transport_rate_per_s = 5000;  // 25% of aggregate worker capacity
  run.options.max_pending_per_spout = 60;
  run.options.hash_seed = 3;
  run.options.seed = 21;
  return run;
}

TEST(DspeTheoryTest, BottleneckFormulaPredictsKgThroughput) {
  // KG pins the hottest key (share p1) on one worker. When
  // p1 * transport_rate exceeds the worker service rate, throughput is
  // service_rate / p1.
  const double z = 2.0;
  const double p1 = ZipfTopProbability(z, 10000);  // ~0.60
  const ClusterRun run = TheoryRun(AlgorithmKind::kKeyGrouping, z);
  const double service_rate = 1000.0 / run.options.bolt_service_ms;
  ASSERT_GT(p1 * run.options.transport_rate_per_s, service_rate)
      << "setup must make the hot worker the bottleneck";
  const double predicted = service_rate / p1;

  auto result = RunCluster(run);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->throughput_per_s, predicted, 0.15 * predicted);
}

TEST(DspeTheoryTest, TransportFormulaPredictsBalancedThroughput) {
  // A balanced scheme leaves every worker far below saturation; throughput
  // equals the transport stage's rate.
  auto result = RunCluster(TheoryRun(AlgorithmKind::kShuffleGrouping, 2.0));
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->throughput_per_s, 5000.0, 300.0);
}

TEST(DspeTheoryTest, CreditWindowBoundsHotWorkerLatency) {
  // Under extreme skew, nearly the whole credit window piles up at the hot
  // worker; its queue is bounded by sources * max_pending, so the worst
  // per-worker average latency is about window * service_time.
  const ClusterRun run = TheoryRun(AlgorithmKind::kKeyGrouping, 2.0);
  auto result = RunCluster(run);
  ASSERT_TRUE(result.ok());
  const double window = static_cast<double>(run.num_sources) *
                        run.options.max_pending_per_spout;
  const double ceiling = window * run.options.bolt_service_ms;
  EXPECT_LE(MaxWorkerAvgLatency(*result), ceiling * 1.05);
  EXPECT_GE(MaxWorkerAvgLatency(*result), 0.3 * ceiling)
      << "most of the window should sit at the hot worker";
}

TEST(DspeTheoryTest, ShrinkingCreditWindowShrinksTailLatency) {
  ClusterRun run = TheoryRun(AlgorithmKind::kKeyGrouping, 2.0);
  run.options.max_pending_per_spout = 60;
  auto wide = RunCluster(run);
  run.options.max_pending_per_spout = 15;
  auto narrow = RunCluster(run);
  ASSERT_TRUE(wide.ok());
  ASSERT_TRUE(narrow.ok());
  EXPECT_LT(MaxWorkerAvgLatency(*narrow), 0.5 * MaxWorkerAvgLatency(*wide))
      << "backpressure caps queueing delay (Storm's max spout pending)";
  // Throughput at the bottleneck is window-independent once the hot worker
  // never idles.
  EXPECT_NEAR(narrow->throughput_per_s, wide->throughput_per_s,
              0.15 * wide->throughput_per_s);
}

TEST(DspeTheoryTest, BalancedLatencyEqualsWindowOverTransportRate) {
  // Balanced schemes park the whole credit window in the transport queue
  // (spouts emit instantly whenever they hold credits), so steady-state
  // latency is window / transport_rate plus the worker service time — the
  // framework-buffering floor that dominates SG's latency in Fig. 14.
  const ClusterRun run = TheoryRun(AlgorithmKind::kShuffleGrouping, 1.0);
  auto result = RunCluster(run);
  ASSERT_TRUE(result.ok());
  const double window = static_cast<double>(run.num_sources) *
                        run.options.max_pending_per_spout;
  const double rate = run.options.transport_rate_per_s;
  const double service_ms = run.options.bolt_service_ms;
  const double predicted_ms = window / rate * 1e3 + service_ms;
  EXPECT_GE(result->latency_p50_ms, 1000.0 / rate + service_ms);
  EXPECT_NEAR(result->latency_p50_ms, predicted_ms, 0.15 * predicted_ms);
}

}  // namespace
}  // namespace slb
