// Tests for the heterogeneous-cost payload (see
// docs/ARCHITECTURE.md "Heterogeneous cost layer"): CostCounters
// rendering, thread-count byte-stability, agreement between the sweep
// engine and a standalone RunPartitionSimulation, the unit-model control
// identities, and the error Statuses for bad service configurations.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "slb/sim/partition_simulator.h"
#include "slb/sim/report.h"
#include "slb/sim/sweep.h"
#include "slb/workload/scenario.h"

namespace slb {
namespace {

ScenarioOptions SmallOptions() {
  ScenarioOptions opt;
  opt.num_keys = 500;
  opt.num_messages = 20000;
  opt.zipf_exponent = 1.2;
  return opt;
}

ServiceConfig ParetoService() {
  ServiceConfig service;
  service.cost_model = "pareto";
  service.rate = 0.5;
  return service;
}

SweepGrid CostGrid() {
  SweepGrid grid;
  grid.scenarios = {ScenarioFromCatalog("zipf", SmallOptions()),
                    ScenarioFromCatalog("flash-crowd", SmallOptions())};
  grid.algorithms = {AlgorithmKind::kPkg, AlgorithmKind::kDChoices};
  grid.worker_counts = {4, 8};
  grid.num_samples = 10;
  grid.seed = 7;
  SweepVariant count;
  count.label = "count";
  count.service = ParetoService();
  SweepVariant cost = count;
  cost.label = "cost";
  cost.options.balance_on = BalanceSignal::kCost;
  SweepVariant inflight = count;
  inflight.label = "inflight";
  inflight.options.balance_on = BalanceSignal::kInFlight;
  grid.variants = {count, cost, inflight};
  return grid;
}

// The tentpole guarantee extended to cost payloads: every emitter renders a
// cost-bearing grid (all three balance signals included) byte-identically
// at 1 vs 8 threads.
TEST(CostPayloadDeterminismTest, TablesAreThreadCountInvariant) {
  SweepGrid grid = CostGrid();
  grid.runs = 2;
  const SweepGrid copy = grid;
  const SweepResultTable serial = RunSweep(grid, 1);
  const SweepResultTable parallel = RunSweep(copy, 8);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  EXPECT_EQ(SweepToTsv(serial), SweepToTsv(parallel));
  EXPECT_EQ(SweepSeriesToTsv(serial), SweepSeriesToTsv(parallel));
  EXPECT_EQ(SweepWorkerLoadsToTsv(serial), SweepWorkerLoadsToTsv(parallel));
}

// The sweep engine adds nothing to the simulator: a cell's CostCounters are
// exactly the fields of a standalone RunPartitionSimulation with the same
// fully-resolved configuration.
TEST(CostPayloadTest, CellEqualsStandaloneSimulation) {
  SweepGrid grid = CostGrid();
  grid.scenarios = {ScenarioFromCatalog("zipf", SmallOptions())};
  grid.algorithms = {AlgorithmKind::kDChoices};
  grid.worker_counts = {8};
  grid.variants = {grid.variants[2]};  // the in-flight signal, worst case
  const SweepResultTable table = RunSweep(grid, 2);
  ASSERT_EQ(table.cells.size(), 1u);
  const SweepCellResult& cell = table.cells[0];
  ASSERT_TRUE(cell.status.ok()) << cell.status.ToString();
  ASSERT_TRUE(cell.payload.cost.has_value());

  PartitionSimConfig config;
  config.algorithm = AlgorithmKind::kDChoices;
  config.partitioner.num_workers = 8;
  config.partitioner.hash_seed = grid.seed;
  config.partitioner.balance_on = BalanceSignal::kInFlight;
  config.num_sources = grid.num_sources;
  config.num_samples = grid.num_samples;
  config.service = ParetoService();
  ScenarioOptions opt = SmallOptions();
  opt.seed = grid.seed;  // run 0 of the cell
  auto stream = MakeScenario("zipf", opt);
  ASSERT_TRUE(stream.ok());
  auto standalone = RunPartitionSimulation(config, stream->get());
  ASSERT_TRUE(standalone.ok()) << standalone.status().ToString();

  const CostCounters& counters = *cell.payload.cost;
  EXPECT_EQ(counters.cost_imbalance, standalone->cost_imbalance);
  EXPECT_EQ(counters.count_imbalance, standalone->final_imbalance);
  EXPECT_EQ(counters.misrank_rate, standalone->misrank_rate);
  EXPECT_EQ(counters.peak_outstanding, standalone->peak_outstanding);
  EXPECT_EQ(counters.total_cost, standalone->total_cost);
}

// Unit-model control identities: with every message at cost 1.0, the cost
// metric IS the count metric and the frequency threshold IS the cost
// threshold, so the mis-rank rate is exactly zero — not approximately.
TEST(CostPayloadTest, UnitModelIsTheExactControl) {
  PartitionSimConfig config;
  config.partitioner.num_workers = 8;
  config.service.cost_model = "unit";
  config.service.rate = 1.0;
  auto stream = MakeScenario("zipf", SmallOptions());
  ASSERT_TRUE(stream.ok());
  auto result = RunPartitionSimulation(config, stream->get());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->misrank_rate, 0.0);
  EXPECT_DOUBLE_EQ(result->cost_imbalance, result->final_imbalance);
  EXPECT_DOUBLE_EQ(result->total_cost,
                   static_cast<double>(result->total_messages));
}

// Cost-aware signals route differently from the count signal — the knob is
// live, not decorative — while a disabled service leaves results identical
// to the pre-cost-layer behaviour.
TEST(CostPayloadTest, BalanceSignalChangesRouting) {
  auto run = [](BalanceSignal signal) {
    PartitionSimConfig config;
    config.algorithm = AlgorithmKind::kPkg;
    config.partitioner.num_workers = 8;
    config.partitioner.balance_on = signal;
    config.service.cost_model = "anti-correlated";
    config.service.rate = 0.5;
    auto stream = MakeScenario("zipf", SmallOptions());
    EXPECT_TRUE(stream.ok());
    auto result = RunPartitionSimulation(config, stream->get());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result->cost_imbalance;
  };
  const double on_count = run(BalanceSignal::kCount);
  const double on_cost = run(BalanceSignal::kCost);
  EXPECT_NE(on_count, on_cost);
  EXPECT_LT(on_cost, on_count)
      << "balancing on cost must improve the cost imbalance";
}

TEST(CostPayloadTest, ColumnsAppearWithValues) {
  SweepGrid grid = CostGrid();
  grid.scenarios = {ScenarioFromCatalog("zipf", SmallOptions())};
  grid.algorithms = {AlgorithmKind::kDChoices};
  grid.worker_counts = {4};
  const SweepResultTable table = RunSweep(grid, 2);
  for (const SweepCellResult& cell : table.cells) {
    ASSERT_TRUE(cell.status.ok()) << cell.status.ToString();
    ASSERT_TRUE(cell.payload.cost.has_value());
    EXPECT_GT(cell.payload.cost->total_cost, 0.0);
    EXPECT_GT(cell.payload.cost->peak_outstanding, 0.0);
  }

  const std::string tsv = SweepToTsv(table);
  for (const char* column :
       {"cost_imbalance", "count_imbalance", "misrank_rate",
        "peak_outstanding", "total_cost"}) {
    EXPECT_NE(tsv.find(column), std::string::npos) << column;
  }
}

// Grids without a service model have no cost component and no cost columns.
TEST(CostPayloadTest, CostFreeGridsStayClean) {
  SweepGrid grid = CostGrid();
  grid.variants.resize(1);  // only the count variant is valid without costs
  grid.variants[0].service = ServiceConfig{};
  const SweepResultTable table = RunSweep(grid, 1);
  for (const SweepCellResult& cell : table.cells) {
    ASSERT_TRUE(cell.status.ok()) << cell.status.ToString();
    EXPECT_FALSE(cell.payload.cost.has_value());
  }
  const std::string header = SweepToTsv(table);
  EXPECT_EQ(header.substr(0, header.find('\n')).find("cost_imbalance"),
            std::string::npos);
}

// SweepVariant::service sets the service model per cell, making the cost
// model itself a sweep axis (bench_cost_routing's layout).
TEST(CostPayloadTest, VariantServiceOverridesGrid) {
  SweepGrid grid = CostGrid();
  grid.scenarios = {ScenarioFromCatalog("zipf", SmallOptions())};
  grid.algorithms = {AlgorithmKind::kPkg};
  grid.worker_counts = {4};
  SweepVariant unit;
  unit.label = "unit";
  unit.service.cost_model = "unit";
  unit.service.rate = 1.0;
  grid.variants = {grid.variants[0], unit};
  const SweepResultTable table = RunSweep(grid, 1);
  ASSERT_EQ(table.cells.size(), 2u);
  ASSERT_TRUE(table.cells[0].payload.cost.has_value());
  ASSERT_TRUE(table.cells[1].payload.cost.has_value());
  // The pareto variant prices messages heterogeneously; the unit variant
  // does not — total cost equals the message count exactly.
  EXPECT_NE(table.cells[0].payload.cost->total_cost, 20000.0);
  EXPECT_DOUBLE_EQ(table.cells[1].payload.cost->total_cost, 20000.0);
}

// --- error Statuses --------------------------------------------------------

TEST(CostPayloadErrorTest, NonPositiveServiceRateFailsTheCell) {
  PartitionSimConfig config;
  config.partitioner.num_workers = 4;
  config.service.cost_model = "unit";
  config.service.rate = 0.0;
  auto stream = MakeScenario("zipf", SmallOptions());
  ASSERT_TRUE(stream.ok());
  auto result = RunPartitionSimulation(config, stream->get());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  config.service.rate = std::nan("");  // !(x > 0) rejects NaN too
  EXPECT_FALSE(RunPartitionSimulation(config, stream->get()).ok());
}

TEST(CostPayloadErrorTest, BadCostModelKnobsFailTheCell) {
  PartitionSimConfig config;
  config.partitioner.num_workers = 4;
  config.service.cost_model = "pareto";
  config.service.options.pareto_tail_index = -1.0;
  auto stream = MakeScenario("zipf", SmallOptions());
  ASSERT_TRUE(stream.ok());
  EXPECT_TRUE(
      RunPartitionSimulation(config, stream->get()).status().IsInvalidArgument());

  config.service.cost_model = "correlated";
  config.service.options = CostModelOptions{};
  config.service.options.cost_correlation = 1.5;
  EXPECT_TRUE(
      RunPartitionSimulation(config, stream->get()).status().IsInvalidArgument());

  config.service.cost_model = "no-such-model";
  config.service.options = CostModelOptions{};
  EXPECT_TRUE(
      RunPartitionSimulation(config, stream->get()).status().IsInvalidArgument());
}

TEST(CostPayloadErrorTest, CostSignalWithoutServiceFailsTheCell) {
  PartitionSimConfig config;
  config.partitioner.num_workers = 4;
  config.partitioner.balance_on = BalanceSignal::kCost;
  auto stream = MakeScenario("zipf", SmallOptions());
  ASSERT_TRUE(stream.ok());
  auto result = RunPartitionSimulation(config, stream->get());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(CostPayloadErrorTest, FactoryRejectsSignalWithoutModel) {
  PartitionerOptions options;
  options.num_workers = 4;
  options.balance_on = BalanceSignal::kInFlight;
  auto partitioner = CreatePartitioner(AlgorithmKind::kPkg, options);
  ASSERT_FALSE(partitioner.ok());
  EXPECT_TRUE(partitioner.status().IsInvalidArgument());
}

// Failed cost cells stay isolated: siblings keep their payloads and every
// emitter still renders the full cost column set.
TEST(CostPayloadErrorTest, ErrorCellsStayIsolated) {
  SweepGrid grid = CostGrid();
  grid.scenarios = {ScenarioFromCatalog("zipf", SmallOptions())};
  grid.algorithms = {AlgorithmKind::kPkg};
  grid.worker_counts = {4};
  SweepVariant bad;
  bad.label = "bad-rate";
  bad.service.cost_model = "unit";
  bad.service.rate = -1.0;
  grid.variants.push_back(bad);
  const SweepResultTable table = RunSweep(grid, 2);
  ASSERT_EQ(table.cells.size(), 4u);
  EXPECT_EQ(table.num_errors(), 1u);
  const SweepCellResult* failed = table.Find("zipf", "bad-rate",
                                             AlgorithmKind::kPkg, 4);
  ASSERT_NE(failed, nullptr);
  EXPECT_FALSE(failed->status.ok());
  EXPECT_FALSE(failed->payload.cost.has_value());
  const std::string tsv = SweepToTsv(table);
  EXPECT_NE(tsv.find("cost_imbalance"), std::string::npos);
  EXPECT_NE(tsv.find("InvalidArgument"), std::string::npos);
}

}  // namespace
}  // namespace slb
