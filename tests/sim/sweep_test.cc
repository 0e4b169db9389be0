#include "slb/sim/sweep.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "slb/sim/report.h"
#include "slb/workload/datasets.h"
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

// A grid crossing every axis: catalog + dataset scenarios, two algorithms,
// two deployment sizes, a partitioner-option variant, multiple runs.
SweepGrid MakeTestGrid() {
  SweepGrid grid;
  grid.scenarios = {ScenarioFromCatalog("flash-crowd", SmallOptions()),
                    ScenarioFromCatalog("hot-set-churn", SmallOptions()),
                    ScenarioFromDataset(MakeZipfSpec(1.2, 500, 20000))};
  grid.algorithms = {AlgorithmKind::kPkg, AlgorithmKind::kDChoices};
  grid.worker_counts = {4, 8};
  SweepVariant tight;
  tight.label = "theta*n=0.1";
  tight.options.theta_ratio = 0.1;
  grid.variants = {SweepVariant{}, tight};
  grid.num_samples = 10;
  grid.seed = 11;
  grid.runs = 2;
  return grid;
}

TEST(SweepGridTest, CellCountIsCartesianProduct) {
  const SweepGrid grid = MakeTestGrid();
  EXPECT_EQ(SweepCellCount(grid), 3u * 2u * 2u * 2u);
  SweepGrid no_variants = grid;
  no_variants.variants.clear();
  EXPECT_EQ(SweepCellCount(no_variants), 3u * 2u * 2u);
}

TEST(SweepGridTest, RowOrderIsGridOrder) {
  SweepGrid grid = MakeTestGrid();
  grid.scenarios.resize(1);
  grid.variants.clear();
  const SweepResultTable table = RunSweep(grid, 2);
  ASSERT_EQ(table.cells.size(), 4u);
  // workers is the outer axis, algorithm the inner one.
  EXPECT_EQ(table.cells[0].num_workers, 4u);
  EXPECT_EQ(table.cells[0].algorithm, AlgorithmKind::kPkg);
  EXPECT_EQ(table.cells[1].num_workers, 4u);
  EXPECT_EQ(table.cells[1].algorithm, AlgorithmKind::kDChoices);
  EXPECT_EQ(table.cells[2].num_workers, 8u);
  EXPECT_EQ(table.cells[3].num_workers, 8u);
  EXPECT_EQ(table.cells[0].scenario, "flash-crowd");
  EXPECT_EQ(table.cells[0].variant, "");
}

// The tentpole guarantee: the same grid produces a byte-identical result
// table no matter how many threads execute it. Rendered output is a pure
// function of the table, so byte-comparing renderings compares the tables.
TEST(SweepDeterminismTest, SerialAndParallelTablesAreByteIdentical) {
  const SweepGrid grid = MakeTestGrid();
  const SweepResultTable serial = RunSweep(grid, 1);
  const SweepResultTable parallel = RunSweep(grid, 8);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  EXPECT_EQ(SweepToTsv(serial), SweepToTsv(parallel));
  EXPECT_EQ(SweepSeriesToTsv(serial), SweepSeriesToTsv(parallel));
  // Belt and braces beyond the renderers: the full numeric payloads.
  for (size_t i = 0; i < serial.cells.size(); ++i) {
    const SweepCellResult& a = serial.cells[i];
    const SweepCellResult& b = parallel.cells[i];
    EXPECT_EQ(a.mean_final_imbalance, b.mean_final_imbalance) << "cell " << i;
    EXPECT_EQ(a.payload.sim.imbalance_series, b.payload.sim.imbalance_series)
        << "cell " << i;
    EXPECT_EQ(a.payload.sim.worker_loads, b.payload.sim.worker_loads) << "cell " << i;
  }
}

// Every cell must equal what a standalone RunPartitionSimulation call with
// the same configuration and seed produces — the engine adds orchestration,
// never different numbers.
TEST(SweepDeterminismTest, CellsMatchStandaloneSimulation) {
  SweepGrid grid = MakeTestGrid();
  grid.runs = 1;
  const SweepResultTable table = RunSweep(grid, 4);
  std::vector<SweepVariant> variants = grid.variants;
  for (size_t si = 0; si < grid.scenarios.size(); ++si) {
    for (const SweepVariant& variant : variants) {
      for (uint32_t workers : grid.worker_counts) {
        for (AlgorithmKind algorithm : grid.algorithms) {
          const SweepCellResult* cell = table.Find(
              grid.scenarios[si].label, variant.label, algorithm, workers);
          ASSERT_NE(cell, nullptr);
          ASSERT_TRUE(cell->status.ok()) << cell->status.ToString();

          auto gen = grid.scenarios[si].make(grid.seed);
          ASSERT_TRUE(gen.ok());
          PartitionSimConfig config;
          config.algorithm = algorithm;
          config.partitioner = variant.options;
          config.partitioner.num_workers = workers;
          config.partitioner.hash_seed = grid.seed;
          config.num_sources = grid.num_sources;
          config.num_samples = grid.num_samples;
          auto standalone = RunPartitionSimulation(config, gen->get());
          ASSERT_TRUE(standalone.ok());
          EXPECT_EQ(cell->mean_final_imbalance, standalone->final_imbalance);
          EXPECT_EQ(cell->payload.sim.final_imbalance, standalone->final_imbalance);
          EXPECT_EQ(cell->payload.sim.imbalance_series,
                    standalone->imbalance_series);
          EXPECT_EQ(cell->payload.sim.worker_loads, standalone->worker_loads);
        }
      }
    }
  }
}

TEST(SweepEdgeCaseTest, EmptyGridProducesEmptyTable) {
  const SweepGrid grid;  // all axes empty
  EXPECT_EQ(SweepCellCount(grid), 0u);
  const SweepResultTable table = RunSweep(grid);
  EXPECT_TRUE(table.cells.empty());
  EXPECT_EQ(table.num_errors(), 0u);
  // Renderers degrade to header-only output.
  const std::string tsv = SweepToTsv(table);
  EXPECT_EQ(tsv.find('\n'), tsv.size() - 1);
  EXPECT_EQ(SweepSeriesToTsv(table).find('\n'),
            SweepSeriesToTsv(table).size() - 1);
}

TEST(SweepEdgeCaseTest, SingleCellGrid) {
  SweepGrid grid;
  grid.scenarios = {ScenarioFromCatalog("zipf", SmallOptions())};
  grid.algorithms = {AlgorithmKind::kWChoices};
  grid.worker_counts = {6};
  grid.num_samples = 5;
  const SweepResultTable table = RunSweep(grid, 1);
  ASSERT_EQ(table.cells.size(), 1u);
  const SweepCellResult& cell = table.cells[0];
  EXPECT_TRUE(cell.status.ok());
  EXPECT_EQ(cell.scenario, "zipf");
  EXPECT_EQ(cell.num_workers, 6u);
  EXPECT_EQ(cell.payload.sim.total_messages, 20000u);
  EXPECT_EQ(cell.payload.sim.worker_loads.size(), 6u);
  EXPECT_GT(cell.mean_final_imbalance, 0.0);
}

// A failing cell reports its error in the table and must not poison its
// sibling cells. num_workers = 0 makes the partitioner factory reject the
// configuration; a bad scenario knob makes the generator factory reject it.
TEST(SweepEdgeCaseTest, ErrorCellsAreIsolated) {
  SweepGrid grid;
  grid.scenarios = {ScenarioFromCatalog("zipf", SmallOptions())};
  grid.algorithms = {AlgorithmKind::kPkg};
  grid.worker_counts = {0, 4};  // first cell invalid, second fine
  grid.num_samples = 5;
  const SweepResultTable table = RunSweep(grid, 2);
  ASSERT_EQ(table.cells.size(), 2u);
  EXPECT_EQ(table.num_errors(), 1u);

  const SweepCellResult& bad = table.cells[0];
  EXPECT_FALSE(bad.status.ok());
  EXPECT_TRUE(bad.status.IsInvalidArgument());
  EXPECT_EQ(bad.mean_final_imbalance, 0.0);
  EXPECT_TRUE(bad.payload.sim.imbalance_series.empty());

  const SweepCellResult& good = table.cells[1];
  EXPECT_TRUE(good.status.ok()) << good.status.ToString();
  EXPECT_EQ(good.payload.sim.total_messages, 20000u);

  // The error shows up in the failed cell's TSV row.
  const std::string tsv = SweepToTsv(table);
  const size_t bad_row = tsv.find('\n') + 1;
  const std::string row = tsv.substr(bad_row, tsv.find('\n', bad_row) - bad_row);
  EXPECT_EQ(row.rfind("zipf\t-\tPKG\t0\t", 0), 0u) << row;
  EXPECT_NE(row.find("\tInvalidArgument\t"), std::string::npos) << row;
  // Failed cells contribute no series rows.
  const std::string series = SweepSeriesToTsv(table);
  EXPECT_EQ(series.find("\t0\t"), std::string::npos);
}

TEST(SweepEdgeCaseTest, ScenarioConstructionFailureIsReported) {
  ScenarioOptions bad = SmallOptions();
  bad.burst_fraction = 7.0;
  SweepGrid grid;
  grid.scenarios = {ScenarioFromCatalog("flash-crowd", bad),
                    ScenarioFromCatalog("zipf", SmallOptions())};
  grid.algorithms = {AlgorithmKind::kPkg};
  grid.worker_counts = {4};
  grid.num_samples = 5;
  const SweepResultTable table = RunSweep(grid, 2);
  ASSERT_EQ(table.cells.size(), 2u);
  EXPECT_TRUE(table.cells[0].status.IsInvalidArgument());
  EXPECT_TRUE(table.cells[1].status.ok());
}

TEST(SweepScenarioTest, TraceScenarioReplaysVerbatim) {
  Trace trace;
  trace.num_keys = 10;
  for (uint64_t i = 0; i < 3000; ++i) trace.keys.push_back(i % 7);
  SweepScenario scenario = ScenarioFromTrace("fixture", std::move(trace));
  auto a = scenario.make(1);
  auto b = scenario.make(2);  // seed is irrelevant for replay
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ((*a)->num_messages(), 3000u);
  for (int i = 0; i < 3000; ++i) ASSERT_EQ((*a)->NextKey(), (*b)->NextKey());
}

TEST(SweepScenarioTest, DatasetScenarioUsesCellSeed) {
  SweepScenario scenario = ScenarioFromDataset(MakeZipfSpec(1.2, 500, 1000));
  auto a = scenario.make(3);
  auto b = scenario.make(3);
  auto c = scenario.make(4);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  int same_ab = 0;
  int same_ac = 0;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t ka = (*a)->NextKey();
    same_ab += ka == (*b)->NextKey();
    same_ac += ka == (*c)->NextKey();
  }
  EXPECT_EQ(same_ab, 1000);
  EXPECT_LT(same_ac, 800);
}

}  // namespace
}  // namespace slb
