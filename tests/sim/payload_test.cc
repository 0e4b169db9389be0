// Tests for the typed per-cell payload slot: custom cell runners, payload
// component rendering (memory tables, latency snapshots, throughput
// counters, named metrics), and the tentpole guarantee that payload-bearing
// grids stay byte-stable and thread-count-invariant.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "slb/common/histogram.h"
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

// A runner exercising every payload component: the default simulation plus
// a memory table, a latency histogram snapshot, throughput counters, and
// named metrics — all pure functions of the cell context.
Result<CellPayload> FullPayloadRunner(const SweepCellContext& ctx) {
  auto payload = ctx.RunDefault();
  if (!payload.ok()) return payload;

  MemoryModelTable memory;
  memory.baseline = "pkg";
  memory.baseline_entries = 1000;
  memory.estimated_entries = 1100 + ctx.num_workers;
  memory.measured_entries = payload->sim.memory_entries;
  memory.estimated_overhead_pct = 10.0 + ctx.num_workers;
  memory.measured_overhead_pct = 5.0;
  payload->memory = memory;

  // A deterministic histogram derived from the cell's imbalance series.
  Histogram histogram(/*reservoir_capacity=*/0, /*seed=*/1);
  for (double v : payload->sim.imbalance_series) histogram.Add(1000.0 * v);
  payload->latency = LatencySnapshot::FromHistogram(histogram);

  ThroughputCounters throughput;
  throughput.throughput_per_s = 500.0 * ctx.num_workers;
  throughput.makespan_s = 2.0;
  throughput.completed = payload->sim.total_messages;
  payload->throughput = throughput;

  payload->AddCount("routed", payload->sim.total_messages);
  payload->AddMetric("head_share",
                     static_cast<double>(payload->sim.head_messages) /
                         static_cast<double>(payload->sim.total_messages));
  return payload;
}

SweepGrid PayloadGrid() {
  SweepGrid grid;
  grid.scenarios = {ScenarioFromCatalog("flash-crowd", SmallOptions()),
                    ScenarioFromCatalog("zipf", SmallOptions())};
  grid.algorithms = {AlgorithmKind::kPkg, AlgorithmKind::kDChoices};
  grid.worker_counts = {4, 8};
  grid.num_samples = 10;
  grid.seed = 7;
  grid.runs = 2;
  grid.track_memory = true;
  grid.runner = FullPayloadRunner;
  return grid;
}

// The tentpole guarantee extended to payloads: a grid whose runner emits
// memory + histogram(+ throughput + metric) payloads renders byte-identically
// at 1 vs 8 threads in every emitter.
TEST(PayloadDeterminismTest, PayloadTablesAreThreadCountInvariant) {
  const SweepGrid grid = PayloadGrid();
  const SweepResultTable serial = RunSweep(grid, 1);
  const SweepResultTable parallel = RunSweep(grid, 8);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  EXPECT_EQ(SweepToTsv(serial), SweepToTsv(parallel));
  EXPECT_EQ(SweepSeriesToTsv(serial), SweepSeriesToTsv(parallel));
  EXPECT_EQ(SweepWorkerLoadsToTsv(serial), SweepWorkerLoadsToTsv(parallel));
}

TEST(PayloadRenderTest, ComponentColumnsAppearWithValues) {
  SweepGrid grid = PayloadGrid();
  grid.scenarios.resize(1);
  grid.worker_counts = {4};
  grid.algorithms = {AlgorithmKind::kDChoices};
  grid.runs = 1;
  const SweepResultTable table = RunSweep(grid, 2);
  ASSERT_EQ(table.cells.size(), 1u);
  const SweepCellResult& cell = table.cells[0];
  ASSERT_TRUE(cell.status.ok()) << cell.status.ToString();
  ASSERT_TRUE(cell.payload.memory.has_value());
  ASSERT_TRUE(cell.payload.latency.has_value());
  ASSERT_TRUE(cell.payload.throughput.has_value());
  EXPECT_EQ(cell.payload.FindMetric("routed")->value, 20000.0);
  EXPECT_TRUE(cell.payload.FindMetric("routed")->integral);

  const std::string tsv = SweepToTsv(table);
  EXPECT_NE(tsv.find("mem_baseline"), std::string::npos);
  EXPECT_NE(tsv.find("mem_est_overhead_pct"), std::string::npos);
  EXPECT_NE(tsv.find("lat_p99_ms"), std::string::npos);
  EXPECT_NE(tsv.find("throughput_per_s"), std::string::npos);
  EXPECT_NE(tsv.find("routed"), std::string::npos);
  EXPECT_NE(tsv.find("\tpkg\t"), std::string::npos);
  EXPECT_NE(tsv.find("\t20000"), std::string::npos);  // integral, no exponent
}

// Tables whose cells carry no payload extras keep exactly the fixed columns
// — migrating a bench onto payloads never perturbs an unrelated table.
TEST(PayloadRenderTest, NoComponentsMeansNoExtraColumns) {
  SweepGrid grid = PayloadGrid();
  grid.runner = {};  // default runner: plain simulation payload
  grid.scenarios.resize(1);
  const SweepResultTable table = RunSweep(grid, 2);
  const std::string tsv = SweepToTsv(table);
  const std::string header = tsv.substr(0, tsv.find('\n'));
  EXPECT_EQ(header.find("mem_"), std::string::npos);
  EXPECT_EQ(header.find("lat_"), std::string::npos);
  EXPECT_EQ(header.find("throughput"), std::string::npos);
  EXPECT_NE(header.find("total_messages"), std::string::npos);
}

// An error cell among payload-bearing siblings: the failure is isolated,
// its payload is zeroed, and every emitter still renders the full column
// set (zeros / "-" for the failed row) without perturbing sibling rows.
TEST(PayloadErrorTest, ErrorCellsWithPayloadsStayIsolated) {
  SweepGrid grid = PayloadGrid();
  grid.runs = 1;
  grid.runner = [](const SweepCellContext& ctx) -> Result<CellPayload> {
    if (ctx.algorithm == AlgorithmKind::kPkg && ctx.num_workers == 8) {
      return Status::Internal("injected cell failure");
    }
    return FullPayloadRunner(ctx);
  };
  const SweepResultTable table = RunSweep(grid, 4);
  ASSERT_EQ(table.cells.size(), 8u);
  EXPECT_EQ(table.num_errors(), 2u);  // one per scenario

  for (const SweepCellResult& cell : table.cells) {
    if (cell.algorithm == AlgorithmKind::kPkg && cell.num_workers == 8) {
      EXPECT_FALSE(cell.status.ok());
      EXPECT_FALSE(cell.payload.memory.has_value());
      EXPECT_TRUE(cell.payload.metrics.empty());
      EXPECT_TRUE(cell.payload.sim.imbalance_series.empty());
    } else {
      EXPECT_TRUE(cell.status.ok()) << cell.status.ToString();
      EXPECT_TRUE(cell.payload.memory.has_value());
    }
  }

  // Every row of the TSV has the same field count despite the mixed
  // payloads, and the failed rows carry the baseline placeholder.
  const std::string tsv = SweepToTsv(table);
  size_t line_start = 0;
  int fields_expected = -1;
  while (line_start < tsv.size()) {
    size_t line_end = tsv.find('\n', line_start);
    const std::string line = tsv.substr(line_start, line_end - line_start);
    const int fields =
        1 + static_cast<int>(std::count(line.begin(), line.end(), '\t'));
    if (fields_expected < 0) fields_expected = fields;
    EXPECT_EQ(fields, fields_expected) << line;
    line_start = line_end + 1;
  }
  EXPECT_NE(tsv.find("Internal"), std::string::npos);
}

// Cells may disagree on which metrics they attach; the header is the union
// in first-seen cell order and absences render as zero.
TEST(PayloadRenderTest, MetricUnionIsFirstSeenOrderWithZeroFill) {
  SweepGrid grid;
  grid.scenarios = {ScenarioFromCatalog("zipf", SmallOptions())};
  grid.algorithms = {AlgorithmKind::kPkg, AlgorithmKind::kDChoices};
  grid.worker_counts = {4};
  grid.num_samples = 5;
  grid.runner = [](const SweepCellContext& ctx) -> Result<CellPayload> {
    CellPayload payload;
    if (ctx.algorithm == AlgorithmKind::kPkg) {
      payload.AddCount("alpha", 1);
    } else {
      payload.AddCount("beta", 2);
    }
    return payload;
  };
  const SweepResultTable table = RunSweep(grid, 1);
  const std::string tsv = SweepToTsv(table);
  const std::string header = tsv.substr(0, tsv.find('\n'));
  const size_t alpha = header.find("alpha");
  const size_t beta = header.find("beta");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(beta, std::string::npos);
  EXPECT_LT(alpha, beta);  // PKG row comes first in grid order
  // Row 1 (PKG): alpha=1, beta=0. Row 2 (D-C): alpha=0, beta=2.
  EXPECT_NE(tsv.find("\t1\t0\n"), std::string::npos);
  EXPECT_NE(tsv.find("\t0\t2\n"), std::string::npos);
}

TEST(PayloadTest, RunDefaultMatchesEngineDefault) {
  SweepGrid plain = PayloadGrid();
  plain.runner = {};
  SweepGrid wrapped = PayloadGrid();
  wrapped.runner = [](const SweepCellContext& ctx) { return ctx.RunDefault(); };
  EXPECT_EQ(SweepToTsv(RunSweep(plain, 4)), SweepToTsv(RunSweep(wrapped, 4)));
}

TEST(PayloadTest, LatencySnapshotMatchesHistogram) {
  Histogram histogram(0, 1);
  for (int i = 1; i <= 1000; ++i) histogram.Add(static_cast<double>(i));
  const LatencySnapshot snapshot = LatencySnapshot::FromHistogram(histogram);
  EXPECT_EQ(snapshot.count, 1000);
  EXPECT_DOUBLE_EQ(snapshot.avg_ms, histogram.mean());
  EXPECT_DOUBLE_EQ(snapshot.p50_ms, histogram.p50());
  EXPECT_DOUBLE_EQ(snapshot.p95_ms, histogram.p95());
  EXPECT_DOUBLE_EQ(snapshot.p99_ms, histogram.p99());
  EXPECT_DOUBLE_EQ(snapshot.max_ms, 1000.0);
}

// SweepVariant::num_sources overrides the grid's source count per cell —
// the sender-local-state ablation axis.
TEST(PayloadTest, VariantSourceCountOverride) {
  SweepGrid grid;
  grid.scenarios = {ScenarioFromCatalog("zipf", SmallOptions())};
  grid.algorithms = {AlgorithmKind::kDChoices};
  grid.worker_counts = {4};
  grid.num_samples = 5;
  grid.num_sources = 5;
  SweepVariant one;
  one.label = "s=1";
  one.num_sources = 1;
  SweepVariant def;
  def.label = "s=grid";
  grid.variants = {one, def};
  grid.runner = [](const SweepCellContext& ctx) -> Result<CellPayload> {
    CellPayload payload;
    payload.AddCount("sources", ctx.MakeSimConfig().num_sources);
    return payload;
  };
  const SweepResultTable table = RunSweep(grid, 1);
  ASSERT_EQ(table.cells.size(), 2u);
  EXPECT_EQ(table.cells[0].payload.FindMetric("sources")->value, 1.0);
  EXPECT_EQ(table.cells[1].payload.FindMetric("sources")->value, 5.0);
}

SweepGrid RescaleGrid() {
  SweepGrid grid;
  grid.scenarios = {ScenarioFromCatalog("zipf", SmallOptions())};
  grid.algorithms = {AlgorithmKind::kPkg, AlgorithmKind::kConsistentHash};
  grid.worker_counts = {8};
  grid.num_samples = 10;
  grid.seed = 7;
  grid.variants = {SweepVariant{}};
  grid.variants[0].rescale.events = {{0.5, 12}};
  return grid;
}

// The migration payload: elastic cells carry the MigrationCounters component
// and the TSV renders its columns.
TEST(MigrationPayloadTest, ColumnsAppearWithValues) {
  const SweepResultTable table = RunSweep(RescaleGrid(), 2);
  ASSERT_EQ(table.cells.size(), 2u);
  for (const SweepCellResult& cell : table.cells) {
    ASSERT_TRUE(cell.status.ok()) << cell.status.ToString();
    ASSERT_TRUE(cell.payload.migration.has_value());
    EXPECT_EQ(cell.payload.migration->final_num_workers, 12u);
    EXPECT_EQ(cell.payload.migration->rescale_events, 1u);
    EXPECT_GT(cell.payload.migration->keys_migrated, 0u);
  }

  const std::string tsv = SweepToTsv(table);
  for (const char* column :
       {"final_workers", "rescale_events", "keys_migrated",
        "state_bytes_migrated", "stalled_messages", "moved_key_fraction"}) {
    EXPECT_NE(tsv.find(column), std::string::npos) << column;
  }
}

// The tentpole guarantee extended to elastic runs: migration columns are
// byte-stable and thread-count-invariant (the tracker's sorted eager handoff
// plus the deterministic stream make this exact, not approximate).
TEST(MigrationPayloadTest, TablesAreThreadCountInvariant) {
  SweepGrid grid = RescaleGrid();
  grid.variants[0].rescale.events = {{0.4, 12}, {0.8, 6}};  // out AND eager in
  grid.runs = 2;
  const SweepGrid copy = grid;
  const SweepResultTable serial = RunSweep(grid, 1);
  const SweepResultTable parallel = RunSweep(copy, 8);
  EXPECT_EQ(SweepToTsv(serial), SweepToTsv(parallel));
  EXPECT_EQ(SweepSeriesToTsv(serial), SweepSeriesToTsv(parallel));
}

// SweepVariant::rescale sets the schedule per cell, making the schedule a
// sweep axis.
TEST(MigrationPayloadTest, VariantScheduleOverridesGrid) {
  SweepGrid grid = RescaleGrid();
  grid.algorithms = {AlgorithmKind::kConsistentHash};
  SweepVariant out;
  out.label = "out-to-16";
  out.rescale.events = {{0.5, 16}};
  grid.variants.push_back(out);
  const SweepResultTable table = RunSweep(grid, 1);
  ASSERT_EQ(table.cells.size(), 2u);
  ASSERT_TRUE(table.cells[0].payload.migration.has_value());
  EXPECT_EQ(table.cells[0].payload.migration->final_num_workers, 12u);
  ASSERT_TRUE(table.cells[1].payload.migration.has_value());
  EXPECT_EQ(table.cells[1].payload.migration->final_num_workers, 16u);
}

// Static cells have no migration component and no migration columns.
TEST(MigrationPayloadTest, StaticGridsStayClean) {
  SweepGrid grid = RescaleGrid();
  grid.variants.clear();
  const SweepResultTable table = RunSweep(grid, 1);
  for (const SweepCellResult& cell : table.cells) {
    EXPECT_FALSE(cell.payload.migration.has_value());
  }
  const std::string header = SweepToTsv(table);
  EXPECT_EQ(header.substr(0, header.find('\n')).find("keys_migrated"),
            std::string::npos);
}

// The worker-loads emitter: one row per (cell, worker), head + tail == total,
// failed cells contribute nothing.
TEST(PayloadTest, WorkerLoadsEmitter) {
  SweepGrid grid;
  grid.scenarios = {ScenarioFromCatalog("zipf", SmallOptions())};
  grid.algorithms = {AlgorithmKind::kWChoices};
  grid.worker_counts = {0, 4};  // first cell fails in the factory
  grid.num_samples = 5;
  const SweepResultTable table = RunSweep(grid, 1);
  ASSERT_EQ(table.cells.size(), 2u);
  EXPECT_EQ(table.num_errors(), 1u);
  const std::string loads = SweepWorkerLoadsToTsv(table);
  // Header plus exactly 4 rows (the failed 0-worker cell adds none).
  EXPECT_EQ(static_cast<int>(std::count(loads.begin(), loads.end(), '\n')), 5);
  EXPECT_NE(loads.find("head_pct"), std::string::npos);
}

}  // namespace
}  // namespace slb
