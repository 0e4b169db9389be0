#include "slb/sim/sweep.h"

#include <memory>
#include <utility>

#include "slb/common/logging.h"
#include "slb/common/parallel.h"

namespace slb {

SweepScenario ScenarioFromDataset(const DatasetSpec& spec) {
  SweepScenario scenario;
  scenario.label = spec.name;
  scenario.param = spec.zipf_exponent;
  scenario.make = [spec](uint64_t seed) -> Result<std::unique_ptr<StreamGenerator>> {
    DatasetSpec seeded = spec;
    seeded.seed = seed;
    return {std::unique_ptr<StreamGenerator>(MakeGenerator(seeded))};
  };
  return scenario;
}

SweepScenario ScenarioFromCatalog(const std::string& name,
                                  const ScenarioOptions& options,
                                  std::string label) {
  SweepScenario scenario;
  scenario.label = label.empty() ? name : std::move(label);
  scenario.param = options.zipf_exponent;
  scenario.make = [name, options](uint64_t seed) {
    ScenarioOptions seeded = options;
    seeded.seed = seed;
    return MakeScenario(name, seeded);
  };
  return scenario;
}

namespace {

// Replays a trace shared read-only across concurrent cells — only the
// cursor is per-cell, so arbitrarily many cells replay one trace buffer.
class SharedTraceStreamGenerator final : public StreamGenerator {
 public:
  SharedTraceStreamGenerator(std::string name,
                             std::shared_ptr<const Trace> trace)
      : name_(std::move(name)), trace_(std::move(trace)) {}

  uint64_t NextKey() override {
    SLB_CHECK(position_ < trace_->keys.size())
        << "stream exhausted; call Reset()";
    return trace_->keys[position_++];
  }
  void Reset() override { position_ = 0; }
  uint64_t num_messages() const override { return trace_->keys.size(); }
  uint64_t num_keys() const override { return trace_->num_keys; }
  std::string name() const override { return name_; }

 private:
  std::string name_;
  std::shared_ptr<const Trace> trace_;
  size_t position_ = 0;
};

}  // namespace

SweepScenario ScenarioFromTrace(std::string label, Trace trace) {
  SweepScenario scenario;
  scenario.label = std::move(label);
  auto shared = std::make_shared<const Trace>(std::move(trace));
  const std::string name = scenario.label;
  scenario.make =
      [shared, name](uint64_t /*seed*/) -> Result<std::unique_ptr<StreamGenerator>> {
    return {std::make_unique<SharedTraceStreamGenerator>(name, shared)};
  };
  return scenario;
}

LatencySnapshot LatencySnapshot::FromHistogram(const Histogram& histogram) {
  LatencySnapshot snapshot;
  snapshot.count = histogram.count();
  snapshot.avg_ms = histogram.mean();
  snapshot.p50_ms = histogram.p50();
  snapshot.p95_ms = histogram.p95();
  snapshot.p99_ms = histogram.p99();
  snapshot.max_ms = histogram.max();
  return snapshot;
}

void CellPayload::AddMetric(std::string name, double value) {
  metrics.push_back(PayloadMetric{std::move(name), value, /*integral=*/false});
}

void CellPayload::AddCount(std::string name, uint64_t value) {
  metrics.push_back(PayloadMetric{std::move(name),
                                  static_cast<double>(value),
                                  /*integral=*/true});
}

const PayloadMetric* FindMetric(const std::vector<PayloadMetric>& metrics,
                                const std::string& name) {
  for (const PayloadMetric& metric : metrics) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

const PayloadMetric* CellPayload::FindMetric(const std::string& name) const {
  return slb::FindMetric(metrics, name);
}

PartitionSimConfig SweepCellContext::MakeSimConfig() const {
  PartitionSimConfig config;
  config.algorithm = algorithm;
  config.partitioner = variant->options;
  config.partitioner.num_workers = num_workers;
  config.partitioner.hash_seed = grid->seed;
  config.num_sources =
      variant->num_sources > 0 ? variant->num_sources : grid->num_sources;
  config.num_samples =
      scenario->num_samples > 0 ? scenario->num_samples : grid->num_samples;
  config.track_memory = grid->track_memory;
  config.oracle_head_size = grid->oracle_head_size;
  config.rescale = variant->rescale;
  config.service = variant->service;
  return config;
}

Result<std::unique_ptr<StreamGenerator>> SweepCellContext::MakeStream() const {
  return scenario->make(run_seed);
}

Result<CellPayload> SweepCellContext::RunDefault() const {
  auto gen = MakeStream();
  if (!gen.ok()) return gen.status();
  const PartitionSimConfig config = MakeSimConfig();
  auto result = RunPartitionSimulation(config, gen->get());
  if (!result.ok()) return result.status();
  CellPayload payload;
  payload.sim = std::move(result.value());
  if (!config.rescale.empty()) {
    MigrationCounters counters;
    counters.final_num_workers = payload.sim.final_num_workers;
    counters.rescale_events = payload.sim.rescale_events;
    counters.keys_migrated = payload.sim.keys_migrated;
    counters.state_bytes_migrated = payload.sim.state_bytes_migrated;
    counters.stalled_messages = payload.sim.stalled_messages;
    counters.moved_key_fraction = payload.sim.moved_key_fraction;
    payload.migration = counters;
  }
  if (config.service.enabled()) {
    CostCounters counters;
    counters.cost_imbalance = payload.sim.cost_imbalance;
    counters.count_imbalance = payload.sim.final_imbalance;
    counters.misrank_rate = payload.sim.misrank_rate;
    counters.peak_outstanding = payload.sim.peak_outstanding;
    counters.total_cost = payload.sim.total_cost;
    payload.cost = counters;
  }
  return payload;
}

size_t SweepResultTable::num_errors() const {
  size_t errors = 0;
  for (const SweepCellResult& cell : cells) {
    if (!cell.status.ok()) ++errors;
  }
  return errors;
}

const SweepCellResult* SweepResultTable::Find(const std::string& scenario,
                                              const std::string& variant,
                                              AlgorithmKind algorithm,
                                              uint32_t num_workers) const {
  for (const SweepCellResult& cell : cells) {
    if (cell.scenario == scenario && cell.variant == variant &&
        cell.algorithm == algorithm && cell.num_workers == num_workers) {
      return &cell;
    }
  }
  return nullptr;
}

size_t SweepCellCount(const SweepGrid& grid) {
  const size_t variants = grid.variants.empty() ? 1 : grid.variants.size();
  return grid.scenarios.size() * variants * grid.worker_counts.size() *
         grid.algorithms.size();
}

namespace {

// Records a cell failure, zeroing any metrics accumulated by earlier runs.
void FailCell(SweepCellResult* cell, Status status) {
  cell->status = std::move(status);
  cell->mean_final_imbalance = 0.0;
  cell->mean_avg_imbalance = 0.0;
  cell->mean_max_imbalance = 0.0;
  cell->payload = CellPayload{};
}

// Runs one fully-expanded cell: `runs` independent experiments averaged,
// with the last run's full payload retained. Self-contained — reads nothing
// mutable outside the cell, so cells can execute in any order. `runs` is
// the caller's clamped count (grid.runs may be 0).
void RunCell(const SweepGrid& grid, uint32_t runs,
             const SweepScenario& scenario, const SweepVariant& variant,
             SweepCellResult* cell) {
  for (uint32_t r = 0; r < runs; ++r) {
    SweepCellContext context;
    context.grid = &grid;
    context.scenario = &scenario;
    context.variant = &variant;
    context.algorithm = cell->algorithm;
    context.num_workers = cell->num_workers;
    context.run_seed = grid.seed + r;
    context.run = r;

    auto payload = grid.runner ? grid.runner(context) : context.RunDefault();
    if (!payload.ok()) {
      FailCell(cell, payload.status());
      return;
    }
    cell->mean_final_imbalance += payload->sim.final_imbalance;
    cell->mean_avg_imbalance += payload->sim.avg_imbalance;
    cell->mean_max_imbalance += payload->sim.max_imbalance;
    if (r == runs - 1) cell->payload = std::move(payload.value());
  }
  cell->mean_final_imbalance /= runs;
  cell->mean_avg_imbalance /= runs;
  cell->mean_max_imbalance /= runs;
}

}  // namespace

SweepResultTable RunSweep(const SweepGrid& grid, size_t num_threads) {
  std::vector<SweepVariant> variants = grid.variants;
  if (variants.empty()) variants.push_back(SweepVariant{});

  // Expand the grid into cells up front; the row order is fixed here and the
  // parallel phase only ever writes to its own row.
  const size_t cell_count = SweepCellCount(grid);
  SweepResultTable table;
  table.cells.reserve(cell_count);
  struct CellInput {
    const SweepScenario* scenario;
    const SweepVariant* variant;
  };
  std::vector<CellInput> inputs;
  inputs.reserve(cell_count);
  const uint32_t runs = grid.runs < 1 ? 1 : grid.runs;
  for (const SweepScenario& scenario : grid.scenarios) {
    for (const SweepVariant& variant : variants) {
      for (uint32_t workers : grid.worker_counts) {
        for (AlgorithmKind algorithm : grid.algorithms) {
          SweepCellResult cell;
          cell.scenario = scenario.label;
          cell.variant = variant.label;
          cell.algorithm = algorithm;
          cell.num_workers = workers;
          cell.seed = grid.seed;
          cell.runs = runs;
          table.cells.push_back(std::move(cell));
          inputs.push_back(CellInput{&scenario, &variant});
        }
      }
    }
  }

  ParallelFor(
      table.cells.size(),
      [&](size_t i) {
        RunCell(grid, runs, *inputs[i].scenario, *inputs[i].variant,
                &table.cells[i]);
      },
      num_threads);
  return table;
}

}  // namespace slb
