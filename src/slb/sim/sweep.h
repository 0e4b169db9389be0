// Parallel scenario-sweep engine.
//
// The paper's evaluation is one cartesian sweep: (algorithm x partitioner
// variant x stream scenario x worker count), each cell an independent
// experiment. This engine expands a SweepGrid into fully-seeded cells, fans
// them out over ParallelFor, and collects results into a table whose row
// order depends only on the grid — never on thread scheduling — so a
// multi-threaded sweep is byte-identical to a serial one (locked down by
// tests/sim/sweep_test.cc and tests/sim/payload_test.cc).
//
// What a cell *computes* is pluggable: by default it is one
// RunPartitionSimulation call, but a grid may install a custom
// SweepCellRunner returning a typed CellPayload — the partition-simulation
// result plus optional memory-model tables, latency histogram snapshots,
// throughput counters, and free-form named metrics. slb/sim/report.h
// renders whichever payload columns a grid produces. Every bench driver and
// experiment tool sweeps through here instead of rolling its own loop.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "slb/common/histogram.h"
#include "slb/common/status.h"
#include "slb/sim/partition_simulator.h"
#include "slb/workload/datasets.h"
#include "slb/workload/scenario.h"
#include "slb/workload/trace.h"

namespace slb {

/// One value of the stream-scenario axis: a label plus a factory that builds
/// a fresh generator for a given seed. The factory is called concurrently
/// from sweep workers and must be a pure function of the seed.
struct SweepScenario {
  std::string label;
  std::function<Result<std::unique_ptr<StreamGenerator>>(uint64_t seed)> make;
  /// Per-scenario imbalance-series resolution (0 = grid default). Dataset
  /// sweeps sample once per "hour" (Fig. 12), so this varies per scenario.
  uint32_t num_samples = 0;
  /// Free-form scenario parameter for custom cell runners (e.g. the Zipf
  /// exponent a DSPE cell regenerates its workload from). The factory
  /// helpers below fill it with the scenario's Zipf exponent.
  double param = 0.0;
};

/// Scenario from a calibrated dataset spec (WP/TW/CT/ZF); the cell seed
/// overrides spec.seed.
SweepScenario ScenarioFromDataset(const DatasetSpec& spec);

/// Scenario from the adversarial catalog (slb/workload/scenario.h); the cell
/// seed overrides options.seed. The label defaults to the catalog name.
SweepScenario ScenarioFromCatalog(const std::string& name,
                                  const ScenarioOptions& options = {},
                                  std::string label = "");

/// Scenario replaying a recorded trace (seed-independent).
SweepScenario ScenarioFromTrace(std::string label, Trace trace);

/// One value of the partitioner-option axis (e.g. a theta_ratio setting).
/// num_workers and hash_seed are overwritten per cell by the engine.
struct SweepVariant {
  std::string label;  // empty for the single default variant
  PartitionerOptions options;
  /// Source-count override for this variant (0 = grid default). Makes the
  /// deployment's source count sweepable (the sender-local-state ablation).
  uint32_t num_sources = 0;
  /// Elastic rescale schedule of this variant's cells (empty = static).
  /// Makes the schedule a sweep axis (bench_elastic_rescale); non-empty
  /// schedules make RunDefault() attach MigrationCounters.
  RescaleSchedule rescale;
  /// Heterogeneous service model of this variant's cells (disabled = unit
  /// cost). Makes the cost model / completion rate a sweep axis
  /// (bench_cost_routing pairs it with options.balance_on); enabled configs
  /// make RunDefault() attach CostCounters.
  ServiceConfig service;
};

// ---------------------------------------------------------------------------
// Typed per-cell payloads
// ---------------------------------------------------------------------------

/// Sec. IV-B memory comparison for one cell: the model estimate and the
/// simulated footprint for the cell's algorithm, both as overhead relative
/// to a named baseline scheme (Figs. 5-6 use "pkg" and "sg").
struct MemoryModelTable {
  std::string baseline;            // baseline scheme name, e.g. "pkg" / "sg"
  uint64_t baseline_entries = 0;   // baseline's (key,worker) entries
  uint64_t estimated_entries = 0;  // model estimate for the cell's algorithm
  uint64_t measured_entries = 0;   // distinct (key,worker) pairs simulated
  double estimated_overhead_pct = 0.0;
  double measured_overhead_pct = 0.0;
};

/// Immutable summary of a latency Histogram (count/mean/quantiles), cheap
/// enough to keep per cell without retaining the sample reservoir.
struct LatencySnapshot {
  static LatencySnapshot FromHistogram(const Histogram& histogram);

  int64_t count = 0;
  double avg_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// Throughput counters from a cluster-level (DSPE) cell run (Fig. 13).
struct ThroughputCounters {
  double throughput_per_s = 0.0;
  double makespan_s = 0.0;
  uint64_t completed = 0;
};

/// Heterogeneous-cost outcome of a cell run with an enabled ServiceConfig:
/// the paper's imbalance metric over true service cost next to the count
/// metric on the SAME routing decisions, the sketch mis-rank rate, and the
/// completion model's peak backlog. All five render as byte-stable columns.
struct CostCounters {
  double cost_imbalance = 0.0;
  double count_imbalance = 0.0;
  double misrank_rate = 0.0;
  double peak_outstanding = 0.0;
  double total_cost = 0.0;
};

/// Key-state migration costs from an elastic (rescaling) cell run — the
/// simulator's MigrationTracker counters (slb/sim/migration_tracker.h).
struct MigrationCounters {
  uint32_t final_num_workers = 0;
  uint32_t rescale_events = 0;
  uint64_t keys_migrated = 0;
  uint64_t state_bytes_migrated = 0;
  uint64_t stalled_messages = 0;
  double moved_key_fraction = 0.0;
};

/// An extra named column attached by a custom cell runner. All cells of one
/// grid should attach the same metric names; the report renders the union
/// in first-seen cell order, filling absences with zero.
struct PayloadMetric {
  std::string name;
  double value = 0.0;
  /// Rendered as a decimal integer instead of full-precision scientific.
  bool integral = false;
};

/// Finds a metric by name in a payload-metric list; nullptr when absent.
const PayloadMetric* FindMetric(const std::vector<PayloadMetric>& metrics,
                                const std::string& name);

/// What one cell produced: the partition-simulation result (zeroed for
/// runners that do not simulate routing) composed with the optional typed
/// extensions above.
struct CellPayload {
  PartitionSimResult sim;

  std::optional<MemoryModelTable> memory;
  std::optional<LatencySnapshot> latency;
  std::optional<ThroughputCounters> throughput;
  std::optional<MigrationCounters> migration;
  std::optional<CostCounters> cost;
  std::vector<PayloadMetric> metrics;

  void AddMetric(std::string name, double value);
  void AddCount(std::string name, uint64_t value);
  /// Finds a metric by name; nullptr when absent.
  const PayloadMetric* FindMetric(const std::string& name) const;
};

struct SweepGrid;  // forward declaration for SweepCellContext

/// Everything a cell runner may depend on: the cell's coordinates plus the
/// grid it came from. run_seed already includes the run index, so a pure
/// function of this context is automatically deterministic.
struct SweepCellContext {
  const SweepGrid* grid = nullptr;
  const SweepScenario* scenario = nullptr;
  const SweepVariant* variant = nullptr;
  AlgorithmKind algorithm = AlgorithmKind::kPkg;
  uint32_t num_workers = 0;
  /// Seed of this run: grid.seed + run.
  uint64_t run_seed = 0;
  uint32_t run = 0;

  /// The fully-resolved simulator configuration for this cell (variant
  /// options, schedule and service + per-cell worker count + grid-level
  /// knobs).
  PartitionSimConfig MakeSimConfig() const;
  /// Builds the scenario's generator for this run's seed.
  Result<std::unique_ptr<StreamGenerator>> MakeStream() const;
  /// The default cell behaviour: MakeStream() + RunPartitionSimulation with
  /// MakeSimConfig(). Custom runners can call this and then decorate the
  /// payload with extra tables/metrics.
  Result<CellPayload> RunDefault() const;
};

/// A custom per-cell experiment. Must be a pure function of the context —
/// it is called concurrently and its results must not depend on ordering.
using SweepCellRunner = std::function<Result<CellPayload>(const SweepCellContext&)>;

/// The experiment grid. Cells are the cartesian product
/// scenarios x variants x worker_counts x algorithms, expanded in exactly
/// that nesting order (last axis fastest).
struct SweepGrid {
  std::vector<SweepScenario> scenarios;
  std::vector<AlgorithmKind> algorithms;
  std::vector<uint32_t> worker_counts;
  /// Optional partitioner-option axis; empty means one default variant.
  std::vector<SweepVariant> variants;

  uint32_t num_sources = 5;
  uint32_t num_samples = 60;
  bool track_memory = false;
  /// Oracle head classification for the load breakdown (Fig. 8): when > 0,
  /// the simulator classifies key < oracle_head_size as head traffic instead
  /// of trusting the partitioner's own (possibly head-oblivious) flag.
  uint64_t oracle_head_size = 0;

  /// Custom per-cell experiment; empty = SweepCellContext::RunDefault().
  SweepCellRunner runner;

  /// Master seed: run r of a cell builds its generator with seed + r and all
  /// cells share hash_seed = seed, matching the bench harness convention.
  uint64_t seed = 42;
  /// Independent runs averaged per cell (seeds seed, seed+1, ...).
  uint32_t runs = 1;
};

/// One row of the result table: the cell's coordinates plus its outcome.
/// A failed cell carries the error in `status` and a zeroed payload;
/// failures never affect sibling cells.
struct SweepCellResult {
  std::string scenario;
  std::string variant;
  AlgorithmKind algorithm = AlgorithmKind::kPkg;
  uint32_t num_workers = 0;
  uint64_t seed = 0;
  uint32_t runs = 1;

  Status status;
  /// Means over the cell's runs (the headline metrics).
  double mean_final_imbalance = 0.0;
  double mean_avg_imbalance = 0.0;
  double mean_max_imbalance = 0.0;
  /// Full payload of the cell's last run (series, loads, memory, ...).
  CellPayload payload;
};

/// Result table in stable grid order (independent of thread count).
struct SweepResultTable {
  std::vector<SweepCellResult> cells;

  size_t num_errors() const;
  /// Finds a cell by coordinates; nullptr when absent.
  const SweepCellResult* Find(const std::string& scenario,
                              const std::string& variant, AlgorithmKind algorithm,
                              uint32_t num_workers) const;
};

/// Number of cells the grid expands to.
size_t SweepCellCount(const SweepGrid& grid);

/// Runs every cell of the grid across `num_threads` threads (0 = hardware
/// concurrency, 1 = serial). The returned table is identical for every
/// thread count.
SweepResultTable RunSweep(const SweepGrid& grid, size_t num_threads = 0);

}  // namespace slb
