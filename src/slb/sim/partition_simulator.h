// The paper's simulation setup (Sec. V-A, "Simulation"): the simplest DAG —
// a set of sources S receiving the input stream via shuffle grouping, one
// partitioned intermediate stream, and a set of workers W. Each source runs
// its own sender-local partitioner (own load vector, own sketch); the
// simulator measures ground-truth imbalance over time, the head/tail load
// split, and the distinct (key,worker) memory footprint.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include <string>

#include "slb/common/status.h"
#include "slb/core/partitioner.h"
#include "slb/sim/load_tracker.h"
#include "slb/sim/migration_tracker.h"
#include "slb/workload/cost_model.h"
#include "slb/workload/stream_generator.h"

namespace slb {

/// Heterogeneous service model (see docs/ARCHITECTURE.md "Heterogeneous
/// cost layer"). When a cost model is named,
/// every message is priced by it (the tracker's ground-truth accounting and
/// the senders' cost-aware signals evaluate the same per-key oracle) and a
/// deterministic completion model drains `rate` cost units per worker per
/// routed message, which drives the outstanding-work (in-flight) view.
struct ServiceConfig {
  /// Cost model name for MakeCostModel ("unit", "pareto", "correlated",
  /// "anti-correlated"); empty disables the cost layer entirely.
  std::string cost_model;
  /// Knobs for the model. num_keys is overwritten with the stream's key
  /// count so rank-aligned models see the true frequency ranks.
  CostModelOptions options;
  /// Completion rate: cost units each worker finishes per stream message.
  /// Must be > 0 when the layer is enabled. Rates near mean_cost/num_workers
  /// put workers at ~full utilization, where backlog differences show.
  double rate = 1.0;

  bool enabled() const { return !cost_model.empty(); }
};

struct PartitionSimConfig {
  AlgorithmKind algorithm = AlgorithmKind::kPkg;
  PartitionerOptions partitioner;

  /// Number of source operator instances (Table III default s = 5).
  uint32_t num_sources = 5;

  /// Points at which the imbalance time series I(t) is sampled.
  uint32_t num_samples = 60;

  /// Enables distinct (key,worker) memory accounting (Figs. 5-6).
  bool track_memory = false;

  /// When > 0, the head/tail load split uses the *oracle* classification
  /// key < oracle_head_size instead of the partitioner's own head flag
  /// (Fig. 8 applies one ground-truth head to head-oblivious schemes too;
  /// keys equal ranks in the non-drifting ZF streams, so the oracle test is
  /// rank < |H|).
  uint64_t oracle_head_size = 0;

  /// Elastic rescale schedule (see docs/ARCHITECTURE.md "Elastic rescale
  /// protocol"). When non-empty, every sender
  /// is rescaled in lockstep at each event's stream position (all senders
  /// share hash seeds, so their post-rescale candidate sets stay identical)
  /// and key-state migration costs are tracked. Events must have strictly
  /// increasing at_fraction in (0, 1) and target >= 1 workers; the algorithm
  /// must support rescaling. partitioner.num_workers is the INITIAL count.
  RescaleSchedule rescale;

  /// Copies the per-key migration log into the result (equivalence tests;
  /// static sweeps should leave it off — the vector grows with migrations).
  bool record_migrated_keys = false;

  /// Heterogeneous per-key service costs + completion model. Disabled (unit
  /// cost, no backlog) when service.cost_model is empty. Required whenever
  /// partitioner.balance_on != kCount — the senders need the cost oracle.
  ServiceConfig service;
};

struct PartitionSimResult {
  /// I(m): imbalance at the end of the stream (the paper's headline metric).
  double final_imbalance = 0.0;
  /// Mean/max of I(t) over the sampled series.
  double avg_imbalance = 0.0;
  double max_imbalance = 0.0;

  /// I(t) sampled num_samples times, plus the message index of each sample.
  std::vector<double> imbalance_series;
  std::vector<uint64_t> sample_positions;

  /// Final normalized per-worker loads, split by head/tail (Fig. 8).
  std::vector<double> worker_loads;
  std::vector<double> worker_head_loads;
  std::vector<double> worker_tail_loads;

  /// Distinct (key,worker) pairs (only when track_memory).
  uint64_t memory_entries = 0;

  /// d reported by source 0 at the end (D-Choices diagnostics).
  uint32_t final_head_choices = 0;

  /// FINDOPTIMALCHOICES invocations by source 0 (0 for algorithms without a
  /// cached optimizer; the reoptimization-cadence ablation reads this).
  uint64_t reoptimizations = 0;

  uint64_t head_messages = 0;
  uint64_t total_messages = 0;

  /// Elastic rescale outcome. final_num_workers is always set (it equals the
  /// configured count when no rescale ran); the migration counters are zeros
  /// when config.rescale was empty. worker_loads and the imbalance series
  /// reflect the worker set current at each point — final arrays have
  /// final_num_workers entries.
  uint32_t final_num_workers = 0;
  uint32_t rescale_events = 0;
  uint64_t keys_migrated = 0;
  uint64_t state_bytes_migrated = 0;
  uint64_t stalled_messages = 0;
  double moved_key_fraction = 0.0;
  /// Migrated keys in handoff-enqueue order (only when
  /// config.record_migrated_keys).
  std::vector<uint64_t> migrated_keys;

  /// Heterogeneous cost outcome (zeros unless config.service is enabled).
  /// cost_imbalance is the paper's metric computed over true service cost;
  /// misrank_rate is the fraction of TRUE cost-heavy keys (cost load >=
  /// theta * total cost) that a frequency threshold at the same theta
  /// misses — exactly 0 under the unit model.
  double total_cost = 0.0;
  double cost_imbalance = 0.0;
  double peak_outstanding = 0.0;
  double misrank_rate = 0.0;
};

/// Runs the full stream through `config.num_sources` independent senders.
/// The generator is Reset() before use. Returns InvalidArgument for bad
/// configurations.
Result<PartitionSimResult> RunPartitionSimulation(const PartitionSimConfig& config,
                                                  StreamGenerator* stream);

}  // namespace slb
