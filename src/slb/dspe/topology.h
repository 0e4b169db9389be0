// A Storm-like topology programming model (the paper's deployment target).
//
// The paper evaluates its groupings inside Apache Storm: spouts emit keyed
// tuples, bolts process them, and every spout->bolt / bolt->bolt edge is
// partitioned by a grouping scheme. This module reproduces that programming
// model on top of a discrete-event model of the cluster, so applications
// can be written once and executed deterministically:
//
//   TopologyBuilder builder;
//   builder.AddSpout("words", spout_factory, /*parallelism=*/4);
//   builder.AddBolt("count", bolt_factory, /*parallelism=*/20)
//          .Input("words", Grouping::DChoices());
//   Result<TopologyStats> stats = ExecuteTopology(builder.Build(), options);
//
// Execution semantics (mirroring Storm with max-spout-pending acking; the
// rationale is in docs/ARCHITECTURE.md, "Cluster model"):
//   * a spout may have at most `max_pending` tuple *trees* in flight and
//     emits as soon as it holds a credit; the tree is acked when the root
//     tuple and every descendant emitted while processing it have been fully
//     processed;
//   * every routed copy, spout and bolt emissions alike, crosses one shared
//     FIFO transport stage of rate `transport_rate_per_s` (the framework's
//     per-tuple emission / serialization / dispatch cost);
//   * every bolt task is a FIFO queue with a deterministic per-tuple service
//     time;
//   * each upstream task owns a sender-local partitioner per outgoing edge
//     (the paper's Sec. III: local load estimates, shared hash functions).

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "slb/common/histogram.h"
#include "slb/common/status.h"
#include "slb/core/partitioner.h"

namespace slb {

/// A keyed message flowing through the topology.
struct TopologyTuple {
  uint64_t key = 0;
  uint64_t value = 0;
};

/// Emits tuples produced by a bolt while executing an input tuple.
class OutputCollector {
 public:
  virtual ~OutputCollector() = default;
  virtual void Emit(const TopologyTuple& tuple) = 0;
};

/// A data source instance (Storm spout). One instance exists per task.
class Spout {
 public:
  virtual ~Spout() = default;
  /// Produces the next tuple; returns false when the source is exhausted.
  virtual bool NextTuple(TopologyTuple* out) = 0;
};

/// A processing operator instance (Storm bolt). One instance per task.
class Bolt {
 public:
  virtual ~Bolt() = default;
  /// Called once before execution with this instance's task index.
  virtual void Prepare(uint32_t task_index, uint32_t parallelism) {
    (void)task_index;
    (void)parallelism;
  }
  /// Processes one tuple; may Emit() downstream tuples.
  virtual void Execute(const TopologyTuple& tuple, OutputCollector* out) = 0;
  /// Entries of operator state held by this instance (memory accounting).
  virtual size_t StateEntries() const { return 0; }

  // --- Elastic key-state handoff (live rescale on the threaded engine). ----
  // A bolt on a component named by TopologyRuntimeOptions::rescale must
  // return true from SupportsStateHandoff and implement the three methods
  // below. State is modeled as one uint64 per key — enough for counter-style
  // operators; richer operators can treat the value as a handle into
  // external storage. All four are called only from the thread driving the
  // instance (or from the rescale mutator while every executor is parked),
  // so implementations need no locking.

  /// True when this bolt can extract and install per-key state.
  virtual bool SupportsStateHandoff() const { return false; }
  /// Appends every key this instance currently holds state for.
  virtual void AppendStateKeys(std::vector<uint64_t>* keys) const {
    (void)keys;
  }
  /// Removes `key`'s state from this instance, writing it to `*value`.
  /// Returns false (and writes 0) when the key has no state here.
  virtual bool ExtractKeyState(uint64_t key, uint64_t* value) {
    (void)key;
    *value = 0;
    return false;
  }
  /// Merges state for `key` handed off from another instance.
  virtual void InstallKeyState(uint64_t key, uint64_t value) {
    (void)key;
    (void)value;
  }
};

using SpoutFactory = std::function<std::unique_ptr<Spout>(uint32_t task_index)>;
using BoltFactory = std::function<std::unique_ptr<Bolt>(uint32_t task_index)>;

/// Grouping configuration of one edge.
struct Grouping {
  AlgorithmKind algorithm = AlgorithmKind::kShuffleGrouping;
  /// theta_ratio/epsilon/sketch knobs for head-aware schemes; num_workers
  /// and hash_seed are filled in by the engine.
  PartitionerOptions options;

  static Grouping Key() { return {AlgorithmKind::kKeyGrouping, {}}; }
  static Grouping Shuffle() { return {AlgorithmKind::kShuffleGrouping, {}}; }
  static Grouping Pkg() { return {AlgorithmKind::kPkg, {}}; }
  static Grouping DChoices() { return {AlgorithmKind::kDChoices, {}}; }
  static Grouping WChoices() { return {AlgorithmKind::kWChoices, {}}; }
};

/// Declarative topology description.
class TopologyBuilder {
 public:
  TopologyBuilder& AddSpout(const std::string& name, SpoutFactory factory,
                            uint32_t parallelism);

  /// Adds a bolt; connect inputs with Input() on the returned reference.
  TopologyBuilder& AddBolt(const std::string& name, BoltFactory factory,
                           uint32_t parallelism);

  /// Connects the most recently added bolt to an upstream component.
  TopologyBuilder& Input(const std::string& upstream, Grouping grouping);

  struct SpoutDecl {
    std::string name;
    SpoutFactory factory;
    uint32_t parallelism;
  };
  struct BoltDecl {
    std::string name;
    BoltFactory factory;
    uint32_t parallelism;
    std::vector<std::pair<std::string, Grouping>> inputs;
  };
  struct Topology {
    std::vector<SpoutDecl> spouts;
    std::vector<BoltDecl> bolts;
  };

  Topology Build() const { return topology_; }

 private:
  Topology topology_;
};

/// Engine knobs. The service-time defaults model the paper's Storm cluster
/// (Figs. 13-14): 1 ms of injected CPU per tuple plus framework overhead at
/// every bolt, and the emission capacity that caps a balanced topology.
struct TopologyOptions {
  double bolt_service_ms = 1.5;  // per-tuple processing cost at every bolt
  /// Rate of the shared transport stage every routed copy crosses.
  double transport_rate_per_s = 3300;
  uint32_t max_pending_per_spout = 70;
  uint64_t hash_seed = 42;
  uint64_t seed = 42;
  /// Safety valve: abort after this many processed tuples (0 = unlimited).
  uint64_t max_tuples = 0;
};

/// Per-component execution statistics.
struct ComponentStats {
  std::string name;
  uint64_t tuples_processed = 0;
  /// Normalized per-task load and the resulting imbalance (Sec. II-B).
  std::vector<double> task_loads;
  double imbalance = 0.0;
  /// Total state entries across this component's tasks (bolts only).
  size_t state_entries = 0;
  /// Per-task mean latency (root emission -> end of processing at the task),
  /// ms; 0 for spouts and idle tasks. Fig. 14's per-worker averages.
  /// ExecuteTopology only; empty under the threaded engine.
  std::vector<double> task_latency_avg_ms;
};

/// Outcome of a live elastic rescale (ExecuteTopologyThreaded with a
/// non-empty TopologyRuntimeOptions::rescale; all-zero otherwise). The
/// migration accounting splits into two families:
///
///  * MODELED — keys_migrated / state_bytes_migrated / stalled_messages /
///    moved_key_fraction / migrated_keys come from replaying the spouts'
///    recorded routing logs through a MigrationTracker in the canonical
///    round-robin order (ReplayRoundRobinMigration), so they are
///    byte-identical to RunPartitionSimulation on the same per-sender
///    streams and deterministic at any thread count.
///
///  * MEASURED — handoff_frames / measured_stalled_messages and the wall-
///    clock phase costs describe what the live protocol actually did:
///    handoff frames sent between workers, tuples that arrived before their
///    key's state, and how long quiesce / credit drain / post-resume
///    migration took.
struct TopologyRescaleStats {
  uint32_t rescale_events = 0;     // worker-set changes that fired
  uint32_t final_parallelism = 0;  // rescaled component's final task count
  // Modeled (replay) accounting.
  uint64_t keys_migrated = 0;
  uint64_t state_bytes_migrated = 0;
  uint64_t stalled_messages = 0;
  double moved_key_fraction = 0.0;
  std::vector<uint64_t> migrated_keys;  // handoff-enqueue order
  // Measured (live protocol) accounting.
  uint64_t handoff_frames = 0;            // state + pull frames sent
  uint64_t measured_stalled_messages = 0; // tuples processed before state
  double total_credit_drain_s = 0.0;  // spout pause -> in-flight trees acked
  double total_quiesce_s = 0.0;       // spout pause -> topology resumed
  double total_migration_stall_s = 0.0;  // resume -> last handoff installed
};

struct TopologyStats {
  double makespan_s = 0.0;
  double throughput_per_s = 0.0;  // spout-root tuples acked per second
  uint64_t roots_acked = 0;
  uint64_t tuples_processed = 0;  // including bolt-emitted descendants
  /// Root-tree completion latency (emission -> full tree acked), ms, over
  /// the `latency_samples` timed roots. ExecuteTopology times every root;
  /// the threaded engine times a fixed-hash sample of one root in eight per
  /// spout (each spout's first root included), so there latency_avg_ms and
  /// latency_max_ms cover the timed roots only and the percentiles are
  /// taken over a uniform sample.
  uint64_t latency_samples = 0;
  double latency_avg_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;
  /// Threaded-engine executor accounting (all zero under ExecuteTopology).
  /// idle_s is wall-clock the executors spent in the idle ladder (yield +
  /// park stages); park_s is the subset spent parked on the idle gate's
  /// condition variable; parks counts park episodes. Under
  /// WaitStrategy::kSpin these stay zero (the legacy untimed yield loop).
  double idle_s = 0.0;
  double park_s = 0.0;
  uint64_t parks = 0;
  /// Ring pushes that moved at least one tuple (threaded engine only): the
  /// transport's batching is tuples delivered per publish.
  uint64_t publishes = 0;
  /// Executor threads successfully pinned to a CPU (0 unless
  /// TopologyRuntimeOptions::pin_threads, or where unsupported).
  uint32_t threads_pinned = 0;
  /// Bytes ever reserved by per-tuple routing-log capture across all tasks.
  /// The hot-path audit: must be exactly zero on runs with no rescale
  /// schedule (capture is compiled out of the non-logging route path).
  uint64_t routing_log_capacity_bytes = 0;
  std::vector<ComponentStats> components;
  /// Live elastic-rescale outcome (threaded engine only).
  TopologyRescaleStats rescale;
};

/// Runs the topology to spout exhaustion; deterministic for a fixed seed.
Result<TopologyStats> ExecuteTopology(const TopologyBuilder::Topology& topology,
                                      const TopologyOptions& options);

}  // namespace slb
