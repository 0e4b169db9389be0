// Ground-truth load accounting for simulations.
//
// Tracks the *actual* per-worker message counts (across all senders) and
// computes the paper's imbalance metric
//   I(t) = max_w L_w(t) - avg_w L_w(t),
// with loads normalized by the total number of messages (Sec. II-B). Also
// tracks the head/tail load split per worker (Fig. 8) and, optionally, the
// distinct (key, worker) assignments that determine memory overhead
// (Sec. IV-B, Figs. 5-6).
//
// Heterogeneous cost layer (docs/ARCHITECTURE.md "Heterogeneous cost
// layer"): every Record carries a service cost (1.0 by default),
// accumulated into per-worker cost totals so the
// SAME metric can be computed over true work — CostImbalance(). With
// EnableCostTracking(rate) the tracker additionally keeps an outstanding-
// work (in-flight) view under a deterministic completion model: each worker
// completes `rate` cost units per recorded step, drained lazily (linear
// decay, clamped at zero, materialized on touch) so Record stays O(1).

#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

namespace slb {

class LoadTracker {
 public:
  /// `track_memory` enables distinct (key,worker) accounting (costs one hash
  /// set insert per message).
  explicit LoadTracker(uint32_t num_workers, bool track_memory = false);

  /// Turns on the completion model behind the outstanding-work view:
  /// `service_rate` cost units complete per worker per recorded step.
  /// Must be > 0. Without it outstanding work never drains (it equals the
  /// cumulative cost), which is what a pure cost-imbalance run wants.
  void EnableCostTracking(double service_rate);

  /// Records one message routed to `worker`; `is_head` is the router's
  /// classification of the key (for the head/tail breakdown); `cost` is the
  /// message's service cost (unit by default, so count == cost accounting).
  void Record(uint32_t worker, uint64_t key, bool is_head, double cost = 1.0);

  /// Re-targets the tracker to a new worker count (elastic rescale). Added
  /// workers start at zero load. Removed workers' counts — and their cost
  /// mass and outstanding work — leave the totals: the tracker reports the
  /// load carried by the *current* worker set, so post-rescale imbalance
  /// compares like-for-like. Memory entries persist (distinct (key,worker)
  /// state replicas were created regardless).
  void Rescale(uint32_t new_num_workers);

  uint32_t num_workers() const { return static_cast<uint32_t>(counts_.size()); }
  uint64_t total() const { return total_; }

  /// I(t) = max_w L_w - 1/n (the average normalized load is exactly 1/n).
  double Imbalance() const;

  /// Normalized loads L_w (fractions of the total stream).
  std::vector<double> NormalizedLoads() const;

  /// Normalized per-worker load carried by head / tail keys.
  std::vector<double> NormalizedHeadLoads() const;
  std::vector<double> NormalizedTailLoads() const;

  uint64_t head_messages() const { return head_messages_; }

  /// Distinct (key, worker) assignments — the measured memory footprint.
  /// Valid only when constructed with track_memory = true. Unaffected by
  /// cost weighting: a replica exists whether the message was cheap or dear.
  uint64_t memory_entries() const { return key_worker_pairs_.size(); }
  bool tracks_memory() const { return track_memory_; }

  /// Raw per-worker counts.
  const std::vector<uint64_t>& counts() const { return counts_; }

  /// Heterogeneous cost accounting --------------------------------------

  /// Total recorded service cost on the current worker set.
  double total_cost() const { return total_cost_; }

  /// Raw per-worker cumulative cost.
  const std::vector<double>& costs() const { return costs_; }

  /// The paper's imbalance metric over true cost instead of counts:
  /// max_w C_w / C_total - 1/n. Equals Imbalance() under unit costs.
  double CostImbalance() const;

  /// Normalized per-worker cost loads (fractions of total_cost).
  std::vector<double> NormalizedCostLoads() const;

  /// Outstanding (recorded minus completed) work on `worker`, drained to
  /// the current step. Never negative.
  double OutstandingWork(uint32_t worker) const;
  double TotalOutstanding() const;

  /// Cost completed by the deterministic service model so far. Conservation
  /// invariant (no rescale): completed_cost() + TotalOutstanding() equals
  /// total_cost() up to floating-point rounding.
  double completed_cost() const;

  /// Max over all recorded steps of any single worker's outstanding work.
  double peak_outstanding() const { return peak_outstanding_; }

 private:
  /// Applies the pending lazy drain to `worker`, moving completed cost out
  /// of its backlog.
  void MaterializeOutstanding(uint32_t worker);

  std::vector<uint64_t> counts_;
  std::vector<uint64_t> head_counts_;
  uint64_t total_ = 0;
  uint64_t head_messages_ = 0;
  bool track_memory_;
  std::unordered_set<uint64_t> key_worker_pairs_;  // (key << 16) | worker

  std::vector<double> costs_;
  double total_cost_ = 0.0;
  double service_rate_ = 0.0;  // completions per worker per step; 0 = never
  uint64_t steps_ = 0;         // one step per Record
  std::vector<double> outstanding_;        // backlog as of outstanding_step_
  std::vector<uint64_t> outstanding_step_; // step of last materialization
  double completed_cost_ = 0.0;            // materialized completions
  double peak_outstanding_ = 0.0;
};

}  // namespace slb
