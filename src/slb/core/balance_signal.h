// Sender-local state behind PartitionerOptions::balance_on (see
// docs/ARCHITECTURE.md "Heterogeneous cost layer").
//
// Greedy min-choice partitioners keep an integer routed-message count per
// worker. When a cost model is attached, the comparison signal becomes
// either the cumulative service cost or the outstanding (in-flight) cost
// under a deterministic constant-rate completion model. Outstanding work is
// drained lazily: between touches a worker's backlog decays linearly at
// service_rate per sender step and clamps at zero, so reading the signal is
// O(1) and exact — no per-message sweep over all workers. Shared by GreedyD
// and HeadTailPartitioner so both cost-aware paths stay byte-identical.
//
// The in-flight signal alone is degenerate at low utilization: once every
// candidate's backlog has drained to zero the comparison ties on 0.0 and
// the choice collapses to the first hash function — plain key hashing. The
// signal therefore carries a cumulative-cost TieBreak() that callers
// compare lexicographically after the primary signal, so an idle system
// falls back to cost-balanced greedy instead of degenerating.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "slb/core/partitioner.h"

namespace slb {

class CostSignal {
 public:
  void Init(const PartitionerOptions& options) {
    mode_ = options.balance_on;
    cost_model_ = options.cost_model;
    service_rate_ = options.service_rate;
    value_.assign(options.num_workers, 0.0);
    touched_.assign(options.num_workers, 0);
    if (mode_ == BalanceSignal::kInFlight) {
      cumulative_.assign(options.num_workers, 0.0);
    }
  }

  /// True when routing must compare this signal instead of message counts.
  bool active() const { return mode_ != BalanceSignal::kCount; }

  /// The signal for `worker` at sender step `now` (messages routed so far).
  double At(uint32_t worker, uint64_t now) const {
    if (mode_ == BalanceSignal::kCost) return value_[worker];
    const double drained =
        service_rate_ * static_cast<double>(now - touched_[worker]);
    const double outstanding = value_[worker] - drained;
    return outstanding > 0.0 ? outstanding : 0.0;
  }

  /// Secondary comparison key: cumulative cost, compared only when At()
  /// ties (which in kInFlight mode means both backlogs are empty).
  double TieBreak(uint32_t worker) const {
    return mode_ == BalanceSignal::kInFlight ? cumulative_[worker]
                                             : value_[worker];
  }

  /// Cost of the message about to be routed. Only valid when active().
  double CostOf(uint64_t key) const { return cost_model_->CostOf(key); }

  /// Charges `cost` to the chosen worker at step `now`.
  void OnRoute(uint32_t worker, double cost, uint64_t now) {
    if (mode_ == BalanceSignal::kInFlight) {
      value_[worker] = At(worker, now) + cost;
      touched_[worker] = now;
      cumulative_[worker] += cost;
    } else {
      value_[worker] += cost;
    }
  }

  /// Keeps surviving workers' signal; added workers start empty at `now`.
  void Rescale(uint32_t new_num_workers, uint64_t now) {
    value_.resize(new_num_workers, 0.0);
    touched_.resize(new_num_workers, now);
    if (mode_ == BalanceSignal::kInFlight) {
      cumulative_.resize(new_num_workers, 0.0);
    }
  }

 private:
  BalanceSignal mode_ = BalanceSignal::kCount;
  std::shared_ptr<const KeyCostFunction> cost_model_;
  double service_rate_ = 0.0;
  std::vector<double> value_;     // cumulative cost, or outstanding cost as
                                  // of the worker's `touched_` step
  std::vector<uint64_t> touched_; // kInFlight: step of last materialization
  std::vector<double> cumulative_;  // kInFlight: cumulative cost tie-break
};

}  // namespace slb
