// Shared machinery for head-aware partitioners (Algorithm 1 of the paper).
//
// Every sender runs a streaming heavy-hitter sketch. On each message the
// sketch is updated; if the key's estimated frequency clears the threshold
// theta it is routed by the subclass's head policy, otherwise by the
// standard two-choices tail policy of PKG. Subclasses: DChoices, WChoices,
// RoundRobinHead, FixedDChoices.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "slb/common/flat_hash.h"
#include "slb/core/balance_signal.h"
#include "slb/core/partitioner.h"
#include "slb/hash/hash_family.h"
#include "slb/sketch/frequency_estimator.h"

namespace slb {

class HeadTailPartitioner : public StreamPartitioner {
 public:
  explicit HeadTailPartitioner(const PartitionerOptions& options);

  uint32_t Route(uint64_t key) final;

  uint32_t num_workers() const final { return options_.num_workers; }
  uint64_t messages_routed() const final { return messages_; }
  bool last_was_head() const final { return last_was_head_; }

  /// Rebuilds the hash family at the new n and keeps the sketch — head
  /// frequency estimates survive the rescale (the head doesn't change just
  /// because the worker set did). Surviving workers keep their local load
  /// estimates; a re-optimize is forced before the next message so derived
  /// head policy (e.g. D-Choices' d) reflects the new n immediately.
  bool SupportsRescale() const override { return true; }
  Status Rescale(uint32_t new_num_workers) override;

  const FrequencyEstimator& sketch() const { return *sketch_; }
  const PartitionerOptions& options() const { return options_; }

  /// Head keys whose d candidates are memoized (diagnostics; never more
  /// than the sketch's auto capacity, 2/theta keys with a floor of 64).
  size_t cached_head_keys() const { return head_cache_.size(); }

 protected:
  /// Routing policy for head keys; must return a worker in [0, n).
  virtual uint32_t RouteHead(uint64_t key) = 0;

  /// Hook called once every options_.reoptimize_interval messages, before
  /// routing; lets subclasses refresh derived state (e.g. recompute d).
  virtual void Reoptimize() {}

  /// Least loaded among the first `d` hashed candidates of `key`
  /// (the Greedy-d step, using this sender's local load vector). For d > 2
  /// the candidates come from the head-candidate cache.
  uint32_t LeastLoadedOfChoices(uint64_t key, uint32_t d);

  /// Least loaded among all workers (the W-Choices head step).
  uint32_t LeastLoadedOverall() const;

  const std::vector<uint64_t>& local_loads() const { return loads_; }
  const HashFamily& family() const { return family_; }

 private:
  static std::unique_ptr<FrequencyEstimator> MakeSketch(
      const PartitionerOptions& options);

  /// F_1..F_d of `key` (d > 2), memoized: a head key is routed many times
  /// between changes of d, and rehashing all d candidates per tuple is the
  /// dominant routing cost. The cache is a bounded, rebuildable memo of the
  /// shared hash family — not a routing table: any sender recomputes the
  /// same candidates, so the key -> candidate-set mapping stays identical
  /// across senders. Cleared when d changes, on Rescale, and wholesale when
  /// it holds head_cache_bound_ keys.
  const uint32_t* HeadCandidates(uint64_t key, uint32_t d);
  void ClearHeadCache();

  PartitionerOptions options_;
  HashFamily family_;
  std::unique_ptr<FrequencyEstimator> sketch_;
  std::vector<uint64_t> loads_;
  CostSignal signal_;  // cost/in-flight signal when balance_on != kCount
  FlatIndexMap head_cache_;                // key -> offset into head_candidates_
  std::vector<uint32_t> head_candidates_;  // head_cache_d_ workers per key
  uint32_t head_cache_d_ = 0;
  size_t head_cache_bound_;                // the sketch's auto capacity
  uint64_t messages_ = 0;
  uint64_t next_reoptimize_ = 0;  // doubling warm-up, then fixed cadence
  bool last_was_head_ = false;
};

/// W-Choices (Sec. III-B): head keys go to the least loaded of *all* n
/// workers; no hashing needed for the head.
class WChoices final : public HeadTailPartitioner {
 public:
  explicit WChoices(const PartitionerOptions& options)
      : HeadTailPartitioner(options) {}

  std::string name() const override { return "W-C"; }
  uint32_t head_choices() const override { return num_workers(); }

 protected:
  uint32_t RouteHead(uint64_t /*key*/) override { return LeastLoadedOverall(); }
};

/// Round-Robin head baseline (Table II): head keys are spread round-robin,
/// load-obliviously, across all workers; tail keys use PKG.
class RoundRobinHead final : public HeadTailPartitioner {
 public:
  explicit RoundRobinHead(const PartitionerOptions& options)
      : HeadTailPartitioner(options) {}

  std::string name() const override { return "RR"; }
  uint32_t head_choices() const override { return num_workers(); }

 protected:
  uint32_t RouteHead(uint64_t /*key*/) override {
    // A scale-in can leave the cursor past the new worker set; wrap before
    // use, not just after advancing.
    if (next_ >= num_workers()) next_ = 0;
    const uint32_t worker = next_;
    next_ = (next_ + 1) % num_workers();
    return worker;
  }

 private:
  uint32_t next_ = 0;
};

/// Head keys get a fixed, caller-chosen d (the Greedy-d sweep behind the
/// Fig. 9 "Minimal-d" search); tail keys use two choices.
class FixedDChoices final : public HeadTailPartitioner {
 public:
  explicit FixedDChoices(const PartitionerOptions& options)
      : HeadTailPartitioner(options),
        d_(std::min(options.fixed_d, options.num_workers)) {}

  std::string name() const override { return "Fixed-D"; }
  uint32_t head_choices() const override { return d_; }

  Status Rescale(uint32_t new_num_workers) override {
    Status status = HeadTailPartitioner::Rescale(new_num_workers);
    if (status.ok()) d_ = std::min(options().fixed_d, new_num_workers);
    return status;
  }

 protected:
  uint32_t RouteHead(uint64_t key) override {
    if (d_ >= num_workers()) return LeastLoadedOverall();
    return LeastLoadedOfChoices(key, d_);
  }

 private:
  uint32_t d_;
};

}  // namespace slb
