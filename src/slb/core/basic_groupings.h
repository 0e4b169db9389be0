// The pre-existing grouping schemes the paper compares against (Sec. II-B):
// key grouping, shuffle grouping, partial key grouping, and the generic
// Greedy-d process applied uniformly to all keys.

#pragma once

#include <cstdint>
#include <vector>

#include "slb/core/balance_signal.h"
#include "slb/core/partitioner.h"
#include "slb/hash/hash_family.h"

namespace slb {

/// KG — all messages of a key go to hash(key) mod-range n. Stateless beyond
/// the hash; the baseline that collapses under skew.
class KeyGrouping final : public StreamPartitioner {
 public:
  explicit KeyGrouping(const PartitionerOptions& options);

  uint32_t Route(uint64_t key) override;
  uint32_t num_workers() const override { return family_.num_workers(); }
  std::string name() const override { return "KG"; }
  uint64_t messages_routed() const override { return messages_; }

  /// Mod-range hashing rebinds EVERY key on rescale — the full-reshuffle
  /// worst case the consistent-hash ring exists to avoid.
  bool SupportsRescale() const override { return true; }
  Status Rescale(uint32_t new_num_workers) override;

 private:
  HashFamily family_;
  uint64_t messages_ = 0;
};

/// SG — round-robin across workers; ideal balance, but every worker may see
/// every key (maximal state replication).
class ShuffleGrouping final : public StreamPartitioner {
 public:
  explicit ShuffleGrouping(const PartitionerOptions& options);

  uint32_t Route(uint64_t key) override;
  uint32_t num_workers() const override { return num_workers_; }
  std::string name() const override { return "SG"; }
  uint64_t messages_routed() const override { return messages_; }

  bool SupportsRescale() const override { return true; }
  Status Rescale(uint32_t new_num_workers) override;

 private:
  uint32_t num_workers_;
  uint32_t next_ = 0;
  uint64_t messages_ = 0;
};

/// Greedy-d applied to *every* key (Sec. III-B): the message goes to the
/// least loaded (by this sender's local estimate) of the d hashed candidates.
/// d = 2 is exactly PKG [7]; larger d is the power-of-d-choices ablation.
class GreedyD final : public StreamPartitioner {
 public:
  /// `d` is clamped to [1, n]; d == n degenerates to least-loaded-of-all.
  GreedyD(const PartitionerOptions& options, uint32_t d, std::string name);

  uint32_t Route(uint64_t key) override;
  uint32_t num_workers() const override { return family_.num_workers(); }
  std::string name() const override { return name_; }
  uint64_t messages_routed() const override { return messages_; }
  uint32_t head_choices() const override { return d_; }

  /// Rebuilds the hash family at the new n (both candidates of ~every key
  /// change — mod-range hashing has no minimal-movement property) and keeps
  /// surviving workers' local load estimates; new workers start at zero.
  bool SupportsRescale() const override { return true; }
  Status Rescale(uint32_t new_num_workers) override;

 private:
  HashFamily family_;
  uint32_t requested_d_;  // caller's d before clamping to [1, n]
  uint32_t d_;
  std::string name_;
  std::vector<uint64_t> loads_;  // sender-local routed-message counts
  CostSignal signal_;            // cost/in-flight signal when balance_on != kCount
  uint64_t messages_ = 0;
};

/// PKG — Partial Key Grouping [7] == Greedy-2. Kept as its own type so the
/// evaluation reads like the paper.
class PartialKeyGrouping final : public StreamPartitioner {
 public:
  explicit PartialKeyGrouping(const PartitionerOptions& options);

  uint32_t Route(uint64_t key) override { return inner_.Route(key); }
  uint32_t num_workers() const override { return inner_.num_workers(); }
  std::string name() const override { return "PKG"; }
  uint64_t messages_routed() const override { return inner_.messages_routed(); }

  bool SupportsRescale() const override { return true; }
  Status Rescale(uint32_t new_num_workers) override {
    return inner_.Rescale(new_num_workers);
  }

 private:
  GreedyD inner_;
};

}  // namespace slb
