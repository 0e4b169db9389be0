// Stream partitioning interface (Sec. II-B / Sec. III of the paper).
//
// A StreamPartitioner is *sender-local* state: each source operator instance
// owns one. Route(key) returns the downstream worker for the next message
// with that key, updating the sender's local load estimate, exactly as in
// Algorithm 1. All senders share hash seeds, so a key's candidate worker set
// is identical across senders; load vectors and sketches are per-sender
// ("the load is determined based only on local information available at the
// sender", Sec. III-B).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "slb/common/status.h"

namespace slb {

/// The grouping schemes of Table II plus internal building blocks.
enum class AlgorithmKind {
  kKeyGrouping,     // KG : hashing, 1 choice
  kShuffleGrouping, // SG : round-robin, stateless
  kPkg,             // PKG: power of both choices [7]
  kDChoices,        // D-C: head keys get analytically-minimal d choices
  kWChoices,        // W-C: head keys get all n workers
  kRoundRobinHead,  // RR : head keys round-robin, tail PKG (baseline)
  kFixedDChoices,   // head keys get a caller-fixed d (used by Fig. 9 search)
  kGreedyD,         // every key gets d choices (power-of-d ablation)
  kConsistentHash,  // CH : ring with virtual nodes; minimal-movement rescale
};

/// Every AlgorithmKind, for tests/benches that iterate all algorithms.
/// Append here when extending the enum — the build smoke test walks this
/// list, so a kind missing from it escapes the factory-drift canary.
inline constexpr AlgorithmKind kAllAlgorithmKinds[] = {
    AlgorithmKind::kKeyGrouping,    AlgorithmKind::kShuffleGrouping,
    AlgorithmKind::kPkg,            AlgorithmKind::kDChoices,
    AlgorithmKind::kWChoices,       AlgorithmKind::kRoundRobinHead,
    AlgorithmKind::kFixedDChoices,  AlgorithmKind::kGreedyD,
    AlgorithmKind::kConsistentHash,
};

/// Parses "kg", "sg", "pkg", "dc"/"d-c", "wc"/"w-c", "rr",
/// "fixed"/"fixedd"/"fixed-d", "greedyd"/"greedy-d", "ch" and the long
/// aliases ("shuffle", "consistent-hash", ...), case-insensitively.
Result<AlgorithmKind> ParseAlgorithmKind(const std::string& text);
std::string AlgorithmKindName(AlgorithmKind kind);

/// Which frequency estimator head-aware algorithms use (sketch ablation).
enum class SketchKind {
  kSpaceSaving,          // the paper's choice [11]
  kMisraGries,
  kLossyCounting,
  kCountMin,
  kDecayingSpaceSaving,  // recency-weighted extension for drifting streams
};

/// Per-key service-cost oracle (see docs/ARCHITECTURE.md "Heterogeneous
/// cost layer"). Implementations must be
/// pure functions of (construction options, key): senders, the ground-truth
/// tracker, and the mis-rank analysis evaluate costs independently — and
/// concurrently — so two oracles built from the same options must agree
/// byte-for-byte. slb/workload/cost_model.h provides the catalog
/// implementations behind MakeCostModel().
class KeyCostFunction {
 public:
  virtual ~KeyCostFunction() = default;
  /// Service cost of one message carrying `key`; always > 0.
  virtual double CostOf(uint64_t key) const = 0;
};

/// Which sender-local quantity the greedy min-choice comparisons minimize.
/// Only algorithms with a least-loaded step (PKG/Greedy-d and the head-aware
/// schemes) read it; KG/SG/CH route load-obliviously and ignore it.
enum class BalanceSignal {
  kCount,     // cumulative routed messages — the paper's unit-cost signal
  kCost,      // cumulative service cost (requires cost_model)
  kInFlight,  // outstanding (routed minus completed) service cost — the
              // partialkey exemplar's contention-avoidance variant
              // (requires cost_model and service_rate > 0)
};

struct PartitionerOptions {
  uint32_t num_workers = 1;

  /// Seed for the hash family; MUST be equal across senders of one stream.
  uint64_t hash_seed = 0;

  /// Head threshold as a multiple of 1/n: theta = theta_ratio / n.
  /// Paper default theta = 1/(5n) (Sec. III-A) => theta_ratio = 0.2.
  double theta_ratio = 0.2;

  /// Imbalance tolerance epsilon for the D-Choices optimizer (Table III).
  double epsilon = 1e-4;

  /// Sketch counters per sender; 0 = auto (2/theta, i.e. 10n at the default
  /// theta), which bounds SpaceSaving error below theta/2 of the stream.
  size_t sketch_capacity = 0;

  SketchKind sketch = SketchKind::kSpaceSaving;

  /// kDecayingSpaceSaving only. The half-life is max(1024, ceil(4/theta))
  /// messages; with auto-tune it only starts there and adapts online. At
  /// each decay boundary the sketch halves the half-life when its top-k
  /// head churned since the previous boundary and doubles it when the head
  /// was stable, within [max(256, half_life/16), max(half_life*16, 2^22)] —
  /// the ceiling reaches "effectively no decay" so a stable head converges
  /// to plain SpaceSaving behaviour. Deterministic (no RNG), so seeded
  /// experiments remain reproducible.
  bool decay_auto_tune = false;

  /// Messages between FINDOPTIMALCHOICES refreshes in D-Choices. The paper's
  /// Algorithm 1 calls it per message; recomputing on a short interval is
  /// behaviourally identical (the head evolves slowly) and keeps routing O(1).
  uint32_t reoptimize_interval = 2048;

  /// Fixed d for kFixedDChoices / kGreedyD.
  uint32_t fixed_d = 2;

  /// Which load estimate the greedy min-choice comparisons use (see
  /// docs/ARCHITECTURE.md "Heterogeneous cost layer"). kCost and kInFlight
  /// require `cost_model`; kInFlight also
  /// requires service_rate > 0. CreatePartitioner rejects inconsistent
  /// combinations with InvalidArgument.
  BalanceSignal balance_on = BalanceSignal::kCount;

  /// Per-key service-cost oracle for cost-aware balance signals. Like
  /// hash_seed it MUST be identical across all senders of one stream (share
  /// one instance — implementations are immutable and thread-safe).
  std::shared_ptr<const KeyCostFunction> cost_model;

  /// kInFlight only: service units each worker completes per message routed
  /// BY THIS SENDER — the sender-local deterministic completion model that
  /// drains outstanding work. A sender sees only 1/num_sources of the
  /// stream, so the simulator derives this as
  /// PartitionSimConfig::service.rate x num_sources.
  double service_rate = 1.0;

  /// Effective threshold: theta_ratio / num_workers.
  double theta() const {
    return theta_ratio / static_cast<double>(num_workers);
  }
};

/// Sender-local stream partitioning function P_t (Sec. II-B).
class StreamPartitioner {
 public:
  virtual ~StreamPartitioner() = default;

  /// Routes one message; returns the destination worker in [0, num_workers).
  virtual uint32_t Route(uint64_t key) = 0;

  /// Routes `count` messages, writing destinations to `out[0..count)`.
  /// Semantically identical to calling Route() per key in order; subclasses
  /// override to amortize virtual dispatch over the batch (the emit path of
  /// a real DSPE routes tuples in batches, not one call per message).
  virtual void RouteBatch(const uint64_t* keys, size_t count, uint32_t* out) {
    for (size_t i = 0; i < count; ++i) out[i] = Route(keys[i]);
  }

  virtual uint32_t num_workers() const = 0;
  virtual std::string name() const = 0;

  /// Messages this sender has routed.
  virtual uint64_t messages_routed() const = 0;

  /// Elastic rescaling (docs/ARCHITECTURE.md "Elastic rescale protocol") ---

  /// True when this partitioner can re-target to a different worker count
  /// mid-stream via Rescale().
  virtual bool SupportsRescale() const { return false; }

  /// Re-targets the partitioner to `new_num_workers` downstream workers
  /// (dense ids [0, new_num_workers)); scale-in drops the highest ids. All
  /// senders of one stream must rescale at the same stream position — they
  /// share hash seeds, so the post-rescale candidate sets stay identical
  /// across senders. After a successful rescale every Route() result is in
  /// [0, new_num_workers). State migration is the *receiver's* problem; the
  /// sim layer accounts for it (slb/sim/migration_tracker.h).
  virtual Status Rescale(uint32_t new_num_workers) {
    (void)new_num_workers;
    return Status::Unimplemented(name() + " does not support rescaling");
  }

  /// Diagnostics for the evaluation harness -------------------------------

  /// True when the most recent Route() classified its key as a head key.
  virtual bool last_was_head() const { return false; }

  /// Number of choices currently granted to head keys (2 when the algorithm
  /// has no separate head handling; n for W-Choices).
  virtual uint32_t head_choices() const { return 2; }

  /// Times the head-choices optimizer has run (0 for algorithms without one;
  /// D-Choices overrides — the reoptimization-cadence ablation reads this).
  virtual uint64_t reoptimize_count() const { return 0; }
};

/// Creates a sender-local partitioner instance.
Result<std::unique_ptr<StreamPartitioner>> CreatePartitioner(
    AlgorithmKind kind, const PartitionerOptions& options);

}  // namespace slb
