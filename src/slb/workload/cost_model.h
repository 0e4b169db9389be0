// Heterogeneous per-key service-cost catalog (see
// docs/ARCHITECTURE.md "Heterogeneous cost layer").
//
// Every scenario in the workload catalog prices messages implicitly at unit
// cost, so frequency and load coincide and the paper's imbalance metric
// tells the whole story. The models here break that tie: a CostModel prices
// each key deterministically from (options, key), making "how often does a
// key arrive" and "how much work does it bring" independent axes. Costs are
// pure per-key functions — senders, the ground-truth tracker, and the
// mis-rank analysis all evaluate the same oracle independently (and
// concurrently) and must agree byte-for-byte.
//
//   Name              Shape
//   unit              1.0 for every key (the paper's implicit model)
//   pareto            heavy-tailed i.i.d. cost, independent of frequency
//   correlated        expensive keys are the FREQUENT ones (rank-aligned;
//                     the catalog's Zipf streams put rank 0 hottest)
//   anti-correlated   expensive keys are the RARE ones — the adversarial
//                     case where frequency sketches mis-rank the true load
//
// Mirrors the scenario catalog: every model is reachable by name through
// MakeCostModel(), enumerable via CostModelNames(), and machine-checked by
// tests/workload/cost_model_harness.{h,cc} (same-seed determinism, Reset
// round-trip, positivity, per-model shape predicate), whose completeness
// test fails CI when the two registries diverge.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "slb/common/status.h"
#include "slb/core/partitioner.h"

namespace slb {

/// Knobs shared by the catalog. Model-specific fields are ignored by models
/// that do not use them; MakeCostModel validates the ones it reads.
struct CostModelOptions {
  /// Keys the model prices. Rank-aligned models read the key index as its
  /// frequency rank (rank 0 = hottest, matching the catalog's Zipf streams);
  /// the simulator overwrites this with the stream's key count.
  uint64_t num_keys = 10000;
  uint64_t seed = 42;

  // --- pareto --------------------------------------------------------------
  /// Tail index alpha (smaller = heavier tail). Must be > 0; the default
  /// keeps the mean finite while the top keys cost ~100x the median.
  double pareto_tail_index = 1.6;
  /// Scale x_m: the minimum cost. Must be > 0.
  double pareto_scale = 1.0;

  // --- correlated / anti-correlated ----------------------------------------
  /// Mixing weight of the rank-aligned component vs seeded per-key noise;
  /// |cost_correlation| is used. Must be in [-1, 1].
  double cost_correlation = 0.9;
  /// Cost of the most favoured rank; rank-aligned costs span [1, max_cost].
  /// Must be >= 1.
  double max_cost = 32.0;
};

/// A seeded per-key service-cost generator. CostOf must be a pure function
/// of (options, key) — see KeyCostFunction for why.
class CostModel : public KeyCostFunction {
 public:
  explicit CostModel(const CostModelOptions& options);

  /// Generator-contract parity with the scenario catalog. Catalog models
  /// derive every cost statelessly from (seed, key), so Reset() is a no-op —
  /// but it is part of the contract and the harness round-trips it.
  virtual void Reset() {}
  virtual std::string name() const = 0;

  uint64_t num_keys() const { return options_.num_keys; }
  const CostModelOptions& options() const { return options_; }

  /// Mean of CostOf over the whole key space (exact enumeration). Benches
  /// derive completion rates from it (rate ~ mean arrival work / workers).
  double MeanCost() const;

 protected:
  /// Per-key uniform draw in (0, 1], a pure function of (seed, key).
  double KeyUniform(uint64_t key) const;

  CostModelOptions options_;

 private:
  uint64_t seed_mix_;  // Mix64 of the seed, folded into every key draw
};

/// "unit" — every message costs 1.0; count and cost signals coincide (the
/// control cell of every cost sweep).
class UnitCostModel final : public CostModel {
 public:
  explicit UnitCostModel(const CostModelOptions& options);
  double CostOf(uint64_t /*key*/) const override { return 1.0; }
  std::string name() const override { return "unit"; }
};

/// "pareto" — i.i.d. heavy-tailed cost per key via the inverse CDF
/// scale * u^(-1/alpha), independent of the key's frequency rank.
class ParetoCostModel final : public CostModel {
 public:
  explicit ParetoCostModel(const CostModelOptions& options);
  double CostOf(uint64_t key) const override;
  std::string name() const override { return "pareto"; }
};

/// "correlated" / "anti-correlated" — cost aligned with the key's frequency
/// rank: cost = 1 + (max_cost - 1) * (|rho| * base + (1 - |rho|) * noise),
/// where base decreases with the key index for the correlated model (hot =
/// expensive) and increases for the anti-correlated one (cold = expensive).
class RankCorrelatedCostModel final : public CostModel {
 public:
  RankCorrelatedCostModel(const CostModelOptions& options, bool anti);
  double CostOf(uint64_t key) const override;
  std::string name() const override {
    return anti_ ? "anti-correlated" : "correlated";
  }

 private:
  bool anti_;
};

/// All catalog names accepted by MakeCostModel, in stable order.
std::vector<std::string> CostModelNames();

/// Builds a cost model by name ("unit", "pareto", "correlated",
/// "anti-correlated"). Returns InvalidArgument for unknown names or
/// out-of-range knobs (non-positive tail index or scale, correlation
/// outside [-1, 1], max_cost < 1, zero keys).
Result<std::unique_ptr<CostModel>> MakeCostModel(
    const std::string& name, const CostModelOptions& options = {});

}  // namespace slb
