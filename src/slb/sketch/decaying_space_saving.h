// Time-decaying SpaceSaving — an extension beyond the paper.
//
// The paper's CT experiments (Figs. 11-12) show that concept drift "poses
// additional challenges to our method, especially for the heavy hitters
// algorithm that tracks the head": a plain sketch accumulates the WHOLE
// stream, so a key that was hot yesterday keeps out-counting today's hot
// key for a long time. This estimator applies periodic exponential decay:
// every `half_life` updates all counts (and the running total) are halved,
// making estimates recency-weighted while preserving SpaceSaving's
// one-sided error relative to the decayed stream.
//
// The half-life can additionally be AUTO-TUNED online: at every decay
// boundary the sketch compares its current top-k head against the previous
// boundary's snapshot. A churning head (small overlap) halves the half-life
// — forget faster, the hot set is moving; a stable head (large overlap)
// doubles it — decay is pure error when nothing changes. The adjustment is
// a deterministic function of the update sequence, so seeded experiments
// stay reproducible (golden tests in tests/sketch/decaying_test.cc).
//
// Used via SketchKind::kDecayingSpaceSaving in PartitionerOptions (the
// decay_auto_tune knob); the sketch-ablation and adversarial-headroom
// benches quantify the effect on dynamic workloads.

#pragma once

#include <cstdint>
#include <vector>

#include "slb/sketch/space_saving.h"

namespace slb {

class DecayingSpaceSaving final : public FrequencyEstimator {
 public:
  /// Online half-life adaptation policy (disabled by default).
  struct AutoTune {
    bool enabled = false;
    /// Clamp bounds for the adapted half-life.
    uint64_t min_half_life = 256;
    uint64_t max_half_life = 1ULL << 22;
    /// Top-k head snapshot compared across decay boundaries.
    size_t head_size = 8;
    /// Head overlap below this fraction halves the half-life.
    double churn_threshold = 0.5;
    /// Head overlap at/above this fraction doubles the half-life.
    double stable_threshold = 0.875;
  };

  /// `capacity` monitored counters; counts halve every `half_life` updates
  /// (the *starting* half-life when auto-tuning is enabled).
  DecayingSpaceSaving(size_t capacity, uint64_t half_life);
  DecayingSpaceSaving(size_t capacity, uint64_t half_life, AutoTune auto_tune);

  uint64_t UpdateAndEstimate(uint64_t key) override;
  uint64_t Estimate(uint64_t key) const override { return inner_.Estimate(key); }
  /// Decayed stream mass (halved together with the counters, so frequency
  /// ratios Estimate()/total() stay comparable against thresholds).
  uint64_t total() const override { return inner_.total(); }
  std::vector<HeavyKey> HeavyHitters(double phi) const override {
    return inner_.HeavyHitters(phi);
  }
  size_t memory_counters() const override { return inner_.memory_counters(); }
  void Reset() override;
  std::string name() const override { return "decaying-spacesaving"; }

  /// Current half-life (== initial_half_life() unless auto-tuning moved it).
  uint64_t half_life() const { return half_life_; }
  uint64_t initial_half_life() const { return initial_half_life_; }
  const AutoTune& auto_tune() const { return auto_tune_; }
  uint64_t decays_performed() const { return decays_; }
  /// Auto-tune adjustments so far (halvings / doublings).
  uint64_t tune_shrinks() const { return tune_shrinks_; }
  uint64_t tune_growths() const { return tune_growths_; }
  const SpaceSaving& inner() const { return inner_; }

 private:
  /// Compares the current top-k head with the last boundary's snapshot and
  /// adapts half_life_; called at every decay boundary when enabled.
  void TuneHalfLife();

  SpaceSaving inner_;
  uint64_t half_life_;
  uint64_t initial_half_life_;
  AutoTune auto_tune_;
  uint64_t since_decay_ = 0;
  uint64_t decays_ = 0;
  uint64_t tune_shrinks_ = 0;
  uint64_t tune_growths_ = 0;
  std::vector<uint64_t> head_snapshot_;  // sorted keys of the previous head
};

}  // namespace slb
