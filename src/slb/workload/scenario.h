// Adversarial workload scenario catalog.
//
// The paper's evaluation sticks to static Zipf streams plus the mild CT
// concept drift; the failure modes that matter at scale (AutoFlow,
// arXiv:2103.08888; PKG, arXiv:1510.07623) come from *dynamics*: keys that
// were cold suddenly dominating, and hot sets migrating faster than sketches
// decay. Each generator here is a fully-seeded, Reset()-able StreamGenerator
// that stresses one such failure mode, and every one is reachable by name
// through MakeScenario() so sweeps and tools can enumerate the whole catalog.
//
//   Name              Stresses
//   zipf              baseline static skew (SyntheticStreamGenerator)
//   drift             slow identity churn (the CT model)
//   flash-crowd       a cold key spikes to p% of traffic for a window
//   hot-set-churn     the hot set rotates wholesale every epoch
//   single-key-ramp   one key ramps linearly from ~0 to p% of traffic
//   correlated-burst  a GROUP of cold keys ignites together for a window
//   diurnal           sinusoidal intensity curves over tenant-like key bands
//   key-space-growth  fresh keys keep arriving; the head is a moving target
//   replay-with-noise wraps any base scenario with seeded key + order noise
//   scale-out-under-flash-crowd  load grows past capacity mid-stream (the
//                     workload that motivates an elastic scale-OUT event)
//   scale-in-during-drift  the live key space shrinks while identities
//                     drift (the workload that motivates a scale-IN event)
//
// Every generator must pass the catalog-wide property-test harness
// (tests/workload/scenario_harness.h): golden-seed determinism, Reset
// round-trip byte-equality, message-count exactness, key-range containment,
// and a per-scenario shape predicate. The harness enumerates
// ScenarioNames(), so a generator registered here without a harness entry
// fails the completeness test.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "slb/common/rng.h"
#include "slb/common/status.h"
#include "slb/workload/stream_generator.h"
#include "slb/workload/zipf.h"

namespace slb {

/// Knobs shared by the catalog. Scenario-specific fields are ignored by
/// scenarios that do not use them; MakeScenario validates the ones it reads.
struct ScenarioOptions {
  uint64_t num_keys = 10000;
  uint64_t num_messages = 1000000;
  uint64_t seed = 42;

  /// Base / background Zipf exponent.
  double zipf_exponent = 1.0;

  // --- flash-crowd -------------------------------------------------------
  /// Traffic share the bursting key receives while the burst is active.
  double burst_fraction = 0.4;
  /// Burst window as fractions of the stream, [begin, end).
  double burst_begin = 0.4;
  double burst_end = 0.6;

  // --- hot-set-churn -----------------------------------------------------
  /// Keys in the rotating hot set.
  uint64_t hot_set_size = 8;
  /// Traffic share of the hot set (split uniformly inside it).
  double hot_fraction = 0.6;
  /// Epochs for hot-set-churn / drift; the hot set rotates to a fresh,
  /// disjoint window of the key space at every boundary.
  uint64_t num_epochs = 10;

  // --- single-key-ramp ---------------------------------------------------
  /// Traffic share of the ramping key at the very end of the stream.
  double ramp_final_fraction = 0.5;

  // --- drift -------------------------------------------------------------
  /// Fraction of key identities reshuffled per epoch (see DriftingKeyMapper).
  double drift_swap_fraction = 0.1;

  // --- correlated-burst ----------------------------------------------------
  /// Keys in the bursting group: the coldest `burst_group_size` ranks ignite
  /// *together* during the [burst_begin, burst_end) window, splitting
  /// `burst_fraction` of traffic uniformly. Must be in [1, num_keys].
  uint64_t burst_group_size = 16;

  // --- diurnal -------------------------------------------------------------
  /// Messages per full sinusoidal intensity cycle. Must be >= 2.
  uint64_t diurnal_period = 5000;
  /// Tenant-like key bands, each with a phase-shifted intensity curve.
  /// Must be in [1, num_keys].
  uint64_t diurnal_num_bands = 4;
  /// Peak-to-mean swing of each band's intensity, in [0, 1].
  double diurnal_amplitude = 0.8;

  // --- key-space-growth ----------------------------------------------------
  /// Fraction of the key space live at stream start, in (0, 1].
  double growth_initial_fraction = 0.1;
  /// Per-message probability that a fresh key joins the live set. Must be
  /// in [0, 1): a rate of 1 would make every message a fresh key.
  double growth_rate = 0.05;

  // --- scale-in-during-drift -----------------------------------------------
  /// Fraction of the key space still live in the final epoch, in (0, 1].
  double shrink_final_fraction = 0.3;

  // --- replay-with-noise ---------------------------------------------------
  /// Catalog name of the base scenario being replayed (any name except
  /// "replay-with-noise" itself).
  std::string replay_base = "zipf";
  /// Probability a replayed key is replaced by a uniform random key, [0, 1].
  double noise_rate = 0.05;
  /// Local-reorder window: keys are emitted from a sliding buffer of this
  /// size, perturbing local ordering while preserving composition. Must be
  /// >= 1 (1 = no reordering).
  uint64_t noise_window = 16;
};

/// Flash crowd: a base Zipf stream in which the *coldest* key (rank K-1)
/// spikes to `burst_fraction` of traffic for the window
/// [burst_begin, burst_end) of the stream, then vanishes again. Stresses
/// reaction time: the key is far outside any head sketch when it ignites.
class FlashCrowdStreamGenerator final : public StreamGenerator {
 public:
  explicit FlashCrowdStreamGenerator(const ScenarioOptions& options);

  uint64_t NextKey() override;
  void Reset() override;
  uint64_t num_messages() const override { return options_.num_messages; }
  uint64_t num_keys() const override { return options_.num_keys; }
  std::string name() const override { return "flash-crowd"; }

  uint64_t burst_key() const { return options_.num_keys - 1; }
  /// True while message index `position` falls inside the burst window.
  bool InBurstWindow(uint64_t position) const;

 private:
  ScenarioOptions options_;
  ZipfDistribution zipf_;
  Rng rng_;
  uint64_t position_ = 0;
  uint64_t burst_first_;  // first message index inside the window
  uint64_t burst_last_;   // one past the last message index inside it
};

/// Rotating hot set: `hot_set_size` keys share `hot_fraction` of the traffic
/// uniformly; at every epoch boundary the set rotates to the next disjoint
/// window of the key space, so *every* hot identity is replaced at once —
/// the worst case for sketches that age out slowly. Background traffic is
/// Zipf over the full key space.
class HotSetChurnStreamGenerator final : public StreamGenerator {
 public:
  explicit HotSetChurnStreamGenerator(const ScenarioOptions& options);

  uint64_t NextKey() override;
  void Reset() override;
  uint64_t num_messages() const override { return options_.num_messages; }
  uint64_t num_keys() const override { return options_.num_keys; }
  std::string name() const override { return "hot-set-churn"; }

  /// First key of the hot window active during `epoch`.
  uint64_t HotSetStart(uint64_t epoch) const;
  uint64_t current_epoch() const { return epoch_; }

 private:
  ScenarioOptions options_;
  ZipfDistribution zipf_;
  Rng rng_;
  uint64_t position_ = 0;
  uint64_t epoch_ = 0;
  uint64_t epoch_length_;
};

/// Adversarial ramp: the coldest key's traffic share grows linearly from 0
/// to `ramp_final_fraction` over the stream. There is no burst edge to
/// detect — the key crosses the head threshold silently mid-stream, which is
/// exactly where threshold-based head classification lags.
class SingleKeyRampStreamGenerator final : public StreamGenerator {
 public:
  explicit SingleKeyRampStreamGenerator(const ScenarioOptions& options);

  uint64_t NextKey() override;
  void Reset() override;
  uint64_t num_messages() const override { return options_.num_messages; }
  uint64_t num_keys() const override { return options_.num_keys; }
  std::string name() const override { return "single-key-ramp"; }

  uint64_t ramp_key() const { return options_.num_keys - 1; }
  /// Hot-key probability at message index `position`.
  double RampShare(uint64_t position) const;

 private:
  ScenarioOptions options_;
  ZipfDistribution zipf_;
  Rng rng_;
  uint64_t position_ = 0;
};

/// Correlated burst: the coldest `burst_group_size` keys ignite *together*
/// for the [burst_begin, burst_end) window, splitting `burst_fraction` of
/// traffic uniformly. Where flash-crowd stresses single-key reaction time,
/// this stresses the sketch's capacity headroom: a whole group of previously
/// unmonitored keys must enter the head at once, evicting each other while
/// they climb.
class CorrelatedBurstStreamGenerator final : public StreamGenerator {
 public:
  explicit CorrelatedBurstStreamGenerator(const ScenarioOptions& options);

  uint64_t NextKey() override;
  void Reset() override;
  uint64_t num_messages() const override { return options_.num_messages; }
  uint64_t num_keys() const override { return options_.num_keys; }
  std::string name() const override { return "correlated-burst"; }

  /// First key of the bursting group (the group is [start, start + size)).
  uint64_t group_start() const {
    return options_.num_keys - options_.burst_group_size;
  }
  uint64_t group_size() const { return options_.burst_group_size; }
  /// True while message index `position` falls inside the burst window.
  bool InBurstWindow(uint64_t position) const;

 private:
  ScenarioOptions options_;
  ZipfDistribution zipf_;
  Rng rng_;
  uint64_t position_ = 0;
  uint64_t burst_first_;  // first message index inside the window
  uint64_t burst_last_;   // one past the last message index inside it
};

/// Diurnal load curve: `diurnal_num_bands` tenant-like key bands own disjoint
/// key ranges; band b's share of each message is proportional to the
/// phase-shifted sinusoid 1 + amplitude * sin(2*pi*(t/period + b/B)). The
/// per-epoch message *mix* therefore rotates smoothly through the bands —
/// every band's head keys wax and wane on the cycle, so a sketch tuned for
/// one phase is mis-tuned half a period later.
class DiurnalStreamGenerator final : public StreamGenerator {
 public:
  explicit DiurnalStreamGenerator(const ScenarioOptions& options);

  uint64_t NextKey() override;
  void Reset() override;
  uint64_t num_messages() const override { return options_.num_messages; }
  /// Keys actually reachable: floor(K / B) * B.
  uint64_t num_keys() const override;
  std::string name() const override { return "diurnal"; }

  uint64_t num_bands() const { return options_.diurnal_num_bands; }
  uint64_t keys_per_band() const { return keys_per_band_; }
  uint64_t period() const { return options_.diurnal_period; }
  /// Band b's (unnormalized) intensity at message index `position`.
  double BandIntensity(uint64_t band, uint64_t position) const;

 private:
  /// Recomputes the cumulative band weights for the phase slot containing
  /// `position` (weights are piecewise-constant over kPhaseSlots per cycle).
  void RefreshWeights(uint64_t position);

  static constexpr uint64_t kPhaseSlots = 64;

  ScenarioOptions options_;
  ZipfDistribution band_zipf_;
  Rng rng_;
  uint64_t position_ = 0;
  uint64_t keys_per_band_;
  uint64_t slot_ = ~uint64_t{0};           // phase slot of cached weights
  std::vector<double> cumulative_weight_;  // per-band, ascending
};

/// Key-space growth: only `growth_initial_fraction` of the key space exists
/// at stream start; fresh keys arrive at `growth_rate` per message, and the
/// Zipf head is anchored at the *newest* live key — rank 0 is the most
/// recent arrival, so the heavy hitters are by construction keys no sketch
/// has seen before. Stresses head tracking with a permanently moving target
/// (the AutoFlow hotspot-migration regime).
class KeySpaceGrowthStreamGenerator final : public StreamGenerator {
 public:
  explicit KeySpaceGrowthStreamGenerator(const ScenarioOptions& options);

  uint64_t NextKey() override;
  void Reset() override;
  uint64_t num_messages() const override { return options_.num_messages; }
  uint64_t num_keys() const override { return options_.num_keys; }
  std::string name() const override { return "key-space-growth"; }

  /// Keys live at stream start.
  uint64_t initial_live_keys() const { return initial_live_; }
  /// Keys live right now (monotone non-decreasing as the stream advances).
  uint64_t live_keys() const { return live_; }

 private:
  ScenarioOptions options_;
  ZipfDistribution zipf_;
  Rng rng_;
  uint64_t position_ = 0;
  uint64_t initial_live_;
  uint64_t live_;
};

/// Replay with noise: wraps any base catalog scenario, emitting its key
/// sequence through a sliding `noise_window` buffer (seeded local-order
/// perturbation) and replacing each emitted key with a uniform random key
/// with probability `noise_rate`. Composition is preserved up to the noise
/// rate, ordering only locally — the trace-perturbation robustness check:
/// any conclusion that flips under small noise was overfit to one trace.
class ReplayWithNoiseStreamGenerator final : public StreamGenerator {
 public:
  /// `base` supplies the replayed stream; it is owned and Reset() by the
  /// wrapper. MakeScenario builds it from `options.replay_base`.
  ReplayWithNoiseStreamGenerator(const ScenarioOptions& options,
                                 std::unique_ptr<StreamGenerator> base);

  uint64_t NextKey() override;
  void Reset() override;
  uint64_t num_messages() const override { return base_->num_messages(); }
  uint64_t num_keys() const override { return base_->num_keys(); }
  std::string name() const override { return "replay-with-noise"; }

  const StreamGenerator& base() const { return *base_; }
  double noise_rate() const { return options_.noise_rate; }

 private:
  void FillWindow();

  ScenarioOptions options_;
  std::unique_ptr<StreamGenerator> base_;
  Rng rng_;
  std::vector<uint64_t> window_;
  uint64_t pulled_ = 0;  // keys drawn from base_ so far this pass
};

/// Scale-out companion workload: total hot traffic GROWS mid-stream and
/// stays grown. The coldest `burst_group_size` keys ignite together at
/// `burst_begin`, taking burst_fraction/2 of traffic instantly, then ramp
/// linearly to the full `burst_fraction` by stream end. Unlike flash-crowd
/// the load never recedes — the sustained growth is what justifies adding
/// workers mid-stream, so this is the canonical stream for scale-out
/// rescale schedules (bench_elastic_rescale pairs it with a worker-add
/// event inside the ignition window).
class ScaleOutFlashCrowdStreamGenerator final : public StreamGenerator {
 public:
  explicit ScaleOutFlashCrowdStreamGenerator(const ScenarioOptions& options);

  uint64_t NextKey() override;
  void Reset() override;
  uint64_t num_messages() const override { return options_.num_messages; }
  uint64_t num_keys() const override { return options_.num_keys; }
  std::string name() const override { return "scale-out-under-flash-crowd"; }

  /// First key of the igniting group (the group is [start, start + size)).
  uint64_t group_start() const {
    return options_.num_keys - options_.burst_group_size;
  }
  uint64_t group_size() const { return options_.burst_group_size; }
  /// Group traffic share at message index `position`: 0 before ignition,
  /// burst_fraction/2 at ignition, burst_fraction at stream end.
  double BurstShare(uint64_t position) const;

 private:
  ScenarioOptions options_;
  ZipfDistribution zipf_;
  Rng rng_;
  uint64_t position_ = 0;
  uint64_t burst_first_;  // first message index with the group ignited
};

/// Scale-in companion workload: the live key space SHRINKS while identities
/// drift. The live prefix contracts linearly from the full key space to
/// `shrink_final_fraction` of it across `num_epochs` epochs, and each epoch
/// rotates the Zipf head by ceil(drift_swap_fraction * live) identities —
/// so the stream both needs fewer workers over time (the scale-in trigger)
/// and keeps moving its hot keys (the hard case for migrating state off
/// the workers being retired).
class ScaleInDriftStreamGenerator final : public StreamGenerator {
 public:
  explicit ScaleInDriftStreamGenerator(const ScenarioOptions& options);

  uint64_t NextKey() override;
  void Reset() override;
  uint64_t num_messages() const override { return options_.num_messages; }
  uint64_t num_keys() const override { return options_.num_keys; }
  std::string name() const override { return "scale-in-during-drift"; }

  /// Keys live during `epoch`: linear from num_keys (epoch 0) down to
  /// shrink_final_fraction * num_keys (last epoch), floored at 2.
  uint64_t LiveKeys(uint64_t epoch) const;
  uint64_t current_epoch() const { return epoch_; }

 private:
  ScenarioOptions options_;
  ZipfDistribution zipf_;
  Rng rng_;
  uint64_t position_ = 0;
  uint64_t epoch_ = 0;
  uint64_t epoch_length_;
};

/// All catalog names accepted by MakeScenario, in stable order.
std::vector<std::string> ScenarioNames();

/// Builds a catalog scenario by name ("zipf", "drift", "flash-crowd",
/// "hot-set-churn", "single-key-ramp", "correlated-burst", "diurnal",
/// "key-space-growth", "replay-with-noise",
/// "scale-out-under-flash-crowd", "scale-in-during-drift"). Returns
/// InvalidArgument for unknown names or out-of-range knobs.
Result<std::unique_ptr<StreamGenerator>> MakeScenario(
    const std::string& name, const ScenarioOptions& options = {});

}  // namespace slb
