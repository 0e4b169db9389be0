#include "slb/workload/scenario.h"

#include <algorithm>
#include <cmath>

#include "slb/common/logging.h"

namespace slb {

namespace {

// Salt for the replay-with-noise wrapper's own Rng: the base scenario is
// built from the SAME options.seed, so the wrapper must not reuse the raw
// seed or its noise draws would be correlated with the base stream.
constexpr uint64_t kNoiseSeedSalt = 0x7e91abc5f00dULL;

// Shared knob validation for the factory. Constructors SLB_CHECK the same
// invariants (direct construction with bad knobs is a programmer error);
// the factory returns InvalidArgument so sweeps can report bad cells.
Status ValidateCommon(const ScenarioOptions& options) {
  if (options.num_keys < 2) {
    return Status::InvalidArgument("scenario needs at least 2 keys");
  }
  if (options.num_messages < 1) {
    return Status::InvalidArgument("scenario needs at least 1 message");
  }
  if (options.zipf_exponent < 0.0) {
    return Status::InvalidArgument("zipf_exponent must be >= 0");
  }
  return Status::OK();
}

bool IsFraction(double value) { return value >= 0.0 && value <= 1.0; }

}  // namespace

// --- flash-crowd ----------------------------------------------------------

FlashCrowdStreamGenerator::FlashCrowdStreamGenerator(
    const ScenarioOptions& options)
    : options_(options),
      zipf_(options.zipf_exponent, options.num_keys),
      rng_(options.seed) {
  SLB_CHECK(options_.num_keys >= 2);
  SLB_CHECK(options_.num_messages >= 1);
  SLB_CHECK(IsFraction(options_.burst_fraction));
  SLB_CHECK(IsFraction(options_.burst_begin));
  SLB_CHECK(IsFraction(options_.burst_end));
  SLB_CHECK(options_.burst_begin <= options_.burst_end);
  const double m = static_cast<double>(options_.num_messages);
  burst_first_ = static_cast<uint64_t>(options_.burst_begin * m);
  burst_last_ = static_cast<uint64_t>(options_.burst_end * m);
}

bool FlashCrowdStreamGenerator::InBurstWindow(uint64_t position) const {
  return position >= burst_first_ && position < burst_last_;
}

uint64_t FlashCrowdStreamGenerator::NextKey() {
  const bool burning = InBurstWindow(position_);
  ++position_;
  if (burning && rng_.NextBool(options_.burst_fraction)) return burst_key();
  return zipf_.Sample(&rng_);
}

void FlashCrowdStreamGenerator::Reset() {
  position_ = 0;
  rng_.Seed(options_.seed);
}

// --- hot-set-churn --------------------------------------------------------

HotSetChurnStreamGenerator::HotSetChurnStreamGenerator(
    const ScenarioOptions& options)
    : options_(options),
      zipf_(options.zipf_exponent, options.num_keys),
      rng_(options.seed) {
  SLB_CHECK(options_.num_keys >= 2);
  SLB_CHECK(options_.num_messages >= 1);
  SLB_CHECK(options_.num_epochs >= 1);
  SLB_CHECK(options_.hot_set_size >= 1);
  SLB_CHECK(options_.hot_set_size <= options_.num_keys);
  SLB_CHECK(IsFraction(options_.hot_fraction));
  epoch_length_ =
      std::max<uint64_t>(1, options_.num_messages / options_.num_epochs);
}

uint64_t HotSetChurnStreamGenerator::HotSetStart(uint64_t epoch) const {
  // Offset by K/2 so epoch 0's hot window does not coincide with the Zipf
  // head of the background traffic; advance by one full window per epoch so
  // successive hot sets are disjoint (until the key space wraps).
  return (options_.num_keys / 2 + epoch * options_.hot_set_size) %
         options_.num_keys;
}

uint64_t HotSetChurnStreamGenerator::NextKey() {
  epoch_ = std::min(position_ / epoch_length_, options_.num_epochs - 1);
  ++position_;
  if (rng_.NextBool(options_.hot_fraction)) {
    const uint64_t start = HotSetStart(epoch_);
    return (start + rng_.NextBounded(options_.hot_set_size)) %
           options_.num_keys;
  }
  return zipf_.Sample(&rng_);
}

void HotSetChurnStreamGenerator::Reset() {
  position_ = 0;
  epoch_ = 0;
  rng_.Seed(options_.seed);
}

// --- single-key-ramp ------------------------------------------------------

SingleKeyRampStreamGenerator::SingleKeyRampStreamGenerator(
    const ScenarioOptions& options)
    : options_(options),
      zipf_(options.zipf_exponent, options.num_keys),
      rng_(options.seed) {
  SLB_CHECK(options_.num_keys >= 2);
  SLB_CHECK(options_.num_messages >= 1);
  SLB_CHECK(IsFraction(options_.ramp_final_fraction));
}

double SingleKeyRampStreamGenerator::RampShare(uint64_t position) const {
  return options_.ramp_final_fraction * static_cast<double>(position) /
         static_cast<double>(options_.num_messages);
}

uint64_t SingleKeyRampStreamGenerator::NextKey() {
  const double share = RampShare(position_);
  ++position_;
  if (rng_.NextBool(share)) return ramp_key();
  return zipf_.Sample(&rng_);
}

void SingleKeyRampStreamGenerator::Reset() {
  position_ = 0;
  rng_.Seed(options_.seed);
}

// --- correlated-burst -----------------------------------------------------

CorrelatedBurstStreamGenerator::CorrelatedBurstStreamGenerator(
    const ScenarioOptions& options)
    : options_(options),
      zipf_(options.zipf_exponent, options.num_keys),
      rng_(options.seed) {
  SLB_CHECK(options_.num_keys >= 2);
  SLB_CHECK(options_.num_messages >= 1);
  SLB_CHECK(IsFraction(options_.burst_fraction));
  SLB_CHECK(IsFraction(options_.burst_begin));
  SLB_CHECK(IsFraction(options_.burst_end));
  SLB_CHECK(options_.burst_begin <= options_.burst_end);
  SLB_CHECK(options_.burst_group_size >= 1);
  SLB_CHECK(options_.burst_group_size <= options_.num_keys);
  const double m = static_cast<double>(options_.num_messages);
  burst_first_ = static_cast<uint64_t>(options_.burst_begin * m);
  burst_last_ = static_cast<uint64_t>(options_.burst_end * m);
}

bool CorrelatedBurstStreamGenerator::InBurstWindow(uint64_t position) const {
  return position >= burst_first_ && position < burst_last_;
}

uint64_t CorrelatedBurstStreamGenerator::NextKey() {
  const bool burning = InBurstWindow(position_);
  ++position_;
  if (burning && rng_.NextBool(options_.burst_fraction)) {
    return group_start() + rng_.NextBounded(options_.burst_group_size);
  }
  return zipf_.Sample(&rng_);
}

void CorrelatedBurstStreamGenerator::Reset() {
  position_ = 0;
  rng_.Seed(options_.seed);
}

// --- diurnal --------------------------------------------------------------

DiurnalStreamGenerator::DiurnalStreamGenerator(const ScenarioOptions& options)
    : options_(options),
      band_zipf_(options.zipf_exponent,
                 std::max<uint64_t>(
                     1, options.num_keys /
                            std::max<uint64_t>(1, options.diurnal_num_bands))),
      rng_(options.seed) {
  SLB_CHECK(options_.num_keys >= 2);
  SLB_CHECK(options_.num_messages >= 1);
  SLB_CHECK(options_.diurnal_period >= 2);
  SLB_CHECK(options_.diurnal_num_bands >= 1);
  SLB_CHECK(options_.diurnal_num_bands <= options_.num_keys);
  SLB_CHECK(IsFraction(options_.diurnal_amplitude));
  keys_per_band_ = options_.num_keys / options_.diurnal_num_bands;
  cumulative_weight_.resize(options_.diurnal_num_bands, 0.0);
}

uint64_t DiurnalStreamGenerator::num_keys() const {
  return keys_per_band_ * options_.diurnal_num_bands;
}

double DiurnalStreamGenerator::BandIntensity(uint64_t band,
                                             uint64_t position) const {
  const double cycle_fraction =
      static_cast<double>(position % options_.diurnal_period) /
      static_cast<double>(options_.diurnal_period);
  const double phase =
      2.0 * M_PI *
      (cycle_fraction + static_cast<double>(band) /
                            static_cast<double>(options_.diurnal_num_bands));
  return 1.0 + options_.diurnal_amplitude * std::sin(phase);
}

void DiurnalStreamGenerator::RefreshWeights(uint64_t position) {
  // Weights are piecewise-constant over kPhaseSlots slots per cycle, so the
  // per-message cost is one slot comparison; the sines are re-evaluated only
  // at slot boundaries.
  const uint64_t slot =
      (position % options_.diurnal_period) * kPhaseSlots /
      options_.diurnal_period;
  if (slot == slot_) return;
  slot_ = slot;
  // Representative position at the slot center.
  const uint64_t slot_center =
      (2 * slot + 1) * options_.diurnal_period / (2 * kPhaseSlots);
  double cumulative = 0.0;
  for (uint64_t b = 0; b < options_.diurnal_num_bands; ++b) {
    cumulative += BandIntensity(b, slot_center);
    cumulative_weight_[b] = cumulative;
  }
}

uint64_t DiurnalStreamGenerator::NextKey() {
  RefreshWeights(position_);
  ++position_;
  const double u = rng_.NextDouble() * cumulative_weight_.back();
  uint64_t band = 0;
  while (band + 1 < options_.diurnal_num_bands &&
         u >= cumulative_weight_[band]) {
    ++band;
  }
  return band * keys_per_band_ + band_zipf_.Sample(&rng_);
}

void DiurnalStreamGenerator::Reset() {
  position_ = 0;
  slot_ = ~uint64_t{0};
  rng_.Seed(options_.seed);
}

// --- key-space-growth -----------------------------------------------------

KeySpaceGrowthStreamGenerator::KeySpaceGrowthStreamGenerator(
    const ScenarioOptions& options)
    : options_(options),
      zipf_(options.zipf_exponent, options.num_keys),
      rng_(options.seed) {
  SLB_CHECK(options_.num_keys >= 2);
  SLB_CHECK(options_.num_messages >= 1);
  SLB_CHECK(options_.growth_initial_fraction > 0.0);
  SLB_CHECK(options_.growth_initial_fraction <= 1.0);
  SLB_CHECK(options_.growth_rate >= 0.0);
  SLB_CHECK(options_.growth_rate < 1.0);
  initial_live_ = std::clamp<uint64_t>(
      static_cast<uint64_t>(options_.growth_initial_fraction *
                            static_cast<double>(options_.num_keys)),
      2, options_.num_keys);
  live_ = initial_live_;
}

uint64_t KeySpaceGrowthStreamGenerator::NextKey() {
  ++position_;
  if (live_ < options_.num_keys && rng_.NextBool(options_.growth_rate)) {
    ++live_;
  }
  // Zipf rank over the live prefix, anchored at the FRONTIER: rank 0 is the
  // newest arrival. Sampling rejects ranks beyond the live count (the Zipf
  // mass concentrates at low ranks, so a handful of tries suffice); the
  // modulo fallback keeps the draw total and the pull O(1) worst-case.
  uint64_t rank = zipf_.Sample(&rng_);
  for (int tries = 0; rank >= live_ && tries < 64; ++tries) {
    rank = zipf_.Sample(&rng_);
  }
  if (rank >= live_) rank %= live_;
  return live_ - 1 - rank;
}

void KeySpaceGrowthStreamGenerator::Reset() {
  position_ = 0;
  live_ = initial_live_;
  rng_.Seed(options_.seed);
}

// --- scale-out-under-flash-crowd ------------------------------------------

ScaleOutFlashCrowdStreamGenerator::ScaleOutFlashCrowdStreamGenerator(
    const ScenarioOptions& options)
    : options_(options),
      zipf_(options.zipf_exponent, options.num_keys),
      rng_(options.seed) {
  SLB_CHECK(options_.num_keys >= 2);
  SLB_CHECK(options_.num_messages >= 1);
  SLB_CHECK(IsFraction(options_.burst_fraction));
  SLB_CHECK(IsFraction(options_.burst_begin));
  SLB_CHECK(options_.burst_group_size >= 1);
  SLB_CHECK(options_.burst_group_size <= options_.num_keys);
  burst_first_ = static_cast<uint64_t>(
      options_.burst_begin * static_cast<double>(options_.num_messages));
}

double ScaleOutFlashCrowdStreamGenerator::BurstShare(uint64_t position) const {
  if (position < burst_first_ || options_.num_messages <= burst_first_) {
    return 0.0;
  }
  // Step to fraction/2 at ignition, then ramp linearly to the full fraction
  // at stream end: the load grows and KEEPS growing (no receding edge).
  const double progress = static_cast<double>(position - burst_first_) /
                          static_cast<double>(options_.num_messages - burst_first_);
  return options_.burst_fraction * 0.5 * (1.0 + progress);
}

uint64_t ScaleOutFlashCrowdStreamGenerator::NextKey() {
  const double share = BurstShare(position_);
  ++position_;
  if (share > 0.0 && rng_.NextBool(share)) {
    return group_start() + rng_.NextBounded(options_.burst_group_size);
  }
  return zipf_.Sample(&rng_);
}

void ScaleOutFlashCrowdStreamGenerator::Reset() {
  position_ = 0;
  rng_.Seed(options_.seed);
}

// --- scale-in-during-drift ------------------------------------------------

ScaleInDriftStreamGenerator::ScaleInDriftStreamGenerator(
    const ScenarioOptions& options)
    : options_(options),
      zipf_(options.zipf_exponent, options.num_keys),
      rng_(options.seed) {
  SLB_CHECK(options_.num_keys >= 2);
  SLB_CHECK(options_.num_messages >= 1);
  SLB_CHECK(options_.num_epochs >= 1);
  SLB_CHECK(options_.shrink_final_fraction > 0.0);
  SLB_CHECK(options_.shrink_final_fraction <= 1.0);
  SLB_CHECK(IsFraction(options_.drift_swap_fraction));
  epoch_length_ =
      std::max<uint64_t>(1, options_.num_messages / options_.num_epochs);
}

uint64_t ScaleInDriftStreamGenerator::LiveKeys(uint64_t epoch) const {
  const double progress =
      options_.num_epochs <= 1
          ? 1.0
          : static_cast<double>(epoch) /
                static_cast<double>(options_.num_epochs - 1);
  const double fraction =
      1.0 - (1.0 - options_.shrink_final_fraction) * progress;
  return std::max<uint64_t>(
      2, static_cast<uint64_t>(fraction *
                               static_cast<double>(options_.num_keys)));
}

uint64_t ScaleInDriftStreamGenerator::NextKey() {
  epoch_ = std::min(position_ / epoch_length_, options_.num_epochs - 1);
  ++position_;
  const uint64_t live = LiveKeys(epoch_);
  // Zipf rank over the live prefix: reject draws past it (the mass sits at
  // low ranks, so a handful of tries suffice), modulo as the O(1) fallback.
  uint64_t rank = zipf_.Sample(&rng_);
  for (int tries = 0; rank >= live && tries < 64; ++tries) {
    rank = zipf_.Sample(&rng_);
  }
  if (rank >= live) rank %= live;
  // Per-epoch head rotation: identities shift by a drift_swap_fraction slice
  // of the live space each epoch, so the hot keys keep moving while the key
  // space contracts.
  const uint64_t rotation = static_cast<uint64_t>(
      std::ceil(options_.drift_swap_fraction * static_cast<double>(live)));
  return (rank + epoch_ * rotation) % live;
}

void ScaleInDriftStreamGenerator::Reset() {
  position_ = 0;
  epoch_ = 0;
  rng_.Seed(options_.seed);
}

// --- replay-with-noise ----------------------------------------------------

ReplayWithNoiseStreamGenerator::ReplayWithNoiseStreamGenerator(
    const ScenarioOptions& options, std::unique_ptr<StreamGenerator> base)
    : options_(options),
      base_(std::move(base)),
      rng_(options.seed ^ kNoiseSeedSalt) {
  SLB_CHECK(base_ != nullptr);
  SLB_CHECK(IsFraction(options_.noise_rate));
  SLB_CHECK(options_.noise_window >= 1);
  FillWindow();
}

void ReplayWithNoiseStreamGenerator::FillWindow() {
  window_.clear();
  const uint64_t prefill =
      std::min<uint64_t>(options_.noise_window, base_->num_messages());
  window_.reserve(prefill);
  for (uint64_t i = 0; i < prefill; ++i) window_.push_back(base_->NextKey());
  pulled_ = prefill;
}

uint64_t ReplayWithNoiseStreamGenerator::NextKey() {
  SLB_CHECK(!window_.empty()) << "pulled past num_messages(); Reset() first";
  const uint64_t slot = rng_.NextBounded(window_.size());
  uint64_t key = window_[slot];
  if (pulled_ < base_->num_messages()) {
    window_[slot] = base_->NextKey();
    ++pulled_;
  } else {
    // Base exhausted: drain the window (exactly num_messages() keys total).
    window_[slot] = window_.back();
    window_.pop_back();
  }
  if (rng_.NextBool(options_.noise_rate)) {
    key = rng_.NextBounded(num_keys());
  }
  return key;
}

void ReplayWithNoiseStreamGenerator::Reset() {
  base_->Reset();
  rng_.Seed(options_.seed ^ kNoiseSeedSalt);
  FillWindow();
}

// --- factory --------------------------------------------------------------

std::vector<std::string> ScenarioNames() {
  return {"zipf",          "drift",           "flash-crowd",
          "hot-set-churn", "single-key-ramp", "correlated-burst",
          "diurnal",       "key-space-growth", "replay-with-noise",
          "scale-out-under-flash-crowd", "scale-in-during-drift"};
}

Result<std::unique_ptr<StreamGenerator>> MakeScenario(
    const std::string& name, const ScenarioOptions& options) {
  SLB_RETURN_NOT_OK(ValidateCommon(options));

  if (name == "zipf" || name == "drift") {
    SyntheticStreamGenerator::Options synth;
    synth.name = name;
    synth.zipf_exponent = options.zipf_exponent;
    synth.num_keys = options.num_keys;
    synth.num_messages = options.num_messages;
    synth.seed = options.seed;
    if (name == "drift") {
      if (options.num_epochs < 1) {
        return Status::InvalidArgument("drift needs num_epochs >= 1");
      }
      if (!IsFraction(options.drift_swap_fraction)) {
        return Status::InvalidArgument("drift_swap_fraction must be in [0,1]");
      }
      synth.num_epochs = options.num_epochs;
      synth.drift_swap_fraction = options.drift_swap_fraction;
    }
    return {std::make_unique<SyntheticStreamGenerator>(synth)};
  }
  if (name == "flash-crowd") {
    if (!IsFraction(options.burst_fraction)) {
      return Status::InvalidArgument("burst_fraction must be in [0,1]");
    }
    if (!IsFraction(options.burst_begin) || !IsFraction(options.burst_end) ||
        options.burst_begin > options.burst_end) {
      return Status::InvalidArgument(
          "burst window must satisfy 0 <= begin <= end <= 1");
    }
    return {std::make_unique<FlashCrowdStreamGenerator>(options)};
  }
  if (name == "hot-set-churn") {
    if (options.hot_set_size < 1 || options.hot_set_size > options.num_keys) {
      return Status::InvalidArgument("hot_set_size must be in [1, num_keys]");
    }
    if (!IsFraction(options.hot_fraction)) {
      return Status::InvalidArgument("hot_fraction must be in [0,1]");
    }
    if (options.num_epochs < 1) {
      return Status::InvalidArgument("hot-set-churn needs num_epochs >= 1");
    }
    return {std::make_unique<HotSetChurnStreamGenerator>(options)};
  }
  if (name == "single-key-ramp") {
    if (!IsFraction(options.ramp_final_fraction)) {
      return Status::InvalidArgument("ramp_final_fraction must be in [0,1]");
    }
    return {std::make_unique<SingleKeyRampStreamGenerator>(options)};
  }
  if (name == "correlated-burst") {
    if (!IsFraction(options.burst_fraction)) {
      return Status::InvalidArgument("burst_fraction must be in [0,1]");
    }
    if (!IsFraction(options.burst_begin) || !IsFraction(options.burst_end) ||
        options.burst_begin > options.burst_end) {
      return Status::InvalidArgument(
          "burst window must satisfy 0 <= begin <= end <= 1");
    }
    if (options.burst_group_size < 1 ||
        options.burst_group_size > options.num_keys) {
      return Status::InvalidArgument(
          "burst_group_size must be in [1, num_keys]");
    }
    return {std::make_unique<CorrelatedBurstStreamGenerator>(options)};
  }
  if (name == "diurnal") {
    if (options.diurnal_period < 2) {
      return Status::InvalidArgument("diurnal_period must be >= 2 messages");
    }
    if (options.diurnal_num_bands < 1 ||
        options.diurnal_num_bands > options.num_keys) {
      return Status::InvalidArgument(
          "diurnal_num_bands must be in [1, num_keys]");
    }
    if (!IsFraction(options.diurnal_amplitude)) {
      return Status::InvalidArgument("diurnal_amplitude must be in [0,1]");
    }
    return {std::make_unique<DiurnalStreamGenerator>(options)};
  }
  if (name == "key-space-growth") {
    if (options.growth_initial_fraction <= 0.0 ||
        options.growth_initial_fraction > 1.0) {
      return Status::InvalidArgument(
          "growth_initial_fraction must be in (0,1]");
    }
    if (options.growth_rate < 0.0 || options.growth_rate >= 1.0) {
      return Status::InvalidArgument("growth_rate must be in [0,1)");
    }
    return {std::make_unique<KeySpaceGrowthStreamGenerator>(options)};
  }
  if (name == "scale-out-under-flash-crowd") {
    if (!IsFraction(options.burst_fraction)) {
      return Status::InvalidArgument("burst_fraction must be in [0,1]");
    }
    if (!IsFraction(options.burst_begin)) {
      return Status::InvalidArgument("burst_begin must be in [0,1]");
    }
    if (options.burst_group_size < 1 ||
        options.burst_group_size > options.num_keys) {
      return Status::InvalidArgument(
          "burst_group_size must be in [1, num_keys]");
    }
    return {std::make_unique<ScaleOutFlashCrowdStreamGenerator>(options)};
  }
  if (name == "scale-in-during-drift") {
    if (options.num_epochs < 1) {
      return Status::InvalidArgument(
          "scale-in-during-drift needs num_epochs >= 1");
    }
    if (options.shrink_final_fraction <= 0.0 ||
        options.shrink_final_fraction > 1.0) {
      return Status::InvalidArgument("shrink_final_fraction must be in (0,1]");
    }
    if (!IsFraction(options.drift_swap_fraction)) {
      return Status::InvalidArgument("drift_swap_fraction must be in [0,1]");
    }
    return {std::make_unique<ScaleInDriftStreamGenerator>(options)};
  }
  if (name == "replay-with-noise") {
    if (options.noise_rate < 0.0 || options.noise_rate > 1.0) {
      return Status::InvalidArgument("noise_rate must be in [0,1]");
    }
    if (options.noise_window < 1) {
      return Status::InvalidArgument("noise_window must be >= 1");
    }
    if (options.replay_base == "replay-with-noise") {
      return Status::InvalidArgument(
          "replay_base cannot be replay-with-noise itself");
    }
    auto base = MakeScenario(options.replay_base, options);
    if (!base.ok()) {
      return Status::InvalidArgument("replay-with-noise base scenario: " +
                                     base.status().ToString());
    }
    return {std::make_unique<ReplayWithNoiseStreamGenerator>(
        options, std::move(*base))};
  }
  return Status::InvalidArgument("unknown scenario: " + name);
}

}  // namespace slb
