#include "slb/core/head_tail_partitioner.h"

#include <algorithm>
#include <cmath>

#include "slb/common/logging.h"
#include "slb/sketch/count_min.h"
#include "slb/sketch/decaying_space_saving.h"
#include "slb/sketch/lossy_counting.h"
#include "slb/sketch/misra_gries.h"
#include "slb/sketch/space_saving.h"

namespace slb {
namespace {

// Auto-size so the count error stays below theta/2 of the stream:
// SpaceSaving/Misra-Gries error <= N/capacity, so capacity = 2/theta.
size_t AutoSketchCapacity(double theta) {
  return std::max<size_t>(static_cast<size_t>(std::ceil(2.0 / theta)), 64);
}

}  // namespace

std::unique_ptr<FrequencyEstimator> HeadTailPartitioner::MakeSketch(
    const PartitionerOptions& options) {
  const double theta = options.theta();
  const size_t capacity = options.sketch_capacity > 0
                              ? options.sketch_capacity
                              : AutoSketchCapacity(theta);
  switch (options.sketch) {
    case SketchKind::kSpaceSaving:
      return std::make_unique<SpaceSaving>(capacity);
    case SketchKind::kMisraGries:
      return std::make_unique<MisraGries>(capacity);
    case SketchKind::kLossyCounting:
      return std::make_unique<LossyCounting>(std::min(0.5, theta / 2.0));
    case SketchKind::kCountMin:
      return std::make_unique<CountMin>(CountMin::ForError(
          std::min(0.5, theta / 2.0), 1e-4, capacity,
          options.hash_seed ^ 0xc01dbeefULL));
    case SketchKind::kDecayingSpaceSaving: {
      // One half-life per ~4/theta messages: long enough that a stable
      // head key keeps a decisive count, short enough to forget yesterday's
      // hot keys within a few head-turnover periods. decay_auto_tune lets
      // the sketch walk away from this starting point when the observed
      // head churn disagrees with it.
      const auto half_life =
          static_cast<uint64_t>(std::max(1024.0, std::ceil(4.0 / theta)));
      DecayingSpaceSaving::AutoTune tune;
      if (options.decay_auto_tune) {
        tune.enabled = true;
        tune.min_half_life = std::max<uint64_t>(256, half_life / 16);
        // The ceiling must reach "effectively no decay": on a stable head
        // the tuner keeps doubling, and capping near the starting point
        // would freeze the over-decay it exists to escape (a 1024-message
        // half-life on a 10M-message stream shreds the counts).
        tune.max_half_life = std::max(half_life * 16, uint64_t{1} << 22);
      }
      return std::make_unique<DecayingSpaceSaving>(capacity, half_life, tune);
    }
  }
  return nullptr;
}

HeadTailPartitioner::HeadTailPartitioner(const PartitionerOptions& options)
    : options_(options),
      family_(options.num_workers, options.num_workers, options.hash_seed),
      sketch_(MakeSketch(options)),
      loads_(options.num_workers, 0),
      head_cache_bound_(AutoSketchCapacity(options.theta())) {
  SLB_CHECK(options_.num_workers >= 1);
  SLB_CHECK(options_.theta_ratio > 0.0) << "theta must be positive";
  SLB_CHECK(sketch_ != nullptr);
  signal_.Init(options);
}

Status HeadTailPartitioner::Rescale(uint32_t new_num_workers) {
  if (new_num_workers < 1) {
    return Status::InvalidArgument("rescale needs at least one worker");
  }
  options_.num_workers = new_num_workers;
  family_ = HashFamily(new_num_workers, new_num_workers, options_.hash_seed);
  loads_.resize(new_num_workers, 0);
  signal_.Rescale(new_num_workers, messages_);
  ClearHeadCache();
  head_cache_bound_ = AutoSketchCapacity(options_.theta());
  // Force Reoptimize() on the next Route(): derived head policy (D-Choices'
  // d, the theta threshold's 1/n factor) must see the new n before routing.
  next_reoptimize_ = messages_;
  return Status::OK();
}

void HeadTailPartitioner::ClearHeadCache() {
  head_cache_.Clear();
  head_candidates_.clear();
}

const uint32_t* HeadTailPartitioner::HeadCandidates(uint64_t key, uint32_t d) {
  if (d != head_cache_d_) {
    ClearHeadCache();
    head_cache_d_ = d;
  }
  const int32_t found = head_cache_.Get(key);
  if (found != FlatIndexMap::kAbsent) return &head_candidates_[found];
  if (head_cache_.size() >= head_cache_bound_) ClearHeadCache();
  const size_t offset = head_candidates_.size();
  head_candidates_.resize(offset + d);
  family_.Candidates(key, d, &head_candidates_[offset]);
  head_cache_.Set(key, static_cast<int32_t>(offset));
  return &head_candidates_[offset];
}

uint32_t HeadTailPartitioner::LeastLoadedOfChoices(uint64_t key, uint32_t d) {
  // The family holds one function per worker, so the two-choices tail step
  // must degrade to one choice when n == 1 (d > n never helps anyway: the
  // candidate set cannot contain more than n distinct workers).
  d = std::min(d, family_.max_functions());
  if (d == 2 && !signal_.active()) {
    // The tail-key fast path (the overwhelming majority of routed messages):
    // pair-hash both candidates and select branchlessly — on skewed streams
    // the load comparison is unpredictable, so a cmov beats a branch.
    uint32_t w0, w1;
    family_.Worker2(key, &w0, &w1);
    return loads_[w1] < loads_[w0] ? w1 : w0;
  }
  uint32_t pair[2] = {};
  const uint32_t* candidates = pair;
  if (d > 2) {
    candidates = HeadCandidates(key, d);
  } else {
    family_.Candidates(key, d, pair);
  }
  // First minimum wins ties, in candidate order F_1..F_d.
  uint32_t best = candidates[0];
  if (signal_.active()) {
    // Cost-aware path: same candidate set, min over the cost/in-flight
    // signal instead of the message count.
    double best_load = signal_.At(best, messages_);
    double best_tie = signal_.TieBreak(best);
    for (uint32_t i = 1; i < d; ++i) {
      const uint32_t candidate = candidates[i];
      const double load = signal_.At(candidate, messages_);
      const double tie = signal_.TieBreak(candidate);
      if (load < best_load || (load == best_load && tie < best_tie)) {
        best = candidate;
        best_load = load;
        best_tie = tie;
      }
    }
    return best;
  }
  uint64_t best_load = loads_[best];
  for (uint32_t i = 1; i < d; ++i) {
    // Branchless select, as on the tail path: which candidate is lighter is
    // unpredictable, so a cmov chain beats a mispredicted branch.
    const uint32_t candidate = candidates[i];
    const uint64_t load = loads_[candidate];
    const bool lighter = load < best_load;
    best = lighter ? candidate : best;
    best_load = lighter ? load : best_load;
  }
  return best;
}

uint32_t HeadTailPartitioner::LeastLoadedOverall() const {
  if (signal_.active()) {
    uint32_t best = 0;
    double best_load = signal_.At(0, messages_);
    double best_tie = signal_.TieBreak(0);
    for (uint32_t w = 1; w < loads_.size(); ++w) {
      const double load = signal_.At(w, messages_);
      const double tie = signal_.TieBreak(w);
      if (load < best_load || (load == best_load && tie < best_tie)) {
        best = w;
        best_load = load;
        best_tie = tie;
      }
    }
    return best;
  }
  uint32_t best = 0;
  uint64_t best_load = loads_[0];
  for (uint32_t w = 1; w < loads_.size(); ++w) {
    if (loads_[w] < best_load) {
      best = w;
      best_load = loads_[w];
    }
  }
  return best;
}

uint32_t HeadTailPartitioner::Route(uint64_t key) {
  if (messages_ >= next_reoptimize_) {
    Reoptimize();
    // Warm-up: re-run the optimizer at doubling intervals (64, 128, ...) so
    // the head policy adapts within the first few thousand messages, then
    // settle into the steady-state cadence.
    const uint64_t doubled = std::max<uint64_t>(messages_ * 2, 64);
    next_reoptimize_ =
        std::min(doubled, messages_ + options_.reoptimize_interval);
  }
  ++messages_;
  const uint64_t estimate = sketch_->UpdateAndEstimate(key);

  // k is in the head iff its estimated frequency clears theta. The floor of
  // 2 occurrences avoids declaring every key "hot" in the first 1/theta
  // messages of the stream, where theta * messages < 1.
  const double threshold =
      std::max(2.0, options_.theta() * static_cast<double>(messages_));
  last_was_head_ = static_cast<double>(estimate) >= threshold;

  const uint32_t worker =
      last_was_head_ ? RouteHead(key) : LeastLoadedOfChoices(key, 2);
  ++loads_[worker];
  if (signal_.active()) signal_.OnRoute(worker, signal_.CostOf(key), messages_);
  return worker;
}

}  // namespace slb
