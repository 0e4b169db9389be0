#include "slb/core/basic_groupings.h"

#include <algorithm>

#include "slb/common/logging.h"

namespace slb {

KeyGrouping::KeyGrouping(const PartitionerOptions& options)
    : family_(1, options.num_workers, options.hash_seed) {}

uint32_t KeyGrouping::Route(uint64_t key) {
  ++messages_;
  return family_.Worker(key, 0);
}

Status KeyGrouping::Rescale(uint32_t new_num_workers) {
  if (new_num_workers < 1) {
    return Status::InvalidArgument("rescale needs at least one worker");
  }
  family_ = HashFamily(1, new_num_workers, family_.seed());
  return Status::OK();
}

ShuffleGrouping::ShuffleGrouping(const PartitionerOptions& options)
    : num_workers_(options.num_workers) {
  SLB_CHECK(num_workers_ >= 1);
}

uint32_t ShuffleGrouping::Route(uint64_t /*key*/) {
  ++messages_;
  const uint32_t worker = next_;
  next_ = (next_ + 1) % num_workers_;
  return worker;
}

Status ShuffleGrouping::Rescale(uint32_t new_num_workers) {
  if (new_num_workers < 1) {
    return Status::InvalidArgument("rescale needs at least one worker");
  }
  num_workers_ = new_num_workers;
  next_ %= num_workers_;
  return Status::OK();
}

GreedyD::GreedyD(const PartitionerOptions& options, uint32_t d, std::string name)
    : family_(std::clamp(d, 1u, options.num_workers), options.num_workers,
              options.hash_seed),
      requested_d_(d),
      d_(std::clamp(d, 1u, options.num_workers)),
      name_(std::move(name)),
      loads_(options.num_workers, 0) {
  SLB_CHECK(options.num_workers >= 1);
  signal_.Init(options);
}

Status GreedyD::Rescale(uint32_t new_num_workers) {
  if (new_num_workers < 1) {
    return Status::InvalidArgument("rescale needs at least one worker");
  }
  d_ = std::clamp(requested_d_, 1u, new_num_workers);
  family_ = HashFamily(d_, new_num_workers, family_.seed());
  loads_.resize(new_num_workers, 0);
  signal_.Rescale(new_num_workers, messages_);
  return Status::OK();
}

uint32_t GreedyD::Route(uint64_t key) {
  ++messages_;
  if (signal_.active()) {
    // Cost-aware path: d-way min over the cost/in-flight signal. The
    // candidate set is identical to the count path (same hash family); no
    // branchless special case — the cost-model call dominates anyway.
    uint32_t best = family_.Worker(key, 0);
    double best_load = signal_.At(best, messages_);
    double best_tie = signal_.TieBreak(best);
    for (uint32_t i = 1; i < d_; ++i) {
      const uint32_t candidate = family_.Worker(key, i);
      const double load = signal_.At(candidate, messages_);
      const double tie = signal_.TieBreak(candidate);
      if (load < best_load || (load == best_load && tie < best_tie)) {
        best = candidate;
        best_load = load;
        best_tie = tie;
      }
    }
    ++loads_[best];
    signal_.OnRoute(best, signal_.CostOf(key), messages_);
    return best;
  }
  uint32_t best;
  if (d_ == 2) {
    // The PKG fast path: pair-hash both candidates, pick the lighter one
    // with a branchless select (skewed streams make the comparison outcome
    // unpredictable, so a cmov beats a branch here).
    uint32_t w0, w1;
    family_.Worker2(key, &w0, &w1);
    best = loads_[w1] < loads_[w0] ? w1 : w0;
  } else {
    best = family_.Worker(key, 0);
    uint64_t best_load = loads_[best];
    for (uint32_t i = 1; i < d_; ++i) {
      const uint32_t candidate = family_.Worker(key, i);
      if (loads_[candidate] < best_load) {
        best = candidate;
        best_load = loads_[candidate];
      }
    }
  }
  ++loads_[best];
  return best;
}

PartialKeyGrouping::PartialKeyGrouping(const PartitionerOptions& options)
    : inner_(options, 2, "PKG") {}

}  // namespace slb
