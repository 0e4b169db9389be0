// Reusable spouts and bolts for common streaming-aggregation patterns.
//
// The bolts are the operators the paper's motivating applications are built
// from (Sec. V: "computing statistics for classification, or extracting
// frequent patterns"), the spouts the two keyed sources the benches and
// tests feed them with, all written against the topology API so examples
// and tests can compose them. All are deterministic and single-threaded
// (the engine serializes task execution).

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "slb/common/rng.h"
#include "slb/dspe/topology.h"
#include "slb/sketch/space_saving.h"
#include "slb/workload/zipf.h"

namespace slb {

/// Replays a shared key vector: spout task `offset` of `stride` emits keys
/// offset, offset + stride, offset + 2 * stride, ... (a round-robin split of
/// one global stream among the spout tasks). The vector is read-only, so
/// tasks on different threads may share it.
class VectorSpout final : public Spout {
 public:
  VectorSpout(std::shared_ptr<const std::vector<uint64_t>> keys,
              uint64_t offset, uint64_t stride)
      : keys_(std::move(keys)), pos_(offset), stride_(stride) {}

  bool NextTuple(TopologyTuple* out) override {
    if (pos_ >= keys_->size()) return false;
    out->key = (*keys_)[pos_];
    out->value = 1;
    pos_ += stride_;
    return true;
  }

 private:
  std::shared_ptr<const std::vector<uint64_t>> keys_;
  uint64_t pos_;
  uint64_t stride_;
};

/// Emits `count` keys drawn from Zipf(z, keys) with its own generator.
class ZipfSpout final : public Spout {
 public:
  ZipfSpout(double z, uint64_t keys, uint64_t count, uint64_t seed)
      : zipf_(z, keys), remaining_(count), rng_(seed) {}

  bool NextTuple(TopologyTuple* out) override {
    if (remaining_ == 0) return false;
    --remaining_;
    out->key = zipf_.Sample(&rng_);
    out->value = 1;
    return true;
  }

 private:
  ZipfDistribution zipf_;
  uint64_t remaining_;
  Rng rng_;
};

/// Running per-key sum. The canonical stateful operator: its state fan-out
/// across tasks is exactly what the paper's memory analysis charges.
/// Optionally mirrors updates into a caller-owned sink (the engine owns the
/// bolt instances, so callers must not keep raw pointers into them).
class CountingBolt final : public Bolt {
 public:
  using Sink = std::function<void(uint64_t key, uint64_t value)>;

  explicit CountingBolt(Sink sink = nullptr) : sink_(std::move(sink)) {}

  void Execute(const TopologyTuple& tuple, OutputCollector*) override {
    counts_[tuple.key] += tuple.value;
    if (sink_) sink_(tuple.key, tuple.value);
  }
  size_t StateEntries() const override { return counts_.size(); }

  // Elastic key-state handoff: the state is the running sum itself, so a
  // migrating key ships its count and the receiver adds it in (installs do
  // not re-fire the sink — the updates were already mirrored at the source).
  bool SupportsStateHandoff() const override { return true; }
  void AppendStateKeys(std::vector<uint64_t>* keys) const override {
    keys->reserve(keys->size() + counts_.size());
    for (const auto& [key, count] : counts_) keys->push_back(key);
  }
  bool ExtractKeyState(uint64_t key, uint64_t* value) override {
    auto it = counts_.find(key);
    if (it == counts_.end()) {
      *value = 0;
      return false;
    }
    *value = it->second;
    counts_.erase(it);
    return true;
  }
  void InstallKeyState(uint64_t key, uint64_t value) override {
    counts_[key] += value;
  }

 private:
  std::unordered_map<uint64_t, uint64_t> counts_;
  Sink sink_;
};

/// Emits one partial-sum tuple per key every `window` input tuples — the
/// periodic "flush" stage that makes multi-worker key splitting exact:
/// downstream, a MergingBolt adds the partials back together (the
/// aggregation phase of Sec. IV-B, cost proportional to d).
class WindowedSumBolt final : public Bolt {
 public:
  explicit WindowedSumBolt(uint64_t window) : window_(window) {}

  void Execute(const TopologyTuple& tuple, OutputCollector* out) override {
    partial_[tuple.key] += tuple.value;
    if (++since_flush_ >= window_) Flush(out);
  }

  size_t StateEntries() const override { return partial_.size(); }

 private:
  void Flush(OutputCollector* out) {
    for (const auto& [key, sum] : partial_) {
      out->Emit(TopologyTuple{key, sum});
    }
    partial_.clear();
    since_flush_ = 0;
  }

  uint64_t window_;
  uint64_t since_flush_ = 0;
  std::unordered_map<uint64_t, uint64_t> partial_;
};

/// Adds up partial sums per key (the reconciliation stage downstream of a
/// WindowedSumBolt; routed with key grouping so each key's partials meet).
class MergingBolt final : public Bolt {
 public:
  using Sink = std::function<void(uint64_t key, uint64_t value)>;

  explicit MergingBolt(Sink sink = nullptr) : sink_(std::move(sink)) {}

  void Execute(const TopologyTuple& tuple, OutputCollector*) override {
    totals_[tuple.key] += tuple.value;
    if (sink_) sink_(tuple.key, tuple.value);
  }
  size_t StateEntries() const override { return totals_.size(); }

  bool SupportsStateHandoff() const override { return true; }
  void AppendStateKeys(std::vector<uint64_t>* keys) const override {
    keys->reserve(keys->size() + totals_.size());
    for (const auto& [key, total] : totals_) keys->push_back(key);
  }
  bool ExtractKeyState(uint64_t key, uint64_t* value) override {
    auto it = totals_.find(key);
    if (it == totals_.end()) {
      *value = 0;
      return false;
    }
    *value = it->second;
    totals_.erase(it);
    return true;
  }
  void InstallKeyState(uint64_t key, uint64_t value) override {
    totals_[key] += value;
  }

 private:
  std::unordered_map<uint64_t, uint64_t> totals_;
  Sink sink_;
};

/// Tracks the top keys of its sub-stream with a SpaceSaving sketch and
/// periodically emits its current heavy hitters (key, estimated count) —
/// the distributed top-k pattern ([11, 12]).
class TopKBolt final : public Bolt {
 public:
  TopKBolt(size_t sketch_capacity, size_t k, uint64_t report_every)
      : sketch_(sketch_capacity), k_(k), report_every_(report_every) {}

  void Execute(const TopologyTuple& tuple, OutputCollector* out) override {
    sketch_.UpdateAndEstimate(tuple.key);
    if (++since_report_ >= report_every_) {
      since_report_ = 0;
      auto counters = sketch_.Counters();
      if (counters.size() > k_) counters.resize(k_);
      for (const HeavyKey& hk : counters) {
        out->Emit(TopologyTuple{hk.key, hk.count});
      }
    }
  }
  size_t StateEntries() const override { return sketch_.memory_counters(); }

 private:
  SpaceSaving sketch_;
  size_t k_;
  uint64_t report_every_;
  uint64_t since_report_ = 0;
};

/// Applies a pure function to each tuple (stateless transform; the kind of
/// operator shuffle grouping is ideal for).
class MapBolt final : public Bolt {
 public:
  using Fn = std::function<TopologyTuple(const TopologyTuple&)>;

  explicit MapBolt(Fn fn) : fn_(std::move(fn)) {}

  void Execute(const TopologyTuple& tuple, OutputCollector* out) override {
    out->Emit(fn_(tuple));
  }

 private:
  Fn fn_;
};

/// Drops tuples failing a predicate.
class FilterBolt final : public Bolt {
 public:
  using Predicate = std::function<bool(const TopologyTuple&)>;

  explicit FilterBolt(Predicate pred) : pred_(std::move(pred)) {}

  void Execute(const TopologyTuple& tuple, OutputCollector* out) override {
    if (pred_(tuple)) out->Emit(tuple);
  }

 private:
  Predicate pred_;
};

}  // namespace slb
