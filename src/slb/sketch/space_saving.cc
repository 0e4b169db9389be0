#include "slb/sketch/space_saving.h"

#include <algorithm>
#include <unordered_map>

#include "slb/common/logging.h"

namespace slb {

SpaceSaving::SpaceSaving(size_t capacity) : capacity_(capacity) {
  SLB_CHECK(capacity >= 1) << "SpaceSaving capacity must be positive";
  counters_.reserve(capacity_);
  map_.Reserve(capacity_);
}

void SpaceSaving::Reset() {
  total_ = 0;
  counters_.clear();
  buckets_.clear();
  free_buckets_.clear();
  min_bucket_ = kNil;
  map_.Clear();
}

int32_t SpaceSaving::AllocBucket(uint64_t count) {
  int32_t b;
  if (!free_buckets_.empty()) {
    b = free_buckets_.back();
    free_buckets_.pop_back();
  } else {
    b = static_cast<int32_t>(buckets_.size());
    buckets_.push_back(Bucket{});
  }
  buckets_[b] = Bucket{count, kNil, kNil, kNil};
  return b;
}

void SpaceSaving::FreeBucketIfEmpty(int32_t b) {
  Bucket& bucket = buckets_[b];
  if (bucket.head != kNil) return;
  if (bucket.prev != kNil) buckets_[bucket.prev].next = bucket.next;
  if (bucket.next != kNil) buckets_[bucket.next].prev = bucket.prev;
  if (min_bucket_ == b) min_bucket_ = bucket.next;
  free_buckets_.push_back(b);
}

void SpaceSaving::DetachCounter(int32_t c) {
  Counter& counter = counters_[c];
  if (counter.prev != kNil) counters_[counter.prev].next = counter.next;
  if (counter.next != kNil) counters_[counter.next].prev = counter.prev;
  Bucket& bucket = buckets_[counter.bucket];
  if (bucket.head == c) bucket.head = counter.next;
  counter.prev = counter.next = kNil;
}

void SpaceSaving::AttachCounter(int32_t c, int32_t b) {
  Counter& counter = counters_[c];
  Bucket& bucket = buckets_[b];
  counter.bucket = b;
  counter.prev = kNil;
  counter.next = bucket.head;
  if (bucket.head != kNil) counters_[bucket.head].prev = c;
  bucket.head = c;
}

void SpaceSaving::IncrementCounter(int32_t c) {
  Counter& counter = counters_[c];
  const int32_t old_b = counter.bucket;
  const uint64_t new_count = counter.count + 1;
  const int32_t next_b = buckets_[old_b].next;
  const bool next_matches =
      next_b != kNil && buckets_[next_b].count == new_count;

  if (!next_matches && buckets_[old_b].head == c && counter.next == kNil) {
    // Alone in its bucket and no bucket holds count+1: bump the bucket in
    // place. The next bucket's count exceeds new_count, so the ascending
    // order (and min_bucket_) is unchanged — the hot path of a skewed
    // stream, whose hottest keys each hold a unique count.
    buckets_[old_b].count = new_count;
    counter.count = new_count;
    return;
  }

  DetachCounter(c);
  counter.count = new_count;

  int32_t target;
  if (next_matches) {
    target = next_b;
  } else {
    target = AllocBucket(new_count);
    // Link `target` right after old_b. Note AllocBucket may have invalidated
    // no references (index-based), but re-read neighbours after allocation.
    Bucket& old_bucket = buckets_[old_b];
    buckets_[target].prev = old_b;
    buckets_[target].next = old_bucket.next;
    if (old_bucket.next != kNil) buckets_[old_bucket.next].prev = target;
    old_bucket.next = target;
  }
  AttachCounter(c, target);
  FreeBucketIfEmpty(old_b);
}

uint64_t SpaceSaving::UpdateAndEstimate(uint64_t key) {
  ++total_;
  const int32_t found = map_.Get(key);
  if (found != FlatIndexMap::kAbsent) {
    IncrementCounter(found);
    return counters_[found].count;
  }

  if (counters_.size() < capacity_) {
    // Monitor the new key with exact count 1.
    const int32_t c = static_cast<int32_t>(counters_.size());
    counters_.push_back(Counter{key, 1, 0, kNil, kNil, kNil});
    int32_t b;
    if (min_bucket_ != kNil && buckets_[min_bucket_].count == 1) {
      b = min_bucket_;
    } else {
      b = AllocBucket(1);
      buckets_[b].next = min_bucket_;
      if (min_bucket_ != kNil) buckets_[min_bucket_].prev = b;
      min_bucket_ = b;
    }
    AttachCounter(c, b);
    map_.Set(key, c);
    return 1;
  }

  // Evict the (a) counter with the minimum count and recycle it for `key`,
  // charging the evicted count as error (SpaceSaving replacement rule).
  const int32_t c = buckets_[min_bucket_].head;
  Counter& counter = counters_[c];
  map_.Erase(counter.key);
  counter.error = counter.count;
  counter.key = key;
  map_.Set(key, c);
  IncrementCounter(c);
  return counters_[c].count;
}

uint64_t SpaceSaving::Estimate(uint64_t key) const {
  const int32_t c = map_.Get(key);
  if (c != FlatIndexMap::kAbsent) return counters_[c].count;
  // Any unmonitored key occurred at most min_count() times.
  return counters_.size() < capacity_ ? 0 : min_count();
}

uint64_t SpaceSaving::min_count() const {
  if (min_bucket_ == kNil) return 0;
  return buckets_[min_bucket_].count;
}

uint64_t SpaceSaving::GuaranteedCount(uint64_t key) const {
  const int32_t idx = map_.Get(key);
  if (idx == FlatIndexMap::kAbsent) return 0;
  const Counter& c = counters_[idx];
  return c.count - c.error;
}

std::vector<HeavyKey> SpaceSaving::Counters() const {
  std::vector<HeavyKey> out;
  out.reserve(counters_.size());
  for (const Counter& c : counters_) {
    out.push_back(HeavyKey{c.key, c.count, c.error});
  }
  std::sort(out.begin(), out.end(), [](const HeavyKey& a, const HeavyKey& b) {
    return a.count > b.count || (a.count == b.count && a.key < b.key);
  });
  return out;
}

std::vector<HeavyKey> SpaceSaving::HeavyHitters(double phi) const {
  const double threshold = phi * static_cast<double>(total_);
  std::vector<HeavyKey> out;
  for (const Counter& c : counters_) {
    if (static_cast<double>(c.count) >= threshold) {
      out.push_back(HeavyKey{c.key, c.count, c.error});
    }
  }
  std::sort(out.begin(), out.end(), [](const HeavyKey& a, const HeavyKey& b) {
    return a.count > b.count || (a.count == b.count && a.key < b.key);
  });
  return out;
}

void SpaceSaving::Merge(const SpaceSaving& other) {
  const uint64_t my_min = counters_.size() < capacity_ ? 0 : min_count();
  const uint64_t other_min =
      other.counters_.size() < other.capacity_ ? 0 : other.min_count();

  std::unordered_map<uint64_t, HeavyKey> merged;
  merged.reserve(map_.size() + other.map_.size());
  for (const Counter& c : counters_) {
    merged[c.key] = HeavyKey{c.key, c.count, c.error};
  }
  for (const Counter& c : other.counters_) {
    auto [it, inserted] = merged.emplace(c.key, HeavyKey{c.key, c.count, c.error});
    if (!inserted) {
      it->second.count += c.count;
      it->second.error += c.error;
    } else if (my_min > 0) {
      // Key unseen locally: it may have occurred up to my_min times here.
      it->second.count += my_min;
      it->second.error += my_min;
    }
  }
  for (auto& [key, hk] : merged) {
    if (!other.map_.Contains(key) && other_min > 0) {
      hk.count += other_min;
      hk.error += other_min;
    }
  }

  std::vector<HeavyKey> all;
  all.reserve(merged.size());
  for (auto& [key, hk] : merged) all.push_back(hk);
  std::sort(all.begin(), all.end(), [](const HeavyKey& a, const HeavyKey& b) {
    return a.count > b.count || (a.count == b.count && a.key < b.key);
  });
  if (all.size() > capacity_) all.resize(capacity_);

  RebuildFrom(all, total_ + other.total_);
}

void SpaceSaving::RebuildFrom(const std::vector<HeavyKey>& sorted_desc,
                              uint64_t new_total) {
  Reset();
  total_ = new_total;
  // Rebuild the stream-summary coldest-first so bucket construction walks
  // ascending counts (amortized O(1) bucket lookup).
  for (auto it = sorted_desc.rbegin(); it != sorted_desc.rend(); ++it) {
    const int32_t c = static_cast<int32_t>(counters_.size());
    counters_.push_back(Counter{it->key, it->count, it->error, kNil, kNil, kNil});
    int32_t b = min_bucket_;
    int32_t last = kNil;
    while (b != kNil && buckets_[b].count < it->count) {
      last = b;
      b = buckets_[b].next;
    }
    if (b != kNil && buckets_[b].count == it->count) {
      AttachCounter(c, b);
    } else {
      const int32_t nb = AllocBucket(it->count);
      buckets_[nb].prev = last;
      buckets_[nb].next = b;
      if (last != kNil) {
        buckets_[last].next = nb;
      } else {
        min_bucket_ = nb;
      }
      if (b != kNil) buckets_[b].prev = nb;
      AttachCounter(c, nb);
    }
    map_.Set(it->key, c);
  }
}

void SpaceSaving::ScaleDown(uint64_t divisor) {
  SLB_CHECK(divisor >= 1);
  if (divisor == 1 || counters_.empty()) {
    total_ /= divisor;
    return;
  }
  std::vector<HeavyKey> scaled;
  scaled.reserve(counters_.size());
  for (const Counter& c : counters_) {
    const uint64_t count = c.count / divisor;
    if (count == 0) continue;  // decayed out entirely
    scaled.push_back(HeavyKey{c.key, count, c.error / divisor});
  }
  std::sort(scaled.begin(), scaled.end(), [](const HeavyKey& a, const HeavyKey& b) {
    return a.count > b.count || (a.count == b.count && a.key < b.key);
  });
  RebuildFrom(scaled, total_ / divisor);
}

}  // namespace slb
