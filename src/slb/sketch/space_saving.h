// SpaceSaving heavy-hitter algorithm (Metwally, Agrawal, El Abbadi, ICDT'05),
// implemented with the Stream-Summary structure for O(1) updates.
//
// With `capacity` counters and N total updates:
//   * every monitored count overestimates the true count by at most N/capacity;
//   * every key with true count > N/capacity is monitored;
// which makes it exactly the tracker Sec. III-A of the paper needs: choosing
// capacity >= 10*n guarantees keys at threshold theta = 1/(5n) are found with
// relative error <= 1/2.
//
// The structure is mergeable (Berinde et al., TODS'10) for the distributed
// setting: see Merge().

#pragma once

#include <cstdint>
#include <vector>

#include "slb/common/flat_hash.h"
#include "slb/sketch/frequency_estimator.h"

namespace slb {

class SpaceSaving final : public FrequencyEstimator {
 public:
  /// `capacity` = number of monitored counters (the paper's O(1)-per-message,
  /// O(capacity)-memory regime).
  explicit SpaceSaving(size_t capacity);

  uint64_t UpdateAndEstimate(uint64_t key) override;
  uint64_t Estimate(uint64_t key) const override;
  uint64_t total() const override { return total_; }
  std::vector<HeavyKey> HeavyHitters(double phi) const override;
  size_t memory_counters() const override { return map_.size(); }
  void Reset() override;
  std::string name() const override { return "spacesaving"; }

  size_t capacity() const { return capacity_; }

  /// Smallest monitored count (0 while not full). An upper bound on the true
  /// count of ANY unmonitored key; also the eviction error floor.
  uint64_t min_count() const;

  /// Lower bound on the true count of `key` (count - error), 0 if unmonitored.
  uint64_t GuaranteedCount(uint64_t key) const;

  /// All monitored counters, sorted by descending count.
  std::vector<HeavyKey> Counters() const;

  /// Divides every count, error, and the total by `divisor` (integer
  /// division; counters reaching zero are dropped). Relative frequencies
  /// are preserved, which is what DecayingSpaceSaving's periodic halving
  /// relies on. O(capacity log capacity).
  void ScaleDown(uint64_t divisor);

  /// Merges `other` into this summary (distributed SpaceSaving, [12]).
  ///
  /// Counts of keys present in both summaries add; a key present in only one
  /// summary could have occurred up to the other's min_count() times there,
  /// so that bound is added to both its count and its error, preserving the
  /// invariant count >= true >= count - error. The union is then pruned back
  /// to `capacity` by descending count.
  void Merge(const SpaceSaving& other);

 private:
  static constexpr int32_t kNil = -1;

  // One monitored key. Counters with equal count are grouped into a bucket;
  // buckets form an ascending doubly-linked list, giving O(1) increment and
  // O(1) min eviction (classic Stream-Summary layout).
  struct Counter {
    uint64_t key;
    uint64_t count;
    uint64_t error;
    int32_t bucket;
    int32_t prev;  // sibling links within the bucket
    int32_t next;
  };

  struct Bucket {
    uint64_t count;
    int32_t head;  // first counter in this bucket
    int32_t prev;  // neighbouring buckets, ascending by count
    int32_t next;
  };

  // Moves counter `c` from its bucket to the bucket with count+1 (creating
  // it if needed), maintaining all invariants. A counter alone in its bucket
  // with no count+1 bucket next keeps its bucket, whose count is bumped.
  void IncrementCounter(int32_t c);

  // Replaces the whole structure with `sorted_desc` (descending by count,
  // size <= capacity) and the given total. Used by Merge and ScaleDown.
  void RebuildFrom(const std::vector<HeavyKey>& sorted_desc, uint64_t new_total);

  void DetachCounter(int32_t c);
  void AttachCounter(int32_t c, int32_t bucket);
  int32_t AllocBucket(uint64_t count);
  void FreeBucketIfEmpty(int32_t b);

  size_t capacity_;
  uint64_t total_ = 0;
  std::vector<Counter> counters_;
  std::vector<Bucket> buckets_;
  std::vector<int32_t> free_buckets_;
  int32_t min_bucket_ = kNil;  // bucket with the smallest count
  FlatIndexMap map_;  // key -> counter index (flat: one probe, no node chase)
};

}  // namespace slb
