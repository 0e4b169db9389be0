#include "slb/sketch/space_saving.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "slb/common/rng.h"
#include "slb/workload/zipf.h"

namespace slb {
namespace {

TEST(SpaceSavingTest, ExactWhenUnderCapacity) {
  SpaceSaving ss(10);
  for (int i = 0; i < 5; ++i) {
    for (int r = 0; r <= i; ++r) ss.UpdateAndEstimate(i);
  }
  // Key i occurred i+1 times; capacity never exceeded, so counts are exact.
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(ss.Estimate(i), i + 1);
    EXPECT_EQ(ss.GuaranteedCount(i), i + 1);
  }
  EXPECT_EQ(ss.total(), 15u);
  EXPECT_EQ(ss.Estimate(999), 0u) << "unknown key, structure not full";
}

TEST(SpaceSavingTest, UpdateReturnsNewCount) {
  SpaceSaving ss(4);
  EXPECT_EQ(ss.UpdateAndEstimate(7), 1u);
  EXPECT_EQ(ss.UpdateAndEstimate(7), 2u);
  EXPECT_EQ(ss.UpdateAndEstimate(7), 3u);
}

TEST(SpaceSavingTest, EvictionChargesError) {
  SpaceSaving ss(2);
  ss.UpdateAndEstimate(1);  // {1:1}
  ss.UpdateAndEstimate(1);  // {1:2}
  ss.UpdateAndEstimate(2);  // {1:2, 2:1}
  // 3 evicts 2 (the min, count 1): count = 2, error = 1.
  EXPECT_EQ(ss.UpdateAndEstimate(3), 2u);
  EXPECT_EQ(ss.GuaranteedCount(3), 1u);
  EXPECT_EQ(ss.Estimate(2), ss.min_count()) << "evicted key reports min bound";
}

TEST(SpaceSavingTest, OverestimateInvariantOnAdversarialStream) {
  // Rotating distinct keys with a few hot ones; counts must never
  // underestimate and the error must be bounded by N/capacity.
  const size_t capacity = 50;
  SpaceSaving ss(capacity);
  std::map<uint64_t, uint64_t> truth;
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    uint64_t key;
    if (rng.NextBool(0.3)) {
      key = rng.NextBounded(5);  // hot set
    } else {
      key = 1000 + rng.NextBounded(2000);  // churn
    }
    ++truth[key];
    ss.UpdateAndEstimate(key);
  }
  const uint64_t bound = ss.total() / capacity;
  for (const HeavyKey& hk : ss.Counters()) {
    const uint64_t true_count = truth[hk.key];
    EXPECT_GE(hk.count, true_count) << "key " << hk.key;
    EXPECT_LE(hk.count - hk.error, true_count) << "key " << hk.key;
    EXPECT_LE(hk.error, bound) << "error exceeds N/k bound";
  }
}

TEST(SpaceSavingTest, HeavyHittersIsSupersetOfTrueHeavyKeys) {
  // Classic guarantee: every key with true frequency > N/capacity is
  // monitored, hence reported at phi <= 1/capacity.
  const size_t capacity = 100;
  SpaceSaving ss(capacity);
  ZipfDistribution zipf(1.5, 10000);
  Rng rng(11);
  std::map<uint64_t, uint64_t> truth;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const uint64_t key = zipf.Sample(&rng);
    ++truth[key];
    ss.UpdateAndEstimate(key);
  }
  const double phi = 0.02;
  const auto reported = ss.HeavyHitters(phi);
  std::vector<uint64_t> reported_keys;
  for (const auto& hk : reported) reported_keys.push_back(hk.key);
  for (const auto& [key, count] : truth) {
    if (static_cast<double>(count) >= phi * n) {
      EXPECT_NE(std::find(reported_keys.begin(), reported_keys.end(), key),
                reported_keys.end())
          << "true heavy key " << key << " (count " << count << ") missed";
    }
  }
}

TEST(SpaceSavingTest, HeavyHittersSortedDescending) {
  SpaceSaving ss(10);
  Rng rng(3);
  ZipfDistribution zipf(1.2, 100);
  for (int i = 0; i < 10000; ++i) ss.UpdateAndEstimate(zipf.Sample(&rng));
  const auto hh = ss.HeavyHitters(0.01);
  for (size_t i = 1; i < hh.size(); ++i) {
    EXPECT_GE(hh[i - 1].count, hh[i].count);
  }
}

TEST(SpaceSavingTest, CapacityOneDegenerates) {
  SpaceSaving ss(1);
  ss.UpdateAndEstimate(1);
  ss.UpdateAndEstimate(2);
  ss.UpdateAndEstimate(3);
  EXPECT_EQ(ss.total(), 3u);
  EXPECT_EQ(ss.memory_counters(), 1u);
  // The single counter's count equals the stream length (all mass).
  EXPECT_EQ(ss.Counters()[0].count, 3u);
  EXPECT_EQ(ss.Counters()[0].key, 3u);
}

TEST(SpaceSavingTest, ResetClearsState) {
  SpaceSaving ss(8);
  for (int i = 0; i < 100; ++i) ss.UpdateAndEstimate(i % 10);
  ss.Reset();
  EXPECT_EQ(ss.total(), 0u);
  EXPECT_EQ(ss.memory_counters(), 0u);
  EXPECT_EQ(ss.min_count(), 0u);
  EXPECT_EQ(ss.UpdateAndEstimate(5), 1u);
}

TEST(SpaceSavingTest, MonitorsAtMostCapacityKeys) {
  SpaceSaving ss(16);
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) ss.UpdateAndEstimate(rng.NextBounded(1000));
  EXPECT_LE(ss.memory_counters(), 16u);
}

TEST(SpaceSavingTest, MinCountTracksColdestCounter) {
  SpaceSaving ss(3);
  ss.UpdateAndEstimate(1);
  ss.UpdateAndEstimate(1);
  ss.UpdateAndEstimate(2);
  ss.UpdateAndEstimate(3);
  EXPECT_EQ(ss.min_count(), 1u);
  ss.UpdateAndEstimate(2);
  ss.UpdateAndEstimate(3);
  EXPECT_EQ(ss.min_count(), 2u);
}

TEST(SpaceSavingMergeTest, DisjointStreamsKeepCounts) {
  SpaceSaving a(10);
  SpaceSaving b(10);
  for (int i = 0; i < 5; ++i) a.UpdateAndEstimate(1);
  for (int i = 0; i < 3; ++i) b.UpdateAndEstimate(2);
  a.Merge(b);
  EXPECT_EQ(a.total(), 8u);
  // Neither summary was full, so counts stay exact after merging.
  EXPECT_EQ(a.Estimate(1), 5u);
  EXPECT_EQ(a.Estimate(2), 3u);
}

TEST(SpaceSavingMergeTest, OverlappingStreamsAddCounts) {
  SpaceSaving a(10);
  SpaceSaving b(10);
  for (int i = 0; i < 5; ++i) a.UpdateAndEstimate(42);
  for (int i = 0; i < 7; ++i) b.UpdateAndEstimate(42);
  a.Merge(b);
  EXPECT_EQ(a.Estimate(42), 12u);
  EXPECT_EQ(a.GuaranteedCount(42), 12u);
}

TEST(SpaceSavingMergeTest, PreservesOverestimateInvariant) {
  // Split one stream across two summaries; the merged estimates must still
  // upper-bound the true counts.
  const size_t capacity = 32;
  SpaceSaving a(capacity);
  SpaceSaving b(capacity);
  ZipfDistribution zipf(1.4, 5000);
  Rng rng(21);
  std::map<uint64_t, uint64_t> truth;
  for (int i = 0; i < 40000; ++i) {
    const uint64_t key = zipf.Sample(&rng);
    ++truth[key];
    (i % 2 == 0 ? a : b).UpdateAndEstimate(key);
  }
  a.Merge(b);
  EXPECT_EQ(a.total(), 40000u);
  EXPECT_LE(a.memory_counters(), capacity);
  for (const HeavyKey& hk : a.Counters()) {
    EXPECT_GE(hk.count, truth[hk.key]) << "merged estimate must not undercount";
  }
  // The hottest key must survive the merge.
  EXPECT_GT(a.Estimate(0), 0u);
}

TEST(SpaceSavingMergeTest, MergeIntoEmpty) {
  SpaceSaving a(10);
  SpaceSaving b(10);
  for (int i = 0; i < 4; ++i) b.UpdateAndEstimate(9);
  a.Merge(b);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.Estimate(9), 4u);
}

TEST(SpaceSavingTest, StreamSummaryHandlesLongIncrementChains) {
  // One key incremented many times walks the bucket list upward; interleave
  // with churn to exercise bucket create/free.
  SpaceSaving ss(4);
  for (int round = 0; round < 1000; ++round) {
    ss.UpdateAndEstimate(1);
    if (round % 3 == 0) ss.UpdateAndEstimate(2 + (round % 5));
  }
  EXPECT_GE(ss.Estimate(1), 1000u);
  EXPECT_EQ(ss.total(), 1000u + 334u);
}

// Golden outputs: every UpdateAndEstimate return, the final Counters() and
// min_count() folded into one FNV-1a checksum per stream. Recorded from the
// detach-and-relink Stream-Summary increment, so any faster bucket update
// must keep every estimate, eviction and LIFO tie order identical.
class SpaceSavingGolden {
 public:
  explicit SpaceSavingGolden(size_t capacity) : ss_(capacity) {}

  void Update(uint64_t key) { Fold(ss_.UpdateAndEstimate(key)); }

  uint64_t Finish() {
    for (const HeavyKey& hk : ss_.Counters()) {
      Fold(hk.key);
      Fold(hk.count);
      Fold(hk.error);
    }
    Fold(ss_.min_count());
    return checksum_;
  }

 private:
  void Fold(uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      checksum_ = (checksum_ ^ ((value >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
    }
  }

  SpaceSaving ss_;
  uint64_t checksum_ = 0xcbf29ce484222325ULL;
};

uint64_t ZipfGolden(size_t capacity, double z) {
  SpaceSavingGolden golden(capacity);
  const ZipfDistribution zipf(z, 100000);
  Rng rng(2024);
  for (int i = 0; i < 200000; ++i) golden.Update(zipf.Sample(&rng));
  return golden.Finish();
}

TEST(SpaceSavingGoldenTest, HeavyEvictionZipf) {
  // Capacity 64 against a 10^5-key z=1.1 stream: most updates evict.
  const uint64_t checksum = ZipfGolden(64, 1.1);
  EXPECT_EQ(checksum, 0x17d085cc0e34292fULL) << std::hex << checksum;
}

TEST(SpaceSavingGoldenTest, HotKeysWithUniqueCounts) {
  // Capacity 800 against z=2.0: the hottest keys sit alone in their buckets.
  const uint64_t checksum = ZipfGolden(800, 2.0);
  EXPECT_EQ(checksum, 0x6bd7c580e8a5de04ULL) << std::hex << checksum;
}

TEST(SpaceSavingGoldenTest, LifoEvictionAmongEqualCounts) {
  // Exactly `capacity` keys round-robin (all counts equal), then fresh keys:
  // which monitored key each newcomer evicts is the within-bucket order.
  constexpr size_t kCapacity = 16;
  SpaceSavingGolden golden(kCapacity);
  for (int round = 0; round < 3; ++round) {
    for (uint64_t key = 0; key < kCapacity; ++key) golden.Update(key);
  }
  for (uint64_t fresh = 0; fresh < 40; ++fresh) {
    golden.Update(1000 + fresh);
    golden.Update(fresh % kCapacity);
  }
  const uint64_t checksum = golden.Finish();
  EXPECT_EQ(checksum, 0x0b759d6578c1faddULL) << std::hex << checksum;
}

}  // namespace
}  // namespace slb
