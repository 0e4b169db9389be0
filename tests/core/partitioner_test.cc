#include "slb/core/partitioner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "slb/common/rng.h"
#include "slb/core/basic_groupings.h"
#include "slb/core/d_choices.h"
#include "slb/core/head_tail_partitioner.h"
#include "slb/workload/scenario.h"
#include "slb/workload/zipf.h"

namespace slb {
namespace {

PartitionerOptions Opts(uint32_t n) {
  PartitionerOptions opt;
  opt.num_workers = n;
  opt.hash_seed = 42;
  return opt;
}

std::unique_ptr<StreamPartitioner> Make(AlgorithmKind kind, uint32_t n) {
  auto result = CreatePartitioner(kind, Opts(n));
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result.value());
}

TEST(ParseAlgorithmKindTest, AcceptsPaperNames) {
  EXPECT_EQ(ParseAlgorithmKind("kg").value(), AlgorithmKind::kKeyGrouping);
  EXPECT_EQ(ParseAlgorithmKind("SG").value(), AlgorithmKind::kShuffleGrouping);
  EXPECT_EQ(ParseAlgorithmKind("pkg").value(), AlgorithmKind::kPkg);
  EXPECT_EQ(ParseAlgorithmKind("D-C").value(), AlgorithmKind::kDChoices);
  EXPECT_EQ(ParseAlgorithmKind("w-choices").value(), AlgorithmKind::kWChoices);
  EXPECT_EQ(ParseAlgorithmKind("rr").value(), AlgorithmKind::kRoundRobinHead);
  EXPECT_FALSE(ParseAlgorithmKind("quantum").ok());
}

TEST(AlgorithmKindNameTest, RoundTripsThroughParse) {
  for (AlgorithmKind kind :
       {AlgorithmKind::kKeyGrouping, AlgorithmKind::kShuffleGrouping,
        AlgorithmKind::kPkg, AlgorithmKind::kDChoices, AlgorithmKind::kWChoices,
        AlgorithmKind::kRoundRobinHead}) {
    EXPECT_EQ(ParseAlgorithmKind(AlgorithmKindName(kind)).value(), kind);
  }
}

TEST(FactoryTest, RejectsBadOptions) {
  PartitionerOptions opt;
  opt.num_workers = 0;
  EXPECT_FALSE(CreatePartitioner(AlgorithmKind::kPkg, opt).ok());
  opt.num_workers = 5;
  opt.theta_ratio = 0.0;
  EXPECT_FALSE(CreatePartitioner(AlgorithmKind::kDChoices, opt).ok());
}

TEST(KeyGroupingTest, DeterministicSingleWorkerPerKey) {
  auto kg = Make(AlgorithmKind::kKeyGrouping, 20);
  for (uint64_t key = 0; key < 200; ++key) {
    const uint32_t first = kg->Route(key);
    ASSERT_LT(first, 20u);
    for (int rep = 0; rep < 5; ++rep) {
      ASSERT_EQ(kg->Route(key), first) << "KG must pin a key to one worker";
    }
  }
  EXPECT_EQ(kg->messages_routed(), 200u * 6);
}

TEST(KeyGroupingTest, SameSeedMeansSameMappingAcrossSenders) {
  auto a = Make(AlgorithmKind::kKeyGrouping, 50);
  auto b = Make(AlgorithmKind::kKeyGrouping, 50);
  for (uint64_t key = 0; key < 500; ++key) {
    ASSERT_EQ(a->Route(key), b->Route(key));
  }
}

TEST(ShuffleGroupingTest, ExactRoundRobin) {
  auto sg = Make(AlgorithmKind::kShuffleGrouping, 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sg->Route(/*key=*/999), static_cast<uint32_t>(i % 7));
  }
}

TEST(ShuffleGroupingTest, PerfectBalanceRegardlessOfKeys) {
  auto sg = Make(AlgorithmKind::kShuffleGrouping, 10);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 1000; ++i) ++counts[sg->Route(42)];
  for (int c : counts) EXPECT_EQ(c, 100);
}

TEST(PkgTest, EachKeyUsesAtMostTwoWorkers) {
  auto pkg = Make(AlgorithmKind::kPkg, 50);
  Rng rng(1);
  ZipfDistribution zipf(1.2, 300);
  std::map<uint64_t, std::set<uint32_t>> workers_per_key;
  for (int i = 0; i < 50000; ++i) {
    const uint64_t key = zipf.Sample(&rng);
    workers_per_key[key].insert(pkg->Route(key));
  }
  for (const auto& [key, workers] : workers_per_key) {
    EXPECT_LE(workers.size(), 2u) << "key " << key;
  }
}

TEST(PkgTest, PicksTheLessLoadedCandidate) {
  // Construct a two-worker scenario: all load on one worker means the other
  // candidate must be chosen next.
  PartitionerOptions opt = Opts(2);
  GreedyD pkg(opt, 2, "PKG");
  // Route a burst of one key, then check its counter-key balances.
  std::vector<int> counts(2, 0);
  for (int i = 0; i < 1000; ++i) ++counts[pkg.Route(7)];
  // With both candidates (possibly equal), the two workers split evenly,
  // or everything lands on the single candidate worker.
  if (counts[0] > 0 && counts[1] > 0) {
    EXPECT_NEAR(counts[0], counts[1], 1);
  }
}

TEST(GreedyDTest, RespectsChoiceBudget) {
  PartitionerOptions opt = Opts(50);
  for (uint32_t d : {1u, 2u, 3u, 5u, 10u}) {
    GreedyD greedy(opt, d, "Greedy-D");
    std::map<uint64_t, std::set<uint32_t>> workers_per_key;
    Rng rng(d);
    for (int i = 0; i < 20000; ++i) {
      const uint64_t key = rng.NextBounded(100);
      workers_per_key[key].insert(greedy.Route(key));
    }
    for (const auto& [key, workers] : workers_per_key) {
      EXPECT_LE(workers.size(), d) << "key " << key << " d=" << d;
    }
  }
}

TEST(GreedyDTest, ClampsDToWorkerCount) {
  PartitionerOptions opt = Opts(3);
  GreedyD greedy(opt, 100, "Greedy-D");
  EXPECT_EQ(greedy.head_choices(), 3u);
  for (int i = 0; i < 100; ++i) ASSERT_LT(greedy.Route(i), 3u);
}

TEST(GreedyDTest, MoreChoicesNeverWorseBalanceOnSkew) {
  // The power-of-d ablation: imbalance with d=4 must not exceed d=2 by any
  // meaningful margin on a skewed stream.
  auto imbalance_with_d = [](uint32_t d) {
    PartitionerOptions opt = Opts(20);
    GreedyD greedy(opt, d, "Greedy-D");
    ZipfDistribution zipf(1.0, 5000);
    Rng rng(17);
    std::vector<uint64_t> counts(20, 0);
    const int m = 100000;
    for (int i = 0; i < m; ++i) ++counts[greedy.Route(zipf.Sample(&rng))];
    const uint64_t max_c = *std::max_element(counts.begin(), counts.end());
    return static_cast<double>(max_c) / m - 1.0 / 20;
  };
  EXPECT_LE(imbalance_with_d(4), imbalance_with_d(2) + 1e-4);
}

TEST(HeadTailTest, TailKeysUseAtMostTwoWorkers) {
  PartitionerOptions opt = Opts(50);
  DChoices dc(opt);
  ZipfDistribution zipf(1.6, 10000);
  Rng rng(5);
  std::map<uint64_t, std::set<uint32_t>> workers_per_key;
  std::map<uint64_t, bool> ever_head;
  for (int i = 0; i < 100000; ++i) {
    const uint64_t key = zipf.Sample(&rng);
    const uint32_t w = dc.Route(key);
    workers_per_key[key].insert(w);
    ever_head[key] = ever_head[key] || dc.last_was_head();
  }
  for (const auto& [key, workers] : workers_per_key) {
    if (!ever_head[key]) {
      EXPECT_LE(workers.size(), 2u) << "tail key " << key;
    }
  }
}

TEST(HeadTailTest, HotKeyIsFlaggedAsHead) {
  PartitionerOptions opt = Opts(20);
  WChoices wc(opt);
  Rng rng(9);
  bool hot_flagged = false;
  for (int i = 0; i < 50000; ++i) {
    // 50% hot key 0, rest uniform tail.
    const uint64_t key = rng.NextBool(0.5) ? 0 : 1 + rng.NextBounded(5000);
    wc.Route(key);
    if (key == 0 && i > 10000) hot_flagged = wc.last_was_head();
  }
  EXPECT_TRUE(hot_flagged) << "a 50% key must be detected as head";
}

TEST(HeadTailTest, UniformStreamHasNoHead) {
  PartitionerOptions opt = Opts(10);
  WChoices wc(opt);
  Rng rng(2);
  uint64_t head_msgs = 0;
  const int m = 50000;
  for (int i = 0; i < m; ++i) {
    wc.Route(rng.NextBounded(5000));
    if (wc.last_was_head()) ++head_msgs;
  }
  // theta = 1/(5*10) = 2% of the stream; uniform keys sit at 0.02%.
  EXPECT_LT(static_cast<double>(head_msgs) / m, 0.02);
}

TEST(DChoicesTest, HeadChoicesWithinRangeAndSkewSensitive) {
  auto run = [](double z) {
    PartitionerOptions opt = Opts(50);
    DChoices dc(opt);
    ZipfDistribution zipf(z, 10000);
    Rng rng(3);
    for (int i = 0; i < 200000; ++i) dc.Route(zipf.Sample(&rng));
    return dc.head_choices();
  };
  const uint32_t d_low = run(0.5);
  const uint32_t d_high = run(1.8);
  EXPECT_GE(d_low, 2u);
  EXPECT_LE(d_high, 50u);
  EXPECT_GT(d_high, d_low) << "heavier skew must demand more choices";
}

TEST(DChoicesTest, ReoptimizesPeriodically) {
  PartitionerOptions opt = Opts(20);
  opt.reoptimize_interval = 100;
  DChoices dc(opt);
  Rng rng(4);
  ZipfDistribution zipf(1.5, 1000);
  for (int i = 0; i < 5000; ++i) dc.Route(zipf.Sample(&rng));
  EXPECT_GE(dc.reoptimize_count(), 40u);
}

TEST(WChoicesTest, HeadChoicesEqualsN) {
  PartitionerOptions opt = Opts(37);
  WChoices wc(opt);
  EXPECT_EQ(wc.head_choices(), 37u);
}

TEST(RoundRobinHeadTest, HeadMessagesCycleThroughAllWorkers) {
  PartitionerOptions opt = Opts(10);
  RoundRobinHead rr(opt);
  Rng rng(6);
  // Key 0 takes ~60% of a very skewed stream; once in the head, its
  // placements must cycle over all 10 workers.
  std::set<uint32_t> head_workers;
  for (int i = 0; i < 30000; ++i) {
    const uint64_t key = rng.NextBool(0.6) ? 0 : 1 + rng.NextBounded(3000);
    const uint32_t w = rr.Route(key);
    if (rr.last_was_head()) head_workers.insert(w);
  }
  EXPECT_EQ(head_workers.size(), 10u);
}

TEST(FixedDChoicesTest, HeadUsesAtMostDWorkers) {
  PartitionerOptions opt = Opts(50);
  opt.fixed_d = 4;
  FixedDChoices fd(opt);
  EXPECT_EQ(fd.head_choices(), 4u);
  Rng rng(8);
  std::set<uint32_t> head_workers_key0;
  for (int i = 0; i < 50000; ++i) {
    const uint64_t key = rng.NextBool(0.5) ? 0 : 1 + rng.NextBounded(5000);
    const uint32_t w = fd.Route(key);
    if (key == 0 && fd.last_was_head()) head_workers_key0.insert(w);
  }
  EXPECT_LE(head_workers_key0.size(), 4u);
  EXPECT_GE(head_workers_key0.size(), 2u);
}

TEST(PartitionerTest, AllWorkersInRangeForAllAlgorithms) {
  for (AlgorithmKind kind :
       {AlgorithmKind::kKeyGrouping, AlgorithmKind::kShuffleGrouping,
        AlgorithmKind::kPkg, AlgorithmKind::kDChoices, AlgorithmKind::kWChoices,
        AlgorithmKind::kRoundRobinHead, AlgorithmKind::kFixedDChoices,
        AlgorithmKind::kGreedyD}) {
    auto part = Make(kind, 13);
    Rng rng(1);
    ZipfDistribution zipf(1.4, 500);
    for (int i = 0; i < 5000; ++i) {
      ASSERT_LT(part->Route(zipf.Sample(&rng)), 13u) << AlgorithmKindName(kind);
    }
    EXPECT_EQ(part->messages_routed(), 5000u) << AlgorithmKindName(kind);
  }
}

TEST(PartitionerTest, SingleWorkerAlwaysRoutesToZero) {
  for (AlgorithmKind kind :
       {AlgorithmKind::kKeyGrouping, AlgorithmKind::kShuffleGrouping,
        AlgorithmKind::kPkg, AlgorithmKind::kDChoices, AlgorithmKind::kWChoices,
        AlgorithmKind::kRoundRobinHead}) {
    auto part = Make(kind, 1);
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(part->Route(i), 0u) << AlgorithmKindName(kind);
    }
  }
}

TEST(PartitionerTest, NamesMatchTableTwo) {
  EXPECT_EQ(Make(AlgorithmKind::kKeyGrouping, 4)->name(), "KG");
  EXPECT_EQ(Make(AlgorithmKind::kShuffleGrouping, 4)->name(), "SG");
  EXPECT_EQ(Make(AlgorithmKind::kPkg, 4)->name(), "PKG");
  EXPECT_EQ(Make(AlgorithmKind::kDChoices, 4)->name(), "D-C");
  EXPECT_EQ(Make(AlgorithmKind::kWChoices, 4)->name(), "W-C");
  EXPECT_EQ(Make(AlgorithmKind::kRoundRobinHead, 4)->name(), "RR");
}

TEST(ParseAlgorithmKindTest, ConsistentHashRoundTrips) {
  EXPECT_EQ(ParseAlgorithmKind("ch").value(), AlgorithmKind::kConsistentHash);
  EXPECT_EQ(ParseAlgorithmKind("consistent-hash").value(),
            AlgorithmKind::kConsistentHash);
  EXPECT_EQ(AlgorithmKindName(AlgorithmKind::kConsistentHash), "CH");
  EXPECT_EQ(ParseAlgorithmKind(
                AlgorithmKindName(AlgorithmKind::kConsistentHash)).value(),
            AlgorithmKind::kConsistentHash);
  EXPECT_EQ(Make(AlgorithmKind::kConsistentHash, 4)->name(), "CH");
}

TEST(RescaleTest, EveryAlgorithmRescalesUpAndDownInRange) {
  // The simulator rescales whatever the factory hands it; every kind must
  // either rescale cleanly or declare !SupportsRescale() (none do today).
  for (AlgorithmKind kind : kAllAlgorithmKinds) {
    auto part = Make(kind, 10);
    ASSERT_TRUE(part->SupportsRescale()) << AlgorithmKindName(kind);
    Rng rng(11);
    ZipfDistribution zipf(1.4, 500);
    for (int i = 0; i < 2000; ++i) part->Route(zipf.Sample(&rng));

    ASSERT_TRUE(part->Rescale(14).ok()) << AlgorithmKindName(kind);
    EXPECT_EQ(part->num_workers(), 14u) << AlgorithmKindName(kind);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_LT(part->Route(zipf.Sample(&rng)), 14u) << AlgorithmKindName(kind);
    }

    ASSERT_TRUE(part->Rescale(6).ok()) << AlgorithmKindName(kind);
    EXPECT_EQ(part->num_workers(), 6u) << AlgorithmKindName(kind);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_LT(part->Route(zipf.Sample(&rng)), 6u) << AlgorithmKindName(kind);
    }

    EXPECT_FALSE(part->Rescale(0).ok()) << AlgorithmKindName(kind);
  }
}

TEST(RescaleTest, FixedDChoicesRegrowsTowardRequestedD) {
  // fixed_d = 8 clamped to 5 workers at construction must grow back to 8
  // when the worker set scales past it — the cached clamp cannot stick.
  PartitionerOptions opt = Opts(5);
  opt.fixed_d = 8;
  FixedDChoices fd(opt);
  EXPECT_EQ(fd.head_choices(), 5u);
  ASSERT_TRUE(fd.Rescale(20).ok());
  EXPECT_EQ(fd.head_choices(), 8u);
  ASSERT_TRUE(fd.Rescale(3).ok());
  EXPECT_EQ(fd.head_choices(), 3u);
}

TEST(RescaleTest, GreedyDReclampsRequestedD) {
  PartitionerOptions opt = Opts(3);
  GreedyD greedy(opt, 10, "Greedy-D");
  EXPECT_EQ(greedy.head_choices(), 3u);
  ASSERT_TRUE(greedy.Rescale(16).ok());
  EXPECT_EQ(greedy.head_choices(), 10u);
  for (int i = 0; i < 1000; ++i) ASSERT_LT(greedy.Route(i), 16u);
}

TEST(RescaleTest, WChoicesHeadSpansNewWorkerSet) {
  PartitionerOptions opt = Opts(10);
  WChoices wc(opt);
  Rng rng(6);
  for (int i = 0; i < 20000; ++i) {
    wc.Route(rng.NextBool(0.5) ? 0 : 1 + rng.NextBounded(5000));
  }
  ASSERT_TRUE(wc.Rescale(15).ok());
  EXPECT_EQ(wc.head_choices(), 15u);
  // The hot key's head placements must reach the ADDED workers too.
  std::set<uint32_t> head_workers;
  for (int i = 0; i < 30000; ++i) {
    const uint64_t key = rng.NextBool(0.5) ? 0 : 1 + rng.NextBounded(5000);
    const uint32_t w = wc.Route(key);
    if (key == 0 && wc.last_was_head()) head_workers.insert(w);
  }
  EXPECT_EQ(head_workers.size(), 15u);
}

TEST(HeadCandidateCacheTest, StaysBoundedOverHotSetChurnAndRescale) {
  // A rotating hot set keeps minting new head keys; the per-sender
  // candidate cache must stay within 2/theta keys (the sketch's auto
  // capacity) at every step and start empty after a rescale.
  ScenarioOptions scenario;
  scenario.num_keys = 100000;
  scenario.num_messages = 400000;
  scenario.zipf_exponent = 1.2;
  scenario.num_epochs = 40;
  auto stream = MakeScenario("hot-set-churn", scenario);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();

  PartitionerOptions opt = Opts(80);
  DChoices dc(opt);
  size_t bound = static_cast<size_t>(std::ceil(2.0 / opt.theta()));
  size_t peak = 0;
  for (uint64_t i = 0; i < scenario.num_messages; ++i) {
    if (i == scenario.num_messages / 2) {
      ASSERT_TRUE(dc.Rescale(40).ok());
      EXPECT_EQ(dc.cached_head_keys(), 0u) << "Rescale must drop the cache";
      bound = static_cast<size_t>(std::ceil(2.0 / dc.options().theta()));
    }
    dc.Route(stream.value()->NextKey());
    ASSERT_LE(dc.cached_head_keys(), bound) << "at message " << i;
    peak = std::max(peak, dc.cached_head_keys());
  }
  EXPECT_GT(peak, 0u) << "the stream never routed a head key through d choices";
}

TEST(SketchAblationTest, AllSketchKindsRouteCorrectly) {
  for (SketchKind sketch : {SketchKind::kSpaceSaving, SketchKind::kMisraGries,
                            SketchKind::kLossyCounting, SketchKind::kCountMin}) {
    PartitionerOptions opt = Opts(10);
    opt.sketch = sketch;
    auto dc = CreatePartitioner(AlgorithmKind::kDChoices, opt);
    ASSERT_TRUE(dc.ok());
    Rng rng(3);
    ZipfDistribution zipf(1.5, 1000);
    for (int i = 0; i < 20000; ++i) {
      ASSERT_LT(dc.value()->Route(zipf.Sample(&rng)), 10u);
    }
  }
}

}  // namespace
}  // namespace slb
