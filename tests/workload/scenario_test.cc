#include "slb/workload/scenario.h"

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "scenario_harness.h"

namespace slb {
namespace {

// The catalog configuration used throughout: small enough to run fast,
// skewed enough that every scenario's failure mode is visible.
ScenarioOptions BaseOptions() {
  ScenarioOptions opt;
  opt.num_keys = 1000;
  opt.num_messages = 20000;
  opt.seed = 7;
  opt.zipf_exponent = 1.1;
  return opt;
}

std::vector<uint64_t> Pull(StreamGenerator* gen, uint64_t count) {
  std::vector<uint64_t> keys;
  keys.reserve(count);
  for (uint64_t i = 0; i < count; ++i) keys.push_back(gen->NextKey());
  return keys;
}

// --- property-test harness -------------------------------------------------
//
// The harness machine-checks the catalog-wide contract (same-seed
// determinism, Reset round-trip, message-count exactness, key-range
// containment) plus one registered shape predicate per scenario. Running it
// over ScenarioNames() means a future generator is covered the moment it is
// registered in the factory — and the completeness test below makes SKIPPING
// the harness a CI failure rather than a silent gap.

TEST(ScenarioHarnessTest, EveryCatalogScenarioPassesPropertyChecks) {
  for (const std::string& name : ScenarioNames()) {
    SCOPED_TRACE(name);
    slb::testing::RunScenarioPropertyChecks(name);
  }
}

TEST(ScenarioHarnessTest, HarnessCoversEveryCatalogName) {
  std::vector<std::string> catalog = ScenarioNames();
  std::vector<std::string> covered = slb::testing::HarnessCoveredScenarios();
  std::sort(catalog.begin(), catalog.end());
  std::sort(covered.begin(), covered.end());
  EXPECT_EQ(catalog, covered)
      << "catalog and harness registry diverged: every MakeScenario name "
         "needs a shape predicate in tests/workload/scenario_harness.cc, and "
         "every registry entry needs a live scenario";
}

TEST(ScenarioHarnessTest, UnregisteredNameIsAHarnessFailure) {
  EXPECT_NONFATAL_FAILURE(
      slb::testing::RunScenarioPropertyChecks("no-such-scenario"),
      "no harness entry");
}

TEST(ScenarioFactoryTest, UnknownNameIsInvalidArgument) {
  auto gen = MakeScenario("no-such-scenario", BaseOptions());
  ASSERT_FALSE(gen.ok());
  EXPECT_TRUE(gen.status().IsInvalidArgument());
}

TEST(ScenarioFactoryTest, EveryCatalogNameConstructs) {
  for (const std::string& name : ScenarioNames()) {
    SCOPED_TRACE(name);
    auto gen = MakeScenario(name, BaseOptions());
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    EXPECT_EQ((*gen)->num_messages(), 20000u);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_LT((*gen)->NextKey(), (*gen)->num_keys());
    }
  }
}

TEST(ScenarioFactoryTest, OutOfRangeKnobsAreInvalidArgument) {
  auto opt = BaseOptions();
  opt.burst_fraction = 1.5;
  EXPECT_TRUE(MakeScenario("flash-crowd", opt).status().IsInvalidArgument());

  opt = BaseOptions();
  opt.burst_begin = 0.9;
  opt.burst_end = 0.1;  // begin > end
  EXPECT_TRUE(MakeScenario("flash-crowd", opt).status().IsInvalidArgument());

  opt = BaseOptions();
  opt.hot_set_size = 0;
  EXPECT_TRUE(MakeScenario("hot-set-churn", opt).status().IsInvalidArgument());

  opt = BaseOptions();
  opt.hot_set_size = opt.num_keys + 1;
  EXPECT_TRUE(MakeScenario("hot-set-churn", opt).status().IsInvalidArgument());

  opt = BaseOptions();
  opt.ramp_final_fraction = -0.1;
  EXPECT_TRUE(
      MakeScenario("single-key-ramp", opt).status().IsInvalidArgument());

  opt = BaseOptions();
  opt.num_keys = 1;  // below the common floor
  EXPECT_TRUE(MakeScenario("zipf", opt).status().IsInvalidArgument());

  opt = BaseOptions();
  opt.drift_swap_fraction = 2.0;
  EXPECT_TRUE(MakeScenario("drift", opt).status().IsInvalidArgument());
}

TEST(ScenarioFactoryTest, NewScenarioKnobsAreValidated) {
  auto opt = BaseOptions();
  opt.burst_group_size = 0;
  EXPECT_TRUE(
      MakeScenario("correlated-burst", opt).status().IsInvalidArgument());

  opt = BaseOptions();
  opt.burst_group_size = opt.num_keys + 1;
  EXPECT_TRUE(
      MakeScenario("correlated-burst", opt).status().IsInvalidArgument());

  opt = BaseOptions();
  opt.burst_fraction = -0.5;
  EXPECT_TRUE(
      MakeScenario("correlated-burst", opt).status().IsInvalidArgument());

  opt = BaseOptions();
  opt.diurnal_period = 0;  // zero period: no cycle to modulate
  EXPECT_TRUE(MakeScenario("diurnal", opt).status().IsInvalidArgument());

  opt = BaseOptions();
  opt.diurnal_num_bands = 0;
  EXPECT_TRUE(MakeScenario("diurnal", opt).status().IsInvalidArgument());

  opt = BaseOptions();
  opt.diurnal_num_bands = opt.num_keys + 1;
  EXPECT_TRUE(MakeScenario("diurnal", opt).status().IsInvalidArgument());

  opt = BaseOptions();
  opt.diurnal_amplitude = 1.5;
  EXPECT_TRUE(MakeScenario("diurnal", opt).status().IsInvalidArgument());

  opt = BaseOptions();
  opt.growth_rate = 1.0;  // rate >= 1: every message a fresh key
  EXPECT_TRUE(
      MakeScenario("key-space-growth", opt).status().IsInvalidArgument());

  opt = BaseOptions();
  opt.growth_rate = -0.1;
  EXPECT_TRUE(
      MakeScenario("key-space-growth", opt).status().IsInvalidArgument());

  opt = BaseOptions();
  opt.growth_initial_fraction = 0.0;
  EXPECT_TRUE(
      MakeScenario("key-space-growth", opt).status().IsInvalidArgument());

  opt = BaseOptions();
  opt.growth_initial_fraction = 1.5;
  EXPECT_TRUE(
      MakeScenario("key-space-growth", opt).status().IsInvalidArgument());

  opt = BaseOptions();
  opt.noise_rate = -0.01;  // negative noise rate
  EXPECT_TRUE(
      MakeScenario("replay-with-noise", opt).status().IsInvalidArgument());

  opt = BaseOptions();
  opt.noise_rate = 1.01;
  EXPECT_TRUE(
      MakeScenario("replay-with-noise", opt).status().IsInvalidArgument());

  opt = BaseOptions();
  opt.noise_window = 0;
  EXPECT_TRUE(
      MakeScenario("replay-with-noise", opt).status().IsInvalidArgument());

  opt = BaseOptions();
  opt.replay_base = "replay-with-noise";  // would recurse forever
  EXPECT_TRUE(
      MakeScenario("replay-with-noise", opt).status().IsInvalidArgument());

  opt = BaseOptions();
  opt.replay_base = "no-such-base";
  EXPECT_TRUE(
      MakeScenario("replay-with-noise", opt).status().IsInvalidArgument());
}

TEST(ScenarioFactoryTest, ReplayCanWrapAnyOtherCatalogScenario) {
  for (const std::string& base : ScenarioNames()) {
    if (base == "replay-with-noise") continue;
    SCOPED_TRACE(base);
    auto opt = BaseOptions();
    opt.replay_base = base;
    auto gen = MakeScenario("replay-with-noise", opt);
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    for (int i = 0; i < 2000; ++i) {
      ASSERT_LT((*gen)->NextKey(), (*gen)->num_keys());
    }
  }
}

// Reset() must replay the exact sequence, and two same-seed instances must
// agree — the sweep engine rebuilds a generator per cell run and relies on
// construction being a pure function of the seed.
TEST(ScenarioResetTest, ResetRoundTripsForEveryScenario) {
  for (const std::string& name : ScenarioNames()) {
    SCOPED_TRACE(name);
    auto gen = MakeScenario(name, BaseOptions());
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    const std::vector<uint64_t> first = Pull(gen->get(), 20000);
    (*gen)->Reset();
    const std::vector<uint64_t> second = Pull(gen->get(), 20000);
    EXPECT_EQ(first, second);
  }
}

TEST(ScenarioResetTest, SameSeedInstancesAgree) {
  for (const std::string& name : ScenarioNames()) {
    SCOPED_TRACE(name);
    auto a = MakeScenario(name, BaseOptions());
    auto b = MakeScenario(name, BaseOptions());
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(Pull(a->get(), 5000), Pull(b->get(), 5000));
  }
}

TEST(ScenarioResetTest, SeedsChangeTheStream) {
  for (const std::string& name : ScenarioNames()) {
    SCOPED_TRACE(name);
    auto opt = BaseOptions();
    auto a = MakeScenario(name, opt);
    opt.seed = 8;
    auto b = MakeScenario(name, opt);
    ASSERT_TRUE(a.ok() && b.ok());
    const auto ka = Pull(a->get(), 1000);
    const auto kb = Pull(b->get(), 1000);
    int same = 0;
    for (int i = 0; i < 1000; ++i) same += ka[i] == kb[i];
    EXPECT_LT(same, 500);
  }
}

// Golden-seed pins, mirroring tests/workload/zipf_test.cc: identical seeds
// must reproduce identical key streams across runs. The sequences go through
// libm (pow/log in the Zipf samplers), so they pin glibc-class platforms
// (the ones CI covers); the Reset/two-instance tests above are libm-free
// invariants and must hold everywhere.
TEST(ScenarioGoldenTest, FlashCrowdSeed7) {
  // Before the window the stream is the base Zipf; inside it (positions
  // >= 8000 here) the burst key 999 dominates.
  FlashCrowdStreamGenerator gen(BaseOptions());
  const uint64_t head[] = {5, 15, 75, 60, 403, 2, 36, 1, 0, 156, 0, 4};
  for (uint64_t k : head) EXPECT_EQ(gen.NextKey(), k);
  gen.Reset();
  for (int i = 0; i < 8000; ++i) gen.NextKey();
  const uint64_t burst[] = {999, 501, 999, 999, 0, 999, 3, 235, 0, 999, 0, 0};
  for (uint64_t k : burst) EXPECT_EQ(gen.NextKey(), k);
}

TEST(ScenarioGoldenTest, HotSetChurnSeed7) {
  HotSetChurnStreamGenerator gen(BaseOptions());
  const uint64_t expected[] = {0, 75, 500, 501, 505, 21, 502, 501, 501, 4, 128, 501};
  for (uint64_t k : expected) EXPECT_EQ(gen.NextKey(), k);
}

TEST(ScenarioGoldenTest, SingleKeyRampSeed7) {
  SingleKeyRampStreamGenerator gen(BaseOptions());
  const uint64_t expected[] = {0, 75, 103, 2, 21, 0, 133, 4, 128, 175, 0, 30};
  for (uint64_t k : expected) EXPECT_EQ(gen.NextKey(), k);
}

TEST(ScenarioGoldenTest, CorrelatedBurstSeed7) {
  // Outside the window the stream is the base Zipf (identical to
  // flash-crowd's head — same rng draw order); inside it (positions >= 8000)
  // the group [984, 1000) ignites together.
  CorrelatedBurstStreamGenerator gen(BaseOptions());
  const uint64_t head[] = {5, 15, 75, 60, 403, 2, 36, 1, 0, 156, 0, 4};
  for (uint64_t k : head) EXPECT_EQ(gen.NextKey(), k);
  gen.Reset();
  for (int i = 0; i < 8000; ++i) gen.NextKey();
  const uint64_t burst[] = {997, 114, 995, 997, 995, 1, 987, 0, 997, 998, 0, 76};
  for (uint64_t k : burst) EXPECT_EQ(gen.NextKey(), k);
}

TEST(ScenarioGoldenTest, DiurnalSeed7) {
  DiurnalStreamGenerator gen(BaseOptions());
  const uint64_t expected[] = {250, 775, 26, 1,  508, 314,
                               33,  252, 532, 293, 33, 761};
  for (uint64_t k : expected) EXPECT_EQ(gen.NextKey(), k);
}

TEST(ScenarioGoldenTest, KeySpaceGrowthSeed7) {
  // Only keys < 100 (the initial 10% of the space) are live this early, and
  // the head hugs the frontier (ranks count back from the newest key).
  KeySpaceGrowthStreamGenerator gen(BaseOptions());
  const uint64_t expected[] = {99, 24, 92, 98, 95, 91, 98, 13, 33, 100, 35, 98};
  for (uint64_t k : expected) EXPECT_EQ(gen.NextKey(), k);
}

TEST(ScenarioGoldenTest, ReplayWithNoiseSeed7) {
  auto gen = MakeScenario("replay-with-noise", BaseOptions());
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  const uint64_t expected[] = {4, 60, 403, 0, 175, 2, 676, 2, 30, 39, 0, 7};
  for (uint64_t k : expected) EXPECT_EQ((*gen)->NextKey(), k);
}

// --- distribution-shape assertions ---------------------------------------

TEST(FlashCrowdTest, BurstWindowActuallyDominates) {
  FlashCrowdStreamGenerator gen(BaseOptions());  // window [8000, 12000)
  int in_window = 0;
  int outside = 0;
  for (uint64_t i = 0; i < gen.num_messages(); ++i) {
    const bool in_w = gen.InBurstWindow(i);
    if (gen.NextKey() == gen.burst_key()) {
      (in_w ? in_window : outside)++;
    }
  }
  // Inside the window the burst key carries ~burst_fraction (0.4) of the
  // traffic; outside it is the coldest rank of a 1000-key Zipf (~never).
  EXPECT_NEAR(in_window / 4000.0, 0.4, 0.05);
  EXPECT_LT(outside, 20);
}

TEST(FlashCrowdTest, WindowBoundariesMatchOptions) {
  FlashCrowdStreamGenerator gen(BaseOptions());
  EXPECT_FALSE(gen.InBurstWindow(7999));
  EXPECT_TRUE(gen.InBurstWindow(8000));
  EXPECT_TRUE(gen.InBurstWindow(11999));
  EXPECT_FALSE(gen.InBurstWindow(12000));
}

TEST(HotSetChurnTest, HotSetActuallyRotates) {
  const auto opt = BaseOptions();  // 10 epochs of 2000 messages
  HotSetChurnStreamGenerator gen(opt);
  std::vector<uint64_t> hottest_per_epoch;
  for (uint64_t epoch = 0; epoch < opt.num_epochs; ++epoch) {
    std::map<uint64_t, int> freq;
    uint64_t hot_mass = 0;
    const uint64_t start = gen.HotSetStart(epoch);
    for (int i = 0; i < 2000; ++i) {
      const uint64_t k = gen.NextKey();
      ++freq[k];
      if (k >= start && k < start + opt.hot_set_size) ++hot_mass;
    }
    // The active window carries ~hot_fraction (0.6) of the epoch's traffic.
    EXPECT_NEAR(hot_mass / 2000.0, 0.6, 0.08) << "epoch " << epoch;
    uint64_t best = 0;
    int best_count = -1;
    for (const auto& [k, c] : freq) {
      if (c > best_count) {
        best = k;
        best_count = c;
      }
    }
    EXPECT_GE(best, start) << "epoch " << epoch;
    EXPECT_LT(best, start + opt.hot_set_size) << "epoch " << epoch;
    hottest_per_epoch.push_back(best);
  }
  // Disjoint windows => the hottest identity is fresh every epoch.
  const std::set<uint64_t> distinct(hottest_per_epoch.begin(),
                                    hottest_per_epoch.end());
  EXPECT_EQ(distinct.size(), hottest_per_epoch.size());
}

TEST(SingleKeyRampTest, HotKeyShareGrowsToFinalFraction) {
  SingleKeyRampStreamGenerator gen(BaseOptions());  // ramps to 0.5
  const uint64_t m = gen.num_messages();
  int first_decile = 0;
  int last_decile = 0;
  for (uint64_t i = 0; i < m; ++i) {
    if (gen.NextKey() != gen.ramp_key()) continue;
    if (i < m / 10) ++first_decile;
    if (i >= m - m / 10) ++last_decile;
  }
  // Expected share: ~2.5% averaged over the first decile, ~47.5% over the
  // last — the ramp has no burst edge, it grows silently.
  EXPECT_LT(first_decile / 2000.0, 0.06);
  EXPECT_NEAR(last_decile / 2000.0, 0.475, 0.05);
  EXPECT_NEAR(gen.RampShare(m), 0.5, 1e-12);
}

}  // namespace
}  // namespace slb
