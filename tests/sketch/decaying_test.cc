#include "slb/sketch/decaying_space_saving.h"

#include <gtest/gtest.h>

#include "slb/common/rng.h"
#include "slb/core/head_tail_partitioner.h"
#include "slb/core/partitioner.h"
#include "slb/sim/load_tracker.h"
#include "slb/workload/zipf.h"

namespace slb {
namespace {

TEST(ScaleDownTest, HalvesCountsAndTotal) {
  SpaceSaving ss(8);
  for (int i = 0; i < 10; ++i) ss.UpdateAndEstimate(1);
  for (int i = 0; i < 4; ++i) ss.UpdateAndEstimate(2);
  ss.ScaleDown(2);
  EXPECT_EQ(ss.Estimate(1), 5u);
  EXPECT_EQ(ss.Estimate(2), 2u);
  EXPECT_EQ(ss.total(), 7u);
}

TEST(ScaleDownTest, DropsDecayedOutCounters) {
  SpaceSaving ss(8);
  ss.UpdateAndEstimate(1);
  for (int i = 0; i < 9; ++i) ss.UpdateAndEstimate(2);
  ss.ScaleDown(4);  // key 1 count 1/4 -> 0, dropped
  EXPECT_EQ(ss.memory_counters(), 1u);
  EXPECT_EQ(ss.Estimate(2), 2u);
}

TEST(ScaleDownTest, DivisorOneIsIdentity) {
  SpaceSaving ss(4);
  for (int i = 0; i < 6; ++i) ss.UpdateAndEstimate(9);
  ss.ScaleDown(1);
  EXPECT_EQ(ss.Estimate(9), 6u);
  EXPECT_EQ(ss.total(), 6u);
}

TEST(ScaleDownTest, StructureStillUpdatableAfterRebuild) {
  SpaceSaving ss(4);
  for (int i = 0; i < 100; ++i) ss.UpdateAndEstimate(i % 6);
  ss.ScaleDown(2);
  // Keep updating; stream-summary invariants must hold (min eviction etc.).
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) ss.UpdateAndEstimate(rng.NextBounded(50));
  EXPECT_LE(ss.memory_counters(), 4u);
  EXPECT_GT(ss.min_count(), 0u);
}

TEST(DecayingSpaceSavingTest, DecaysOnSchedule) {
  DecayingSpaceSaving dss(16, /*half_life=*/100);
  for (int i = 0; i < 350; ++i) dss.UpdateAndEstimate(i % 4);
  EXPECT_EQ(dss.decays_performed(), 3u);
  EXPECT_LT(dss.total(), 350u) << "total must be decayed";
}

TEST(DecayingSpaceSavingTest, RelativeFrequenciesPreserved) {
  // Key 0 carries ~50% of the stream; after several decays its estimated
  // share (count/total) must still be ~50%.
  DecayingSpaceSaving dss(64, 1000);
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    dss.UpdateAndEstimate(rng.NextBool(0.5) ? 0 : 1 + rng.NextBounded(500));
  }
  const double share = static_cast<double>(dss.Estimate(0)) /
                       static_cast<double>(dss.total());
  EXPECT_NEAR(share, 0.5, 0.08);
}

TEST(DecayingSpaceSavingTest, ForgetsColdKeysFasterThanPlainSketch) {
  // Phase 1: key A hot. Phase 2: key B hot. The decaying sketch's estimate
  // for B must overtake A soon after the flip; the plain sketch needs as
  // long as phase 1 lasted.
  const uint64_t kA = 111;
  const uint64_t kB = 222;
  DecayingSpaceSaving decaying(64, 2000);
  SpaceSaving plain(64);
  Rng rng(9);
  auto feed = [&](uint64_t hot, int count) {
    for (int i = 0; i < count; ++i) {
      const uint64_t key = rng.NextBool(0.5) ? hot : 1000 + rng.NextBounded(300);
      decaying.UpdateAndEstimate(key);
      plain.UpdateAndEstimate(key);
    }
  };
  feed(kA, 20000);
  feed(kB, 6000);  // 30% as long as phase 1
  EXPECT_GT(decaying.Estimate(kB), decaying.Estimate(kA))
      << "decaying sketch must have switched to the new hot key";
  EXPECT_LT(plain.Estimate(kB), plain.Estimate(kA))
      << "plain sketch is still dominated by history";
}

TEST(DecayingSpaceSavingTest, ResetClearsDecayState) {
  DecayingSpaceSaving dss(8, 10);
  for (int i = 0; i < 100; ++i) dss.UpdateAndEstimate(1);
  dss.Reset();
  EXPECT_EQ(dss.total(), 0u);
  EXPECT_EQ(dss.decays_performed(), 0u);
}

// --- auto-tuned half-life --------------------------------------------------

DecayingSpaceSaving::AutoTune TestTune() {
  DecayingSpaceSaving::AutoTune tune;
  tune.enabled = true;
  tune.min_half_life = 250;
  tune.max_half_life = 16000;
  return tune;
}

TEST(AutoTuneTest, DisabledByDefaultAndClampedWhenEnabled) {
  DecayingSpaceSaving plain(16, 1000);
  EXPECT_FALSE(plain.auto_tune().enabled);
  EXPECT_EQ(plain.half_life(), 1000u);
  // A starting half-life outside [min, max] is clamped on construction.
  DecayingSpaceSaving clamped(16, 100000, TestTune());
  EXPECT_EQ(clamped.half_life(), 16000u);
  EXPECT_EQ(clamped.initial_half_life(), 16000u);
}

TEST(AutoTuneTest, ShrinksToMinUnderWholesaleHeadChurn) {
  // The hot window of 8 keys advances every 500 updates — each decay
  // boundary sees an (almost) entirely fresh top-8, so the tuner walks the
  // half-life down until it matches the churn period (it oscillates between
  // 250 and 500: at 250 two consecutive boundaries see the same window and
  // it doubles back — tracking the churn is the intended equilibrium).
  // Deterministic: no RNG at all.
  DecayingSpaceSaving dss(32, 4000, TestTune());
  for (uint64_t i = 0; i < 100000; ++i) {
    dss.UpdateAndEstimate((i / 500) * 8 + (i % 8));
  }
  EXPECT_LE(dss.half_life(), 500u) << "half-life must track the churn period";
  EXPECT_GT(dss.tune_shrinks(), 0u);
  EXPECT_LT(dss.half_life(), dss.initial_half_life());
}

TEST(AutoTuneTest, GrowsToMaxOnStableHead) {
  // A permanently stable 8-key head: overlap is 1 at every boundary, so the
  // half-life doubles until it hits the ceiling — decaying a static stream
  // is pure estimation error.
  DecayingSpaceSaving dss(32, 1000, TestTune());
  for (uint64_t i = 0; i < 100000; ++i) {
    dss.UpdateAndEstimate(i % 8);
  }
  EXPECT_EQ(dss.half_life(), TestTune().max_half_life);
  EXPECT_GE(dss.tune_growths(), 4u);
  EXPECT_EQ(dss.tune_shrinks(), 0u);
}

TEST(AutoTuneTest, GoldenSeedTrajectoryIsReproducible) {
  // Same-seed runs must agree exactly — the tuner is a deterministic
  // function of the update sequence, never of wall clock or allocation
  // order. Two instances fed the identical seeded stream stay byte-equal in
  // counters AND tuning state at every point; spot-check the end.
  auto feed = [](DecayingSpaceSaving* dss) {
    Rng rng(21);
    for (uint64_t i = 0; i < 50000; ++i) {
      const uint64_t hot = 300 + i / 10000;  // hot identity flips 5 times
      const uint64_t key = rng.NextBool(0.4) ? hot : rng.NextBounded(2000);
      dss->UpdateAndEstimate(key);
    }
  };
  DecayingSpaceSaving a(64, 2000, TestTune());
  DecayingSpaceSaving b(64, 2000, TestTune());
  feed(&a);
  feed(&b);
  EXPECT_EQ(a.inner().Counters(), b.inner().Counters());
  EXPECT_EQ(a.half_life(), b.half_life());
  EXPECT_EQ(a.decays_performed(), b.decays_performed());
  EXPECT_EQ(a.tune_shrinks(), b.tune_shrinks());
  EXPECT_EQ(a.tune_growths(), b.tune_growths());
  EXPECT_EQ(a.total(), b.total());
  // The trajectory actually moved: churn every 10k with a 2k half-life must
  // trigger at least one adjustment in 50k updates.
  EXPECT_GT(a.tune_shrinks() + a.tune_growths(), 0u);
}

TEST(AutoTuneTest, ResetRoundTripsTheWholeTuningState) {
  DecayingSpaceSaving dss(64, 2000, TestTune());
  auto feed = [&dss]() {
    Rng rng(21);
    for (uint64_t i = 0; i < 50000; ++i) {
      const uint64_t hot = 300 + i / 10000;
      const uint64_t key = rng.NextBool(0.4) ? hot : rng.NextBounded(2000);
      dss.UpdateAndEstimate(key);
    }
  };
  feed();
  const auto counters = dss.inner().Counters();
  const uint64_t half_life = dss.half_life();
  const uint64_t decays = dss.decays_performed();
  const uint64_t shrinks = dss.tune_shrinks();
  const uint64_t growths = dss.tune_growths();
  const uint64_t total = dss.total();

  dss.Reset();
  EXPECT_EQ(dss.half_life(), dss.initial_half_life());
  EXPECT_EQ(dss.decays_performed(), 0u);
  EXPECT_EQ(dss.tune_shrinks(), 0u);
  EXPECT_EQ(dss.tune_growths(), 0u);
  EXPECT_EQ(dss.total(), 0u);

  feed();  // identical stream after Reset => identical end state
  EXPECT_EQ(dss.inner().Counters(), counters);
  EXPECT_EQ(dss.half_life(), half_life);
  EXPECT_EQ(dss.decays_performed(), decays);
  EXPECT_EQ(dss.tune_shrinks(), shrinks);
  EXPECT_EQ(dss.tune_growths(), growths);
  EXPECT_EQ(dss.total(), total);
}

// The partitioner derives the half-life from theta, max(1024, ceil(4/theta)),
// and hands the auto-tune clamps derived from it to the sketch.
TEST(AutoTuneTest, PartitionerPlumbsDecayKnobs) {
  PartitionerOptions options;
  options.num_workers = 20;
  options.hash_seed = 5;
  options.theta_ratio = 0.01;  // theta = 1/2000 => 4/theta = 8000
  options.sketch = SketchKind::kDecayingSpaceSaving;
  options.decay_auto_tune = true;
  auto dc = CreatePartitioner(AlgorithmKind::kDChoices, options);
  ASSERT_TRUE(dc.ok());
  auto* head_tail = dynamic_cast<HeadTailPartitioner*>(dc.value().get());
  ASSERT_NE(head_tail, nullptr);
  const auto* sketch =
      dynamic_cast<const DecayingSpaceSaving*>(&head_tail->sketch());
  ASSERT_NE(sketch, nullptr);
  EXPECT_EQ(sketch->initial_half_life(), 8000u);
  EXPECT_TRUE(sketch->auto_tune().enabled);
  EXPECT_EQ(sketch->auto_tune().min_half_life, 8000u / 16);
  // The ceiling reaches "effectively no decay" (>= 2^22), not 16x the start.
  EXPECT_EQ(sketch->auto_tune().max_half_life, uint64_t{1} << 22);

  options.decay_auto_tune = false;
  options.theta_ratio = 0.2;  // 4/theta = 400, below the 1024 floor
  auto fixed = CreatePartitioner(AlgorithmKind::kDChoices, options);
  ASSERT_TRUE(fixed.ok());
  const auto* fixed_sketch = dynamic_cast<const DecayingSpaceSaving*>(
      &dynamic_cast<HeadTailPartitioner*>(fixed.value().get())->sketch());
  ASSERT_NE(fixed_sketch, nullptr);
  EXPECT_FALSE(fixed_sketch->auto_tune().enabled);
  EXPECT_EQ(fixed_sketch->initial_half_life(), 1024u);
  EXPECT_EQ(fixed_sketch->half_life(), 1024u);
}

TEST(AutoTuneTest, AutoTunedDChoicesSurvivesRotatingHotSet) {
  // End-to-end: auto-tuned decay inside D-Choices on a wholesale-rotation
  // stream (the hot-set-churn failure mode) must stay near-balanced.
  PartitionerOptions options;
  options.num_workers = 20;
  options.hash_seed = 5;
  options.sketch = SketchKind::kDecayingSpaceSaving;
  options.decay_auto_tune = true;
  auto dc = CreatePartitioner(AlgorithmKind::kDChoices, options);
  ASSERT_TRUE(dc.ok());
  Rng rng(11);
  LoadTracker tracker(20);
  const int m = 120000;
  for (int i = 0; i < m; ++i) {
    const uint64_t hot = 5000 + static_cast<uint64_t>(i / 30000);
    const uint64_t key = rng.NextBool(0.4) ? hot : rng.NextBounded(2000);
    const uint32_t w = dc.value()->Route(key);
    tracker.Record(w, key, dc.value()->last_was_head());
  }
  EXPECT_LT(tracker.Imbalance(), 0.06);
}

TEST(DecayingSpaceSavingTest, WorksInsideDChoicesOnDriftingStream) {
  PartitionerOptions options;
  options.num_workers = 20;
  options.hash_seed = 5;
  options.sketch = SketchKind::kDecayingSpaceSaving;
  auto dc = CreatePartitioner(AlgorithmKind::kDChoices, options);
  ASSERT_TRUE(dc.ok());
  Rng rng(11);
  LoadTracker tracker(20);
  const int m = 120000;
  for (int i = 0; i < m; ++i) {
    // Hot key flips identity every 30k messages.
    const uint64_t hot = 5000 + static_cast<uint64_t>(i / 30000);
    const uint64_t key = rng.NextBool(0.4) ? hot : rng.NextBounded(2000);
    const uint32_t w = dc.value()->Route(key);
    tracker.Record(w, key, dc.value()->last_was_head());
  }
  // Cumulative I(m) includes the pre-detection prefix after each identity
  // flip; the bound to clear decisively is PKG's pinned-hot-key level
  // (0.4/2 - 1/20 = 0.15).
  EXPECT_LT(tracker.Imbalance(), 0.06);
}

}  // namespace
}  // namespace slb
