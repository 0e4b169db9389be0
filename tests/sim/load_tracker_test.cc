#include "slb/sim/load_tracker.h"

#include <gtest/gtest.h>

namespace slb {
namespace {

TEST(LoadTrackerTest, EmptyHasZeroImbalance) {
  LoadTracker tracker(4);
  EXPECT_EQ(tracker.total(), 0u);
  EXPECT_DOUBLE_EQ(tracker.Imbalance(), 0.0);
}

TEST(LoadTrackerTest, PerfectBalanceIsZeroImbalance) {
  LoadTracker tracker(4);
  for (uint32_t w = 0; w < 4; ++w) {
    for (int i = 0; i < 25; ++i) tracker.Record(w, i, false);
  }
  EXPECT_EQ(tracker.total(), 100u);
  EXPECT_NEAR(tracker.Imbalance(), 0.0, 1e-12);
}

TEST(LoadTrackerTest, ImbalanceMatchesDefinition) {
  // I = max(L) - avg(L); 70/30 on two workers: 0.7 - 0.5 = 0.2.
  LoadTracker tracker(2);
  for (int i = 0; i < 70; ++i) tracker.Record(0, i, false);
  for (int i = 0; i < 30; ++i) tracker.Record(1, i, false);
  EXPECT_NEAR(tracker.Imbalance(), 0.2, 1e-12);
}

TEST(LoadTrackerTest, NormalizedLoadsSumToOne) {
  LoadTracker tracker(5);
  for (int i = 0; i < 123; ++i) tracker.Record(i % 3, i, false);
  const auto loads = tracker.NormalizedLoads();
  double sum = 0;
  for (double l : loads) sum += l;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(loads[4], 0.0);
}

TEST(LoadTrackerTest, HeadTailSplitAddsUp) {
  LoadTracker tracker(3);
  for (int i = 0; i < 60; ++i) tracker.Record(i % 3, 0, /*is_head=*/true);
  for (int i = 0; i < 40; ++i) tracker.Record(i % 3, 1 + i, /*is_head=*/false);
  EXPECT_EQ(tracker.head_messages(), 60u);
  const auto head = tracker.NormalizedHeadLoads();
  const auto tail = tracker.NormalizedTailLoads();
  const auto all = tracker.NormalizedLoads();
  for (int w = 0; w < 3; ++w) {
    EXPECT_NEAR(head[w] + tail[w], all[w], 1e-12);
  }
}

TEST(LoadTrackerTest, MemoryCountsDistinctKeyWorkerPairs) {
  LoadTracker tracker(4, /*track_memory=*/true);
  tracker.Record(0, 7, false);
  tracker.Record(0, 7, false);  // duplicate pair
  tracker.Record(1, 7, false);  // same key, new worker
  tracker.Record(1, 8, false);  // new key
  EXPECT_EQ(tracker.memory_entries(), 3u);
  EXPECT_TRUE(tracker.tracks_memory());
}

TEST(LoadTrackerTest, RescaleOutAddsZeroLoadWorkers) {
  LoadTracker tracker(2);
  for (int i = 0; i < 40; ++i) tracker.Record(i % 2, i, false);
  tracker.Rescale(4);
  EXPECT_EQ(tracker.num_workers(), 4u);
  EXPECT_EQ(tracker.total(), 40u) << "scale-out keeps every recorded message";
  const auto loads = tracker.NormalizedLoads();
  EXPECT_DOUBLE_EQ(loads[0], 0.5);
  EXPECT_DOUBLE_EQ(loads[2], 0.0);
  EXPECT_DOUBLE_EQ(loads[3], 0.0);
  // 20/40 on the max worker, average 1/4: I = 0.5 - 0.25.
  EXPECT_NEAR(tracker.Imbalance(), 0.25, 1e-12);
  tracker.Record(3, 99, false);  // new workers accept load immediately
  EXPECT_EQ(tracker.total(), 41u);
}

TEST(LoadTrackerTest, RescaleInDropsRemovedWorkersCounts) {
  LoadTracker tracker(4);
  for (uint32_t w = 0; w < 4; ++w) {
    for (int i = 0; i < 10; ++i) tracker.Record(w, i, /*is_head=*/w == 3);
  }
  EXPECT_EQ(tracker.total(), 40u);
  EXPECT_EQ(tracker.head_messages(), 10u);
  tracker.Rescale(2);
  EXPECT_EQ(tracker.num_workers(), 2u);
  // Workers 2 and 3 leave the totals: the tracker reports the load carried
  // by the CURRENT worker set.
  EXPECT_EQ(tracker.total(), 20u);
  EXPECT_EQ(tracker.head_messages(), 0u) << "all head load was on worker 3";
  EXPECT_NEAR(tracker.Imbalance(), 0.0, 1e-12);
}

TEST(LoadTrackerTest, MemoryEntriesSurviveRescale) {
  LoadTracker tracker(4, /*track_memory=*/true);
  tracker.Record(3, 7, false);
  tracker.Record(0, 7, false);
  tracker.Rescale(2);
  // State replicas were created regardless of the later scale-in.
  EXPECT_EQ(tracker.memory_entries(), 2u);
  // A pair recorded at the NEW worker count must not alias one recorded at
  // the old count (the count-independent encoding regression).
  tracker.Rescale(4);
  tracker.Record(3, 7, false);
  EXPECT_EQ(tracker.memory_entries(), 2u) << "same (key,worker) pair as before";
  tracker.Record(2, 7, false);
  EXPECT_EQ(tracker.memory_entries(), 3u);
}

TEST(LoadTrackerTest, MemoryTrackingOffByDefault) {
  LoadTracker tracker(2);
  tracker.Record(0, 1, false);
  EXPECT_FALSE(tracker.tracks_memory());
  EXPECT_EQ(tracker.memory_entries(), 0u);
}

// ---------------------------------------------------------------------------
// Heterogeneous cost accounting (docs/ARCHITECTURE.md "Heterogeneous cost layer")
// ---------------------------------------------------------------------------

TEST(LoadTrackerCostTest, UnitCostsMakeCostImbalanceEqualCountImbalance) {
  // Default cost = 1.0: the cost metric is the count metric, bit for bit.
  LoadTracker tracker(3);
  for (int i = 0; i < 70; ++i) tracker.Record(0, i, false);
  for (int i = 0; i < 20; ++i) tracker.Record(1, i, false);
  for (int i = 0; i < 10; ++i) tracker.Record(2, i, false);
  EXPECT_DOUBLE_EQ(tracker.CostImbalance(), tracker.Imbalance());
  const auto counts = tracker.NormalizedLoads();
  const auto costs = tracker.NormalizedCostLoads();
  for (int w = 0; w < 3; ++w) EXPECT_DOUBLE_EQ(costs[w], counts[w]);
}

TEST(LoadTrackerCostTest, CostImbalanceDivergesFromCountImbalance) {
  // Equal counts, unequal costs: count imbalance 0, cost imbalance follows
  // the definition max(C)/total - 1/n = 9/10 - 1/2.
  LoadTracker tracker(2);
  tracker.Record(0, 0, false, 9.0);
  tracker.Record(1, 1, false, 1.0);
  EXPECT_NEAR(tracker.Imbalance(), 0.0, 1e-12);
  EXPECT_NEAR(tracker.CostImbalance(), 0.9 - 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(tracker.total_cost(), 10.0);
}

TEST(LoadTrackerCostTest, OutstandingWorkNeverNegative) {
  LoadTracker tracker(2);
  tracker.EnableCostTracking(/*service_rate=*/5.0);
  tracker.Record(0, 0, false, 1.0);
  // The drain since worker 0's arrival (5 per step) far exceeds its backlog;
  // the lazy materialization must clamp at zero, not go negative.
  for (int i = 0; i < 50; ++i) tracker.Record(1, i, false, 1.0);
  for (uint32_t w = 0; w < 2; ++w) {
    EXPECT_GE(tracker.OutstandingWork(w), 0.0) << "worker " << w;
  }
  EXPECT_GE(tracker.TotalOutstanding(), 0.0);
}

TEST(LoadTrackerCostTest, CompletionsConserveTotalCost) {
  // Invariant: recorded = completed + outstanding, at every step, for an
  // adversarial mix of costs and an idle worker that drains lazily.
  LoadTracker tracker(3);
  tracker.EnableCostTracking(/*service_rate=*/0.7);
  double recorded = 0.0;
  for (int i = 0; i < 500; ++i) {
    const double cost = 0.5 + static_cast<double>(i % 7);
    tracker.Record(i % 2, i, false, cost);  // worker 2 never touched again
    recorded += cost;
    ASSERT_NEAR(tracker.completed_cost() + tracker.TotalOutstanding(),
                recorded, 1e-9 * recorded)
        << "step " << i;
  }
  EXPECT_DOUBLE_EQ(tracker.total_cost(), recorded);
  EXPECT_GT(tracker.completed_cost(), 0.0);
}

TEST(LoadTrackerCostTest, PeakOutstandingIsMonotoneAndReached) {
  LoadTracker tracker(2);
  tracker.EnableCostTracking(/*service_rate=*/1.0);
  // Burst of cost 10 every step onto worker 0 with rate 1: backlog climbs
  // by 9 per step, so the peak equals the final outstanding value.
  for (int i = 0; i < 10; ++i) tracker.Record(0, i, false, 10.0);
  EXPECT_DOUBLE_EQ(tracker.peak_outstanding(), tracker.OutstandingWork(0));
  EXPECT_NEAR(tracker.OutstandingWork(0), 10.0 * 10 - 9.0, 1e-12);
  const double peak = tracker.peak_outstanding();
  // Draining (recording elsewhere) must never lower the recorded peak.
  for (int i = 0; i < 200; ++i) tracker.Record(1, i, false, 0.1);
  EXPECT_DOUBLE_EQ(tracker.peak_outstanding(), peak);
}

TEST(LoadTrackerCostTest, RescaleDropsRemovedWorkersCostMassExactly) {
  LoadTracker tracker(4);
  // Distinct, exactly-representable cost mass per worker.
  const double mass[4] = {1.25, 2.5, 8.0, 64.0};
  for (uint32_t w = 0; w < 4; ++w) tracker.Record(w, w, false, mass[w]);
  EXPECT_DOUBLE_EQ(tracker.total_cost(), 1.25 + 2.5 + 8.0 + 64.0);
  tracker.Rescale(2);
  // Workers 2 and 3 leave the totals exactly — no residue, no double drop.
  EXPECT_DOUBLE_EQ(tracker.total_cost(), 1.25 + 2.5);
  EXPECT_DOUBLE_EQ(tracker.costs()[0], 1.25);
  EXPECT_DOUBLE_EQ(tracker.costs()[1], 2.5);
  tracker.Rescale(4);
  EXPECT_DOUBLE_EQ(tracker.total_cost(), 1.25 + 2.5)
      << "re-added workers start with zero cost mass";
  EXPECT_DOUBLE_EQ(tracker.costs()[2], 0.0);
  EXPECT_DOUBLE_EQ(tracker.OutstandingWork(3), 0.0);
}

TEST(LoadTrackerCostTest, CostWeightingLeavesMemoryPairsUntouched) {
  // The (key,worker) encoding — and hence the memory metric — must be
  // identical whether messages are cheap, dear, or unweighted.
  LoadTracker weighted(4, /*track_memory=*/true);
  LoadTracker unweighted(4, /*track_memory=*/true);
  weighted.EnableCostTracking(/*service_rate=*/2.0);
  for (int i = 0; i < 100; ++i) {
    weighted.Record(i % 4, i % 11, false, 1.0 + static_cast<double>(i % 5));
    unweighted.Record(i % 4, i % 11, false);
  }
  EXPECT_EQ(weighted.memory_entries(), unweighted.memory_entries());
  EXPECT_EQ(weighted.total(), unweighted.total());
}

TEST(LoadTrackerCostTest, ZeroCostStreamHasZeroCostImbalance) {
  LoadTracker tracker(2);
  EXPECT_DOUBLE_EQ(tracker.CostImbalance(), 0.0);
  EXPECT_DOUBLE_EQ(tracker.total_cost(), 0.0);
  const auto costs = tracker.NormalizedCostLoads();
  EXPECT_DOUBLE_EQ(costs[0], 0.0);
  EXPECT_DOUBLE_EQ(costs[1], 0.0);
}

}  // namespace
}  // namespace slb
