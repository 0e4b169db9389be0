// Boundary property tests for SpscRing (spsc_queue.h): exactly-at-capacity
// batch publishes, index wraparound over long runs, and a consumer draining
// with TryPopBatch while its producer stops. The randomized test drives the
// ring against a std::deque reference model through thousands of seeded batch
// operations, so any boundary condition in the cached-index arithmetic (full
// ring, empty ring, partial batch acceptance, wrap of the monotonically
// growing indices) diverges from the model and fails loudly.

#include "slb/dspe/spsc_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "slb/common/rng.h"

namespace slb {
namespace {

TEST(SpscBoundaryTest, ExactCapacityBatchPublishFillsRingCompletely) {
  SpscRing<uint64_t> ring(8);
  ASSERT_EQ(ring.capacity(), 8u);
  std::vector<uint64_t> items;
  for (uint64_t i = 0; i < 8; ++i) items.push_back(i);

  // A batch of exactly `capacity` into an empty ring lands whole.
  EXPECT_EQ(ring.TryPushBatch(items.data(), items.size()), 8u);
  EXPECT_FALSE(ring.TryPush(99));  // now completely full
  EXPECT_EQ(ring.TryPushBatch(items.data(), 1), 0u);

  uint64_t out[8];
  EXPECT_EQ(ring.TryPopBatch(out, 8), 8u);
  for (uint64_t i = 0; i < 8; ++i) EXPECT_EQ(out[i], i);
  EXPECT_TRUE(ring.EmptyApprox());

  // And again from a shifted (wrapped) base index.
  EXPECT_EQ(ring.TryPushBatch(items.data(), 3), 3u);
  EXPECT_EQ(ring.TryPopBatch(out, 3), 3u);
  EXPECT_EQ(ring.TryPushBatch(items.data(), 8), 8u);
  EXPECT_EQ(ring.TryPopBatch(out, 8), 8u);
}

TEST(SpscBoundaryTest, WraparoundPreservesFifoOverManyCycles) {
  SpscRing<uint64_t> ring(4);
  uint64_t pushed = 0;
  uint64_t popped = 0;
  // 10000 cycles of push-3/pop-3 wraps the 4-slot ring thousands of times.
  for (int cycle = 0; cycle < 10000; ++cycle) {
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(ring.TryPush(pushed++));
    uint64_t out = 0;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(ring.TryPop(&out));
      ASSERT_EQ(out, popped++);
    }
  }
  EXPECT_TRUE(ring.EmptyApprox());
}

TEST(SpscBoundaryTest, RandomizedBatchOpsMatchReferenceModel) {
  for (uint64_t seed : {3u, 17u, 251u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    SpscRing<uint64_t> ring(16);
    std::deque<uint64_t> model;
    uint64_t next_value = 0;

    for (int op = 0; op < 20000; ++op) {
      if (rng.NextBool(0.5)) {
        // Push a batch of 0..20 items (often exceeding the free space, so
        // partial-prefix acceptance is exercised constantly).
        const size_t want = rng.NextBounded(21);
        std::vector<uint64_t> batch;
        for (size_t i = 0; i < want; ++i) batch.push_back(next_value + i);
        const size_t accepted = ring.TryPushBatch(batch.data(), batch.size());
        ASSERT_LE(accepted, want);
        ASSERT_LE(model.size() + accepted, ring.capacity());
        // Accepted items are a prefix; the model mirrors exactly those.
        for (size_t i = 0; i < accepted; ++i) model.push_back(batch[i]);
        next_value += accepted;
        if (accepted < want) {
          // Rejection implies the ring really was full at the boundary.
          ASSERT_EQ(model.size(), ring.capacity());
        }
      } else {
        const size_t want = rng.NextBounded(21);
        std::vector<uint64_t> out(want);
        const size_t got = ring.TryPopBatch(out.data(), want);
        // The consumer refreshes its cached tail view only when that view
        // shows empty, so a pop may return a PARTIAL batch while more items
        // are published — but never more than requested or available, and
        // an empty return is exact (the refresh happens before reporting 0).
        ASSERT_LE(got, want);
        ASSERT_LE(got, model.size());
        if (want > 0) {
          ASSERT_EQ(got == 0, model.empty());
        }
        for (size_t i = 0; i < got; ++i) {
          ASSERT_EQ(out[i], model.front());
          model.pop_front();
        }
      }
    }
    // Everything still in flight drains in order (a pop may stop at the
    // consumer's cached tail, so drain until one comes back empty).
    std::vector<uint64_t> rest;
    uint64_t chunk[16];
    for (size_t got; (got = ring.TryPopBatch(chunk, 16)) > 0;) {
      rest.insert(rest.end(), chunk, chunk + got);
    }
    ASSERT_EQ(rest.size(), model.size());
    for (size_t i = 0; i < rest.size(); ++i) EXPECT_EQ(rest[i], model[i]);
    EXPECT_TRUE(ring.EmptyApprox());
  }
}

// The shutdown-drain contract: after the producer thread stops, the
// consumer's batch pops recover every item published before the stop, in
// order — the runtime's termination relies on lanes draining after spouts
// exhaust.
TEST(SpscBoundaryTest, DrainDuringShutdownRecoversEveryPublishedItem) {
  constexpr uint64_t kCount = 30000;
  SpscRing<uint64_t> ring(128);
  std::vector<uint64_t> drained;
  std::thread producer([&] {
    for (uint64_t i = 0; i < kCount;) {
      if (ring.TryPush(i)) {
        ++i;
      } else {
        std::this_thread::yield();
      }
    }
  });
  // Concurrent drain while the producer runs, then a final poll after it
  // stops that must find nothing left.
  uint64_t chunk[32];
  while (drained.size() < kCount) {
    const size_t popped = ring.TryPopBatch(chunk, 32);
    drained.insert(drained.end(), chunk, chunk + popped);
  }
  producer.join();
  EXPECT_EQ(ring.TryPopBatch(chunk, 32), 0u);

  ASSERT_EQ(drained.size(), kCount);
  for (uint64_t i = 0; i < kCount; ++i) ASSERT_EQ(drained[i], i);
  EXPECT_TRUE(ring.EmptyApprox());
}

}  // namespace
}  // namespace slb
