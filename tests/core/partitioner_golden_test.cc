// Golden route sequences for the min-choice partitioners.
//
// Each case routes a seeded Zipf stream at n = 80, rescales to 50 workers a
// third of the way in and back to 80 at two thirds, and folds every routed
// worker into a 64-bit checksum. The expected values were recorded from the
// straightforward implementation (every head tuple rehashing all d
// candidates), so any routing-path optimization must reproduce the exact
// worker sequence — tie order, d changes and rescale included — to pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "slb/common/rng.h"
#include "slb/core/partitioner.h"
#include "slb/workload/cost_model.h"
#include "slb/workload/zipf.h"

namespace slb {
namespace {

constexpr uint32_t kWorkers = 80;
constexpr uint32_t kRescaledWorkers = 50;
constexpr uint64_t kKeys = 200000;
constexpr uint64_t kMessages = 200000;
constexpr size_t kBatch = 64;

struct GoldenCase {
  const char* label;
  AlgorithmKind kind;
  double z;
  BalanceSignal signal;
  uint64_t expected;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.label; }

struct RouteRun {
  uint64_t checksum = 0xcbf29ce484222325ULL;
  // Whether head keys ever got 2 < d < n choices (the hashed d-way scan,
  // as opposed to the two-choices or all-workers paths).
  bool saw_d_way = false;
};

PartitionerOptions GoldenOptions(BalanceSignal signal) {
  PartitionerOptions opt;
  opt.num_workers = kWorkers;
  opt.hash_seed = 0x9e3779b97f4a7c15ULL;
  opt.fixed_d = 5;
  opt.balance_on = signal;
  if (signal != BalanceSignal::kCount) {
    CostModelOptions cost;
    cost.num_keys = kKeys;
    cost.seed = 7;
    opt.cost_model = MakeCostModel("anti-correlated", cost).value();
    // Slightly below the per-worker arrival rate of work, so backlogs build
    // up and the in-flight comparison is not a constant tie on zero.
    opt.service_rate = 0.9 / kWorkers;
  }
  return opt;
}

// FNV-1a over the routed worker ids, with the rescale points in the stream.
RouteRun RouteStream(const GoldenCase& c) {
  auto made = CreatePartitioner(c.kind, GoldenOptions(c.signal));
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  StreamPartitioner& partitioner = *made.value();

  const ZipfDistribution zipf(c.z, kKeys);
  Rng rng(1234);
  std::vector<uint64_t> keys(kBatch);
  std::vector<uint32_t> workers(kBatch);
  RouteRun run;
  uint32_t n = kWorkers;
  for (uint64_t sent = 0; sent < kMessages; sent += kBatch) {
    if (sent == kMessages / 3 / kBatch * kBatch) {
      EXPECT_TRUE(partitioner.Rescale(kRescaledWorkers).ok());
      n = kRescaledWorkers;
    } else if (sent == 2 * kMessages / 3 / kBatch * kBatch) {
      EXPECT_TRUE(partitioner.Rescale(kWorkers).ok());
      n = kWorkers;
    }
    const size_t count =
        static_cast<size_t>(std::min<uint64_t>(kBatch, kMessages - sent));
    for (size_t i = 0; i < count; ++i) keys[i] = zipf.Sample(&rng);
    partitioner.RouteBatch(keys.data(), count, workers.data());
    for (size_t i = 0; i < count; ++i) {
      EXPECT_LT(workers[i], n);
      run.checksum = (run.checksum ^ workers[i]) * 0x100000001b3ULL;
    }
    const uint32_t d = partitioner.head_choices();
    run.saw_d_way = run.saw_d_way || (d > 2 && d < n);
  }
  return run;
}

class PartitionerGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(PartitionerGoldenTest, RouteSequenceMatchesGolden) {
  const GoldenCase& c = GetParam();
  const RouteRun run = RouteStream(c);
  EXPECT_EQ(run.checksum, c.expected)
      << c.label << ": route checksum 0x" << std::hex << run.checksum;
  if (c.kind == AlgorithmKind::kDChoices ||
      c.kind == AlgorithmKind::kFixedDChoices) {
    EXPECT_TRUE(run.saw_d_way) << "the stream never exercises a d-way scan";
  }
}

constexpr BalanceSignal kCount = BalanceSignal::kCount;
constexpr BalanceSignal kCost = BalanceSignal::kCost;
constexpr BalanceSignal kInFlight = BalanceSignal::kInFlight;

INSTANTIATE_TEST_SUITE_P(
    Golden, PartitionerGoldenTest,
    ::testing::Values(
        GoldenCase{"dc_z14", AlgorithmKind::kDChoices, 1.4, kCount,
                   0xb4e0a6d41eaada0cULL},
        GoldenCase{"dc_z20", AlgorithmKind::kDChoices, 2.0, kCount,
                   0xdd13d8caf460a40cULL},
        GoldenCase{"fixedd_z14", AlgorithmKind::kFixedDChoices, 1.4, kCount,
                   0xdc65d49925a03568ULL},
        GoldenCase{"fixedd_z20", AlgorithmKind::kFixedDChoices, 2.0, kCount,
                   0x78bb0f28c6cec618ULL},
        GoldenCase{"wc_z14", AlgorithmKind::kWChoices, 1.4, kCount,
                   0x291df4c0194ae17aULL},
        GoldenCase{"wc_z20", AlgorithmKind::kWChoices, 2.0, kCount,
                   0x95f8c581892239daULL},
        GoldenCase{"rr_z14", AlgorithmKind::kRoundRobinHead, 1.4, kCount,
                   0x1294a9148fcf322bULL},
        GoldenCase{"rr_z20", AlgorithmKind::kRoundRobinHead, 2.0, kCount,
                   0x1044ec0c58998c8cULL},
        GoldenCase{"pkg_z14", AlgorithmKind::kPkg, 1.4, kCount,
                   0xdb9ac05b1e2e6dbbULL},
        GoldenCase{"pkg_z20", AlgorithmKind::kPkg, 2.0, kCount,
                   0x6943cb4ff78a1968ULL},
        GoldenCase{"dc_cost_z14", AlgorithmKind::kDChoices, 1.4, kCost,
                   0x2df6fd43e19ad14eULL},
        GoldenCase{"dc_inflight_z14", AlgorithmKind::kDChoices, 1.4, kInFlight,
                   0xc0ac6df89365f3bfULL},
        GoldenCase{"dc_inflight_z20", AlgorithmKind::kDChoices, 2.0, kInFlight,
                   0xecf5351a6e61bb98ULL},
        GoldenCase{"fixedd_cost_z20", AlgorithmKind::kFixedDChoices, 2.0, kCost,
                   0xcd07eb6040bc7f46ULL}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.label);
    });

}  // namespace
}  // namespace slb
