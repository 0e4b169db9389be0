// Figure 9 — comparison of the d computed by D-Choices' analysis with the
// minimal d that empirically matches W-Choices' imbalance, for n in
// {50, 100} over the skew grid (|K| = 1e4).
//
// For each cell: run W-C to get the imbalance target, then find (by binary
// search over d, valid because imbalance is statistically non-increasing
// in d) the smallest d for which Fixed-D matches it; the analytic_d /
// minimal_d metric columns report the analysis next to that minimum. The
// search is adaptive, so it lives in a custom cell runner rather than a
// static grid axis; each probe is a full RunPartitionSimulation averaged
// over --runs seeds (the engine itself runs each cell once — the runner
// owns the averaging so the search is not repeated per run).
//
// Expected shape: the analytic d sits slightly above the empirical minimum
// and never below it by more than sampling noise.

#include <algorithm>
#include <string>

#include "common/bench_util.h"
#include "slb/analysis/choices.h"
#include "slb/workload/zipf.h"

namespace slb::bench {
namespace {

// Mean final imbalance over `runs` simulations at seeds seed, seed+1, ...
Result<double> AveragedImbalance(const SweepCellContext& ctx,
                                 AlgorithmKind algorithm, uint32_t fixed_d,
                                 int64_t runs) {
  PartitionSimConfig config = ctx.MakeSimConfig();
  config.algorithm = algorithm;
  config.partitioner.fixed_d = fixed_d;
  double sum = 0.0;
  for (int64_t r = 0; r < runs; ++r) {
    auto gen = ctx.scenario->make(ctx.grid->seed + static_cast<uint64_t>(r));
    if (!gen.ok()) return gen.status();
    auto result = RunPartitionSimulation(config, gen->get());
    if (!result.ok()) return result.status();
    sum += result->final_imbalance;
  }
  return sum / static_cast<double>(runs);
}

int Main(int argc, char** argv) {
  const BenchEnv env = ParseBenchArgs(argc, argv, "Fig. 9: analytic vs minimal d");
  const uint64_t keys = 10000;
  const uint64_t messages = env.MessagesOr(200000, 10000000);
  const double epsilon = 1e-4;

  PrintBanner("bench_fig09_minimal_d", "Figure 9",
              "|K|=1e4, m=" + std::to_string(messages) + ", eps=1e-4");

  SweepGrid grid;
  grid.scenarios =
      SkewScenarios(env.paper, keys, messages, static_cast<uint64_t>(env.seed));
  grid.algorithms = {AlgorithmKind::kFixedDChoices};
  grid.worker_counts = {50, 100};
  grid.runner = [keys, epsilon,
                 runs = env.runs](const SweepCellContext& ctx) -> Result<CellPayload> {
    const uint32_t n = ctx.num_workers;

    // Analytic d from the true pmf (as D-Choices would compute with a
    // perfect sketch).
    const ZipfDistribution zipf(ctx.scenario->param, keys);
    const uint64_t head_size = zipf.CountAboveThreshold(1.0 / (5.0 * n));
    const auto head =
        HeadProfile::FromProbabilities(zipf.TopProbabilities(head_size));
    const uint32_t analytic_d = FindOptimalChoices(head, n, epsilon);

    // Empirical target: W-C's imbalance, with matching tolerance slack.
    auto wc = AveragedImbalance(ctx, AlgorithmKind::kWChoices, 0, runs);
    if (!wc.ok()) return wc.status();
    const uint32_t sources = ctx.MakeSimConfig().num_sources;
    const double target =
        std::max(*wc * 1.10, *wc + static_cast<double>(sources) * epsilon);

    // Smallest d in [2, n] whose Fixed-D run meets the target (imbalance is
    // statistically non-increasing in d, so binary search applies).
    uint32_t minimal_d = 0;
    uint32_t lo = 2;
    uint32_t hi = n;
    auto probe =
        AveragedImbalance(ctx, AlgorithmKind::kFixedDChoices, lo, runs);
    if (!probe.ok()) return probe.status();
    if (*probe <= target) {
      minimal_d = lo;
    } else {
      while (hi - lo > 1) {
        const uint32_t mid = lo + (hi - lo) / 2;
        probe = AveragedImbalance(ctx, AlgorithmKind::kFixedDChoices, mid, runs);
        if (!probe.ok()) return probe.status();
        if (*probe <= target) {
          hi = mid;
        } else {
          lo = mid;
        }
      }
      minimal_d = hi;
    }

    CellPayload payload;
    payload.AddMetric("wc_target_imbalance", *wc);
    payload.AddCount("analytic_d", analytic_d);
    payload.AddCount("minimal_d", minimal_d);
    payload.AddMetric("analytic_d_over_n", static_cast<double>(analytic_d) / n);
    payload.AddMetric("minimal_d_over_n", static_cast<double>(minimal_d) / n);
    return payload;
  };
  // The runner owns the --runs averaging; run each cell once in the engine.
  BenchEnv search_env = env;
  search_env.runs = 1;
  return RunGridAndReport(search_env, std::move(grid));
}

}  // namespace
}  // namespace slb::bench

int main(int argc, char** argv) { return slb::bench::Main(argc, argv); }
