// Micro-benchmarks: per-message routing cost of every grouping scheme —
// the overhead a DSPE pays on its emit path (not a paper figure).

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "slb/common/rng.h"
#include "slb/core/partitioner.h"
#include "slb/workload/zipf.h"

namespace slb {
namespace {

void RunRoute(benchmark::State& state, AlgorithmKind kind) {
  PartitionerOptions options;
  options.num_workers = static_cast<uint32_t>(state.range(0));
  options.hash_seed = 3;
  auto partitioner = CreatePartitioner(kind, options);
  if (!partitioner.ok()) {
    state.SkipWithError("partitioner creation failed");
    return;
  }
  ZipfDistribution zipf(1.4, 100000);
  Rng rng(11);
  std::vector<uint64_t> keys(1 << 16);
  for (auto& k : keys) k = zipf.Sample(&rng);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(partitioner.value()->Route(keys[i++ & 0xffff]));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_RouteKG(benchmark::State& state) {
  RunRoute(state, AlgorithmKind::kKeyGrouping);
}
void BM_RouteSG(benchmark::State& state) {
  RunRoute(state, AlgorithmKind::kShuffleGrouping);
}
void BM_RoutePKG(benchmark::State& state) {
  RunRoute(state, AlgorithmKind::kPkg);
}
void BM_RouteDC(benchmark::State& state) {
  RunRoute(state, AlgorithmKind::kDChoices);
}
void BM_RouteWC(benchmark::State& state) {
  RunRoute(state, AlgorithmKind::kWChoices);
}
void BM_RouteRR(benchmark::State& state) {
  RunRoute(state, AlgorithmKind::kRoundRobinHead);
}

BENCHMARK(BM_RouteKG)->Arg(10)->Arg(100);
BENCHMARK(BM_RouteSG)->Arg(10)->Arg(100);
BENCHMARK(BM_RoutePKG)->Arg(10)->Arg(80)->Arg(100);
BENCHMARK(BM_RouteDC)->Arg(10)->Arg(80)->Arg(100);
BENCHMARK(BM_RouteWC)->Arg(10)->Arg(80)->Arg(100);
BENCHMARK(BM_RouteRR)->Arg(10)->Arg(100);

}  // namespace
}  // namespace slb

BENCHMARK_MAIN();
