// Figure 14 — end-to-end latency on the simulated DSPE cluster for KG, PKG,
// D-C, W-C, and SG on ZF streams with z in {1.4, 1.7, 2.0} (n = 80,
// 48 sources). The lat_* payload columns are the tuple-level latency
// snapshot; the worker_avg_* metric columns report, as the paper does, the
// maximum of the per-worker average latencies plus the 50th/95th/99th
// percentiles across workers.
//
// Expected shape: KG's hot-worker queue inflates its max latency by multiples
// of SG's; PKG sits in between; D-C and W-C track SG closely. Paper headline:
// D-C/W-C cut PKG's p99 by ~60% and KG's by >75% at high skew.

#include <cstdio>
#include <string>

#include "common/bench_util.h"
#include "common/dspe_cell.h"
#include "slb/common/flags.h"

namespace slb::bench {
namespace {

int Main(int argc, char** argv) {
  BenchEnv defaults;
  defaults.sources = 48;  // the paper's 48 spouts, overridable via --sources

  std::string engine_name = "sim";
  RuntimeFlags runtime(/*default_threads=*/0);
  FlagSet extra;
  extra.AddString("engine", &engine_name,
                  "execution engine: sim (modeled) or threaded (measured)");
  runtime.Register(&extra);

  BenchEnv env = ParseBenchArgs(argc, argv, "Fig. 14: cluster latency", &extra,
                                defaults);
  const auto engine = ParseDspeEngine(engine_name);
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 2;
  }
  DspeCellOptions cell;
  cell.engine = engine.value();
  runtime.Fill(&cell.runtime);
  // The threaded engine saturates the host by itself; concurrent sweep cells
  // would corrupt every cell's latency measurement.
  if (engine.value() == DspeEngine::kThreaded && env.threads == 0) {
    env.threads = 1;
  }
  const uint64_t messages = env.MessagesOr(200000, 2000000);

  PrintBanner("bench_fig14_latency", "Figure 14",
              "n=80, sources=" + std::to_string(env.sources) + ", |K|=1e4, m=" +
                  std::to_string(messages) + ", engine=" + engine_name +
                  (engine.value() == DspeEngine::kThreaded
                       ? "; measured tuple-level lat_* (ms)"
                       : "; tuple-level lat_* + across-worker "
                         "worker_avg_* (ms)"));

  cell.throughput = false;  // Fig. 13 reports throughput; this figure latency
  // Per-worker-average percentiles come from the queueing model; the
  // threaded engine reports measured tuple-level percentiles instead.
  cell.worker_latency = engine.value() == DspeEngine::kSim;

  SweepGrid grid;
  grid.scenarios = ZipfScenarios({1.4, 1.7, 2.0}, 10000, messages,
                                 static_cast<uint64_t>(env.seed));
  grid.algorithms = {AlgorithmKind::kKeyGrouping, AlgorithmKind::kPkg,
                     AlgorithmKind::kDChoices, AlgorithmKind::kWChoices,
                     AlgorithmKind::kShuffleGrouping};
  grid.worker_counts = {80};
  grid.runner = MakeDspeCellRunner(cell);
  return RunGridAndReport(env, std::move(grid));
}

}  // namespace
}  // namespace slb::bench

int main(int argc, char** argv) { return slb::bench::Main(argc, argv); }
