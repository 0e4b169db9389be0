// Figure 13 — throughput (events/second) of the simulated DSPE cluster for
// KG, PKG, D-C, W-C, and SG on ZF streams with z in {1.4, 1.7, 2.0}
// (n = 80 workers, 48 sources, |K| = 1e4, m = 2e6 at paper scale).
//
// The cluster model is ExecuteTopology's queueing network (the Apache Storm
// stand-in; see docs/ARCHITECTURE.md, "Cluster model"). Each sweep cell is
// one spout -> worker topology run (bench/common/dspe_cell); the
// throughput_per_s / makespan_s / completed payload columns carry the
// figure.
//
// Expected shape: KG lowest and degrading with skew; PKG in between, also
// degrading; D-C and W-C matching SG's (transport-bound) plateau. Paper
// headline: D-C/W-C up to ~1.5x PKG and ~2.3x KG at high skew.

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

  BenchEnv env = ParseBenchArgs(argc, argv, "Fig. 13: cluster throughput",
                                &extra, defaults);
  const auto engine = ParseDspeEngine(engine_name);
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 2;
  }
  DspeCellOptions cell;
  cell.engine = engine.value();
  runtime.Fill(&cell.runtime);
  // The threaded engine saturates the host by itself; running sweep cells
  // concurrently on top would just make every cell's measurement noisy.
  if (engine.value() == DspeEngine::kThreaded && env.threads == 0) {
    env.threads = 1;
  }
  const uint64_t messages = env.MessagesOr(200000, 2000000);

  PrintBanner("bench_fig13_throughput", "Figure 13",
              "n=80, sources=" + std::to_string(env.sources) + ", |K|=1e4, m=" +
                  std::to_string(messages) + ", engine=" + engine_name +
                  (engine.value() == DspeEngine::kThreaded
                       ? " (measured msgs/s + queue-delay percentiles)"
                       : ", 1.5ms/tuple worker, 3300/s transport, "
                         "70 pending/source"));

  // Threaded cells report measured queue delay in the lat_* columns; the
  // sim reports latency via Fig. 14 only.
  cell.latency = engine.value() == DspeEngine::kThreaded;

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
