// Threaded-runtime hot-path bench — multi-stage (spout -> bolt -> bolt)
// measured throughput (not a paper figure; see docs/ARCHITECTURE.md
// "Queue topology").
//
// The fig13/fig14 threaded cells run the paper's single-layer DAG, so every
// tuple tree has exactly one descendant per routed copy and the ack path is
// barely exercised. This bench drives the runtime's actual hot machinery at
// depth: a fanout bolt emits `--fanout` child tuples per input, so each root
// tree carries 1 + fanout acks through the coalesced per-executor ack
// buffers, two partitioned edges stress the emit batching and ring wakeups,
// and the sink stage holds real per-key state. Throughput here is root
// trees fully acked per second — the number the coalesced-ack and adaptive
// wait work exists to raise.
//
// Topology: `sources` spouts -> `fanout` bolts (swept grouping, the paper's
// schemes) -> `sinks` CountingBolt (shuffle; children are stateless fan-out
// work, the routing under test is the first edge).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "common/dspe_cell.h"
#include "slb/common/rng.h"
#include "slb/dspe/runtime.h"
#include "slb/dspe/standard_bolts.h"
#include "slb/dspe/topology.h"
#include "slb/workload/zipf.h"

namespace slb::bench {
namespace {

// Emits `fanout` children per input tuple, keys decorrelated from the parent
// so the second edge routes a spread stream rather than replaying the first
// edge's skew.
class FanoutBolt final : public Bolt {
 public:
  explicit FanoutBolt(uint32_t fanout) : fanout_(fanout) {}

  void Execute(const TopologyTuple& tuple, OutputCollector* out) override {
    for (uint32_t i = 0; i < fanout_; ++i) {
      out->Emit(TopologyTuple{tuple.key * 1000003u + i, tuple.value});
    }
  }

 private:
  uint32_t fanout_;
};

struct RunAverages {
  double throughput = 0.0;
  double makespan = 0.0;
  double latency_p99 = 0.0;
  double idle_s = 0.0;
  double park_s = 0.0;
  double parks = 0.0;
  double tuples_per_push = 0.0;
  uint64_t roots = 0;
  uint64_t tuples = 0;
  uint32_t pinned = 0;
};

int Main(int argc, char** argv) {
  BenchEnv defaults;
  defaults.sources = 8;

  RuntimeFlags runtime_flags(/*default_threads=*/8);
  int64_t fanout = 4;
  int64_t stage_workers = 16;
  FlagSet extra;
  runtime_flags.Register(&extra);
  extra.AddInt64("fanout", &fanout,
                 "children emitted per tuple by the middle bolt stage");
  extra.AddInt64("stage-workers", &stage_workers,
                 "parallelism of each bolt stage");

  BenchEnv env = ParseBenchArgs(
      argc, argv, "Threaded runtime hot path: spout -> fanout -> sink", &extra,
      defaults);
  TopologyRuntimeOptions runtime;
  runtime_flags.Fill(&runtime);
  // Both are cast to uint32: an unchecked --fanout -1 would emit 2^32 - 1
  // children per tuple.
  const char* bad = fanout < 0 || fanout > 1024
                        ? "--fanout must be in [0, 1024]"
                    : stage_workers < 1 || stage_workers > 4096
                        ? "--stage-workers must be in [1, 4096]"
                        : nullptr;
  if (bad != nullptr) {
    std::fprintf(stderr, "%s\n", bad);
    return 2;
  }
  // This bench saturates the host with its own executor threads; the
  // --threads sweep axis does not apply (kept for smoke-script uniformity).
  const uint64_t messages = env.MessagesOr(100000, 1000000);
  const uint64_t num_keys = 10000;

  PrintBanner("bench_runtime_hotpath",
              "no paper figure — threaded-runtime width probe "
              "(docs/ARCHITECTURE.md \"Queue topology\")",
              "spout->fanout->sink, threads=" +
                  std::to_string(runtime_flags.engine_threads) +
                  ", fanout=" + std::to_string(fanout) + ", stage_workers=" +
                  std::to_string(stage_workers) + ", m=" +
                  std::to_string(messages) + ", wait=" +
                  runtime_flags.wait_strategy +
                  (runtime_flags.pin_threads ? ", pinned" : ""));
  std::printf(
      "#scenario\tzipf\talgo\tthreads\tfanout\tthroughput_per_s\t"
      "makespan_s\troots_acked\ttuples_processed\tlat_p99_ms\t"
      "idle_s\tpark_s\tparks\tthreads_pinned\ttuples_per_push\n");

  const std::vector<double> exponents = {1.4, 2.0};
  const std::vector<AlgorithmKind> algorithms = {
      AlgorithmKind::kPkg, AlgorithmKind::kDChoices, AlgorithmKind::kWChoices,
      AlgorithmKind::kShuffleGrouping};

  for (double z : exponents) {
    // One materialized stream per scenario, shared read-only by every run.
    auto keys = std::make_shared<std::vector<uint64_t>>();
    keys->reserve(messages);
    ZipfDistribution zipf(z, num_keys);
    Rng rng(static_cast<uint64_t>(env.seed));
    for (uint64_t i = 0; i < messages; ++i) keys->push_back(zipf.Sample(&rng));
    std::shared_ptr<const std::vector<uint64_t>> shared_keys = keys;

    for (AlgorithmKind algorithm : algorithms) {
      RunAverages avg;
      for (int64_t run = 0; run < env.runs; ++run) {
        const uint32_t num_sources = static_cast<uint32_t>(env.sources);
        const uint32_t fanout_copies = static_cast<uint32_t>(fanout);
        TopologyBuilder builder;
        builder.AddSpout(
            "sources",
            [shared_keys, num_sources](uint32_t task) {
              return std::make_unique<VectorSpout>(shared_keys, task,
                                                    num_sources);
            },
            num_sources);
        Grouping stage1;
        stage1.algorithm = algorithm;
        builder
            .AddBolt("fanout",
                     [fanout_copies](uint32_t) {
                       return std::make_unique<FanoutBolt>(fanout_copies);
                     },
                     static_cast<uint32_t>(stage_workers))
            .Input("sources", stage1);
        builder
            .AddBolt("sinks",
                     [](uint32_t) { return std::make_unique<CountingBolt>(); },
                     static_cast<uint32_t>(stage_workers))
            .Input("fanout", Grouping::Shuffle());

        TopologyOptions options;
        options.hash_seed = static_cast<uint64_t>(env.seed);
        options.seed = static_cast<uint64_t>(env.seed) + static_cast<uint64_t>(run);

        auto result = ExecuteTopologyThreaded(builder.Build(), options, runtime);
        if (!result.ok()) {
          std::fprintf(stderr, "run failed (z=%g, %s): %s\n", z,
                       AlgorithmKindName(algorithm).c_str(),
                       result.status().ToString().c_str());
          return 1;
        }
        const TopologyStats& stats = result.value();
        avg.throughput += stats.throughput_per_s;
        avg.makespan += stats.makespan_s;
        avg.latency_p99 += stats.latency_p99_ms;
        avg.idle_s += stats.idle_s;
        avg.park_s += stats.park_s;
        avg.parks += static_cast<double>(stats.parks);
        // Every tuple a bolt executes crossed one ring; spout roots did not.
        avg.tuples_per_push +=
            stats.publishes > 0
                ? static_cast<double>(stats.tuples_processed -
                                      stats.roots_acked) /
                      static_cast<double>(stats.publishes)
                : 0.0;
        avg.roots = stats.roots_acked;
        avg.tuples = stats.tuples_processed;
        avg.pinned = stats.threads_pinned;
      }
      const double n = static_cast<double>(env.runs);
      std::printf("zipf-%.1f\t%.1f\t%s\t%lld\t%lld\t%s\t%s\t%llu\t%llu\t%s\t%s\t%s\t%.0f\t%u\t%.2f\n",
                  z, z, AlgorithmKindName(algorithm).c_str(),
                  static_cast<long long>(runtime_flags.engine_threads),
                  static_cast<long long>(fanout), Sci(avg.throughput / n).c_str(),
                  Sci(avg.makespan / n).c_str(),
                  static_cast<unsigned long long>(avg.roots),
                  static_cast<unsigned long long>(avg.tuples),
                  Sci(avg.latency_p99 / n).c_str(), Sci(avg.idle_s / n).c_str(),
                  Sci(avg.park_s / n).c_str(), avg.parks / n, avg.pinned,
                  avg.tuples_per_push / n);
      std::fflush(stdout);
    }
  }
  return 0;
}

}  // namespace
}  // namespace slb::bench

int main(int argc, char** argv) { return slb::bench::Main(argc, argv); }
