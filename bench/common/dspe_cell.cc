#include "dspe_cell.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "slb/common/histogram.h"
#include "slb/dspe/plan.h"
#include "slb/dspe/standard_bolts.h"

namespace slb::bench {
namespace {

// Fig. 14's reporting: per-worker average latencies, then their maximum and
// percentiles across the workers that processed anything.
void AddWorkerLatencyMetrics(const ComponentStats& workers,
                             CellPayload* payload) {
  Histogram across_workers(0, 1);
  double max_avg = 0.0;
  for (size_t i = 0; i < workers.task_latency_avg_ms.size(); ++i) {
    if (workers.task_loads[i] == 0.0) continue;
    across_workers.Add(workers.task_latency_avg_ms[i]);
    max_avg = std::max(max_avg, workers.task_latency_avg_ms[i]);
  }
  payload->AddMetric("worker_avg_max_ms", max_avg);
  payload->AddMetric("worker_avg_p50_ms", across_workers.p50());
  payload->AddMetric("worker_avg_p95_ms", across_workers.p95());
  payload->AddMetric("worker_avg_p99_ms", across_workers.p99());
}

Result<CellPayload> RunCell(const DspeCellOptions& options,
                            const SweepCellContext& ctx) {
  const bool threaded = options.engine == DspeEngine::kThreaded;
  // The scenario's generator is the single source of truth for the workload
  // size.
  auto gen = ctx.MakeStream();
  if (!gen.ok()) return gen.status();
  const uint64_t messages = (*gen)->num_messages();
  const uint64_t num_keys = (*gen)->num_keys();
  const uint32_t num_sources = ctx.variant->num_sources > 0
                                   ? ctx.variant->num_sources
                                   : ctx.grid->num_sources;

  TopologyOptions topology_options = options.base;
  topology_options.seed = ctx.run_seed;
  SpoutFactory spouts;
  if (threaded) {
    // The scenario's stream split round-robin among the spout tasks: the
    // sender interleave the partition simulator models, which the
    // elastic-rescale replay and the sim-vs-threaded equivalence test rely on.
    auto stream = std::make_shared<std::vector<uint64_t>>();
    stream->reserve(messages);
    for (uint64_t i = 0; i < messages; ++i) stream->push_back((*gen)->NextKey());
    std::shared_ptr<const std::vector<uint64_t>> shared = std::move(stream);
    spouts = [shared, num_sources](uint32_t task) {
      return std::make_unique<VectorSpout>(shared, task, num_sources);
    };
    topology_options.hash_seed = ctx.grid->seed;
  } else {
    // Each spout draws its own Zipf stream; the first messages % sources
    // spouts emit one extra tuple.
    const double z = ctx.scenario->param;
    const uint64_t seed = ctx.run_seed;
    spouts = [=](uint32_t task) {
      const uint64_t count =
          messages / num_sources + (task < messages % num_sources ? 1 : 0);
      return std::make_unique<ZipfSpout>(z, num_keys, count,
                                         seed + 1000003ULL * task);
    };
    // The plan re-mixes the base seed per edge; the XOR is its own inverse,
    // so the spout -> worker edge hashes with the grid seed itself.
    topology_options.hash_seed = EdgeHashSeed(ctx.grid->seed, 0, 0);
  }

  TopologyBuilder builder;
  builder.AddSpout("sources", std::move(spouts), num_sources);
  Grouping grouping;
  grouping.algorithm = ctx.algorithm;
  // theta/epsilon/sketch knobs carry over; num_workers and hash_seed are
  // filled in by the engine from the destination parallelism and edge seed.
  grouping.options = ctx.variant->options;
  builder
      .AddBolt("workers",
               [](uint32_t) { return std::make_unique<CountingBolt>(); },
               ctx.num_workers)
      .Input("sources", grouping);

  // Live elastic rescale: the variant's schedule (the sweep axis in
  // bench_elastic_rescale), as in the simulator's RunDefault().
  TopologyRuntimeOptions runtime = options.runtime;
  const RescaleSchedule& schedule = ctx.variant->rescale;
  if (!schedule.empty()) {
    if (!threaded) {
      return Status::InvalidArgument("live rescale needs the threaded engine");
    }
    runtime.rescale.schedule = schedule;
    runtime.rescale.total_messages = messages;
  }

  auto result =
      threaded
          ? ExecuteTopologyThreaded(builder.Build(), topology_options, runtime)
          : ExecuteTopology(builder.Build(), topology_options);
  if (!result.ok()) return result.status();
  const TopologyStats& stats = result.value();
  const ComponentStats& workers = stats.components.back();

  CellPayload payload;
  payload.sim.total_messages = stats.roots_acked;
  if (options.throughput) {
    ThroughputCounters counters;
    counters.throughput_per_s = stats.throughput_per_s;
    counters.makespan_s = stats.makespan_s;
    counters.completed = stats.roots_acked;
    payload.throughput = counters;
  }
  if (options.latency) {
    LatencySnapshot snapshot;
    snapshot.count = static_cast<int64_t>(stats.latency_samples);
    snapshot.avg_ms = stats.latency_avg_ms;
    snapshot.p50_ms = stats.latency_p50_ms;
    snapshot.p95_ms = stats.latency_p95_ms;
    snapshot.p99_ms = stats.latency_p99_ms;
    snapshot.max_ms = stats.latency_max_ms;
    payload.latency = snapshot;
  }
  if (options.worker_latency) AddWorkerLatencyMetrics(workers, &payload);
  if (threaded) {
    // The measured load split across the final workers, static cells
    // included.
    payload.sim.final_imbalance = workers.imbalance;
    payload.sim.worker_loads = workers.task_loads;
    // Executor idle accounting (the kAdaptive wait ladder; all zero under
    // kSpin). Always attached so the smoke guard can assert the columns
    // exist and are non-negative on every threaded run.
    payload.AddMetric("idle_s", stats.idle_s);
    payload.AddMetric("park_s", stats.park_s);
    payload.AddCount("parks", stats.parks);
    payload.AddCount("threads_pinned", stats.threads_pinned);
  }
  if (!schedule.empty()) {
    // Modeled replay counters go where the simulator puts them (so the
    // rescale summary tables render both engines uniformly); the live
    // protocol's measured costs ride as named metric columns.
    const TopologyRescaleStats& rs = stats.rescale;
    MigrationCounters mig;
    mig.final_num_workers = rs.final_parallelism;
    mig.rescale_events = rs.rescale_events;
    mig.keys_migrated = rs.keys_migrated;
    mig.state_bytes_migrated = rs.state_bytes_migrated;
    mig.stalled_messages = rs.stalled_messages;
    mig.moved_key_fraction = rs.moved_key_fraction;
    payload.migration = mig;
    payload.AddMetric("quiesce_s", rs.total_quiesce_s);
    payload.AddMetric("credit_drain_s", rs.total_credit_drain_s);
    payload.AddMetric("migration_stall_s", rs.total_migration_stall_s);
    payload.AddCount("handoff_frames", rs.handoff_frames);
    payload.AddCount("measured_stalls", rs.measured_stalled_messages);
    payload.sim.final_num_workers = rs.final_parallelism;
  }
  return payload;
}

Result<WaitStrategy> ParseWaitStrategy(const std::string& text) {
  std::string lower = text;
  for (char& c : lower) c = static_cast<char>(std::tolower(c));
  if (lower == "adaptive") return WaitStrategy::kAdaptive;
  if (lower == "spin") return WaitStrategy::kSpin;
  return Status::InvalidArgument("unknown wait strategy '" + text +
                                 "' (expected adaptive or spin)");
}

}  // namespace

Result<DspeEngine> ParseDspeEngine(const std::string& text) {
  std::string lower = text;
  for (char& c : lower) c = static_cast<char>(std::tolower(c));
  if (lower == "sim") return DspeEngine::kSim;
  if (lower == "threaded") return DspeEngine::kThreaded;
  return Status::InvalidArgument("unknown engine '" + text +
                                 "' (expected sim or threaded)");
}

void RuntimeFlags::Register(FlagSet* flags) {
  flags->AddInt64("engine-threads", &engine_threads,
                  "threaded engine: executor threads (0 = hardware)");
  flags->AddInt64("queue-capacity", &queue_capacity,
                  "threaded engine: per-lane ring capacity in tuples");
  flags->AddInt64("batch-size", &batch_size,
                  "threaded engine: emit batch / task quantum in tuples");
  flags->AddString("wait-strategy", &wait_strategy,
                   "threaded engine: idle executor policy (adaptive or spin)");
  flags->AddBool("pin-threads", &pin_threads,
                 "threaded engine: pin executors round-robin over CPUs");
}

void FillRuntimeSizes(int64_t engine_threads, int64_t queue_capacity,
                      int64_t batch_size, TopologyRuntimeOptions* options) {
  constexpr int64_t kMaxU32 = std::numeric_limits<uint32_t>::max();
  const char* bad =
      engine_threads < 0 || engine_threads > kMaxU32
          ? "--engine-threads must be in [0, 4294967295]"
      : queue_capacity < 2 || queue_capacity > (int64_t{1} << 20)
          ? "--queue-capacity must be in [2, 1048576]"
      : batch_size < 1 || batch_size > kMaxU32
          ? "--batch-size must be in [1, 4294967295]"
          : nullptr;
  if (bad != nullptr) {
    std::fprintf(stderr, "%s\n", bad);
    std::exit(2);
  }
  options->num_threads = static_cast<uint32_t>(engine_threads);
  options->queue_capacity = static_cast<uint32_t>(queue_capacity);
  options->batch_size = static_cast<uint32_t>(batch_size);
}

void RuntimeFlags::Fill(TopologyRuntimeOptions* options) const {
  const auto wait = ParseWaitStrategy(wait_strategy);
  if (!wait.ok()) {
    std::fprintf(stderr, "%s\n", wait.status().ToString().c_str());
    std::exit(2);
  }
  FillRuntimeSizes(engine_threads, queue_capacity, batch_size, options);
  options->wait_strategy = wait.value();
  options->pin_threads = pin_threads;
}

SweepCellRunner MakeDspeCellRunner(DspeCellOptions options) {
  return [options](const SweepCellContext& ctx) { return RunCell(options, ctx); };
}

}  // namespace slb::bench
