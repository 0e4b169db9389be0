// Elastic rescaling: imbalance AND migration cost across worker-set changes.
//
// The paper's evaluation holds the worker set fixed; this bench asks what
// each scheme costs when it changes (docs/ARCHITECTURE.md "Elastic rescale
// protocol"). Two costs compete:
//
//  * IMBALANCE — how well the scheme balances load before, across, and after
//    the event. The paper's head-aware schemes (D-C/W-C) win here.
//  * MIGRATION — how much per-key state must follow the keys when the
//    routing function re-targets. Mod-range hashing (KG/PKG/D-C/W-C tails)
//    re-homes nearly EVERY key on rescale; a consistent-hash ring moves only
//    ~|delta|/n of the key space (the minimal-movement property the churn
//    bugfix in src/slb/core/consistent_hash.cc restores).
//
// The bench sweeps PKG / D-Choices / W-Choices / CH over the two elastic
// catalog scenarios (scale-out-under-flash-crowd pairs sustained load growth
// with a worker-add event; scale-in-during-drift pairs a contracting key
// space with a worker-remove event) across a schedule axis: static (no
// event), a single scale-out, a single scale-in, and a staged out-then-in
// sequence. Migration costs come from the simulator's MigrationTracker
// (eager handoff on scale-in, lazy state pulls on scale-out, FIFO handoff
// channel for stalls) and surface as the migration payload columns of the
// summary table (docs/SWEEP_FORMATS.md).
//
// Output: the standard summary table (with migration-cost columns) plus a
// derived "# rescale:" table putting final imbalance next to keys migrated,
// stalled messages, and the moved-key fraction per (scenario, schedule,
// algorithm) — the imbalance-vs-migration trade-off at a glance.
//
// --engine threaded runs every cell on ExecuteTopologyThreaded instead of
// the partition simulator: the worker set changes live (workers added to or
// drained from the fixed executor threads, key state moving through real
// handoff frames) and the rescale table gains measured columns — quiesce /
// credit-drain / migration-stall wall-clock plus handoff-frame and
// live-stall counts — next to the modeled replay accounting (which stays
// engine-independent).

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/bench_util.h"
#include "common/dspe_cell.h"
#include "slb/common/flags.h"

namespace slb::bench {
namespace {

constexpr uint32_t kBaseWorkers = 32;
constexpr uint32_t kDelta = 8;

/// The elastic scenarios, calibrated so the dynamics motivate the schedule:
/// the flash crowd ignites at 40% (just before the scale-out event) and the
/// drifting key space has contracted visibly by the scale-in event.
SweepScenario CalibratedScenario(const std::string& name, uint64_t messages) {
  ScenarioOptions options;
  options.num_keys = 10000;
  options.num_messages = messages;
  if (name == "scale-out-under-flash-crowd") {
    options.burst_fraction = 0.5;
    options.burst_begin = 0.4;
    options.burst_group_size = 32;
  } else if (name == "scale-in-during-drift") {
    options.num_epochs = 10;
    options.shrink_final_fraction = 0.3;
    options.drift_swap_fraction = 0.1;
  }
  return ScenarioFromCatalog(name, options);
}

struct Schedule {
  const char* label;
  RescaleSchedule schedule;
};

/// The schedule axis, expressed as sweep variants. Every schedule starts at
/// kBaseWorkers; "static" never rescales (the no-event baseline the others
/// are judged against).
std::vector<Schedule> Schedules() {
  std::vector<Schedule> schedules;
  schedules.push_back({"static", {}});

  RescaleSchedule out;
  out.events = {{0.45, kBaseWorkers + kDelta}};
  schedules.push_back({"out+8@45%", out});

  RescaleSchedule in;
  in.events = {{0.6, kBaseWorkers - kDelta}};
  schedules.push_back({"in-8@60%", in});

  RescaleSchedule staged;
  staged.events = {{0.35, kBaseWorkers + kDelta}, {0.7, kBaseWorkers - kDelta}};
  schedules.push_back({"staged", staged});
  return schedules;
}

/// Derived table: final imbalance next to migration cost per cell, the
/// trade-off the bench exists to show. TSV with '#' headers, like every
/// emitter in slb/sim/report.
/// Reads a named payload metric (the threaded engine's measured columns);
/// 0 for sim cells, which do not attach them.
double MetricOr0(const CellPayload& payload, const std::string& name) {
  const PayloadMetric* metric = payload.FindMetric(name);
  return metric != nullptr ? metric->value : 0.0;
}

void PrintRescaleTable(const SweepResultTable& table,
                       const std::vector<std::string>& scenarios,
                       const std::vector<Schedule>& schedules,
                       const std::vector<AlgorithmKind>& algorithms) {
  std::printf(
      "# rescale: imbalance vs migration cost per schedule (moved_frac ~ "
      "|delta|/n for CH, ~1 for mod-range hashing; quiesce_s/drain_s/"
      "stall_s/handoff_frames/live_stalls are measured, threaded engine "
      "only)\n");
  std::printf(
      "# scenario\tschedule\talgo\tfinal_workers\tfinal_I\tkeys_migrated\t"
      "state_bytes\tstalled\tmoved_frac\tquiesce_s\tdrain_s\tstall_s\t"
      "handoff_frames\tlive_stalls\n");
  for (const std::string& scenario : scenarios) {
    for (const Schedule& schedule : schedules) {
      for (AlgorithmKind algorithm : algorithms) {
        const SweepCellResult* cell =
            table.Find(scenario, schedule.label, algorithm, kBaseWorkers);
        if (cell == nullptr || !cell->status.ok()) continue;
        const MigrationCounters mig =
            cell->payload.migration.value_or(MigrationCounters{});
        const uint32_t final_workers = mig.final_num_workers > 0
                                           ? mig.final_num_workers
                                           : cell->num_workers;
        std::printf(
            "%s\t%s\t%s\t%u\t%s\t%llu\t%llu\t%llu\t%s\t%s\t%s\t%s\t%llu\t"
            "%llu\n",
            scenario.c_str(), schedule.label,
            AlgorithmKindName(algorithm).c_str(), final_workers,
            Sci(cell->mean_final_imbalance).c_str(),
            static_cast<unsigned long long>(mig.keys_migrated),
            static_cast<unsigned long long>(mig.state_bytes_migrated),
            static_cast<unsigned long long>(mig.stalled_messages),
            Sci(mig.moved_key_fraction).c_str(),
            Sci(MetricOr0(cell->payload, "quiesce_s")).c_str(),
            Sci(MetricOr0(cell->payload, "credit_drain_s")).c_str(),
            Sci(MetricOr0(cell->payload, "migration_stall_s")).c_str(),
            static_cast<unsigned long long>(
                MetricOr0(cell->payload, "handoff_frames")),
            static_cast<unsigned long long>(
                MetricOr0(cell->payload, "measured_stalls")));
      }
    }
  }
}

int Main(int argc, char** argv) {
  std::string engine_name = "sim";
  int64_t engine_threads = 0;
  int64_t queue_capacity = 1024;
  int64_t batch_size = 64;
  FlagSet flags("Elastic rescale: imbalance vs key-state migration cost");
  flags.AddString("engine", &engine_name,
                  "execution engine: sim (modeled) or threaded (live rescale, "
                  "measured quiesce/stall costs)");
  flags.AddInt64("engine-threads", &engine_threads,
                 "threaded engine: executor threads (0 = hardware)");
  flags.AddInt64("queue-capacity", &queue_capacity,
                 "threaded engine: per-lane ring capacity in tuples");
  flags.AddInt64("batch-size", &batch_size,
                 "threaded engine: emit batch / task quantum in tuples");
  BenchEnv env = ParseBenchArgs(argc, argv, "", &flags);
  DspeCellOptions cell;
  cell.engine = DspeEngine::kThreaded;
  FillRuntimeSizes(engine_threads, queue_capacity, batch_size, &cell.runtime);
  const auto engine = ParseDspeEngine(engine_name);
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 2;
  }
  // The threaded engine saturates the host by itself; serialize the cells so
  // each one's wall-clock phase measurements stay clean.
  if (engine.value() == DspeEngine::kThreaded && env.threads == 0) {
    env.threads = 1;
  }
  const uint64_t messages = env.MessagesOr(500000, 5000000);

  const std::vector<std::string> names = {"scale-out-under-flash-crowd",
                                          "scale-in-during-drift"};
  const std::vector<Schedule> schedules = Schedules();
  const std::vector<AlgorithmKind> algorithms = {
      AlgorithmKind::kPkg, AlgorithmKind::kDChoices, AlgorithmKind::kWChoices,
      AlgorithmKind::kConsistentHash};

  PrintBanner("bench_elastic_rescale",
              "no paper figure — elastic-scaling extension "
              "(docs/ARCHITECTURE.md \"Elastic rescale protocol\")",
              "n=" + std::to_string(kBaseWorkers) + "±" +
                  std::to_string(kDelta) + ", |K|=1e4, m=" +
                  std::to_string(messages) + ", engine=" + engine_name +
                  ", scenarios: " + JoinStrings(names, "/") +
                  ", schedules: static / out+8@45% / in-8@60% / staged");

  SweepGrid grid;
  for (const std::string& name : names) {
    grid.scenarios.push_back(CalibratedScenario(name, messages));
  }
  grid.algorithms = algorithms;
  grid.worker_counts = {kBaseWorkers};
  for (const Schedule& schedule : schedules) {
    SweepVariant variant;
    variant.label = schedule.label;
    variant.rescale = schedule.schedule;
    grid.variants.push_back(variant);
  }
  // Fine-grained sampling so the rescale edges resolve in the series.
  grid.num_samples = 120;
  if (engine.value() == DspeEngine::kThreaded) {
    grid.runner = MakeDspeCellRunner(cell);
  }

  const SweepResultTable table = RunGridForEnv(env, std::move(grid));
  const int exit_code = ReportTable(table, ReportMode::kTableAndSeries);
  std::printf("\n");
  PrintRescaleTable(table, names, schedules, algorithms);
  return exit_code;
}

}  // namespace
}  // namespace slb::bench

int main(int argc, char** argv) { return slb::bench::Main(argc, argv); }
