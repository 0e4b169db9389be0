// Cost-aware routing on heterogeneous work (ROADMAP item 2).
//
// The paper prices every message at unit cost, so the load a partitioner
// balances (message counts) and the load that matters (service time) are the
// same signal. This bench breaks that tie with the cost-model catalog
// (slb/workload/cost_model.h): each cell routes one calibrated Zipf stream
// under a per-key cost model x a balance signal:
//
//   models    unit / pareto / correlated / anti-correlated
//   signals   count      — the paper's algorithms, verbatim
//             cost       — greedy choices weighted by cumulative cost
//             in-flight  — choices weighted by outstanding work under the
//                          deterministic completion model
//
// The headline is the anti-correlated column: expensive keys are the RARE
// ones, so a count-based balancer looks balanced by its own signal while the
// true cost imbalance is far worse — and the frequency threshold that
// D-C/W-C use to split head from tail mis-ranks the keys that actually
// carry the load (the misrank_rate column). Switching the greedy signal to
// cost or in-flight recovers most of that gap without touching the
// algorithms themselves.
//
// Output: the standard summary table (CostCounters columns appear since
// every cell has a service model), then a derived "# cost:" mis-rank table,
// one row per (model, algorithm): cost imbalance under each signal, the
// count imbalance the count-signal run *thinks* it has, the mis-rank rate,
// and gap_recovered = (I_cost(count) - I_cost(inflight)) /
// (I_cost(count) - I_count(count)), clamped to 0 when the gap is ~0.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/bench_util.h"
#include "slb/workload/cost_model.h"

namespace slb::bench {
namespace {

constexpr const char* kSignalNames[] = {"count", "cost", "inflight"};

BalanceSignal SignalFromName(const std::string& name) {
  if (name == "cost") return BalanceSignal::kCost;
  if (name == "inflight") return BalanceSignal::kInFlight;
  return BalanceSignal::kCount;
}

std::string VariantLabel(const std::string& model, const char* signal) {
  std::string label = model;
  label += '/';
  label += signal;
  return label;
}

/// Completion rate for `model`: mean arrival work per stream message is
/// MeanCost (frequency-weighted means differ, but the per-key mean is the
/// deterministic choice both quick and paper scales share), spread over n
/// workers, at 90% utilization so backlog differences are visible but
/// queues stay stable.
double ServiceRateFor(const CostModel& model, uint32_t workers) {
  return model.MeanCost() / (0.9 * static_cast<double>(workers));
}

/// Derived table: per (model, algorithm), the cost imbalance under each
/// balance signal next to the count imbalance the count-signal run reports
/// about itself, plus the sketch mis-rank rate. TSV with '#' headers.
void PrintCostTable(const SweepResultTable& table,
                    const std::vector<std::string>& models,
                    const std::vector<AlgorithmKind>& algorithms,
                    uint32_t workers) {
  std::printf(
      "# cost: imbalance over true service cost by balance signal "
      "(gap_recovered ~1 = in-flight signal closes the count-signal gap)\n");
  std::printf(
      "# model\talgo\tworkers\tcost_I_count\tcost_I_cost\tcost_I_inflight\t"
      "count_I_count\tmisrank_rate\tgap_recovered\n");
  for (const std::string& model : models) {
    for (AlgorithmKind algorithm : algorithms) {
      const SweepCellResult* count = table.Find(
          "zipf", VariantLabel(model, "count"), algorithm, workers);
      const SweepCellResult* cost = table.Find(
          "zipf", VariantLabel(model, "cost"), algorithm, workers);
      const SweepCellResult* inflight = table.Find(
          "zipf", VariantLabel(model, "inflight"), algorithm, workers);
      if (count == nullptr || cost == nullptr || inflight == nullptr ||
          !count->status.ok() || !cost->status.ok() ||
          !inflight->status.ok() || !count->payload.cost.has_value() ||
          !cost->payload.cost.has_value() ||
          !inflight->payload.cost.has_value()) {
        continue;  // failed cells already surfaced in the summary table
      }
      const CostCounters& on_count = *count->payload.cost;
      const CostCounters& on_cost = *cost->payload.cost;
      const CostCounters& on_inflight = *inflight->payload.cost;
      const double gap = on_count.cost_imbalance - on_count.count_imbalance;
      const double recovered =
          gap > 1e-12
              ? (on_count.cost_imbalance - on_inflight.cost_imbalance) / gap
              : 0.0;
      std::printf("%s\t%s\t%u\t%s\t%s\t%s\t%s\t%s\t%s\n", model.c_str(),
                  AlgorithmKindName(algorithm).c_str(), workers,
                  Sci(on_count.cost_imbalance).c_str(),
                  Sci(on_cost.cost_imbalance).c_str(),
                  Sci(on_inflight.cost_imbalance).c_str(),
                  Sci(on_count.count_imbalance).c_str(),
                  Sci(on_count.misrank_rate).c_str(), Sci(recovered).c_str());
    }
  }
}

int Main(int argc, char** argv) {
  FlagSet flags("Cost-aware routing: cost models x balance signals");
  int64_t workers = 50;
  double zipf = 1.0;
  flags.AddInt64("workers", &workers, "deployment size n");
  flags.AddDouble("zipf", &zipf, "Zipf exponent of the input stream");
  const BenchEnv env = ParseBenchArgs(argc, argv, "", &flags);
  const uint64_t messages = env.MessagesOr(500000, 5000000);
  constexpr uint64_t kNumKeys = 10000;

  const std::vector<std::string> models = CostModelNames();
  PrintBanner("bench_cost_routing",
              "no paper figure — heterogeneous-cost extension (ROADMAP "
              "item 2)",
              "n=" + std::to_string(workers) + ", |K|=1e4, m=" +
                  std::to_string(messages) + ", z=" + Sci(zipf) +
                  ", models: " + JoinStrings(models, "/") +
                  ", signals: count/cost/inflight");

  ScenarioOptions stream_options;
  stream_options.num_keys = kNumKeys;
  stream_options.num_messages = messages;
  stream_options.zipf_exponent = zipf;

  const std::vector<AlgorithmKind> algorithms = {AlgorithmKind::kPkg,
                                                 AlgorithmKind::kDChoices,
                                                 AlgorithmKind::kWChoices};
  SweepGrid grid;
  grid.scenarios = {ScenarioFromCatalog("zipf", stream_options)};
  grid.algorithms = algorithms;
  grid.worker_counts = {static_cast<uint32_t>(workers)};
  for (const std::string& model : models) {
    // The sweep only carries the model NAME; the completion rate needs the
    // model's mean cost, so instantiate it once here at the stream's key
    // count (the simulator rebuilds it identically per cell).
    CostModelOptions model_options;
    model_options.num_keys = kNumKeys;
    auto instance = MakeCostModel(model, model_options);
    if (!instance.ok()) {
      std::fprintf(stderr, "cost model %s: %s\n", model.c_str(),
                   instance.status().message().c_str());
      return 1;
    }
    const double rate =
        ServiceRateFor(*instance.value(), static_cast<uint32_t>(workers));
    for (const char* signal : kSignalNames) {
      SweepVariant variant;
      variant.label = VariantLabel(model, signal);
      variant.options.balance_on = SignalFromName(signal);
      variant.service.cost_model = model;
      variant.service.options = model_options;
      variant.service.rate = rate;
      grid.variants.push_back(std::move(variant));
    }
  }

  const SweepResultTable table = RunGridForEnv(env, std::move(grid));
  const int exit_code = ReportTable(table, ReportMode::kTable);
  std::printf("\n");
  PrintCostTable(table, models, algorithms, static_cast<uint32_t>(workers));
  return exit_code;
}

}  // namespace
}  // namespace slb::bench

int main(int argc, char** argv) { return slb::bench::Main(argc, argv); }
