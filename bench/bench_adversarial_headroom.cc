// Adversarial headroom: where does the paper's static-head assumption break?
//
// D-Choices and W-Choices assume the head of the distribution is *stable*:
// SpaceSaving converges on the heavy hitters and FINDOPTIMALCHOICES sizes d
// for them. The adversarial catalog (slb/workload/scenario.h) generates the
// dynamics that violate that assumption — a cold key igniting (flash-crowd),
// a whole GROUP igniting at once (correlated-burst), the hot set rotating
// wholesale (hot-set-churn), tenant bands waxing and waning on a cycle
// (diurnal), fresh keys arriving forever (key-space-growth), a key crossing
// the head threshold silently (single-key-ramp), and a noisy replay of any
// of them (replay-with-noise). AutoFlow (arXiv:2103.08888) argues these
// hotspot dynamics, not static skew, are where balancers actually break.
//
// The bench runs D-C and W-C over the catalog's dynamic scenarios at n = 50
// across a three-way sketch axis: plain SpaceSaving (ss), decaying
// SpaceSaving with the theta-derived fixed half-life (ss-decay), and the
// auto-tuned half-life (ss-decay-auto, see DecayingSpaceSaving::AutoTune).
// Knobs are calibrated PAST the quick-scale defaults — faster hot-set
// rotation, sharper bursts, longer streams — so the sketch gap is
// quantitative rather than within noise.
//
// Output: the standard summary table, the per-sample series (the failure is
// visible over time: with the plain sketch the imbalance spikes when the
// head moves and recovers slowly), and a derived per-scenario HEADROOM
// table — mean avg-imbalance of ss minus each decaying variant, positive
// when decay wins — which is what the acceptance bar of ROADMAP's
// calibration follow-up reads.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/bench_util.h"

namespace slb::bench {
namespace {

/// Scenario knobs calibrated for a decisive dynamic head at |K| = 1e4.
/// `messages` stretches windows/periods with the stream so --paper and
/// --messages overrides keep the same dynamics per message.
SweepScenario CalibratedScenario(const std::string& name, uint64_t messages) {
  ScenarioOptions options;
  options.num_keys = 10000;
  options.num_messages = messages;
  if (name == "flash-crowd") {
    options.burst_fraction = 0.5;
    options.burst_begin = 0.45;
    options.burst_end = 0.6;
  } else if (name == "hot-set-churn") {
    // PR-3 ran 10 epochs of 8 keys at 0.6; a rotation every 2.5% of the
    // stream with a tighter, hotter set is where the plain sketch's stale
    // head actually costs (the ROADMAP "faster hot-set rotation" item).
    options.num_epochs = 40;
    options.hot_set_size = 4;
    options.hot_fraction = 0.7;
  } else if (name == "single-key-ramp") {
    options.ramp_final_fraction = 0.6;
  } else if (name == "correlated-burst") {
    options.burst_group_size = 32;
    options.burst_fraction = 0.5;
    options.burst_begin = 0.4;
    options.burst_end = 0.6;
  } else if (name == "diurnal") {
    options.diurnal_period = messages / 8;
    options.diurnal_num_bands = 4;
    options.diurnal_amplitude = 0.9;
  } else if (name == "key-space-growth") {
    // Rate sized so the key space saturates ~60% through the stream; the
    // head rides the frontier the whole way.
    options.growth_initial_fraction = 0.05;
    options.growth_rate =
        std::min(0.5, 0.95 * 10000.0 / (0.6 * static_cast<double>(messages)));
  } else if (name == "replay-with-noise") {
    // Noisy replay of the calibrated churn scenario: same rotation plus 10%
    // uniform key noise through a 64-message reorder window.
    options.num_epochs = 40;
    options.hot_set_size = 4;
    options.hot_fraction = 0.7;
    options.replay_base = "hot-set-churn";
    options.noise_rate = 0.1;
    options.noise_window = 64;
  }
  return ScenarioFromCatalog(name, options);
}

std::vector<std::string> DefaultScenarioList() {
  return {"flash-crowd",      "hot-set-churn", "single-key-ramp",
          "correlated-burst", "diurnal",       "key-space-growth",
          "replay-with-noise"};
}

/// Derived table: per (scenario, algorithm), the mean avg-imbalance of the
/// plain sketch against each decaying variant and the headroom (ss minus
/// the variant; positive = decay wins). TSV with '#' headers, like every
/// emitter in slb/sim/report.
void PrintHeadroomTable(const SweepResultTable& table,
                        const std::vector<std::string>& scenarios,
                        const std::vector<AlgorithmKind>& algorithms,
                        uint32_t workers) {
  std::printf(
      "# headroom: mean avg-imbalance by sketch variant (positive headroom "
      "= decaying sketch wins)\n");
  std::printf(
      "# scenario\talgo\tworkers\tavg_I_ss\tavg_I_decay\tavg_I_auto\t"
      "headroom_decay\theadroom_auto\n");
  for (const std::string& scenario : scenarios) {
    for (AlgorithmKind algorithm : algorithms) {
      const SweepCellResult* ss =
          table.Find(scenario, "ss", algorithm, workers);
      const SweepCellResult* decay =
          table.Find(scenario, "ss-decay", algorithm, workers);
      const SweepCellResult* auto_tuned =
          table.Find(scenario, "ss-decay-auto", algorithm, workers);
      if (ss == nullptr || decay == nullptr || auto_tuned == nullptr ||
          !ss->status.ok() || !decay->status.ok() ||
          !auto_tuned->status.ok()) {
        continue;  // failed cells already surfaced in the summary table
      }
      std::printf("%s\t%s\t%u\t%s\t%s\t%s\t%s\t%s\n", scenario.c_str(),
                  AlgorithmKindName(algorithm).c_str(), workers,
                  Sci(ss->mean_avg_imbalance).c_str(),
                  Sci(decay->mean_avg_imbalance).c_str(),
                  Sci(auto_tuned->mean_avg_imbalance).c_str(),
                  Sci(ss->mean_avg_imbalance - decay->mean_avg_imbalance)
                      .c_str(),
                  Sci(ss->mean_avg_imbalance - auto_tuned->mean_avg_imbalance)
                      .c_str());
    }
  }
}

int Main(int argc, char** argv) {
  FlagSet flags("Adversarial headroom: D-C/W-C vs decaying SpaceSaving");
  int64_t workers = 50;
  std::string scenarios_csv;
  flags.AddInt64("workers", &workers, "deployment size n");
  flags.AddString("scenarios", &scenarios_csv,
                  "comma-separated catalog scenario list (default: the full "
                  "calibrated adversarial list)");
  const BenchEnv env = ParseBenchArgs(argc, argv, "", &flags);
  // Longer streams than the PR-3 defaults: the dynamic scenarios need room
  // for the slow sketch to be visibly slow (ROADMAP calibration follow-up).
  const uint64_t messages = env.MessagesOr(1000000, 10000000);

  std::vector<std::string> names;
  if (scenarios_csv.empty()) {
    names = DefaultScenarioList();
  } else {
    for (const std::string& token : SplitString(scenarios_csv, ',')) {
      names.emplace_back(TrimWhitespace(token));
    }
  }

  PrintBanner("bench_adversarial_headroom",
              "no paper figure — adversarial extension (PR-2 catalog, PR-4 "
              "calibration)",
              "n=" + std::to_string(workers) + ", |K|=1e4, m=" +
                  std::to_string(messages) + ", scenarios: " +
                  JoinStrings(names, "/") +
                  ", sketch: ss / ss-decay / ss-decay-auto");

  const std::vector<AlgorithmKind> algorithms = {AlgorithmKind::kDChoices,
                                                 AlgorithmKind::kWChoices};
  SweepGrid grid;
  for (const std::string& name : names) {
    grid.scenarios.push_back(CalibratedScenario(name, messages));
  }
  grid.algorithms = algorithms;
  grid.worker_counts = {static_cast<uint32_t>(workers)};
  SweepVariant plain;
  plain.label = "ss";
  plain.options.sketch = SketchKind::kSpaceSaving;
  SweepVariant decaying;
  decaying.label = "ss-decay";
  decaying.options.sketch = SketchKind::kDecayingSpaceSaving;
  SweepVariant auto_tuned;
  auto_tuned.label = "ss-decay-auto";
  auto_tuned.options.sketch = SketchKind::kDecayingSpaceSaving;
  auto_tuned.options.decay_auto_tune = true;
  grid.variants = {plain, decaying, auto_tuned};
  // Fine-grained sampling so the burst windows / epoch boundaries resolve.
  grid.num_samples = 120;

  const SweepResultTable table = RunGridForEnv(env, std::move(grid));
  const int exit_code = ReportTable(table, ReportMode::kTableAndSeries);
  std::printf("\n");
  PrintHeadroomTable(table, names, algorithms, static_cast<uint32_t>(workers));
  return exit_code;
}

}  // namespace
}  // namespace slb::bench

int main(int argc, char** argv) { return slb::bench::Main(argc, argv); }
