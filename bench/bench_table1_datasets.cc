// Table I — summary of the datasets used in the experiments: number of
// messages, number of (distinct) keys, and probability of the most frequent
// key p1. Our datasets are calibrated synthetic stand-ins (see docs/ARCHITECTURE.md, "Cluster model");
// each sweep cell measures one generated stream and reports the paper's
// targets next to the measured statistics as metric columns (paper_msgs /
// paper_keys / paper_p1_pct vs msgs / distinct_keys / p1_pct, plus the
// calibrated zipf_z). No routing is simulated; the algorithm/workers
// coordinates are placeholders.

#include <cstdio>
#include <map>
#include <string>

#include "common/bench_util.h"
#include "slb/workload/zipf.h"

namespace slb::bench {
namespace {

struct PaperTargets {
  double messages;
  double keys;
  double p1;
};

int Main(int argc, char** argv) {
  const BenchEnv env = ParseBenchArgs(
      argc, argv, "Table I: dataset statistics (paper targets vs measured)");
  const double wp_scale = env.paper ? 1.0 : 0.02;
  const double tw_scale = env.paper ? 0.05 : 0.002;  // full TW is 1.2G msgs
  const double ct_scale = 1.0;

  PrintBanner("bench_table1_datasets", "Table I",
              env.paper ? "paper scales (TW capped at 5%)" : "quick scales");

  SweepGrid grid;
  std::map<std::string, PaperTargets> targets;
  auto add = [&](DatasetSpec spec, const PaperTargets& paper) {
    if (env.messages > 0) {
      spec.num_messages = static_cast<uint64_t>(env.messages);
    }
    targets[spec.name] = paper;
    grid.scenarios.push_back(ScenarioFromDataset(spec));
  };
  add(MakeWikipediaSpec(wp_scale), {22e6, 2.9e6, 0.0932});
  add(MakeTwitterSpec(tw_scale), {1.2e9, 31e6, 0.0267});
  add(MakeCashtagsSpec(ct_scale), {690e3, 2.9e3, 0.0329});
  // The ZF family: measured p1 for a representative exponent per |K|.
  for (uint64_t keys : {10000ULL, 100000ULL, 1000000ULL}) {
    DatasetSpec zf = MakeZipfSpec(1.0, keys, env.MessagesOr(500000, 10000000),
                                  static_cast<uint64_t>(env.seed));
    zf.name = "ZF-" + HumanCount(keys);
    add(zf, {static_cast<double>(zf.num_messages), static_cast<double>(keys),
             ZipfTopProbability(1.0, keys)});
  }

  grid.algorithms = {AlgorithmKind::kPkg};  // placeholder coordinate
  grid.worker_counts = {1};
  grid.runner = [targets](const SweepCellContext& ctx) -> Result<CellPayload> {
    auto gen = ctx.MakeStream();
    if (!gen.ok()) return gen.status();
    const DatasetStats stats = MeasureDataset(gen->get());
    const PaperTargets& paper = targets.at(ctx.scenario->label);

    CellPayload payload;
    payload.sim.total_messages = stats.messages;
    payload.AddCount("paper_msgs", static_cast<uint64_t>(paper.messages));
    payload.AddCount("paper_keys", static_cast<uint64_t>(paper.keys));
    payload.AddMetric("paper_p1_pct", paper.p1 * 100);
    payload.AddCount("msgs", stats.messages);
    payload.AddCount("distinct_keys", stats.distinct_keys);
    payload.AddMetric("p1_pct", stats.measured_p1 * 100);
    payload.AddMetric("zipf_z", ctx.scenario->param);
    return payload;
  };
  const int rc = RunGridAndReport(env, std::move(grid));
  std::printf("# note: CT's measured whole-stream p1 is below target by design"
              " (concept drift spreads the rank-1 mass across identities).\n");
  return rc;
}

}  // namespace
}  // namespace slb::bench

int main(int argc, char** argv) { return slb::bench::Main(argc, argv); }
