#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "slb/sim/report.h"
#include "slb/workload/datasets.h"

namespace slb::bench {

BenchEnv ParseBenchArgs(int argc, char** argv, const std::string& description,
                        FlagSet* extra, BenchEnv defaults) {
  static BenchEnv env;  // targets must outlive Parse
  env = std::move(defaults);
  FlagSet own(description);
  FlagSet& flags = extra != nullptr ? *extra : own;
  flags.AddBool("paper", &env.paper, "use paper-scale parameters (slow)");
  flags.AddInt64("messages", &env.messages,
                 "stream length override (0 = per-bench default)");
  flags.AddInt64("sources", &env.sources, "number of sources (paper: 5)");
  flags.AddInt64("seed", &env.seed, "master RNG seed");
  flags.AddInt64("runs", &env.runs, "independent runs to average");
  flags.AddInt64("threads", &env.threads, "sweep parallelism (0 = hardware)");
  const Status st = flags.Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(), flags.Usage().c_str());
    std::exit(2);
  }
  if (flags.help_requested()) std::exit(0);
  const char* bad = env.sources < 1    ? "--sources must be >= 1"
                    : env.runs < 1     ? "--runs must be >= 1"
                    : env.threads < 0  ? "--threads must be >= 0"
                    : env.messages < 0 ? "--messages must be >= 0"
                                       : nullptr;
  if (bad != nullptr) {
    std::fprintf(stderr, "%s\n", bad);
    std::exit(2);
  }
  return env;
}

void PrintBanner(const std::string& experiment, const std::string& paper_ref,
                 const std::string& parameters) {
  std::printf("# %s\n", experiment.c_str());
  std::printf("# Reproduces: %s of \"When Two Choices Are not Enough\" "
              "(Nasir et al., ICDE 2016)\n",
              paper_ref.c_str());
  std::printf("# Parameters: %s\n", parameters.c_str());
}

std::vector<double> SkewGrid(bool paper) {
  std::vector<double> grid;
  const double step = paper ? 0.1 : 0.2;
  for (double z = step >= 0.2 ? 0.2 : 0.1; z <= 2.0 + 1e-9; z += step) {
    grid.push_back(z);
  }
  return grid;
}

std::vector<SweepScenario> SkewScenarios(bool paper, uint64_t num_keys,
                                         uint64_t num_messages, uint64_t seed) {
  return ZipfScenarios(SkewGrid(paper), num_keys, num_messages, seed);
}

std::vector<SweepScenario> ZipfScenarios(const std::vector<double>& exponents,
                                         uint64_t num_keys,
                                         uint64_t num_messages, uint64_t seed) {
  std::vector<SweepScenario> scenarios;
  for (double z : exponents) {
    DatasetSpec spec = MakeZipfSpec(z, num_keys, num_messages, seed);
    char label[16];
    std::snprintf(label, sizeof(label), "z=%.1f", z);
    spec.name = label;
    scenarios.push_back(ScenarioFromDataset(spec));
  }
  return scenarios;
}

std::string Sci(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4e", value);
  return buf;
}

int ReportTable(const SweepResultTable& table, ReportMode mode) {
  switch (mode) {
    case ReportMode::kTable:
      std::fputs(SweepToTsv(table).c_str(), stdout);
      break;
    case ReportMode::kSeries:
      std::fputs(SweepSeriesToTsv(table).c_str(), stdout);
      break;
    case ReportMode::kTableAndSeries:
      std::fputs(SweepToTsv(table).c_str(), stdout);
      std::fputs("\n", stdout);
      std::fputs(SweepSeriesToTsv(table).c_str(), stdout);
      break;
    case ReportMode::kWorkerLoads:
      std::fputs(SweepWorkerLoadsToTsv(table).c_str(), stdout);
      break;
  }
  for (const SweepCellResult& cell : table.cells) {
    if (cell.status.ok()) continue;
    std::fprintf(stderr, "%s/%s/%s/%u: %s\n", cell.scenario.c_str(),
                 cell.variant.empty() ? "-" : cell.variant.c_str(),
                 AlgorithmKindName(cell.algorithm).c_str(), cell.num_workers,
                 cell.status.ToString().c_str());
  }
  return table.num_errors() == 0 ? 0 : 1;
}

int RunGridAndReport(const BenchEnv& env, SweepGrid grid, ReportMode mode) {
  std::vector<SweepGrid> grids;
  grids.push_back(std::move(grid));
  return RunGridsAndReport(env, std::move(grids), mode);
}

SweepResultTable RunGridForEnv(const BenchEnv& env, SweepGrid grid) {
  grid.num_sources = static_cast<uint32_t>(env.sources);
  grid.seed = static_cast<uint64_t>(env.seed);
  grid.runs = static_cast<uint32_t>(env.runs);
  return RunSweep(grid, static_cast<size_t>(env.threads));
}

int RunGridsAndReport(const BenchEnv& env, std::vector<SweepGrid> grids,
                      ReportMode mode) {
  SweepResultTable table;
  for (SweepGrid& grid : grids) {
    SweepResultTable part = RunGridForEnv(env, std::move(grid));
    for (SweepCellResult& cell : part.cells) {
      table.cells.push_back(std::move(cell));
    }
  }
  return ReportTable(table, mode);
}

}  // namespace slb::bench
