// Shared harness utilities for the figure/table reproduction binaries.
//
// Every bench binary accepts the same flag vocabulary:
//   --paper           paper-scale parameters (slower, closer to the paper)
//   --messages N      override the stream length (0 = per-bench default)
//   --sources S       number of sources (Table III default: 5)
//   --seed S          master seed
//   --runs R          independent runs to average (seeds seed, seed+1, ...)
//   --threads T       sweep parallelism (0 = hardware)
// and prints gnuplot-ready TSV tables to stdout with '#' headers. Per-bench
// extras are registered on a FlagSet passed to ParseBenchArgs so `--help`
// lists one merged vocabulary. docs/SWEEP_FORMATS.md documents the output
// schemas.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "slb/common/flags.h"
#include "slb/common/string_util.h"
#include "slb/core/partitioner.h"
#include "slb/sim/partition_simulator.h"
#include "slb/sim/sweep.h"
#include "slb/workload/datasets.h"

namespace slb::bench {

struct BenchEnv {
  bool paper = false;
  int64_t messages = 0;  // 0 = per-bench default
  int64_t sources = 5;
  int64_t seed = 42;
  int64_t runs = 1;
  int64_t threads = 0;

  /// Picks the stream length: explicit --messages wins, then paper/quick.
  uint64_t MessagesOr(uint64_t quick_default, uint64_t paper_default) const {
    if (messages > 0) return static_cast<uint64_t>(messages);
    return paper ? paper_default : quick_default;
  }
};

/// Parses common flags (plus any extra flags already registered on `extra`).
/// `defaults` seeds the pre-parse values (e.g. the DSPE benches default to
/// the paper's 48 sources). Exits the process on --help, and with status 2
/// on bad flags or out-of-range values (--sources/--runs < 1,
/// --threads/--messages < 0).
BenchEnv ParseBenchArgs(int argc, char** argv, const std::string& description,
                        FlagSet* extra = nullptr, BenchEnv defaults = BenchEnv{});

/// Prints the standard experiment banner: which figure/table of the paper
/// this binary regenerates and with which parameters.
void PrintBanner(const std::string& experiment, const std::string& paper_ref,
                 const std::string& parameters);

/// The skew grid of the paper's ZF experiments: 0.1..2.0 step 0.1 in paper
/// mode, 0.2..2.0 step 0.2 in quick mode.
std::vector<double> SkewGrid(bool paper);

/// Scenarios for the skew grid: one ZF dataset per exponent, labelled
/// "z=<exponent>", with SweepScenario::param = z for custom runners.
std::vector<SweepScenario> SkewScenarios(bool paper, uint64_t num_keys,
                                         uint64_t num_messages, uint64_t seed);

/// Same labelling/seeding for an explicit exponent list (the benches that
/// sweep a few representative z values instead of the full grid).
std::vector<SweepScenario> ZipfScenarios(const std::vector<double>& exponents,
                                         uint64_t num_keys,
                                         uint64_t num_messages, uint64_t seed);

/// Formats a double for TSV output (scientific, 4 significant digits).
std::string Sci(double value);

/// Which sweep emitters RunGridAndReport prints (all to stdout).
enum class ReportMode {
  kTable,           // summary table (SweepToTsv)
  kSeries,          // per-sample long format (SweepSeriesToTsv)
  kTableAndSeries,  // summary table, blank line, then the series table
  kWorkerLoads,     // per-worker head/tail breakdown (SweepWorkerLoadsToTsv)
};

/// Applies the common sweep knobs (--sources/--seed/--runs) to `grid`, runs
/// it with --threads parallelism, and prints the result per `mode`. Returns
/// the process exit code: 1 when any cell failed (each failure's status is
/// printed to stderr).
int RunGridAndReport(const BenchEnv& env, SweepGrid grid,
                     ReportMode mode = ReportMode::kTable);

/// Same, but concatenates the tables of several grids (stable order: grids
/// in call order, cells in grid order) into ONE report. For experiments
/// whose axes do not form a single cartesian product, e.g. comparing an
/// adaptive algorithm against a fixed-parameter family.
int RunGridsAndReport(const BenchEnv& env, std::vector<SweepGrid> grids,
                      ReportMode mode = ReportMode::kTable);

/// The sweep half of RunGridAndReport without the report: applies the
/// common knobs (--sources/--seed/--runs) to `grid` and runs it with
/// --threads parallelism. For benches that post-process the table (e.g. the
/// adversarial-headroom bench derives a per-scenario variant-gap table)
/// before printing it with ReportTable.
SweepResultTable RunGridForEnv(const BenchEnv& env, SweepGrid grid);

/// The report half: prints `table` per `mode` and returns the process exit
/// code — 1 when any cell failed, after printing each failed cell's
/// coordinates and status to stderr.
int ReportTable(const SweepResultTable& table, ReportMode mode);

}  // namespace slb::bench
