// Synthetic stand-ins for the paper's datasets (Table I).
//
// We do not have the original Wikipedia/Twitter traces, so each dataset is
// replaced by a Zipf stream whose exponent is *calibrated* so the most
// frequent key matches the paper's reported p1, with the paper's key
// cardinality and message count (optionally scaled down for quick runs).
// CT additionally carries concept drift (see DriftingKeyMapper), which is
// the property Figs. 11-12 use it for. The substitution is recorded in
// docs/ARCHITECTURE.md ("Cluster model").
//
//   Dataset    Messages   Keys    p1       Drift
//   WP         22M        2.9M    9.32%    none
//   TW         1.2G       31M     2.67%    none
//   CT         690k       2.9k    3.29%    heavy
//
// Note: TW at scale 1.0 generates 1.2e9 messages per run — use the default
// bench scales unless you intend a multi-hour run.

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "slb/workload/stream_generator.h"

namespace slb {

/// Full description of a synthetic dataset; feed to MakeGenerator().
struct DatasetSpec {
  std::string name;
  uint64_t num_messages = 0;
  uint64_t num_keys = 0;
  double target_p1 = 0.0;        // paper's reported p1 (fraction)
  double zipf_exponent = 0.0;    // calibrated from target_p1
  uint64_t num_epochs = 1;       // reporting "hours" (Fig. 12 x-axis)
  double drift_swap_fraction = 0.0;
  uint64_t seed = 42;
};

/// Wikipedia page-visit stream (paper Sec. V-A). `scale` multiplies both
/// message count and key cardinality; scale=1 reproduces Table I sizes.
DatasetSpec MakeWikipediaSpec(double scale = 1.0);

/// Twitter word stream. scale=1 is 1.2G messages.
DatasetSpec MakeTwitterSpec(double scale = 1.0);

/// Twitter cashtag stream with concept drift. Small enough that scale=1 is
/// the default everywhere.
DatasetSpec MakeCashtagsSpec(double scale = 1.0);

/// Plain Zipf stream, the paper's ZF synthetic workload.
DatasetSpec MakeZipfSpec(double z, uint64_t num_keys, uint64_t num_messages,
                         uint64_t seed = 42);

/// Instantiates the generator for a spec.
std::unique_ptr<SyntheticStreamGenerator> MakeGenerator(const DatasetSpec& spec);

/// Measured statistics of a generated stream (Table I reproduction).
struct DatasetStats {
  uint64_t messages = 0;
  uint64_t distinct_keys = 0;
  double measured_p1 = 0.0;  // frequency of the most frequent key
};

/// Runs the full stream once and measures Table I statistics.
DatasetStats MeasureDataset(StreamGenerator* gen);

}  // namespace slb
