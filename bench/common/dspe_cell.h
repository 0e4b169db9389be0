// Sweep cell runner for the cluster-level experiments (Figs. 13-14). Each
// cell builds one spout -> worker topology (the cell's grouping on the single
// edge, a per-key sum at every worker) and runs it on one of two engines:
//
//   * kSim       — ExecuteTopology, the discrete-event model of the Storm
//                  cluster (modeled service times; deterministic, fast);
//   * kThreaded  — ExecuteTopologyThreaded, the real multi-threaded runtime
//                  (SPSC rings, credit backpressure): throughput and latency
//                  are *measured* on the host, not modeled.
//
// Either way the cell reports throughput counters and latency snapshots in
// the cell payload (the partition-sim fields stay zero — these experiments
// measure the cluster, not routing imbalance).

#pragma once

#include <string>

#include "slb/dspe/runtime.h"
#include "slb/dspe/topology.h"
#include "slb/sim/sweep.h"

namespace slb::bench {

enum class DspeEngine {
  kSim,       // discrete-event queueing model
  kThreaded,  // real threads, measured wall-clock
};

/// Parses "sim" / "threaded" (case-insensitive).
Result<DspeEngine> ParseDspeEngine(const std::string& text);

/// Parses "adaptive" / "spin" (case-insensitive) into the threaded engine's
/// idle-executor policy.
Result<WaitStrategy> ParseWaitStrategy(const std::string& text);

struct DspeCellOptions {
  /// The cluster's service parameters and credit window. The seeds are
  /// overwritten per cell; the workload (grouping, worker and source
  /// counts, stream) comes from the sweep context.
  TopologyOptions base;
  DspeEngine engine = DspeEngine::kSim;
  /// kThreaded only: executor threads / ring sizes / emit batch.
  TopologyRuntimeOptions runtime;
  /// Which payload components the cells attach.
  bool throughput = true;       // Fig. 13 columns
  bool latency = true;          // tuple-level latency snapshot
  bool worker_latency = false;  // Fig. 14's per-worker average percentiles
                                // (kSim only; the threaded runtime reports
                                // tuple-level percentiles)
};

SweepCellRunner MakeDspeCellRunner(DspeCellOptions options);

}  // namespace slb::bench
