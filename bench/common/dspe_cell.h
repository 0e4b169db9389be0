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
// the cell payload. Threaded cells also fill the partition-sim fields
// final_imbalance and worker_loads with the measured load split across the
// final workers; on sim cells they stay zero.

#pragma once

#include <cstdint>
#include <string>

#include "slb/common/flags.h"
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

/// Checks the threaded engine's sizing flags and copies them into
/// `options`: --engine-threads in [0, 2^32), --queue-capacity in [2, 2^20]
/// and --batch-size in [1, 2^32). On a value out of range, prints the
/// problem to stderr and exits 2 (an unchecked cast would turn
/// --queue-capacity -1 into 2^32 - 1 tuples per lane).
void FillRuntimeSizes(int64_t engine_threads, int64_t queue_capacity,
                      int64_t batch_size, TopologyRuntimeOptions* options);

/// The threaded engine's knobs as bench flags: --engine-threads,
/// --queue-capacity, --batch-size and --pin-threads.
struct RuntimeFlags {
  explicit RuntimeFlags(int64_t default_threads)
      : engine_threads(default_threads) {}

  /// Binds the flags to the fields below, which hold the parsed values once
  /// `flags` has parsed.
  void Register(FlagSet* flags);
  /// Copies the parsed values into `options`. On a size out of range
  /// (FillRuntimeSizes), prints the error to stderr and exits 2.
  void Fill(TopologyRuntimeOptions* options) const;

  int64_t engine_threads;
  int64_t queue_capacity = 1024;
  int64_t batch_size = 64;
  bool pin_threads = false;
};

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
