// Threaded topology executor — the real (measured, not simulated) engine.
//
// ExecuteTopology in topology.h replays Storm's scheduling semantics inside
// a discrete-event loop, so its throughput and latency are *modeled*. This
// runtime executes the same declarative topology on real threads, so
// bench_fig13/fig14 can report hardware-measured msgs/sec and queue-delay
// percentiles. Tasks run cooperatively on `num_threads` executor threads.
// Transport is host lanes: per edge, one bounded lock-free SPSC ring from
// each producer task to each executor thread hosting a destination task, fed
// in batches of up to `batch_size` tuples per quantum; every tuple names its
// destination task, and an executor polls one inbox per lane into it. Spouts
// hold a credit window of `max_pending_per_spout` root tuples; a full lane
// stalls its producer without blocking the thread, and a bolt whose output
// does not fit holds up the tuples queued behind it on its inbound lanes
// until the output drains. See docs/ARCHITECTURE.md "The threaded runtime".
//
// Determinism: each task's partitioner state is sender-local and fed only by
// that task's own tuple sequence, so for single-layer topologies the routing
// decisions — and therefore per-component tuple counts, load vectors, and
// imbalance — are byte-identical to ExecuteTopology's, independent of thread
// count and interleaving (locked down by tests/dspe/runtime_test.cc). Timing
// fields (makespan, throughput, latency percentiles) are measured wall-clock
// and naturally vary run to run. Latency is measured over a sample of one
// root in eight, picked by a fixed hash of each spout's emission index (as
// Storm samples complete latency); latency_avg_ms and latency_max_ms cover
// the timed roots only, and TopologyStats::latency_samples counts them.
// makespan and throughput stay exact: every completing ack flush reads the
// clock.
//
// Live elastic rescale (TopologyRuntimeOptions::rescale): the runtime can
// grow and shrink the bolt component of a spout->bolt topology while it
// runs. The executor threads are fixed when the run starts: scale-out hosts
// each added worker on one of them (the wiring's round-robin rule), and a
// scale-in worker drains its state and retires while its thread stays up.
// Per-key bolt state follows the keys through real handoff frames, moving
// exactly the keys RunPartitionSimulation's protocol moves (docs/
// ARCHITECTURE.md "Elastic rescale protocol"); TopologyStats::rescale also
// reports the *measured* quiesce, credit-drain and migration-stall times.

#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "slb/common/status.h"
#include "slb/dspe/topology.h"
#include "slb/sim/migration_tracker.h"

namespace slb {

/// A live worker add/remove schedule for ExecuteTopologyThreaded. Event
/// positions are fractions of `total_messages` (the caller's intended spout
/// root-tuple total), converted with the same truncation the simulator uses,
/// so a threaded run and a RunPartitionSimulation over the same per-sender
/// streams fire at identical global stream positions. The runtime turns each
/// position into per-spout emission triggers: spout s (of S spouts, fed
/// round-robin) pauses after emitting its share of the first `position`
/// global messages, the topology quiesces (credit windows drain to zero),
/// the worker set mutates at a barrier, and execution resumes. If a spout
/// exhausts before reaching its trigger the remaining events are cancelled
/// (the stream was shorter than `total_messages` promised).
struct ThreadedRescaleSchedule {
  RescaleSchedule schedule;
  /// Total root tuples the spouts will emit (sets event positions).
  uint64_t total_messages = 0;
  /// Bolt component to rescale; empty = the topology's only bolt. Live
  /// rescale supports exactly the paper's simulation DAG: one spout
  /// component feeding one sink bolt component over one partitioned edge.
  std::string component;

  bool empty() const { return schedule.empty(); }
};

struct TopologyRuntimeOptions {
  /// Executor threads (0 = hardware concurrency, capped at the task count).
  uint32_t num_threads = 0;
  /// Capacity in tuples of each host lane — the ring from one producer task
  /// to one executor thread, per edge (rounded up to a power of two). Small
  /// lanes surface backpressure earlier.
  uint32_t queue_capacity = 1024;
  /// Quantum size: the roots a spout emits, and the tuples an executor takes
  /// from one inbound lane, per pass. Emitted tuples are buffered per lane
  /// and published in one push per lane.
  uint32_t batch_size = 64;
  /// Test seam for the idle wait. An executor whose pass finds no work
  /// re-polls with a cpu-relax hint until the idle streak has lasted this
  /// long, then parks until a producer signals new work (ring publish,
  /// credit return, phase change, shutdown; a 1 ms timed wait bounds a
  /// missed wake). Unset = one park->wake round trip of this host, measured
  /// once per process (0 when the process may run on one CPU only). 0 parks
  /// on the first idle pass; nanoseconds::max() never parks.
  std::optional<std::chrono::nanoseconds> spin_budget;
  /// Pin executor threads round-robin over the CPUs in the process's
  /// affinity mask (Linux). Graceful no-op where unsupported; the count of
  /// successfully pinned threads lands in TopologyStats::threads_pinned.
  bool pin_threads = false;
  /// Live elastic rescale schedule (empty = static worker set). Requires a
  /// rescalable partitioner on the spout->bolt edge and bolts that implement
  /// the Bolt state-handoff API.
  ThreadedRescaleSchedule rescale;
};

/// Runs the topology on real threads until every spout is exhausted and all
/// in-flight tuple trees have acked. The cluster-model knobs of
/// TopologyOptions (bolt_service_ms / transport_rate_per_s) are ignored —
/// execution cost is whatever the spout/bolt code actually costs;
/// hash_seed, seed, max_pending_per_spout, and max_tuples apply as in
/// ExecuteTopology.
///
/// Bolt instances are driven by exactly one executor thread each (tasks
/// never migrate), so Bolt/Spout implementations need no internal locking —
/// but factories must return distinct instances per task, and any caller-
/// owned sinks shared across tasks must be thread-safe.
Result<TopologyStats> ExecuteTopologyThreaded(
    const TopologyBuilder::Topology& topology, const TopologyOptions& options,
    const TopologyRuntimeOptions& runtime_options = {});

}  // namespace slb
