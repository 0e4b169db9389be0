// Key-state migration accounting for elastic rescaling (see
// docs/ARCHITECTURE.md "Elastic rescale protocol").
//
// When the worker set changes mid-stream, per-key state (counters, windows,
// whatever the operator keeps) must follow the keys to their new owners. The
// tracker models the two protocols real engines use (cf. Madsen et al. and
// the Malstrom rescaling notes):
//
//  * Scale-IN is EAGER: a removed worker is draining toward shutdown, so
//    every key with state on it is handed off at the event, entering a FIFO
//    handoff channel that drains `migration_keys_per_message` keys per
//    routed message. Messages for a key whose handoff has not completed yet
//    are counted as stalled (in a real engine they buffer at the receiver).
//
//  * Scale-OUT is LAZY: nothing moves at the event. The first time each
//    pre-existing key is routed afterwards, its placement is rechecked; if
//    it lands on a worker that lacks its state, the state is pulled over —
//    one migration — through the same handoff channel.
//
// `moved_key_fraction` = keys migrated / keys whose placement was checked
// (live keys at scale-in events + lazily rechecked keys after scale-out).
// For a consistent-hash ring this converges to ~|delta|/n — the minimal-
// movement property — while mod-range hashing schemes (KG/PKG/D-C/W-C)
// re-home nearly everything. That contrast is what bench_elastic_rescale
// measures.

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "slb/common/status.h"

namespace slb {

/// One timed worker-set change. Fractions are of the total stream length so
/// schedules compose with any message count.
struct RescaleEvent {
  double at_fraction = 0.5;   // stream position in (0, 1)
  uint32_t num_workers = 1;   // target worker count after the event
};

/// Knobs of the migration cost model.
struct RescaleCostModel {
  /// Bytes of operator state migrated per key handoff.
  uint64_t state_bytes_per_key = 64;

  /// Handoff channel drain rate: key handoffs completed per routed message.
  uint32_t migration_keys_per_message = 4;
};

struct RescaleSchedule {
  /// Events sorted by strictly increasing at_fraction.
  std::vector<RescaleEvent> events;
  RescaleCostModel cost;

  bool empty() const { return events.empty(); }
};

/// Checks a schedule's invariants (fractions strictly increasing in (0, 1),
/// targets >= 1 workers, sane cost model). Shared by the simulator
/// (PartitionSimConfig::rescale) and the threaded engine
/// (TopologyRuntimeOptions::rescale).
Status ValidateRescaleSchedule(const RescaleSchedule& schedule);

/// A worker-set change that actually fired, pinned to its global stream
/// position in the canonical round-robin interleave across senders (the
/// simulator's shuffle-grouping order: message i belongs to sender i mod S).
struct RescaleFiredEvent {
  uint64_t at_message = 0;
  uint32_t old_num_workers = 0;
  uint32_t new_num_workers = 0;
};

/// One sender's routed stream on the rescaled edge, in emission order.
struct SenderRoutingLog {
  std::vector<uint64_t> keys;
  std::vector<uint32_t> workers;
};

/// Per-key state-replica and handoff accounting. One instance per simulation
/// (it sees the ground-truth routed stream, like LoadTracker).
class MigrationTracker {
 public:
  explicit MigrationTracker(const RescaleCostModel& cost);

  /// Records message `seq` (0-based stream position) of `key` routed to
  /// `worker`. Performs the lazy post-scale-out recheck and stall test.
  void OnMessage(uint64_t seq, uint64_t key, uint32_t worker);

  /// The worker set changed at message position `seq` (before the message at
  /// `seq` is routed). Scale-in migrates eagerly; scale-out opens a lazy
  /// recheck epoch.
  void OnRescale(uint64_t seq, uint32_t old_num_workers,
                 uint32_t new_num_workers);

  uint64_t keys_migrated() const { return keys_migrated_; }
  uint64_t keys_checked() const { return keys_checked_; }
  uint64_t state_bytes_migrated() const { return state_bytes_migrated_; }
  uint64_t stalled_messages() const { return stalled_messages_; }
  uint32_t rescale_events() const { return rescale_events_; }

  /// Every migrated key in handoff-enqueue order (eager events contribute
  /// their affected keys sorted; lazy pulls in first-touch order). The
  /// sim-vs-threaded equivalence tests compare this vector byte-for-byte.
  const std::vector<uint64_t>& migrated_keys() const { return migrated_keys_; }

  /// Fraction of checked keys that actually moved; the minimal-movement
  /// headline number (0 when no placement was ever checked).
  double moved_key_fraction() const {
    return keys_checked_ == 0 ? 0.0
                              : static_cast<double>(keys_migrated_) /
                                    static_cast<double>(keys_checked_);
  }

 private:
  struct KeyState {
    /// Workers holding this key's state (small: 1 for single-home schemes,
    /// ~2 for PKG tails; unsorted, linear scan).
    std::vector<uint32_t> replicas;

    /// First message position at which this key's in-flight handoff (if any)
    /// has completed; messages before it are stalled.
    uint64_t available_at = 0;

    /// Last lazy-recheck epoch this key was examined in.
    uint32_t checked_epoch = 0;
  };

  /// Enqueues one key handoff at message `seq`; returns the message position
  /// at which it completes (FIFO channel, `migration_keys_per_message` rate).
  uint64_t EnqueueHandoff(uint64_t seq, uint64_t key);

  RescaleCostModel cost_;
  std::unordered_map<uint64_t, KeyState> keys_;
  std::vector<uint64_t> migrated_keys_;
  uint32_t epoch_ = 0;             // bumped by scale-out events
  uint64_t next_free_slot_ = 0;    // handoff channel tail, in key-slot units
  uint64_t keys_migrated_ = 0;
  uint64_t keys_checked_ = 0;
  uint64_t state_bytes_migrated_ = 0;
  uint64_t stalled_messages_ = 0;
  uint32_t rescale_events_ = 0;
};

/// Replays per-sender routing logs through a fresh MigrationTracker in the
/// canonical global order: message i belongs to sender i mod S (skipping a
/// sender once its log is exhausted), and each fired event's OnRescale runs
/// before the message at its position — exactly the simulator's loop. The
/// threaded engine records logs live and replays them after the run, so its
/// modeled migration columns are byte-identical to RunPartitionSimulation on
/// the same per-sender streams and event positions, independent of thread
/// interleaving.
MigrationTracker ReplayRoundRobinMigration(
    const RescaleCostModel& cost, const std::vector<RescaleFiredEvent>& events,
    const std::vector<SenderRoutingLog>& senders);

}  // namespace slb
