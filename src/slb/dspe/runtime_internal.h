// Internal types of the threaded engine (the API is runtime.h). runtime.cc
// owns the data path — route, publish, execute, ack, park — and reaches live
// rescale (elastic.cc) only through the Elastic* hooks below, which run only
// when Runtime::elastic or TaskState::elastic is set.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "slb/common/histogram.h"
#include "slb/common/status.h"
#include "slb/dspe/plan.h"
#include "slb/dspe/runtime.h"
#include "slb/dspe/spsc_queue.h"
#include "slb/dspe/topology.h"
#include "slb/sim/migration_tracker.h"

namespace slb::runtime_internal {

struct TaskState;
struct ThreadCtx;

// A tuple in transit. The (spout_task, root_slot) pair names the root tree
// this tuple belongs to for ack accounting; `dest` is the task that executes
// it (a lane carries tuples for every task its executor hosts).
struct RtTuple {
  uint64_t key = 0;
  uint64_t value = 0;
  uint32_t spout_task = 0;
  uint32_t root_slot = 0;
  TaskState* dest = nullptr;
};

// One in-flight root tuple tree of a spout task. `pending` counts the
// not-yet-accounted references on the tree: the spout seeds it with ONE
// release-store covering every routed copy of the root (the copies are
// invisible downstream until the trailing FlushTask publishes them, so no
// anchor reference is needed), bolts apply only the NET change of a
// processed tuple (emitted copies minus the consumed one — a +k add while
// their own reference still holds the tree open, or a deferred -1 batched
// into the executor's ack flush). emit_time_s is written by the spout
// strictly before the release-store that makes pending non-zero, and read by
// completers strictly before the final decrement, so slot reuse never races.
// Cache-line sized: the slot array is indexed concurrently by every executor
// completing trees of this spout, and padding keeps one tree's refcount
// traffic from invalidating its neighbors' lines.
struct alignas(kCacheLineBytes) RootSlot {
  std::atomic<uint32_t> pending{0};
  double emit_time_s = 0.0;  // kUntimed unless the root is latency-sampled
};

// Latency sampling: a spout reads the clock for one root in
// 2^kLatencySampleShift, so a root costs no clock read and its completion no
// histogram update unless it is sampled. Storm's complete-latency sampling
// (topology.stats.sample.rate) does the same. The pick is a fixed
// multiplicative hash of the spout's emission index, not a stride: the
// round-robin spout split and a hot key's min-load choice among its d
// candidates are periodic, and a power-of-two stride can line up with them.
// Index 0 hashes to 0, so every spout's first root is timed.
inline constexpr uint32_t kLatencySampleShift = 3;  // one root in eight
inline constexpr double kUntimed = -1.0;
inline constexpr bool LatencySampled(uint64_t emission_index) {
  return (emission_index * 0x9E3779B97F4A7C15ULL) >>
             (64 - kLatencySampleShift) ==
         0;
}

class ReusableCollector final : public OutputCollector {
 public:
  void Emit(const TopologyTuple& tuple) override { emitted.push_back(tuple); }
  std::vector<TopologyTuple> emitted;
};

// Rescale protocol state (elastic.cc); complete only there.
struct ElasticState;
struct ElasticTask;

// One host lane of an outgoing edge: the ring from this producer task to
// one consumer executor thread, and the tuples routed to that thread's tasks
// but not yet published (the batch plus, under backpressure, the rest of a
// partial push).
struct Lane {
  SpscRing<RtTuple>* ring = nullptr;
  ThreadCtx* host = nullptr;  // consumer executor (for wakes)
  std::vector<RtTuple> buffer;
  size_t flushed = 0;  // prefix of buffer already sent
};

// Emit side of one outgoing edge: one lane per executor thread hosting a
// destination task, and per destination index its task and its lane.
struct OutEdge {
  std::vector<Lane> lanes;
  std::vector<uint32_t> lane_of;       // destination index -> lane
  std::vector<TaskState*> dest_tasks;  // destination index -> task
};

struct TaskState {
  // Executor thread hosting this task (tasks never migrate; set before the
  // threads start, or at the rescale barrier for scale-out workers). Lanes
  // are built per host, and credit returns and handoff frames wake it.
  ThreadCtx* host = nullptr;
  uint32_t task_id = 0;
  uint32_t component = 0;
  uint32_t index = 0;
  std::unique_ptr<Spout> spout;
  std::unique_ptr<Bolt> bolt;
  std::vector<std::unique_ptr<StreamPartitioner>> partitioners;
  std::vector<OutEdge> out;
  // Bolt: its last flush left output behind. Its host's inboxes hold any
  // tuple for it until a later flush empties the lanes (head-of-line).
  bool blocked = false;
  ReusableCollector collector;
  uint64_t processed = 0;
  // Spout: root-slot table (size = credit window) and live-root count.
  std::unique_ptr<RootSlot[]> slots;
  uint32_t num_slots = 0;
  // Credit counter: hammered by every executor's ack flush while the owning
  // spout polls it for backpressure — isolated on its own cache line so that
  // traffic never invalidates the spout's cursor/flag fields around it.
  alignas(kCacheLineBytes) std::atomic<uint32_t> in_flight{0};
  alignas(kCacheLineBytes) uint32_t slot_cursor = 0;
  bool exhausted = false;
  // Rescale state of a task of the rescaled spout or bolt component, owned
  // by ElasticState; null on static runs and for every other task.
  ElasticTask* elastic = nullptr;
};

// Wakeup gate of ONE parked executor — per-thread so producers wake exactly
// the host of the consumer they published to, never the whole fleet.
// `epoch` ticks on every signal; the parker snapshots it before announcing
// itself in `parked`, so the cv predicate catches any signal racing the
// park. The signaller's seq_cst fence pairs with the parker's
// (Dekker-style): either the signaller sees `parked` > 0 and notifies, or
// the parker's final work poll sees whatever the signaller published before
// signalling.
struct IdleGate {
  std::atomic<uint64_t> epoch{0};
  std::atomic<uint32_t> parked{0};
  std::mutex mu;
  std::condition_variable cv;
};

struct ElasticStateDeleter {
  void operator()(ElasticState* els) const;  // defined in elastic.cc
};

struct Runtime {
  std::vector<std::unique_ptr<TaskState>> tasks;  // every task ever created
  // Each component's current tasks by index; only the rescale mutator
  // changes one (the rescaled bolt's).
  std::vector<std::vector<TaskState*>> live;
  // Every lane's ring; lanes and inboxes point into these.
  std::vector<std::unique_ptr<SpscRing<RtTuple>>> rings;
  uint32_t batch_size = 64;
  uint32_t max_pending = 1;
  uint32_t queue_capacity = 1024;
  uint64_t max_tuples = 0;
  uint32_t num_spout_tasks = 0;  // spout task ids are [0, num_spout_tasks)
  double spin_budget_s = 0.0;  // idle spin before parking (ThreadMain)
  bool pin_threads = false;

  std::chrono::steady_clock::time_point start;
  std::atomic<uint32_t> active_spouts{0};
  std::atomic<uint64_t> active_roots{0};
  std::atomic<uint64_t> total_processed{0};  // only when max_tuples != 0
  std::atomic<bool> stop{false};
  std::atomic<uint32_t> threads_pinned{0};

  // Live-rescale protocol; null = static worker set.
  std::unique_ptr<ElasticState, ElasticStateDeleter> elastic;

  // Broadcast wake for rare global transitions (stop, failure, quiesce
  // phase, schedule pause/cancel): pokes every executor's gate.
  void WakeAll();

  // One context per executor thread, fixed before the threads start:
  // scale-out hosts its new workers on these.
  std::vector<std::unique_ptr<ThreadCtx>> contexts;

  std::mutex error_mu;
  Status first_error;  // guarded by error_mu

  double NowSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  }

  void Fail(Status status) {
    {
      std::lock_guard<std::mutex> lock(error_mu);
      if (first_error.ok()) first_error = std::move(status);
    }
    stop.store(true, std::memory_order_release);
    WakeAll();  // parked executors must observe the stop
  }
};

// One deferred root-tree reference drop, batched per executor pass.
struct PendingAck {
  uint32_t spout_task = 0;
  uint32_t root_slot = 0;
  uint32_t count = 0;
};

// Receive end of one lane on its consumer executor. `chunk[next, end)` is
// the stash: tuples popped but not yet executed, non-empty only while the
// head tuple's destination is blocked or the quantum's budget ran out.
struct Inbox {
  static constexpr uint32_t kChunk = 32;
  explicit Inbox(SpscRing<RtTuple>* r) : ring(r) {}
  SpscRing<RtTuple>* ring;
  uint32_t next = 0;
  uint32_t end = 0;
  RtTuple chunk[kChunk];
};

// Per-executor-thread accumulators, merged after join. Histogram is
// non-movable (internal mutex), so contexts live behind unique_ptr.
struct ThreadCtx {
  explicit ThreadCtx(uint64_t seed) : latency_ms(1 << 16, seed) {}
  std::vector<TaskState*> tasks;
  // One per lane into this executor: per upstream producer task and edge.
  std::vector<Inbox> inboxes;
  Histogram latency_ms;
  uint64_t roots_acked = 0;
  double last_ack_s = 0.0;
  uint64_t processed_delta = 0;  // tuples this pass, for the tuple budget
  uint32_t thread_index = 0;  // spawn order; drives round-robin CPU pinning
  // Coalesced acking: reference drops accumulated during the pass, flushed
  // by FlushAcks before the pass's idle/park decision. Consecutive drops on
  // the same tree merge in place (descendants of one root arrive adjacent).
  std::vector<PendingAck> acks;
  std::vector<uint32_t> spout_acked;  // per-spout completions, scratch
  // This executor's park gate, signalled by producers publishing to one of
  // its tasks and by the global transitions in Runtime::WakeAll.
  IdleGate gate;
  // Idle accounting: idle_s covers idle spinning and parking, park_s the
  // parked subset, parks the episode count.
  double idle_s = 0.0;
  double park_s = 0.0;
  uint64_t parks = 0;
  uint64_t publishes = 0;  // lane pushes by this executor that moved tuples
};

// Signals one gate: any signal racing a park is caught either by the epoch
// tick (cv predicate) or by the parker's post-announce work poll.
inline void WakeGate(IdleGate& gate) {
  gate.epoch.fetch_add(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (gate.parked.load(std::memory_order_relaxed) > 0) {
    // Empty critical section: a parker between its predicate check and
    // cv.wait cannot miss the notify once we pass through the mutex.
    { std::lock_guard<std::mutex> lock(gate.mu); }
    gate.cv.notify_all();
  }
}

// The parking half of the gate protocol: announce in `parked`, re-poll
// `ready` once (the Dekker pairing with WakeGate), then sleep on the cv until
// the epoch moves or `stop` is set. The 1 ms timed wait is a safety net, not
// the wake path — any missed-wakeup bug degrades to polling instead of
// deadlock. Returns false, without sleeping, when `ready` held.
template <typename Ready>
bool ParkOnGate(IdleGate& gate, const std::atomic<bool>& stop, Ready&& ready) {
  const uint64_t epoch = gate.epoch.load(std::memory_order_relaxed);
  gate.parked.fetch_add(1, std::memory_order_seq_cst);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (ready()) {
    gate.parked.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  {
    std::unique_lock<std::mutex> lock(gate.mu);
    gate.cv.wait_for(lock, std::chrono::milliseconds(1), [&] {
      return gate.epoch.load(std::memory_order_relaxed) != epoch ||
             stop.load(std::memory_order_relaxed);
    });
  }
  gate.parked.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

// A helper thread parked on its own IdleGate that answers every wake. One
// RoundTrip() — wait until the helper has parked, WakeGate it, spin until it
// answers — is the cost an executor pays for parking instead of spinning,
// and so the length of the idle spin (ThreadMain).
class ParkWakeProbe {
 public:
  ParkWakeProbe();
  ~ParkWakeProbe();
  ParkWakeProbe(const ParkWakeProbe&) = delete;
  ParkWakeProbe& operator=(const ParkWakeProbe&) = delete;

  std::chrono::nanoseconds RoundTrip();

 private:
  IdleGate gate_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> answered_{0};
  uint64_t sent_ = 0;
  std::thread parker_;
};

// Targeted wake: pokes the executor hosting `task`. Cheap when that thread
// is not parked — one fetch_add, one fence, one load on its gate.
inline void WakeHost(TaskState* task) {
  if (task->host != nullptr) WakeGate(task->host->gate);
}

// A spout with tuples left to emit and credit left in its window.
inline bool HasCredit(const Runtime& rt, const TaskState& task) {
  return !task.exhausted &&
         task.in_flight.load(std::memory_order_relaxed) < rt.max_pending;
}

// Index in edge.lanes of the lane from `edge`'s producer to executor `host`,
// added (a new ring, and its inbox on `host`) if there is none yet.
uint32_t LaneTo(Runtime& rt, OutEdge& edge, ThreadCtx& host);
// Executor thread body: runs its tasks' quanta until the runtime stops.
void ThreadMain(Runtime& rt, ThreadCtx& ctx);
// An elastic spout's emission loop: up to `budget` roots, each first-edge
// routing decision recorded in `log`.
bool EmitLoggedRoots(Runtime& rt, ThreadCtx& ctx, TaskState& task,
                     uint32_t budget, SenderRoutingLog* log);

// --- Live-rescale hooks (elastic.cc). ---------------------------------------

// Wiring, before any thread starts: validates the schedule and the rescaled
// spout -> bolt pair, and builds rt.elastic.
Status ElasticWire(Runtime& rt, const TopologyBuilder::Topology& topology,
                   const TopologyPlan& plan, const TopologyOptions& options,
                   const ThreadedRescaleSchedule& rescale);
// Barrier/phase gate atop every executor pass: parks on an open barrier, or
// opens it once the topology is quiescent. True = restart the pass.
bool ElasticGate(Runtime& rt);
// An elastic spout's quantum: emits up to its next trigger, pauses there,
// and cancels the remaining schedule if the stream runs dry short of it.
bool ElasticSpoutQuantum(Runtime& rt, ThreadCtx& ctx, TaskState& task);
// Handoff service, or a scale-in drain, of an elastic bolt: once per pass.
bool ElasticBoltService(Runtime& rt, TaskState& task);
// Runs before an elastic bolt executes a data tuple: the key's migration
// check while the directory is non-empty.
void ElasticCheck(Runtime& rt, TaskState& task, uint64_t key);
// Runnable poll before parking: the quiesce phase, and the handoff work,
// trigger and credit of every elastic task of `ctx`.
bool ElasticRunnable(Runtime& rt, const ThreadCtx& ctx);
// Termination predicate: no key state still owed a move.
bool ElasticSettled(const Runtime& rt);
// Stats: fills stats->rescale and the routing-log audit.
void ElasticStats(Runtime& rt, TopologyStats* stats);

}  // namespace slb::runtime_internal
