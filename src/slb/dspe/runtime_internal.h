// Internal types of the threaded engine (the API is runtime.h). runtime.cc
// owns the data path — route, publish, execute, ack, park — and reaches live
// rescale (elastic.cc) only through the Elastic* hooks below, which run only
// when Runtime::elastic or TaskState::elastic is set.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
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

// A tuple in transit. The (spout_task, root_slot) pair names the root tree
// this tuple belongs to for ack accounting.
struct RtTuple {
  uint64_t key = 0;
  uint64_t value = 0;
  uint32_t spout_task = 0;
  uint32_t root_slot = 0;
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
  double emit_time_s = 0.0;
};

class ReusableCollector final : public OutputCollector {
 public:
  void Emit(const TopologyTuple& tuple) override { emitted.push_back(tuple); }
  std::vector<TopologyTuple> emitted;
};

struct TaskState;
struct ThreadCtx;
// Rescale protocol state (elastic.cc); complete only there.
struct ElasticState;
struct ElasticTask;

// Per-destination emit buffer of one outgoing edge: tuples routed but not
// yet published to the destination ring (the batch plus, under backpressure,
// the stash of rejected pushes).
struct OutEdge {
  std::vector<SpscRing<RtTuple>*> rings;      // one per destination task
  std::vector<TaskState*> dest_tasks;         // parallel to rings (for wakes)
  std::vector<std::vector<RtTuple>> buffers;  // parallel to rings
  std::vector<size_t> flushed;                // prefix of buffer already sent
};

struct TaskState {
  // Executor thread hosting this task (tasks never migrate; set before the
  // host starts, or at the rescale barrier for scale-out workers). Producers
  // use it to wake the host when they publish into one of its empty rings.
  ThreadCtx* host = nullptr;
  uint32_t task_id = 0;
  uint32_t component = 0;
  uint32_t index = 0;
  std::unique_ptr<Spout> spout;
  std::unique_ptr<Bolt> bolt;
  std::vector<std::unique_ptr<StreamPartitioner>> partitioners;
  std::vector<OutEdge> out;
  // Bolt: input rings, one per upstream producer task (MPSC as polled SPSC).
  std::vector<SpscRing<RtTuple>*> inputs;
  size_t input_cursor = 0;
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

// Wakeup gate of ONE parked executor (WaitStrategy::kAdaptive) — per-thread
// so producers wake exactly the host of the consumer they published to,
// never the whole fleet. `epoch` ticks on every signal; the parker snapshots
// it before announcing itself in `parked`, so the cv predicate catches any
// signal racing the park. The signaller's seq_cst fence pairs with the
// parker's (Dekker-style): either the signaller sees `parked` > 0 and
// notifies, or the parker's final work poll sees whatever the signaller
// published before signalling.
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
  std::vector<std::unique_ptr<SpscRing<RtTuple>>> rings;
  uint32_t batch_size = 64;
  uint32_t max_pending = 1;
  uint32_t queue_capacity = 1024;
  uint64_t max_tuples = 0;
  uint32_t num_spout_tasks = 0;  // spout task ids are [0, num_spout_tasks)
  WaitStrategy wait_strategy = WaitStrategy::kAdaptive;
  uint32_t spin_iterations = 32;
  uint32_t yield_iterations = 8;
  bool pin_threads = false;

  std::chrono::steady_clock::time_point start;
  std::atomic<uint32_t> active_spouts{0};
  std::atomic<uint64_t> active_roots{0};
  std::atomic<uint64_t> total_processed{0};
  std::atomic<bool> stop{false};
  std::atomic<uint32_t> threads_pinned{0};

  // Live-rescale protocol; null = static worker set.
  std::unique_ptr<ElasticState, ElasticStateDeleter> elastic;

  bool adaptive() const { return wait_strategy == WaitStrategy::kAdaptive; }

  // Broadcast wake for rare global transitions (stop, failure, quiesce
  // phase, schedule pause/cancel): pokes every executor's gate.
  void WakeAll();

  // Executor threads and their contexts. A scale-out barrier appends while
  // the main thread is join-looping, so both live behind spawn_mu and the
  // thread container is a deque (stable references across growth).
  std::mutex spawn_mu;
  std::deque<std::thread> threads;                   // guarded by spawn_mu
  std::vector<std::unique_ptr<ThreadCtx>> contexts;  // guarded by spawn_mu

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

// Per-executor-thread accumulators, merged after join. Histogram is
// non-movable (internal mutex), so contexts live behind unique_ptr.
struct ThreadCtx {
  explicit ThreadCtx(uint64_t seed) : latency_ms(1 << 16, seed) {}
  std::vector<TaskState*> tasks;
  Histogram latency_ms;
  uint64_t roots_acked = 0;
  double last_ack_s = 0.0;
  uint64_t processed_delta = 0;
  uint32_t thread_index = 0;  // spawn order; drives round-robin CPU pinning
  // Coalesced acking: reference drops accumulated during the pass, flushed
  // by FlushAcks before the pass's idle/park decision. Consecutive drops on
  // the same tree merge in place (descendants of one root arrive adjacent).
  std::vector<PendingAck> acks;
  std::vector<uint32_t> spout_acked;  // per-spout completions, scratch
  // This executor's park gate, signalled by producers publishing to one of
  // its tasks and by the global transitions in Runtime::WakeAll.
  IdleGate gate;
  // Idle-ladder accounting (kAdaptive only): idle_s covers the yield + park
  // stages, park_s the parked subset, parks the episode count.
  double idle_s = 0.0;
  double park_s = 0.0;
  uint64_t parks = 0;
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

// Targeted wake: pokes the executor hosting `task`. Cheap when that thread
// is not parked — one fetch_add, one fence, one load on its gate.
inline void WakeHost(Runtime& rt, TaskState* task) {
  if (rt.adaptive() && task->host != nullptr) WakeGate(task->host->gate);
}

// A spout with tuples left to emit and credit left in its window.
inline bool HasCredit(const Runtime& rt, const TaskState& task) {
  return !task.exhausted &&
         task.in_flight.load(std::memory_order_relaxed) < rt.max_pending;
}

// True when every emit buffer of `task` has been published.
bool AllFlushed(const TaskState& task);
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
// Handoff service, or a scale-in drain, at the top of an elastic bolt's
// quantum. False = consume no data (draining or retired). *check_keys is set
// while the migration directory is non-empty: every tuple's key then goes
// through ElasticCheck.
bool ElasticBoltService(Runtime& rt, TaskState& task, bool* did_work,
                        bool* check_keys);
void ElasticCheck(Runtime& rt, TaskState& task, uint64_t key);
// Runnable poll before parking: the quiesce phase, and the handoff work,
// trigger and credit of every elastic task of `ctx`.
bool ElasticRunnable(Runtime& rt, const ThreadCtx& ctx);
// Termination predicate: no key state still owed a move.
bool ElasticSettled(const Runtime& rt);
// Stats: fills stats->rescale and the routing-log audit.
void ElasticStats(Runtime& rt, TopologyStats* stats);

}  // namespace slb::runtime_internal
