// Live rescale for the threaded engine: the quiesce barrier, the worker-set
// mutation and the key-state handoff mailboxes, behind the Elastic* hooks of
// runtime_internal.h (docs/ARCHITECTURE.md "Live rescale").

#include <algorithm>
#include <deque>
#include <exception>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "slb/common/logging.h"
#include "slb/dspe/runtime_internal.h"
#include "slb/hash/hash.h"

namespace slb::runtime_internal {

// Spout trigger sentinel: no rescale event pending for this spout.
constexpr uint64_t kNoTrigger = ~0ULL;

// Key-state handoff frames between workers of the rescaled bolt, pushed
// into the receiver's mailbox. kStateFrame ships one key's state to its new
// owner; kPullRequest asks the directory's owner to ship it (lazy scale-out
// pull).
constexpr uint32_t kStateFrame = 0;
constexpr uint32_t kPullRequest = 1;

struct HandoffFrame {
  uint64_t key = 0;
  uint64_t value = 0;
  uint32_t kind = kStateFrame;
  uint32_t from_worker = 0;  // sender's worker index in the rescaled bolt
};

// Per-task rescale state (TaskState::elastic).
struct ElasticTask {
  // Spout: pause after `processed == next_trigger` emissions; the routed
  // stream is logged for the post-run migration replay.
  uint64_t next_trigger = kNoTrigger;
  bool paused = false;
  SenderRoutingLog routing_log;
  // Bolt: scale-in drain state, and the mailbox every peer pushes its
  // handoff frames into (appends under the lock keep each sender's frames in
  // order); the owner swaps it into `handoff_batch` to process it.
  bool draining = false;
  bool retired = false;
  std::vector<uint64_t> drain_keys;
  size_t drain_cursor = 0;
  mutable std::mutex mailbox_mu;
  std::vector<HandoffFrame> mailbox;  // guarded by mailbox_mu
  std::vector<HandoffFrame> handoff_batch;
};

// Live-rescale coordination. Ownership discipline: fields below the barrier
// block are written only by the mutator (the last executor to park at a
// barrier) or before threads start; every executor re-reads them only after
// the barrier generation advances, so barrier_mu carries the happens-before.
struct ElasticState {
  explicit ElasticState(std::vector<TaskState*>& live_workers)
      : workers(live_workers) {}

  // Static configuration.
  uint32_t bolt_component = 0;
  uint32_t num_spouts = 0;
  uint64_t edge_hash_seed = 0;
  RescaleCostModel cost;
  BoltFactory bolt_factory;

  struct PendingEvent {
    uint64_t at_message = 0;
    uint32_t num_workers = 0;
  };
  std::vector<PendingEvent> pending;

  // Storage behind TaskState::elastic.
  std::deque<ElasticTask> task_state;

  // Mutator-owned topology view.
  size_t next_event = 0;
  std::vector<TaskState*> spouts;      // elastic spout tasks, index order
  std::vector<TaskState*>& workers;    // Runtime::live of the rescaled bolt
  std::vector<RescaleFiredEvent> fired;

  // Quiesce barrier: phase flips 0->1 when every spout sits at its trigger
  // and every tuple tree has acked; every executor (none exits before stop)
  // then parks on the generation barrier and the last arrival mutates.
  std::mutex barrier_mu;
  std::condition_variable barrier_cv;
  uint64_t barrier_gen = 0;      // guarded by barrier_mu
  uint32_t barrier_waiting = 0;  // guarded by barrier_mu
  std::atomic<uint32_t> spouts_quiesced{0};
  std::atomic<uint32_t> phase{0};
  std::atomic<bool> cancelled{false};

  // Migration directory: the keys that still owe a move this window.
  // Scale-in entries are created at the barrier (frames_pending = number of
  // removed holders); scale-out entries hold the lazy owner lists and
  // resolve on first post-event touch. dir_active mirrors directory.size()
  // so bolts skip the lock while nothing is pending.
  struct DirEntry {
    std::vector<uint32_t> owners;
    uint32_t frames_pending = 0;
  };
  std::mutex dir_mu;
  std::unordered_map<uint64_t, DirEntry> directory;  // guarded by dir_mu
  std::atomic<uint64_t> dir_active{0};
  // Keys with a state frame owed, scale-in drain keys included.
  std::atomic<uint64_t> inflight_keys{0};

  // Measured protocol costs.
  std::atomic<uint64_t> handoff_frames{0};
  std::atomic<uint64_t> measured_stalls{0};
  std::atomic<int64_t> quiesce_start_ns{0};
  std::atomic<int64_t> drain_done_ns{0};
  std::atomic<int64_t> stall_window_start_ns{0};
  std::atomic<int64_t> last_install_ns{0};
  double total_quiesce_s = 0.0;          // mutator / post-join main only
  double total_credit_drain_s = 0.0;     // mutator / post-join main only
  double total_migration_stall_s = 0.0;  // mutator / post-join main only
};

void ElasticStateDeleter::operator()(ElasticState* els) const { delete els; }

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Messages spout s (of S, fed round-robin) emits before global position p:
// the count of i < p with i == s (mod S). Triggers derived this way make the
// threaded engine fire events at exactly the simulator's stream positions.
uint64_t PreCount(uint64_t p, uint32_t s, uint32_t num_spouts) {
  return p > s ? (p - s - 1) / num_spouts + 1 : 0;
}

// Every spout sits at its trigger and every in-flight tree has acked: the
// topology is quiescent and the barrier may open.
bool QuiesceComplete(const Runtime& rt, const ElasticState& els) {
  return els.spouts_quiesced.load(std::memory_order_acquire) ==
             els.num_spouts &&
         !els.cancelled.load(std::memory_order_acquire) &&
         rt.active_roots.load(std::memory_order_acquire) == 0;
}

// True when every lane buffer of `task` has been published.
bool AllFlushed(const TaskState& task) {
  for (const OutEdge& edge : task.out) {
    for (const Lane& lane : edge.lanes) {
      if (!lane.buffer.empty()) return false;
    }
  }
  return true;
}

// Appends one frame to `to`'s mailbox and wakes its host. Counts the frame
// exactly once, at send time.
void PushHandoff(ElasticState& els, TaskState* to, const HandoffFrame& frame) {
  els.handoff_frames.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(to->elastic->mailbox_mu);
    to->elastic->mailbox.push_back(frame);
  }
  WakeHost(to);
}

// A state frame landed: retire its directory obligation. Erasing the entry
// (once all expected frames arrived) is what re-opens the key's hot path.
void ResolveInstalledKey(ElasticState& els, uint64_t key) {
  std::lock_guard<std::mutex> lock(els.dir_mu);
  auto it = els.directory.find(key);
  SLB_CHECK(it != els.directory.end()) << "state frame for unknown key";
  if (--it->second.frames_pending == 0) {
    els.directory.erase(it);
    els.dir_active.fetch_sub(1, std::memory_order_relaxed);
    els.inflight_keys.fetch_sub(1, std::memory_order_relaxed);
  }
  els.last_install_ns.store(NowNs(), std::memory_order_relaxed);
}

// Services this worker's mailbox: takes every queued frame in one swap,
// then installs state, or answers a pull request by extracting the key and
// shipping it back. The mailbox lock is not held while frames run (a state
// frame takes dir_mu, which ElasticCheck holds while it pushes).
bool ServiceHandoffs(ElasticState& els, TaskState& task) {
  ElasticTask& et = *task.elastic;
  std::vector<HandoffFrame>& batch = et.handoff_batch;
  {
    std::lock_guard<std::mutex> lock(et.mailbox_mu);
    batch.swap(et.mailbox);
  }
  for (const HandoffFrame& frame : batch) {
    if (frame.kind == kStateFrame) {
      task.bolt->InstallKeyState(frame.key, frame.value);
      ResolveInstalledKey(els, frame.key);
    } else {
      uint64_t value = 0;
      task.bolt->ExtractKeyState(frame.key, &value);
      PushHandoff(els, els.workers[frame.from_worker],
                  HandoffFrame{frame.key, value, kStateFrame, task.index});
    }
  }
  const bool did_work = !batch.empty();
  batch.clear();
  return did_work;
}

// Quantum of a worker removed by scale-in: stream up to batch_size keys of
// its sorted key state to the survivors, and retire once it is all sent.
// Its executor thread stays; once every task it hosts has retired it idles
// like any other executor. Always does work: it runs only while draining.
bool DrainQuantum(Runtime& rt, ElasticState& els, TaskState& task) {
  ElasticTask& et = *task.elastic;
  const uint32_t n_live = static_cast<uint32_t>(els.workers.size());
  const size_t end =
      std::min(et.drain_keys.size(), et.drain_cursor + rt.batch_size);
  for (; et.drain_cursor < end; ++et.drain_cursor) {
    const uint64_t key = et.drain_keys[et.drain_cursor];
    uint64_t value = 0;
    task.bolt->ExtractKeyState(key, &value);
    const uint32_t dest =
        HashToRange(SeededHash64(key, els.edge_hash_seed), n_live);
    PushHandoff(els, els.workers[dest],
                HandoffFrame{key, value, kStateFrame, task.index});
  }
  if (et.drain_cursor == et.drain_keys.size()) {
    et.draining = false;
    et.retired = true;
  }
  return true;
}

void CloseStallWindow(ElasticState& els) {
  const int64_t start =
      els.stall_window_start_ns.load(std::memory_order_relaxed);
  const int64_t last = els.last_install_ns.load(std::memory_order_relaxed);
  if (start != 0 && last > start) {
    els.total_migration_stall_s += static_cast<double>(last - start) * 1e-9;
  }
  els.stall_window_start_ns.store(0, std::memory_order_relaxed);
  els.last_install_ns.store(0, std::memory_order_relaxed);
}

// Finishes the previous window's migration so the next event never
// straddles it: runs every live bolt's handoff service (or scale-in drain)
// until nothing moves, then clears the directory. Untouched lazy entries
// keep their state where it is — exactly the lazy protocol.
void SettleHandoffs(Runtime& rt, ElasticState& els) {
  for (bool moved = true; moved;) {
    moved = false;
    for (const auto& t : rt.tasks) {
      if (t->bolt == nullptr || t->elastic == nullptr || t->elastic->retired) {
        continue;
      }
      moved |= t->elastic->draining ? DrainQuantum(rt, els, *t)
                                    : ServiceHandoffs(els, *t);
    }
  }
  SLB_CHECK(els.inflight_keys.load(std::memory_order_relaxed) == 0)
      << "unsettled handoff frame at barrier";
  std::lock_guard<std::mutex> lock(els.dir_mu);
  els.directory.clear();
  els.dir_active.store(0, std::memory_order_relaxed);
}

// Scale-in: the top (old_n - new_n) workers leave the routing range and,
// after resume, stream their sorted key state to HashToRange-chosen
// survivors, then retire. The directory pins every affected key until its
// state lands (tuples arriving earlier count as measured stalls); the entry
// only counts frames, as DrainQuantum picks each key's destination.
void ScaleIn(ElasticState& els, uint32_t new_n) {
  const uint32_t old_n = static_cast<uint32_t>(els.workers.size());
  std::lock_guard<std::mutex> dir_lock(els.dir_mu);
  for (uint32_t w = new_n; w < old_n; ++w) {
    TaskState* t = els.workers[w];
    ElasticTask& et = *t->elastic;
    et.drain_keys.clear();
    t->bolt->AppendStateKeys(&et.drain_keys);
    std::sort(et.drain_keys.begin(), et.drain_keys.end());
    et.drain_cursor = 0;
    et.draining = true;
    for (uint64_t key : et.drain_keys) {
      auto [it, inserted] =
          els.directory.try_emplace(key, ElasticState::DirEntry{});
      if (inserted) {
        els.dir_active.fetch_add(1, std::memory_order_relaxed);
        els.inflight_keys.fetch_add(1, std::memory_order_relaxed);
      }
      ++it->second.frames_pending;
    }
  }
  els.workers.resize(new_n);
}

// Scale-out: builds the lazy owner directory over every live key, and
// creates bolt tasks for worker indices [old_n, new_n), each hosted by an
// existing executor under the wiring's placement rule (task id modulo the
// thread count). Every spout routes a new worker through its lane to that
// host, added if missing (re-pointing a retired worker's reused index).
// Appending to a host's tasks and inboxes is safe: every executor is parked
// at the barrier.
void ScaleOut(Runtime& rt, ElasticState& els, uint32_t new_n) {
  const uint32_t old_n = static_cast<uint32_t>(els.workers.size());
  {
    std::lock_guard<std::mutex> lock(els.dir_mu);
    for (uint32_t w = 0; w < old_n; ++w) {
      std::vector<uint64_t> keys;
      els.workers[w]->bolt->AppendStateKeys(&keys);
      for (uint64_t key : keys) {
        auto [it, inserted] =
            els.directory.try_emplace(key, ElasticState::DirEntry{});
        if (inserted) els.dir_active.fetch_add(1, std::memory_order_relaxed);
        it->second.owners.push_back(w);
      }
    }
  }

  for (uint32_t w = old_n; w < new_n; ++w) {
    auto task = std::make_unique<TaskState>();
    task->task_id = static_cast<uint32_t>(rt.tasks.size());
    task->component = els.bolt_component;
    task->index = w;
    task->bolt = els.bolt_factory(w);
    SLB_CHECK(task->bolt != nullptr) << "bolt factory returned null";
    task->bolt->Prepare(w, new_n);
    SLB_CHECK(task->bolt->SupportsStateHandoff());
    task->elastic = &els.task_state.emplace_back();
    task->host = rt.contexts[task->task_id % rt.contexts.size()].get();
    task->host->tasks.push_back(task.get());
    els.workers.push_back(task.get());
    rt.tasks.push_back(std::move(task));
  }
  for (TaskState* spout : els.spouts) {
    OutEdge& out = spout->out[0];
    for (uint32_t w = old_n; w < new_n; ++w) {
      TaskState* worker = els.workers[w];
      const uint32_t lane = LaneTo(rt, out, *worker->host);
      if (w < out.dest_tasks.size()) {
        // A retired worker held this index; its lane was audited empty.
        out.dest_tasks[w] = worker;
        out.lane_of[w] = lane;
      } else {
        SLB_CHECK(out.dest_tasks.size() == w);
        out.dest_tasks.push_back(worker);
        out.lane_of.push_back(lane);
      }
    }
  }
}

// Runs with barrier_mu held and every other executor parked: settles the
// last migration window, audits the quiesce invariants, fires the next event
// (every sender's partitioner rescales in lockstep, like the simulator's
// event loop), reprograms triggers, and opens the next stall window.
void MutateAtBarrier(Runtime& rt, ElasticState& els) {
  const int64_t quiesce_start =
      els.quiesce_start_ns.load(std::memory_order_relaxed);
  const int64_t drain_done = els.drain_done_ns.load(std::memory_order_relaxed);

  SettleHandoffs(rt, els);
  CloseStallWindow(els);

  // Credit-backpressure audit (the regression pin): a quiesced topology has
  // no live root trees, no unreturned spout credit, and empty transport.
  SLB_CHECK(rt.active_roots.load(std::memory_order_acquire) == 0)
      << "root trees alive across quiesce";
  for (TaskState* spout : els.spouts) {
    SLB_CHECK(spout->in_flight.load(std::memory_order_acquire) == 0)
        << "spout credit not returned across quiesce";
    SLB_CHECK(AllFlushed(*spout)) << "spout emit buffer non-empty at barrier";
    SLB_CHECK(spout->elastic->paused &&
              spout->processed == spout->elastic->next_trigger)
        << "spout not at its trigger at barrier";
  }
  for (const auto& ring : rt.rings) {
    SLB_CHECK(ring->EmptyApprox()) << "data ring non-empty at barrier";
  }
  for (const auto& ctx : rt.contexts) {
    for (const Inbox& inbox : ctx->inboxes) {
      SLB_CHECK(inbox.next == inbox.end) << "inbox stash non-empty at barrier";
    }
  }

  SLB_CHECK(els.next_event < els.pending.size());
  const ElasticState::PendingEvent event = els.pending[els.next_event++];
  const uint32_t old_n = static_cast<uint32_t>(els.workers.size());
  if (event.num_workers != old_n) {
    els.fired.push_back(
        RescaleFiredEvent{event.at_message, old_n, event.num_workers});
    for (TaskState* spout : els.spouts) {
      Status status = spout->partitioners[0]->Rescale(event.num_workers);
      if (!status.ok()) {
        rt.Fail(std::move(status));
        return;
      }
    }
    if (event.num_workers < old_n) {
      ScaleIn(els, event.num_workers);
    } else {
      ScaleOut(rt, els, event.num_workers);
    }
  }

  // Next trigger may equal the current position (stacked events): the spout
  // then re-pauses before emitting anything and the next barrier fires it.
  for (TaskState* spout : els.spouts) {
    spout->elastic->next_trigger =
        els.next_event < els.pending.size()
            ? PreCount(els.pending[els.next_event].at_message, spout->index,
                       els.num_spouts)
            : kNoTrigger;
    spout->elastic->paused = false;
  }
  els.spouts_quiesced.store(0, std::memory_order_relaxed);

  const int64_t resume = NowNs();
  if (quiesce_start != 0) {
    els.total_credit_drain_s +=
        static_cast<double>(drain_done - quiesce_start) * 1e-9;
    els.total_quiesce_s +=
        static_cast<double>(resume - quiesce_start) * 1e-9;
  }
  els.quiesce_start_ns.store(0, std::memory_order_relaxed);
  els.drain_done_ns.store(0, std::memory_order_relaxed);
  els.stall_window_start_ns.store(resume, std::memory_order_relaxed);
}

// Generation barrier every executor parks on while phase == 1; the last
// arrival mutates. wait_for keeps it live across Fail() from any thread.
void ParkAtBarrier(Runtime& rt, ElasticState& els) {
  std::unique_lock<std::mutex> lock(els.barrier_mu);
  // Phase 1 holds until the last of the (fixed) executors has arrived, so
  // every caller that observed it belongs to this generation.
  const uint64_t gen = els.barrier_gen;
  if (++els.barrier_waiting == rt.contexts.size()) {
    try {
      MutateAtBarrier(rt, els);
    } catch (const std::exception& e) {
      rt.Fail(Status::Internal(std::string("rescale mutation threw: ") +
                               e.what()));
    } catch (...) {
      rt.Fail(Status::Internal("rescale mutation threw a non-std exception"));
    }
    --els.barrier_waiting;
    ++els.barrier_gen;
    els.phase.store(0, std::memory_order_release);
    els.barrier_cv.notify_all();
    return;
  }
  while (els.barrier_gen == gen && !rt.stop.load(std::memory_order_acquire)) {
    els.barrier_cv.wait_for(lock, std::chrono::milliseconds(1));
  }
  --els.barrier_waiting;
}

}  // namespace

// --- Hooks (runtime_internal.h). -------------------------------------------

Status ElasticWire(Runtime& rt, const TopologyBuilder::Topology& topology,
                   const TopologyPlan& plan, const TopologyOptions& options,
                   const ThreadedRescaleSchedule& rescale) {
  if (Status status = ValidateRescaleSchedule(rescale.schedule); !status.ok()) {
    return status;
  }
  if (rescale.total_messages == 0) {
    return Status::InvalidArgument("rescale.total_messages must be > 0");
  }
  auto resolved = ResolveElasticTarget(plan, rescale.component);
  if (!resolved.ok()) return resolved.status();
  const ElasticTargetPlan target = resolved.value();
  const PlannedComponent& spout_comp = plan.components[target.spout_component];
  const PlannedComponent& bolt_comp = plan.components[target.bolt_component];

  rt.elastic.reset(new ElasticState(rt.live[target.bolt_component]));
  ElasticState& els = *rt.elastic;
  els.bolt_component = target.bolt_component;
  els.num_spouts = spout_comp.parallelism;
  els.edge_hash_seed =
      EdgeHashSeed(options.hash_seed, target.spout_component, 0);
  els.cost = rescale.schedule.cost;
  els.bolt_factory = topology.bolts[bolt_comp.decl_index].factory;
  const double m = static_cast<double>(rescale.total_messages);
  for (const RescaleEvent& event : rescale.schedule.events) {
    els.pending.push_back(ElasticState::PendingEvent{
        static_cast<uint64_t>(event.at_fraction * m), event.num_workers});
  }
  for (uint32_t i = 0; i < spout_comp.parallelism; ++i) {
    TaskState* t = rt.tasks[spout_comp.first_task + i].get();
    if (!t->partitioners[0]->SupportsRescale()) {
      return Status::InvalidArgument(t->partitioners[0]->name() +
                                     " does not support rescaling");
    }
    t->elastic = &els.task_state.emplace_back();
    t->elastic->next_trigger =
        PreCount(els.pending.front().at_message, i, els.num_spouts);
    els.spouts.push_back(t);
  }
  for (uint32_t i = 0; i < bolt_comp.parallelism; ++i) {
    TaskState* t = rt.tasks[bolt_comp.first_task + i].get();
    if (!t->bolt->SupportsStateHandoff()) {
      return Status::InvalidArgument(
          "bolt '" + bolt_comp.name +
          "' does not support state handoff (required for live rescale)");
    }
    t->elastic = &els.task_state.emplace_back();
  }
  return Status::OK();
}

bool ElasticGate(Runtime& rt) {
  ElasticState& els = *rt.elastic;
  if (els.phase.load(std::memory_order_acquire) == 1) {
    ParkAtBarrier(rt, els);
    return true;
  }
  if (!QuiesceComplete(rt, els)) return false;
  // The first observer opens the barrier and stamps the credit-drain end.
  uint32_t expected = 0;
  if (els.phase.compare_exchange_strong(expected, 1,
                                        std::memory_order_acq_rel)) {
    els.drain_done_ns.store(NowNs(), std::memory_order_relaxed);
    rt.WakeAll();  // parked peers must join the barrier
  }
  return true;
}

bool ElasticSpoutQuantum(Runtime& rt, ThreadCtx& ctx, TaskState& task) {
  ElasticState& els = *rt.elastic;
  ElasticTask& et = *task.elastic;
  if (et.paused) {
    if (!els.cancelled.load(std::memory_order_acquire)) return false;
    // The schedule was cancelled while this spout sat at its trigger.
    et.paused = false;
    et.next_trigger = kNoTrigger;
    els.spouts_quiesced.fetch_sub(1, std::memory_order_acq_rel);
  }
  const uint32_t budget = static_cast<uint32_t>(std::min<uint64_t>(
      rt.batch_size, et.next_trigger - task.processed));
  const bool did_work =
      budget > 0 && EmitLoggedRoots(rt, ctx, task, budget, &et.routing_log);
  if (et.next_trigger == kNoTrigger) return did_work;
  if (task.exhausted) {
    // The stream ran out short of the schedule's promised length: this
    // spout can never reach its trigger, so no barrier can assemble.
    // Cancel the remaining events (paused peers release themselves).
    et.next_trigger = kNoTrigger;
    els.cancelled.store(true, std::memory_order_release);
    els.quiesce_start_ns.store(0, std::memory_order_relaxed);
    rt.WakeAll();  // a peer may be parked with only a paused spout
    return did_work;
  }
  if (task.processed != et.next_trigger) return did_work;
  if (els.cancelled.load(std::memory_order_acquire)) {
    et.next_trigger = kNoTrigger;  // emit on past the cancelled event
    return did_work;
  }
  // Quiesce point: pause before the first post-event tuple. The emission
  // loop has charged its roots, and the acq_rel publish on spouts_quiesced
  // shows that charge to any thread seeing the full quiesce count, so the
  // phase 0->1 CAS cannot fire while these roots are uncharged.
  et.paused = true;
  els.spouts_quiesced.fetch_add(1, std::memory_order_acq_rel);
  int64_t expected = 0;
  els.quiesce_start_ns.compare_exchange_strong(expected, NowNs(),
                                               std::memory_order_acq_rel);
  rt.WakeAll();  // parked peers must re-evaluate the quiesce state
  return did_work;
}

bool ElasticBoltService(Runtime& rt, TaskState& task) {
  ElasticState& els = *rt.elastic;
  ElasticTask& et = *task.elastic;
  if (et.retired) return false;
  return et.draining ? DrainQuantum(rt, els, task)
                     : ServiceHandoffs(els, task);
}

// Mirrors MigrationTracker::OnMessage: a key whose state is in flight counts
// as a measured stall (the tuple is processed anyway; counters merge once
// the frame lands); a key landing on a worker that already holds its state
// resolves without moving; a key landing anywhere else pulls the state from
// its lowest-indexed owner.
void ElasticCheck(Runtime& rt, TaskState& task, uint64_t key) {
  ElasticState& els = *rt.elastic;
  // A scale-in rescales every partitioner at a barrier with empty lanes and
  // stashes, so no data tuple can reach a draining or retired worker.
  SLB_CHECK(!task.elastic->draining && !task.elastic->retired)
      << "data tuple for a removed worker";
  // Entries are only created at barriers: a zero holds until the next one.
  if (els.dir_active.load(std::memory_order_relaxed) == 0) return;
  std::lock_guard<std::mutex> lock(els.dir_mu);
  auto it = els.directory.find(key);
  if (it == els.directory.end()) return;
  ElasticState::DirEntry& entry = it->second;
  if (entry.frames_pending > 0) {
    els.measured_stalls.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const uint32_t self = task.index;
  if (std::find(entry.owners.begin(), entry.owners.end(), self) !=
      entry.owners.end()) {
    els.directory.erase(it);  // checked, nothing moves
    els.dir_active.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  const uint32_t owner = entry.owners.front();
  entry.frames_pending = 1;
  els.inflight_keys.fetch_add(1, std::memory_order_relaxed);
  PushHandoff(els, els.workers[owner],
              HandoffFrame{key, 0, kPullRequest, task.index});
}

bool ElasticRunnable(Runtime& rt, const ThreadCtx& ctx) {
  const ElasticState& els = *rt.elastic;
  if (els.phase.load(std::memory_order_acquire) != 0) return true;
  if (QuiesceComplete(rt, els)) return true;  // someone must open the barrier
  for (const TaskState* task : ctx.tasks) {
    const ElasticTask* et = task->elastic;
    if (et == nullptr || et->retired) continue;
    if (task->spout != nullptr) {
      // A spout held at its trigger only runs to release a cancelled one.
      if (et->paused ? els.cancelled.load(std::memory_order_acquire)
                     : HasCredit(rt, *task)) {
        return true;
      }
      continue;
    }
    if (et->draining) return true;
    std::lock_guard<std::mutex> lock(et->mailbox_mu);
    if (!et->mailbox.empty()) return true;
  }
  return false;
}

bool ElasticSettled(const Runtime& rt) {
  return rt.elastic->inflight_keys.load(std::memory_order_acquire) == 0;
}

void ElasticStats(Runtime& rt, TopologyStats* stats) {
  ElasticState& els = *rt.elastic;
  CloseStallWindow(els);
  TopologyRescaleStats& rs = stats->rescale;
  rs.rescale_events = static_cast<uint32_t>(els.fired.size());
  rs.final_parallelism = static_cast<uint32_t>(els.workers.size());
  rs.handoff_frames = els.handoff_frames.load(std::memory_order_relaxed);
  rs.measured_stalled_messages =
      els.measured_stalls.load(std::memory_order_relaxed);
  rs.total_quiesce_s = els.total_quiesce_s;
  rs.total_credit_drain_s = els.total_credit_drain_s;
  rs.total_migration_stall_s = els.total_migration_stall_s;
  // Modeled columns: replay the routing logs (audited before they move out)
  // through the simulator's migration protocol — deterministic at any thread
  // count and byte-identical to RunPartitionSimulation on these streams.
  std::vector<SenderRoutingLog> logs;
  logs.reserve(els.spouts.size());
  for (TaskState* t : els.spouts) {
    SenderRoutingLog& log = t->elastic->routing_log;
    stats->routing_log_capacity_bytes +=
        log.keys.capacity() * sizeof(uint64_t) +
        log.workers.capacity() * sizeof(uint32_t);
    logs.push_back(std::move(log));
  }
  MigrationTracker tracker =
      ReplayRoundRobinMigration(els.cost, els.fired, logs);
  rs.keys_migrated = tracker.keys_migrated();
  rs.state_bytes_migrated = tracker.state_bytes_migrated();
  rs.stalled_messages = tracker.stalled_messages();
  rs.moved_key_fraction = tracker.moved_key_fraction();
  rs.migrated_keys = tracker.migrated_keys();
}

}  // namespace slb::runtime_internal
