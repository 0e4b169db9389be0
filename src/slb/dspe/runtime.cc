#include "slb/dspe/runtime.h"

#include <algorithm>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "slb/common/logging.h"
#include "slb/dspe/runtime_internal.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace slb {
namespace runtime_internal {

void Runtime::WakeAll() {
  if (!adaptive()) return;
  for (auto& ctx : contexts) WakeGate(ctx->gate);
}

uint32_t LaneTo(Runtime& rt, OutEdge& edge, ThreadCtx& host) {
  for (uint32_t lane = 0; lane < edge.lanes.size(); ++lane) {
    if (edge.lanes[lane].host == &host) return lane;
  }
  rt.rings.push_back(std::make_unique<SpscRing<RtTuple>>(rt.queue_capacity));
  SpscRing<RtTuple>* ring = rt.rings.back().get();
  host.inboxes.emplace_back(ring);
  edge.lanes.push_back(Lane{ring, &host, {}, 0});
  return static_cast<uint32_t>(edge.lanes.size() - 1);
}

namespace {

// Attempts to publish every buffered tuple, one push per lane; returns true
// if any tuple moved, and leaves the task blocked if any stayed behind.
// Publishing into an EMPTY ring wakes the consumer's host: a consumer can
// only park after observing all its rings empty, so every tuple it could be
// sleeping on crosses an empty->non-empty edge and fires exactly this wake.
// The edge detection is approximate: was_empty is sampled before the push,
// so a consumer popping the last pre-existing element in that window can
// make the producer see "non-empty" and skip the wake while the consumer
// parks. That lost edge is deliberately tolerated — ParkIdle's 1 ms timed
// wait re-polls the rings, so the worst case is a bounded latency blip, not
// a deadlock; closing it would cost a seq_cst fence on every flush.
bool FlushTask(Runtime& rt, ThreadCtx& ctx, TaskState& task) {
  bool moved = false;
  bool backlog = false;
  for (OutEdge& edge : task.out) {
    for (Lane& lane : edge.lanes) {
      std::vector<RtTuple>& buf = lane.buffer;
      if (lane.flushed == buf.size()) continue;
      SpscRing<RtTuple>& ring = *lane.ring;
      const bool was_empty = ring.EmptyApprox();
      const size_t pushed = ring.TryPushBatch(buf.data() + lane.flushed,
                                              buf.size() - lane.flushed);
      lane.flushed += pushed;
      if (pushed > 0) {
        moved = true;
        ++ctx.publishes;
        if (was_empty && rt.adaptive()) WakeGate(lane.host->gate);
      }
      if (lane.flushed == buf.size()) {
        buf.clear();
        lane.flushed = 0;
      } else {
        backlog = true;
      }
    }
  }
  task.blocked = backlog;
  return moved;
}

// Routes `tuple` along every outgoing edge of `task` into the buffer of its
// destination's lane and returns the number of copies queued. Does NOT
// touch the root's refcount — buffered copies are invisible downstream until
// FlushTask publishes them, so the caller charges all copies in one step
// (the spout's seeding store, or a bolt's net adjustment) before flushing.
// kElastic also records each first-edge decision in `log`; the static
// instantiation, the only one bolts and static spouts run, carries zero
// branches and zero allocation for it.
template <bool kElastic>
uint32_t RouteCopies(TaskState& task, const TopologyTuple& tuple,
                     uint32_t spout_task, uint32_t root_slot,
                     SenderRoutingLog* log = nullptr) {
  uint32_t copies = 0;
  for (size_t e = 0; e < task.out.size(); ++e) {
    OutEdge& edge = task.out[e];
    const uint32_t dest = task.partitioners[e]->Route(tuple.key);
    if constexpr (kElastic) {
      if (e == 0) {
        log->keys.push_back(tuple.key);
        log->workers.push_back(dest);
      }
    }
    edge.lanes[edge.lane_of[dest]].buffer.push_back(RtTuple{
        tuple.key, tuple.value, spout_task, root_slot, edge.dest_tasks[dest]});
    ++copies;
  }
  return copies;
}

// Queues one deferred reference drop on a root tree, merging with the
// previous entry when it names the same tree (a batch of one root's
// descendants processed back-to-back coalesces into a single decrement).
void DeferAck(ThreadCtx& ctx, uint32_t spout_task, uint32_t root_slot) {
  if (!ctx.acks.empty()) {
    PendingAck& last = ctx.acks.back();
    if (last.spout_task == spout_task && last.root_slot == root_slot) {
      ++last.count;
      return;
    }
  }
  ctx.acks.push_back(PendingAck{spout_task, root_slot, 1});
}

// Applies the pass's deferred reference drops: one acq_rel fetch_sub per
// distinct tree touched, then one credit return per spout and one
// active_roots adjustment for the whole batch. The release on active_roots
// pairs with the quiesce/termination checks' acquire loads, so an observer
// of active_roots == 0 also sees every in_flight return of this flush.
bool FlushAcks(Runtime& rt, ThreadCtx& ctx) {
  if (ctx.acks.empty()) return false;
  if (ctx.spout_acked.size() < rt.num_spout_tasks) {
    ctx.spout_acked.assign(rt.num_spout_tasks, 0);
  }
  uint64_t completed = 0;
  double now_s = 0.0;
  for (const PendingAck& ack : ctx.acks) {
    RootSlot& root = rt.tasks[ack.spout_task]->slots[ack.root_slot];
    const double emit_s = root.emit_time_s;  // must precede the decrement
    if (root.pending.fetch_sub(ack.count, std::memory_order_acq_rel) ==
        ack.count) {
      if (completed == 0) now_s = rt.NowSeconds();
      if (emit_s != kUntimed) ctx.latency_ms.Add((now_s - emit_s) * 1e3);
      ++ctx.roots_acked;
      ++ctx.spout_acked[ack.spout_task];
      ++completed;
    }
  }
  ctx.acks.clear();
  if (completed == 0) return false;
  ctx.last_ack_s = std::max(ctx.last_ack_s, now_s);
  for (uint32_t s = 0; s < rt.num_spout_tasks; ++s) {
    if (ctx.spout_acked[s] == 0) continue;
    rt.tasks[s]->in_flight.fetch_sub(ctx.spout_acked[s],
                                     std::memory_order_relaxed);
    ctx.spout_acked[s] = 0;
    // Returned credit may unblock a spout parked on an exhausted window.
    WakeHost(rt, rt.tasks[s].get());
  }
  rt.active_roots.fetch_sub(completed, std::memory_order_release);
  return true;
}

// Finds a root slot with pending == 0. Guaranteed to exist because the
// caller checked in_flight < num_slots and every live root holds exactly one
// slot at pending > 0.
uint32_t ClaimRootSlot(TaskState& task) {
  for (uint32_t i = 0; i < task.num_slots; ++i) {
    const uint32_t s = (task.slot_cursor + i) % task.num_slots;
    // acquire: pairs with the final acq_rel decrement in FlushAcks so the
    // spout's upcoming emit_time_s write cannot race the completer's read.
    if (task.slots[s].pending.load(std::memory_order_acquire) == 0) {
      task.slot_cursor = (s + 1) % task.num_slots;
      return s;
    }
  }
  SLB_CHECK(false) << "no free root slot despite available credit";
  return 0;
}
// Emission loop of one spout quantum: emits up to `budget` root tuples,
// logging their routing when kElastic. Credit is charged in ONE batched
// fetch_add per quantum: the loop works against a snapshot of in_flight plus
// a local emitted count — in_flight is only ever *incremented* by this
// thread, so the snapshot over-approximates the live value and the credit
// window is never exceeded. That same bound keeps ClaimRootSlot's free-slot
// guarantee: trees holding slots <= snapshot + emitted < num_slots.
template <bool kElastic>
bool SpoutEmitLoop(Runtime& rt, ThreadCtx& ctx, TaskState& task,
                   uint32_t budget, SenderRoutingLog* log) {
  bool did_work = false;
  uint32_t emitted = 0;
  const uint32_t in_flight_now =
      task.in_flight.load(std::memory_order_relaxed);
  // Publishes the quantum's batched credit charge. Must run BEFORE any store
  // that another thread pairs with an active_roots == 0 observation — the
  // exhaustion decrement below, and an elastic spout's quiesce announcement
  // after the loop — otherwise the observer can conclude no roots are live
  // while this quantum's emitted tuples are still uncharged (and unflushed),
  // and stop the topology or open the rescale barrier out from under them.
  const auto charge_emitted = [&] {
    if (emitted == 0) return;
    task.in_flight.fetch_add(emitted, std::memory_order_relaxed);
    rt.active_roots.fetch_add(emitted, std::memory_order_relaxed);
    emitted = 0;
  };
  for (uint32_t n = 0; n < budget; ++n) {
    if (in_flight_now + emitted >= rt.max_pending) {
      break;  // credit window exhausted: wait for acks (backpressure)
    }
    TopologyTuple tuple;
    if (!task.spout->NextTuple(&tuple)) {
      // Charge before the exhaustion decrement, and make that decrement a
      // release: a peer whose termination check acquires active_spouts == 0
      // then also sees these roots in active_roots, so it cannot store stop
      // with this quantum's tuples still uncharged/unflushed.
      charge_emitted();
      task.exhausted = true;
      rt.active_spouts.fetch_sub(1, std::memory_order_release);
      break;
    }
    const bool timed = LatencySampled(task.processed);
    ++task.processed;
    ++ctx.processed_delta;
    const uint32_t slot = ClaimRootSlot(task);
    RootSlot& root = task.slots[slot];
    root.emit_time_s = timed ? rt.NowSeconds() : kUntimed;
    const uint32_t copies =
        RouteCopies<kElastic>(task, tuple, task.task_id, slot, log);
    if (copies == 0) {
      // Edgeless spout: the tree is just the root — acked on emission.
      const double now_s = rt.NowSeconds();
      if (timed) ctx.latency_ms.Add((now_s - root.emit_time_s) * 1e3);
      ctx.last_ack_s = std::max(ctx.last_ack_s, now_s);
      ++ctx.roots_acked;
    } else {
      // One release-store seeds the whole tree's refcount; the copies only
      // become visible downstream at the flush below, after the batched
      // credit charge, so pending can never transiently hit zero and no
      // completer can outrun the accounting.
      root.pending.store(copies, std::memory_order_release);
      ++emitted;
    }
    did_work = true;
  }
  charge_emitted();
  return did_work;
}

bool SpoutQuantum(Runtime& rt, ThreadCtx& ctx, TaskState& task) {
  bool did_work = FlushTask(rt, ctx, task);
  if (task.blocked || task.exhausted) return did_work;
  did_work |= task.elastic == nullptr
                  ? SpoutEmitLoop<false>(rt, ctx, task, rt.batch_size, nullptr)
                  : ElasticSpoutQuantum(rt, ctx, task);
  did_work |= FlushTask(rt, ctx, task);
  return did_work;
}

// One lane's quantum: executes up to batch_size of its tuples, each on its
// destination task. A tuple for a blocked task ends the quantum and waits at
// the head of the stash while the executor's other lanes keep running; the
// task unblocks once the pass-end flush empties its lanes.
bool InboxQuantum(Runtime& rt, ThreadCtx& ctx, Inbox& inbox) {
  bool did_work = false;
  for (uint32_t budget = rt.batch_size; budget > 0; --budget) {
    if (inbox.next == inbox.end) {
      inbox.next = 0;
      inbox.end = static_cast<uint32_t>(inbox.ring->TryPopBatch(
          inbox.chunk, std::min(budget, Inbox::kChunk)));
      if (inbox.end == 0) break;
    }
    const RtTuple& in = inbox.chunk[inbox.next];
    TaskState& task = *in.dest;
    if (task.blocked) break;  // head-of-line: backpressure on this lane
    ++inbox.next;
    if (task.elastic != nullptr) ElasticCheck(rt, task, in.key);
    task.collector.emitted.clear();
    task.bolt->Execute(TopologyTuple{in.key, in.value}, &task.collector);
    ++task.processed;
    ++ctx.processed_delta;
    uint32_t new_refs = 0;
    for (const TopologyTuple& out : task.collector.emitted) {
      new_refs += RouteCopies<false>(task, out, in.spout_task, in.root_slot);
    }
    // Net refcount change: +new_refs for the queued copies, -1 for the
    // consumed input. A pure relay (net zero) touches no atomic at all; a
    // fan-out applies one relaxed add — safe because our own still-held
    // reference keeps the tree open until the children are charged; a leaf
    // defers its lone decrement into the pass's coalesced ack flush.
    if (new_refs == 0) {
      DeferAck(ctx, in.spout_task, in.root_slot);
    } else if (new_refs > 1) {
      rt.tasks[in.spout_task]->slots[in.root_slot].pending.fetch_add(
          new_refs - 1, std::memory_order_relaxed);
    }
    did_work = true;
  }
  return did_work;
}

// One cpu-relax hint (the "pause" rung of the idle ladder): tells the core
// we're in a spin-wait without giving up the timeslice.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

// CPUs this process may run on (affinity-mask aware on Linux); falls back to
// hardware_concurrency elsewhere. Used to size the idle ladder's spin rung.
uint32_t AvailableCpuCount() {
#if defined(__linux__)
  cpu_set_t available;
  CPU_ZERO(&available);
  if (sched_getaffinity(0, sizeof(available), &available) == 0) {
    const int count = CPU_COUNT(&available);
    if (count > 0) return static_cast<uint32_t>(count);
  }
#endif
  const uint32_t hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

// Pins the calling thread to one CPU, chosen round-robin over the CPUs in
// the process's affinity mask. Returns false (no-op) where unsupported or on
// any syscall failure — pinning is an optimization, never a requirement.
bool PinCurrentThreadToCpu(uint32_t thread_index) {
#if defined(__linux__)
  cpu_set_t available;
  CPU_ZERO(&available);
  if (sched_getaffinity(0, sizeof(available), &available) != 0) return false;
  const int count = CPU_COUNT(&available);
  if (count <= 0) return false;
  int target = static_cast<int>(thread_index % static_cast<uint32_t>(count));
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &available)) continue;
    if (target-- == 0) {
      CPU_SET(cpu, &chosen);
      return pthread_setaffinity_np(pthread_self(), sizeof(chosen), &chosen) ==
             0;
    }
  }
  return false;
#else
  (void)thread_index;
  return false;
#endif
}

// Conservative "could any of my tasks make progress?" poll, used as the
// final check before parking. May return true spuriously (the pass will just
// find nothing); must never return false while work for this thread exists
// that no future signal would announce.
bool MaybeRunnable(Runtime& rt, ThreadCtx& ctx) {
  if (rt.elastic != nullptr && ElasticRunnable(rt, ctx)) return true;
  for (TaskState* task : ctx.tasks) {
    // (ElasticRunnable polls an elastic spout, which may be held.)
    if (task->spout != nullptr && task->elastic == nullptr &&
        HasCredit(rt, *task)) {
      return true;
    }
    // A blocked task must keep retrying its flush: consumers do not signal
    // "space freed" edges, only "tuples published" ones, so a backpressured
    // producer stays in the spin/yield rungs until the ring drains (the
    // consumer is by definition runnable while its ring holds tuples, so
    // the stall is bounded by downstream progress).
    if (task->blocked) return true;
  }
  for (const Inbox& inbox : ctx.inboxes) {
    if (inbox.next != inbox.end || !inbox.ring->EmptyApprox()) return true;
  }
  return false;
}

// The parked rung: announce in the gate, re-poll once (the Dekker pairing
// with WakeGate), then sleep on the cv until the epoch moves. The 1 ms
// timed wait is a safety net, not the wake path — any missed-wakeup bug
// degrades to polling instead of deadlock (and the stress tests would still
// catch it through the parks/idle accounting).
void ParkIdle(Runtime& rt, ThreadCtx& ctx) {
  IdleGate& gate = ctx.gate;
  const uint64_t epoch = gate.epoch.load(std::memory_order_relaxed);
  gate.parked.fetch_add(1, std::memory_order_seq_cst);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (rt.stop.load(std::memory_order_acquire) || MaybeRunnable(rt, ctx)) {
    gate.parked.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  const auto park_start = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lock(gate.mu);
    gate.cv.wait_for(lock, std::chrono::milliseconds(1), [&] {
      return gate.epoch.load(std::memory_order_relaxed) != epoch ||
             rt.stop.load(std::memory_order_relaxed);
    });
  }
  gate.parked.fetch_sub(1, std::memory_order_relaxed);
  const double parked_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    park_start)
          .count();
  ctx.idle_s += parked_s;
  ctx.park_s += parked_s;
  ++ctx.parks;
}

}  // namespace

bool EmitLoggedRoots(Runtime& rt, ThreadCtx& ctx, TaskState& task,
                     uint32_t budget, SenderRoutingLog* log) {
  return SpoutEmitLoop<true>(rt, ctx, task, budget, log);
}

void ThreadMain(Runtime& rt, ThreadCtx& ctx) {
  if (rt.pin_threads && PinCurrentThreadToCpu(ctx.thread_index)) {
    rt.threads_pinned.fetch_add(1, std::memory_order_relaxed);
  }
  const bool adaptive = rt.wait_strategy == WaitStrategy::kAdaptive;
  uint32_t idle_streak = 0;
  while (!rt.stop.load(std::memory_order_acquire)) {
    if (rt.elastic != nullptr && ElasticGate(rt)) continue;
    bool did_work = false;
    try {
      for (TaskState* task : ctx.tasks) {
        if (task->spout != nullptr) {
          did_work |= SpoutQuantum(rt, ctx, *task);
        } else if (task->elastic != nullptr) {
          did_work |= ElasticBoltService(rt, *task);
        }
      }
      for (Inbox& inbox : ctx.inboxes) {
        did_work |= InboxQuantum(rt, ctx, inbox);
      }
      // Publishes what the pass's bolts emitted, one batch per lane; a bolt
      // whose output does not fit stays blocked until a later pass's flush.
      for (TaskState* task : ctx.tasks) {
        if (task->bolt != nullptr && !task->out.empty()) {
          did_work |= FlushTask(rt, ctx, *task);
        }
      }
    } catch (const std::exception& e) {
      rt.Fail(Status::Internal(std::string("topology task threw: ") + e.what()));
      return;
    } catch (...) {
      rt.Fail(Status::Internal("topology task threw a non-std exception"));
      return;
    }
    // Coalesced acking: apply the pass's deferred reference drops before
    // anything can decide the pass was idle (and before any barrier or
    // termination check can depend on the credit they return).
    did_work |= FlushAcks(rt, ctx);
    // Only a tuple budget needs the shared count; the stats sum the
    // per-task counts at join.
    if (ctx.processed_delta > 0) {
      const uint64_t delta = std::exchange(ctx.processed_delta, 0);
      if (rt.max_tuples != 0 &&
          rt.total_processed.fetch_add(delta, std::memory_order_relaxed) +
                  delta >
              rt.max_tuples) {
        rt.Fail(Status::FailedPrecondition(
            "tuple budget exceeded; emission loop in topology?"));
        return;
      }
    }
    if (did_work) {
      // Peers were woken in-line by the producer-side targeted wakes (ring
      // publishes, credit returns, handoff frames) — no broadcast here.
      idle_streak = 0;
      continue;
    }
    if (rt.active_spouts.load(std::memory_order_acquire) == 0 &&
        rt.active_roots.load(std::memory_order_acquire) == 0 &&
        (rt.elastic == nullptr || ElasticSettled(rt))) {
      rt.stop.store(true, std::memory_order_release);
      rt.WakeAll();  // parked peers must observe the stop
      return;
    }
    if (!adaptive) {
      std::this_thread::yield();  // WaitStrategy::kSpin — legacy behavior
      continue;
    }
    // Idle ladder: relax -> timed yield -> park. Each rung still re-polls
    // every task at the top of the next pass.
    ++idle_streak;
    if (idle_streak <= rt.spin_iterations) {
      CpuRelax();
    } else if (idle_streak <= rt.spin_iterations + rt.yield_iterations) {
      const auto yield_start = std::chrono::steady_clock::now();
      std::this_thread::yield();
      ctx.idle_s +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        yield_start)
              .count();
    } else {
      ParkIdle(rt, ctx);
    }
  }
}

namespace {

Result<TopologyStats> Run(const TopologyBuilder::Topology& topology,
                          const TopologyOptions& options,
                          const TopologyRuntimeOptions& runtime_options) {
  if (options.max_pending_per_spout < 1) {
    return Status::InvalidArgument("max_pending_per_spout must be >= 1");
  }
  if (runtime_options.queue_capacity < 2) {
    return Status::InvalidArgument("queue_capacity must be >= 2");
  }
  if (runtime_options.batch_size < 1) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  auto planned = PlanTopology(topology);
  if (!planned.ok()) return planned.status();
  const TopologyPlan& plan = planned.value();
  const std::vector<PlannedComponent>& components = plan.components;

  Runtime rt;
  rt.batch_size = runtime_options.batch_size;
  rt.max_pending = options.max_pending_per_spout;
  rt.queue_capacity = runtime_options.queue_capacity;
  rt.max_tuples = options.max_tuples;
  rt.wait_strategy = runtime_options.wait_strategy;
  rt.spin_iterations = runtime_options.spin_iterations;
  rt.yield_iterations = runtime_options.yield_iterations;
  rt.pin_threads = runtime_options.pin_threads;
  if (AvailableCpuCount() <= 1) {
    // Spinning waits for another core to produce; with a single available
    // CPU nothing can be produced until this thread yields, so the spin
    // rung only steals the producer's timeslice. Go straight to yielding.
    rt.spin_iterations = 0;
  }

  // --- Instantiate tasks and their sender-local partitioners. --------------
  rt.tasks.reserve(plan.num_tasks);
  rt.live.resize(components.size());
  for (uint32_t c = 0; c < components.size(); ++c) {
    for (uint32_t i = 0; i < components[c].parallelism; ++i) {
      auto task = std::make_unique<TaskState>();
      task->task_id = static_cast<uint32_t>(rt.tasks.size());
      task->component = c;
      task->index = i;
      if (components[c].is_spout) {
        task->spout = topology.spouts[components[c].decl_index].factory(i);
        if (task->spout == nullptr) {
          return Status::InvalidArgument("spout factory returned null");
        }
        task->num_slots = options.max_pending_per_spout;
        task->slots = std::make_unique<RootSlot[]>(task->num_slots);
      } else {
        const auto& decl = topology.bolts[components[c].decl_index];
        task->bolt = decl.factory(i);
        if (task->bolt == nullptr) {
          return Status::InvalidArgument("bolt factory returned null");
        }
        task->bolt->Prepare(i, components[c].parallelism);
      }
      auto partitioners = MakeEdgePartitioners(plan, c, options.hash_seed);
      if (!partitioners.ok()) return partitioners.status();
      task->partitioners = std::move(partitioners.value());
      rt.live[c].push_back(task.get());
      rt.tasks.push_back(std::move(task));
    }
  }

  // --- Executor threads: task t runs on context t % num_threads, the rule a
  // scale-out worker follows too; the set is fixed from here on. ------------
  uint32_t num_threads = runtime_options.num_threads;
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  num_threads = std::min<uint32_t>(num_threads, plan.num_tasks);

  uint32_t num_spout_tasks = 0;
  for (uint32_t c = 0; c < plan.num_spout_components; ++c) {
    num_spout_tasks += components[c].parallelism;
  }
  rt.active_spouts.store(num_spout_tasks, std::memory_order_relaxed);
  rt.num_spout_tasks = num_spout_tasks;

  for (uint32_t t = 0; t < num_threads; ++t) {
    rt.contexts.push_back(std::make_unique<ThreadCtx>(options.seed ^ (t + 1)));
    rt.contexts.back()->thread_index = t;
  }
  for (uint32_t t = 0; t < plan.num_tasks; ++t) {
    rt.contexts[t % num_threads]->tasks.push_back(rt.tasks[t].get());
    rt.tasks[t]->host = rt.contexts[t % num_threads].get();
  }

  // --- Transport fabric: host lanes. Per edge, every producer task gets one
  // SPSC ring to each executor thread hosting a destination task, built in
  // deterministic order. -----------------------------------------------------
  for (uint32_t c = 0; c < components.size(); ++c) {
    const PlannedComponent& comp = components[c];
    for (const PlannedEdge& edge : comp.outputs) {
      const PlannedComponent& to = components[edge.to_component];
      for (uint32_t p = 0; p < comp.parallelism; ++p) {
        OutEdge out;
        for (uint32_t q = 0; q < to.parallelism; ++q) {
          TaskState* dest = rt.tasks[to.first_task + q].get();
          out.lane_of.push_back(LaneTo(rt, out, *dest->host));
          out.dest_tasks.push_back(dest);
        }
        rt.tasks[comp.first_task + p]->out.push_back(std::move(out));
      }
    }
  }

  if (!runtime_options.rescale.empty()) {
    if (Status status = ElasticWire(rt, topology, plan, options,
                                    runtime_options.rescale);
        !status.ok()) {
      return status;
    }
  }

  rt.start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (const auto& ctx : rt.contexts) {
    threads.emplace_back(ThreadMain, std::ref(rt), std::ref(*ctx));
  }
  for (std::thread& thread : threads) thread.join();

  {
    std::lock_guard<std::mutex> lock(rt.error_mu);
    if (!rt.first_error.ok()) return rt.first_error;
  }

  // --- Collect statistics (all threads joined; plain reads are safe). ------
  TopologyStats stats;
  Histogram latency_ms(1 << 18, options.seed ^ 0xabcdULL);
  double last_ack_s = 0.0;
  for (const auto& ctx : rt.contexts) {
    latency_ms.Merge(ctx->latency_ms);
    stats.roots_acked += ctx->roots_acked;
    last_ack_s = std::max(last_ack_s, ctx->last_ack_s);
    stats.idle_s += ctx->idle_s;
    stats.park_s += ctx->park_s;
    stats.parks += ctx->parks;
    stats.publishes += ctx->publishes;
  }
  stats.threads_pinned = rt.threads_pinned.load(std::memory_order_relaxed);
  stats.makespan_s = last_ack_s;
  stats.throughput_per_s =
      last_ack_s > 0 ? static_cast<double>(stats.roots_acked) / last_ack_s : 0.0;
  stats.latency_samples = static_cast<uint64_t>(latency_ms.count());
  stats.latency_avg_ms = latency_ms.mean();
  stats.latency_p50_ms = latency_ms.p50();
  stats.latency_p95_ms = latency_ms.p95();
  stats.latency_p99_ms = latency_ms.p99();
  stats.latency_max_ms = latency_ms.max();

  // Per component: tuples count over every task it ever had (a rescaled
  // component's retired and added workers included); loads and state
  // describe its final worker set.
  for (uint32_t c = 0; c < components.size(); ++c) {
    const std::vector<TaskState*>& workers = rt.live[c];
    ComponentStats cs;
    cs.name = components[c].name;
    for (const auto& task : rt.tasks) {
      if (task->component == c) cs.tuples_processed += task->processed;
    }
    stats.tuples_processed += cs.tuples_processed;
    uint64_t total = 0;
    for (const TaskState* task : workers) total += task->processed;
    cs.task_loads.resize(workers.size(), 0.0);
    double max_load = 0.0;
    for (size_t i = 0; i < workers.size(); ++i) {
      const TaskState& task = *workers[i];
      cs.task_loads[i] = total > 0 ? static_cast<double>(task.processed) /
                                         static_cast<double>(total)
                                   : 0.0;
      max_load = std::max(max_load, cs.task_loads[i]);
      if (task.bolt != nullptr) cs.state_entries += task.bolt->StateEntries();
    }
    cs.imbalance =
        total > 0 ? max_load - 1.0 / static_cast<double>(workers.size()) : 0.0;
    stats.components.push_back(std::move(cs));
  }

  if (rt.elastic != nullptr) ElasticStats(rt, &stats);
  return stats;
}

}  // namespace
}  // namespace runtime_internal

Result<TopologyStats> ExecuteTopologyThreaded(
    const TopologyBuilder::Topology& topology, const TopologyOptions& options,
    const TopologyRuntimeOptions& runtime_options) {
  return runtime_internal::Run(topology, options, runtime_options);
}

}  // namespace slb
