#include "slb/dspe/topology.h"

#include <algorithm>
#include <deque>
#include <queue>
#include <utility>

#include "slb/common/logging.h"
#include "slb/dspe/plan.h"

namespace slb {

TopologyBuilder& TopologyBuilder::AddSpout(const std::string& name,
                                           SpoutFactory factory,
                                           uint32_t parallelism) {
  topology_.spouts.push_back(SpoutDecl{name, std::move(factory), parallelism});
  return *this;
}

TopologyBuilder& TopologyBuilder::AddBolt(const std::string& name,
                                          BoltFactory factory,
                                          uint32_t parallelism) {
  topology_.bolts.push_back(BoltDecl{name, std::move(factory), parallelism, {}});
  return *this;
}

TopologyBuilder& TopologyBuilder::Input(const std::string& upstream,
                                        Grouping grouping) {
  SLB_CHECK(!topology_.bolts.empty()) << "Input() requires a bolt; call AddBolt";
  topology_.bolts.back().inputs.emplace_back(upstream, grouping);
  return *this;
}

namespace {

// ---------------------------------------------------------------------------
// Flattened runtime structures (the plan supplies components and task ids).

struct InFlight {
  TopologyTuple tuple;
  uint64_t root = 0;  // index into root bookkeeping
};

// A routed copy queued at the transport stage.
struct Transit {
  InFlight item;
  uint32_t target = 0;
};

struct Task {
  uint32_t component = 0;
  uint32_t index = 0;  // instance index within the component
  bool busy = false;
  std::deque<InFlight> queue;
  // One sender-local partitioner per outgoing edge of the component.
  std::vector<std::unique_ptr<StreamPartitioner>> partitioners;
  std::unique_ptr<Spout> spout;
  std::unique_ptr<Bolt> bolt;
  uint64_t processed = 0;
  RunningStats latency_ms;  // root emission -> end of processing here
  // Spout-only:
  uint32_t credits = 0;
  bool exhausted = false;
};

struct Root {
  double emit_time_s = 0.0;
  uint64_t pending = 0;
  uint32_t spout_task = 0;
};

enum class EventType : uint8_t { kTransportDone, kTaskDone };

struct Event {
  double time_s;
  EventType type;
  uint32_t task;  // meaningful for kTaskDone
  bool operator>(const Event& other) const { return time_s > other.time_s; }
};

class Collector final : public OutputCollector {
 public:
  void Emit(const TopologyTuple& tuple) override { emitted.push_back(tuple); }
  std::vector<TopologyTuple> emitted;
};

}  // namespace

Result<TopologyStats> ExecuteTopology(const TopologyBuilder::Topology& topology,
                                      const TopologyOptions& options) {
  if (options.bolt_service_ms <= 0 || options.transport_rate_per_s <= 0) {
    return Status::InvalidArgument("service times must be positive");
  }
  if (options.max_pending_per_spout < 1) {
    return Status::InvalidArgument("max_pending_per_spout must be >= 1");
  }

  auto planned = PlanTopology(topology);
  if (!planned.ok()) return planned.status();
  const TopologyPlan& plan = planned.value();
  const std::vector<PlannedComponent>& components = plan.components;

  // --- Instantiate tasks. --------------------------------------------------
  std::vector<Task> tasks;
  tasks.reserve(plan.num_tasks);
  for (uint32_t c = 0; c < components.size(); ++c) {
    for (uint32_t i = 0; i < components[c].parallelism; ++i) {
      Task task;
      task.component = c;
      task.index = i;
      if (components[c].is_spout) {
        task.spout = topology.spouts[components[c].decl_index].factory(i);
        task.credits = options.max_pending_per_spout;
        if (task.spout == nullptr) {
          return Status::InvalidArgument("spout factory returned null");
        }
      } else {
        const auto& decl = topology.bolts[components[c].decl_index];
        task.bolt = decl.factory(i);
        if (task.bolt == nullptr) {
          return Status::InvalidArgument("bolt factory returned null");
        }
        task.bolt->Prepare(i, components[c].parallelism);
      }
      tasks.push_back(std::move(task));
    }
  }
  // Partitioners: one per (task, outgoing edge); hash seed shared per edge so
  // all senders agree on candidate sets (Sec. III).
  for (Task& task : tasks) {
    auto partitioners =
        MakeEdgePartitioners(plan, task.component, options.hash_seed);
    if (!partitioners.ok()) return partitioners.status();
    task.partitioners = std::move(partitioners.value());
  }

  // --- Event loop. ----------------------------------------------------------
  const double transport_service_s = 1.0 / options.transport_rate_per_s;
  const double bolt_service_s = options.bolt_service_ms / 1e3;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
  std::deque<Transit> transport;
  // Root slots are recycled, so bookkeeping is bounded by the credit window.
  std::vector<Root> roots;
  std::vector<uint64_t> free_roots;
  Histogram latency_ms(1 << 19, options.seed ^ 0x1a7e9cULL);
  TopologyStats stats;
  double now_s = 0.0;
  double last_ack_s = 0.0;

  // Queues `tuple` at the transport stage once per outgoing edge of `task`;
  // returns the copies made.
  auto route_downstream = [&](Task& task, const TopologyTuple& tuple,
                              uint64_t root) {
    const PlannedComponent& comp = components[task.component];
    for (size_t e = 0; e < comp.outputs.size(); ++e) {
      const PlannedEdge& edge = comp.outputs[e];
      const uint32_t idx = task.partitioners[e]->Route(tuple.key);
      const uint32_t target = components[edge.to_component].first_task + idx;
      transport.push_back(Transit{InFlight{tuple, root}, target});
      if (transport.size() == 1) {  // the stage was idle
        events.push(
            Event{now_s + transport_service_s, EventType::kTransportDone, 0});
      }
    }
    return static_cast<uint64_t>(comp.outputs.size());
  };

  // Records the tree's completion and returns its credit to the spout.
  auto complete_root = [&](uint64_t root_id) {
    const Root& root = roots[root_id];
    latency_ms.Add((now_s - root.emit_time_s) * 1e3);
    ++stats.roots_acked;
    last_ack_s = now_s;
    ++tasks[root.spout_task].credits;
    free_roots.push_back(root_id);
  };

  // A spout emits as soon as it holds a credit.
  auto emit_from = [&](uint32_t task_id) {
    Task& task = tasks[task_id];
    while (task.credits > 0 && !task.exhausted) {
      TopologyTuple tuple;
      if (!task.spout->NextTuple(&tuple)) {
        task.exhausted = true;
        break;
      }
      ++task.processed;
      ++stats.tuples_processed;
      --task.credits;
      uint64_t root_id = roots.size();
      if (free_roots.empty()) {
        roots.emplace_back();
      } else {
        root_id = free_roots.back();
        free_roots.pop_back();
      }
      roots[root_id] = Root{now_s, 0, task_id};
      roots[root_id].pending = route_downstream(task, tuple, root_id);
      if (roots[root_id].pending == 0) complete_root(root_id);  // no consumers
    }
  };

  for (uint32_t t = 0; t < tasks.size(); ++t) {
    if (tasks[t].spout != nullptr) emit_from(t);
  }

  while (!events.empty()) {
    const Event ev = events.top();
    events.pop();
    now_s = ev.time_s;

    if (ev.type == EventType::kTransportDone) {
      SLB_CHECK(!transport.empty());
      const Transit transit = transport.front();
      transport.pop_front();
      Task& target = tasks[transit.target];
      target.queue.push_back(transit.item);
      if (!target.busy) {
        target.busy = true;
        events.push(
            Event{now_s + bolt_service_s, EventType::kTaskDone, transit.target});
      }
      if (!transport.empty()) {
        events.push(
            Event{now_s + transport_service_s, EventType::kTransportDone, 0});
      }
      continue;
    }

    // kTaskDone: the head-of-queue tuple finishes processing at this bolt.
    Task& task = tasks[ev.task];
    SLB_CHECK(!task.queue.empty());
    const InFlight in_flight = task.queue.front();
    task.queue.pop_front();
    ++task.processed;
    ++stats.tuples_processed;
    if (options.max_tuples != 0 && stats.tuples_processed > options.max_tuples) {
      return Status::FailedPrecondition(
          "tuple budget exceeded; emission loop in topology?");
    }
    task.latency_ms.Add((now_s - roots[in_flight.root].emit_time_s) * 1e3);

    Collector collector;
    task.bolt->Execute(in_flight.tuple, &collector);
    Root& root = roots[in_flight.root];
    for (const TopologyTuple& out : collector.emitted) {
      root.pending += route_downstream(task, out, in_flight.root);
    }
    SLB_CHECK(root.pending > 0);
    if (--root.pending == 0) {
      const uint32_t spout_task = root.spout_task;  // emit_from reuses slots
      complete_root(in_flight.root);
      emit_from(spout_task);
    }

    if (!task.queue.empty()) {
      events.push(Event{now_s + bolt_service_s, EventType::kTaskDone, ev.task});
    } else {
      task.busy = false;
    }
  }

  // --- Collect statistics. --------------------------------------------------
  stats.makespan_s = last_ack_s;
  stats.throughput_per_s =
      last_ack_s > 0 ? static_cast<double>(stats.roots_acked) / last_ack_s : 0.0;
  stats.latency_samples = static_cast<uint64_t>(latency_ms.count());
  stats.latency_avg_ms = latency_ms.mean();
  stats.latency_p50_ms = latency_ms.p50();
  stats.latency_p95_ms = latency_ms.p95();
  stats.latency_p99_ms = latency_ms.p99();
  stats.latency_max_ms = latency_ms.max();

  for (const PlannedComponent& comp : components) {
    ComponentStats cs;
    cs.name = comp.name;
    uint64_t total = 0;
    for (uint32_t i = 0; i < comp.parallelism; ++i) {
      total += tasks[comp.first_task + i].processed;
    }
    cs.tuples_processed = total;
    cs.task_loads.resize(comp.parallelism, 0.0);
    cs.task_latency_avg_ms.resize(comp.parallelism, 0.0);
    double max_load = 0.0;
    for (uint32_t i = 0; i < comp.parallelism; ++i) {
      const Task& task = tasks[comp.first_task + i];
      cs.task_loads[i] = total > 0 ? static_cast<double>(task.processed) /
                                         static_cast<double>(total)
                                   : 0.0;
      cs.task_latency_avg_ms[i] = task.latency_ms.mean();
      max_load = std::max(max_load, cs.task_loads[i]);
      if (task.bolt != nullptr) cs.state_entries += task.bolt->StateEntries();
    }
    cs.imbalance =
        total > 0 ? max_load - 1.0 / static_cast<double>(comp.parallelism) : 0.0;
    stats.components.push_back(std::move(cs));
  }
  return stats;
}

}  // namespace slb
