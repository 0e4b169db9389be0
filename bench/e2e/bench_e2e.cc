// bench_e2e, the end-to-end benchmark binary: runs one named workload in this
// process and prints one JSON line of raw measurements (run.py derives, checks and
// reports the metrics; README.md defines them).
//
//   bench_e2e --workload dc-light --seed 42 --seconds 50 [--trace out.json]
//             [--quick]
//
// Two workloads on the threaded engine, one DAG, one algorithm (D-C):
//   dc-light   one array increment per tuple: the router (sketch, head/tail
//              test, d-choice scan, reoptimize), ring transport and acking
//              set throughput.
//   dc-heavy   ~2 us of integer work per tuple: the paper's regime, where
//              balance across workers sets throughput and a router-only
//              speed-up should not move it.
//
// Only the library's public entry points are called. Inputs are generated
// from --seed and held in memory before timing starts. Each workload runs one
// dropped warm-up rep, then measured reps until --seconds have elapsed (at
// least three), and every rep checks its outputs. With --trace, untraced and
// traced reps alternate (the traced ones time 1 in 64 trees inside the
// benchmark's own spout and bolts, keyed by root id), offline probes time each
// layer's public functions on the workload's own keys, and the spans are
// written as Chrome trace-event JSON at exit.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "slb/analysis/choices.h"
#include "slb/common/flags.h"
#include "slb/common/status.h"
#include "slb/core/partitioner.h"
#include "slb/dspe/plan.h"
#include "slb/dspe/runtime.h"
#include "slb/dspe/spsc_queue.h"
#include "slb/dspe/topology.h"
#include "slb/hash/hash_family.h"
#include "slb/sketch/space_saving.h"
#include "slb/workload/datasets.h"

namespace slb::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Keeps a computed value alive without a store the optimizer could drop.
inline void Keep(uint64_t value) { asm volatile("" : : "r"(value)); }

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// ----- Workload catalog -------------------------------------------------------

// The threaded DAG both workloads share. 8 spouts x 70 pending trees = 560
// outstanding roots: Storm's max-spout-pending closed loop. Three executor
// threads leave one CPU of a 4-CPU host to the runner and the OS, so a
// stray runnable task does not stall an executor and with it the loop.
constexpr uint32_t kSpouts = 8;
constexpr uint32_t kWorkers = 80;
constexpr uint32_t kThreads = 3;
constexpr uint32_t kMaxPending = 70;
constexpr uint64_t kNumKeys = 10000;
constexpr uint64_t kWindow = 4000000;  // keys the spouts replay round-robin
constexpr uint64_t kHashSeed = 42;     // TopologyOptions::hash_seed default
// --quick divides every input size by this.
constexpr uint64_t kQuickDivisor = 50;
// A traced rep times 1 in kShareSample trees and keeps a span for 1 in
// kSpanSample, both selected by root id so a kept tree keeps all its spans.
constexpr uint64_t kShareSample = 64;
constexpr uint64_t kSpanSample = 4096;

struct Workload {
  const char* name;
  double zipf_exponent;
  uint64_t roots_per_rep;  // root trees per rep
  uint32_t spin;           // xorshift rounds per tuple (worker work)
};

// The keyed edge's grouping in both workloads.
constexpr AlgorithmKind kAlgorithm = AlgorithmKind::kDChoices;

constexpr Workload kWorkloads[] = {
    {"dc-light", 1.4, 8000000, 0},
    {"dc-heavy", 2.0, 1600000, 1000},
};

// ----- Minimal JSON output ----------------------------------------------------

using Fields = std::vector<std::pair<std::string, std::string>>;

std::string Num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

std::string Str(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string Object(const Fields& fields) {
  std::string out = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ",";
    out += Str(fields[i].first) + ":" + fields[i].second;
  }
  return out + "}";
}

std::string Array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += items[i];
  }
  return out + "]";
}

// ----- Spans ------------------------------------------------------------------

const Clock::time_point g_epoch = Clock::now();

double MicrosSinceEpoch(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - g_epoch).count();
}

// Small stable id per OS thread, so spans group by executor thread.
uint32_t ThreadTid() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t tid = next.fetch_add(1);
  return tid;
}

struct Span {
  const char* name;
  const char* parent;  // enclosing span name, or nullptr
  double start_us;
  double dur_us;
  uint32_t tid;
  int64_t root;  // tree id for spout/bolt spans, -1 for probes
};

// Records one span covering its lifetime on the calling thread.
class ScopedSpan {
 public:
  ScopedSpan(std::vector<Span>* spans, const char* name)
      : spans_(spans), name_(name), start_(Clock::now()) {}
  ~ScopedSpan() {
    const auto end = Clock::now();
    spans_->push_back(Span{name_, nullptr, MicrosSinceEpoch(start_),
                           SecondsBetween(start_, end) * 1e6, ThreadTid(), -1});
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::vector<Span>* spans_;
  const char* name_;
  Clock::time_point start_;
};

// Sampled call timing of one spout or bolt task in a traced rep. Touched
// only by the executor thread driving the task; read after the engine joined
// its threads.
struct CallTimer {
  uint64_t calls = 0;  // timed calls
  double ns = 0.0;     // their summed wall time, clock cost included
  std::vector<Span> spans;

  template <typename Body>
  void Time(const char* name, uint64_t root, Body&& body) {
    const uint64_t seq = root / kSpouts;  // emission index within its spout
    if (seq % kShareSample != 0) {
      body();
      return;
    }
    const auto start = Clock::now();
    body();
    const auto end = Clock::now();
    const double dur_ns =
        std::chrono::duration<double, std::nano>(end - start).count();
    ++calls;
    ns += dur_ns;
    if (seq % kSpanSample == 0) {
      spans.push_back(Span{name, "dspe.execute_topology",
                           MicrosSinceEpoch(start), dur_ns / 1e3, ThreadTid(),
                           static_cast<int64_t>(root)});
    }
  }

  // Estimated total time over all calls: the sampled time net of the clock
  // reads, scaled by the sampling rate.
  double EstimatedNs(double clock_ns) const {
    return std::max(0.0, ns - static_cast<double>(calls) * clock_ns) *
           static_cast<double>(kShareSample);
  }
};

// Cost of one steady_clock read, subtracted from every timed call.
double ClockReadNs() {
  std::vector<double> trials;
  for (int t = 0; t < 5; ++t) {
    constexpr int kReads = 20000;
    const auto start = Clock::now();
    for (int i = 0; i < kReads; ++i) Keep(Clock::now().time_since_epoch().count());
    trials.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
        kReads);
  }
  return Median(trials);
}

void WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::string& workload, uint64_t seed) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write trace to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"otherData\":%s,\"traceEvents\":[",
               Object({{"workload", Str(workload)}, {"seed", Num(seed)}}).c_str());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    Fields args;
    if (s.root >= 0) args.push_back({"root", Num(static_cast<double>(s.root))});
    if (s.parent != nullptr) args.push_back({"parent", Str(s.parent)});
    std::fprintf(f, "%s\n%s", i > 0 ? "," : "",
                 Object({{"name", Str(s.name)},
                         {"cat", Str(s.root >= 0 ? "dspe" : "probe")},
                         {"ph", Str("X")},
                         {"ts", Num(s.start_us)},
                         {"dur", Num(s.dur_us)},
                         {"pid", "1"},
                         {"tid", Num(s.tid)},
                         {"args", Object(args)}})
                     .c_str());
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

// ----- Host facts ---------------------------------------------------------------

// A fixed single-thread integer kernel: ns per round of a dependent
// xorshift-multiply chain, median of 7. It moves with the host (clock
// frequency, steal), never with the program, so a shift flags host drift.
double CalibNs() {
  constexpr uint64_t kRounds = 1 << 22;
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::vector<double> trials;
  for (int t = 0; t < 7; ++t) {
    const auto start = Clock::now();
    for (uint64_t i = 0; i < kRounds; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      x *= 0x2545f4914f6cdd1dULL;
    }
    trials.push_back(SecondsBetween(start, Clock::now()) * 1e9 / kRounds);
  }
  Keep(x);
  return Median(trials);
}

std::string AffinityCpuList(int* count) {
  cpu_set_t set;
  CPU_ZERO(&set);
  *count = 0;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  std::string list;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    if (!list.empty()) list += ",";
    list += std::to_string(cpu);
    ++*count;
  }
  return list;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ----- Workloads ------------------------------------------------------------------

uint64_t Xorshift(uint64_t seed, uint32_t rounds) {
  uint64_t x = seed | 1;
  for (uint32_t i = 0; i < rounds; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

// Benchmark-owned output of one bolt task: tuples executed per key (for the
// exact-delivery check) and the fold of the worker's busy work.
struct TaskLedger {
  std::vector<uint64_t> counts;
  uint64_t work = 0;
  CallTimer timer;
};

// Spout s replays window positions s, s+8, s+16, ... (wrapping) until it has
// emitted `roots` trees. The tuple value carries the root id so that every
// span of one tree shares it.
class ReplaySpout final : public Spout {
 public:
  ReplaySpout(const std::vector<uint64_t>* window, uint32_t index,
              uint64_t roots, CallTimer* timer)
      : window_(window), index_(index), pos_(index), roots_(roots),
        timer_(timer) {}

  bool NextTuple(TopologyTuple* out) override {
    if (emitted_ == roots_) return false;
    const uint64_t root = emitted_ * kSpouts + index_;
    if (timer_ == nullptr) {
      Fill(root, out);
    } else {
      timer_->Time("spout.next_tuple", root, [&] { Fill(root, out); });
    }
    ++emitted_;
    return true;
  }

 private:
  void Fill(uint64_t root, TopologyTuple* out) {
    out->key = (*window_)[pos_];
    out->value = root;
    pos_ += kSpouts;
    if (pos_ >= window_->size()) pos_ = index_;
  }

  const std::vector<uint64_t>* window_;
  uint32_t index_;
  uint64_t pos_;
  uint64_t roots_;
  uint64_t emitted_ = 0;
  CallTimer* timer_;
};

// Counts each tuple in its task's ledger and spins `spin` xorshift rounds.
// Emits nothing, so every tree is one tuple.
class LedgerBolt final : public Bolt {
 public:
  LedgerBolt(TaskLedger* ledger, uint32_t spin, bool traced)
      : ledger_(ledger), spin_(spin), timer_(traced ? &ledger->timer : nullptr) {}

  void Execute(const TopologyTuple& tuple, OutputCollector* /*out*/) override {
    if (timer_ == nullptr) {
      Process(tuple);
    } else {
      timer_->Time("bolt.execute", tuple.value, [&] { Process(tuple); });
    }
  }

  size_t StateEntries() const override {
    return static_cast<size_t>(
        std::count_if(ledger_->counts.begin(), ledger_->counts.end(),
                      [](uint64_t c) { return c > 0; }));
  }

 private:
  void Process(const TopologyTuple& tuple) {
    ++ledger_->counts[tuple.key];
    if (spin_ > 0) ledger_->work ^= Xorshift(tuple.key, spin_);
  }

  TaskLedger* ledger_;
  uint32_t spin_;
  CallTimer* timer_;
};

struct RepResult {
  bool warmup = false;
  bool traced = false;
  uint32_t threads = 0;
  std::string error;  // empty when every check passed
  double build_s = 0.0;  // topology construction
  double wall_s = 0.0;   // the ExecuteTopologyThreaded call
  uint64_t units = 0;    // root trees
  TopologyStats stats;
  double imbalance = 0.0;
  double state_entries_per_key = 0.0;
  double spout_ns = 0.0;    // traced: estimated total NextTuple time
  double execute_ns = 0.0;  // traced: estimated total Execute time

  std::string ToJson() const {
    return Object({{"warmup", warmup ? "true" : "false"},
                   {"traced", traced ? "true" : "false"},
                   {"threads", Num(threads)},
                   {"ok", error.empty() ? "true" : "false"},
                   {"error", Str(error)},
                   {"build_s", Num(build_s)},
                   {"wall_s", Num(wall_s)},
                   {"units", Num(static_cast<double>(units))},
                   {"imbalance", Num(imbalance)},
                   {"state_entries_per_key", Num(state_entries_per_key)},
                   {"makespan_s", Num(stats.makespan_s)},
                   {"latency_p50_ms", Num(stats.latency_p50_ms)},
                   {"latency_p99_ms", Num(stats.latency_p99_ms)},
                   // The engine's latency reservoir keeps at most 2^18 samples.
                   {"latency_samples",
                    Num(static_cast<double>(std::min<uint64_t>(
                        stats.roots_acked, uint64_t{1} << 18)))},
                   {"tuples", Num(static_cast<double>(stats.tuples_processed))},
                   {"idle_s", Num(stats.idle_s)},
                   {"park_s", Num(stats.park_s)},
                   {"parks", Num(static_cast<double>(stats.parks))},
                   {"spout_ns", Num(spout_ns)},
                   {"execute_ns", Num(execute_ns)}});
  }
};

class EngineBench {
 public:
  EngineBench(const Workload& workload, uint64_t seed, uint64_t window_keys,
              double clock_ns)
      : workload_(workload), seed_(seed), window_keys_(window_keys),
        clock_ns_(clock_ns), keyed_(kWorkers), spout_timers_(kSpouts) {
    for (TaskLedger& l : keyed_) l.counts.assign(kNumKeys, 0);
  }

  // Generates the replay window; returns the seconds it took.
  double Materialise() {
    const auto start = Clock::now();
    auto gen = MakeGenerator(
        MakeZipfSpec(workload_.zipf_exponent, kNumKeys, window_keys_, seed_));
    window_.clear();
    window_.reserve(window_keys_);
    for (uint64_t i = 0; i < window_keys_; ++i) window_.push_back(gen->NextKey());
    expected_.clear();
    return SecondsBetween(start, Clock::now());
  }

  // Spout 0's keys in emission order: the sender share the probes replay.
  std::vector<uint64_t> SenderShare() const {
    std::vector<uint64_t> share;
    for (uint64_t i = 0; i < window_.size(); i += kSpouts) share.push_back(window_[i]);
    return share;
  }

  RepResult Run(uint32_t threads, uint64_t roots, bool traced,
                std::vector<Span>* spans) {
    RepResult rep;
    rep.threads = threads;
    rep.traced = traced;
    rep.units = roots;
    for (TaskLedger& l : keyed_) ResetLedger(&l);
    for (CallTimer& t : spout_timers_) t = CallTimer{};

    const auto start = Clock::now();
    const uint64_t per_spout = roots / kSpouts;
    TopologyBuilder builder;
    builder.AddSpout(
        "spouts",
        [this, per_spout, traced](uint32_t task) {
          return std::make_unique<ReplaySpout>(
              &window_, task, per_spout, traced ? &spout_timers_[task] : nullptr);
        },
        kSpouts);
    builder
        .AddBolt("workers",
                 [this, traced](uint32_t task) {
                   return std::make_unique<LedgerBolt>(&keyed_[task],
                                                       workload_.spin, traced);
                 },
                 kWorkers)
        .Input("spouts", Grouping{kAlgorithm, {}});
    const TopologyBuilder::Topology topology = builder.Build();
    TopologyOptions options;
    options.max_pending_per_spout = kMaxPending;
    TopologyRuntimeOptions runtime;
    runtime.num_threads = threads;
    const auto built = Clock::now();
    Result<TopologyStats> result =
        ExecuteTopologyThreaded(topology, options, runtime);
    const auto done = Clock::now();
    rep.build_s = SecondsBetween(start, built);
    rep.wall_s = SecondsBetween(built, done);
    if (!result.ok()) {
      rep.error = result.status().ToString();
      return rep;
    }
    rep.stats = std::move(result).value();
    const Status check = Check(roots, &rep);
    if (!check.ok()) rep.error = check.ToString();

    if (traced) {
      spans->push_back(Span{"dspe.execute_topology", nullptr,
                            MicrosSinceEpoch(built), rep.wall_s * 1e6,
                            ThreadTid(), -1});
      for (CallTimer& t : spout_timers_) {
        rep.spout_ns += t.EstimatedNs(clock_ns_);
        spans->insert(spans->end(), t.spans.begin(), t.spans.end());
      }
      for (TaskLedger& l : keyed_) {
        rep.execute_ns += l.timer.EstimatedNs(clock_ns_);
        spans->insert(spans->end(), l.timer.spans.begin(), l.timer.spans.end());
      }
    }
    return rep;
  }

 private:
  struct Expectation {
    std::vector<uint64_t> counts;  // tuples per key over one rep
    uint64_t distinct = 0;
  };

  static void ResetLedger(TaskLedger* l) {
    std::fill(l->counts.begin(), l->counts.end(), 0);
    l->work = 0;
    l->timer = CallTimer{};
  }

  // Per-key tuple counts a rep of `roots` trees must deliver: each spout
  // makes full passes over its share of the window plus a prefix.
  const Expectation& Expected(uint64_t roots) {
    auto it = expected_.find(roots);
    if (it != expected_.end()) return it->second;
    Expectation e;
    e.counts.assign(kNumKeys, 0);
    const uint64_t per_spout = roots / kSpouts;
    for (uint32_t s = 0; s < kSpouts; ++s) {
      const uint64_t share = (window_.size() - s + kSpouts - 1) / kSpouts;
      const uint64_t full = per_spout / share;
      const uint64_t rest = per_spout % share;
      for (uint64_t i = 0; i < share; ++i) {
        e.counts[window_[s + i * kSpouts]] += full + (i < rest ? 1 : 0);
      }
    }
    e.distinct = static_cast<uint64_t>(std::count_if(
        e.counts.begin(), e.counts.end(), [](uint64_t c) { return c > 0; }));
    return expected_.emplace(roots, std::move(e)).first->second;
  }

  static const ComponentStats* FindComponent(const TopologyStats& stats,
                                             const std::string& name) {
    for (const ComponentStats& c : stats.components) {
      if (c.name == name) return &c;
    }
    return nullptr;
  }

  // Every tree acked, every key delivered to the workers exactly as often as
  // it was emitted, and the component counters agree with the benchmark's
  // own ledgers.
  Status Check(uint64_t roots, RepResult* rep) {
    const TopologyStats& stats = rep->stats;
    if (stats.roots_acked != roots) {
      return Status::Internal("acked " + std::to_string(stats.roots_acked) +
                              " of " + std::to_string(roots) + " roots");
    }
    const Expectation& expected = Expected(roots);
    for (uint64_t k = 0; k < kNumKeys; ++k) {
      uint64_t got = 0;
      for (const TaskLedger& l : keyed_) got += l.counts[k];
      if (got != expected.counts[k]) {
        return Status::Internal("key " + std::to_string(k) + " delivered " +
                                std::to_string(got) + " times, expected " +
                                std::to_string(expected.counts[k]));
      }
    }
    const ComponentStats* workers = FindComponent(stats, "workers");
    if (workers == nullptr || workers->tuples_processed != roots) {
      return Status::Internal("worker component did not process every root");
    }
    rep->imbalance = workers->imbalance;
    rep->state_entries_per_key = static_cast<double>(workers->state_entries) /
                                 static_cast<double>(expected.distinct);
    return Status::OK();
  }

  const Workload& workload_;
  uint64_t seed_;
  uint64_t window_keys_;
  double clock_ns_;
  std::vector<uint64_t> window_;
  std::map<uint64_t, Expectation> expected_;
  std::vector<TaskLedger> keyed_;
  std::vector<CallTimer> spout_timers_;
};

// ----- Offline layer probes -----------------------------------------------------

// Median over `trials` of ns per item; `trial` runs once and returns the
// number of items it processed.
template <typename Trial>
double MedianNsPerItem(int trials, Trial&& trial) {
  std::vector<double> samples;
  for (int t = 0; t < trials; ++t) {
    const auto start = Clock::now();
    const uint64_t items = trial();
    samples.push_back(SecondsBetween(start, Clock::now()) * 1e9 /
                      static_cast<double>(items));
  }
  return Median(samples);
}

PartitionerOptions ProbePartitionerOptions(uint32_t n) {
  PartitionerOptions options;
  options.num_workers = n;
  // The seed the engine gives the spouts' first edge, so the probe's
  // partitioners route exactly as the engine's senders do.
  options.hash_seed = EdgeHashSeed(kHashSeed, 0, 0);
  return options;
}

// Routes one sender's share with the workload's own algorithm, one key at a
// time (as the simulator does): deterministic head statistics.
Fields HeadProbe(const std::vector<uint64_t>& share, uint32_t n,
                 AlgorithmKind algorithm) {
  auto p = CreatePartitioner(algorithm, ProbePartitionerOptions(n));
  if (!p.ok()) return {};
  uint64_t head = 0;
  for (uint64_t key : share) {
    (*p)->Route(key);
    head += (*p)->last_was_head() ? 1 : 0;
  }
  const double m = static_cast<double>(share.size());
  return {{"head_fraction", Num(static_cast<double>(head) / m)},
          {"head_choices", Num((*p)->head_choices())},
          {"calls_per_mtuple",
           Num(static_cast<double>((*p)->reoptimize_count()) / m * 1e6)}};
}

double RingSameThreadNs(const std::vector<uint64_t>& share) {
  SpscRing<TopologyTuple> ring(1024);
  TopologyTuple in[64];
  TopologyTuple out[64];
  return MedianNsPerItem(5, [&]() -> uint64_t {
    uint64_t acc = 0;
    uint64_t moved = 0;
    for (size_t i = 0; i + 64 <= share.size(); i += 64) {
      for (size_t j = 0; j < 64; ++j) in[j] = TopologyTuple{share[i + j], i + j};
      ring.TryPushBatch(in, 64);
      moved += ring.TryPopBatch(out, 64);
      acc += out[63].key;
    }
    Keep(acc);
    return moved;
  });
}

// Producer and consumer on two threads, batches of 64, as an engine edge
// between two executors moves tuples.
double RingCrossCoreNs(const std::vector<uint64_t>& share, uint64_t total) {
  SpscRing<TopologyTuple> ring(1024);
  const auto start = Clock::now();
  uint64_t acc = 0;
  {
    std::jthread producer([&ring, &share, total] {
      TopologyTuple batch[64];
      uint64_t sent = 0;
      size_t pos = 0;
      while (sent < total) {
        const size_t n = static_cast<size_t>(std::min<uint64_t>(64, total - sent));
        for (size_t i = 0; i < n; ++i) {
          batch[i] = TopologyTuple{share[pos], sent + i};
          if (++pos == share.size()) pos = 0;
        }
        size_t pushed = 0;
        while (pushed < n) pushed += ring.TryPushBatch(batch + pushed, n - pushed);
        sent += n;
      }
    });
    TopologyTuple out[64];
    uint64_t got = 0;
    while (got < total) {
      const size_t k = ring.TryPopBatch(out, 64);
      if (k > 0) acc += out[k - 1].key;
      got += k;
    }
  }
  Keep(acc);
  return SecondsBetween(start, Clock::now()) * 1e9 / static_cast<double>(total);
}

// Times each layer's public entry points on one sender's share of the
// workload's keys; one span per probe.
Fields RunProbes(const std::vector<uint64_t>& share, uint32_t n,
                 std::vector<Span>* spans) {
  // The share repeated to at least 2M keys, so every timed trial lasts
  // milliseconds and timer or scheduling jitter stays small.
  std::vector<uint64_t> keys;
  while (!share.empty() && keys.size() < 2000000) {
    keys.insert(keys.end(), share.begin(), share.end());
  }
  const uint64_t m = keys.size();
  Fields probes;
  CalibNs();  // lifts the core out of its idle clock before the first probe
  {
    ScopedSpan span(spans, "hash.worker2");
    const HashFamily family(2, n, EdgeHashSeed(kHashSeed, 0, 0));
    probes.push_back({"hash.worker2_ns", Num(MedianNsPerItem(5, [&]() -> uint64_t {
      uint64_t acc = 0;
      for (uint64_t key : keys) {
        uint32_t w0 = 0;
        uint32_t w1 = 0;
        family.Worker2(key, &w0, &w1);
        acc += w0 ^ w1;
      }
      Keep(acc);
      return m;
    }))});
  }
  const double theta = PartitionerOptions{}.theta_ratio / n;
  SpaceSaving sketch(10 * n);
  {
    ScopedSpan span(spans, "sketch.update");
    probes.push_back({"sketch.update_ns", Num(MedianNsPerItem(5, [&]() -> uint64_t {
      sketch.Reset();
      uint64_t acc = 0;
      for (uint64_t key : keys) acc += sketch.UpdateAndEstimate(key);
      Keep(acc);
      return m;
    }))});
  }
  {
    ScopedSpan span(spans, "analysis.find_choices");
    // The end-of-stream head the sender's sketch holds.
    std::vector<double> probs;
    const double total = static_cast<double>(sketch.total());
    for (const HeavyKey& hk : sketch.HeavyHitters(theta)) {
      probs.push_back(static_cast<double>(hk.count) / total);
    }
    const HeadProfile head = HeadProfile::FromProbabilities(std::move(probs));
    constexpr uint64_t kCalls = 200;
    probes.push_back({"analysis.find_choices_us",
                      Num(MedianNsPerItem(5, [&]() -> uint64_t {
                            uint64_t acc = 0;
                            for (uint64_t i = 0; i < kCalls; ++i) {
                              acc += FindOptimalChoices(head, n, 1e-4);
                            }
                            Keep(acc);
                            return kCalls;
                          }) / 1e3)});
  }
  struct RouteProbe {
    const char* span;
    const char* metric;
    AlgorithmKind kind;
  };
  const RouteProbe routes[] = {
      {"core.route.kg", "core.route_ns.kg", AlgorithmKind::kKeyGrouping},
      {"core.route.pkg", "core.route_ns.pkg", AlgorithmKind::kPkg},
      {"core.route.dc", "core.route_ns.dc", AlgorithmKind::kDChoices},
      {"core.route.wc", "core.route_ns.wc", AlgorithmKind::kWChoices},
      {"core.route.sg", "core.route_ns.sg", AlgorithmKind::kShuffleGrouping}};
  for (const RouteProbe& route : routes) {
    const AlgorithmKind kind = route.kind;
    ScopedSpan span(spans, route.span);
    probes.push_back({route.metric, Num(MedianNsPerItem(3, [&]() -> uint64_t {
      auto p = CreatePartitioner(kind, ProbePartitionerOptions(n));
      if (!p.ok()) return 1;
      uint32_t out[64];
      uint64_t acc = 0;
      for (size_t i = 0; i < m; i += 64) {
        const size_t count = std::min<size_t>(64, m - i);
        (*p)->RouteBatch(keys.data() + i, count, out);
        acc += out[count - 1];
      }
      Keep(acc);
      return m;
    }))});
  }
  {
    ScopedSpan span(spans, "dspe.ring");
    probes.push_back({"dspe.ring_ns", Num(RingSameThreadNs(keys))});
  }
  {
    ScopedSpan span(spans, "dspe.ring_xcore");
    std::vector<double> trials;
    for (int t = 0; t < 3; ++t) trials.push_back(RingCrossCoreNs(keys, m));
    probes.push_back({"dspe.ring_xcore_ns", Num(Median(trials))});
  }
  return probes;
}

// ----- Driver ---------------------------------------------------------------------

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

// Runs `rep` at least `min_reps` times, then keeps going while one more rep
// as long as the last would still end within `seconds` (exactly once when
// `quick`).
template <typename Rep>
void MeasureFor(bool quick, double seconds, int min_reps, Rep&& rep) {
  const auto start = Clock::now();
  for (int done = 1;; ++done) {
    const auto rep_start = Clock::now();
    rep();
    const auto now = Clock::now();
    if (quick) return;
    if (done >= min_reps &&
        SecondsBetween(start, now) + SecondsBetween(rep_start, now) > seconds) {
      return;
    }
  }
}

int Main(int argc, char** argv) {
  std::string workload_name;
  int64_t seed = 42;
  double seconds = 50.0;
  std::string trace_path;
  bool quick = false;
  FlagSet flags(
      "End-to-end benchmark: runs one workload and prints one JSON line.\n"
      "Workloads: dc-light, dc-heavy.");
  flags.AddString("workload", &workload_name, "workload to run");
  flags.AddInt64("seed", &seed, "input seed");
  flags.AddDouble("seconds", &seconds, "measurement time after warm-up");
  flags.AddString("trace", &trace_path,
                  "traced run: per-layer probes + Chrome trace written here");
  flags.AddBool("quick", &quick, "1/50 input sizes, one rep (smoke)");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(), flags.Usage().c_str());
    return 2;
  }
  if (flags.help_requested()) return 0;
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr || seed < 0 || !(seconds > 0.0)) {
    std::fprintf(stderr, "need --workload {dc-light,dc-heavy}, "
                         "--seed >= 0 and --seconds > 0\n%s",
                 flags.Usage().c_str());
    return 2;
  }
  const Workload& w = *workload;
  const bool traced = !trace_path.empty();
  const uint64_t divisor = quick ? kQuickDivisor : 1;

  // A core leaving idle runs at a lower clock for the first ~100 ms; the
  // discarded first calibration absorbs that.
  CalibNs();
  const double calib_before = CalibNs();
  const double clock_ns = ClockReadNs();
  std::vector<double> setup_s;
  std::vector<RepResult> reps;
  Fields probes;
  std::vector<Span> spans;

  const uint64_t window_keys = kWindow / divisor;
  EngineBench engine(w, static_cast<uint64_t>(seed), window_keys, clock_ns);
  // The window is materialised again (identically) before every measured
  // rep, so the set-up samples spread over the whole run like the reps do.
  auto setup = [&] {
    ScopedSpan span(&spans, "workload.gen");
    setup_s.push_back(engine.Materialise());
  };
  setup();
  const std::vector<uint64_t> share = engine.SenderShare();
  const Fields head = HeadProbe(share, kWorkers, kAlgorithm);
  const uint64_t roots = w.roots_per_rep / divisor / kSpouts * kSpouts;
  auto run = [&](uint32_t threads, uint64_t r, bool timed) {
    reps.push_back(engine.Run(threads, r, timed, &spans));
  };
  if (!quick) {
    run(kThreads, roots, false);
    reps.back().warmup = true;
  }
  if (!traced) {
    MeasureFor(quick, seconds, 3, [&] {
      setup();
      run(kThreads, roots, false);
    });
  } else {
    MeasureFor(quick, seconds / 2, 2, [&] {
      setup();
      run(kThreads, roots, false);
      run(kThreads, roots, true);
    });
    const uint64_t scaling_roots = quick ? roots : roots / 4 / kSpouts * kSpouts;
    run(1, scaling_roots, false);
    run(2, scaling_roots, false);
    probes = RunProbes(share, kWorkers, &spans);
    probes.push_back({"workload.gen_ns",
                      Num(Median(setup_s) * 1e9 / static_cast<double>(window_keys))});
  }
  const double calib_after = CalibNs();

  int cpus = 0;
  const std::string cpu_list = AffinityCpuList(&cpus);
  const Fields host = {{"cpus", Num(cpus)},
                       {"cpu_list", Str(cpu_list)},
                       {"compiler", Str(kCompiler)},
                       {"build_type", Str(SLB_E2E_BUILD_TYPE)},
                       {"cxx_flags", Str(SLB_E2E_CXX_FLAGS)},
                       {"executor_threads", Num(kThreads)},
                       {"pinning", Str("off")},
                       {"wait_strategy", Str("adaptive")},
                       {"calib_ns_before", Num(calib_before)},
                       {"calib_ns_after", Num(calib_after)},
                       {"clock_read_ns", Num(clock_ns)}};
  std::vector<std::string> rep_json;
  for (const RepResult& r : reps) rep_json.push_back(r.ToJson());
  std::vector<std::string> setup_json;
  for (double s : setup_s) setup_json.push_back(Num(s));

  if (traced) WriteChromeTrace(trace_path, spans, w.name, static_cast<uint64_t>(seed));
  std::printf("%s\n", Object({{"workload", Str(w.name)},
                              {"seed", Num(static_cast<double>(seed))},
                              {"quick", quick ? "true" : "false"},
                              {"traced", traced ? "true" : "false"},
                              {"host", Object(host)},
                              {"setup_s", Array(setup_json)},
                              {"reps", Array(rep_json)},
                              {"head", Object(head)},
                              {"probes", Object(probes)},
                              {"peak_rss_mb", Num(PeakRssMb())}})
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace slb::e2e

int main(int argc, char** argv) { return slb::e2e::Main(argc, argv); }
