// Streaming word count on the Storm-like topology API — the paper's Q4
// experiment as an application you can modify.
//
//   sentences (spout, s tasks)
//        |  shuffle
//   splitter (bolt): sentence -> words
//        |  <grouping under test>
//   counter (bolt, n tasks): word -> running count
//
//   $ ./examples/wordcount_topology [--grouping dc] [--counters 20] [--skew 1.6]
//
// What it shows: the grouping on the splitter->counter edge is the ONLY
// thing that changes, and it alone decides throughput, tail latency, and
// state replication — the paper's Figs. 13-14 in miniature.

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "slb/common/flags.h"
#include "slb/common/rng.h"
#include "slb/dspe/topology.h"
#include "slb/workload/zipf.h"

namespace {

// Emits "sentences": a sentence id whose words are drawn downstream.
class SentenceSpout final : public slb::Spout {
 public:
  SentenceSpout(uint64_t count, uint64_t seed) : remaining_(count), rng_(seed) {}

  bool NextTuple(slb::TopologyTuple* out) override {
    if (remaining_ == 0) return false;
    --remaining_;
    out->key = rng_.Next();  // opaque sentence id
    out->value = 4;          // words per sentence
    return true;
  }

 private:
  uint64_t remaining_;
  slb::Rng rng_;
};

// Splits a sentence into `value` words drawn from a Zipf vocabulary.
class SplitterBolt final : public slb::Bolt {
 public:
  SplitterBolt(double z, uint64_t vocabulary, uint64_t seed)
      : zipf_(z, vocabulary), rng_(seed) {}

  void Execute(const slb::TopologyTuple& tuple,
               slb::OutputCollector* out) override {
    for (uint64_t w = 0; w < tuple.value; ++w) {
      out->Emit(slb::TopologyTuple{zipf_.Sample(&rng_), 1});
    }
  }

 private:
  slb::ZipfDistribution zipf_;
  slb::Rng rng_;
};

// Keeps per-word counts (the stateful operator the groupings balance).
class CounterBolt final : public slb::Bolt {
 public:
  void Execute(const slb::TopologyTuple& tuple, slb::OutputCollector*) override {
    counts_[tuple.key] += tuple.value;
  }
  size_t StateEntries() const override { return counts_.size(); }

 private:
  std::map<uint64_t, uint64_t> counts_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string grouping_name = "dc";
  int64_t counters = 20;
  int64_t splitters = 4;
  int64_t spouts = 2;
  int64_t sentences = 20000;
  double skew = 1.6;
  slb::FlagSet flags("word count topology (paper Q4 in miniature)");
  flags.AddString("grouping", &grouping_name,
                  "splitter->counter grouping: kg|sg|pkg|dc|wc|rr");
  flags.AddInt64("counters", &counters, "counter bolt parallelism");
  flags.AddInt64("splitters", &splitters, "splitter bolt parallelism");
  flags.AddInt64("spouts", &spouts, "spout parallelism");
  flags.AddInt64("sentences", &sentences, "sentences to stream");
  flags.AddDouble("skew", &skew, "vocabulary Zipf exponent");
  if (slb::Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(), flags.Usage().c_str());
    return 2;
  }
  if (flags.help_requested()) return 0;

  auto kind = slb::ParseAlgorithmKind(grouping_name);
  if (!kind.ok()) {
    std::fprintf(stderr, "error: %s\n", kind.status().ToString().c_str());
    return 2;
  }
  slb::Grouping grouping;
  grouping.algorithm = kind.value();

  const uint64_t per_spout =
      static_cast<uint64_t>(sentences) / static_cast<uint64_t>(spouts);
  slb::TopologyBuilder builder;
  builder.AddSpout("sentences", [&](uint32_t i) {
    return std::make_unique<SentenceSpout>(per_spout, 100 + i);
  }, static_cast<uint32_t>(spouts));
  builder.AddBolt("split", [&](uint32_t i) {
    return std::make_unique<SplitterBolt>(skew, 50000, 200 + i);
  }, static_cast<uint32_t>(splitters)).Input("sentences", slb::Grouping::Shuffle());
  builder.AddBolt("count", [&](uint32_t) {
    return std::make_unique<CounterBolt>();
  }, static_cast<uint32_t>(counters)).Input("split", grouping);

  slb::TopologyOptions options;
  options.transport_rate_per_s = 100000;  // keep transport off the critical path
  options.bolt_service_ms = 1.0;  // the paper's 1 ms/tuple CPU cost
  options.max_pending_per_spout = 70;

  auto stats = slb::ExecuteTopology(builder.Build(), options);
  if (!stats.ok()) {
    std::fprintf(stderr, "error: %s\n", stats.status().ToString().c_str());
    return 1;
  }

  std::printf("grouping on split->count : %s\n", grouping_name.c_str());
  std::printf("sentences acked          : %llu (%.0f trees/s)\n",
              static_cast<unsigned long long>(stats->roots_acked),
              stats->throughput_per_s);
  std::printf("tree latency p50/p99     : %.1f / %.1f ms\n",
              stats->latency_p50_ms, stats->latency_p99_ms);
  for (const slb::ComponentStats& comp : stats->components) {
    std::printf("component %-10s load imbalance %.2e", comp.name.c_str(),
                comp.imbalance);
    if (comp.state_entries > 0) {
      std::printf("  state entries %zu", comp.state_entries);
    }
    std::printf("\n");
  }
  std::printf("\nSwap --grouping between kg, pkg and dc to watch the counter\n"
              "imbalance, tail latency and state replication trade off.\n");
  return 0;
}
