#include "slb/sim/report.h"

#include <cstdio>
#include <vector>

namespace slb {

namespace {

// Fixed-precision scientific notation with 17 significant digits — enough
// to round-trip any IEEE double, so a byte-compare of two renderings really
// is an equality check on the underlying metrics. Locale-independent
// (snprintf with the C locale's %e), hence byte-stable.
std::string Num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.16e", value);
  return buf;
}

std::string Count(uint64_t value) { return std::to_string(value); }

// Integral payload metrics carry exact counts in a double; render without
// an exponent so they read (and diff) like the counts they are.
std::string MetricValue(const PayloadMetric& metric) {
  if (metric.integral) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", metric.value);
    return buf;
  }
  return Num(metric.value);
}

std::string StatusField(const Status& status) {
  if (status.ok()) return "OK";
  return std::string(StatusCodeToString(status.code()));
}

constexpr const char* kFixedColumns[] = {
    "scenario",       "variant",        "algo",
    "workers",        "seed",           "runs",
    "status",         "final_imbalance", "avg_imbalance",
    "max_imbalance",  "memory_entries", "head_choices",
    "head_messages",  "total_messages"};

constexpr const char* kMemoryColumns[] = {
    "mem_baseline",         "mem_baseline_entries", "mem_estimated_entries",
    "mem_est_overhead_pct", "mem_measured_overhead_pct"};

constexpr const char* kLatencyColumns[] = {
    "lat_count", "lat_avg_ms", "lat_p50_ms",
    "lat_p95_ms", "lat_p99_ms", "lat_max_ms"};

constexpr const char* kThroughputColumns[] = {"throughput_per_s", "makespan_s",
                                              "completed"};

constexpr const char* kMigrationColumns[] = {
    "final_workers",  "rescale_events",   "keys_migrated",
    "state_bytes_migrated", "stalled_messages", "moved_key_fraction"};

constexpr const char* kCostColumns[] = {
    "cost_imbalance", "count_imbalance", "misrank_rate",
    "peak_outstanding", "total_cost"};

// Which payload columns this table renders. Derived by scanning the cells
// in stable row order, so it is a pure function of the table — identical
// across thread counts, and identical for every row (cells missing a
// component render zeros).
struct PayloadColumns {
  bool memory = false;
  bool latency = false;
  bool throughput = false;
  bool migration = false;
  bool cost = false;
  /// Union of metric names in first-seen (cell-order, then payload-order)
  /// appearance; `integral` is taken from the first definition.
  std::vector<PayloadMetric> metrics;
};

PayloadColumns ScanPayloadColumns(const SweepResultTable& table) {
  PayloadColumns columns;
  for (const SweepCellResult& cell : table.cells) {
    if (cell.payload.memory.has_value()) columns.memory = true;
    if (cell.payload.latency.has_value()) columns.latency = true;
    if (cell.payload.throughput.has_value()) columns.throughput = true;
    if (cell.payload.migration.has_value()) columns.migration = true;
    if (cell.payload.cost.has_value()) columns.cost = true;
    for (const PayloadMetric& metric : cell.payload.metrics) {
      if (FindMetric(columns.metrics, metric.name) == nullptr) {
        columns.metrics.push_back(PayloadMetric{metric.name, 0.0, metric.integral});
      }
    }
  }
  return columns;
}

void AppendHeader(std::string* out, const PayloadColumns& columns) {
  bool first = true;
  auto name = [&](const char* text) {
    if (!first) *out += '\t';
    first = false;
    *out += text;
  };
  for (const char* text : kFixedColumns) name(text);
  if (columns.memory) {
    for (const char* text : kMemoryColumns) name(text);
  }
  if (columns.latency) {
    for (const char* text : kLatencyColumns) name(text);
  }
  if (columns.throughput) {
    for (const char* text : kThroughputColumns) name(text);
  }
  if (columns.migration) {
    for (const char* text : kMigrationColumns) name(text);
  }
  if (columns.cost) {
    for (const char* text : kCostColumns) name(text);
  }
  for (const PayloadMetric& metric : columns.metrics) name(metric.name.c_str());
  *out += '\n';
}

void AppendRow(std::string* out, const SweepCellResult& cell,
               const PayloadColumns& columns) {
  auto field = [&](const std::string& text) {
    *out += text;
    *out += '\t';
  };
  const CellPayload& payload = cell.payload;
  field(cell.scenario);
  field(cell.variant.empty() ? "-" : cell.variant);
  field(AlgorithmKindName(cell.algorithm));
  field(Count(cell.num_workers));
  field(Count(cell.seed));
  field(Count(cell.runs));
  field(StatusField(cell.status));
  field(Num(cell.mean_final_imbalance));
  field(Num(cell.mean_avg_imbalance));
  field(Num(cell.mean_max_imbalance));
  field(Count(payload.sim.memory_entries));
  field(Count(payload.sim.final_head_choices));
  field(Count(payload.sim.head_messages));
  field(Count(payload.sim.total_messages));
  if (columns.memory) {
    static const MemoryModelTable kNoMemory;
    const MemoryModelTable& mem = payload.memory.value_or(kNoMemory);
    field(mem.baseline.empty() ? "-" : mem.baseline);
    field(Count(mem.baseline_entries));
    field(Count(mem.estimated_entries));
    field(Num(mem.estimated_overhead_pct));
    field(Num(mem.measured_overhead_pct));
  }
  if (columns.latency) {
    const LatencySnapshot lat = payload.latency.value_or(LatencySnapshot{});
    field(Count(static_cast<uint64_t>(lat.count)));
    field(Num(lat.avg_ms));
    field(Num(lat.p50_ms));
    field(Num(lat.p95_ms));
    field(Num(lat.p99_ms));
    field(Num(lat.max_ms));
  }
  if (columns.throughput) {
    const ThroughputCounters thr =
        payload.throughput.value_or(ThroughputCounters{});
    field(Num(thr.throughput_per_s));
    field(Num(thr.makespan_s));
    field(Count(thr.completed));
  }
  if (columns.migration) {
    const MigrationCounters mig =
        payload.migration.value_or(MigrationCounters{});
    field(Count(mig.final_num_workers));
    field(Count(mig.rescale_events));
    field(Count(mig.keys_migrated));
    field(Count(mig.state_bytes_migrated));
    field(Count(mig.stalled_messages));
    field(Num(mig.moved_key_fraction));
  }
  if (columns.cost) {
    const CostCounters cost = payload.cost.value_or(CostCounters{});
    field(Num(cost.cost_imbalance));
    field(Num(cost.count_imbalance));
    field(Num(cost.misrank_rate));
    field(Num(cost.peak_outstanding));
    field(Num(cost.total_cost));
  }
  for (const PayloadMetric& column : columns.metrics) {
    const PayloadMetric* metric = FindMetric(payload.metrics, column.name);
    PayloadMetric absent{column.name, 0.0, column.integral};
    field(MetricValue(metric != nullptr ? *metric : absent));
  }
  out->back() = '\n';  // replace the trailing separator
}

}  // namespace

std::string SweepToTsv(const SweepResultTable& table) {
  const PayloadColumns columns = ScanPayloadColumns(table);
  std::string out = "#";
  AppendHeader(&out, columns);
  for (const SweepCellResult& cell : table.cells) {
    AppendRow(&out, cell, columns);
  }
  return out;
}

std::string SweepSeriesToTsv(const SweepResultTable& table) {
  std::string out =
      "#scenario\tvariant\talgo\tworkers\tsample\tposition\timbalance\n";
  for (const SweepCellResult& cell : table.cells) {
    if (!cell.status.ok()) continue;
    const PartitionSimResult& sim = cell.payload.sim;
    for (size_t s = 0; s < sim.imbalance_series.size(); ++s) {
      out += cell.scenario;
      out += '\t';
      out += cell.variant.empty() ? "-" : cell.variant;
      out += '\t';
      out += AlgorithmKindName(cell.algorithm);
      out += '\t';
      out += Count(cell.num_workers);
      out += '\t';
      out += Count(s + 1);
      out += '\t';
      out += Count(sim.sample_positions[s]);
      out += '\t';
      out += Num(sim.imbalance_series[s]);
      out += '\n';
    }
  }
  return out;
}

std::string SweepWorkerLoadsToTsv(const SweepResultTable& table) {
  std::string out =
      "#scenario\tvariant\talgo\tworkers\tworker\thead_pct\ttail_pct\t"
      "total_pct\n";
  for (const SweepCellResult& cell : table.cells) {
    if (!cell.status.ok()) continue;
    const PartitionSimResult& sim = cell.payload.sim;
    for (size_t w = 0; w < sim.worker_loads.size(); ++w) {
      const double head =
          w < sim.worker_head_loads.size() ? sim.worker_head_loads[w] : 0.0;
      const double tail =
          w < sim.worker_tail_loads.size() ? sim.worker_tail_loads[w] : 0.0;
      out += cell.scenario;
      out += '\t';
      out += cell.variant.empty() ? "-" : cell.variant;
      out += '\t';
      out += AlgorithmKindName(cell.algorithm);
      out += '\t';
      out += Count(cell.num_workers);
      out += '\t';
      out += Count(w + 1);
      out += '\t';
      out += Num(100.0 * head);
      out += '\t';
      out += Num(100.0 * tail);
      out += '\t';
      out += Num(100.0 * sim.worker_loads[w]);
      out += '\n';
    }
  }
  return out;
}

}  // namespace slb
