// Renderers for sweep result tables.
//
// All emitters are pure functions of the table with fixed formatting
// (snprintf, no locale), so a byte-compare of two renderings is a valid
// equality check on the tables themselves — the sweep determinism tests
// rely on this. TSV output is gnuplot-ready ('#'-prefixed header).
//
// Columns come in two groups: the fixed coordinate/metric prefix every
// table shares, then *payload columns* — derived from the typed CellPayload
// components a grid's cells actually carry (memory-model table, latency
// snapshot, throughput counters, named metrics). A component's columns
// appear when any cell in the table has it; absent cells render zeros.
// Since payloads are a deterministic function of the grid, the column set
// is too — renderings stay byte-stable and thread-count-invariant.
// docs/SWEEP_FORMATS.md documents every column of every emitter.

#pragma once

#include <string>

#include "slb/sim/sweep.h"

namespace slb {

/// One row per cell, tab-separated:
/// scenario variant algo workers seed runs status I(m) avg(I) max(I) ...
/// followed by the table's payload columns.
std::string SweepToTsv(const SweepResultTable& table);

/// Long-format series TSV: one row per (cell, sample) — the Fig. 12 shape.
/// Failed cells contribute no rows.
std::string SweepSeriesToTsv(const SweepResultTable& table);

/// Long-format per-worker load TSV: one row per (cell, worker) with the
/// head / tail / total load percentages — the Fig. 8 shape. Failed cells
/// contribute no rows.
std::string SweepWorkerLoadsToTsv(const SweepResultTable& table);

}  // namespace slb
