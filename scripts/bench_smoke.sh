#!/usr/bin/env bash
# Smoke-runs every bench binary with a tiny message budget and fails on a
# non-zero exit or an empty result table. TSVs land in $OUT_DIR (default
# bench-smoke/) so CI can upload them as artifacts.
#
# Usage: scripts/bench_smoke.sh [build_dir] [out_dir]
#
# The bench_micro_* binaries are excluded: they are Google-Benchmark micros
# with their own reporting, not sweep-table experiments (and are absent when
# libbenchmark is not installed).

set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench-smoke}"
MESSAGES="${BENCH_SMOKE_MESSAGES:-20000}"
THREADS="${BENCH_SMOKE_THREADS:-2}"

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "error: $BUILD_DIR/bench not found (build first)" >&2
  exit 2
fi

mkdir -p "$OUT_DIR"
failures=0
count=0

for bin in "$BUILD_DIR"/bench/bench_*; do
  name="$(basename "$bin")"
  case "$name" in
    bench_micro_*) continue ;;
  esac
  [ -x "$bin" ] || continue
  count=$((count + 1))
  out="$OUT_DIR/$name.tsv"

  if ! "$bin" --messages "$MESSAGES" --threads "$THREADS" > "$out" 2> "$OUT_DIR/$name.err"; then
    echo "FAIL  $name: non-zero exit" >&2
    sed 's/^/      /' "$OUT_DIR/$name.err" >&2 || true
    failures=$((failures + 1))
    continue
  fi

  # A healthy run prints at least one non-comment, non-blank result row.
  # (grep -c reads the whole stream — no -q/SIGPIPE race under pipefail.)
  rows="$(grep -v '^#' "$out" | grep -c '[^[:space:]]' || true)"
  if [ "${rows:-0}" -eq 0 ]; then
    echo "FAIL  $name: empty result table" >&2
    failures=$((failures + 1))
    continue
  fi

  echo "OK    $name (${rows} rows)"
done

if [ "$count" -eq 0 ]; then
  echo "error: no bench binaries found under $BUILD_DIR/bench" >&2
  exit 2
fi

# Flag validation: an out-of-range value must be rejected up front with
# exit 2, not cast into a huge count or averaged into NaN rows. Common flags
# (--sources/--runs/--threads) on bench_fig10_imbalance_zipf; the threaded
# engine's flags on both of their parsers, the shared RuntimeFlags
# (bench_fig13_throughput) and bench_elastic_rescale's own; and
# bench_runtime_hotpath's shape. An unchecked --queue-capacity -1 would
# size every lane at 2^32 - 1 tuples, and --fanout -1 emit as many
# children per tuple.
flag_failures=0
expect_exit2() {  # expect_exit2 <bench name> <flag and value, one word each>...
  local name="$1"
  shift
  local rc=0
  "$BUILD_DIR/bench/$name" --messages 1000 "$@" > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL  $name $*: exit $rc (want 2)" >&2
    flag_failures=$((flag_failures + 1))
  fi
}
for name in bench_fig10_imbalance_zipf bench_fig13_throughput \
            bench_elastic_rescale bench_runtime_hotpath; do
  if [ ! -x "$BUILD_DIR/bench/$name" ]; then
    echo "FAIL  $name missing from the build;" \
         "flag-validation guard cannot run" >&2
    flag_failures=$((flag_failures + 1))
  fi
done
if [ "$flag_failures" -eq 0 ]; then
  for bad_flag in "--sources 0" "--runs 0" "--threads -1"; do
    # shellcheck disable=SC2086  # split "--flag value" into two words
    expect_exit2 bench_fig10_imbalance_zipf $bad_flag
  done
  for name in bench_fig13_throughput bench_elastic_rescale; do
    for bad_flag in "--engine-threads -1" "--queue-capacity -1" \
                    "--queue-capacity 1" "--queue-capacity 1048577" \
                    "--batch-size 0"; do
      # shellcheck disable=SC2086
      expect_exit2 "$name" --engine threaded $bad_flag
    done
  done
  expect_exit2 bench_fig13_throughput --engine threaded --wait-strategy bogus
  for name in bench_fig13_throughput bench_fig14_latency \
              bench_elastic_rescale; do
    expect_exit2 "$name" --engine bogus
  done
  for bad_flag in "--fanout -1" "--fanout 1025" "--stage-workers 0"; do
    # shellcheck disable=SC2086
    expect_exit2 bench_runtime_hotpath $bad_flag
  done
  if [ "$flag_failures" -eq 0 ]; then
    echo "OK    flag validation (bad common and threaded-engine flags exit 2)"
  fi
fi

# The adversarial-headroom bench must cover the full calibrated scenario
# list even at the tiny smoke budget: its derived headroom table (the lines
# after the "# headroom:" marker) needs one row per (scenario, algorithm)
# for at least 6 scenarios, including the four PR-4 catalog additions.
HEADROOM_TSV="$OUT_DIR/bench_adversarial_headroom.tsv"
headroom_failures=0
if [ -f "$HEADROOM_TSV" ]; then
  headroom_rows="$(sed -n '/^# headroom:/,$p' "$HEADROOM_TSV" \
                    | grep -v '^#' | grep -c '[^[:space:]]' || true)"
  headroom_scenarios="$(sed -n '/^# headroom:/,$p' "$HEADROOM_TSV" \
                    | grep -v '^#' | cut -f1 | sort -u | grep -c '[^[:space:]]' || true)"
  if [ "${headroom_scenarios:-0}" -lt 6 ]; then
    echo "FAIL  bench_adversarial_headroom: headroom table covers only" \
         "${headroom_scenarios:-0} scenarios (want >= 6)" >&2
    headroom_failures=$((headroom_failures + 1))
  fi
  for scenario in correlated-burst diurnal key-space-growth replay-with-noise; do
    if ! sed -n '/^# headroom:/,$p' "$HEADROOM_TSV" | grep -q "^$scenario	"; then
      echo "FAIL  bench_adversarial_headroom: scenario '$scenario' missing" \
           "from the headroom table" >&2
      headroom_failures=$((headroom_failures + 1))
    fi
  done
  if [ "$headroom_failures" -eq 0 ]; then
    echo "OK    bench_adversarial_headroom headroom table" \
         "(${headroom_rows:-0} rows, ${headroom_scenarios:-0} scenarios)"
  fi
else
  # The coverage assertion must not vanish with the binary it asserts on.
  echo "FAIL  bench_adversarial_headroom: no result table at $HEADROOM_TSV" \
       "(binary missing from the build?)" >&2
  headroom_failures=1
fi

# Perf guard for the threaded DSPE runtime: bench_fig13_throughput must also
# work with --engine threaded (real threads, measured wall-clock) and report
# a strictly positive measured throughput in every cell. Catches runtime
# wiring rot (deadlock -> empty table, broken ack path -> throughput 0) that
# the sim-engine loop above cannot see.
THREADED_TSV="$OUT_DIR/bench_fig13_throughput.threaded.tsv"
threaded_failures=0
fig13_bin="$BUILD_DIR/bench/bench_fig13_throughput"
if [ -x "$fig13_bin" ]; then
  if ! "$fig13_bin" --engine threaded --messages "$MESSAGES" --runs 1 \
       > "$THREADED_TSV" 2> "$OUT_DIR/bench_fig13_throughput.threaded.err"; then
    echo "FAIL  bench_fig13_throughput --engine threaded: non-zero exit" >&2
    sed 's/^/      /' "$OUT_DIR/bench_fig13_throughput.threaded.err" >&2 || true
    threaded_failures=$((threaded_failures + 1))
  else
    threaded_rows="$(grep -v '^#' "$THREADED_TSV" | grep -c '[^[:space:]]' || true)"
    if [ "${threaded_rows:-0}" -eq 0 ]; then
      echo "FAIL  bench_fig13_throughput --engine threaded: empty result table" >&2
      threaded_failures=$((threaded_failures + 1))
    else
      # The column header is the '#scenario ...' comment line; resolve the
      # throughput_per_s column by name so payload reordering can't silently
      # blind the guard, then require every row to be measured and positive.
      # The executor idle accounting (idle_s / park_s metric columns, ISSUE
      # 10) must be present and non-negative on every threaded row — a
      # missing column means the stats plumbing rotted, a negative value a
      # broken clock delta.
      bad_rows="$(awk -F'\t' '
        /^#scenario\t/ {
          for (i = 1; i <= NF; i++) {
            if ($i == "throughput_per_s") col = i
            if ($i == "idle_s") idle = i
            if ($i == "park_s") park = i
          }
          next
        }
        /^#/ || /^[[:space:]]*$/ { next }
        {
          if (!col) { print "no-throughput-column"; exit }
          if (!idle || !park) { print "no-idle-metric-columns"; exit }
          if ($col + 0 <= 0) print $1 "/" $3 "=" $col
          if ($idle + 0 < 0) print $1 "/" $3 ": idle_s=" $idle
          if ($park + 0 < 0 || $park + 0 > $idle + 0) \
            print $1 "/" $3 ": park_s=" $park
        }' "$THREADED_TSV")"
      if [ -n "$bad_rows" ]; then
        echo "FAIL  bench_fig13_throughput --engine threaded: non-positive" \
             "throughput or malformed idle metrics in: $bad_rows" >&2
        threaded_failures=$((threaded_failures + 1))
      else
        echo "OK    bench_fig13_throughput --engine threaded" \
             "(${threaded_rows} rows, throughput > 0, idle metrics sane)"
      fi
    fi
  fi

  # Affinity pinning must run cleanly wherever CI lands (containers with
  # restricted affinity masks included): a tiny --pin-threads run only has
  # to exit 0 and produce rows — threads_pinned lands in the table for
  # eyeballing, but its value is host-dependent and not asserted.
  PIN_TSV="$OUT_DIR/bench_fig13_throughput.pinned.tsv"
  if ! "$fig13_bin" --engine threaded --pin-threads --messages 5000 --runs 1 \
       > "$PIN_TSV" 2> "$OUT_DIR/bench_fig13_throughput.pinned.err"; then
    echo "FAIL  bench_fig13_throughput --engine threaded --pin-threads:" \
         "non-zero exit" >&2
    sed 's/^/      /' "$OUT_DIR/bench_fig13_throughput.pinned.err" >&2 || true
    threaded_failures=$((threaded_failures + 1))
  else
    pin_rows="$(grep -v '^#' "$PIN_TSV" | grep -c '[^[:space:]]' || true)"
    if [ "${pin_rows:-0}" -eq 0 ]; then
      echo "FAIL  bench_fig13_throughput --pin-threads: empty result table" >&2
      threaded_failures=$((threaded_failures + 1))
    else
      echo "OK    bench_fig13_throughput --engine threaded --pin-threads" \
           "(${pin_rows} rows)"
    fi
  fi
else
  echo "FAIL  bench_fig13_throughput missing from the build; threaded-engine" \
       "guard cannot run" >&2
  threaded_failures=1
fi

# Sampled-latency guard: the threaded engine times one root in eight, so
# bench_fig14_latency --engine threaded must still report latency from a
# non-empty sample in every row: lat_count > 0 and 0 < lat_p50_ms <=
# lat_p99_ms. A sampling rule that times no root, or a sample that never
# reaches the histogram, reads as zeros here.
LATENCY_TSV="$OUT_DIR/bench_fig14_latency.threaded.tsv"
latency_failures=0
fig14_bin="$BUILD_DIR/bench/bench_fig14_latency"
if [ -x "$fig14_bin" ]; then
  if ! "$fig14_bin" --engine threaded --messages "$MESSAGES" --runs 1 \
       > "$LATENCY_TSV" 2> "$OUT_DIR/bench_fig14_latency.threaded.err"; then
    echo "FAIL  bench_fig14_latency --engine threaded: non-zero exit" >&2
    sed 's/^/      /' "$OUT_DIR/bench_fig14_latency.threaded.err" >&2 || true
    latency_failures=1
  else
    bad_latency="$(awk -F'\t' '
      /^#scenario\t/ {
        for (i = 1; i <= NF; i++) {
          if ($i == "lat_count") n = i
          if ($i == "lat_p50_ms") p50 = i
          if ($i == "lat_p99_ms") p99 = i
        }
        next
      }
      /^#/ || /^[[:space:]]*$/ { next }
      {
        rows++
        if (!n || !p50 || !p99) { print "missing-latency-columns"; exit }
        if ($n + 0 <= 0 || $p50 + 0 <= 0 || $p50 + 0 > $p99 + 0)
          print $1 "/" $3 ": lat_count=" $n " p50=" $p50 " p99=" $p99
      }
      END { if (rows == 0) print "empty result table" }' "$LATENCY_TSV")"
    if [ -n "$bad_latency" ]; then
      echo "FAIL  bench_fig14_latency --engine threaded: sampled latency" \
           "missing or malformed in: $bad_latency" >&2
      latency_failures=1
    else
      echo "OK    bench_fig14_latency --engine threaded" \
           "(lat_count > 0, 0 < p50 <= p99 in every row)"
    fi
  fi
else
  echo "FAIL  bench_fig14_latency missing from the build; sampled-latency" \
       "guard cannot run" >&2
  latency_failures=1
fi

# Wide-stage guard: at one executor thread with 80 workers per stage, every
# bolt task shares its host's lanes, so this is the shape that exercises
# head-of-line dispatch and many tasks per inbox. The run must exit 0 and
# report a row for each of the four algorithms.
WIDE_TSV="$OUT_DIR/bench_runtime_hotpath.wide.tsv"
wide_failures=0
hotpath_bin="$BUILD_DIR/bench/bench_runtime_hotpath"
if [ -x "$hotpath_bin" ]; then
  if ! "$hotpath_bin" --engine-threads 1 --fanout 1 --stage-workers 80 \
       --messages "$MESSAGES" --runs 1 \
       > "$WIDE_TSV" 2> "$OUT_DIR/bench_runtime_hotpath.wide.err"; then
    echo "FAIL  bench_runtime_hotpath --stage-workers 80: non-zero exit" >&2
    sed 's/^/      /' "$OUT_DIR/bench_runtime_hotpath.wide.err" >&2 || true
    wide_failures=1
  else
    for algo in PKG D-C W-C SG; do
      algo_rows="$(grep -v '^#' "$WIDE_TSV" | cut -f3 | grep -cx -- "$algo" || true)"
      if [ "${algo_rows:-0}" -eq 0 ]; then
        echo "FAIL  bench_runtime_hotpath --stage-workers 80: no $algo row" >&2
        wide_failures=$((wide_failures + 1))
      fi
    done
    if [ "$wide_failures" -eq 0 ]; then
      echo "OK    bench_runtime_hotpath --engine-threads 1 --stage-workers 80" \
           "(PKG, D-C, W-C and SG rows)"
    fi
  fi
else
  echo "FAIL  bench_runtime_hotpath missing from the build; wide-stage" \
       "guard cannot run" >&2
  wide_failures=1
fi

# End-to-end benchmark (bench/e2e): run.py builds bench_e2e from the
# sources into its own build directory and runs every workload at the
# --quick budget; it exits non-zero when a build step, a correctness check
# (exact per-key delivery, determinism, goldens) or a workload fails.
e2e_failures=0
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
if command -v python3 > /dev/null 2>&1; then
  if python3 "$REPO_ROOT/bench/e2e/run.py" --quick --build "$OUT_DIR/e2e" \
       > "$OUT_DIR/bench_e2e.quick.txt" 2>&1; then
    echo "OK    bench/e2e/run.py --quick"
  else
    echo "FAIL  bench/e2e/run.py --quick: non-zero exit" >&2
    sed 's/^/      /' "$OUT_DIR/bench_e2e.quick.txt" >&2 || true
    e2e_failures=1
  fi
else
  echo "FAIL  bench/e2e/run.py --quick: python3 not available" >&2
  e2e_failures=1
fi

# The runtime micro-benches (ack coalescing, park/wake latency) are Google
# Benchmark binaries, excluded from the sweep loop above; when the library
# was available at configure time, they must still start and report.
micro_runtime_failures=0
micro_bin="$BUILD_DIR/bench/bench_micro_runtime"
if [ -x "$micro_bin" ]; then
  if ! "$micro_bin" --benchmark_min_time=0.01 \
       > "$OUT_DIR/bench_micro_runtime.txt" 2>&1; then
    echo "FAIL  bench_micro_runtime: non-zero exit" >&2
    sed 's/^/      /' "$OUT_DIR/bench_micro_runtime.txt" >&2 || true
    micro_runtime_failures=1
  elif ! grep -q "BM_AckFanout" "$OUT_DIR/bench_micro_runtime.txt" || \
       ! grep -q "BM_IdleWake" "$OUT_DIR/bench_micro_runtime.txt"; then
    echo "FAIL  bench_micro_runtime: expected BM_AckFanout / BM_IdleWake" \
         "rows missing" >&2
    micro_runtime_failures=1
  else
    echo "OK    bench_micro_runtime (ack + idle-wake micros reported)"
  fi
else
  echo "SKIP  bench_micro_runtime (Google Benchmark not installed)"
fi

# Elastic-rescale guard: bench_elastic_rescale's derived "# rescale:" table
# must be non-empty, and every scale-out row (the out+8 schedule) must report
# a strictly positive keys_migrated count. Catches migration-accounting rot
# (tracker never wired -> zeros everywhere) that the generic empty-table
# check above cannot see. Columns are resolved by name from the table header
# so reordering can't silently blind the guard.
RESCALE_TSV="$OUT_DIR/bench_elastic_rescale.tsv"
rescale_failures=0
if [ -f "$RESCALE_TSV" ]; then
  rescale_rows="$(sed -n '/^# rescale:/,$p' "$RESCALE_TSV" \
                    | grep -v '^#' | grep -c '[^[:space:]]' || true)"
  if [ "${rescale_rows:-0}" -eq 0 ]; then
    echo "FAIL  bench_elastic_rescale: empty rescale table" >&2
    rescale_failures=$((rescale_failures + 1))
  else
    bad_rescale="$(sed -n '/^# rescale:/,$p' "$RESCALE_TSV" | awk -F'\t' '
      /^# scenario\t/ {
        for (i = 1; i <= NF; i++) {
          if ($i == "schedule") sched = i
          if ($i == "keys_migrated") col = i
        }
        next
      }
      /^#/ || /^[[:space:]]*$/ { next }
      {
        if (!col || !sched) { print "no-keys_migrated-column"; exit }
        if ($sched ~ /^out/ && $col + 0 <= 0) print $1 "/" $sched "/" $3 "=" $col
      }')"
    if [ -n "$bad_rescale" ]; then
      echo "FAIL  bench_elastic_rescale: zero migrated keys in scale-out" \
           "cells: $bad_rescale" >&2
      rescale_failures=$((rescale_failures + 1))
    else
      echo "OK    bench_elastic_rescale rescale table" \
           "(${rescale_rows} rows, scale-out cells all migrate keys)"
    fi
  fi
else
  echo "FAIL  bench_elastic_rescale: no result table at $RESCALE_TSV" \
       "(binary missing from the build?)" >&2
  rescale_failures=1
fi

# Live-rescale guard: bench_elastic_rescale must also work with
# --engine threaded (worker set mutated on the running topology, key state
# through real handoff frames). Beyond the sim-engine checks above, the
# threaded run must MEASURE the protocol: scale-out cells need a strictly
# positive migration-stall time (resume -> last state install) on top of
# nonzero migrated keys, and every rescaling row needs a positive quiesce
# time and at least one handoff frame sent. Zeros there mean the live
# protocol silently did nothing — the rot this guard exists to catch. The
# static rows must report the measured
# final imbalance: all of them at final_I == 0 means the threaded cells
# dropped the worker loads (a consistent-hash row is never balanced).
THREADED_RESCALE_TSV="$OUT_DIR/bench_elastic_rescale.threaded.tsv"
threaded_rescale_failures=0
rescale_bin="$BUILD_DIR/bench/bench_elastic_rescale"
if [ -x "$rescale_bin" ]; then
  if ! "$rescale_bin" --engine threaded --messages "$MESSAGES" --runs 1 \
       > "$THREADED_RESCALE_TSV" 2> "$OUT_DIR/bench_elastic_rescale.threaded.err"; then
    echo "FAIL  bench_elastic_rescale --engine threaded: non-zero exit" >&2
    sed 's/^/      /' "$OUT_DIR/bench_elastic_rescale.threaded.err" >&2 || true
    threaded_rescale_failures=$((threaded_rescale_failures + 1))
  else
    tr_rows="$(sed -n '/^# rescale:/,$p' "$THREADED_RESCALE_TSV" \
                 | grep -v '^#' | grep -c '[^[:space:]]' || true)"
    if [ "${tr_rows:-0}" -eq 0 ]; then
      echo "FAIL  bench_elastic_rescale --engine threaded: empty rescale table" >&2
      threaded_rescale_failures=$((threaded_rescale_failures + 1))
    else
      bad_threaded_rescale="$(sed -n '/^# rescale:/,$p' "$THREADED_RESCALE_TSV" | awk -F'\t' '
        /^# scenario\t/ {
          for (i = 1; i <= NF; i++) {
            if ($i == "schedule") sched = i
            if ($i == "keys_migrated") keys = i
            if ($i == "quiesce_s") quiesce = i
            if ($i == "stall_s") stall = i
            if ($i == "final_I") imb = i
            if ($i == "handoff_frames") frames = i
          }
          next
        }
        /^#/ || /^[[:space:]]*$/ { next }
        {
          if (!keys || !sched || !quiesce || !stall || !imb || !frames) { print "missing-columns"; exit }
          if ($sched == "static") {
            statics++
            if ($imb + 0 != 0) imbalanced++
            next
          }
          if ($quiesce + 0 <= 0) print $1 "/" $sched "/" $3 ": quiesce_s=" $quiesce
          if ($frames + 0 <= 0) print $1 "/" $sched "/" $3 ": handoff_frames=" $frames
          if ($sched ~ /^out/) {
            if ($keys + 0 <= 0) print $1 "/" $sched "/" $3 ": keys_migrated=" $keys
            if ($stall + 0 <= 0) print $1 "/" $sched "/" $3 ": stall_s=" $stall
          }
        }
        END {
          if (statics > 0 && imbalanced == 0) print "static rows: final_I all 0"
        }')"
      if [ -n "$bad_threaded_rescale" ]; then
        echo "FAIL  bench_elastic_rescale --engine threaded: live protocol" \
             "not measured in: $bad_threaded_rescale" >&2
        threaded_rescale_failures=$((threaded_rescale_failures + 1))
      else
        echo "OK    bench_elastic_rescale --engine threaded" \
             "(${tr_rows} rows, measured quiesce/stall/handoff_frames all" \
             "positive, static final_I measured)"
      fi
    fi
  fi
else
  echo "FAIL  bench_elastic_rescale missing from the build; live-rescale" \
       "guard cannot run" >&2
  threaded_rescale_failures=1
fi

# Cost-routing guard: bench_cost_routing's derived "# cost:" mis-rank table
# must be non-empty, and every anti-correlated row must report a strictly
# positive cost imbalance under the count signal — that hidden imbalance is
# the effect the bench exists to measure, so a zero there means the cost
# layer silently priced nothing (model never wired, tracker not enabled).
# Columns are resolved by name from the table header so reordering can't
# silently blind the guard.
COST_TSV="$OUT_DIR/bench_cost_routing.tsv"
cost_failures=0
if [ -f "$COST_TSV" ]; then
  cost_rows="$(sed -n '/^# cost:/,$p' "$COST_TSV" \
                 | grep -v '^#' | grep -c '[^[:space:]]' || true)"
  if [ "${cost_rows:-0}" -eq 0 ]; then
    echo "FAIL  bench_cost_routing: empty cost table" >&2
    cost_failures=$((cost_failures + 1))
  else
    bad_cost="$(sed -n '/^# cost:/,$p' "$COST_TSV" | awk -F'\t' '
      /^# model\t/ {
        for (i = 1; i <= NF; i++) if ($i == "cost_I_count") col = i
        next
      }
      /^#/ || /^[[:space:]]*$/ { next }
      {
        if (!col) { print "no-cost_I_count-column"; exit }
        if ($1 == "anti-correlated" && $col + 0 <= 0)
          print $1 "/" $2 ": cost_I_count=" $col
      }')"
    if [ -n "$bad_cost" ]; then
      echo "FAIL  bench_cost_routing: anti-correlated cells show no cost" \
           "imbalance under the count signal: $bad_cost" >&2
      cost_failures=$((cost_failures + 1))
    else
      echo "OK    bench_cost_routing cost table" \
           "(${cost_rows} rows, anti-correlated cost imbalance positive)"
    fi
  fi
else
  echo "FAIL  bench_cost_routing: no result table at $COST_TSV" \
       "(binary missing from the build?)" >&2
  cost_failures=1
fi

echo "---"
echo "$((count - failures))/$count bench binaries passed"
if [ "$flag_failures" -gt 0 ]; then
  echo "common-flag validation FAILED ($flag_failures problems)" >&2
fi
if [ "$headroom_failures" -gt 0 ]; then
  echo "headroom coverage check FAILED ($headroom_failures problems)" >&2
fi
if [ "$threaded_failures" -gt 0 ]; then
  echo "threaded-engine perf guard FAILED ($threaded_failures problems)" >&2
fi
if [ "$rescale_failures" -gt 0 ]; then
  echo "elastic-rescale migration guard FAILED ($rescale_failures problems)" >&2
fi
if [ "$threaded_rescale_failures" -gt 0 ]; then
  echo "live-rescale (threaded) guard FAILED ($threaded_rescale_failures problems)" >&2
fi
if [ "$cost_failures" -gt 0 ]; then
  echo "cost-routing guard FAILED ($cost_failures problems)" >&2
fi
if [ "$latency_failures" -gt 0 ]; then
  echo "sampled-latency guard FAILED ($latency_failures problems)" >&2
fi
if [ "$wide_failures" -gt 0 ]; then
  echo "wide-stage hot-path guard FAILED ($wide_failures problems)" >&2
fi
if [ "$e2e_failures" -gt 0 ]; then
  echo "end-to-end benchmark smoke FAILED" >&2
fi
if [ "$micro_runtime_failures" -gt 0 ]; then
  echo "runtime micro-bench guard FAILED ($micro_runtime_failures problems)" >&2
fi
exit "$(((failures + flag_failures + headroom_failures + threaded_failures + rescale_failures + threaded_rescale_failures + cost_failures + latency_failures + wide_failures + e2e_failures + micro_runtime_failures) > 0 ? 1 : 0))"
