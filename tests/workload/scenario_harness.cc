#include "scenario_harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>

#include "slb/workload/zipf.h"

namespace slb::testing {
namespace {

// ---------------------------------------------------------------------------
// Shared helpers for shape predicates
// ---------------------------------------------------------------------------

std::vector<uint64_t> PullAll(StreamGenerator* gen) {
  std::vector<uint64_t> keys;
  keys.reserve(gen->num_messages());
  for (uint64_t i = 0; i < gen->num_messages(); ++i) {
    keys.push_back(gen->NextKey());
  }
  return keys;
}

std::map<uint64_t, uint64_t> Frequencies(const std::vector<uint64_t>& keys,
                                         size_t begin, size_t end) {
  std::map<uint64_t, uint64_t> freq;
  for (size_t i = begin; i < end && i < keys.size(); ++i) ++freq[keys[i]];
  return freq;
}

uint64_t HottestKey(const std::map<uint64_t, uint64_t>& freq) {
  uint64_t best = 0;
  uint64_t best_count = 0;
  for (const auto& [key, count] : freq) {
    if (count > best_count) {
      best = key;
      best_count = count;
    }
  }
  return best;
}

double ShareOf(const std::vector<uint64_t>& keys, size_t begin, size_t end,
               uint64_t key_lo, uint64_t key_hi) {  // [key_lo, key_hi)
  end = std::min(end, keys.size());
  if (begin >= end) return 0.0;
  uint64_t hits = 0;
  for (size_t i = begin; i < end; ++i) {
    hits += keys[i] >= key_lo && keys[i] < key_hi;
  }
  return static_cast<double>(hits) / static_cast<double>(end - begin);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

using AdjustFn = void (*)(ScenarioOptions*);
using ShapeFn = void (*)(const std::vector<uint64_t>&, const ScenarioOptions&,
                         const StreamGenerator&);

struct HarnessEntry {
  const char* name;
  AdjustFn adjust;  // nullptr = HarnessBaseOptions as-is
  ShapeFn shape;
};

// --- zipf: static skew — rank 0 is the hottest key with share ~ p1 ---------
void ZipfShape(const std::vector<uint64_t>& keys, const ScenarioOptions& opt,
               const StreamGenerator&) {
  const auto freq = Frequencies(keys, 0, keys.size());
  EXPECT_EQ(HottestKey(freq), 0u) << "rank 0 must be the most frequent key";
  const double p1 = ZipfTopProbability(opt.zipf_exponent, opt.num_keys);
  const double share =
      static_cast<double>(freq.at(0)) / static_cast<double>(keys.size());
  EXPECT_NEAR(share, p1, 0.5 * p1);
}

// --- drift: every epoch still has a Zipf head (mapping fixed per epoch) ----
void DriftShape(const std::vector<uint64_t>& keys, const ScenarioOptions& opt,
                const StreamGenerator&) {
  const double p1 = ZipfTopProbability(opt.zipf_exponent, opt.num_keys);
  const size_t epoch_length = keys.size() / opt.num_epochs;
  for (uint64_t epoch = 0; epoch < opt.num_epochs; ++epoch) {
    const auto freq = Frequencies(keys, epoch * epoch_length,
                                  (epoch + 1) * epoch_length);
    const double share = static_cast<double>(freq.at(HottestKey(freq))) /
                         static_cast<double>(epoch_length);
    EXPECT_NEAR(share, p1, 0.6 * p1) << "epoch " << epoch;
  }
}

// --- flash-crowd: the burst key dominates the window and only the window ---
void FlashCrowdShape(const std::vector<uint64_t>& keys,
                     const ScenarioOptions& opt, const StreamGenerator&) {
  const uint64_t burst_key = opt.num_keys - 1;
  const auto first = static_cast<size_t>(
      opt.burst_begin * static_cast<double>(keys.size()));
  const auto last = static_cast<size_t>(
      opt.burst_end * static_cast<double>(keys.size()));
  EXPECT_NEAR(ShareOf(keys, first, last, burst_key, burst_key + 1),
              opt.burst_fraction, 0.08);
  EXPECT_LT(ShareOf(keys, 0, first, burst_key, burst_key + 1), 0.01);
  EXPECT_LT(ShareOf(keys, last, keys.size(), burst_key, burst_key + 1), 0.01);
}

// --- hot-set-churn: the documented rotating window carries hot_fraction ----
void HotSetChurnShape(const std::vector<uint64_t>& keys,
                      const ScenarioOptions& opt, const StreamGenerator&) {
  const size_t epoch_length = keys.size() / opt.num_epochs;
  std::set<uint64_t> hottest;
  for (uint64_t epoch = 0; epoch < opt.num_epochs; ++epoch) {
    // The window contract of HotSetChurnStreamGenerator::HotSetStart.
    const uint64_t start =
        (opt.num_keys / 2 + epoch * opt.hot_set_size) % opt.num_keys;
    const size_t begin = epoch * epoch_length;
    EXPECT_NEAR(ShareOf(keys, begin, begin + epoch_length, start,
                        start + opt.hot_set_size),
                opt.hot_fraction, 0.08)
        << "epoch " << epoch;
    hottest.insert(HottestKey(Frequencies(keys, begin, begin + epoch_length)));
  }
  // Disjoint windows: the hottest identity is fresh every epoch.
  EXPECT_EQ(hottest.size(), opt.num_epochs);
}

// --- single-key-ramp: silent linear growth to the final share --------------
void SingleKeyRampShape(const std::vector<uint64_t>& keys,
                        const ScenarioOptions& opt, const StreamGenerator&) {
  const uint64_t ramp_key = opt.num_keys - 1;
  const size_t decile = keys.size() / 10;
  EXPECT_LT(ShareOf(keys, 0, decile, ramp_key, ramp_key + 1), 0.06);
  // Mean share over the last decile: ramp_final_fraction * 0.95.
  EXPECT_NEAR(ShareOf(keys, keys.size() - decile, keys.size(), ramp_key,
                      ramp_key + 1),
              opt.ramp_final_fraction * 0.95, 0.06);
}

// --- correlated-burst: the whole group ignites together in the window ------
void CorrelatedBurstShape(const std::vector<uint64_t>& keys,
                          const ScenarioOptions& opt, const StreamGenerator&) {
  const uint64_t group_start = opt.num_keys - opt.burst_group_size;
  const auto first = static_cast<size_t>(
      opt.burst_begin * static_cast<double>(keys.size()));
  const auto last = static_cast<size_t>(
      opt.burst_end * static_cast<double>(keys.size()));
  EXPECT_NEAR(ShareOf(keys, first, last, group_start, opt.num_keys),
              opt.burst_fraction, 0.08);
  EXPECT_LT(ShareOf(keys, 0, first, group_start, opt.num_keys), 0.02);
  EXPECT_LT(ShareOf(keys, last, keys.size(), group_start, opt.num_keys), 0.02);
  // Correlation: EVERY group member ignites, splitting the burst roughly
  // uniformly (each expects window * fraction / group messages).
  const auto freq = Frequencies(keys, first, last);
  const double expected = static_cast<double>(last - first) *
                          opt.burst_fraction /
                          static_cast<double>(opt.burst_group_size);
  for (uint64_t k = group_start; k < opt.num_keys; ++k) {
    const auto it = freq.find(k);
    const double hits =
        it == freq.end() ? 0.0 : static_cast<double>(it->second);
    EXPECT_GT(hits, 0.3 * expected) << "group key " << k << " never ignited";
    EXPECT_LT(hits, 3.0 * expected) << "group key " << k << " dominates alone";
  }
}

// --- diurnal: each band's share oscillates with the configured period ------
void DiurnalShape(const std::vector<uint64_t>& keys, const ScenarioOptions& opt,
                  const StreamGenerator&) {
  const uint64_t bands = opt.diurnal_num_bands;
  const uint64_t keys_per_band = opt.num_keys / bands;
  const uint64_t period = opt.diurnal_period;
  ASSERT_GE(keys.size(), 2 * period) << "stream too short for a period check";
  // Band 0's intensity 1 + A*sin(2*pi*t/P) peaks at cycle fraction 0.25 and
  // troughs at 0.75. Compare its share over the peak and trough quarters of
  // EVERY cycle — per-cycle agreement is what pins the period.
  const uint64_t cycles = keys.size() / period;
  for (uint64_t cycle = 0; cycle < cycles; ++cycle) {
    const size_t base = cycle * period;
    const double peak = ShareOf(keys, base + period / 8, base + 3 * period / 8,
                                0, keys_per_band);
    const double trough = ShareOf(keys, base + 5 * period / 8,
                                  base + 7 * period / 8, 0, keys_per_band);
    EXPECT_GT(peak, trough + 0.2)
        << "cycle " << cycle << ": band 0 share must swing with the period";
  }
  // Every band takes its turn: over the full stream the mix is balanced.
  for (uint64_t b = 0; b < bands; ++b) {
    EXPECT_NEAR(ShareOf(keys, 0, keys.size(), b * keys_per_band,
                        (b + 1) * keys_per_band),
                1.0 / static_cast<double>(bands), 0.05)
        << "band " << b;
  }
}

// --- key-space-growth: fresh keys arrive; the head is a moving target ------
void KeySpaceGrowthShape(const std::vector<uint64_t>& keys,
                         const ScenarioOptions& opt, const StreamGenerator&) {
  const size_t decile = keys.size() / 10;
  // New-key arrival monotonicity: every decile must introduce identities
  // never seen before (until the key space saturates).
  std::set<uint64_t> seen;
  std::vector<uint64_t> fresh_per_decile;
  std::vector<double> mean_per_decile;
  for (size_t d = 0; d < 10; ++d) {
    uint64_t fresh = 0;
    double sum = 0.0;
    for (size_t i = d * decile; i < (d + 1) * decile; ++i) {
      fresh += seen.insert(keys[i]).second;
      sum += static_cast<double>(keys[i]);
    }
    fresh_per_decile.push_back(fresh);
    mean_per_decile.push_back(sum / static_cast<double>(decile));
  }
  const bool saturated = seen.size() >= opt.num_keys * 95 / 100;
  for (size_t d = 1; d < (saturated ? 5 : 10); ++d) {
    EXPECT_GT(fresh_per_decile[d], 0u)
        << "decile " << d << " introduced no fresh keys";
  }
  EXPECT_GT(seen.size(),
            static_cast<size_t>(opt.growth_initial_fraction *
                                static_cast<double>(opt.num_keys) * 1.5))
      << "the key space never grew past its initial fraction";
  // Moving head: the hot mass rides the frontier, so the mean key index
  // must climb from the first decile to the last.
  EXPECT_GT(mean_per_decile.back(), mean_per_decile.front() * 1.5);
  EXPECT_NE(HottestKey(Frequencies(keys, 0, decile)),
            HottestKey(Frequencies(keys, keys.size() - decile, keys.size())))
      << "the hottest identity never moved";
}

// --- replay-with-noise: base composition preserved up to the noise rate ----
void ReplayWithNoiseShape(const std::vector<uint64_t>& keys,
                          const ScenarioOptions& opt, const StreamGenerator&) {
  auto base = MakeScenario(opt.replay_base, opt);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  const std::vector<uint64_t> base_keys = PullAll(base->get());
  ASSERT_EQ(base_keys.size(), keys.size());

  // Local ordering is perturbed: many positions differ from the raw replay.
  size_t moved = 0;
  for (size_t i = 0; i < keys.size(); ++i) moved += keys[i] != base_keys[i];
  EXPECT_GT(static_cast<double>(moved) / static_cast<double>(keys.size()), 0.1)
      << "the noise window never reordered anything";

  // Composition is preserved up to the noise rate: the L1 histogram
  // distance, normalized to [0, 1], is bounded by the fraction of draws the
  // uniform noise replaced.
  std::map<uint64_t, int64_t> delta;
  for (uint64_t k : keys) ++delta[k];
  for (uint64_t k : base_keys) --delta[k];
  uint64_t l1 = 0;
  for (const auto& [key, d] : delta) l1 += static_cast<uint64_t>(std::abs(d));
  const double normalized =
      static_cast<double>(l1) / (2.0 * static_cast<double>(keys.size()));
  EXPECT_LE(normalized, opt.noise_rate + 0.02);
  if (opt.noise_rate > 0.0) {
    EXPECT_GT(normalized, opt.noise_rate / 4.0)
        << "noise_rate is configured but no keys were perturbed";
  }
}

// --- scale-out-under-flash-crowd: load ignites, then keeps growing ---------
void ScaleOutFlashCrowdShape(const std::vector<uint64_t>& keys,
                             const ScenarioOptions& opt,
                             const StreamGenerator&) {
  const uint64_t group_start = opt.num_keys - opt.burst_group_size;
  const auto first = static_cast<size_t>(
      opt.burst_begin * static_cast<double>(keys.size()));
  // Quiet before ignition.
  EXPECT_LT(ShareOf(keys, 0, first, group_start, opt.num_keys), 0.02);
  // Step edge: just after ignition the group holds ~burst_fraction/2.
  const size_t post = keys.size() - first;
  EXPECT_NEAR(ShareOf(keys, first, first + post / 8, group_start, opt.num_keys),
              opt.burst_fraction * 0.5, 0.08);
  // Sustained growth, not a receding burst: the last decile's share must be
  // near the FULL burst_fraction (mean of the ramp over that decile) and
  // strictly above the ignition-edge share.
  const size_t decile = keys.size() / 10;
  const double ignition_share =
      ShareOf(keys, first, first + post / 8, group_start, opt.num_keys);
  const double mean_progress =
      (static_cast<double>(keys.size() - decile - first) +
       static_cast<double>(keys.size() - first)) /
      (2.0 * static_cast<double>(post));
  const double final_share = ShareOf(keys, keys.size() - decile, keys.size(),
                                     group_start, opt.num_keys);
  EXPECT_NEAR(final_share, opt.burst_fraction * 0.5 * (1.0 + mean_progress),
              0.08);
  EXPECT_GT(final_share, ignition_share + 0.05)
      << "the load must keep growing after ignition";
}

// --- scale-in-during-drift: the live prefix contracts while the head moves -
void ScaleInDriftShape(const std::vector<uint64_t>& keys,
                       const ScenarioOptions& opt, const StreamGenerator&) {
  const size_t epoch_length = keys.size() / opt.num_epochs;
  // Independent restatement of ScaleInDriftStreamGenerator::LiveKeys.
  auto live_at = [&](uint64_t epoch) {
    const double progress =
        opt.num_epochs <= 1 ? 1.0
                            : static_cast<double>(epoch) /
                                  static_cast<double>(opt.num_epochs - 1);
    const double fraction =
        1.0 - (1.0 - opt.shrink_final_fraction) * progress;
    return std::max<uint64_t>(
        2, static_cast<uint64_t>(fraction * static_cast<double>(opt.num_keys)));
  };
  for (uint64_t epoch = 0; epoch < opt.num_epochs; ++epoch) {
    const uint64_t live = live_at(epoch);
    uint64_t max_key = 0;
    for (size_t i = epoch * epoch_length; i < (epoch + 1) * epoch_length; ++i) {
      max_key = std::max(max_key, keys[i]);
    }
    EXPECT_LT(max_key, live) << "epoch " << epoch
                             << " emitted keys past the live prefix";
  }
  // The contraction is real: the final epoch fits in the shrunken prefix,
  // a strict subset of epoch 0's range.
  EXPECT_LT(live_at(opt.num_epochs - 1), opt.num_keys * 3 / 4);
  // The head drifts: the hottest identity moves across epochs.
  const uint64_t first_hot = HottestKey(Frequencies(keys, 0, epoch_length));
  const uint64_t last_hot = HottestKey(Frequencies(
      keys, (opt.num_epochs - 1) * epoch_length, opt.num_epochs * epoch_length));
  EXPECT_NE(first_hot, last_hot) << "the hot identity never drifted";
}

// One entry per catalog name. ORDER MATTERS ONLY FOR DIAGNOSTICS; coverage
// is compared against ScenarioNames() as a set by the completeness test.
constexpr HarnessEntry kRegistry[] = {
    {"zipf", nullptr, ZipfShape},
    {"drift", nullptr, DriftShape},
    {"flash-crowd", nullptr, FlashCrowdShape},
    {"hot-set-churn", nullptr, HotSetChurnShape},
    {"single-key-ramp", nullptr, SingleKeyRampShape},
    {"correlated-burst", nullptr, CorrelatedBurstShape},
    {"diurnal", nullptr, DiurnalShape},
    {"key-space-growth", nullptr, KeySpaceGrowthShape},
    {"replay-with-noise", nullptr, ReplayWithNoiseShape},
    {"scale-out-under-flash-crowd", nullptr, ScaleOutFlashCrowdShape},
    {"scale-in-during-drift", nullptr, ScaleInDriftShape},
};

const HarnessEntry* FindEntry(const std::string& name) {
  for (const HarnessEntry& entry : kRegistry) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

}  // namespace

ScenarioOptions HarnessBaseOptions() {
  ScenarioOptions opt;
  opt.num_keys = 1000;
  opt.num_messages = 20000;
  opt.seed = 7;
  opt.zipf_exponent = 1.1;
  return opt;
}

ScenarioOptions HarnessOptionsFor(const std::string& name) {
  ScenarioOptions opt = HarnessBaseOptions();
  const HarnessEntry* entry = FindEntry(name);
  if (entry != nullptr && entry->adjust != nullptr) entry->adjust(&opt);
  return opt;
}

void RunScenarioPropertyChecks(const std::string& name) {
  const HarnessEntry* entry = FindEntry(name);
  if (entry == nullptr) {
    ADD_FAILURE() << "scenario '" << name
                  << "' has no harness entry: register an adjust/shape pair "
                     "in tests/workload/scenario_harness.cc";
    return;
  }
  const ScenarioOptions opt = HarnessOptionsFor(name);

  auto gen = MakeScenario(name, opt);
  auto twin = MakeScenario(name, opt);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();

  // 3a. Message-count exactness: the generator advertises what was asked.
  EXPECT_EQ((*gen)->num_messages(), opt.num_messages);
  EXPECT_GE((*gen)->num_keys(), 2u);
  EXPECT_LE((*gen)->num_keys(), opt.num_keys);

  // 3b. ... and yields exactly that many keys (an internal miscount that
  // aborts or runs dry would fail here).
  const std::vector<uint64_t> keys = PullAll(gen->get());
  EXPECT_EQ(keys.size(), opt.num_messages);

  // 1. Same-seed determinism: a twin instance reproduces the byte sequence.
  EXPECT_EQ(keys, PullAll(twin->get()))
      << "two same-options instances diverged";

  // 2. Reset round-trip: the SAME instance replays itself byte-for-byte.
  (*gen)->Reset();
  EXPECT_EQ(keys, PullAll(gen->get())) << "Reset() did not replay the stream";

  // 4. Key-range containment.
  const uint64_t limit = (*gen)->num_keys();
  size_t out_of_range = 0;
  for (uint64_t k : keys) out_of_range += k >= limit;
  EXPECT_EQ(out_of_range, 0u) << "keys escaped [0, num_keys())";

  // 5. Scenario-specific shape predicate.
  entry->shape(keys, opt, **gen);
}

std::vector<std::string> HarnessCoveredScenarios() {
  std::vector<std::string> names;
  for (const HarnessEntry& entry : kRegistry) names.emplace_back(entry.name);
  return names;
}

}  // namespace slb::testing
