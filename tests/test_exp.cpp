// Experiment harness tests: scenario presets, parallel sweeps and the
// property-matrix runner cells used by the benches.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>
#include <thread>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "net/adversary.hpp"
#include "proto/figure2.hpp"
#include "record_digest.hpp"
#include "support/rng.hpp"

namespace xcp::exp {
namespace {

TEST(Scenario, ConformingEnvMatchesAssumptions) {
  const auto timing = default_timing();
  const auto env = conforming_env(timing);
  EXPECT_EQ(env.synchrony, proto::SynchronyKind::kSynchronous);
  EXPECT_EQ(env.delta_max.count(), timing.delta_max.count());
  EXPECT_DOUBLE_EQ(env.actual_rho, timing.rho);
}

TEST(Scenario, PartialEnvHasGst) {
  const auto env = partial_env(default_timing(), 7, Duration::millis(300));
  EXPECT_EQ(env.synchrony, proto::SynchronyKind::kPartiallySynchronous);
  EXPECT_EQ((env.gst - TimePoint::origin()).count(),
            Duration::seconds(7).count());
}

TEST(Sweep, ReturnsResultsInSeedOrder) {
  const auto fn = [](std::uint64_t seed) { return seed * 10; };
  const auto results = parallel_sweep<std::uint64_t>(5, 8, fn, 4);
  ASSERT_EQ(results.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(results[i], (5 + i) * 10);
}

TEST(Sweep, ActuallyRunsEverySeedOnce) {
  std::atomic<int> calls{0};
  const auto fn = [&calls](std::uint64_t) { return ++calls; };
  const auto results = parallel_sweep<int>(1, 17, fn, 3);
  EXPECT_EQ(calls.load(), 17);
  EXPECT_EQ(results.size(), 17u);
}

TEST(Sweep, BoolResultsAreRaceFree) {
  // vector<bool> results used to be assembled on the calling thread; the
  // sharded sweep writes into one plain slot per seed instead, so bool
  // sweeps stay legal under any worker count.
  const auto fn = [](std::uint64_t seed) { return seed % 3 == 0; };
  const auto results = parallel_sweep<bool>(0, 64, fn, 4);
  ASSERT_EQ(results.size(), 64u);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(results[i], i % 3 == 0);
}

TEST(Sweep, PropagatesExceptions) {
  const auto fn = [](std::uint64_t seed) -> int {
    if (seed == 9) throw std::runtime_error("seed 9 exploded");
    return static_cast<int>(seed);
  };
  EXPECT_THROW(parallel_sweep<int>(1, 16, fn, 4), std::runtime_error);
  EXPECT_THROW(parallel_sweep<int>(1, 16, fn, 1), std::runtime_error);
}

TEST(Sweep, ResolvedWorkers) {
  using detail::SweepPool;
  // Nothing or one unit to run: one worker, whatever was asked.
  EXPECT_EQ(SweepPool::resolved_workers(0, 0), 1u);
  EXPECT_EQ(SweepPool::resolved_workers(1, 0), 1u);
  EXPECT_EQ(SweepPool::resolved_workers(0, 5), 1u);
  EXPECT_EQ(SweepPool::resolved_workers(1, 5), 1u);
  // An explicit count is honoured, clamped to the unit count.
  EXPECT_EQ(SweepPool::resolved_workers(100, 3), 3u);
  EXPECT_EQ(SweepPool::resolved_workers(100, 64), 64u);
  EXPECT_EQ(SweepPool::resolved_workers(2, 3), 2u);
  // 0 is the hardware thread count, and the same on every call.
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  const unsigned first = SweepPool::resolved_workers(1'000'000, 0);
  EXPECT_EQ(first, hardware);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(SweepPool::resolved_workers(1'000'000, 0), first);
  }
  EXPECT_EQ(SweepPool::resolved_workers(2, 0), std::min(first, 2u));
}

TEST(Sweep, CountWhere) {
  std::vector<int> v{1, 2, 3, 4, 5};
  const auto even = [](const int& x) { return x % 2 == 0; };
  EXPECT_EQ(count_where<int>(v, even), 2u);
}

TEST(MatrixRunner, TimeBoundedUnderSynchronyIsClean) {
  const auto cell = run_matrix_cell(ProtocolKind::kTimeBounded,
                                    Regime::kSynchronyConforming, 2, 6);
  EXPECT_EQ(cell.safety_violations, 0u);
  EXPECT_EQ(cell.termination_failures, 0u);
  EXPECT_EQ(cell.liveness_failures, 0u);
}

TEST(MatrixRunner, TimeBoundedUnderGriefingAdversaryLosesProgress) {
  const auto cell = run_matrix_cell(
      ProtocolKind::kTimeBounded, Regime::kPartialSynchronyAdversarial, 2, 4);
  // Thm 2's shape: safety survives, but termination/liveness cannot.
  EXPECT_EQ(cell.safety_violations, 0u)
      << (cell.example_violations.empty() ? ""
                                          : cell.example_violations.front());
  EXPECT_EQ(cell.liveness_failures, cell.runs);
  EXPECT_GT(cell.termination_failures, 0u);
}

TEST(MatrixRunner, WeakTrustedSurvivesAdversarialPartialSynchrony) {
  const auto cell = run_matrix_cell(
      ProtocolKind::kWeakTrusted, Regime::kPartialSynchronyAdversarial, 2, 4);
  EXPECT_EQ(cell.safety_violations, 0u);
  EXPECT_EQ(cell.termination_failures, 0u);
  EXPECT_EQ(cell.liveness_failures, 0u);
}

TEST(MatrixRunner, AtomicLosesLivenessUnderPartialSynchrony) {
  const auto cell = run_matrix_cell(ProtocolKind::kInterledgerAtomic,
                                    Regime::kPartialSynchrony, 2, 6);
  EXPECT_EQ(cell.safety_violations, 0u);
  EXPECT_GT(cell.liveness_failures, 0u);
}

// ------------------------------------------------------ streaming sweeps

TEST(SweepAccumulate, MatchesSequentialFold) {
  // Sum-style accumulators must be bit-identical to a sequential fold for
  // any worker count (worker-local accs, order-insensitive merge).
  struct Sum {
    std::uint64_t total = 0;
    std::size_t n = 0;
    void merge(Sum&& o) {
      total += o.total;
      n += o.n;
    }
  };
  const auto fn = [](std::uint64_t seed, Sum& acc) {
    acc.total += seed * seed;
    ++acc.n;
  };
  Sum expect;
  for (std::uint64_t s = 3; s < 3 + 200; ++s) fn(s, expect);
  for (unsigned workers : {1u, 2u, 3u, 5u, 8u}) {
    const Sum got = sweep_accumulate<Sum>(3, 200, fn, workers);
    EXPECT_EQ(got.total, expect.total) << workers;
    EXPECT_EQ(got.n, expect.n) << workers;
  }
}

TEST(SweepAccumulate, PropagatesExceptions) {
  struct Noop {
    void merge(Noop&&) {}
  };
  const auto fn = [](std::uint64_t seed, Noop&) {
    if (seed == 7) throw std::runtime_error("seed 7 exploded");
  };
  EXPECT_THROW(sweep_accumulate<Noop>(1, 16, fn, 4), std::runtime_error);
  EXPECT_THROW(sweep_accumulate<Noop>(1, 16, fn, 1), std::runtime_error);
}

/// Byte-level equality of two MatrixCells.
void expect_cells_identical(const MatrixCell& a, const MatrixCell& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.safety_violations, b.safety_violations);
  EXPECT_EQ(a.termination_failures, b.termination_failures);
  EXPECT_EQ(a.liveness_failures, b.liveness_failures);
  ASSERT_EQ(a.example_violations.size(), b.example_violations.size());
  for (std::size_t i = 0; i < a.example_violations.size(); ++i) {
    EXPECT_EQ(a.example_violations[i], b.example_violations[i]) << i;
  }
}

TEST(MatrixRunner, StreamingMatchesBufferedReference) {
  // The streaming fold (worker-local accumulators, no buffered RunRecords)
  // must produce byte-identical cells to the buffered reference — counts
  // *and* the capped example-violation list, which exercises the
  // (seed, ordinal)-ordered merge. The interledger-atomic cell under
  // partial synchrony reliably produces violations to compare.
  const struct {
    ProtocolKind protocol;
    Regime regime;
  } cells[] = {
      {ProtocolKind::kTimeBounded, Regime::kSynchronyConforming},
      {ProtocolKind::kInterledgerAtomic, Regime::kPartialSynchrony},
      {ProtocolKind::kUniversalNaive, Regime::kSynchronyHighDrift},
  };
  for (const auto& c : cells) {
    const auto streamed = run_matrix_cell(c.protocol, c.regime, 2, 6);
    const auto buffered = run_matrix_cell_buffered(c.protocol, c.regime, 2, 6);
    expect_cells_identical(streamed, buffered);
  }
}

TEST(MatrixRunner, OnlineVerdictsMatchPostMortemAcrossTheoremMatrix) {
  // The acceptance differential: every (protocol, regime) cell of the
  // theorem matrix, each seed run twice — once stopped at its deciding
  // event, once to the full horizon — with online verdicts required to
  // equal the post-mortem checkers event-for-event (the runner throws on
  // any divergence).
  const std::vector<ProtocolKind> protocols{
      ProtocolKind::kUniversalNaive,    ProtocolKind::kTimeBounded,
      ProtocolKind::kInterledgerAtomic, ProtocolKind::kWeakTrusted,
      ProtocolKind::kWeakContract,      ProtocolKind::kWeakCommittee};
  const std::vector<Regime> regimes{
      Regime::kSynchronyConforming, Regime::kSynchronyHighDrift,
      Regime::kPartialSynchrony, Regime::kPartialSynchronyAdversarial};
  for (ProtocolKind p : protocols) {
    for (Regime r : regimes) {
      const auto cell = run_matrix_cell_differential(p, r, 2, 3);
      EXPECT_EQ(cell.runs, 3u);
    }
  }
}

TEST(MatrixRunner, EarlyStopCellMatchesFullHorizonCell) {
  // Whole-cell equality (verdict counters AND the capped violation-example
  // list) between the early-stopping default and the watch-only full
  // horizon. The adversarial atomic cell reliably produces violations, so
  // the example strings exercise the frozen-at-stop holdings too.
  const struct {
    ProtocolKind protocol;
    Regime regime;
  } cells[] = {
      {ProtocolKind::kWeakContract, Regime::kSynchronyConforming},
      {ProtocolKind::kInterledgerAtomic, Regime::kPartialSynchrony},
      {ProtocolKind::kWeakCommittee, Regime::kPartialSynchronyAdversarial},
      {ProtocolKind::kUniversalNaive, Regime::kSynchronyHighDrift},
  };
  for (const auto& c : cells) {
    CellOptions stop;  // default: online + early stop
    CellOptions watch;
    watch.online.early_stop = false;
    const auto early = run_matrix_cell(c.protocol, c.regime, 2, 5, 1, stop);
    const auto full = run_matrix_cell(c.protocol, c.regime, 2, 5, 1, watch);
    expect_cells_identical(early, full);
    EXPECT_EQ(full.early_stops, 0u);
    // Early termination must never execute more events than the full run.
    EXPECT_LE(early.events_total, full.events_total);
  }
}

TEST(MatrixRunner, StreamingCellIsWorkerCountInvariant) {
  // Same cell computed with the pool free to shard vs. forced inline:
  // results must not depend on sharding. run_matrix_cell has no workers
  // knob by design, so pin the inline case by nesting it inside a
  // *pooled* outer sweep (2 seeds, 2 workers — the w==1 shortcut skips
  // the pool and would leave the nested sweep free to shard): every
  // draining thread is marked in-sweep, so each nested cell runs on the
  // single-threaded inline path.
  const auto nested = parallel_sweep<MatrixCell>(
      0, 2,
      [](std::uint64_t) {
        return run_matrix_cell(ProtocolKind::kInterledgerAtomic,
                               Regime::kPartialSynchrony, 2, 6);
      },
      2);
  const auto direct = run_matrix_cell(ProtocolKind::kInterledgerAtomic,
                                      Regime::kPartialSynchrony, 2, 6);
  expect_cells_identical(nested[0], direct);
  expect_cells_identical(nested[1], direct);
}

// ------------------------------------------- shared Fig. 2 automata cache

// The time-bounded runner takes its automata from a cache local to the
// calling thread, keyed on everything their structure depends on. These
// presets differ from one another in one part of that key each, so a key
// that drops a part hands one of them the other's automata.
constexpr int kPresetCount = 5;

proto::RunRecord run_preset(int preset, std::uint64_t seed) {
  const props::OnlineOptions full{/*enabled=*/true, /*early_stop=*/false};
  switch (preset) {
    case 0:  // the paper's schedule, rho = 1e-3
      return run_cell_seed(ProtocolKind::kTimeBounded,
                           Regime::kSynchronyConforming, 2, seed, full);
    case 1:  // the schedule sized for rho = 0.15
      return run_cell_seed(ProtocolKind::kTimeBounded,
                           Regime::kSynchronyHighDrift, 2, seed, full);
    case 2:  // the naive schedule
      return run_cell_seed(ProtocolKind::kUniversalNaive,
                           Regime::kSynchronyHighDrift, 2, seed, full);
    case 3: {  // Thm 2's impatient variant: give-up exits, stranded chloe_1
      proto::TimeBoundedConfig cfg = thm1_config(2, seed);
      cfg.online = full;
      const Duration horizon =
          proto::TimelockSchedule::drift_compensated(2, cfg.assumed)
              .horizon();
      const TimePoint release = TimePoint::origin() + horizon * 3;
      cfg.env.synchrony = proto::SynchronyKind::kPartiallySynchronous;
      cfg.env.gst = release;
      cfg.env.pre_gst_typical = Duration::millis(150);
      cfg.adversary = [release](const proto::Participants& parts,
                                const proto::TimelockSchedule&)
          -> std::unique_ptr<net::Adversary> {
        auto adv = std::make_unique<net::RuleBasedAdversary>();
        adv->hold_until(
            net::RuleBasedAdversary::all_of(
                {net::RuleBasedAdversary::kind_is(net::kinds::chi),
                 net::RuleBasedAdversary::to_process(parts.escrow(0))}),
            release);
        return adv;
      };
      cfg.customer_giveup = horizon;
      cfg.extra_horizon = horizon * 6;
      return proto::run_time_bounded(cfg);
    }
    default: {  // Bob forges chi: the interceptor rides shared automata
      proto::TimeBoundedConfig cfg = thm1_config(2, seed);
      cfg.online = full;
      cfg.byzantine = {proto::ByzantineAssignment::customer(
          2, proto::ByzStrategy::kFakeCert)};
      return proto::run_time_bounded(cfg);
    }
  }
}

TEST(Fig2AutomataCache, InterleavedPresetsMatchRunsDoneAlone) {
  // A heavy-drift run on the rho = 1e-3 schedule refunds in a few percent
  // of seeds only; 256 seeds make a schedule-blind key show.
  constexpr std::uint64_t kFirst = 1;
  constexpr std::size_t kSeeds = 256;

  // Alone: each preset on a fresh thread, whose cache holds nothing else.
  std::vector<std::vector<std::uint64_t>> alone(kPresetCount);
  for (int p = 0; p < kPresetCount; ++p) {
    std::thread([&, p] {
      for (std::size_t i = 0; i < kSeeds; ++i) {
        alone[p].push_back(record_digest(run_preset(p, kFirst + i)));
      }
    }).join();
  }
  // The impatient variant really strands and rescues chloe_1, and the
  // forged chi really never pays.
  const proto::RunRecord impatient = run_preset(3, kFirst);
  EXPECT_EQ(impatient.customer(1).final_state, std::string(proto::kGaveUp));
  EXPECT_FALSE(run_preset(4, kFirst).bob_paid());

  // Interleaved: A, B, C, D, E, A, B, ... on one thread.
  for (std::size_t i = 0; i < kSeeds; ++i) {
    for (int p = 0; p < kPresetCount; ++p) {
      EXPECT_EQ(record_digest(run_preset(p, kFirst + i)), alone[p][i])
          << "preset " << p << " seed " << kFirst + i;
    }
  }
  // The same order drained by a sweep: each worker sees the presets
  // interleaved in its own way.
  for (unsigned workers : {1u, 4u}) {
    const auto digests = parallel_sweep<std::uint64_t>(
        0, kSeeds * kPresetCount,
        [](std::uint64_t idx) {
          return record_digest(
              run_preset(static_cast<int>(idx % kPresetCount),
                         kFirst + idx / kPresetCount));
        },
        workers);
    for (std::size_t idx = 0; idx < digests.size(); ++idx) {
      EXPECT_EQ(digests[idx], alone[idx % kPresetCount][idx / kPresetCount])
          << "preset " << idx % kPresetCount << " seed "
          << kFirst + idx / kPresetCount << " workers " << workers;
    }
  }
}

// ------------------------------------------------ CellAccum merge contract

void expect_accums_identical(const CellAccum& a, const CellAccum& b) {
  EXPECT_EQ(a.safety_violations, b.safety_violations);
  EXPECT_EQ(a.termination_failures, b.termination_failures);
  EXPECT_EQ(a.liveness_failures, b.liveness_failures);
  EXPECT_EQ(a.early_stops, b.early_stops);
  EXPECT_EQ(a.decided_at_total.count(), b.decided_at_total.count());
  EXPECT_EQ(a.events_total, b.events_total);
  ASSERT_EQ(a.examples.size(), b.examples.size());
  for (std::size_t i = 0; i < a.examples.size(); ++i) {
    EXPECT_EQ(a.examples[i].seed, b.examples[i].seed) << i;
    EXPECT_EQ(a.examples[i].ordinal, b.examples[i].ordinal) << i;
    EXPECT_EQ(a.examples[i].text, b.examples[i].text) << i;
  }
}

/// A randomized accumulator: arbitrary counters (full 64-bit range),
/// negative decided-at sums included, 0..kMaxExamples examples with texts
/// that cover empty strings, embedded NULs and high bytes. Example seeds
/// are `part` modulo `parts` and strictly (seed, ordinal)-increasing, like
/// the accumulator of one worker's share of a sweep: parts made with the
/// same `parts` never share a seed.
CellAccum random_accum(Rng& rng, std::uint64_t part = 0,
                       std::uint64_t parts = 1) {
  CellAccum acc;
  acc.safety_violations = rng.next_u64();
  acc.termination_failures = rng.next_u64();
  acc.liveness_failures = rng.next_u64();
  acc.early_stops = rng.next_u64();
  acc.decided_at_total = Duration::micros(
      rng.next_int(std::numeric_limits<std::int32_t>::min(),
                   std::numeric_limits<std::int32_t>::max()));
  acc.events_total = rng.next_u64();
  const std::size_t n_examples = rng.next_below(CellAccum::kMaxExamples + 1);
  std::uint64_t seed = rng.next_below(50);
  std::uint32_t ordinal = static_cast<std::uint32_t>(rng.next_below(3));
  for (std::size_t i = 0; i < n_examples; ++i) {
    if (i > 0) {
      if (rng.next_bool(0.3)) {
        ordinal += 1 + static_cast<std::uint32_t>(rng.next_below(2));
      } else {
        seed += 1 + rng.next_below(9);
        ordinal = static_cast<std::uint32_t>(rng.next_below(3));
      }
    }
    CellAccum::Example ex;
    ex.seed = seed * parts + part;
    ex.ordinal = ordinal;
    const std::size_t len = rng.next_below(40);
    for (std::size_t c = 0; c < len; ++c) {
      ex.text.push_back(static_cast<char>(rng.next_below(256)));
    }
    acc.examples.push_back(std::move(ex));
  }
  return acc;
}

TEST(CellAccumMerge, MergingADefaultAccumIsANoop) {
  // Idle SweepPool slots fold nothing and are merged all the same, on
  // either side of the merge.
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    const CellAccum populated = random_accum(rng);
    CellAccum left = populated;
    left.merge(CellAccum{});
    expect_accums_identical(left, populated);
    CellAccum right;
    CellAccum copy = populated;
    right.merge(std::move(copy));
    expect_accums_identical(right, populated);
  }
  CellAccum empty;
  empty.merge(CellAccum{});
  expect_accums_identical(empty, CellAccum{});
}

TEST(CellAccumMerge, EveryMergeOrderGivesIdenticalFields) {
  // k workers' parts folded in every one of the k! orders: the sums wrap
  // alike and the example list is always the (seed, ordinal)-lowest
  // kMaxExamples of all parts together.
  Rng rng(99);
  for (int round = 0; round < 60; ++round) {
    const std::size_t k = 1 + rng.next_below(5);
    std::vector<CellAccum> parts;
    for (std::size_t i = 0; i < k; ++i) {
      parts.push_back(random_accum(rng, i, k));
    }

    CellAccum want;
    std::vector<CellAccum::Example> all;
    for (const CellAccum& p : parts) {
      want.safety_violations += p.safety_violations;
      want.termination_failures += p.termination_failures;
      want.liveness_failures += p.liveness_failures;
      want.early_stops += p.early_stops;
      want.decided_at_total = want.decided_at_total + p.decided_at_total;
      want.events_total += p.events_total;
      all.insert(all.end(), p.examples.begin(), p.examples.end());
    }
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      return std::pair(a.seed, a.ordinal) < std::pair(b.seed, b.ordinal);
    });
    all.resize(std::min(all.size(), CellAccum::kMaxExamples));
    want.examples = all;

    std::vector<std::size_t> order(k);
    std::iota(order.begin(), order.end(), 0);
    do {
      CellAccum got;
      for (const std::size_t i : order) {
        CellAccum copy = parts[i];  // merge consumes
        got.merge(std::move(copy));
      }
      expect_accums_identical(got, want);
    } while (std::next_permutation(order.begin(), order.end()));
  }
}

}  // namespace
}  // namespace xcp::exp

#include "exp/stats.hpp"

namespace xcp::exp {
namespace {

TEST(Summary, BasicMoments) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.1180, 1e-3);
  EXPECT_EQ(s.count(), 4u);
}

TEST(Summary, Percentiles) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(95), 95.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.median(), 50.0);
}

TEST(Summary, EmptyAndRangeErrors) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.mean(), std::logic_error);
  s.add(1.0);
  EXPECT_THROW(s.percentile(101), std::logic_error);
}

}  // namespace
}  // namespace xcp::exp
