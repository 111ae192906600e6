#pragma once
// Parallel seed sweeps. The simulator is single-threaded and deterministic;
// throughput comes from running many independent (seed, config) simulations
// concurrently — the classic embarrassingly-parallel HPC pattern.
//
// Work distribution: a process-wide persistent worker pool (SweepPool).
// Workers pull seed indices off an atomic counter, so a slow seed never
// holds a whole batch hostage the way the old fixed-size std::async batches
// did (no barrier until the sweep itself completes), and threads are reused
// across sweeps instead of being spawned per batch. The calling thread
// participates as a worker, so `workers = 1` runs perfectly inline.
//
// Determinism: each result is written to its own slot, indexed by seed, and
// every fn(seed) is a pure function of the seed (the runtime is sharded:
// thread-local body pools, a pre-seeded read-mostly MsgKind table), so the
// returned vector is bit-identical for workers = 1 and workers = N.
//
// parallel_sweep/count_where are templates over the callable: the sweep
// function is invoked directly (inlined per seed), not through a per-seed
// std::function indirection; the pool erases the *sweep*, never the seed.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace xcp::exp {

namespace detail {

/// Persistent worker pool shared by every sweep in the process. Threads are
/// created on demand (up to the largest worker count ever requested), sleep
/// between sweeps, and drain seeds from an atomic cursor during one.
class SweepPool {
 public:
  /// One unit of sweep work: ctx is the sweep's stack-owned state.
  /// `worker` is the ordinal of the draining thread within this sweep —
  /// 0 for the calling thread, 1..workers-1 for pool threads — so a sweep
  /// can keep race-free worker-local state (sweep_accumulate's
  /// accumulators) without any thread-identity bookkeeping of its own.
  using Task = void (*)(void* ctx, std::uint64_t seed, std::size_t index,
                        unsigned worker);

  static SweepPool& instance();

  /// Runs task(ctx, first_seed + i, i, worker) for i in [0, count) across
  /// up to `workers` threads (0 = hardware concurrency), including the
  /// caller. Returns when every index has completed; completion of index i
  /// happens-before the return (results are safe to read unlocked).
  void run(std::uint64_t first_seed, std::size_t count, unsigned workers,
           Task task, void* ctx);

  /// How many worker-local accumulator slots a streaming sweep of `count`
  /// units needs for a `workers` request: the request clamped to `count`,
  /// with 0 meaning the hardware thread count (asked once per process and
  /// then reused), and 1 when `count` is 0 or 1. It is an upper bound on
  /// the ordinals run() hands out: a nested sweep (from inside a sweep
  /// task) runs inline as ordinal 0, leaving the other slots untouched.
  static unsigned resolved_workers(std::size_t count, unsigned workers);

  ~SweepPool();

 private:
  SweepPool() = default;
  void worker_main(unsigned id);
  void drain(Task task, void* ctx, std::uint64_t first_seed,
             std::size_t count, unsigned worker);

  std::mutex run_mu_;  // serialises concurrent run() callers
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::vector<std::thread> threads_;
  unsigned busy_ = 0;  // workers currently draining; run() returns at 0
  // Current job, published under mu_ with a bumped epoch.
  Task task_ = nullptr;
  void* ctx_ = nullptr;
  std::uint64_t first_seed_ = 0;
  std::size_t count_ = 0;
  unsigned active_ = 0;  // pool threads allowed to join the current job
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
  std::atomic<std::size_t> next_{0};     // seed-index cursor
  std::atomic<std::size_t> pending_{0};  // indices not yet completed
};

}  // namespace detail

/// Runs `fn(seed)` for seeds [first, first+count) across `workers` threads
/// (0 = hardware concurrency). Results are returned in seed order and are
/// identical for any worker count. R must be default-constructible (as it
/// always was); exceptions thrown by fn are rethrown after the sweep.
template <typename R, typename Fn>
std::vector<R> parallel_sweep(std::uint64_t first_seed, std::size_t count,
                              Fn&& fn, unsigned workers = 0) {
  static_assert(std::is_default_constructible_v<R>,
                "sweep result type must be default-constructible");
  if (count == 0) return {};
  // Workers write into a plain array, one slot per seed: no vector<bool>
  // proxy-reference sharing, no cross-seed synchronisation.
  std::unique_ptr<R[]> slots(new R[count]);
  struct Ctx {
    std::remove_reference_t<Fn>* fn;
    R* slots;
    std::exception_ptr error;
    std::mutex mu;
    std::atomic<bool> failed{false};
  };
  Ctx ctx{std::addressof(fn), slots.get(), nullptr, {}, {}};
  detail::SweepPool::instance().run(
      first_seed, count, workers,
      [](void* c, std::uint64_t seed, std::size_t index, unsigned) {
        auto* x = static_cast<Ctx*>(c);
        // Once any seed has thrown, the sweep's result is the exception:
        // skip the remaining (potentially expensive) runs instead of
        // finishing a doomed sweep.
        if (x->failed.load(std::memory_order_relaxed)) return;
        try {
          x->slots[index] = (*x->fn)(seed);
        } catch (...) {
          x->failed.store(true, std::memory_order_relaxed);
          const std::lock_guard<std::mutex> lock(x->mu);
          if (!x->error) x->error = std::current_exception();
        }
      },
      &ctx);
  if (ctx.error) std::rethrow_exception(ctx.error);
  std::vector<R> results;
  results.reserve(count);
  std::move(slots.get(), slots.get() + count, std::back_inserter(results));
  return results;
}

/// Counts how many sweep results satisfy a predicate.
template <typename R, typename Pred>
std::size_t count_where(const std::vector<R>& results, Pred&& pred) {
  std::size_t n = 0;
  for (const auto& r : results) n += pred(r) ? 1 : 0;
  return n;
}

/// Streaming sweep: runs `fn(seed, acc)` for seeds [first, first+count),
/// folding each seed's contribution into a worker-local accumulator the
/// moment the seed completes — live state is O(workers), not O(seeds), so
/// nothing (traces, RunRecords) is buffered across the sweep. Worker
/// accumulators are merged with `acc.merge(std::move(other))` after
/// quiescence and the combined Acc is returned.
///
/// Determinism contract: fn must be a pure function of the seed (as for
/// parallel_sweep), each worker receives its seeds in increasing order, and
/// merge must be insensitive to how seeds were partitioned across workers —
/// sums, min/max and seed-keyed ordered merges all qualify. Merging a
/// default-constructed Acc must be a no-op (idle worker slots merge too).
/// Under that contract the result is bit-identical for any worker count.
template <typename Acc, typename Fn>
Acc sweep_accumulate(std::uint64_t first_seed, std::size_t count, Fn&& fn,
                     unsigned workers = 0) {
  static_assert(std::is_default_constructible_v<Acc>,
                "sweep accumulator must be default-constructible");
  if (count == 0) return Acc{};
  const unsigned w = detail::SweepPool::resolved_workers(count, workers);
  // One accumulator per worker ordinal; the pool hands every task its
  // ordinal, so no two threads ever touch the same slot.
  std::unique_ptr<Acc[]> accs(new Acc[w]);
  struct Ctx {
    std::remove_reference_t<Fn>* fn;
    Acc* accs;
    std::exception_ptr error;
    std::mutex mu;
    std::atomic<bool> failed{false};
  };
  Ctx ctx{std::addressof(fn), accs.get(), nullptr, {}, {}};
  detail::SweepPool::instance().run(
      first_seed, count, w,
      [](void* c, std::uint64_t seed, std::size_t, unsigned worker) {
        auto* x = static_cast<Ctx*>(c);
        if (x->failed.load(std::memory_order_relaxed)) return;
        try {
          (*x->fn)(seed, x->accs[worker]);
        } catch (...) {
          x->failed.store(true, std::memory_order_relaxed);
          const std::lock_guard<std::mutex> lock(x->mu);
          if (!x->error) x->error = std::current_exception();
        }
      },
      &ctx);
  if (ctx.error) std::rethrow_exception(ctx.error);
  for (unsigned i = 1; i < w; ++i) accs[0].merge(std::move(accs[i]));
  return std::move(accs[0]);
}

}  // namespace xcp::exp
