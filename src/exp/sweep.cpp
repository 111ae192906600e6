#include "exp/sweep.hpp"

#include <algorithm>

namespace xcp::exp::detail {

namespace {
// Set while a thread — pool worker *or* the calling thread, which also
// executes tasks via drain() — is inside a sweep: a nested parallel_sweep
// on such a thread runs inline instead of deadlocking on the pool's
// non-recursive mutexes.
thread_local bool g_in_sweep = false;
}  // namespace

SweepPool& SweepPool::instance() {
  // Function-local static (not leaked): the destructor joins the workers at
  // static destruction, after all sweeps have completed.
  static SweepPool pool;
  return pool;
}

SweepPool::~SweepPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

unsigned SweepPool::resolved_workers(std::size_t count, unsigned workers) {
  if (count == 0) return 1;
  // Asked once per process: glibc answers hardware_concurrency() by
  // reading /sys on every call, and a one-seed sweep would pay that read
  // (twice: here and in run()) for every seed.
  static const unsigned hardware =
      std::max(1u, std::thread::hardware_concurrency());
  const unsigned w = workers != 0 ? workers : hardware;
  return static_cast<unsigned>(std::min<std::size_t>(w, count));
}

void SweepPool::drain(Task task, void* ctx, std::uint64_t first_seed,
                      std::size_t count, unsigned worker) {
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) break;
    task(ctx, first_seed + i, i, worker);
    // acq_rel: publishes this seed's result to whoever observes pending_
    // hit zero (the acquire load / wait in run()).
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_all();
    }
  }
}

void SweepPool::worker_main(unsigned id) {
  g_in_sweep = true;
  std::uint64_t seen_epoch = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [&] {
      return stop_ || (epoch_ != seen_epoch && id < active_);
    });
    if (stop_) return;
    seen_epoch = epoch_;
    const Task task = task_;
    void* ctx = ctx_;
    const std::uint64_t first_seed = first_seed_;
    const std::size_t count = count_;
    ++busy_;
    lock.unlock();
    // Worker ordinal id+1: the sweep's calling thread is ordinal 0.
    drain(task, ctx, first_seed, count, id + 1);
    lock.lock();
    if (--busy_ == 0) idle_cv_.notify_all();
  }
}

void SweepPool::run(std::uint64_t first_seed, std::size_t count,
                    unsigned workers, Task task, void* ctx) {
  if (count == 0) return;
  const unsigned w = resolved_workers(count, workers);
  if (w == 1 || g_in_sweep) {
    // Inline path: the workers=1 reference ordering, and nested sweeps on
    // any thread already inside a sweep (which must not re-enter the
    // pool's mutexes). Everything drains as worker ordinal 0.
    for (std::size_t i = 0; i < count; ++i) task(ctx, first_seed + i, i, 0);
    return;
  }
  // One sweep at a time: concurrent callers queue here rather than
  // clobbering each other's job state.
  const std::lock_guard<std::mutex> run_lock(run_mu_);
  // The caller participates in drain() below; mark it so a task that
  // itself sweeps runs inline instead of relocking run_mu_. Restored on
  // every exit path (task exceptions are captured by the caller's ctx, but
  // be robust anyway).
  struct InSweepGuard {
    ~InSweepGuard() { g_in_sweep = false; }
  } in_sweep_guard;
  g_in_sweep = true;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    while (threads_.size() < w - 1) {
      const unsigned id = static_cast<unsigned>(threads_.size());
      threads_.emplace_back([this, id] { worker_main(id); });
    }
    next_.store(0, std::memory_order_relaxed);
    pending_.store(count, std::memory_order_relaxed);
    task_ = task;
    ctx_ = ctx;
    first_seed_ = first_seed;
    count_ = count;
    active_ = w - 1;  // the caller is the w-th worker
    ++epoch_;
  }
  cv_.notify_all();
  drain(task, ctx, first_seed, count, /*worker=*/0);
  // The cursor is exhausted but stragglers may still be mid-seed; wait for
  // the last completion (the fetch_sub's release pairs with this acquire).
  for (;;) {
    const std::size_t p = pending_.load(std::memory_order_acquire);
    if (p == 0) break;
    pending_.wait(p, std::memory_order_acquire);
  }
  // Wait for every worker to leave drain() before returning: the next
  // sweep resets the shared cursor, which a worker still between its final
  // fetch_add and re-locking must not observe.
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return busy_ == 0; });
  // Invalidate the finished job while still holding the lock: a worker
  // that was signalled but never scheduled would otherwise still pass the
  // wake predicate later, read this job's (by then dangling) task/ctx, and
  // drain against the *next* sweep's reset cursor. With active_ cleared it
  // sleeps until the next job is published.
  active_ = 0;
}

}  // namespace xcp::exp::detail
