#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/env.h"

namespace nfvm::util {
namespace {

/// Set while the current thread runs region bodies: always on a pool
/// worker, and on the submitting thread for the length of its region. A
/// parallel_for from such a thread runs inline rather than wait on a region
/// it is part of.
thread_local bool t_in_region = false;

void run_inline(std::size_t count, const std::function<void(std::size_t)>& body) {
  for (std::size_t i = 0; i < count; ++i) body(i);
}

}  // namespace

struct ThreadPool::Impl {
  std::vector<std::thread> workers;

  // One region at a time: the submitting thread holds run_mu for the whole
  // region, so another thread arriving mid-region fails the try_lock and
  // runs inline instead of blocking. The submitter itself never reaches
  // the try_lock while it holds run_mu: t_in_region sends it inline first.
  std::mutex run_mu;

  // Region state. body/count are published under state_mu before workers
  // observe the new region_seq, and cleared only after `drainers` drops to
  // zero, so the lock-free reads inside the claim loop are safe.
  std::mutex state_mu;
  std::condition_variable cv_work;  // workers wait here for a region
  std::condition_variable cv_done;  // submitter waits here for completion
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t count = 0;
  std::atomic<std::size_t> next{0};
  std::size_t completed = 0;
  std::size_t drainers = 0;      // threads currently inside the claim loop
  std::uint64_t region_seq = 0;  // bumped per region so workers wake once each
  bool shutdown = false;
  std::exception_ptr first_error;

  explicit Impl(std::size_t num_threads) {
    const std::size_t spawned = num_threads > 1 ? num_threads - 1 : 0;
    workers.reserve(spawned);
    for (std::size_t i = 0; i < spawned; ++i) {
      workers.emplace_back([this] { worker_loop(); });
    }
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lock(state_mu);
      shutdown = true;
    }
    cv_work.notify_all();
    for (std::thread& t : workers) t.join();
  }

  void worker_loop() {
    t_in_region = true;
    std::uint64_t seen_seq = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(state_mu);
        cv_work.wait(lock, [&] { return shutdown || region_seq != seen_seq; });
        if (shutdown) return;
        seen_seq = region_seq;
        ++drainers;
      }
      drain_region();
    }
  }

  /// Claims and executes indices until the region is exhausted. The caller
  /// must have incremented `drainers` under state_mu first.
  void drain_region() {
    std::size_t done_here = 0;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      try {
        (*body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state_mu);
        if (!first_error) first_error = std::current_exception();
      }
      ++done_here;
    }
    {
      std::lock_guard<std::mutex> lock(state_mu);
      completed += done_here;
      --drainers;
      if (completed == count && drainers == 0) cv_done.notify_all();
    }
  }

  void run_region(std::size_t n, const std::function<void(std::size_t)>& fn) {
    {
      std::unique_lock<std::mutex> lock(state_mu);
      // A worker that woke late for an already-finished region may still be
      // in its (empty) claim loop; let it leave before republishing state.
      cv_done.wait(lock, [&] { return drainers == 0; });
      body = &fn;
      count = n;
      completed = 0;
      first_error = nullptr;
      next.store(0, std::memory_order_relaxed);
      ++region_seq;
      ++drainers;  // the submitter works too
    }
    cv_work.notify_all();
    drain_region();
    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> lock(state_mu);
      cv_done.wait(lock, [&] { return completed == count && drainers == 0; });
      body = nullptr;
      error = first_error;
    }
    if (error) std::rethrow_exception(error);
  }
};

ThreadPool::ThreadPool(std::size_t num_threads)
    : impl_(std::make_unique<Impl>(num_threads)) {}

ThreadPool::~ThreadPool() = default;

std::size_t ThreadPool::num_threads() const noexcept {
  return impl_->workers.size() + 1;
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  NFVM_COUNTER_ADD("pool.tasks", count);
  if (count == 1 || impl_->workers.empty() || t_in_region) {
    run_inline(count, body);
    return;
  }
  // Another thread's region in flight on this pool: serialize instead of
  // waiting for it.
  std::unique_lock<std::mutex> region(impl_->run_mu, std::try_to_lock);
  if (!region.owns_lock()) {
    run_inline(count, body);
    return;
  }
  NFVM_COUNTER_INC("pool.parallel_regions");
  struct InRegion {
    InRegion() { t_in_region = true; }
    ~InRegion() { t_in_region = false; }
  } in_region;
  impl_->run_region(count, body);
}

namespace {

std::unique_ptr<ThreadPool>& global_pool_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

std::size_t clamp_threads(std::int64_t n) {
  return static_cast<std::size_t>(std::clamp<std::int64_t>(n, 1, 256));
}

}  // namespace

ThreadPool& ThreadPool::global() {
  auto& slot = global_pool_slot();
  if (!slot) {
    slot = std::make_unique<ThreadPool>(clamp_threads(env_int("NFVM_THREADS", 1)));
  }
  return *slot;
}

void ThreadPool::set_global_threads(std::size_t num_threads) {
  global_pool_slot() =
      std::make_unique<ThreadPool>(clamp_threads(static_cast<std::int64_t>(num_threads)));
}

}  // namespace nfvm::util
