// Minimal fixed-size worker pool for deterministic index fan-out.
//
// The only primitive the library needs is parallel_for(count, body):
// run body(i) for every i in [0, count), blocking until all complete.
// Callers keep determinism by writing results into slot i and aggregating
// in index order afterwards — the schedule never leaks into the output.
//
// A pool with one thread (the default) executes everything inline in index
// order, so `--threads 1` / unset NFVM_THREADS is bit-identical to the
// pre-pool code by construction. Nested parallel_for calls (e.g.
// Appro_Multi fanning out combinations whose Steiner solver fans out
// terminal Dijkstras) serialize instead of deadlocking: a thread running
// region bodies (a pool worker, or the submitter during its region), or
// any thread arriving while a region is in flight, runs its loop inline.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace nfvm::util {

class ThreadPool {
 public:
  /// Spawns num_threads - 1 workers (the calling thread participates in
  /// every region). num_threads <= 1 spawns nothing.
  explicit ThreadPool(std::size_t num_threads = 1);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const noexcept;

  /// Runs body(i) for every i in [0, count); returns when all are done.
  /// Runs inline (in index order) when the pool is single-threaded, count
  /// <= 1, this thread is running region bodies (a nested call), or another
  /// region is in flight. The first exception thrown by any body is
  /// rethrown here after the region drains.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

  /// The process-wide pool every parallel loop in the library uses. Sized
  /// on first use from NFVM_THREADS (default 1, clamped to [1, 256]).
  static ThreadPool& global();

  /// Replaces the global pool (the CLI --threads flag). Must not race with
  /// a concurrent parallel_for on the old pool; call it from the main
  /// thread before any parallel work starts.
  static void set_global_threads(std::size_t num_threads);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace nfvm::util
