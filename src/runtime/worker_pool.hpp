// A persistent pool of worker threads for batched VM dispatches.
//
// run_vm_batched (runtime/vm) splits a batch's SoA lanes into contiguous
// chunks, one per worker. Spawning N-1 std::threads per request costs
// ~100µs each — visible on warm-serve latencies — so the service layer
// keeps one WorkerPool alive across requests and every dispatch borrows
// threads from it.
//
// The pool is deliberately dumb: a mutex-protected queue of (job, index)
// tasks and lazily spawned threads. Its locks are touched twice per
// dispatch, not per chunk.
//
// run(n, job) executes job(0..n-1) with the *calling* thread running
// job(0). That guarantees every dispatch owns at least one worker even
// when the pool is saturated by concurrent runs — and because the chunk
// loop claims chunks off a shared counter, any single worker can finish
// a whole batch by itself, so a dispatch never waits on pool capacity
// for correctness, only for speed. Queued participants that no thread
// has claimed by the time the caller's job returns are simply cancelled.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace systolize {

class WorkerPool {
 public:
  /// `max_threads` bounds the pool (0 = hardware concurrency).
  explicit WorkerPool(unsigned max_threads = 0);
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  ~WorkerPool();

  /// Run job(0), job(1), ..., job(n-1) and return when every started
  /// participant has returned. job(0) runs on the calling thread; the
  /// rest are offered to pool threads (spawned lazily up to the cap).
  /// Participants still unclaimed when the caller's own job returns are
  /// cancelled, so `job` must tolerate any subset of indices 1..n-1
  /// never running. Safe to call from multiple threads concurrently.
  void run(unsigned n, const std::function<void(unsigned)>& job);

  [[nodiscard]] unsigned capacity() const noexcept { return max_threads_; }
  /// Threads actually spawned so far (monotonic; for stats).
  [[nodiscard]] unsigned spawned() const;

 private:
  /// One parallel run's shared state; lives on the caller's stack.
  struct Batch {
    const std::function<void(unsigned)>* job = nullptr;
    unsigned outstanding = 0;  ///< queued-or-running participants
    std::condition_variable done;
  };
  struct Task {
    Batch* batch = nullptr;
    unsigned index = 0;
  };

  void worker_loop();

  unsigned max_threads_ = 0;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Task> queue_;
  std::vector<std::thread> threads_;
  bool shutdown_ = false;
};

}  // namespace systolize
