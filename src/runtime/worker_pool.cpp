#include "runtime/worker_pool.hpp"

#include <algorithm>

namespace systolize {

WorkerPool::WorkerPool(unsigned max_threads) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  max_threads_ = max_threads == 0 ? hw : max_threads;
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    // The queue can only be non-empty here if a run() is still in flight,
    // which would be a caller bug (the pool must outlive its runs); any
    // remaining tasks are dropped.
    queue_.clear();
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

unsigned WorkerPool::spawned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<unsigned>(threads_.size());
}

void WorkerPool::run(unsigned n, const std::function<void(unsigned)>& job) {
  if (n <= 1) {
    job(0);
    return;
  }
  Batch batch;
  batch.job = &job;
  batch.outstanding = n - 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (unsigned i = 1; i < n; ++i) queue_.push_back(Task{&batch, i});
    // Lazily grow the pool toward the demand, up to the cap. Threads are
    // never retired: the whole point is reuse across runs.
    const std::size_t want =
        std::min<std::size_t>(max_threads_, threads_.size() + (n - 1));
    while (threads_.size() < want) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }
  work_cv_.notify_all();

  job(0);

  // The run is complete (a batched dispatch only returns from job(0)
  // once every chunk is claimed — stragglers exit immediately).
  // Cancel every participant still sitting in the queue so the Batch on
  // this stack cannot be touched after we return, then wait out the ones
  // a pool thread already claimed.
  std::unique_lock<std::mutex> lock(mu_);
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->batch == &batch) {
      it = queue_.erase(it);
      --batch.outstanding;
    } else {
      ++it;
    }
  }
  batch.done.wait(lock, [&] { return batch.outstanding == 0; });
}

void WorkerPool::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (shutdown_) return;
      task = queue_.front();
      queue_.pop_front();
    }
    (*task.batch->job)(task.index);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --task.batch->outstanding;
      // Notify under the lock: the Batch lives on the caller's stack and
      // is destroyed the moment the caller observes outstanding == 0, so
      // the notify must complete before this thread drops the mutex.
      task.batch->done.notify_one();
    }
  }
}

}  // namespace systolize
