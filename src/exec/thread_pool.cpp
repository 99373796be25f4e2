#include "exec/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace phonoc {

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) workers = default_worker_count();
  // Catches size_t wrap-around from negative CLI values before the OS
  // refuses to spawn the threads.
  require(workers <= kMaxWorkers,
          "ThreadPool: worker count " + std::to_string(workers) +
              " exceeds the sanity limit of " + std::to_string(kMaxWorkers));
  workers_.reserve(workers);
  try {
    for (std::size_t i = 0; i < workers; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  } catch (...) {
    // Thread spawn failed partway: join the ones already running so
    // their std::thread objects are not destroyed joinable.
    shutdown();
    throw;
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::enqueue(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_)
      throw ExecError("ThreadPool::enqueue: task submitted after shutdown");
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::shutdown() {
  // Claim the worker threads under the lock so repeated shutdown calls
  // on a live pool each join a disjoint set — later calls swap an
  // empty vector and return. (This does NOT license racing the
  // destructor: a member call concurrent with destruction is a
  // caller lifetime bug, as for any object.)
  std::vector<std::thread> claimed;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    claimed.swap(workers_);
  }
  work_cv_.notify_all();
  for (auto& worker : claimed)
    if (worker.joinable()) worker.join();
}

std::size_t ThreadPool::default_worker_count() noexcept {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Graceful shutdown: drain the queue before exiting.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task captures any exception into the future
  }
}

}  // namespace phonoc
