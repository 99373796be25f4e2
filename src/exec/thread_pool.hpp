#pragma once
/// \file thread_pool.hpp
/// \brief Fixed-size worker pool with a FIFO task queue and futures-based
/// submission.
///
/// The pool is the execution backbone of the batch-exploration subsystem
/// (see batch_engine.hpp): workers pull tasks off a single queue, results
/// travel back through std::future, and destruction drains the queue
/// before joining (graceful shutdown — no submitted task is dropped).
/// Submission after shutdown() throws ExecError.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace phonoc {

class ThreadPool {
 public:
  /// Upper bound on `workers` (guards against size_t wrap-around from
  /// negative command-line values); exceeding it throws InvalidArgument.
  static constexpr std::size_t kMaxWorkers = 4096;

  /// Spawn `workers` threads; 0 picks default_worker_count().
  explicit ThreadPool(std::size_t workers = 0);

  /// Graceful shutdown: every task already submitted still runs.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return workers_.size();
  }

  /// Submit a nullary callable; the future carries its return value (or
  /// the exception it threw).
  template <typename F>
  [[nodiscard]] std::future<std::invoke_result_t<std::decay_t<F>>> submit(
      F&& task) {
    using Result = std::invoke_result_t<std::decay_t<F>>;
    auto packaged = std::make_shared<std::packaged_task<Result()>>(
        std::forward<F>(task));
    auto future = packaged->get_future();
    enqueue([packaged]() { (*packaged)(); });
    return future;
  }

  /// Stop accepting work and join the workers after the queue drains.
  /// Safe to call repeatedly on a live pool (the destructor calls it
  /// too); like every member, it must not race the destructor itself.
  void shutdown();

  /// Number of workers used when the constructor is given 0: the
  /// hardware concurrency, with a floor of 1.
  [[nodiscard]] static std::size_t default_worker_count() noexcept;

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  bool stopping_ = false;
};

}  // namespace phonoc
