// Minimal fixed-size thread pool for the parallel construction pipeline.
//
// The WC-INDEX build dispatches one task per root within a rank batch and
// barriers between batches; a persistent pool avoids paying thread spawn
// cost per batch (batches can be as small as the thread count). Tasks
// receive the index of the worker executing them, so callers can hand each
// worker its own scratch state (BuildWorkspace) without synchronization.

#ifndef WCSD_UTIL_THREAD_POOL_H_
#define WCSD_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wcsd {

/// A thread-count option's value: 0 = hardware concurrency (min 1), any
/// other value as given. The build and the serving engine share it.
inline size_t ResolveThreads(size_t num_threads) {
  if (num_threads != 0) return num_threads;
  size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Fixed pool of worker threads executing submitted tasks FIFO. Submit and
/// Wait are intended to be called from one controller thread.
class ThreadPool {
 public:
  /// A unit of work; receives the executing worker's index in
  /// [0, num_threads).
  using Task = std::function<void(size_t worker)>;

  explicit ThreadPool(size_t num_threads) {
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this, i] { WorkerLoop(i); });
    }
  }

  ~ThreadPool() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      stopping_ = true;
    }
    task_ready_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution.
  void Submit(Task task) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      tasks_.push_back(std::move(task));
      ++unfinished_;
    }
    task_ready_.notify_one();
  }

  /// Blocks until every submitted task has finished executing.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    all_done_.wait(lock, [this] { return unfinished_ == 0; });
  }

  /// Number of worker threads.
  size_t size() const { return workers_.size(); }

 private:
  void WorkerLoop(size_t worker) {
    for (;;) {
      Task task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        task_ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
        if (tasks_.empty()) return;  // stopping_ with a drained queue
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
      task(worker);
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (--unfinished_ == 0) all_done_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::deque<Task> tasks_;
  size_t unfinished_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace wcsd

#endif  // WCSD_UTIL_THREAD_POOL_H_
