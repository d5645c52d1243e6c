// Fixed-size worker pool with a blocking Wait() barrier.
#ifndef DMT_CORE_THREAD_POOL_H_
#define DMT_CORE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace dmt::core {

/// Simple FIFO thread pool. Tasks must not throw.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least one).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution. Safe to call from any thread,
  /// including from inside a running task (Wait() then also covers the
  /// nested task, because the parent is still active when it enqueues).
  /// Submitting to a pool whose destructor has begun is a programming
  /// error and aborts via DMT_CHECK; because the destructor joins all
  /// workers, reaching that check from outside means the caller is racing
  /// a destroyed pool.
  void Submit(std::function<void()> task);

  /// Single-task variant returning a future for the task's result — the
  /// submission API of request/batch pipelines (serve's sync HandleFrames
  /// path), where the submitter needs completion signalling per task
  /// rather than a whole-pool Wait() barrier. Shares the FIFO queue with
  /// Submit(), so SubmitTask work and ParallelForChunks work interleave
  /// safely on one pool and Wait() covers SubmitTask work too. Tasks must
  /// not throw (pool contract; packaged_task would defer the exception
  /// into the future, hiding it from callers that never get()).
  template <typename F>
  auto SubmitTask(F&& fn)
      -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    Submit([task] { (*task)(); });
    return future;
  }

  /// Blocks until the pool is idle: the queue is empty and no task is
  /// running. Tasks submitted concurrently with a Wait() in progress (by
  /// other threads or by running tasks) extend that Wait(); a Submit that
  /// happens after Wait() observed the pool idle is covered by the next
  /// Wait() instead. Must not be called from inside a task — the calling
  /// task counts as active, so it would deadlock.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t active_tasks_ = 0;
  bool shutting_down_ = false;
};

/// Splits [begin, end) into contiguous chunks and runs `body(chunk_begin,
/// chunk_end)` across the pool; blocks until complete. A null pool runs
/// serially.
void ParallelForChunks(
    ThreadPool* pool, size_t begin, size_t end,
    const std::function<void(size_t, size_t)>& body);

}  // namespace dmt::core

#endif  // DMT_CORE_THREAD_POOL_H_
