// Work-conserving micro-batching queue — the daemon's front door to a
// Server. Submit() enqueues a raw request frame plus a completion
// callback. Each of max(1, num_threads) worker threads, as soon as it is
// free, pops up to batch_size pending frames and runs that batch start
// to finish: prepare + cache lookups, one EvaluateBatch, cache
// insertion, callbacks. A batch grows only while every worker is busy,
// so batch size follows the backlog and a lone request never waits for
// company. Batches run concurrently but are never split, so batching
// cannot change any response (serving_diff_test.cc holds this path
// byte-for-byte to Server::HandleFrames at every thread × batch × cache
// shape). Cache lookups happen when a worker takes a batch, so the
// hit/miss counters here depend on arrival timing — by design; the
// deterministic counter contract belongs to the sync path.
#ifndef DMT_SERVE_BATCH_QUEUE_H_
#define DMT_SERVE_BATCH_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/server.h"

namespace dmt::serve {

/// Asynchronous front door to a Server. Thread-safe Submit from any
/// number of connection threads. Must be destroyed before the Server it
/// wraps; the destructor drains every pending request first.
class BatchQueue {
 public:
  /// Called with the encoded response frame when the request completes.
  /// Runs on a queue worker; implementations must be thread-safe, and
  /// while one blocks its worker serves no other batch. Destroyed right
  /// after it runs, so it may own resources of its stream.
  using ResponseCallback = std::function<void(std::vector<std::byte>)>;

  explicit BatchQueue(Server* server);
  ~BatchQueue();

  BatchQueue(const BatchQueue&) = delete;
  BatchQueue& operator=(const BatchQueue&) = delete;

  /// Enqueues one request frame. The callback fires exactly once, even
  /// for malformed frames (they complete with an error response).
  void Submit(std::vector<std::byte> frame, ResponseCallback callback);

  /// Blocks until every request submitted before this call has had its
  /// callback invoked.
  void Flush();

 private:
  struct Item {
    std::vector<std::byte> frame;
    ResponseCallback callback;
    /// Telemetry stamp taken at Submit(). The worker credits submit ->
    /// prepare to the queue-wait histogram.
    double submit_ts_us = 0.0;
  };

  void WorkerLoop();
  void RunBatch(std::vector<Item>* items);

  Server* server_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<Item> queue_;
  size_t busy_workers_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace dmt::serve

#endif  // DMT_SERVE_BATCH_QUEUE_H_
