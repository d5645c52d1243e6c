#include "serve/batch_queue.h"

#include <algorithm>
#include <span>
#include <utility>

#include "core/check.h"

namespace dmt::serve {

BatchQueue::BatchQueue(Server* server) : server_(server) {
  DMT_CHECK(server_ != nullptr);
  const size_t workers = std::max<size_t>(1, server_->options().num_threads);
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

BatchQueue::~BatchQueue() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  // Workers leave only once the queue is empty, so joining drains it.
  for (std::thread& worker : workers_) worker.join();
}

void BatchQueue::Submit(std::vector<std::byte> frame,
                        ResponseCallback callback) {
  const double submit_ts = server_->TelemetryNowUs();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    DMT_CHECK(!stopping_);
    queue_.push_back(
        Item{std::move(frame), std::move(callback), submit_ts});
  }
  work_available_.notify_one();
}

void BatchQueue::Flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock,
                 [this] { return queue_.empty() && busy_workers_ == 0; });
}

void BatchQueue::WorkerLoop() {
  std::vector<Item> items;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_available_.wait(lock,
                         [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and nothing left to drain
    const size_t take =
        std::min<size_t>(queue_.size(), server_->options().batch_size);
    for (size_t i = 0; i < take; ++i) {
      items.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    // A backlog beyond one batch belongs to the next idle worker, even
    // if its own Submit() wake-up went to a worker that was busy.
    if (!queue_.empty()) work_available_.notify_one();
    ++busy_workers_;
    lock.unlock();
    RunBatch(&items);
    items.clear();
    lock.lock();
    --busy_workers_;
    if (queue_.empty() && busy_workers_ == 0) all_done_.notify_all();
  }
}

void BatchQueue::RunBatch(std::vector<Item>* items) {
  std::vector<PreparedRequest> batch;
  batch.reserve(items->size());
  for (Item& item : *items) {
    batch.push_back(server_->Prepare(item.frame));
    server_->RecordQueueWait(&batch.back(), item.submit_ts_us);
  }
  std::vector<PreparedRequest*> pointers;
  pointers.reserve(batch.size());
  for (PreparedRequest& p : batch) {
    server_->LookupCache(&p);
    pointers.push_back(&p);
  }
  const std::span<PreparedRequest*> span(pointers);
  server_->CountBatch(span);
  server_->FoldTally(server_->EvaluateBatch(span));
  for (size_t i = 0; i < batch.size(); ++i) {
    server_->InsertCacheMisses(batch[i]);
    server_->RecordRequestDone(&batch[i]);
    // The callback is released as soon as it has run, not with the
    // batch: it may own its stream (the daemon's connection fd).
    std::exchange((*items)[i].callback, nullptr)(
        std::move(batch[i].encoded));
  }
}

}  // namespace dmt::serve
