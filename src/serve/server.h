// Request evaluation engine of the serving daemon: decodes frames,
// validates them against the loaded ModelBundle, evaluates micro-batches,
// and encodes responses. The perf idea is that a batch is the unit of
// staging — all classify records in a batch become one Dataset per model
// (one PredictAll call), every nearest-center query runs through the
// batched squared_euclidean_to_many kernel against the centers SoA staged
// at load, and each basket reads only the rule groups of the bundle's
// antecedent index that it can match.
//
// Determinism contract (served by tests/serve/serving_diff_test.cc): for
// a fixed frame sequence, HandleFrames() produces bit-identical response
// bytes and identical serve/* counter totals at every batch_size and
// num_threads, with the single exception of the batch-shape counters
// (serve/batches, serve/batch_bucket_*), which intentionally describe
// the batching itself. The argument:
//  - each response depends only on its own request and the immutable
//    bundle; batches partition requests in arrival order, so grouping
//    cannot change any per-request result;
//  - work counters (records/points/baskets/rules) are tallied per batch
//    and folded in batch order on the orchestrating thread;
//  - cache lookups all happen sequentially in request order on the
//    orchestrating thread *before* any batch is evaluated, and misses
//    are inserted in request order *after* every batch completed — so
//    hit/miss/insertion/eviction totals cannot depend on batch shape or
//    worker scheduling. (The async BatchQueue path trades this for
//    latency: each worker looks up when it takes a batch, so its cache
//    counters are timing-dependent; its responses are still
//    bit-identical.)
#ifndef DMT_SERVE_SERVER_H_
#define DMT_SERVE_SERVER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/thread_pool.h"
#include "obs/metrics.h"
#include "serve/lru_cache.h"
#include "serve/model_bundle.h"
#include "serve/protocol.h"

namespace dmt::serve {

/// Serving knobs.
struct ServeOptions {
  /// Largest accepted num_threads: the async BatchQueue starts that many
  /// workers itself, so the value must stay a sane thread count.
  static constexpr size_t kMaxThreads = 256;

  /// Upper bound on requests evaluated together as one batch (one
  /// EvaluateBatch call).
  uint32_t batch_size = 32;
  /// Batch-evaluation threads, at most kMaxThreads. Sync path: 0 or 1 =
  /// evaluate on the calling thread (the library-wide convention), >= 2
  /// = a pool of that many, built on first use. Async BatchQueue:
  /// max(1, num_threads) workers, each running whole batches.
  size_t num_threads = 0;
  /// Total rule-cache entries; 0 disables the cache.
  size_t cache_capacity = 0;
  size_t cache_shards = 8;
  /// Debug mode: recompute every cache hit and abort on any mismatch —
  /// the "asserted, not assumed" half of the cache contract.
  bool verify_cache_hits = false;
  /// Emit a structured obs::Log warning for any request whose total
  /// latency reaches this many microseconds; 0 disables.
  uint64_t slow_query_us = 0;

  core::Status Validate() const;
};

/// One decoded request staged for batch evaluation. Public only for the
/// BatchQueue, which drives the same prepare/evaluate/insert phases on
/// its own schedule.
struct PreparedRequest {
  Request request;
  /// Set when decode/validation failed; `encoded` already holds the
  /// error frame and the request skips evaluation.
  bool failed = false;
  /// The final response frame (filled at prepare time on failure,
  /// otherwise by EvaluateBatch).
  std::vector<std::byte> encoded;
  /// Kept after evaluation so cache insertion can reuse computed hits.
  Response response;

  // kRecommend staging: canonicalized (sorted, duplicate-free) baskets,
  // their cache keys, and any cached hits found at lookup time.
  std::vector<std::vector<uint32_t>> canonical_baskets;
  std::vector<std::string> cache_keys;
  std::vector<std::optional<std::vector<RuleHit>>> cached_hits;

  // Latency-telemetry stamps. All times are microseconds since the trace
  // epoch, so the per-request span lands on the same timebase as every
  // obs::Span.
  double start_ts_us = 0.0;  ///< Submit (async) or Prepare (sync) time.
  double prepare_us = 0.0;   ///< Decode + validate + canonicalize.
  double queue_us = 0.0;     ///< Async path: submit -> batch start.
  double eval_us = 0.0;      ///< Owning batch's evaluation time.
  uint64_t batch_id = 0;     ///< Process-wide batch sequence number.
  uint32_t batch_requests = 0;  ///< Size of the owning batch.
};

class Server {
 public:
  /// `bundle` must outlive the server (shared ownership). Aborts on
  /// invalid options (programming error; daemons validate flags first).
  Server(std::shared_ptr<const ModelBundle> bundle, ServeOptions options);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Convenience single-frame path: HandleFrames on a batch of one.
  std::vector<std::byte> HandleFrame(std::span<const std::byte> frame);

  /// Deterministic micro-batched path: partitions `frames` into batches
  /// of at most batch_size in order, evaluates batches (concurrently
  /// when num_threads >= 2), and returns one response frame per input
  /// frame, in input order. Malformed frames yield error responses in
  /// their slot; this function never fails.
  std::vector<std::vector<std::byte>> HandleFrames(
      const std::vector<std::vector<std::byte>>& frames);

  // -- phase API (used by HandleFrames and the async BatchQueue) -------

  /// Decode + validate one frame; bumps serve/requests (and serve/errors
  /// on failure). Thread-safe.
  PreparedRequest Prepare(std::span<const std::byte> frame);

  /// Cache lookups for a prepared kRecommend request, in basket order;
  /// bumps lookup/hit/miss counters. Thread-safe; calls made sequentially
  /// in arrival order give the deterministic hit/miss totals of the sync
  /// path.
  void LookupCache(PreparedRequest* prepared);

  /// Evaluates one batch (at most batch_size non-failed requests):
  /// fills each request's response + encoded frame. Thread-safe against
  /// other EvaluateBatch calls; bumps no global counters — work tallies
  /// (including per-basket scan counts for the deterministic histograms
  /// and the batch's evaluation time) are returned for ordered folding.
  struct BatchTally {
    uint64_t records_classified = 0;
    uint64_t points_assigned = 0;
    uint64_t baskets_scored = 0;
    /// Rule entries the antecedent-group merge visited (not the size of
    /// the rule set: a basket reads only the groups it can match).
    uint64_t rules_scanned = 0;
    /// Rule entries visited per scored basket, in basket order — folded
    /// into the serve/hist/rules_scanned histogram.
    std::vector<uint32_t> basket_rule_scans;
    /// Batch evaluation wall time.
    double eval_us = 0.0;
  };
  BatchTally EvaluateBatch(std::span<PreparedRequest*> batch) const;

  /// Folds a batch's tally into the registry counters and histograms.
  /// Call in batch order from one thread for deterministic
  /// interleaving-free totals (atomic adds make any order race-free and
  /// total-preserving).
  void FoldTally(const BatchTally& tally);

  /// Inserts the request's computed (missed) baskets into the cache in
  /// basket order; bumps insertion/eviction counters.
  void InsertCacheMisses(const PreparedRequest& prepared);

  /// Bumps the batch-shape counters for one batch and stamps the batch
  /// id / size onto its requests for the per-request telemetry.
  void CountBatch(std::span<PreparedRequest*> batch);

  /// Telemetry clock: microseconds since the trace epoch.
  double TelemetryNowUs() const;

  /// Async path: credits the submit -> batch-start wait to the queue-wait
  /// histogram and extends the request's lifetime stamp back to
  /// `submit_ts_us` so total latency includes the queue.
  void RecordQueueWait(PreparedRequest* prepared, double submit_ts_us);

  /// Finalizes one request's telemetry once its response frame is ready:
  /// total + per-type latency histograms, the per-request trace span
  /// (request id, batch id, cache hit/miss as args), and the slow-query
  /// log.
  void RecordRequestDone(PreparedRequest* prepared);

  /// Current serving stats as a JSON object (bundle inventory, options,
  /// serve/* counter totals, cache size).
  std::string StatsJson() const;

  const ServeOptions& options() const { return options_; }
  const ModelBundle& bundle() const { return *bundle_; }
  bool cache_enabled() const { return cache_ != nullptr; }

 private:
  core::Status ValidateRequest(const Request& request) const;
  PreparedRequest PrepareImpl(std::span<const std::byte> frame);
  void EvaluateClassifyGroup(std::span<PreparedRequest*> group,
                             BatchTally* tally) const;
  void EvaluateCluster(PreparedRequest* prepared, BatchTally* tally) const;
  void EvaluateRecommendGroup(std::span<PreparedRequest*> group,
                              BatchTally* tally) const;

  std::shared_ptr<const ModelBundle> bundle_;
  ServeOptions options_;
  /// Sync-path batch pool, built by the first HandleFrames call that has
  /// more than one batch to run and num_threads >= 2; the async
  /// BatchQueue runs on its own workers and never builds it.
  std::once_flag pool_once_;
  std::unique_ptr<core::ThreadPool> pool_;
  std::unique_ptr<ShardedLruCache> cache_;

  obs::Counter requests_;
  obs::Counter errors_;
  obs::Counter records_classified_;
  obs::Counter points_assigned_;
  obs::Counter baskets_scored_;
  obs::Counter rules_scanned_;
  obs::Counter batches_;
  obs::Counter cache_lookups_;
  obs::Counter cache_hits_;
  obs::Counter cache_misses_;
  obs::Counter cache_insertions_;
  obs::Counter cache_evictions_;
  /// Power-of-two batch-size histogram: bucket_counters_[i] counts
  /// batches with 2^(i-1) < size <= 2^i.
  std::vector<obs::Counter> bucket_counters_;

  // Deterministic work-shape histograms (part of the counter contract:
  // bit-identical at every batch size × thread count).
  obs::Histogram hist_basket_items_;
  obs::Histogram hist_rules_scanned_;
  // Latency histograms (wall-time valued, so only their _count is
  // deterministic).
  obs::Histogram lat_total_;
  obs::Histogram lat_prepare_;
  obs::Histogram lat_queue_;
  obs::Histogram lat_eval_;
  obs::Histogram lat_classify_;
  obs::Histogram lat_cluster_;
  obs::Histogram lat_recommend_;
  obs::Histogram lat_stats_;

  /// Process-wide batch sequence for trace/span correlation; never
  /// reset (ids only need to be unique, not dense).
  std::atomic<uint64_t> next_batch_id_{1};
};

}  // namespace dmt::serve

#endif  // DMT_SERVE_SERVER_H_
