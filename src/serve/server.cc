#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <utility>

#include "core/check.h"
#include "core/string_util.h"
#include "obs/expose.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace dmt::serve {

using core::Result;
using core::Status;

Status ServeOptions::Validate() const {
  if (batch_size == 0 || batch_size > 4096) {
    return Status::InvalidArgument(
        core::StrFormat("batch_size %u out of range [1, 4096]", batch_size));
  }
  if (num_threads > kMaxThreads) {
    return Status::InvalidArgument(core::StrFormat(
        "num_threads %zu out of range [0, %zu]", num_threads, kMaxThreads));
  }
  if (cache_shards == 0 || cache_shards > 4096) {
    return Status::InvalidArgument(core::StrFormat(
        "cache_shards %zu out of range [1, 4096]", cache_shards));
  }
  if (verify_cache_hits && cache_capacity == 0) {
    return Status::InvalidArgument(
        "verify_cache_hits requires a cache (cache_capacity > 0)");
  }
  return Status::OK();
}

namespace {

/// Telemetry timebase: microseconds since the trace epoch, shared with
/// obs::Span so per-request spans align with phase spans.
double NowUs() { return obs::TraceSink::Global().EpochSeconds() * 1e6; }

uint64_t ToMicros(double us) {
  return us <= 0.0 ? 0 : static_cast<uint64_t>(std::llround(us));
}

const char* TypeName(RequestType type) {
  switch (type) {
    case RequestType::kClassify: return "classify";
    case RequestType::kAssignCluster: return "cluster";
    case RequestType::kRecommend: return "recommend";
    case RequestType::kStats: return "stats";
  }
  return "unknown";
}

/// A matched antecedent group's rule list, from its next unvisited entry.
struct GroupCursor {
  const uint32_t* next;
  const uint32_t* end;
};

/// The first top_k rules, in index order, whose antecedent `basket` holds
/// and whose consequent it does not. `basket` is canonical (sorted,
/// duplicate-free). Only the groups it can match are read: for each of
/// its items x, the groups whose first stored antecedent item is x,
/// kept when the basket holds their other items too, plus the
/// empty-antecedent group. A heap merges their ascending rule lists by
/// rule index, so the answer is the one a scan of every rule gives.
/// `rules_scanned` counts the rule entries the merge visits.
std::vector<RuleHit> ScoreBasket(const ModelBundle& bundle,
                                 std::span<const uint32_t> basket,
                                 uint32_t top_k,
                                 std::vector<GroupCursor>* heap,
                                 uint64_t* rules_scanned) {
  const AntecedentIndex& index = bundle.antecedent_index();
  auto holds = [basket](uint32_t item) {
    return std::binary_search(basket.begin(), basket.end(), item);
  };
  heap->clear();
  auto add = [&](size_t group) {
    const std::span<const uint32_t> ids = index.rule_ids(group);
    heap->push_back({ids.data(), ids.data() + ids.size()});
  };
  if (index.has_empty_group()) add(0);
  for (uint32_t item : basket) {
    const auto [first, last] = index.GroupsStartingWith(item);
    for (size_t g = first; g < last; ++g) {
      const std::span<const uint32_t> antecedent = index.antecedent(g);
      if (std::all_of(antecedent.begin() + 1, antecedent.end(), holds)) {
        add(g);
      }
    }
  }
  auto later = [](const GroupCursor& a, const GroupCursor& b) {
    return *a.next > *b.next;
  };
  std::make_heap(heap->begin(), heap->end(), later);
  const std::vector<assoc::AssociationRule>& rules = bundle.rules();
  std::vector<RuleHit> hits;
  while (!heap->empty() && hits.size() < top_k) {
    std::pop_heap(heap->begin(), heap->end(), later);
    GroupCursor& cursor = heap->back();
    const uint32_t r = *cursor.next++;
    if (cursor.next == cursor.end) {
      heap->pop_back();
    } else {
      std::push_heap(heap->begin(), heap->end(), later);
    }
    ++*rules_scanned;
    const assoc::AssociationRule& rule = rules[r];
    // A rule whose consequent the basket already holds recommends
    // nothing new.
    if (std::all_of(rule.consequent.begin(), rule.consequent.end(), holds)) {
      continue;
    }
    RuleHit hit;
    hit.rule_index = r;
    hit.confidence = rule.confidence;
    hit.lift = rule.lift;
    hit.consequent = rule.consequent;
    hits.push_back(std::move(hit));
  }
  return hits;
}

}  // namespace

Server::Server(std::shared_ptr<const ModelBundle> bundle,
               ServeOptions options)
    : bundle_(std::move(bundle)), options_(options) {
  DMT_CHECK(bundle_ != nullptr);
  DMT_CHECK(options_.Validate().ok());
  if (options_.cache_capacity > 0) {
    cache_ = std::make_unique<ShardedLruCache>(options_.cache_capacity,
                                               options_.cache_shards);
  }
  requests_ = obs::Counter("serve/requests");
  errors_ = obs::Counter("serve/errors");
  records_classified_ = obs::Counter("serve/records_classified");
  points_assigned_ = obs::Counter("serve/points_assigned");
  baskets_scored_ = obs::Counter("serve/baskets_scored");
  rules_scanned_ = obs::Counter("serve/rules_scanned");
  batches_ = obs::Counter("serve/batches");
  cache_lookups_ = obs::Counter("serve/cache_lookups");
  cache_hits_ = obs::Counter("serve/cache_hits");
  cache_misses_ = obs::Counter("serve/cache_misses");
  cache_insertions_ = obs::Counter("serve/cache_insertions");
  cache_evictions_ = obs::Counter("serve/cache_evictions");
  size_t buckets = 0;
  while ((1u << buckets) < options_.batch_size) ++buckets;
  bucket_counters_.reserve(buckets + 1);
  for (size_t i = 0; i <= buckets; ++i) {
    bucket_counters_.emplace_back(
        core::StrFormat("serve/batch_bucket_%u", 1u << i));
  }
  hist_basket_items_ = obs::Histogram("serve/hist/basket_items");
  hist_rules_scanned_ = obs::Histogram("serve/hist/rules_scanned");
  lat_total_ = obs::Histogram("serve/latency/total_us");
  lat_prepare_ = obs::Histogram("serve/latency/prepare_us");
  lat_queue_ = obs::Histogram("serve/latency/queue_us");
  lat_eval_ = obs::Histogram("serve/latency/eval_us");
  lat_classify_ = obs::Histogram("serve/latency/classify_us");
  lat_cluster_ = obs::Histogram("serve/latency/cluster_us");
  lat_recommend_ = obs::Histogram("serve/latency/recommend_us");
  lat_stats_ = obs::Histogram("serve/latency/stats_us");
}

Status Server::ValidateRequest(const Request& request) const {
  switch (request.type) {
    case RequestType::kClassify: {
      if (request.model == ClassifyModel::kTree && !bundle_->has_tree()) {
        return Status::FailedPrecondition(
            "no decision tree loaded in this bundle");
      }
      if (request.model != ClassifyModel::kTree && !bundle_->has_train()) {
        return Status::FailedPrecondition(
            "kNN/naive-Bayes need a bundled training dataset");
      }
      const std::vector<core::AttributeInfo>& schema = bundle_->schema();
      if (schema.empty()) {
        return Status::FailedPrecondition(
            "bundle has no classification schema");
      }
      if (request.dim != schema.size()) {
        return Status::InvalidArgument(core::StrFormat(
            "record dim %u does not match the serving schema (%zu "
            "attributes)",
            request.dim, schema.size()));
      }
      // Multiway tree splits index children by category code, so a code
      // must be valid for both the serving schema and (for tree queries)
      // the tree's captured dictionaries.
      size_t tree_attributes = schema.size();
      const std::vector<std::vector<std::string>>* tree_categories =
          nullptr;
      if (request.model == ClassifyModel::kTree) {
        tree_categories =
            &tree::internal::TreeAccess::AttributeCategories(
                bundle_->tree());
        tree_attributes = tree_categories->size();
        if (tree_attributes != schema.size()) {
          return Status::FailedPrecondition(core::StrFormat(
              "tree was trained on %zu attributes but the serving schema "
              "has %zu",
              tree_attributes, schema.size()));
        }
      }
      for (size_t a = 0; a < schema.size(); ++a) {
        if (schema[a].type != core::AttributeType::kCategorical) continue;
        size_t limit = schema[a].num_categories();
        if (tree_categories != nullptr && !(*tree_categories)[a].empty()) {
          limit = std::min(limit, (*tree_categories)[a].size());
        }
        for (uint32_t r = 0; r < request.count; ++r) {
          double v = request.values[size_t{r} * request.dim + a];
          if (!(v >= 0) || v != std::floor(v) ||
              v >= static_cast<double>(limit)) {
            return Status::InvalidArgument(core::StrFormat(
                "record %u attribute %zu (\"%s\"): %g is not a valid "
                "category code (expected an integer in [0, %zu))",
                r, a, schema[a].name.c_str(), v, limit));
          }
        }
      }
      return Status::OK();
    }
    case RequestType::kAssignCluster: {
      if (!bundle_->has_kmeans()) {
        return Status::FailedPrecondition(
            "no k-means model loaded in this bundle");
      }
      if (request.dim != bundle_->centers_soa().dim()) {
        return Status::InvalidArgument(core::StrFormat(
            "point dim %u does not match the model dim %zu", request.dim,
            bundle_->centers_soa().dim()));
      }
      return Status::OK();
    }
    case RequestType::kRecommend:
      if (!bundle_->has_rules()) {
        return Status::FailedPrecondition(
            "no rule set loaded in this bundle");
      }
      return Status::OK();
    case RequestType::kStats:
      return Status::OK();
  }
  return Status::Internal("unreachable request type");
}

PreparedRequest Server::Prepare(std::span<const std::byte> frame) {
  const double t0 = NowUs();
  PreparedRequest prepared = PrepareImpl(frame);
  prepared.start_ts_us = t0;
  prepared.prepare_us = NowUs() - t0;
  lat_prepare_.Record(ToMicros(prepared.prepare_us));
  return prepared;
}

PreparedRequest Server::PrepareImpl(std::span<const std::byte> frame) {
  requests_.Increment();
  PreparedRequest prepared;
  Result<Request> decoded = DecodeRequestFrame(frame);
  if (!decoded.ok()) {
    errors_.Increment();
    prepared.failed = true;
    prepared.encoded =
        EncodeResponseFrame(MakeErrorResponse(0, decoded.status()));
    return prepared;
  }
  prepared.request = std::move(decoded).value();
  Status valid = ValidateRequest(prepared.request);
  if (!valid.ok()) {
    errors_.Increment();
    prepared.failed = true;
    prepared.encoded = EncodeResponseFrame(
        MakeErrorResponse(prepared.request.id, valid));
    return prepared;
  }
  if (prepared.request.type == RequestType::kRecommend) {
    prepared.canonical_baskets.reserve(prepared.request.baskets.size());
    for (const std::vector<uint32_t>& basket : prepared.request.baskets) {
      std::vector<uint32_t> canonical = basket;
      std::sort(canonical.begin(), canonical.end());
      canonical.erase(std::unique(canonical.begin(), canonical.end()),
                      canonical.end());
      // Work-shape histogram: a pure function of the request stream, so
      // part of the deterministic counter contract.
      hist_basket_items_.Record(canonical.size());
      prepared.canonical_baskets.push_back(std::move(canonical));
    }
    prepared.cached_hits.assign(prepared.canonical_baskets.size(),
                                std::nullopt);
    if (cache_ != nullptr) {
      prepared.cache_keys.reserve(prepared.canonical_baskets.size());
      for (const std::vector<uint32_t>& canonical :
           prepared.canonical_baskets) {
        // Key = raw little-endian item ids + top_k: two baskets collide
        // iff they are the same canonical query.
        std::string key;
        key.reserve(canonical.size() * sizeof(uint32_t) +
                    sizeof(uint32_t));
        for (uint32_t item : canonical) {
          key.append(reinterpret_cast<const char*>(&item), sizeof(item));
        }
        uint32_t top_k = prepared.request.top_k;
        key.append(reinterpret_cast<const char*>(&top_k), sizeof(top_k));
        prepared.cache_keys.push_back(std::move(key));
      }
    }
  }
  return prepared;
}

void Server::LookupCache(PreparedRequest* prepared) {
  if (cache_ == nullptr || prepared->failed ||
      prepared->request.type != RequestType::kRecommend) {
    return;
  }
  for (size_t b = 0; b < prepared->cache_keys.size(); ++b) {
    cache_lookups_.Increment();
    std::optional<std::vector<RuleHit>> hit =
        cache_->Get(prepared->cache_keys[b]);
    if (hit.has_value()) {
      cache_hits_.Increment();
      prepared->cached_hits[b] = std::move(*hit);
    } else {
      cache_misses_.Increment();
    }
  }
}

void Server::EvaluateClassifyGroup(std::span<PreparedRequest*> group,
                                   BatchTally* tally) const {
  const std::vector<core::AttributeInfo>& schema = bundle_->schema();
  size_t total_rows = 0;
  for (PreparedRequest* p : group) total_rows += p->request.count;

  core::DatasetBuilder builder;
  for (size_t a = 0; a < schema.size(); ++a) {
    if (schema[a].type == core::AttributeType::kNumeric) {
      std::vector<double> column;
      column.reserve(total_rows);
      for (PreparedRequest* p : group) {
        for (uint32_t r = 0; r < p->request.count; ++r) {
          column.push_back(
              p->request.values[size_t{r} * p->request.dim + a]);
        }
      }
      builder.AddNumericColumn(schema[a].name, std::move(column));
    } else {
      std::vector<uint32_t> codes;
      codes.reserve(total_rows);
      for (PreparedRequest* p : group) {
        for (uint32_t r = 0; r < p->request.count; ++r) {
          codes.push_back(static_cast<uint32_t>(
              p->request.values[size_t{r} * p->request.dim + a]));
        }
      }
      builder.AddCategoricalColumn(schema[a].name, std::move(codes),
                                   schema[a].categories);
    }
  }
  // Test labels are required by the builder but ignored by prediction.
  builder.SetLabels(std::vector<uint32_t>(total_rows, 0), {"?"});
  Result<core::Dataset> built = builder.Build();
  const ClassifyModel model = group.front()->request.model;
  Result<std::vector<uint32_t>> predicted =
      !built.ok() ? Result<std::vector<uint32_t>>(built.status())
      : model == ClassifyModel::kTree
          ? Result<std::vector<uint32_t>>(
                bundle_->tree().PredictAll(built.value()))
      : model == ClassifyModel::kKnn
          ? bundle_->knn().PredictAll(built.value())
          : bundle_->naive_bayes().PredictAll(built.value());
  if (!predicted.ok()) {
    // Defensive: validation should have caught anything that gets here.
    for (PreparedRequest* p : group) {
      p->failed = true;
      p->encoded = EncodeResponseFrame(
          MakeErrorResponse(p->request.id, predicted.status()));
    }
    return;
  }
  const std::vector<uint32_t>& labels = predicted.value();
  size_t cursor = 0;
  for (PreparedRequest* p : group) {
    p->response.labels.assign(labels.begin() + cursor,
                              labels.begin() + cursor + p->request.count);
    cursor += p->request.count;
  }
  tally->records_classified += total_rows;
}

void Server::EvaluateCluster(PreparedRequest* prepared,
                             BatchTally* tally) const {
  const core::kernels::SoaBlock& soa = bundle_->centers_soa();
  const size_t k = soa.count();
  const size_t dim = soa.dim();
  const core::kernels::KernelOps& ops = core::kernels::Ops();
  std::vector<double> distances(k);
  prepared->response.clusters.reserve(prepared->request.count);
  prepared->response.cluster_dist_sq.reserve(prepared->request.count);
  for (uint32_t i = 0; i < prepared->request.count; ++i) {
    const double* point = prepared->request.values.data() + size_t{i} * dim;
    ops.squared_euclidean_to_many(point, soa.data(), k, k, dim,
                                  distances.data());
    // Strict < keeps the first of tied centers, matching the k-means
    // assignment convention.
    size_t best = 0;
    for (size_t c = 1; c < k; ++c) {
      if (distances[c] < distances[best]) best = c;
    }
    prepared->response.clusters.push_back(static_cast<uint32_t>(best));
    prepared->response.cluster_dist_sq.push_back(distances[best]);
  }
  tally->points_assigned += prepared->request.count;
}

void Server::EvaluateRecommendGroup(std::span<PreparedRequest*> group,
                                    BatchTally* tally) const {
  std::vector<GroupCursor> heap;  // reused by every basket of the batch
  for (PreparedRequest* p : group) {
    p->response.recommendations.reserve(p->canonical_baskets.size());
    for (size_t b = 0; b < p->canonical_baskets.size(); ++b) {
      const std::vector<uint32_t>& basket = p->canonical_baskets[b];
      const bool have_cached =
          b < p->cached_hits.size() && p->cached_hits[b].has_value();
      if (have_cached && !options_.verify_cache_hits) {
        p->response.recommendations.push_back(*p->cached_hits[b]);
        continue;
      }
      const uint64_t scanned_before = tally->rules_scanned;
      std::vector<RuleHit> hits = ScoreBasket(*bundle_, basket,
                                              p->request.top_k, &heap,
                                              &tally->rules_scanned);
      ++tally->baskets_scored;
      tally->basket_rule_scans.push_back(
          static_cast<uint32_t>(tally->rules_scanned - scanned_before));
      if (have_cached) {
        // The cache contract, asserted: a hit must be bit-identical to
        // the recompute.
        std::vector<std::byte> cached_bytes, fresh_bytes;
        EncodeRuleHits(*p->cached_hits[b], &cached_bytes);
        EncodeRuleHits(hits, &fresh_bytes);
        DMT_CHECK(cached_bytes == fresh_bytes);
      }
      p->response.recommendations.push_back(std::move(hits));
    }
  }
}

Server::BatchTally Server::EvaluateBatch(
    std::span<PreparedRequest*> batch) const {
  obs::Span span("serve/batch");
  span.AddArg("requests", batch.size());
  const double eval_start = NowUs();
  BatchTally tally;

  std::vector<PreparedRequest*> by_model[3];
  std::vector<PreparedRequest*> recommend;
  for (PreparedRequest* p : batch) {
    if (p->failed) continue;
    p->response.id = p->request.id;
    p->response.type = p->request.type;
    p->response.status = 0;
    switch (p->request.type) {
      case RequestType::kClassify:
        by_model[static_cast<size_t>(p->request.model)].push_back(p);
        break;
      case RequestType::kAssignCluster:
        EvaluateCluster(p, &tally);
        break;
      case RequestType::kRecommend:
        recommend.push_back(p);
        break;
      case RequestType::kStats:
        p->response.stats_json = StatsJson();
        break;
    }
  }
  for (auto& group : by_model) {
    if (!group.empty()) {
      EvaluateClassifyGroup(std::span<PreparedRequest*>(group), &tally);
    }
  }
  if (!recommend.empty()) {
    EvaluateRecommendGroup(std::span<PreparedRequest*>(recommend), &tally);
  }
  for (PreparedRequest* p : batch) {
    if (p->failed) continue;
    p->encoded = EncodeResponseFrame(p->response);
  }
  tally.eval_us = NowUs() - eval_start;
  for (PreparedRequest* p : batch) p->eval_us = tally.eval_us;
  return tally;
}

void Server::FoldTally(const BatchTally& tally) {
  records_classified_.Add(tally.records_classified);
  points_assigned_.Add(tally.points_assigned);
  baskets_scored_.Add(tally.baskets_scored);
  rules_scanned_.Add(tally.rules_scanned);
  // Per-basket scan counts fold here, in batch order on the folding
  // thread, keeping histograms under the same single-writer discipline
  // as the counters.
  for (uint32_t scans : tally.basket_rule_scans) {
    hist_rules_scanned_.Record(scans);
  }
  lat_eval_.Record(ToMicros(tally.eval_us));
}

void Server::InsertCacheMisses(const PreparedRequest& prepared) {
  if (cache_ == nullptr || prepared.failed ||
      prepared.request.type != RequestType::kRecommend) {
    return;
  }
  for (size_t b = 0; b < prepared.cache_keys.size(); ++b) {
    if (prepared.cached_hits[b].has_value()) continue;
    cache_evictions_.Add(cache_->Put(prepared.cache_keys[b],
                                     prepared.response.recommendations[b]));
    cache_insertions_.Increment();
  }
}

void Server::CountBatch(std::span<PreparedRequest*> batch) {
  const size_t size = batch.size();
  batches_.Increment();
  size_t bucket = 0;
  while ((size_t{1} << bucket) < size &&
         bucket + 1 < bucket_counters_.size()) {
    ++bucket;
  }
  bucket_counters_[bucket].Increment();
  const uint64_t id = next_batch_id_.fetch_add(1, std::memory_order_relaxed);
  for (PreparedRequest* p : batch) {
    p->batch_id = id;
    p->batch_requests = static_cast<uint32_t>(size);
  }
}

double Server::TelemetryNowUs() const { return NowUs(); }

void Server::RecordQueueWait(PreparedRequest* prepared,
                             double submit_ts_us) {
  prepared->queue_us = prepared->start_ts_us - submit_ts_us;
  prepared->start_ts_us = submit_ts_us;
  lat_queue_.Record(ToMicros(prepared->queue_us));
}

void Server::RecordRequestDone(PreparedRequest* prepared) {
  const double total = NowUs() - prepared->start_ts_us;
  const uint64_t total_us = ToMicros(total);
  lat_total_.Record(total_us);
  const RequestType type = prepared->request.type;
  switch (type) {
    case RequestType::kClassify: lat_classify_.Record(total_us); break;
    case RequestType::kAssignCluster: lat_cluster_.Record(total_us); break;
    case RequestType::kRecommend: lat_recommend_.Record(total_us); break;
    case RequestType::kStats: lat_stats_.Record(total_us); break;
  }
  uint64_t cache_hits = 0;
  for (const auto& hit : prepared->cached_hits) {
    if (hit.has_value()) ++cache_hits;
  }
  obs::TraceSink& sink = obs::TraceSink::Global();
  if (sink.enabled()) {
    std::vector<std::pair<std::string, uint64_t>> args;
    args.emplace_back("request_id", prepared->request.id);
    args.emplace_back("batch_id", prepared->batch_id);
    args.emplace_back("batch_requests", prepared->batch_requests);
    args.emplace_back("queue_us", ToMicros(prepared->queue_us));
    args.emplace_back("prepare_us", ToMicros(prepared->prepare_us));
    args.emplace_back("eval_us", ToMicros(prepared->eval_us));
    if (type == RequestType::kRecommend) {
      args.emplace_back("cache_hits", cache_hits);
      args.emplace_back("cache_misses",
                        prepared->cached_hits.size() - cache_hits);
    }
    if (prepared->failed) args.emplace_back("error", 1);
    sink.RecordManual("serve/request", prepared->start_ts_us, total,
                      std::move(args));
  }
  if (options_.slow_query_us > 0 && total_us >= options_.slow_query_us) {
    obs::Log(obs::LogSeverity::kWarning,
             "slow query: id=%llu type=%s batch=%llu/%u queue=%lluus "
             "prepare=%lluus eval=%lluus total=%lluus",
             static_cast<unsigned long long>(prepared->request.id),
             TypeName(type),
             static_cast<unsigned long long>(prepared->batch_id),
             prepared->batch_requests,
             static_cast<unsigned long long>(ToMicros(prepared->queue_us)),
             static_cast<unsigned long long>(
                 ToMicros(prepared->prepare_us)),
             static_cast<unsigned long long>(ToMicros(prepared->eval_us)),
             static_cast<unsigned long long>(total_us));
  }
}

std::vector<std::byte> Server::HandleFrame(
    std::span<const std::byte> frame) {
  std::vector<std::vector<std::byte>> frames;
  frames.emplace_back(frame.begin(), frame.end());
  return std::move(HandleFrames(frames)[0]);
}

std::vector<std::vector<std::byte>> Server::HandleFrames(
    const std::vector<std::vector<std::byte>>& frames) {
  obs::Span span("serve/handle_frames");
  span.AddArg("frames", frames.size());

  std::vector<PreparedRequest> prepared;
  prepared.reserve(frames.size());
  for (const std::vector<std::byte>& frame : frames) {
    prepared.push_back(Prepare(frame));
  }
  // All cache lookups happen here, sequentially in request order, before
  // any batch runs — the determinism half of the cache design.
  for (PreparedRequest& p : prepared) LookupCache(&p);

  std::vector<std::vector<PreparedRequest*>> batches;
  for (PreparedRequest& p : prepared) {
    if (p.failed) continue;
    if (batches.empty() || batches.back().size() >= options_.batch_size) {
      batches.emplace_back();
    }
    batches.back().push_back(&p);
  }
  for (auto& batch : batches) CountBatch(std::span(batch));

  if (options_.num_threads >= 2 && batches.size() > 1) {
    std::call_once(pool_once_, [this] {
      pool_ = std::make_unique<core::ThreadPool>(options_.num_threads);
    });
    std::vector<std::future<BatchTally>> futures;
    futures.reserve(batches.size());
    for (auto& batch : batches) {
      futures.push_back(pool_->SubmitTask(
          [this, &batch] { return EvaluateBatch(std::span(batch)); }));
    }
    // Fold in batch order: totals are order-invariant, but keeping the
    // fold sequenced documents (and TSan-checks) the single-writer rule.
    for (std::future<BatchTally>& f : futures) FoldTally(f.get());
  } else {
    for (auto& batch : batches) {
      FoldTally(EvaluateBatch(std::span(batch)));
    }
  }
  // Misses enter the cache only now, in request order, after every batch
  // completed — batch shape cannot affect what later lookups see.
  for (const PreparedRequest& p : prepared) InsertCacheMisses(p);
  for (PreparedRequest& p : prepared) RecordRequestDone(&p);

  std::vector<std::vector<std::byte>> responses;
  responses.reserve(prepared.size());
  for (PreparedRequest& p : prepared) {
    responses.push_back(std::move(p.encoded));
  }
  return responses;
}

std::string Server::StatsJson() const {
  std::string json = "{";
  json += core::StrFormat("\"bundle\":\"%s\"", bundle_->Describe().c_str());
  json += core::StrFormat(",\"batch_size\":%u", options_.batch_size);
  json += core::StrFormat(",\"num_threads\":%zu", options_.num_threads);
  json += core::StrFormat(",\"cache_capacity\":%zu",
                          options_.cache_capacity);
  json += core::StrFormat(
      ",\"cache_entries\":%zu",
      cache_ != nullptr ? cache_->Size() : size_t{0});
  json += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] :
       obs::Registry::Global().CounterSnapshot()) {
    if (name.rfind("serve/", 0) != 0) continue;
    if (!first) json += ",";
    first = false;
    json += core::StrFormat("\"%s\":%llu", name.c_str(),
                            static_cast<unsigned long long>(value));
  }
  json += "},\"registry\":";
  json += obs::RenderJsonSnapshot();
  json += "}";
  return json;
}

}  // namespace dmt::serve
