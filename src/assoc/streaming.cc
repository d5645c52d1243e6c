#include "assoc/streaming.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "assoc/fp_growth.h"
#include "assoc/hash_tree.h"
#include "assoc/sampling.h"
#include "core/check.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmt::assoc {

using core::Result;
using core::Status;
using core::TransactionDatabase;

Status StreamingParams::Validate() const {
  if (std::isnan(min_support) || std::isnan(error)) {
    return Status::InvalidArgument(
        "streaming thresholds must not be NaN (NaN passes every "
        "comparison and silently disables the filter)");
  }
  if (!(min_support > 0.0) || min_support > 1.0) {
    return Status::InvalidArgument("min_support must be in (0, 1]");
  }
  if (error < 0.0 || error >= min_support) {
    return Status::InvalidArgument(
        "error must be in [0, min_support); 0 selects min_support / 10");
  }
  if (window_batches == 0) {
    return Status::InvalidArgument("window_batches must be >= 1");
  }
  return Status::OK();
}

Result<StreamingMiner> StreamingMiner::Create(const StreamingParams& params) {
  DMT_RETURN_NOT_OK(params.Validate());
  return StreamingMiner(params);
}

Status StreamingMiner::AddBatch(const TransactionDatabase& batch) {
  if (batch.empty()) return Status::OK();
  obs::Span span("assoc/streaming/add_batch");
  // The one and only mine of this batch: ε-frequent itemsets with exact
  // batch counts. Anything below the ε bar contributes at most ε·|batch|
  // missed occurrences to the window estimate — the per-batch slice of
  // the Lossy Counting error bound.
  MiningParams batch_params;
  batch_params.min_support = params_.EffectiveError();
  batch_params.max_itemset_size = params_.max_itemset_size;
  batch_params.num_threads = params_.num_threads;
  DMT_ASSIGN_OR_RETURN(MiningResult mined,
                       MineFpGrowth(batch, batch_params));
  window_.push_back({batch, std::move(mined.itemsets)});
  if (window_.size() > params_.window_batches) window_.pop_front();
  ++batches_seen_;
  span.AddArg("batch_transactions", batch.size());
  return Status::OK();
}

std::vector<FrequentItemset> StreamingMiner::ApproximateCounts() const {
  std::unordered_map<Itemset, uint64_t, ItemsetHash> merged;
  for (const WindowBatch& batch : window_) {
    for (const FrequentItemset& itemset : batch.summary) {
      merged[itemset.items] += itemset.support;
    }
  }
  std::vector<FrequentItemset> out;
  out.reserve(merged.size());
  for (auto& [items, count] : merged) {
    out.push_back({items, static_cast<uint32_t>(count)});
  }
  SortCanonical(&out);
  return out;
}

TransactionDatabase StreamingMiner::WindowTransactions() const {
  TransactionDatabase out;
  for (const WindowBatch& batch : window_) {
    for (size_t t = 0; t < batch.transactions.size(); ++t) {
      out.Add(batch.transactions.transaction(t));
    }
  }
  return out;
}

size_t StreamingMiner::window_transactions() const {
  size_t total = 0;
  for (const WindowBatch& batch : window_) total += batch.transactions.size();
  return total;
}

Result<MiningResult> StreamingMiner::MineWindow(
    StreamingWindowStats* stats) const {
  StreamingWindowStats local_stats;
  StreamingWindowStats* out_stats = stats != nullptr ? stats : &local_stats;
  *out_stats = StreamingWindowStats{};
  if (window_.empty()) return MiningResult{};

  obs::Span span("assoc/streaming/mine_window");
  obs::Counter candidates_counter("assoc/streaming/candidates_checked");
  obs::Counter misses_counter("assoc/streaming/border_misses");
  obs::Counter fallbacks_counter("assoc/streaming/fallbacks");

  const TransactionDatabase window_db = WindowTransactions();
  const size_t n = window_db.size();
  out_stats->window_transactions = n;
  const core::ParallelContext ctx(params_.num_threads);

  // Candidate bar: estimates are underestimates by at most ε·N, so
  // querying at ceil(s·N) - floor(ε·N) can never miss a truly frequent
  // itemset. Integer arithmetic keeps the bar (and thus the candidate
  // set) bit-identical at every thread count.
  const uint32_t exact_min = AbsoluteMinSupport(n, params_.min_support);
  const auto slack = static_cast<uint32_t>(
      params_.EffectiveError() * static_cast<double>(n));
  const uint32_t candidate_min = exact_min > slack ? exact_min - slack : 1;

  std::vector<FrequentItemset> summary = ApproximateCounts();
  out_stats->summary_itemsets = summary.size();
  std::vector<FrequentItemset> candidate_collection;
  std::vector<Itemset> candidates;
  for (FrequentItemset& itemset : summary) {
    if (itemset.support < candidate_min) continue;
    candidates.push_back(itemset.items);
    candidate_collection.push_back(std::move(itemset));
  }
  out_stats->summary_candidates = candidates.size();
  const size_t num_summary_candidates = candidates.size();

  // Negative border over the candidate collection (downward-closed:
  // per-batch summaries are complete mines, and batch counts are
  // anti-monotone, so every subset of a candidate is a candidate). A
  // frequent border set means the summary bar hid a frequent itemset
  // whose supersets were never estimated — the exactness escape hatch.
  std::vector<Itemset> border =
      NegativeBorder(candidate_collection, window_db.item_universe());
  for (Itemset& border_set : border) {
    // As in sampling: border sets beyond the size cap cannot contribute
    // to the capped result, so they must not count as misses either.
    if (params_.max_itemset_size != 0 &&
        border_set.size() > params_.max_itemset_size) {
      continue;
    }
    candidates.push_back(std::move(border_set));
  }
  out_stats->candidates_checked = candidates.size();
  candidates_counter.Add(candidates.size());
  span.AddArg(candidates_counter.name(), candidates.size());

  std::vector<uint32_t> supports(candidates.size(), 0);
  {
    obs::Span verify_span("assoc/streaming/verify");
    SupportCounter(candidates).Count(window_db, ctx, supports);
  }

  MiningResult result;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (supports[i] < exact_min) continue;
    if (i >= num_summary_candidates) {
      ++out_stats->border_misses;
      continue;
    }
    result.itemsets.push_back({candidates[i], supports[i]});
  }
  misses_counter.Add(out_stats->border_misses);
  span.AddArg(misses_counter.name(), out_stats->border_misses);
  if (out_stats->border_misses > 0) {
    out_stats->fell_back = true;
    fallbacks_counter.Increment();
    MiningParams full_params;
    full_params.min_support = params_.min_support;
    full_params.max_itemset_size = params_.max_itemset_size;
    full_params.num_threads = params_.num_threads;
    return MineFpGrowth(window_db, full_params);
  }
  SortCanonical(&result.itemsets);
  size_t max_size = 0;
  for (const FrequentItemset& itemset : result.itemsets) {
    max_size = std::max(max_size, itemset.items.size());
  }
  for (size_t k = 1; k <= max_size; ++k) {
    result.passes.push_back(
        {k, result.CountOfSize(k), result.CountOfSize(k)});
  }
  return result;
}

}  // namespace dmt::assoc
