#include "assoc/sampling.h"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "assoc/candidate_gen.h"
#include "assoc/fp_growth.h"
#include "assoc/hash_tree.h"
#include "core/check.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmt::assoc {

using core::Result;
using core::Rng;
using core::Status;
using core::TransactionDatabase;

Status SamplingOptions::Validate() const {
  if (!(sample_fraction > 0.0) || sample_fraction >= 1.0) {
    return Status::InvalidArgument("sample_fraction must be in (0, 1)");
  }
  if (!(threshold_scaling > 0.0) || threshold_scaling > 1.0) {
    return Status::InvalidArgument("threshold_scaling must be in (0, 1]");
  }
  return Status::OK();
}

std::vector<Itemset> NegativeBorder(
    const std::vector<FrequentItemset>& frequent, size_t item_universe) {
  std::unordered_set<Itemset, ItemsetHash> in_collection;
  std::map<size_t, std::vector<Itemset>> by_size;
  for (const auto& itemset : frequent) {
    in_collection.insert(itemset.items);
    by_size[itemset.items.size()].push_back(itemset.items);
  }
  std::vector<Itemset> border;
  // Singleton layer: every item absent from the collection.
  for (core::ItemId item = 0; item < item_universe; ++item) {
    if (!in_collection.contains(Itemset{item})) border.push_back({item});
  }
  // Layer k: apriori joins of the frequent (k-1)-layer that are not
  // themselves in the collection. The join's subset prune already demands
  // every (k-1)-subset be frequent, which is exactly the border condition.
  for (auto& [size, layer] : by_size) {
    std::sort(layer.begin(), layer.end());
    CandidateGenResult gen = GenerateCandidates(layer);
    for (auto& candidate : gen.candidates) {
      if (!in_collection.contains(candidate)) {
        border.push_back(std::move(candidate));
      }
    }
  }
  return border;
}

Result<MiningResult> MineWithSampling(const TransactionDatabase& db,
                                      const MiningParams& params,
                                      const SamplingOptions& options,
                                      SamplingStats* stats) {
  DMT_RETURN_NOT_OK(params.Validate());
  DMT_RETURN_NOT_OK(options.Validate());
  const core::ParallelContext ctx(params.num_threads);
  SamplingStats local_stats;
  SamplingStats* out_stats = stats != nullptr ? stats : &local_stats;
  *out_stats = SamplingStats{};

  obs::Counter candidates_counter("assoc/sampling/candidates_checked");
  obs::Counter misses_counter("assoc/sampling/border_misses");
  obs::Counter fallbacks_counter("assoc/sampling/fallbacks");
  obs::Span mine_span("assoc/sampling/mine");

  // Draw the sample.
  Rng rng(options.seed);
  TransactionDatabase sample;
  {
    obs::Span sample_span("assoc/sampling/draw_sample");
    for (size_t t = 0; t < db.size(); ++t) {
      if (rng.Bernoulli(options.sample_fraction)) {
        sample.Add(db.transaction(t));
      }
    }
  }
  out_stats->sample_size = sample.size();
  if (sample.empty()) {
    // Degenerate sample: mine the full database directly.
    out_stats->fell_back = true;
    fallbacks_counter.Increment();
    return MineFpGrowth(db, params);
  }

  // Mine the sample at the lowered threshold.
  MiningParams sample_params = params;
  sample_params.min_support =
      std::max(1e-9, params.min_support * options.threshold_scaling);
  DMT_ASSIGN_OR_RETURN(MiningResult sample_result,
                       MineFpGrowth(sample, sample_params));

  // Verify sample-frequents plus the negative border on the full database.
  std::vector<Itemset> candidates;
  candidates.reserve(sample_result.itemsets.size());
  for (const auto& itemset : sample_result.itemsets) {
    candidates.push_back(itemset.items);
  }
  size_t num_sample_frequent = candidates.size();
  std::vector<Itemset> border =
      NegativeBorder(sample_result.itemsets, db.item_universe());
  for (auto& border_set : border) {
    // Border sets beyond the size cap cannot contribute to the capped
    // result, and neither can any superset — a frequent one is not a
    // miss, so filter *before* the miss accounting below or it would
    // force a pointless full-database remine.
    if (params.max_itemset_size != 0 &&
        border_set.size() > params.max_itemset_size) {
      continue;
    }
    candidates.push_back(std::move(border_set));
  }
  out_stats->candidates_checked = candidates.size();
  candidates_counter.Add(candidates.size());
  mine_span.AddArg(candidates_counter.name(), candidates.size());

  std::vector<uint32_t> supports(candidates.size(), 0);
  {
    obs::Span verify_span("assoc/sampling/verify");
    SupportCounter(candidates).Count(db, ctx, supports);
  }
  const uint32_t min_count = AbsoluteMinSupport(db.size(), params.min_support);

  MiningResult result;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (supports[i] < min_count) continue;
    if (i >= num_sample_frequent) {
      // A frequent negative-border set: some superset may be frequent
      // too, so the one-scan result is not provably complete.
      ++out_stats->border_misses;
      continue;
    }
    result.itemsets.push_back({candidates[i], supports[i]});
  }
  misses_counter.Add(out_stats->border_misses);
  mine_span.AddArg(misses_counter.name(), out_stats->border_misses);
  if (out_stats->border_misses > 0) {
    // Some frequent itemset may lie beyond the verified candidates; redo
    // exactly (Toivonen's second pass, implemented as a full remine).
    out_stats->fell_back = true;
    fallbacks_counter.Increment();
    return MineFpGrowth(db, params);
  }
  SortCanonical(&result.itemsets);
  size_t max_size = 0;
  for (const auto& itemset : result.itemsets) {
    max_size = std::max(max_size, itemset.items.size());
  }
  for (size_t k = 1; k <= max_size; ++k) {
    result.passes.push_back({k, result.CountOfSize(k),
                             result.CountOfSize(k)});
  }
  return result;
}

}  // namespace dmt::assoc
