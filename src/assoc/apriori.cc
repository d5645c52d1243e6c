#include "assoc/apriori.h"

#include <algorithm>
#include <unordered_map>

#include "assoc/candidate_gen.h"
#include "assoc/hash_tree.h"
#include "core/check.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmt::assoc {

using core::Result;
using core::TransactionDatabase;

namespace {

/// Pass 1 shared by both algorithms: frequent single items, lexicographic.
std::vector<FrequentItemset> FrequentSingles(const TransactionDatabase& db,
                                             uint32_t min_count,
                                             size_t* num_candidates) {
  std::vector<uint32_t> supports = db.ItemSupports();
  *num_candidates = supports.size();
  std::vector<FrequentItemset> frequent;
  for (core::ItemId item = 0; item < supports.size(); ++item) {
    if (supports[item] >= min_count) {
      frequent.push_back({{item}, supports[item]});
    }
  }
  return frequent;
}

/// Extracts just the itemsets of a frequent layer (for candidate gen).
std::vector<Itemset> ItemsetsOf(const std::vector<FrequentItemset>& layer) {
  std::vector<Itemset> out;
  out.reserve(layer.size());
  for (const auto& f : layer) out.push_back(f.items);
  return out;
}

/// Publishes a run's pass census, summed over its passes, to the
/// family's counters once, and records each total on the run's span.
void PublishPassTotals(const std::vector<PassStats>& census, obs::Span& span,
                       obs::Counter candidates, obs::Counter frequent,
                       obs::Counter passes) {
  uint64_t num_candidates = 0;
  uint64_t num_frequent = 0;
  for (const PassStats& stats : census) {
    num_candidates += stats.candidates;
    num_frequent += stats.frequent;
  }
  candidates.Add(num_candidates);
  frequent.Add(num_frequent);
  passes.Add(census.size());
  span.AddArg(candidates.name(), num_candidates);
  span.AddArg(frequent.name(), num_frequent);
  span.AddArg(passes.name(), census.size());
}

}  // namespace

Result<MiningResult> MineApriori(const TransactionDatabase& db,
                                 const MiningParams& params) {
  DMT_RETURN_NOT_OK(params.Validate());
  const uint32_t min_count = AbsoluteMinSupport(db.size(), params.min_support);
  const core::ParallelContext ctx(params.num_threads);
  obs::Span mine_span("assoc/apriori/mine");

  MiningResult result;
  size_t num_singles = 0;
  std::vector<FrequentItemset> layer =
      FrequentSingles(db, min_count, &num_singles);
  result.passes.push_back({1, num_singles, layer.size()});
  result.itemsets = layer;

  for (size_t k = 2; !layer.empty(); ++k) {
    if (params.max_itemset_size != 0 && k > params.max_itemset_size) break;
    obs::Span pass_span("assoc/apriori/pass");
    pass_span.AddArg("k", k);
    CandidateGenResult gen = GenerateCandidates(ItemsetsOf(layer));
    if (gen.candidates.empty()) {
      result.passes.push_back({k, 0, 0});
      break;
    }
    std::vector<uint32_t> counts(gen.candidates.size(), 0);
    {
      obs::Span count_span("assoc/apriori/pass/count");
      SupportCounter(gen.candidates).Count(db, ctx, counts);
    }
    std::vector<FrequentItemset> next_layer;
    for (uint32_t c = 0; c < gen.candidates.size(); ++c) {
      if (counts[c] >= min_count) {
        next_layer.push_back({std::move(gen.candidates[c]), counts[c]});
      }
    }
    result.passes.push_back({k, gen.candidates.size(), next_layer.size()});
    result.itemsets.insert(result.itemsets.end(), next_layer.begin(),
                           next_layer.end());
    layer = std::move(next_layer);
  }
  PublishPassTotals(result.passes, mine_span,
                    obs::Counter("assoc/apriori/candidates"),
                    obs::Counter("assoc/apriori/frequent"),
                    obs::Counter("assoc/apriori/passes"));
  SortCanonical(&result.itemsets);
  return result;
}

Result<MiningResult> MineAprioriTid(const TransactionDatabase& db,
                                    const MiningParams& params) {
  DMT_RETURN_NOT_OK(params.Validate());
  const uint32_t min_count = AbsoluteMinSupport(db.size(), params.min_support);
  const core::ParallelContext ctx(params.num_threads);
  obs::Span mine_span("assoc/apriori_tid/mine");

  MiningResult result;
  size_t num_singles = 0;
  std::vector<FrequentItemset> layer =
      FrequentSingles(db, min_count, &num_singles);
  result.passes.push_back({1, num_singles, layer.size()});
  result.itemsets = layer;

  // Per-transaction lists of *frequent* (k-1)-itemset indices. For k=2 the
  // entry is the transaction itself restricted to frequent items, remapped
  // to indices into `layer`.
  std::vector<std::vector<uint32_t>> entries(db.size());
  {
    // item id -> index in layer (frequent singles are sorted by item id).
    std::unordered_map<core::ItemId, uint32_t> single_index;
    for (uint32_t i = 0; i < layer.size(); ++i) {
      single_index.emplace(layer[i].items[0], i);
    }
    for (size_t t = 0; t < db.size(); ++t) {
      for (core::ItemId item : db.transaction(t)) {
        auto it = single_index.find(item);
        if (it != single_index.end()) entries[t].push_back(it->second);
      }
    }
  }

  for (size_t k = 2; !layer.empty(); ++k) {
    if (params.max_itemset_size != 0 && k > params.max_itemset_size) break;
    obs::Span pass_span("assoc/apriori_tid/pass");
    pass_span.AddArg("k", k);
    CandidateGenResult gen =
        GenerateCandidates(ItemsetsOf(layer), /*record_parents=*/true);
    if (gen.candidates.empty()) {
      result.passes.push_back({k, 0, 0});
      break;
    }
    // Group candidates by their first parent for set-oriented counting.
    std::vector<std::vector<uint32_t>> candidates_by_parent1(layer.size());
    for (uint32_t c = 0; c < gen.candidates.size(); ++c) {
      candidates_by_parent1[gen.parents[c].first].push_back(c);
    }

    std::vector<uint32_t> counts(gen.candidates.size(), 0);
    std::vector<std::vector<uint32_t>> next_entries(db.size());
    // Each chunk owns a stamp array marking which frequent (k-1) ids the
    // current transaction contains, and writes only its own transactions'
    // next_entries slots.
    core::CountPartitioned(
        ctx, db.size(), counts,
        [&](size_t begin, size_t end, std::span<uint32_t> local) {
          std::vector<uint32_t> present_stamp(layer.size(), 0);
          uint32_t serial = 0;
          for (size_t t = begin; t < end; ++t) {
            const auto& entry = entries[t];
            if (entry.size() < 2) continue;
            ++serial;
            for (uint32_t id : entry) present_stamp[id] = serial;
            for (uint32_t id : entry) {
              for (uint32_t c : candidates_by_parent1[id]) {
                if (present_stamp[gen.parents[c].second] == serial) {
                  ++local[c];
                  next_entries[t].push_back(c);
                }
              }
            }
          }
        });

    std::vector<FrequentItemset> next_layer;
    // Remap candidate ids to next-layer (frequent) ids.
    std::vector<uint32_t> candidate_to_frequent(gen.candidates.size(),
                                                UINT32_MAX);
    for (uint32_t c = 0; c < gen.candidates.size(); ++c) {
      if (counts[c] >= min_count) {
        candidate_to_frequent[c] = static_cast<uint32_t>(next_layer.size());
        next_layer.push_back({std::move(gen.candidates[c]), counts[c]});
      }
    }
    result.passes.push_back({k, gen.candidates.size(), next_layer.size()});
    result.itemsets.insert(result.itemsets.end(), next_layer.begin(),
                           next_layer.end());

    for (size_t t = 0; t < db.size(); ++t) {
      std::vector<uint32_t> remapped;
      remapped.reserve(next_entries[t].size());
      for (uint32_t c : next_entries[t]) {
        if (candidate_to_frequent[c] != UINT32_MAX) {
          remapped.push_back(candidate_to_frequent[c]);
        }
      }
      entries[t] = std::move(remapped);
    }
    layer = std::move(next_layer);
  }
  PublishPassTotals(result.passes, mine_span,
                    obs::Counter("assoc/apriori_tid/candidates"),
                    obs::Counter("assoc/apriori_tid/frequent"),
                    obs::Counter("assoc/apriori_tid/passes"));
  SortCanonical(&result.itemsets);
  return result;
}

}  // namespace dmt::assoc
