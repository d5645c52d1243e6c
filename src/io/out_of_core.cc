// SON two-phase out-of-core mining (see assoc/out_of_core.h). Lives in
// the io library because it drives the container loaders; the entry
// points belong to namespace dmt::assoc alongside the in-memory miners.
#include "assoc/out_of_core.h"

#include <functional>
#include <map>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "assoc/hash_tree.h"
#include "core/parallel.h"
#include "io/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmt::assoc {

namespace {

/// One local in-memory mine: (partition, params) -> MiningResult.
using LocalMiner = std::function<core::Result<MiningResult>(
    const core::TransactionDatabase&, const MiningParams&)>;

core::Result<MiningResult> MineOutOfCore(
    std::span<const std::string> partition_paths, const MiningParams& params,
    const char* span_name, const LocalMiner& local_mine) {
  DMT_RETURN_NOT_OK(params.Validate());
  if (partition_paths.empty()) {
    return core::Status::InvalidArgument(
        "out-of-core mining needs at least one partition path");
  }
  obs::Span span(span_name);
  span.AddArg("partitions", partition_paths.size());

  MiningResult result;
  uint64_t num_transactions = 0;
  // Candidate union in lexicographic order — a deterministic order that
  // does not depend on which partition contributed an itemset first.
  std::set<Itemset> candidate_union;
  {
    obs::Span local_span("assoc/out_of_core/local_mine");
    for (const std::string& path : partition_paths) {
      DMT_ASSIGN_OR_RETURN(io::MappedTransactionDatabase view,
                           io::MappedTransactionDatabase::Map(path));
      result.bytes_mapped += view.bytes_mapped();
      num_transactions += view.size();
      ++result.partitions_mined;
      if (view.empty()) continue;
      const core::TransactionDatabase partition = view.ToOwned();
      DMT_ASSIGN_OR_RETURN(MiningResult local,
                           local_mine(partition, params));
      result.conditional_trees_built += local.conditional_trees_built;
      result.fp_nodes_allocated += local.fp_nodes_allocated;
      result.tidset_intersections += local.tidset_intersections;
      for (FrequentItemset& itemset : local.itemsets) {
        candidate_union.insert(std::move(itemset.items));
      }
    }
  }
  obs::Counter("assoc/out_of_core/partitions_mined")
      .Add(result.partitions_mined);

  if (candidate_union.empty()) return result;

  // Phase 2: exact counting of the union.
  obs::Span count_span("assoc/out_of_core/count");
  std::vector<Itemset> candidates(candidate_union.begin(),
                                  candidate_union.end());
  candidate_union.clear();
  const SupportCounter counter(candidates);
  std::vector<uint32_t> counts(candidates.size(), 0);
  const core::ParallelContext ctx(params.num_threads);
  for (const std::string& path : partition_paths) {
    DMT_ASSIGN_OR_RETURN(io::MappedTransactionDatabase view,
                         io::MappedTransactionDatabase::Map(path));
    result.bytes_mapped += view.bytes_mapped();
    counter.Count(view, ctx, counts);
  }

  // The census per size: candidates in the union, and survivors.
  const uint32_t min_count =
      AbsoluteMinSupport(num_transactions, params.min_support);
  std::map<size_t, PassStats> census;
  for (size_t c = 0; c < candidates.size(); ++c) {
    PassStats& stats = census[candidates[c].size()];
    stats.pass = candidates[c].size();
    ++stats.candidates;
    if (counts[c] >= min_count) {
      ++stats.frequent;
      result.itemsets.push_back({std::move(candidates[c]), counts[c]});
    }
  }
  for (const auto& [k, stats] : census) result.passes.push_back(stats);
  SortCanonical(&result.itemsets);
  span.AddArg("itemsets", result.itemsets.size());
  return result;
}

}  // namespace

core::Result<MiningResult> MineAprioriPartitioned(
    std::span<const std::string> partition_paths, const MiningParams& params) {
  return MineOutOfCore(partition_paths, params, "assoc/out_of_core/apriori",
                       MineApriori);
}

core::Result<MiningResult> MineFpGrowthDiskProjected(
    std::span<const std::string> partition_paths, const MiningParams& params) {
  return MineOutOfCore(partition_paths, params,
                       "assoc/out_of_core/fp_growth", MineFpGrowth);
}

}  // namespace dmt::assoc
