#include "assoc/itemset.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

namespace dmt::assoc {

size_t MiningResult::CountOfSize(size_t k) const {
  size_t count = 0;
  for (const auto& itemset : itemsets) {
    if (itemset.items.size() == k) ++count;
  }
  return count;
}

core::Status MiningParams::Validate() const {
  if (!(min_support > 0.0) || min_support > 1.0) {
    return core::Status::InvalidArgument(
        "min_support must be in (0, 1]");
  }
  return core::Status::OK();
}

uint32_t AbsoluteMinSupport(uint64_t num_transactions, double min_support) {
  double exact = min_support * static_cast<double>(num_transactions);
  auto count = static_cast<uint64_t>(std::ceil(exact - 1e-9));
  if (count < 1) count = 1;
  return static_cast<uint32_t>(count);
}

void MinePartitioned(
    const core::ParallelContext& ctx, size_t n, MiningResult* result,
    const std::function<void(size_t, size_t, MiningResult*)>& mine_range) {
  if (!ctx.parallel() || n == 0) {
    mine_range(0, n, result);
    return;
  }
  std::vector<MiningResult> partials(ctx.NumChunks(n));
  ctx.ForEachChunk(n, [&](size_t chunk, size_t begin, size_t end) {
    mine_range(begin, end, &partials[chunk]);
  });
  for (const MiningResult& partial : partials) {
    result->itemsets.insert(result->itemsets.end(),
                            partial.itemsets.begin(),
                            partial.itemsets.end());
    for (size_t d = 0; d < partial.passes.size(); ++d) {
      if (result->passes.size() <= d) {
        result->passes.push_back({partial.passes[d].pass, 0, 0});
      }
      result->passes[d].candidates += partial.passes[d].candidates;
      result->passes[d].frequent += partial.passes[d].frequent;
    }
    result->conditional_trees_built += partial.conditional_trees_built;
    result->fp_nodes_allocated += partial.fp_nodes_allocated;
    result->tidset_intersections += partial.tidset_intersections;
    result->partitions_mined += partial.partitions_mined;
    result->bytes_mapped += partial.bytes_mapped;
  }
}

void SortCanonical(std::vector<FrequentItemset>* itemsets) {
  std::sort(itemsets->begin(), itemsets->end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              if (a.items.size() != b.items.size()) {
                return a.items.size() < b.items.size();
              }
              return a.items < b.items;
            });
}

bool IsSubsetOf(std::span<const core::ItemId> subset,
                std::span<const core::ItemId> superset) {
  return std::includes(superset.begin(), superset.end(), subset.begin(),
                       subset.end());
}

std::string FormatItemset(const FrequentItemset& itemset,
                          const core::ItemDictionary* dictionary) {
  std::string out = "{";
  for (size_t i = 0; i < itemset.items.size(); ++i) {
    if (i > 0) out += ", ";
    if (dictionary != nullptr) {
      out += dictionary->Name(itemset.items[i]);
    } else {
      out += std::to_string(itemset.items[i]);
    }
  }
  out += "} (support=" + std::to_string(itemset.support) + ")";
  return out;
}

}  // namespace dmt::assoc
