#include "assoc/eclat.h"

#include <algorithm>
#include <utility>

#include "core/bitset.h"
#include "core/check.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmt::assoc {

using core::DynamicBitset;
using core::ItemId;
using core::Result;
using core::TransactionDatabase;

namespace {

/// Sorted-vector tidset intersection.
std::vector<uint32_t> IntersectTids(const std::vector<uint32_t>& a,
                                    const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

template <typename Tidset>
struct ClassMember {
  ItemId item;
  Tidset tids;
  uint32_t support;
};

/// Depth-first walk below one member of an equivalence class (all itemsets
/// sharing `prefix`): emits prefix + members[i].item, then extends it with
/// every later member via a tidset intersection. `probe(a, b)` returns
/// {support, tidset}; a representation may leave the tidset empty for
/// candidates below min_count (they are discarded without ever
/// materializing an intersection). Members are ordered by item id and the
/// recursion visits them in order, so output is deterministic.
template <typename Tidset, typename ProbeFn>
void WalkMember(const Itemset& prefix,
                const std::vector<ClassMember<Tidset>>& members, size_t i,
                uint32_t min_count, size_t max_size, const ProbeFn& probe,
                MiningResult* result, size_t depth) {
  if (result->passes.size() < depth + 1) {
    result->passes.push_back({depth + 1, 0, 0});
  }
  Itemset items = prefix;
  items.push_back(members[i].item);
  result->itemsets.push_back({items, members[i].support});
  ++result->passes[depth].frequent;
  if (max_size != 0 && items.size() >= max_size) return;
  std::vector<ClassMember<Tidset>> extensions;
  for (size_t j = i + 1; j < members.size(); ++j) {
    // This intersection proposes a (depth+2)-item candidate.
    if (result->passes.size() < depth + 2) {
      result->passes.push_back({depth + 2, 0, 0});
    }
    ++result->passes[depth + 1].candidates;
    ++result->tidset_intersections;
    auto [support, shared] = probe(members[i].tids, members[j].tids);
    if (support >= min_count) {
      extensions.push_back({members[j].item, std::move(shared), support});
    }
  }
  for (size_t e = 0; e < extensions.size(); ++e) {
    WalkMember(items, extensions, e, min_count, max_size, probe, result,
               depth + 1);
  }
}

/// Walks the root equivalence classes. Root members only read each
/// other's tidsets, so MinePartitioned mines contiguous chunks of the
/// root range into per-chunk scratch merged in ascending order — the
/// serial left-to-right root order, at any thread count.
template <typename Tidset, typename ProbeFn>
void WalkRoots(const core::ParallelContext& ctx,
               const std::vector<ClassMember<Tidset>>& roots,
               uint32_t min_count, size_t max_size, const ProbeFn& probe,
               MiningResult* result) {
  MinePartitioned(ctx, roots.size(), result,
                  [&](size_t begin, size_t end, MiningResult* out) {
                    for (size_t i = begin; i < end; ++i) {
                      WalkMember({}, roots, i, min_count, max_size, probe,
                                 out, 0);
                    }
                  });
}

}  // namespace

Result<MiningResult> MineEclat(const TransactionDatabase& db,
                               const MiningParams& params,
                               const EclatOptions& options) {
  DMT_RETURN_NOT_OK(params.Validate());
  const uint32_t min_count = AbsoluteMinSupport(db.size(), params.min_support);
  const core::ParallelContext ctx(params.num_threads);

  obs::Counter intersections_counter("assoc/eclat/tidset_intersections");
  obs::Span mine_span("assoc/eclat/mine");

  MiningResult result;
  result.passes.push_back({1, db.item_universe(), 0});

  std::vector<uint32_t> supports = db.ItemSupports();

  if (options.representation == EclatOptions::TidsetRepr::kSortedVectors) {
    std::vector<ClassMember<std::vector<uint32_t>>> roots;
    for (ItemId item = 0; item < supports.size(); ++item) {
      if (supports[item] >= min_count) {
        roots.push_back({item, {}, supports[item]});
        roots.back().tids.reserve(supports[item]);
      }
    }
    std::vector<uint32_t> item_to_root(supports.size(), UINT32_MAX);
    for (uint32_t r = 0; r < roots.size(); ++r) {
      item_to_root[roots[r].item] = r;
    }
    for (size_t t = 0; t < db.size(); ++t) {
      for (ItemId item : db.transaction(t)) {
        if (item_to_root[item] != UINT32_MAX) {
          roots[item_to_root[item]].tids.push_back(
              static_cast<uint32_t>(t));
        }
      }
    }
    result.passes[0].frequent = 0;  // filled by the walk at depth 0
    auto probe = [](const std::vector<uint32_t>& a,
                    const std::vector<uint32_t>& b) {
      std::vector<uint32_t> shared = IntersectTids(a, b);
      uint32_t support = static_cast<uint32_t>(shared.size());
      return std::pair(support, std::move(shared));
    };
    WalkRoots<std::vector<uint32_t>>(ctx, roots, min_count,
                                     params.max_itemset_size, probe,
                                     &result);
  } else {
    std::vector<ClassMember<DynamicBitset>> roots;
    for (ItemId item = 0; item < supports.size(); ++item) {
      if (supports[item] >= min_count) {
        roots.push_back({item, DynamicBitset(db.size()), supports[item]});
      }
    }
    std::vector<uint32_t> item_to_root(supports.size(), UINT32_MAX);
    for (uint32_t r = 0; r < roots.size(); ++r) {
      item_to_root[roots[r].item] = r;
    }
    for (size_t t = 0; t < db.size(); ++t) {
      for (ItemId item : db.transaction(t)) {
        if (item_to_root[item] != UINT32_MAX) {
          roots[item_to_root[item]].tids.Set(t);
        }
      }
    }
    // Probe support with a popcount pass first; only survivors pay for a
    // materialized intersection, so rejected candidates allocate nothing.
    auto probe = [min_count](const DynamicBitset& a,
                             const DynamicBitset& b) {
      uint32_t support = static_cast<uint32_t>(a.IntersectionCount(b));
      if (support < min_count) return std::pair(support, DynamicBitset());
      return std::pair(support, a.Intersect(b));
    };
    WalkRoots<DynamicBitset>(ctx, roots, min_count, params.max_itemset_size,
                             probe, &result);
  }
  // Depth d of the walk emits (d+1)-itemsets; relabel passes accordingly
  // and drop the placeholder first entry.
  for (size_t d = 0; d < result.passes.size(); ++d) {
    result.passes[d].pass = d + 1;
  }
  result.passes[0].candidates = db.item_universe();
  // The result owns the merged tally; publish it once, and record it on
  // the mine span while it is open.
  intersections_counter.Add(result.tidset_intersections);
  mine_span.AddArg(intersections_counter.name(),
                   result.tidset_intersections);
  SortCanonical(&result.itemsets);
  return result;
}

}  // namespace dmt::assoc
