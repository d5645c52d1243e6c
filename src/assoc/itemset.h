// Common types shared by all frequent-itemset miners.
#ifndef DMT_ASSOC_ITEMSET_H_
#define DMT_ASSOC_ITEMSET_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/item_dictionary.h"
#include "core/parallel.h"
#include "core/status.h"
#include "core/transaction.h"

namespace dmt::assoc {

/// A sorted, duplicate-free itemset.
using Itemset = std::vector<core::ItemId>;

/// FNV-1a style hash for itemsets, usable as an unordered_map hasher.
struct ItemsetHash {
  size_t operator()(const Itemset& items) const {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (core::ItemId item : items) {
      h ^= item;
      h *= 0x100000001b3ULL;
    }
    return static_cast<size_t>(h);
  }
};

/// A frequent itemset together with its absolute support count.
struct FrequentItemset {
  Itemset items;
  uint32_t support = 0;

  bool operator==(const FrequentItemset& other) const = default;
};

/// Per-pass bookkeeping, matching the candidate/frequent census tables of
/// the Apriori paper.
struct PassStats {
  /// Itemset size handled by this pass (k).
  size_t pass = 0;
  /// Candidates generated (for pattern-growth miners: itemsets examined).
  size_t candidates = 0;
  /// Candidates that turned out frequent.
  size_t frequent = 0;
};

/// Output of a frequent-itemset miner.
struct MiningResult {
  /// All frequent itemsets in canonical order (see SortCanonical).
  std::vector<FrequentItemset> itemsets;
  /// One entry per pass / recursion depth.
  std::vector<PassStats> passes;

  /// Pattern-growth work counters, the association analogue of
  /// `ClusteringResult::distance_computations` / `TreeBuildStats::
  /// split_scan_rows`: algorithm-intrinsic effort tallies, invariant
  /// across thread counts (per-chunk tallies merged in chunk order).
  /// Conditional FP-trees constructed (FP-Growth; 0 for other miners).
  uint64_t conditional_trees_built = 0;
  /// FP-tree nodes allocated across the root and all conditional trees,
  /// excluding each tree's root sentinel (FP-Growth).
  uint64_t fp_nodes_allocated = 0;
  /// Tidset intersections probed, materialized or not (Eclat).
  uint64_t tidset_intersections = 0;
  /// On-disk partitions mined by the out-of-core miners (io library; 0
  /// for the in-memory miners). Invariant across thread counts.
  uint64_t partitions_mined = 0;
  /// Container bytes mapped while mining out of core (0 in memory).
  uint64_t bytes_mapped = 0;

  /// Number of frequent itemsets of the given size.
  size_t CountOfSize(size_t k) const;
};

/// Support threshold and mining limits.
struct MiningParams {
  /// Minimum support as a fraction of |D|, in (0, 1].
  double min_support = 0.01;
  /// Largest itemset size to mine; 0 means unlimited.
  size_t max_itemset_size = 0;
  /// Worker threads; 0 or 1 = serial. Honored by all four miners —
  /// MineApriori / MineAprioriTid (support counting), MineFpGrowth
  /// (top-level conditional-tree projection), MineEclat (root
  /// equivalence classes) — and by MineWithSampling's verification scan.
  /// Parallel runs produce bit-identical results to serial runs,
  /// including pass stats and work counters.
  size_t num_threads = 0;

  core::Status Validate() const;
};

/// Converts the fractional threshold over `num_transactions` to an
/// absolute count (at least 1), rounding up so that support/|D| >=
/// min_support holds exactly. The in-memory miners pass db.size(); the
/// out-of-core miners pass the summed partition sizes.
uint32_t AbsoluteMinSupport(uint64_t num_transactions, double min_support);

/// Sorts itemsets canonically: by size, then lexicographically by items.
/// Every miner returns this order so results are directly comparable.
void SortCanonical(std::vector<FrequentItemset>* itemsets);

/// Deterministic task-parallel mining driver (the pattern-growth analogue
/// of core::CountPartitioned): runs mine_range(begin, end, out) over a
/// fixed partition of the task range [0, n) into contiguous chunks, giving
/// each chunk a private MiningResult scratch, then merges the chunks into
/// `result` in ascending chunk order — itemsets are concatenated, per-depth
/// pass stats and the work counters are summed. A serial context mines
/// straight into `result` with no copies, so with chunk boundaries fixed by
/// (n, num_threads) alone, any thread count reproduces the serial itemset
/// order bit for bit *before* the final SortCanonical.
void MinePartitioned(
    const core::ParallelContext& ctx, size_t n, MiningResult* result,
    const std::function<void(size_t, size_t, MiningResult*)>& mine_range);

/// True if `subset` ⊆ `superset` (both sorted).
bool IsSubsetOf(std::span<const core::ItemId> subset,
                std::span<const core::ItemId> superset);

/// Human-readable "{a, b, c} (support=n)" using the dictionary when given.
std::string FormatItemset(const FrequentItemset& itemset,
                          const core::ItemDictionary* dictionary = nullptr);

}  // namespace dmt::assoc

#endif  // DMT_ASSOC_ITEMSET_H_
