// FP-Growth frequent-itemset miner (Han, Pei & Yin, SIGMOD 2000): compresses
// the database into a prefix tree (FP-tree) ordered by descending item
// frequency, then mines it recursively via conditional pattern bases —
// no candidate generation. `MiningParams::num_threads` mines the top-level
// conditional trees (one task per header entry) on a thread pool under the
// deterministic chunk-merge contract of core::ParallelContext: any thread
// count reproduces the serial output bit for bit, including pass stats and
// the conditional_trees_built / fp_nodes_allocated work counters.
#ifndef DMT_ASSOC_FP_GROWTH_H_
#define DMT_ASSOC_FP_GROWTH_H_

#include "assoc/itemset.h"
#include "core/status.h"
#include "core/transaction.h"

namespace dmt::assoc {

/// Mines all frequent itemsets by pattern growth. When a tree (the root or
/// a conditional one) degenerates to a single path of at most 30 nodes,
/// every combination of the path's items is emitted directly instead of
/// recursing (the paper's single-path optimization).
core::Result<MiningResult> MineFpGrowth(const core::TransactionDatabase& db,
                                        const MiningParams& params);

}  // namespace dmt::assoc

#endif  // DMT_ASSOC_FP_GROWTH_H_
