// Out-of-core frequent-itemset mining over on-disk partitions — the
// two-phase partitioned algorithm of Savasere, Omiecinski & Navathe
// (VLDB'95), run against io/ container files produced by
// io::WritePartitions.
//
// Phase 1 maps one partition at a time (io::MappedTransactionDatabase)
// and mines it in memory at the fractional threshold, so peak RAM is one
// partition plus the candidate union. Any itemset globally frequent at
// min_support s is locally frequent in at least one partition at s
// (if count(X) >= ceil(s*N) then some partition has count_p(X) >=
// s*n_p, hence count_p(X) >= ceil(s*n_p) since counts are integral), so
// the union of local results is a superset of the global answer — no
// false negatives. Phase 2 streams every partition once more through the
// mapping and counts the union exactly with one SupportCounter (an item
// table for singletons, one hash tree per larger size, counted layer by
// layer), then keeps itemsets with global support >= AbsoluteMinSupport
// over N = sum of partition sizes — the in-memory miners' rounding rule.
// Exact counting makes the result — itemsets and supports after
// SortCanonical — bit-identical to the in-memory miners at every
// partition count and thread count.
//
// `passes` reports the phase-2 census (per size: candidates in the
// union, survivors); the phase-1 work counters of the local mines are
// summed into the result, and `partitions_mined` / `bytes_mapped` record
// the out-of-core footprint. All counters are invariant across
// num_threads (the local mines honor the determinism contract and the
// counting pass uses core::CountPartitioned).
//
// The entry points are declared here with the other miners but live in
// the io library (io/out_of_core.cc) because they drive the container
// loaders: link dmt_io to use them.
#ifndef DMT_ASSOC_OUT_OF_CORE_H_
#define DMT_ASSOC_OUT_OF_CORE_H_

#include <span>
#include <string>

#include "assoc/apriori.h"
#include "assoc/fp_growth.h"
#include "assoc/itemset.h"
#include "core/status.h"

namespace dmt::assoc {

/// Partitioned Apriori: each partition is mined by MineApriori, and the
/// union is counted exactly by the SupportCounter Apriori counts with.
core::Result<MiningResult> MineAprioriPartitioned(
    std::span<const std::string> partition_paths, const MiningParams& params);

/// Disk-projected FP-Growth: each partition is projected into memory and
/// mined by MineFpGrowth; the union is counted exactly by a
/// SupportCounter.
core::Result<MiningResult> MineFpGrowthDiskProjected(
    std::span<const std::string> partition_paths, const MiningParams& params);

}  // namespace dmt::assoc

#endif  // DMT_ASSOC_OUT_OF_CORE_H_
