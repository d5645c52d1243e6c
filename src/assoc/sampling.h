// Sampling-based frequent-itemset mining (Toivonen, VLDB'96): mine a
// random sample at a lowered threshold, then verify the sample-frequent
// collection plus its negative border against the full database in one
// scan. If no border set turns out frequent, the result is exact; border
// misses trigger a (reported) fallback to a full mine.
#ifndef DMT_ASSOC_SAMPLING_H_
#define DMT_ASSOC_SAMPLING_H_

#include "assoc/itemset.h"
#include "core/status.h"
#include "core/transaction.h"

namespace dmt::assoc {

/// Tuning knobs for sampling-based mining.
struct SamplingOptions {
  /// Fraction of transactions drawn into the sample (Bernoulli, in (0, 1)).
  double sample_fraction = 0.1;
  /// The sample is mined at threshold_scaling * min_support to lower the
  /// chance of border misses (the paper's "lowered frequency threshold").
  double threshold_scaling = 0.8;
  uint64_t seed = 1;

  core::Status Validate() const;
};

/// Diagnostics of one sampling run.
struct SamplingStats {
  size_t sample_size = 0;
  /// Sample-frequent itemsets plus negative-border sets verified against
  /// the full database.
  size_t candidates_checked = 0;
  /// Negative-border sets that turned out globally frequent (0 = the
  /// one-scan result is provably complete).
  size_t border_misses = 0;
  /// True when misses forced a full FP-Growth fallback.
  bool fell_back = false;
};

/// Mines all frequent itemsets of `db`. Always exact: when the negative
/// border check fails, the function transparently falls back to a full
/// mine and records it in `stats`. Under a `max_itemset_size` cap, border
/// sets larger than the cap are excluded before miss accounting (they
/// cannot contribute to the capped result, nor can their supersets).
/// `MiningParams::num_threads` is honored by both the verification scan
/// and the FP-Growth mines.
core::Result<MiningResult> MineWithSampling(
    const core::TransactionDatabase& db, const MiningParams& params,
    const SamplingOptions& options = {}, SamplingStats* stats = nullptr);

/// The negative border of a (downward-closed) frequent collection: every
/// itemset that is not in the collection but whose proper subsets all are.
/// `item_universe` bounds the singleton layer. Exposed for tests and for
/// the streaming miner's window verification (assoc/streaming.h).
std::vector<Itemset> NegativeBorder(
    const std::vector<FrequentItemset>& frequent, size_t item_universe);

}  // namespace dmt::assoc

#endif  // DMT_ASSOC_SAMPLING_H_
