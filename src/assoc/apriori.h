// Apriori and AprioriTid frequent-itemset miners (Agrawal & Srikant,
// VLDB'94).
#ifndef DMT_ASSOC_APRIORI_H_
#define DMT_ASSOC_APRIORI_H_

#include "assoc/itemset.h"
#include "core/status.h"
#include "core/transaction.h"

namespace dmt::assoc {

/// Mines all frequent itemsets with level-wise candidate generation.
/// Each pass counts its candidates with a SupportCounter (one hash tree).
core::Result<MiningResult> MineApriori(const core::TransactionDatabase& db,
                                       const MiningParams& params);

/// AprioriTid: identical candidate generation, but after pass 1 supports are
/// counted against per-transaction candidate-id lists instead of the raw
/// database; transactions containing no candidates drop out of later passes.
core::Result<MiningResult> MineAprioriTid(const core::TransactionDatabase& db,
                                          const MiningParams& params);

}  // namespace dmt::assoc

#endif  // DMT_ASSOC_APRIORI_H_
