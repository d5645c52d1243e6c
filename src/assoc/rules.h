// Association rule generation from frequent itemsets (the ap-genrules
// procedure of VLDB'94 §3): consequents grow apriori-style, exploiting the
// anti-monotonicity of confidence in the consequent.
#ifndef DMT_ASSOC_RULES_H_
#define DMT_ASSOC_RULES_H_

#include <string>
#include <vector>

#include "assoc/itemset.h"
#include "core/status.h"

namespace dmt::assoc {

/// An association rule antecedent => consequent with its quality measures.
struct AssociationRule {
  Itemset antecedent;
  Itemset consequent;
  /// Absolute support of antecedent ∪ consequent.
  uint32_t support_count = 0;
  /// Fractional support of antecedent ∪ consequent.
  double support = 0.0;
  /// supp(A ∪ C) / supp(A).
  double confidence = 0.0;
  /// confidence / supp(C): > 1 means positive correlation.
  double lift = 0.0;
  /// (1 - supp(C)) / (1 - confidence): how much more often the rule would
  /// have to be wrong if antecedent and consequent were independent.
  /// Infinity for exact (confidence = 1) rules; capped at 1e12.
  double conviction = 0.0;
  /// supp(A ∪ C) - supp(A) * supp(C) (Piatetsky-Shapiro): the fraction of
  /// transactions the rule covers beyond what independence predicts.
  /// Positive means positive correlation; bounded by [-0.25, 0.25].
  double leverage = 0.0;

  bool operator==(const AssociationRule& other) const {
    return antecedent == other.antecedent && consequent == other.consequent;
  }
};

/// Rule-generation thresholds. Validate() rejects NaN thresholds: NaN
/// compares false against every bound, so it would silently disable the
/// corresponding filter instead of failing loudly.
struct RuleParams {
  /// Minimum confidence in (0, 1].
  double min_confidence = 0.5;
  /// Minimum lift (0 disables the filter).
  double min_lift = 0.0;

  core::Status Validate() const;
};

/// Generates all rules meeting the thresholds from a mining result.
/// `num_transactions` is |D| of the mined database (for support/lift).
/// Rules come out sorted by descending confidence, then descending lift,
/// then canonically by antecedent/consequent. `mining` must be downward
/// closed: a rule whose antecedent or consequent has no entry, or a zero
/// support, in `mining` makes the call return InvalidArgument naming the
/// itemset and the subset (a hand-built or loaded result may lack them).
/// It must also hold each itemset once; a second entry for one itemset
/// is an InvalidArgument naming it.
core::Result<std::vector<AssociationRule>> GenerateRules(
    const MiningResult& mining, size_t num_transactions,
    const RuleParams& params);

/// Human-readable
/// "{a} => {b} (supp=…, conf=…, lift=…, conv=…, lev=…)".
/// All five serialized measures are printed; a conviction at the 1e12 cap
/// (exact rules) prints as "inf".
std::string FormatRule(const AssociationRule& rule,
                       const core::ItemDictionary* dictionary = nullptr);

}  // namespace dmt::assoc

#endif  // DMT_ASSOC_RULES_H_
