#include "assoc/rules.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "assoc/candidate_gen.h"
#include "core/string_util.h"

namespace dmt::assoc {

using core::Result;
using core::Status;

Status RuleParams::Validate() const {
  if (std::isnan(min_confidence) || std::isnan(min_lift)) {
    return Status::InvalidArgument(
        "rule thresholds must not be NaN (NaN passes every comparison "
        "and silently disables the filter)");
  }
  if (!(min_confidence > 0.0) || min_confidence > 1.0) {
    return Status::InvalidArgument("min_confidence must be in (0, 1]");
  }
  if (min_lift < 0.0) {
    return Status::InvalidArgument("min_lift must be >= 0");
  }
  return Status::OK();
}

namespace {

using SupportIndex = std::unordered_map<Itemset, uint32_t, ItemsetHash>;

double Conviction(double consequent_support_fraction, double confidence) {
  double denominator = 1.0 - confidence;
  if (denominator <= 1e-12) return 1e12;
  return (1.0 - consequent_support_fraction) / denominator;
}

Itemset Difference(const Itemset& from, const Itemset& remove) {
  Itemset out;
  out.reserve(from.size() - remove.size());
  std::set_difference(from.begin(), from.end(), remove.begin(), remove.end(),
                      std::back_inserter(out));
  return out;
}

std::string FormatItems(const Itemset& items,
                        const core::ItemDictionary* dictionary) {
  std::string out = "{";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    if (dictionary != nullptr) {
      out += dictionary->Name(items[i]);
    } else {
      out += std::to_string(items[i]);
    }
  }
  out += "}";
  return out;
}

/// Support of `subset` ⊂ `itemset`. A mining result loaded from a file or
/// built by hand need not be downward closed, and confidence and lift
/// divide by this support, so a missing or zero entry is an
/// InvalidArgument naming both itemsets.
Result<uint32_t> SubsetSupport(const FrequentItemset& itemset,
                               const SupportIndex& supports,
                               const Itemset& subset) {
  auto it = supports.find(subset);
  if (it == supports.end() || it->second == 0) {
    return Status::InvalidArgument(core::StrFormat(
        "itemset %s (support %u) has %s subset %s; rule generation needs a "
        "downward-closed mining result",
        FormatItems(itemset.items, nullptr).c_str(), itemset.support,
        it == supports.end() ? "no entry for its" : "a zero-support",
        FormatItems(subset, nullptr).c_str()));
  }
  return it->second;
}

/// The single rule-emission path shared by the seed layer and the grown
/// layers, so measure definitions (confidence/lift/conviction/leverage)
/// and the accept-lenient +1e-12 epsilon convention cannot drift between
/// the two. Returns true when the consequent passes the confidence bar
/// (and therefore stays in the layer for apriori-style growth — the lift
/// filter gates emission only, never pruning, because lift is not
/// anti-monotone in the consequent).
Result<bool> EmitRuleIfPassing(const FrequentItemset& itemset,
                               const SupportIndex& supports,
                               const RuleParams& params,
                               double num_transactions,
                               const Itemset& consequent,
                               std::vector<AssociationRule>* rules) {
  Itemset antecedent = Difference(itemset.items, consequent);
  DMT_ASSIGN_OR_RETURN(const uint32_t antecedent_support,
                       SubsetSupport(itemset, supports, antecedent));
  double confidence = static_cast<double>(itemset.support) /
                      static_cast<double>(antecedent_support);
  if (confidence + 1e-12 < params.min_confidence) return false;
  DMT_ASSIGN_OR_RETURN(const uint32_t consequent_support,
                       SubsetSupport(itemset, supports, consequent));
  double consequent_fraction =
      static_cast<double>(consequent_support) / num_transactions;
  double lift = confidence / consequent_fraction;
  if (lift + 1e-12 >= params.min_lift) {
    double rule_support =
        static_cast<double>(itemset.support) / num_transactions;
    double antecedent_fraction =
        static_cast<double>(antecedent_support) / num_transactions;
    rules->push_back({std::move(antecedent), consequent, itemset.support,
                      rule_support, confidence, lift,
                      Conviction(consequent_fraction, confidence),
                      rule_support - antecedent_fraction *
                                         consequent_fraction});
  }
  return true;
}

/// ap-genrules: given the itemset and a layer of m-item consequents that
/// already passed the confidence bar, grow (m+1)-item consequents.
Status GrowConsequents(const FrequentItemset& itemset,
                       const SupportIndex& supports, const RuleParams& params,
                       double num_transactions,
                       std::vector<Itemset> consequent_layer,
                       std::vector<AssociationRule>* rules) {
  while (!consequent_layer.empty() &&
         consequent_layer[0].size() + 1 < itemset.items.size()) {
    CandidateGenResult gen = GenerateCandidates(consequent_layer);
    std::vector<Itemset> next_layer;
    for (auto& consequent : gen.candidates) {
      DMT_ASSIGN_OR_RETURN(
          const bool passed,
          EmitRuleIfPassing(itemset, supports, params, num_transactions,
                            consequent, rules));
      if (passed) next_layer.push_back(std::move(consequent));
    }
    consequent_layer = std::move(next_layer);
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<AssociationRule>> GenerateRules(
    const MiningResult& mining, size_t num_transactions,
    const RuleParams& params) {
  DMT_RETURN_NOT_OK(params.Validate());
  if (num_transactions == 0) {
    return Status::InvalidArgument("num_transactions must be > 0");
  }
  const double n = static_cast<double>(num_transactions);

  SupportIndex supports;
  supports.reserve(mining.itemsets.size());
  for (const auto& itemset : mining.itemsets) {
    supports.emplace(itemset.items, itemset.support);
  }

  std::vector<AssociationRule> rules;
  for (const auto& itemset : mining.itemsets) {
    if (itemset.items.size() < 2) continue;
    // Seed layer: single-item consequents that pass the confidence bar
    // (confidence is anti-monotone in the consequent, so failures prune).
    std::vector<Itemset> seed_layer;
    for (core::ItemId item : itemset.items) {
      Itemset consequent{item};
      DMT_ASSIGN_OR_RETURN(const bool passed,
                           EmitRuleIfPassing(itemset, supports, params, n,
                                             consequent, &rules));
      if (passed) seed_layer.push_back(std::move(consequent));
    }
    DMT_RETURN_NOT_OK(GrowConsequents(itemset, supports, params, n,
                                      std::move(seed_layer), &rules));
  }

  std::sort(rules.begin(), rules.end(),
            [](const AssociationRule& a, const AssociationRule& b) {
              if (a.confidence != b.confidence) {
                return a.confidence > b.confidence;
              }
              if (a.lift != b.lift) return a.lift > b.lift;
              if (a.antecedent != b.antecedent) {
                return a.antecedent < b.antecedent;
              }
              return a.consequent < b.consequent;
            });
  return rules;
}

std::string FormatRule(const AssociationRule& rule,
                       const core::ItemDictionary* dictionary) {
  // Conviction is serialized and round-tripped through DMTBIN01
  // containers like the other measures, so the human-readable form prints
  // it (and leverage) too; the 1e12 cap marks an exact rule, rendered as
  // "inf" rather than a misleading finite number.
  std::string conviction = rule.conviction >= 1e12
                               ? "inf"
                               : core::StrFormat("%.2f", rule.conviction);
  return core::StrFormat(
      "%s => %s (supp=%.4f, conf=%.3f, lift=%.2f, conv=%s, lev=%.4f)",
      FormatItems(rule.antecedent, dictionary).c_str(),
      FormatItems(rule.consequent, dictionary).c_str(), rule.support,
      rule.confidence, rule.lift, conviction.c_str(), rule.leverage);
}

}  // namespace dmt::assoc
