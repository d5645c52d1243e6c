#include "assoc/rules.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <map>

#include "assoc/apriori.h"
#include "assoc/fp_growth.h"
#include "core/rng.h"
#include "gen/quest.h"

namespace dmt::assoc {
namespace {

using core::ItemId;
using core::TransactionDatabase;

/// A small database with a planted implication: item 1 almost always
/// implies item 2.
TransactionDatabase PlantedDatabase() {
  TransactionDatabase db;
  for (int i = 0; i < 8; ++i) db.Add(std::vector<ItemId>{1, 2});
  db.Add(std::vector<ItemId>{1});
  db.Add(std::vector<ItemId>{2});
  for (int i = 0; i < 10; ++i) db.Add(std::vector<ItemId>{3});
  return db;
}

MiningResult MineAll(const TransactionDatabase& db, double min_support) {
  MiningParams params;
  params.min_support = min_support;
  auto result = MineApriori(db, params);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

TEST(RulesTest, FindsPlantedImplication) {
  TransactionDatabase db = PlantedDatabase();
  MiningResult mining = MineAll(db, 0.05);
  RuleParams params;
  params.min_confidence = 0.8;
  auto rules = GenerateRules(mining, db.size(), params);
  ASSERT_TRUE(rules.ok());
  bool found = false;
  for (const auto& rule : *rules) {
    if (rule.antecedent == Itemset{1} && rule.consequent == Itemset{2}) {
      found = true;
      EXPECT_EQ(rule.support_count, 8u);
      EXPECT_NEAR(rule.confidence, 8.0 / 9.0, 1e-12);
      EXPECT_NEAR(rule.support, 8.0 / 20.0, 1e-12);
      EXPECT_NEAR(rule.lift, (8.0 / 9.0) / (9.0 / 20.0), 1e-12);
    }
  }
  EXPECT_TRUE(found);
}

TEST(RulesTest, ConfidenceThresholdFilters) {
  TransactionDatabase db = PlantedDatabase();
  MiningResult mining = MineAll(db, 0.05);
  RuleParams strict;
  strict.min_confidence = 0.95;
  auto rules = GenerateRules(mining, db.size(), strict);
  ASSERT_TRUE(rules.ok());
  for (const auto& rule : *rules) {
    EXPECT_GE(rule.confidence, 0.95 - 1e-12);
  }
}

TEST(RulesTest, LiftThresholdFilters) {
  TransactionDatabase db = PlantedDatabase();
  MiningResult mining = MineAll(db, 0.05);
  RuleParams params;
  params.min_confidence = 0.1;
  params.min_lift = 1.5;
  auto rules = GenerateRules(mining, db.size(), params);
  ASSERT_TRUE(rules.ok());
  for (const auto& rule : *rules) {
    EXPECT_GE(rule.lift, 1.5 - 1e-9);
  }
}

TEST(RulesTest, RulesSortedByConfidenceThenLift) {
  TransactionDatabase db = PlantedDatabase();
  MiningResult mining = MineAll(db, 0.05);
  RuleParams params;
  params.min_confidence = 0.1;
  auto rules = GenerateRules(mining, db.size(), params);
  ASSERT_TRUE(rules.ok());
  for (size_t i = 1; i < rules->size(); ++i) {
    const auto& prev = (*rules)[i - 1];
    const auto& cur = (*rules)[i];
    EXPECT_TRUE(prev.confidence > cur.confidence ||
                (prev.confidence == cur.confidence &&
                 prev.lift >= cur.lift));
  }
}

TEST(RulesTest, EveryRulePartitionsItsItemset) {
  core::Rng rng(5);
  TransactionDatabase db;
  for (int t = 0; t < 60; ++t) {
    std::vector<ItemId> items;
    for (ItemId item = 0; item < 8; ++item) {
      if (rng.Bernoulli(0.45)) items.push_back(item);
    }
    db.Add(items);
  }
  MiningResult mining = MineAll(db, 0.1);
  RuleParams params;
  params.min_confidence = 0.4;
  auto rules = GenerateRules(mining, db.size(), params);
  ASSERT_TRUE(rules.ok());
  EXPECT_FALSE(rules->empty());
  for (const auto& rule : *rules) {
    EXPECT_FALSE(rule.antecedent.empty());
    EXPECT_FALSE(rule.consequent.empty());
    // Antecedent and consequent are disjoint.
    Itemset intersection;
    std::set_intersection(rule.antecedent.begin(), rule.antecedent.end(),
                          rule.consequent.begin(), rule.consequent.end(),
                          std::back_inserter(intersection));
    EXPECT_TRUE(intersection.empty());
    // Confidence is consistent with raw supports recomputed from the db.
    Itemset all;
    std::set_union(rule.antecedent.begin(), rule.antecedent.end(),
                   rule.consequent.begin(), rule.consequent.end(),
                   std::back_inserter(all));
    uint32_t support_all = 0, support_antecedent = 0;
    for (size_t t = 0; t < db.size(); ++t) {
      if (IsSubsetOf(all, db.transaction(t))) ++support_all;
      if (IsSubsetOf(rule.antecedent, db.transaction(t))) {
        ++support_antecedent;
      }
    }
    EXPECT_EQ(rule.support_count, support_all);
    EXPECT_NEAR(rule.confidence,
                static_cast<double>(support_all) / support_antecedent,
                1e-12);
  }
}

TEST(RulesTest, MultiItemConsequentsGenerated) {
  // Items 1,2,3 always together: rules like {1} => {2,3} must appear.
  TransactionDatabase db;
  for (int i = 0; i < 10; ++i) db.Add(std::vector<ItemId>{1, 2, 3});
  db.Add(std::vector<ItemId>{4});
  MiningResult mining = MineAll(db, 0.5);
  RuleParams params;
  params.min_confidence = 0.9;
  auto rules = GenerateRules(mining, db.size(), params);
  ASSERT_TRUE(rules.ok());
  bool found = false;
  for (const auto& rule : *rules) {
    if (rule.antecedent == Itemset{1} &&
        rule.consequent == Itemset{2, 3}) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(RulesTest, NoRulesFromSingletonItemsets) {
  TransactionDatabase db;
  db.Add(std::vector<ItemId>{1});
  db.Add(std::vector<ItemId>{2});
  MiningResult mining = MineAll(db, 0.5);
  RuleParams params;
  auto rules = GenerateRules(mining, db.size(), params);
  ASSERT_TRUE(rules.ok());
  EXPECT_TRUE(rules->empty());
}

TEST(RulesTest, ValidatesParameters) {
  MiningResult mining;
  RuleParams params;
  params.min_confidence = 0.0;
  EXPECT_FALSE(GenerateRules(mining, 10, params).ok());
  params.min_confidence = 1.5;
  EXPECT_FALSE(GenerateRules(mining, 10, params).ok());
  params.min_confidence = 0.5;
  params.min_lift = -1.0;
  EXPECT_FALSE(GenerateRules(mining, 10, params).ok());
  params.min_lift = 0.0;
  EXPECT_FALSE(GenerateRules(mining, 0, params).ok());
}

TEST(RulesTest, ValidateRejectsNaNThresholds) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  MiningResult mining;
  RuleParams params;
  params.min_confidence = nan;
  EXPECT_FALSE(GenerateRules(mining, 10, params).ok());
  params.min_confidence = 0.5;
  params.min_lift = nan;
  EXPECT_FALSE(GenerateRules(mining, 10, params).ok());
}

TEST(RulesTest, RejectsResultsThatAreNotDownwardClosed) {
  // A hand-built (or loaded) result need not hold every subset of every
  // itemset. Each missing or zero-support subset must come back as
  // InvalidArgument naming the itemset and the subset, never abort.
  RuleParams params;
  auto expect_rejected = [&](const MiningResult& mining,
                             const std::string& itemset,
                             const std::string& subset) {
    auto rules = GenerateRules(mining, 20, params);
    ASSERT_FALSE(rules.ok()) << itemset;
    EXPECT_EQ(rules.status().code(), core::StatusCode::kInvalidArgument);
    const std::string& message = rules.status().message();
    EXPECT_NE(message.find("itemset " + itemset), std::string::npos)
        << message;
    EXPECT_NE(message.find("subset " + subset), std::string::npos)
        << message;
  };
  // No subsets at all: the first antecedent looked up is missing.
  MiningResult lone;
  lone.itemsets = {{{0, 1}, 5}};
  expect_rejected(lone, "{0, 1}", "{1}");
  // The antecedent is present and passes confidence; the consequent is
  // missing.
  MiningResult no_consequent;
  no_consequent.itemsets = {{{1}, 5}, {{0, 1}, 5}};
  expect_rejected(no_consequent, "{0, 1}", "{0}");
  // Zero support would divide by zero in confidence and lift.
  MiningResult zero;
  zero.itemsets = {{{0}, 0}, {{1}, 0}, {{0, 1}, 5}};
  expect_rejected(zero, "{0, 1}", "{1}");
  EXPECT_NE(GenerateRules(zero, 20, params).status().message().find(
                "zero-support"),
            std::string::npos);
  // The gap is met only in the grown layer: consequent {2} fails the
  // confidence bar (4/10), so {0}, {1} grow into {0, 1}, whose antecedent
  // {2} is missing.
  MiningResult grown;
  grown.itemsets = {{{0, 1, 2}, 4}, {{0}, 10}, {{1}, 10},
                    {{0, 1}, 10}, {{0, 2}, 4}, {{1, 2}, 4}};
  expect_rejected(grown, "{0, 1, 2}", "{2}");
}

TEST(RulesTest, RejectsDuplicateItemsets) {
  // {0, 1} twice would give every rule of it twice, with contradictory
  // measures ({0} => {1} at confidence 0.7 and again at 0.5).
  MiningResult mining;
  mining.itemsets = {{{0}, 10}, {{1}, 10}, {{0, 1}, 5}, {{0, 1}, 7}};
  auto rules = GenerateRules(mining, 20, RuleParams());
  ASSERT_FALSE(rules.ok());
  EXPECT_EQ(rules.status().code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(rules.status().message().find("itemset {0, 1} appears twice"),
            std::string::npos)
      << rules.status().message();
  // A duplicated singleton is caught too, though no rule has it as its
  // own itemset.
  mining.itemsets = {{{0}, 10}, {{1}, 10}, {{0}, 10}, {{0, 1}, 5}};
  EXPECT_EQ(GenerateRules(mining, 20, RuleParams()).status().code(),
            core::StatusCode::kInvalidArgument);
}

/// Every rule of `mining` by brute force: each non-empty proper subset of
/// each itemset is a consequent, the measures follow the formulas that
/// rules.h documents, and the rules are filtered and sorted as documented.
std::vector<AssociationRule> BruteForceRules(const MiningResult& mining,
                                             size_t num_transactions,
                                             const RuleParams& params) {
  std::map<Itemset, uint32_t> supports;
  for (const FrequentItemset& itemset : mining.itemsets) {
    supports.emplace(itemset.items, itemset.support);
  }
  const double n = static_cast<double>(num_transactions);
  std::vector<AssociationRule> rules;
  for (const FrequentItemset& itemset : mining.itemsets) {
    const size_t k = itemset.items.size();
    if (k < 2) continue;
    for (uint64_t mask = 1; mask + 1 < (uint64_t{1} << k); ++mask) {
      AssociationRule rule;
      for (size_t p = 0; p < k; ++p) {
        ((mask >> p) & 1 ? rule.consequent : rule.antecedent)
            .push_back(itemset.items[p]);
      }
      const double antecedent_fraction =
          static_cast<double>(supports.at(rule.antecedent)) / n;
      const double consequent_fraction =
          static_cast<double>(supports.at(rule.consequent)) / n;
      rule.support_count = itemset.support;
      rule.support = static_cast<double>(itemset.support) / n;
      rule.confidence =
          static_cast<double>(itemset.support) /
          static_cast<double>(supports.at(rule.antecedent));
      rule.lift = rule.confidence / consequent_fraction;
      if (rule.confidence + 1e-12 < params.min_confidence ||
          rule.lift + 1e-12 < params.min_lift) {
        continue;
      }
      rule.conviction = 1.0 - rule.confidence <= 1e-12
                            ? 1e12
                            : (1.0 - consequent_fraction) /
                                  (1.0 - rule.confidence);
      rule.leverage = rule.support - antecedent_fraction * consequent_fraction;
      rules.push_back(std::move(rule));
    }
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

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameRule(const AssociationRule& a, const AssociationRule& b) {
  return a.antecedent == b.antecedent && a.consequent == b.consequent &&
         a.support_count == b.support_count &&
         SameBits(a.support, b.support) &&
         SameBits(a.confidence, b.confidence) && SameBits(a.lift, b.lift) &&
         SameBits(a.conviction, b.conviction) &&
         SameBits(a.leverage, b.leverage);
}

TEST(RulesTest, MatchesBruteForceEnumeration) {
  // (database, mining result) pairs: random databases of several noise
  // densities over 12 items, with three overlapping planted patterns so
  // that every threshold pair below keeps some rules, and T10.I4.D10K at
  // 0.5%.
  const std::vector<std::vector<ItemId>> planted = {
      {0, 1, 2, 3}, {3, 4, 5}, {6, 7, 8, 9, 10}};
  std::vector<std::pair<TransactionDatabase, MiningResult>> workloads;
  for (const auto& [seed, density] :
       {std::pair{3, 0.05}, std::pair{11, 0.15}, std::pair{23, 0.25}}) {
    core::Rng rng(seed);
    TransactionDatabase db;
    for (int t = 0; t < 200; ++t) {
      std::vector<bool> in(12, false);
      for (ItemId item = 0; item < 12; ++item) in[item] = rng.Bernoulli(density);
      for (const std::vector<ItemId>& pattern : planted) {
        if (!rng.Bernoulli(0.35)) continue;
        for (ItemId item : pattern) in[item] = in[item] || rng.Bernoulli(0.95);
      }
      std::vector<ItemId> items;
      for (ItemId item = 0; item < 12; ++item) {
        if (in[item]) items.push_back(item);
      }
      db.Add(items);
    }
    MiningResult mining = MineAll(db, 0.08);
    workloads.emplace_back(std::move(db), std::move(mining));
  }
  {
    auto quest = gen::GenerateQuestTransactions(gen::QuestParams(), 1);
    ASSERT_TRUE(quest.ok());
    MiningParams params;
    params.min_support = 0.005;
    auto mining = MineFpGrowth(*quest, params);
    ASSERT_TRUE(mining.ok());
    workloads.emplace_back(std::move(quest).value(),
                           std::move(mining).value());
  }
  for (const auto& [db, mining] : workloads) {
    for (double min_confidence : {0.1, 0.5, 0.9}) {
      for (double min_lift : {0.0, 1.2}) {
        SCOPED_TRACE(testing::Message()
                     << db.size() << " transactions, " << mining.itemsets.size()
                     << " itemsets, min_confidence " << min_confidence
                     << ", min_lift " << min_lift);
        RuleParams params;
        params.min_confidence = min_confidence;
        params.min_lift = min_lift;
        auto rules = GenerateRules(mining, db.size(), params);
        ASSERT_TRUE(rules.ok()) << rules.status().ToString();
        const std::vector<AssociationRule> want =
            BruteForceRules(mining, db.size(), params);
        ASSERT_FALSE(want.empty());
        ASSERT_EQ(rules->size(), want.size());
        for (size_t r = 0; r < want.size(); ++r) {
          ASSERT_TRUE(SameRule((*rules)[r], want[r]))
              << "rule " << r << ": got " << FormatRule((*rules)[r])
              << ", want " << FormatRule(want[r]);
        }
      }
    }
  }
}

TEST(RulesTest, RuleExactlyAtConfidenceAndLiftThresholdIncluded) {
  // conf({1} => {2}) = 3/4 exactly; supp({2}) = 3/4, so lift = 1 exactly.
  // Both land on the threshold and must pass the accept-lenient epsilon
  // deterministically (the comparisons at rules.cc use `+ 1e-12 <`).
  TransactionDatabase db;
  for (int i = 0; i < 3; ++i) db.Add(std::vector<ItemId>{1, 2});
  db.Add(std::vector<ItemId>{1});
  MiningResult mining = MineAll(db, 0.25);
  RuleParams params;
  params.min_confidence = 0.75;
  params.min_lift = 1.0;
  auto rules = GenerateRules(mining, db.size(), params);
  ASSERT_TRUE(rules.ok());
  bool found = false;
  for (const auto& rule : *rules) {
    if (rule.antecedent == Itemset{1} && rule.consequent == Itemset{2}) {
      found = true;
      EXPECT_EQ(rule.confidence, 0.75);
      EXPECT_EQ(rule.lift, 1.0);
    }
  }
  EXPECT_TRUE(found) << "rule exactly at both thresholds was dropped";
  // Nudging either threshold past the rule's exact value excludes it.
  params.min_confidence = 0.75 + 1e-9;
  auto stricter = GenerateRules(mining, db.size(), params);
  ASSERT_TRUE(stricter.ok());
  for (const auto& rule : *stricter) {
    EXPECT_FALSE(rule.antecedent == Itemset{1} &&
                 rule.consequent == Itemset{2});
  }
  params.min_confidence = 0.75;
  params.min_lift = 1.0 + 1e-9;
  auto lift_strict = GenerateRules(mining, db.size(), params);
  ASSERT_TRUE(lift_strict.ok());
  for (const auto& rule : *lift_strict) {
    EXPECT_FALSE(rule.antecedent == Itemset{1} &&
                 rule.consequent == Itemset{2});
  }
}

TEST(RulesTest, LeverageComputedCorrectly) {
  TransactionDatabase db = PlantedDatabase();
  MiningResult mining = MineAll(db, 0.05);
  RuleParams params;
  params.min_confidence = 0.1;
  auto rules = GenerateRules(mining, db.size(), params);
  ASSERT_TRUE(rules.ok());
  ASSERT_FALSE(rules->empty());
  for (const auto& rule : *rules) {
    uint32_t antecedent_support = 0, consequent_support = 0;
    for (size_t t = 0; t < db.size(); ++t) {
      if (IsSubsetOf(rule.antecedent, db.transaction(t))) {
        ++antecedent_support;
      }
      if (IsSubsetOf(rule.consequent, db.transaction(t))) {
        ++consequent_support;
      }
    }
    double n = static_cast<double>(db.size());
    double expected = rule.support - (antecedent_support / n) *
                                         (consequent_support / n);
    EXPECT_NEAR(rule.leverage, expected, 1e-12) << FormatRule(rule);
    EXPECT_GE(rule.leverage, -0.25 - 1e-12);
    EXPECT_LE(rule.leverage, 0.25 + 1e-12);
  }
}


TEST(RulesTest, ConvictionComputedCorrectly) {
  TransactionDatabase db = PlantedDatabase();
  MiningResult mining = MineAll(db, 0.05);
  RuleParams params;
  params.min_confidence = 0.5;
  auto rules = GenerateRules(mining, db.size(), params);
  ASSERT_TRUE(rules.ok());
  for (const auto& rule : *rules) {
    // Recompute conviction from the rule's own fields.
    uint32_t consequent_support = 0;
    for (size_t t = 0; t < db.size(); ++t) {
      if (IsSubsetOf(rule.consequent, db.transaction(t))) {
        ++consequent_support;
      }
    }
    double consequent_fraction =
        static_cast<double>(consequent_support) /
        static_cast<double>(db.size());
    if (rule.confidence >= 1.0 - 1e-12) {
      EXPECT_GE(rule.conviction, 1e11);
    } else {
      EXPECT_NEAR(rule.conviction,
                  (1.0 - consequent_fraction) / (1.0 - rule.confidence),
                  1e-9);
    }
    EXPECT_GT(rule.conviction, 0.0);
  }
}

TEST(RulesTest, ConvictionAboveOneForPositivelyCorrelatedRules) {
  TransactionDatabase db = PlantedDatabase();
  MiningResult mining = MineAll(db, 0.05);
  RuleParams params;
  params.min_confidence = 0.8;
  params.min_lift = 1.2;
  auto rules = GenerateRules(mining, db.size(), params);
  ASSERT_TRUE(rules.ok());
  ASSERT_FALSE(rules->empty());
  for (const auto& rule : *rules) {
    EXPECT_GT(rule.conviction, 1.0) << FormatRule(rule);
  }
}

TEST(RulesTest, FormatRuleReadable) {
  AssociationRule rule;
  rule.antecedent = {0};
  rule.consequent = {1};
  rule.support = 0.25;
  rule.confidence = 0.8;
  rule.lift = 1.6;
  rule.conviction = 2.5;
  rule.leverage = 0.0938;
  EXPECT_EQ(FormatRule(rule),
            "{0} => {1} (supp=0.2500, conf=0.800, lift=1.60, conv=2.50, "
            "lev=0.0938)");
  core::ItemDictionary dict;
  dict.GetOrAdd("beer");
  dict.GetOrAdd("chips");
  EXPECT_EQ(FormatRule(rule, &dict),
            "{beer} => {chips} (supp=0.2500, conf=0.800, lift=1.60, "
            "conv=2.50, lev=0.0938)");
}

TEST(RulesTest, FormatRulePrintsCappedConvictionAsInf) {
  AssociationRule rule;
  rule.antecedent = {0};
  rule.consequent = {1};
  rule.support = 0.5;
  rule.confidence = 1.0;
  rule.lift = 2.0;
  rule.conviction = 1e12;  // the cap FormatRule renders as "inf"
  rule.leverage = 0.25;
  EXPECT_EQ(FormatRule(rule),
            "{0} => {1} (supp=0.5000, conf=1.000, lift=2.00, conv=inf, "
            "lev=0.2500)");
}

}  // namespace
}  // namespace dmt::assoc
