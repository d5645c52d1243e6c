// Cross-algorithm correctness: every miner — the four core algorithms,
// both Eclat tidset representations, sampling-based mining, and Apriori and
// sampling on 4 threads (their SupportCounter scans in chunks) — must
// produce exactly the same frequent-itemset collection as a brute-force
// reference on random databases, across support thresholds (including
// exact absolute-count boundaries), database shapes (including tie-heavy
// supports), and max_itemset_size caps.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "assoc/apriori.h"
#include "assoc/eclat.h"
#include "assoc/fp_growth.h"
#include "assoc/sampling.h"
#include "core/rng.h"
#include "gen/quest.h"

namespace dmt::assoc {
namespace {

using core::ItemId;
using core::TransactionDatabase;

/// Exhaustive reference miner: enumerates itemsets depth-first, counting
/// supports by scanning the database. Only usable on small universes.
void BruteForceExtend(const TransactionDatabase& db, uint32_t min_count,
                      const Itemset& prefix, ItemId next_item,
                      std::vector<FrequentItemset>* out) {
  for (ItemId item = next_item; item < db.item_universe(); ++item) {
    Itemset candidate = prefix;
    candidate.push_back(item);
    uint32_t support = 0;
    for (size_t t = 0; t < db.size(); ++t) {
      if (IsSubsetOf(candidate, db.transaction(t))) ++support;
    }
    if (support >= min_count) {
      out->push_back({candidate, support});
      BruteForceExtend(db, min_count, candidate, item + 1, out);
    }
  }
}

std::vector<FrequentItemset> BruteForceMine(const TransactionDatabase& db,
                                            double min_support) {
  uint32_t min_count = AbsoluteMinSupport(db.size(), min_support);
  std::vector<FrequentItemset> out;
  BruteForceExtend(db, min_count, {}, 0, &out);
  SortCanonical(&out);
  return out;
}

TransactionDatabase RandomDatabase(uint64_t seed, size_t transactions,
                                   size_t universe, double density) {
  core::Rng rng(seed);
  TransactionDatabase db;
  for (size_t t = 0; t < transactions; ++t) {
    std::vector<ItemId> items;
    for (ItemId item = 0; item < universe; ++item) {
      if (rng.Bernoulli(density)) items.push_back(item);
    }
    db.Add(items);
  }
  return db;
}

enum class Algorithm {
  kApriori,
  kAprioriThreads4,
  kAprioriTid,
  kFpGrowth,
  kSamplingThreads4,
  kEclat,
  kEclatBitset,
  kSampling,
  kSamplingTinySample,
};

std::string AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kApriori:
      return "Apriori";
    case Algorithm::kAprioriThreads4:
      return "AprioriThreads4";
    case Algorithm::kAprioriTid:
      return "AprioriTid";
    case Algorithm::kFpGrowth:
      return "FpGrowth";
    case Algorithm::kSamplingThreads4:
      return "SamplingThreads4";
    case Algorithm::kEclat:
      return "Eclat";
    case Algorithm::kEclatBitset:
      return "EclatBitset";
    case Algorithm::kSampling:
      return "Sampling";
    case Algorithm::kSamplingTinySample:
      return "SamplingTinySample";
  }
  return "?";
}

MiningParams OnFourThreads(MiningParams params) {
  params.num_threads = 4;
  return params;
}

core::Result<MiningResult> RunMiner(Algorithm algorithm,
                                    const TransactionDatabase& db,
                                    const MiningParams& params) {
  switch (algorithm) {
    case Algorithm::kApriori:
      return MineApriori(db, params);
    case Algorithm::kAprioriThreads4:
      return RunMiner(Algorithm::kApriori, db, OnFourThreads(params));
    case Algorithm::kAprioriTid:
      return MineAprioriTid(db, params);
    case Algorithm::kFpGrowth:
      return MineFpGrowth(db, params);
    case Algorithm::kSamplingThreads4:
      return RunMiner(Algorithm::kSampling, db, OnFourThreads(params));
    case Algorithm::kEclat:
      return MineEclat(db, params);
    case Algorithm::kEclatBitset: {
      EclatOptions options;
      options.representation = EclatOptions::TidsetRepr::kBitsets;
      return MineEclat(db, params, options);
    }
    case Algorithm::kSampling: {
      // Comfortable sample with a lowered threshold; the usual no-fallback
      // regime. Exactness must hold either way.
      SamplingOptions options;
      options.sample_fraction = 0.3;
      options.threshold_scaling = 0.5;
      options.seed = 23;
      return MineWithSampling(db, params, options);
    }
    case Algorithm::kSamplingTinySample: {
      // Starved sample at full threshold: border misses (and the full
      // remine they force) are the expected path.
      SamplingOptions options;
      options.sample_fraction = 0.05;
      options.threshold_scaling = 1.0;
      options.seed = 29;
      return MineWithSampling(db, params, options);
    }
  }
  return core::Status::Internal("unknown algorithm");
}

constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kApriori,        Algorithm::kAprioriThreads4,
    Algorithm::kAprioriTid,     Algorithm::kFpGrowth,
    Algorithm::kSamplingThreads4,
    Algorithm::kEclat,          Algorithm::kEclatBitset,
    Algorithm::kSampling,       Algorithm::kSamplingTinySample,
};

struct SweepCase {
  uint64_t seed;
  double min_support;
  double density;
};

using AgreementParam = std::tuple<Algorithm, SweepCase>;

class MinerAgreementTest : public testing::TestWithParam<AgreementParam> {};

TEST_P(MinerAgreementTest, MatchesBruteForceReference) {
  auto [algorithm, sweep] = GetParam();
  TransactionDatabase db =
      RandomDatabase(sweep.seed, 80, 10, sweep.density);
  MiningParams params;
  params.min_support = sweep.min_support;
  auto result = RunMiner(algorithm, db, params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto expected = BruteForceMine(db, sweep.min_support);
  ASSERT_EQ(result->itemsets.size(), expected.size())
      << AlgorithmName(algorithm);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result->itemsets[i].items, expected[i].items) << i;
    EXPECT_EQ(result->itemsets[i].support, expected[i].support)
        << FormatItemset(expected[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MinerAgreementTest,
    testing::Combine(testing::ValuesIn(kAllAlgorithms),
                     // The last two thresholds hit the absolute-count
                     // boundary exactly on the 80-transaction database
                     // (0.125*80 = 10, 0.1*80 = 8), so itemsets with
                     // support equal to the rounded-up count are in.
                     testing::Values(SweepCase{1, 0.2, 0.3},
                                     SweepCase{2, 0.1, 0.3},
                                     SweepCase{3, 0.05, 0.2},
                                     SweepCase{4, 0.3, 0.5},
                                     SweepCase{5, 0.15, 0.4},
                                     SweepCase{6, 0.125, 0.4},
                                     SweepCase{7, 0.1, 0.5})),
    [](const testing::TestParamInfo<AgreementParam>& param_info) {
      return AlgorithmName(std::get<0>(param_info.param)) + "_seed" +
             std::to_string(std::get<1>(param_info.param).seed);
    });

class MinerQuestAgreementTest : public testing::TestWithParam<Algorithm> {};

TEST_P(MinerQuestAgreementTest, AgreesWithAprioriOnQuestWorkload) {
  gen::QuestParams quest;
  quest.num_transactions = 400;
  quest.avg_transaction_size = 6.0;
  quest.avg_pattern_size = 3.0;
  quest.num_items = 50;
  quest.num_patterns = 20;
  auto db = gen::GenerateQuestTransactions(quest, 7);
  ASSERT_TRUE(db.ok());
  MiningParams params;
  params.min_support = 0.02;
  auto reference = MineApriori(*db, params);
  ASSERT_TRUE(reference.ok());
  auto result = RunMiner(GetParam(), *db, params);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->itemsets.size(), reference->itemsets.size());
  EXPECT_TRUE(std::equal(result->itemsets.begin(), result->itemsets.end(),
                         reference->itemsets.begin()));
}

INSTANTIATE_TEST_SUITE_P(AllMiners, MinerQuestAgreementTest,
                         testing::ValuesIn(kAllAlgorithms),
                         [](const testing::TestParamInfo<Algorithm>&
                                param_info) {
                           return AlgorithmName(param_info.param);
                         });

TEST(MinerPropertiesTest, DownwardClosure) {
  TransactionDatabase db = RandomDatabase(11, 100, 12, 0.35);
  MiningParams params;
  params.min_support = 0.1;
  auto result = MineFpGrowth(db, params);
  ASSERT_TRUE(result.ok());
  std::map<Itemset, uint32_t> supports;
  for (const auto& itemset : result->itemsets) {
    supports[itemset.items] = itemset.support;
  }
  for (const auto& itemset : result->itemsets) {
    if (itemset.items.size() < 2) continue;
    for (size_t drop = 0; drop < itemset.items.size(); ++drop) {
      Itemset subset;
      for (size_t p = 0; p < itemset.items.size(); ++p) {
        if (p != drop) subset.push_back(itemset.items[p]);
      }
      auto it = supports.find(subset);
      ASSERT_NE(it, supports.end())
          << "missing subset of " << FormatItemset(itemset);
      EXPECT_GE(it->second, itemset.support);
    }
  }
}

TEST(MinerPropertiesTest, HigherSupportYieldsSubsetOfItemsets) {
  TransactionDatabase db = RandomDatabase(13, 100, 12, 0.35);
  MiningParams loose, tight;
  loose.min_support = 0.05;
  tight.min_support = 0.2;
  auto loose_result = MineApriori(db, loose);
  auto tight_result = MineApriori(db, tight);
  ASSERT_TRUE(loose_result.ok());
  ASSERT_TRUE(tight_result.ok());
  EXPECT_LE(tight_result->itemsets.size(), loose_result->itemsets.size());
  std::map<Itemset, uint32_t> loose_supports;
  for (const auto& itemset : loose_result->itemsets) {
    loose_supports[itemset.items] = itemset.support;
  }
  for (const auto& itemset : tight_result->itemsets) {
    auto it = loose_supports.find(itemset.items);
    ASSERT_NE(it, loose_supports.end());
    EXPECT_EQ(it->second, itemset.support);
  }
}

TEST(MinerPropertiesTest, MaxItemsetSizeRespected) {
  TransactionDatabase db = RandomDatabase(17, 80, 10, 0.5);
  MiningParams params;
  params.min_support = 0.1;
  params.max_itemset_size = 2;
  for (Algorithm algorithm : kAllAlgorithms) {
    auto result = RunMiner(algorithm, db, params);
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->itemsets.empty()) << AlgorithmName(algorithm);
    for (const auto& itemset : result->itemsets) {
      EXPECT_LE(itemset.items.size(), 2u) << AlgorithmName(algorithm);
    }
    // The truncated collection must equal the full one filtered to size<=2.
    MiningParams full = params;
    full.max_itemset_size = 0;
    auto full_result = RunMiner(algorithm, db, full);
    ASSERT_TRUE(full_result.ok());
    std::vector<FrequentItemset> filtered;
    for (const auto& itemset : full_result->itemsets) {
      if (itemset.items.size() <= 2) filtered.push_back(itemset);
    }
    EXPECT_EQ(result->itemsets, filtered) << AlgorithmName(algorithm);
  }
}

TEST(MinerPropertiesTest, EmptyDatabaseYieldsNothing) {
  TransactionDatabase db;
  MiningParams params;
  params.min_support = 0.5;
  for (Algorithm algorithm : kAllAlgorithms) {
    auto result = RunMiner(algorithm, db, params);
    ASSERT_TRUE(result.ok()) << AlgorithmName(algorithm);
    EXPECT_TRUE(result->itemsets.empty()) << AlgorithmName(algorithm);
  }
}

TEST(MinerPropertiesTest, SingleTransactionFullSupport) {
  TransactionDatabase db;
  db.Add(std::vector<ItemId>{1, 2, 3});
  MiningParams params;
  params.min_support = 1.0;
  for (Algorithm algorithm : kAllAlgorithms) {
    auto result = RunMiner(algorithm, db, params);
    ASSERT_TRUE(result.ok()) << AlgorithmName(algorithm);
    // All 7 non-empty subsets of {1,2,3} are frequent with support 1.
    EXPECT_EQ(result->itemsets.size(), 7u) << AlgorithmName(algorithm);
    for (const auto& itemset : result->itemsets) {
      EXPECT_EQ(itemset.support, 1u);
    }
  }
}

TEST(MinerPropertiesTest, InvalidParamsRejected) {
  TransactionDatabase db;
  db.Add(std::vector<ItemId>{1});
  MiningParams params;
  params.min_support = 0.0;
  for (Algorithm algorithm : kAllAlgorithms) {
    EXPECT_FALSE(RunMiner(algorithm, db, params).ok())
        << AlgorithmName(algorithm);
  }
}

TEST(MinerPropertiesTest, TieHeavySupportsAgreeAcrossMinersAndThreads) {
  // Blocks of identical transactions give many itemsets exactly equal
  // supports, stressing every tie-dependent ordering decision (FP-tree
  // header sorts, equivalence-class walks, canonical sort) — which must
  // never leak into results, at any thread count.
  TransactionDatabase db;
  const std::vector<std::vector<ItemId>> blocks = {
      {0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {0, 2, 4}, {0, 1, 3, 4}};
  for (int repeat = 0; repeat < 12; ++repeat) {
    for (const auto& block : blocks) db.Add(block);
  }
  MiningParams params;
  params.min_support = 0.2;  // exactly 12 transactions: every block count
  auto expected = BruteForceMine(db, params.min_support);
  ASSERT_FALSE(expected.empty());
  for (Algorithm algorithm : kAllAlgorithms) {
    auto result = RunMiner(algorithm, db, params);
    ASSERT_TRUE(result.ok()) << AlgorithmName(algorithm);
    EXPECT_EQ(result->itemsets, expected) << AlgorithmName(algorithm);
  }
  for (size_t threads : {2u, 4u}) {
    params.num_threads = threads;
    for (Algorithm algorithm :
         {Algorithm::kFpGrowth, Algorithm::kEclat,
          Algorithm::kEclatBitset}) {
      auto result = RunMiner(algorithm, db, params);
      ASSERT_TRUE(result.ok()) << AlgorithmName(algorithm);
      EXPECT_EQ(result->itemsets, expected)
          << AlgorithmName(algorithm) << " at " << threads << " threads";
    }
  }
}

TEST(MinerPropertiesTest, FpGrowthAppliesSinglePathFastPathAtRoot) {
  // Regression: the root-level IsSinglePath() check used to select
  // between two identical branches, so the advertised fast path never ran
  // at the root. On a single-chain database the run must emit the path
  // combinations directly — zero conditional trees — and match the
  // brute-force reference exactly.
  TransactionDatabase db;
  for (int repeat = 0; repeat < 2; ++repeat) {
    db.Add(std::vector<ItemId>{0});
    db.Add(std::vector<ItemId>{0, 1});
    db.Add(std::vector<ItemId>{0, 1, 2});
    db.Add(std::vector<ItemId>{0, 1, 2, 3});
  }
  MiningParams params;
  params.min_support = 0.25;  // every chain item is frequent
  auto optimized = MineFpGrowth(db, params);
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(optimized->itemsets, BruteForceMine(db, params.min_support));
  // The fast path must actually have been taken at the root.
  EXPECT_EQ(optimized->conditional_trees_built, 0u);
  // A size cap must hold on the fast path too.
  params.max_itemset_size = 2;
  auto capped = MineFpGrowth(db, params);
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped->conditional_trees_built, 0u);
  for (const auto& itemset : capped->itemsets) {
    EXPECT_LE(itemset.items.size(), 2u);
  }
  EXPECT_EQ(capped->itemsets.size(), 10u);  // C(4,1) + C(4,2)
}

TEST(MinerPropertiesTest, FpGrowthTreeDoesNotDependOnRowOrder) {
  // Rows that share, repeat or end early on a path, and rows that vanish
  // after the frequency filter: however they are ordered, the trees are
  // the same set of path prefixes, so results and work counts must be too.
  std::vector<std::vector<ItemId>> rows;
  for (int repeat = 0; repeat < 3; ++repeat) rows.push_back({0, 1, 2, 3});
  // Prefixes of {0, 1, 2, 3} in the tree's item order (1, 3, 5, 0, 2, 4
  // by descending support).
  rows.push_back({1});
  rows.push_back({1, 3});
  rows.push_back({0, 1, 3});
  rows.push_back({8});  // no frequent item
  rows.push_back({9});
  rows.push_back({8, 9});
  for (int repeat = 0; repeat < 6; ++repeat) rows.push_back({1, 3, 5});
  rows.push_back({0, 2, 4});
  rows.push_back({1, 2, 4, 5});
  rows.push_back({0, 3, 5, 10});
  rows.push_back({2, 3, 4});
  rows.push_back({0, 1, 4, 5});
  auto database = [](const std::vector<std::vector<ItemId>>& in_order) {
    TransactionDatabase db;
    for (const auto& row : in_order) db.Add(row);
    return db;
  };
  std::vector<std::vector<ItemId>> reversed(rows.rbegin(), rows.rend());
  std::vector<std::vector<ItemId>> shuffled = rows;
  core::Rng rng(41);
  rng.Shuffle(shuffled);
  const std::pair<const char*, const std::vector<std::vector<ItemId>>*>
      orders[] = {{"original", &rows},
                  {"reversed", &reversed},
                  {"shuffled", &shuffled}};
  MiningParams params;
  params.min_support = 0.15;  // 3 of 20 rows: items 8, 9 and 10 fall out
  const auto expected = BruteForceMine(database(rows), params.min_support);
  ASSERT_FALSE(expected.empty());
  for (const auto& itemset : expected) EXPECT_LT(itemset.items.back(), 8u);
  params.num_threads = 1;
  auto reference = MineFpGrowth(database(rows), params);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->itemsets, expected);
  EXPECT_GT(reference->conditional_trees_built, 0u);
  for (size_t threads : {1u, 4u}) {
    params.num_threads = threads;
    for (const auto& [name, order] : orders) {
      auto result = MineFpGrowth(database(*order), params);
      ASSERT_TRUE(result.ok());
      const std::string where =
          std::string(name) + " rows, threads=" + std::to_string(threads);
      EXPECT_EQ(result->itemsets, expected) << where;
      EXPECT_EQ(result->conditional_trees_built,
                reference->conditional_trees_built)
          << where;
      EXPECT_EQ(result->fp_nodes_allocated, reference->fp_nodes_allocated)
          << where;
    }
  }
}

TEST(MinerPropertiesTest, PatternGrowthWorkCountersAreConsistent) {
  TransactionDatabase db = RandomDatabase(31, 200, 15, 0.3);
  MiningParams params;
  params.min_support = 0.05;
  auto fp = MineFpGrowth(db, params);
  ASSERT_TRUE(fp.ok());
  // FP-growth's counts are fixed by the data: a tree's nodes are its
  // distinct path prefixes, so no change of tree layout or build order may
  // move them.
  EXPECT_EQ(fp->itemsets.size(), 132u);
  EXPECT_EQ(fp->conditional_trees_built, 105u);
  EXPECT_EQ(fp->fp_nodes_allocated, 1330u);
  EXPECT_EQ(fp->tidset_intersections, 0u);
  auto quest = gen::GenerateQuestTransactions(gen::QuestParams{}, 1996);
  ASSERT_TRUE(quest.ok());  // T10.I4.D10K over 1,000 items, 2,000 patterns
  MiningParams quest_params;
  quest_params.min_support = 0.005;
  auto quest_fp = MineFpGrowth(*quest, quest_params);
  ASSERT_TRUE(quest_fp.ok());
  EXPECT_EQ(quest_fp->itemsets.size(), 1835u);
  EXPECT_EQ(quest_fp->conditional_trees_built, 1264u);
  EXPECT_EQ(quest_fp->fp_nodes_allocated, 77217u);
  auto eclat = MineEclat(db, params);
  ASSERT_TRUE(eclat.ok());
  EXPECT_GT(eclat->tidset_intersections, 0u);
  EXPECT_EQ(eclat->conditional_trees_built, 0u);
  // Both Eclat representations probe candidate-for-candidate identically.
  EclatOptions bitsets;
  bitsets.representation = EclatOptions::TidsetRepr::kBitsets;
  auto eclat_bitset = MineEclat(db, params, bitsets);
  ASSERT_TRUE(eclat_bitset.ok());
  EXPECT_EQ(eclat->tidset_intersections,
            eclat_bitset->tidset_intersections);
  // Apriori-family results carry no pattern-growth work.
  auto apriori = MineApriori(db, params);
  ASSERT_TRUE(apriori.ok());
  EXPECT_EQ(apriori->conditional_trees_built, 0u);
  EXPECT_EQ(apriori->fp_nodes_allocated, 0u);
  EXPECT_EQ(apriori->tidset_intersections, 0u);
}

TEST(MinerPropertiesTest, AprioriPassStatsConsistent) {
  TransactionDatabase db = RandomDatabase(23, 100, 10, 0.4);
  MiningParams params;
  params.min_support = 0.1;
  auto result = MineApriori(db, params);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->passes.empty());
  size_t total_frequent = 0;
  for (const auto& pass : result->passes) {
    EXPECT_GE(pass.candidates, pass.frequent);
    EXPECT_EQ(result->CountOfSize(pass.pass), pass.frequent);
    total_frequent += pass.frequent;
  }
  EXPECT_EQ(total_frequent, result->itemsets.size());
}

}  // namespace
}  // namespace dmt::assoc
