#include "assoc/sampling.h"

#include <gtest/gtest.h>

#include "assoc/fp_growth.h"
#include "core/rng.h"
#include "gen/quest.h"

namespace dmt::assoc {
namespace {

using core::ItemId;
using core::TransactionDatabase;

TEST(NegativeBorderTest, SingletonsOfMissingItems) {
  std::vector<FrequentItemset> frequent = {{{0}, 5}, {{2}, 4}};
  auto border = NegativeBorder(frequent, 4);
  // Items 1 and 3 are absent -> border; join of {0} and {2} -> {0,2}.
  std::vector<Itemset> expected = {{1}, {3}, {0, 2}};
  ASSERT_EQ(border.size(), expected.size());
  for (const auto& itemset : expected) {
    EXPECT_NE(std::find(border.begin(), border.end(), itemset),
              border.end());
  }
}

TEST(NegativeBorderTest, RespectsDownwardClosure) {
  // Frequent: all singletons of {0,1,2}, pairs {0,1} and {0,2}.
  std::vector<FrequentItemset> frequent = {
      {{0}, 9}, {{1}, 8}, {{2}, 7}, {{0, 1}, 5}, {{0, 2}, 4}};
  auto border = NegativeBorder(frequent, 3);
  // {1,2} is the only missing pair with frequent subsets; {0,1,2} needs
  // {1,2} frequent so it is NOT in the border.
  ASSERT_EQ(border.size(), 1u);
  EXPECT_EQ(border[0], (Itemset{1, 2}));
}

TEST(NegativeBorderTest, CompleteCollectionHasBorderOfJoins) {
  std::vector<FrequentItemset> frequent = {
      {{0}, 9}, {{1}, 8}, {{0, 1}, 5}};
  auto border = NegativeBorder(frequent, 2);
  EXPECT_TRUE(border.empty());  // nothing missing below the closure
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

TEST(SamplingTest, ExactlyMatchesFullMineOnRandomData) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    TransactionDatabase db = RandomDatabase(seed, 2000, 20, 0.25);
    MiningParams params;
    params.min_support = 0.05;
    SamplingOptions options;
    options.sample_fraction = 0.2;
    options.seed = seed;
    SamplingStats stats;
    auto sampled = MineWithSampling(db, params, options, &stats);
    auto full = MineFpGrowth(db, params);
    ASSERT_TRUE(sampled.ok());
    ASSERT_TRUE(full.ok());
    EXPECT_EQ(sampled->itemsets, full->itemsets) << "seed " << seed;
    EXPECT_GT(stats.sample_size, 200u);
    EXPECT_GT(stats.candidates_checked, 0u);
  }
}

TEST(SamplingTest, ExactOnQuestWorkload) {
  gen::QuestParams quest;
  quest.num_transactions = 3000;
  quest.num_items = 200;
  quest.num_patterns = 50;
  quest.avg_transaction_size = 8;
  quest.avg_pattern_size = 4;
  auto db = gen::GenerateQuestTransactions(quest, 9);
  ASSERT_TRUE(db.ok());
  MiningParams params;
  params.min_support = 0.02;
  SamplingOptions options;
  options.sample_fraction = 0.25;
  options.seed = 5;
  SamplingStats stats;
  auto sampled = MineWithSampling(*db, params, options, &stats);
  auto full = MineFpGrowth(*db, params);
  ASSERT_TRUE(sampled.ok());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(sampled->itemsets, full->itemsets);
}

TEST(SamplingTest, ReportsStats) {
  TransactionDatabase db = RandomDatabase(7, 1000, 15, 0.3);
  MiningParams params;
  params.min_support = 0.1;
  SamplingOptions options;
  options.sample_fraction = 0.3;
  SamplingStats stats;
  auto result = MineWithSampling(db, params, options, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(stats.sample_size, 0u);
  // The verified candidate set includes at least the final answer.
  EXPECT_GE(stats.candidates_checked, result->itemsets.size());
  // The stats are fixed by the data and the seed, so no change to how the
  // verify scan counts may move them. Two border sets turn out frequent
  // here, so the run falls back to a full mine.
  EXPECT_EQ(stats.sample_size, 308u);
  EXPECT_EQ(stats.candidates_checked, 416u);
  EXPECT_EQ(stats.border_misses, 2u);
  EXPECT_TRUE(stats.fell_back);
}

TEST(SamplingTest, TinySampleStillExactViaFallbackOrBorder) {
  // A 1% sample of a small database will often miss patterns; the result
  // must still match the full mine (via border misses + fallback).
  TransactionDatabase db = RandomDatabase(11, 800, 12, 0.35);
  MiningParams params;
  params.min_support = 0.08;
  SamplingOptions options;
  options.sample_fraction = 0.02;
  options.threshold_scaling = 1.0;  // no safety margin: provoke misses
  SamplingStats stats;
  auto sampled = MineWithSampling(db, params, options, &stats);
  auto full = MineFpGrowth(db, params);
  ASSERT_TRUE(sampled.ok());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(sampled->itemsets, full->itemsets);
}

TEST(SamplingTest, LowerScalingReducesMisses) {
  // Statistical tendency over seeds: the lowered threshold (0.5) should
  // produce no more misses in total than mining the sample at the full
  // threshold (1.0).
  size_t misses_loose = 0, misses_tight = 0;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    TransactionDatabase db = RandomDatabase(100 + seed, 1500, 15, 0.3);
    MiningParams params;
    params.min_support = 0.06;
    SamplingOptions options;
    options.sample_fraction = 0.1;
    options.seed = seed;
    SamplingStats stats;
    options.threshold_scaling = 0.5;
    ASSERT_TRUE(MineWithSampling(db, params, options, &stats).ok());
    misses_loose += stats.border_misses;
    options.threshold_scaling = 1.0;
    ASSERT_TRUE(MineWithSampling(db, params, options, &stats).ok());
    misses_tight += stats.border_misses;
  }
  EXPECT_LE(misses_loose, misses_tight);
}

TEST(SamplingTest, ValidatesOptions) {
  TransactionDatabase db = RandomDatabase(1, 100, 8, 0.3);
  MiningParams params;
  params.min_support = 0.1;
  SamplingOptions options;
  options.sample_fraction = 0.0;
  EXPECT_FALSE(MineWithSampling(db, params, options).ok());
  options.sample_fraction = 1.0;
  EXPECT_FALSE(MineWithSampling(db, params, options).ok());
  options.sample_fraction = 0.5;
  options.threshold_scaling = 0.0;
  EXPECT_FALSE(MineWithSampling(db, params, options).ok());
  options.threshold_scaling = 1.5;
  EXPECT_FALSE(MineWithSampling(db, params, options).ok());
}

TEST(SamplingTest, OversizedFrequentBorderSetDoesNotForceFallback) {
  // Regression: border misses used to be counted before the
  // max_itemset_size filter, so a *frequent* border set larger than the
  // cap forced a full-database remine even though the capped result
  // provably cannot contain it or any superset. Items 0 and 1 always
  // co-occur, so with a cap of 1 the sample-frequent singletons put the
  // (frequent) pair {0, 1} on the negative border.
  TransactionDatabase db;
  for (int t = 0; t < 60; ++t) db.Add(std::vector<ItemId>{0, 1});
  for (int t = 0; t < 40; ++t) db.Add(std::vector<ItemId>{2});
  MiningParams params;
  params.min_support = 0.3;
  params.max_itemset_size = 1;
  SamplingOptions options;
  options.sample_fraction = 0.5;
  options.threshold_scaling = 0.5;
  options.seed = 3;
  SamplingStats stats;
  auto sampled = MineWithSampling(db, params, options, &stats);
  ASSERT_TRUE(sampled.ok());
  EXPECT_EQ(stats.border_misses, 0u);
  EXPECT_FALSE(stats.fell_back);
  auto full = MineFpGrowth(db, params);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(sampled->itemsets, full->itemsets);
  ASSERT_EQ(sampled->itemsets.size(), 3u);  // exactly the singletons
}

TEST(SamplingTest, MaxItemsetSizeRespected) {
  TransactionDatabase db = RandomDatabase(13, 1000, 12, 0.4);
  MiningParams params;
  params.min_support = 0.1;
  params.max_itemset_size = 2;
  SamplingOptions options;
  options.sample_fraction = 0.3;
  auto sampled = MineWithSampling(db, params, options);
  auto full = MineFpGrowth(db, params);
  ASSERT_TRUE(sampled.ok());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(sampled->itemsets, full->itemsets);
  for (const auto& itemset : sampled->itemsets) {
    EXPECT_LE(itemset.items.size(), 2u);
  }
}

}  // namespace
}  // namespace dmt::assoc
