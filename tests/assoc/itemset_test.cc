#include "assoc/itemset.h"

#include <gtest/gtest.h>

namespace dmt::assoc {
namespace {

TEST(ItemsetTest, AbsoluteMinSupportRoundsUp) {
  EXPECT_EQ(AbsoluteMinSupport(10, 0.25), 3u);   // ceil(2.5)
  EXPECT_EQ(AbsoluteMinSupport(10, 0.3), 3u);    // exactly 3
  EXPECT_EQ(AbsoluteMinSupport(10, 0.01), 1u);   // at least 1
  EXPECT_EQ(AbsoluteMinSupport(10, 1.0), 10u);
}

TEST(ItemsetTest, AbsoluteMinSupportExactFractionNotBumped) {
  // 0.5% of 1000 = 5 exactly; floating noise must not push it to 6.
  EXPECT_EQ(AbsoluteMinSupport(1000, 0.005), 5u);
}

TEST(ItemsetTest, SortCanonicalBySizeThenLex) {
  std::vector<FrequentItemset> itemsets = {
      {{2, 3}, 1}, {{1}, 5}, {{0, 9}, 2}, {{4}, 3}, {{0, 1, 2}, 1}};
  SortCanonical(&itemsets);
  EXPECT_EQ(itemsets[0].items, (Itemset{1}));
  EXPECT_EQ(itemsets[1].items, (Itemset{4}));
  EXPECT_EQ(itemsets[2].items, (Itemset{0, 9}));
  EXPECT_EQ(itemsets[3].items, (Itemset{2, 3}));
  EXPECT_EQ(itemsets[4].items, (Itemset{0, 1, 2}));
}

TEST(ItemsetTest, IsSubsetOf) {
  Itemset small = {1, 3};
  Itemset big = {0, 1, 2, 3, 4};
  EXPECT_TRUE(IsSubsetOf(small, big));
  EXPECT_FALSE(IsSubsetOf(big, small));
  EXPECT_TRUE(IsSubsetOf({}, big));
  EXPECT_TRUE(IsSubsetOf(big, big));
  EXPECT_FALSE(IsSubsetOf(Itemset{5}, big));
}

TEST(ItemsetTest, HashEqualItemsetsCollide) {
  ItemsetHash hash;
  EXPECT_EQ(hash({1, 2, 3}), hash({1, 2, 3}));
  EXPECT_NE(hash({1, 2, 3}), hash({1, 2, 4}));
  EXPECT_NE(hash({1, 2}), hash({2, 1}));  // order-sensitive by design
}

TEST(ItemsetTest, CountOfSize) {
  MiningResult result;
  result.itemsets = {{{1}, 2}, {{2}, 2}, {{1, 2}, 1}};
  EXPECT_EQ(result.CountOfSize(1), 2u);
  EXPECT_EQ(result.CountOfSize(2), 1u);
  EXPECT_EQ(result.CountOfSize(3), 0u);
}

TEST(ItemsetTest, MiningParamsValidation) {
  MiningParams params;
  params.min_support = 0.0;
  EXPECT_FALSE(params.Validate().ok());
  params.min_support = 1.5;
  EXPECT_FALSE(params.Validate().ok());
  params.min_support = 0.5;
  EXPECT_TRUE(params.Validate().ok());
}

TEST(ItemsetTest, FormatItemsetWithAndWithoutDictionary) {
  FrequentItemset itemset{{0, 1}, 7};
  EXPECT_EQ(FormatItemset(itemset), "{0, 1} (support=7)");
  core::ItemDictionary dict;
  dict.GetOrAdd("milk");
  dict.GetOrAdd("bread");
  EXPECT_EQ(FormatItemset(itemset, &dict), "{milk, bread} (support=7)");
}

}  // namespace
}  // namespace dmt::assoc
