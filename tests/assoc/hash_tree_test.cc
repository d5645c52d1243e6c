#include "assoc/hash_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>

#include "core/rng.h"
#include "io/serialize.h"

namespace dmt::assoc {
namespace {

using core::ItemId;
using core::TransactionDatabase;

std::vector<uint32_t> CountWithTree(const std::vector<Itemset>& candidates,
                                    size_t k,
                                    const TransactionDatabase& db,
                                    size_t fanout = 8,
                                    size_t leaf_size = 2) {
  std::vector<uint32_t> ids(candidates.size());
  std::iota(ids.begin(), ids.end(), 0u);
  HashTree tree(candidates, ids, k, fanout, leaf_size);
  HashTree::CountingState state(candidates.size());
  std::vector<uint32_t> counts(candidates.size(), 0);
  for (size_t t = 0; t < db.size(); ++t) {
    tree.CountTransaction(db.transaction(t), state, counts);
  }
  return counts;
}

/// Containment by std::includes, independent of the library's IsSubsetOf.
std::vector<uint32_t> CountBrute(const std::vector<Itemset>& candidates,
                                 const TransactionDatabase& db) {
  std::vector<uint32_t> counts(candidates.size(), 0);
  for (size_t t = 0; t < db.size(); ++t) {
    const auto transaction = db.transaction(t);
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (std::includes(transaction.begin(), transaction.end(),
                        candidates[c].begin(), candidates[c].end())) {
        ++counts[c];
      }
    }
  }
  return counts;
}

TEST(HashTreeTest, CountsSimpleCandidates) {
  std::vector<Itemset> candidates = {{1, 2}, {1, 3}, {2, 3}};
  TransactionDatabase db;
  db.Add(std::vector<ItemId>{1, 2, 3});
  db.Add(std::vector<ItemId>{1, 2});
  db.Add(std::vector<ItemId>{3});
  auto counts = CountWithTree(candidates, 2, db);
  EXPECT_EQ(counts, (std::vector<uint32_t>{2, 1, 1}));
}

TEST(HashTreeTest, ShortTransactionsContributeNothing) {
  std::vector<Itemset> candidates = {{1, 2, 3}};
  TransactionDatabase db;
  db.Add(std::vector<ItemId>{1, 2});
  auto counts = CountWithTree(candidates, 3, db);
  EXPECT_EQ(counts[0], 0u);
}

TEST(HashTreeTest, CollidingBucketsDoNotDoubleCount) {
  // fanout 2 forces heavy bucket collisions; counts must still be exact.
  std::vector<Itemset> candidates = {{0, 2}, {0, 4}, {2, 4}, {1, 3}};
  TransactionDatabase db;
  db.Add(std::vector<ItemId>{0, 2, 4});  // contains {0,2},{0,4},{2,4}
  auto counts = CountWithTree(candidates, 2, db, /*fanout=*/2,
                              /*leaf_size=*/1);
  EXPECT_EQ(counts, (std::vector<uint32_t>{1, 1, 1, 0}));
}

/// Five rounds of random 3-itemsets against random databases over 12
/// items, counted by a tree of the given geometry and by brute force.
void ExpectMatchesBruteForceOnRandomData(size_t fanout, size_t leaf_size) {
  core::Rng rng(99);
  for (int round = 0; round < 5; ++round) {
    TransactionDatabase db;
    for (int t = 0; t < 60; ++t) {
      std::vector<ItemId> items;
      for (ItemId item = 0; item < 12; ++item) {
        if (rng.Bernoulli(0.4)) items.push_back(item);
      }
      db.Add(items);
    }
    // Random candidate 3-itemsets (distinct).
    std::vector<Itemset> candidates;
    for (int c = 0; c < 30; ++c) {
      auto pick = rng.SampleWithoutReplacement(12, 3);
      Itemset itemset(pick.begin(), pick.end());
      std::sort(itemset.begin(), itemset.end());
      if (std::find(candidates.begin(), candidates.end(), itemset) ==
          candidates.end()) {
        candidates.push_back(itemset);
      }
    }
    auto tree_counts = CountWithTree(candidates, 3, db, fanout, leaf_size);
    auto brute_counts = CountBrute(candidates, db);
    EXPECT_EQ(tree_counts, brute_counts)
        << "round " << round << ", fanout " << fanout << ", leaf "
        << leaf_size;
  }
}

TEST(HashTreeTest, MatchesBruteForceOnRandomData) {
  ExpectMatchesBruteForceOnRandomData(/*fanout=*/4, /*leaf_size=*/2);
}

struct Geometry {
  size_t fanout;
  size_t leaf_size;
};

class HashTreeGeometryTest : public testing::TestWithParam<Geometry> {};

TEST_P(HashTreeGeometryTest, GeometryDoesNotChangeResults) {
  ExpectMatchesBruteForceOnRandomData(GetParam().fanout,
                                      GetParam().leaf_size);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HashTreeGeometryTest,
    testing::Values(Geometry{2, 1}, Geometry{2, 64}, Geometry{8, 1},
                    Geometry{8, 16}, Geometry{128, 4}, Geometry{128, 256},
                    Geometry{1024, 16}),
    [](const testing::TestParamInfo<Geometry>& param_info) {
      return "fanout" + std::to_string(param_info.param.fanout) + "_leaf" +
             std::to_string(param_info.param.leaf_size);
    });

TEST(HashTreeTest, LargeLeafNeverSplits) {
  std::vector<Itemset> candidates = {{1, 2}, {3, 4}, {5, 6}};
  const uint32_t ids[] = {0, 1, 2};
  HashTree tree(candidates, ids, 2, 8, /*max_leaf_size=*/100);
  EXPECT_EQ(tree.num_nodes(), 1u);
}

TEST(HashTreeTest, SmallLeafSplits) {
  std::vector<Itemset> candidates;
  std::vector<uint32_t> ids;
  for (ItemId i = 0; i < 20; ++i) {
    ids.push_back(static_cast<uint32_t>(candidates.size()));
    candidates.push_back({i, i + 20});
  }
  HashTree tree(candidates, ids, 2, 8, /*max_leaf_size=*/1);
  EXPECT_GT(tree.num_nodes(), 1u);
}

TEST(HashTreeTest, IdenticalHashPathsStayInOneLeaf) {
  // Items congruent mod fanout collide at every level; the leaf at depth k
  // cannot split further and must still count correctly.
  std::vector<Itemset> candidates = {{0, 8}, {8, 16}, {0, 16}};
  TransactionDatabase db;
  db.Add(std::vector<ItemId>{0, 8, 16});
  auto counts = CountWithTree(candidates, 2, db, 8, 1);
  EXPECT_EQ(counts, (std::vector<uint32_t>{1, 1, 1}));
}

// ------------------------------------------------------ SupportCounter

constexpr size_t kThreadCounts[] = {0, 1, 2, 7};

/// 400 baskets over 16 items, 0 to 9 items each, so some are empty.
TransactionDatabase RandomBaskets(uint64_t seed) {
  core::Rng rng(seed);
  TransactionDatabase db;
  for (int t = 0; t < 400; ++t) {
    const auto length = static_cast<size_t>(rng.UniformInt(0, 9));
    auto pick = rng.SampleWithoutReplacement(16, length);
    db.Add(std::vector<ItemId>(pick.begin(), pick.end()));
  }
  return db;
}

/// Distinct itemsets of sizes 1 to 5: for each size, subsets of random
/// baskets (so every size has non-zero supports) and random itemsets
/// (mostly absent), shuffled so sizes interleave and no size is sorted.
std::vector<Itemset> MixedItemsets(const TransactionDatabase& db,
                                   uint64_t seed) {
  core::Rng rng(seed);
  std::set<Itemset> distinct;
  for (size_t k = 1; k <= 5; ++k) {
    for (int i = 0; i < 25; ++i) {
      const auto basket = db.transaction(rng.UniformU64(db.size()));
      if (basket.size() < k) continue;
      Itemset itemset;
      for (size_t pos : rng.SampleWithoutReplacement(basket.size(), k)) {
        itemset.push_back(basket[pos]);
      }
      std::sort(itemset.begin(), itemset.end());
      distinct.insert(itemset);
    }
    for (int i = 0; i < 10; ++i) {
      auto pick = rng.SampleWithoutReplacement(16, k);
      Itemset itemset(pick.begin(), pick.end());
      std::sort(itemset.begin(), itemset.end());
      distinct.insert(itemset);
    }
  }
  std::vector<Itemset> itemsets(distinct.begin(), distinct.end());
  rng.Shuffle(itemsets);
  return itemsets;
}

TEST(SupportCounterTest, MatchesBruteForceOnMixedSizesInAnyOrder) {
  const TransactionDatabase db = RandomBaskets(/*seed=*/5);
  const std::vector<Itemset> itemsets = MixedItemsets(db, /*seed=*/6);
  const std::vector<uint32_t> expected = CountBrute(itemsets, db);
  for (size_t k = 1; k <= 5; ++k) {
    bool seen = false;
    for (size_t i = 0; i < itemsets.size(); ++i) {
      seen |= itemsets[i].size() == k && expected[i] > 0;
    }
    ASSERT_TRUE(seen) << "no supported itemset of size " << k;
  }

  // The same baskets split in two, as owning databases and as containers
  // mapped from disk; each half is counted into one array in turn, as the
  // out-of-core miners count partition after partition.
  TransactionDatabase halves[2];
  for (size_t t = 0; t < db.size(); ++t) {
    halves[t < db.size() / 2 ? 0 : 1].Add(db.transaction(t));
  }
  std::vector<io::MappedTransactionDatabase> mapped;
  for (size_t h = 0; h < 2; ++h) {
    const std::string path = testing::TempDir() + "dmt_support_counter_" +
                             std::to_string(h) + ".bin";
    ASSERT_TRUE(io::WriteTransactionDatabase(halves[h], path).ok());
    auto view = io::MappedTransactionDatabase::Map(path);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    mapped.push_back(std::move(view).value());
  }

  const SupportCounter counter(itemsets);
  for (size_t threads : kThreadCounts) {
    const core::ParallelContext ctx(threads);
    std::vector<uint32_t> whole(itemsets.size(), 0);
    counter.Count(db, ctx, whole);
    EXPECT_EQ(whole, expected) << "one call, threads=" << threads;
    std::vector<uint32_t> owned(itemsets.size(), 0);
    std::vector<uint32_t> from_disk(itemsets.size(), 0);
    for (size_t h = 0; h < 2; ++h) {
      counter.Count(halves[h], ctx, owned);
      counter.Count(mapped[h], ctx, from_disk);
    }
    EXPECT_EQ(owned, expected) << "two owning halves, threads=" << threads;
    EXPECT_EQ(from_disk, expected)
        << "two mapped halves, threads=" << threads;
  }
}

TEST(SupportCounterTest, EdgeCasesCountZeroOrExactly) {
  TransactionDatabase db;
  db.Add(std::vector<ItemId>{});
  db.Add(std::vector<ItemId>{0, 1, 2});
  db.Add(std::vector<ItemId>{});
  db.Add(std::vector<ItemId>{1, 2, 3, 4});
  db.Add(std::vector<ItemId>{2});
  const std::vector<Itemset> itemsets = {
      {1, 2},           // in two baskets
      {40},             // above every item in the data
      {0, 1, 2, 3, 4},  // longer than any basket
      {2},              // in three baskets
      {4},              // the largest item present
      {3, 4},
  };
  const SupportCounter counter(itemsets);
  for (size_t threads : kThreadCounts) {
    const core::ParallelContext ctx(threads);
    std::vector<uint32_t> counts(itemsets.size(), 0);
    counter.Count(db, ctx, counts);
    EXPECT_EQ(counts, (std::vector<uint32_t>{2, 0, 0, 3, 1, 1}))
        << "threads=" << threads;
    // Counts are added, never assigned: a second call doubles them.
    counter.Count(db, ctx, counts);
    EXPECT_EQ(counts, (std::vector<uint32_t>{4, 0, 0, 6, 2, 2}))
        << "threads=" << threads;
  }
  // Databases with no baskets, or only empty ones, count nothing.
  TransactionDatabase no_baskets;
  TransactionDatabase empty_baskets;
  empty_baskets.Add(std::vector<ItemId>{});
  for (const TransactionDatabase* none : {&no_baskets, &empty_baskets}) {
    std::vector<uint32_t> counts(itemsets.size(), 0);
    counter.Count(*none, core::ParallelContext(2), counts);
    EXPECT_EQ(counts, std::vector<uint32_t>(itemsets.size(), 0));
  }
}

}  // namespace
}  // namespace dmt::assoc
