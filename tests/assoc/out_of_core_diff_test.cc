// Differential tests for the out-of-core miners (assoc/out_of_core.h):
// partitioned Apriori and disk-projected FP-Growth must return exactly
// the itemsets and supports of the in-memory miners at every partition
// count and every thread count, with all work counters and registry
// totals invariant across num_threads (the parallel_diff_test contract,
// extended over the partition axis).
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "assoc/apriori.h"
#include "assoc/fp_growth.h"
#include "assoc/out_of_core.h"
#include "core/check.h"
#include "gen/quest.h"
#include "io/partition.h"
#include "obs/metrics.h"

namespace dmt::assoc {
namespace {

core::TransactionDatabase Workload(uint64_t seed) {
  gen::QuestParams params;
  params.num_transactions = 2000;
  params.avg_transaction_size = 8;
  params.avg_pattern_size = 3;
  params.num_items = 200;
  params.num_patterns = 100;
  auto db = gen::GenerateQuestTransactions(params, seed);
  DMT_CHECK(db.ok());
  return std::move(db).value();
}

std::vector<std::string> Partitions(const core::TransactionDatabase& db,
                                    const std::string& tag, size_t count) {
  auto paths = io::WritePartitions(
      db, testing::TempDir() + "/dmt_ooc_" + tag, count);
  DMT_CHECK(paths.ok());
  return std::move(paths).value();
}

void ExpectSameItemsets(const MiningResult& in_memory,
                        const MiningResult& out_of_core, size_t partitions,
                        size_t threads) {
  EXPECT_EQ(in_memory.itemsets, out_of_core.itemsets)
      << "itemsets diverged at partitions=" << partitions
      << " num_threads=" << threads;
}

constexpr size_t kPartitionCounts[] = {1, 3, 8};
constexpr size_t kThreadCounts[] = {0, 1, 2, 7};

TEST(OutOfCoreDiffTest, PartitionedAprioriMatchesInMemory) {
  const auto db = Workload(/*seed=*/61);
  MiningParams params;
  params.min_support = 0.01;
  auto baseline = MineApriori(db, params);
  ASSERT_TRUE(baseline.ok());
  EXPECT_FALSE(baseline->itemsets.empty());
  for (size_t partitions : kPartitionCounts) {
    const auto paths = Partitions(db, "apriori", partitions);
    for (size_t threads : kThreadCounts) {
      params.num_threads = threads;
      auto mined = MineAprioriPartitioned(paths, params);
      ASSERT_TRUE(mined.ok()) << mined.status().ToString();
      ExpectSameItemsets(*baseline, *mined, partitions, threads);
      EXPECT_EQ(mined->partitions_mined, partitions);
      EXPECT_GT(mined->bytes_mapped, 0u);
    }
    params.num_threads = 0;
  }
}

TEST(OutOfCoreDiffTest, DiskProjectedFpGrowthMatchesInMemory) {
  const auto db = Workload(/*seed=*/62);
  MiningParams params;
  params.min_support = 0.0075;
  auto baseline = MineFpGrowth(db, params);
  ASSERT_TRUE(baseline.ok());
  EXPECT_FALSE(baseline->itemsets.empty());
  for (size_t partitions : kPartitionCounts) {
    const auto paths = Partitions(db, "fp", partitions);
    for (size_t threads : kThreadCounts) {
      params.num_threads = threads;
      auto mined = MineFpGrowthDiskProjected(paths, params);
      ASSERT_TRUE(mined.ok()) << mined.status().ToString();
      ExpectSameItemsets(*baseline, *mined, partitions, threads);
      EXPECT_EQ(mined->partitions_mined, partitions);
    }
    params.num_threads = 0;
  }
}

TEST(OutOfCoreDiffTest, FullResultInvariantAcrossThreadCounts) {
  // For a fixed partitioning, everything — itemsets, pass census, work
  // counters, bytes mapped — must be bit-identical at every thread count.
  const auto db = Workload(/*seed=*/63);
  const auto paths = Partitions(db, "invariant", 3);
  MiningParams params;
  params.min_support = 0.01;
  auto serial = MineAprioriPartitioned(paths, params);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {1u, 2u, 7u}) {
    params.num_threads = threads;
    auto parallel = MineAprioriPartitioned(paths, params);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(serial->itemsets, parallel->itemsets);
    ASSERT_EQ(serial->passes.size(), parallel->passes.size());
    for (size_t p = 0; p < serial->passes.size(); ++p) {
      EXPECT_EQ(serial->passes[p].pass, parallel->passes[p].pass);
      EXPECT_EQ(serial->passes[p].candidates,
                parallel->passes[p].candidates);
      EXPECT_EQ(serial->passes[p].frequent, parallel->passes[p].frequent);
    }
    EXPECT_EQ(serial->conditional_trees_built,
              parallel->conditional_trees_built);
    EXPECT_EQ(serial->fp_nodes_allocated, parallel->fp_nodes_allocated);
    EXPECT_EQ(serial->tidset_intersections,
              parallel->tidset_intersections);
    EXPECT_EQ(serial->partitions_mined, parallel->partitions_mined);
    EXPECT_EQ(serial->bytes_mapped, parallel->bytes_mapped);
  }
}

/// The phase-2 census as (size, candidates in the union, frequent).
std::vector<std::tuple<size_t, size_t, size_t>> Census(
    const MiningResult& result) {
  std::vector<std::tuple<size_t, size_t, size_t>> census;
  for (const PassStats& stats : result.passes) {
    census.emplace_back(stats.pass, stats.candidates, stats.frequent);
  }
  return census;
}

TEST(OutOfCoreDiffTest, CensusPinnedAtThreePartitions) {
  // The census is fixed by the data, so no change to how phase 2 counts
  // may move it. Both miners' local mines are exact, so their unions
  // agree.
  const auto db = Workload(/*seed=*/63);
  const auto paths = Partitions(db, "census", 3);
  MiningParams params;
  params.min_support = 0.01;
  const std::vector<std::tuple<size_t, size_t, size_t>> expected = {
      {1, 96, 90},   {2, 1145, 805}, {3, 1232, 663}, {4, 827, 493},
      {5, 472, 289}, {6, 185, 97},   {7, 42, 20},    {8, 4, 2}};
  auto apriori = MineAprioriPartitioned(paths, params);
  ASSERT_TRUE(apriori.ok());
  EXPECT_EQ(Census(*apriori), expected);
  auto fp = MineFpGrowthDiskProjected(paths, params);
  ASSERT_TRUE(fp.ok());
  EXPECT_EQ(Census(*fp), expected);
}

TEST(OutOfCoreDiffTest, MaxItemsetSizeCapMatchesInMemory) {
  const auto db = Workload(/*seed=*/64);
  MiningParams params;
  params.min_support = 0.0075;
  params.max_itemset_size = 2;
  auto baseline = MineFpGrowth(db, params);
  ASSERT_TRUE(baseline.ok());
  const auto paths = Partitions(db, "cap", 3);
  for (size_t threads : kThreadCounts) {
    params.num_threads = threads;
    auto mined = MineFpGrowthDiskProjected(paths, params);
    ASSERT_TRUE(mined.ok());
    ExpectSameItemsets(*baseline, *mined, 3, threads);
  }
}

TEST(OutOfCoreDiffTest, MorePartitionsThanTransactions) {
  // Degenerate split: more partitions than transactions leaves some
  // partitions empty; results must still match the in-memory miner.
  core::TransactionDatabase tiny;
  tiny.Add(std::vector<core::ItemId>{0, 1, 2});
  tiny.Add(std::vector<core::ItemId>{0, 1, 3});
  tiny.Add(std::vector<core::ItemId>{0, 2, 3});
  MiningParams params;
  params.min_support = 0.5;
  auto baseline = MineApriori(tiny, params);
  ASSERT_TRUE(baseline.ok());
  const auto paths = Partitions(tiny, "tiny", 8);
  for (size_t threads : {0u, 7u}) {
    params.num_threads = threads;
    auto mined = MineAprioriPartitioned(paths, params);
    ASSERT_TRUE(mined.ok()) << mined.status().ToString();
    ExpectSameItemsets(*baseline, *mined, 8, threads);
    EXPECT_EQ(mined->partitions_mined, 8u);
  }
}

TEST(OutOfCoreDiffTest, SinglePartitionEqualsTwoPhaseIdentity) {
  // K=1 is pure SON with one local mine; both miners must agree with each
  // other as well as with memory.
  const auto db = Workload(/*seed=*/65);
  const auto paths = Partitions(db, "single", 1);
  MiningParams params;
  params.min_support = 0.01;
  auto apriori = MineAprioriPartitioned(paths, params);
  auto fp = MineFpGrowthDiskProjected(paths, params);
  ASSERT_TRUE(apriori.ok());
  ASSERT_TRUE(fp.ok());
  EXPECT_EQ(apriori->itemsets, fp->itemsets);
}

TEST(OutOfCoreDiffTest, RegistryTotalsInvariantAcrossThreadCounts) {
  const auto db = Workload(/*seed=*/66);
  const auto paths = Partitions(db, "registry", 3);
  MiningParams params;
  params.min_support = 0.01;
  std::vector<std::pair<std::string, uint64_t>> baseline;
  for (size_t threads : {0u, 1u, 2u, 7u}) {
    obs::Registry::Global().Reset();
    params.num_threads = threads;
    ASSERT_TRUE(MineAprioriPartitioned(paths, params).ok());
    ASSERT_TRUE(MineFpGrowthDiskProjected(paths, params).ok());
    auto snapshot = obs::Registry::Global().CounterSnapshot();
    if (threads == 0) {
      baseline = snapshot;
      EXPECT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(snapshot, baseline)
          << "registry totals diverged at num_threads=" << threads;
    }
  }
}

TEST(OutOfCoreDiffTest, EmptyPartitionListIsAnError) {
  MiningParams params;
  auto mined = MineAprioriPartitioned({}, params);
  ASSERT_FALSE(mined.ok());
  EXPECT_EQ(mined.status().code(), core::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dmt::assoc
