// Differential tests for the parallel association kernels: mining with
// num_threads in {2, 4} must produce results bit-identical to the serial
// run on seeded Quest workloads — same frequent itemsets, same supports,
// same per-pass census, same work counters. Covers the counting miners
// (Apriori/AprioriTid), the pattern-growth miners (FP-Growth/Eclat), and
// the sampling verification scan.
#include <gtest/gtest.h>

#include "assoc/apriori.h"
#include "assoc/eclat.h"
#include "assoc/fp_growth.h"
#include "assoc/sampling.h"
#include "core/check.h"
#include "gen/quest.h"
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

void ExpectSameResult(const MiningResult& serial,
                      const MiningResult& parallel, size_t threads) {
  EXPECT_EQ(serial.itemsets, parallel.itemsets)
      << "itemsets diverged at num_threads=" << threads;
  ASSERT_EQ(serial.passes.size(), parallel.passes.size());
  for (size_t p = 0; p < serial.passes.size(); ++p) {
    EXPECT_EQ(serial.passes[p].pass, parallel.passes[p].pass);
    EXPECT_EQ(serial.passes[p].candidates, parallel.passes[p].candidates);
    EXPECT_EQ(serial.passes[p].frequent, parallel.passes[p].frequent);
  }
  EXPECT_EQ(serial.conditional_trees_built, parallel.conditional_trees_built)
      << "conditional_trees_built diverged at num_threads=" << threads;
  EXPECT_EQ(serial.fp_nodes_allocated, parallel.fp_nodes_allocated)
      << "fp_nodes_allocated diverged at num_threads=" << threads;
  EXPECT_EQ(serial.tidset_intersections, parallel.tidset_intersections)
      << "tidset_intersections diverged at num_threads=" << threads;
}

TEST(AprioriParallelDiffTest, HashTreeCountingMatchesSerial) {
  auto db = Workload(/*seed=*/41);
  MiningParams params;
  params.min_support = 0.01;
  auto serial = MineApriori(db, params);
  ASSERT_TRUE(serial.ok());
  EXPECT_FALSE(serial->itemsets.empty());
  for (size_t threads : {2u, 4u}) {
    params.num_threads = threads;
    auto parallel = MineApriori(db, params);
    ASSERT_TRUE(parallel.ok());
    ExpectSameResult(*serial, *parallel, threads);
  }
}

TEST(AprioriParallelDiffTest, AprioriTidMatchesSerial) {
  auto db = Workload(/*seed=*/43);
  MiningParams params;
  params.min_support = 0.01;
  auto serial = MineAprioriTid(db, params);
  ASSERT_TRUE(serial.ok());
  EXPECT_FALSE(serial->itemsets.empty());
  for (size_t threads : {2u, 4u}) {
    params.num_threads = threads;
    auto parallel = MineAprioriTid(db, params);
    ASSERT_TRUE(parallel.ok());
    ExpectSameResult(*serial, *parallel, threads);
  }
}

TEST(FpGrowthParallelDiffTest, ConditionalTreeMiningMatchesSerial) {
  auto db = Workload(/*seed=*/45);
  MiningParams params;
  params.min_support = 0.005;
  auto serial = MineFpGrowth(db, params);
  ASSERT_TRUE(serial.ok());
  EXPECT_FALSE(serial->itemsets.empty());
  EXPECT_GT(serial->conditional_trees_built, 0u);
  EXPECT_GT(serial->fp_nodes_allocated, 0u);
  for (size_t threads : {2u, 4u}) {
    params.num_threads = threads;
    auto parallel = MineFpGrowth(db, params);
    ASSERT_TRUE(parallel.ok());
    ExpectSameResult(*serial, *parallel, threads);
  }
}

TEST(FpGrowthParallelDiffTest, MaxItemsetSizeCapMatchesSerial) {
  auto db = Workload(/*seed=*/47);
  MiningParams params;
  params.min_support = 0.005;
  params.max_itemset_size = 3;
  auto serial = MineFpGrowth(db, params);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {2u, 4u}) {
    params.num_threads = threads;
    auto parallel = MineFpGrowth(db, params);
    ASSERT_TRUE(parallel.ok());
    ExpectSameResult(*serial, *parallel, threads);
  }
}

TEST(EclatParallelDiffTest, SortedVectorWalkMatchesSerial) {
  auto db = Workload(/*seed=*/48);
  MiningParams params;
  params.min_support = 0.005;
  auto serial = MineEclat(db, params);
  ASSERT_TRUE(serial.ok());
  EXPECT_FALSE(serial->itemsets.empty());
  EXPECT_GT(serial->tidset_intersections, 0u);
  for (size_t threads : {2u, 4u}) {
    params.num_threads = threads;
    auto parallel = MineEclat(db, params);
    ASSERT_TRUE(parallel.ok());
    ExpectSameResult(*serial, *parallel, threads);
  }
}

TEST(EclatParallelDiffTest, BitsetWalkMatchesSerial) {
  auto db = Workload(/*seed=*/49);
  MiningParams params;
  params.min_support = 0.005;
  EclatOptions options;
  options.representation = EclatOptions::TidsetRepr::kBitsets;
  auto serial = MineEclat(db, params, options);
  ASSERT_TRUE(serial.ok());
  EXPECT_FALSE(serial->itemsets.empty());
  for (size_t threads : {2u, 4u}) {
    params.num_threads = threads;
    auto parallel = MineEclat(db, params, options);
    ASSERT_TRUE(parallel.ok());
    ExpectSameResult(*serial, *parallel, threads);
  }
}

TEST(SamplingParallelDiffTest, VerificationScanMatchesSerial) {
  auto db = Workload(/*seed=*/50);
  MiningParams params;
  params.min_support = 0.01;
  SamplingOptions options;
  options.sample_fraction = 0.25;
  options.seed = 17;
  SamplingStats serial_stats;
  auto serial = MineWithSampling(db, params, options, &serial_stats);
  ASSERT_TRUE(serial.ok());
  EXPECT_FALSE(serial->itemsets.empty());
  for (size_t threads : {2u, 4u}) {
    params.num_threads = threads;
    SamplingStats parallel_stats;
    auto parallel = MineWithSampling(db, params, options, &parallel_stats);
    ASSERT_TRUE(parallel.ok());
    ExpectSameResult(*serial, *parallel, threads);
    EXPECT_EQ(serial_stats.sample_size, parallel_stats.sample_size);
    EXPECT_EQ(serial_stats.candidates_checked,
              parallel_stats.candidates_checked);
    EXPECT_EQ(serial_stats.border_misses, parallel_stats.border_misses);
    EXPECT_EQ(serial_stats.fell_back, parallel_stats.fell_back);
  }
}

TEST(AprioriParallelDiffTest, ParallelRunsAreRepeatable) {
  // Two parallel runs with the same thread count must also agree with each
  // other (scheduling must never leak into results).
  auto db = Workload(/*seed=*/44);
  MiningParams params;
  params.min_support = 0.01;
  params.num_threads = 4;
  auto first = MineApriori(db, params);
  auto second = MineApriori(db, params);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->itemsets, second->itemsets);
}

TEST(FpGrowthParallelDiffTest, ParallelRunsAreRepeatable) {
  auto db = Workload(/*seed=*/51);
  MiningParams params;
  params.min_support = 0.005;
  params.num_threads = 4;
  auto first = MineFpGrowth(db, params);
  auto second = MineFpGrowth(db, params);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectSameResult(*first, *second, 4);
}

TEST(EclatParallelDiffTest, ParallelRunsAreRepeatable) {
  auto db = Workload(/*seed=*/52);
  MiningParams params;
  params.min_support = 0.005;
  params.num_threads = 4;
  auto first = MineEclat(db, params);
  auto second = MineEclat(db, params);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectSameResult(*first, *second, 4);
}

TEST(AprioriParallelDiffTest, MoreThreadsThanTransactions) {
  // Degenerate chunking: thread count exceeding the database size must not
  // change results (chunks cap at one transaction each).
  core::TransactionDatabase tiny;
  tiny.Add(std::vector<core::ItemId>{0, 1, 2});
  tiny.Add(std::vector<core::ItemId>{0, 1, 3});
  tiny.Add(std::vector<core::ItemId>{0, 2, 3});
  MiningParams params;
  params.min_support = 0.5;
  auto serial = MineApriori(tiny, params);
  params.num_threads = 8;
  auto parallel = MineApriori(tiny, params);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(serial->itemsets, parallel->itemsets);
}

TEST(PatternGrowthParallelDiffTest, MoreThreadsThanTopLevelTasks) {
  // The pattern-growth task ranges are header entries / root classes, of
  // which this database has only four; 8 threads must change nothing.
  core::TransactionDatabase tiny;
  tiny.Add(std::vector<core::ItemId>{0, 1, 2});
  tiny.Add(std::vector<core::ItemId>{0, 1, 3});
  tiny.Add(std::vector<core::ItemId>{0, 2, 3});
  MiningParams params;
  params.min_support = 0.5;
  auto fp_serial = MineFpGrowth(tiny, params);
  auto eclat_serial = MineEclat(tiny, params);
  params.num_threads = 8;
  auto fp_parallel = MineFpGrowth(tiny, params);
  auto eclat_parallel = MineEclat(tiny, params);
  ASSERT_TRUE(fp_serial.ok());
  ASSERT_TRUE(fp_parallel.ok());
  ASSERT_TRUE(eclat_serial.ok());
  ASSERT_TRUE(eclat_parallel.ok());
  ExpectSameResult(*fp_serial, *fp_parallel, 8);
  ExpectSameResult(*eclat_serial, *eclat_parallel, 8);
}

TEST(RegistryParallelDiffTest, CounterTotalsIdenticalAcrossThreadCounts) {
  // The metrics registry is under the same determinism contract as the
  // results: after identical work, every counter total must be
  // bit-identical at every thread count — including more threads than
  // top-level tasks (7 threads against a 3-transaction database).
  auto db = Workload(/*seed=*/53);
  core::TransactionDatabase tiny;
  tiny.Add(std::vector<core::ItemId>{0, 1, 2});
  tiny.Add(std::vector<core::ItemId>{0, 1, 3});
  tiny.Add(std::vector<core::ItemId>{0, 2, 3});
  std::vector<std::pair<std::string, uint64_t>> baseline;
  for (size_t threads : {0u, 1u, 2u, 7u}) {
    obs::Registry::Global().Reset();
    MiningParams params;
    params.min_support = 0.01;
    params.num_threads = threads;
    ASSERT_TRUE(MineApriori(db, params).ok());
    ASSERT_TRUE(MineFpGrowth(db, params).ok());
    ASSERT_TRUE(MineEclat(db, params).ok());
    MiningParams tiny_params;
    tiny_params.min_support = 0.5;
    tiny_params.num_threads = threads;
    ASSERT_TRUE(MineApriori(tiny, tiny_params).ok());
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

}  // namespace
}  // namespace dmt::assoc
