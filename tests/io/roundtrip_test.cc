// Round-trip battery for the binary container loaders (io/serialize.h):
// every artifact type is generated from seeded synthetic data, written,
// mapped, and loaded back bit-identically; mining a loaded database
// reproduces the in-memory miner's output exactly; and the bytes the
// writers produce for small hand-built objects are pinned by CRC32.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "assoc/apriori.h"
#include "assoc/fp_growth.h"
#include "assoc/quantitative.h"
#include "assoc/rules.h"
#include "cluster/kmeans.h"
#include "core/check.h"
#include "core/crc32.h"
#include "core/mmap_file.h"
#include "gen/agrawal.h"
#include "gen/mixture.h"
#include "gen/quest.h"
#include "io/serialize.h"
#include "tree/builder.h"
#include "tree/discretize.h"
#include "tree/pruning.h"
#include "tree/sliq.h"

namespace dmt::io {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/dmt_io_roundtrip_" + name;
}

core::TransactionDatabase QuestWorkload(uint64_t seed) {
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

core::Dataset AgrawalWorkload(uint64_t seed) {
  gen::AgrawalParams params;
  params.function = 2;
  params.num_records = 500;
  auto dataset = gen::GenerateAgrawal(params, seed);
  DMT_CHECK(dataset.ok());
  return std::move(dataset).value();
}

void ExpectSameDatabase(const core::TransactionDatabase& a,
                        const core::TransactionDatabase& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.total_items(), b.total_items());
  EXPECT_EQ(a.item_universe(), b.item_universe());
  ASSERT_TRUE(std::equal(a.offsets().begin(), a.offsets().end(),
                         b.offsets().begin(), b.offsets().end()));
  EXPECT_TRUE(std::equal(a.items().begin(), a.items().end(),
                         b.items().begin(), b.items().end()));
}

TEST(TransactionRoundtripTest, LoadedDatabaseIsBitIdentical) {
  for (uint64_t seed : {7u, 8u, 9u}) {
    const auto db = QuestWorkload(seed);
    const std::string path =
        TempPath("txn_" + std::to_string(seed) + ".dmtb");
    ASSERT_TRUE(WriteTransactionDatabase(db, path).ok());
    auto loaded = LoadTransactionDatabase(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectSameDatabase(db, *loaded);
  }
}

TEST(TransactionRoundtripTest, MappedViewMatchesAndOwnsCopy) {
  const auto db = QuestWorkload(11);
  const std::string path = TempPath("txn_mapped.dmtb");
  ASSERT_TRUE(WriteTransactionDatabase(db, path).ok());
  auto view = MappedTransactionDatabase::Map(path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ASSERT_EQ(view->size(), db.size());
  EXPECT_EQ(view->item_universe(), db.item_universe());
  EXPECT_EQ(view->total_items(), db.total_items());
  EXPECT_GT(view->bytes_mapped(), 0u);
  for (size_t t = 0; t < db.size(); ++t) {
    const auto expected = db.transaction(t);
    const auto actual = view->transaction(t);
    ASSERT_TRUE(std::equal(expected.begin(), expected.end(), actual.begin(),
                           actual.end()))
        << "transaction " << t << " diverged";
  }
  ExpectSameDatabase(db, view->ToOwned());
}

TEST(TransactionRoundtripTest, EmptyDatabaseRoundtrips) {
  core::TransactionDatabase empty;
  const std::string path = TempPath("txn_empty.dmtb");
  ASSERT_TRUE(WriteTransactionDatabase(empty, path).ok());
  auto loaded = LoadTransactionDatabase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->empty());
  auto view = MappedTransactionDatabase::Map(path);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_TRUE(view->empty());
}

TEST(TransactionRoundtripTest, MiningLoadedDatabaseMatchesInMemory) {
  const auto db = QuestWorkload(21);
  const std::string path = TempPath("txn_mine.dmtb");
  ASSERT_TRUE(WriteTransactionDatabase(db, path).ok());
  auto loaded = LoadTransactionDatabase(path);
  ASSERT_TRUE(loaded.ok());

  assoc::MiningParams params;
  params.min_support = 0.01;
  auto baseline = assoc::MineApriori(db, params);
  auto reloaded = assoc::MineApriori(*loaded, params);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(reloaded.ok());
  EXPECT_FALSE(baseline->itemsets.empty());
  EXPECT_EQ(baseline->itemsets, reloaded->itemsets);
  ASSERT_EQ(baseline->passes.size(), reloaded->passes.size());
  for (size_t p = 0; p < baseline->passes.size(); ++p) {
    EXPECT_EQ(baseline->passes[p].candidates, reloaded->passes[p].candidates);
    EXPECT_EQ(baseline->passes[p].frequent, reloaded->passes[p].frequent);
  }
  EXPECT_EQ(baseline->conditional_trees_built,
            reloaded->conditional_trees_built);
  EXPECT_EQ(baseline->fp_nodes_allocated, reloaded->fp_nodes_allocated);
  EXPECT_EQ(baseline->tidset_intersections, reloaded->tidset_intersections);
}

TEST(DatasetRoundtripTest, LoadedDatasetIsBitIdentical) {
  for (uint64_t seed : {3u, 4u}) {
    const auto dataset = AgrawalWorkload(seed);
    const std::string path =
        TempPath("dataset_" + std::to_string(seed) + ".dmtb");
    ASSERT_TRUE(WriteDataset(dataset, path).ok());
    auto loaded = LoadDataset(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded->num_rows(), dataset.num_rows());
    ASSERT_EQ(loaded->num_attributes(), dataset.num_attributes());
    ASSERT_EQ(loaded->num_classes(), dataset.num_classes());
    EXPECT_EQ(loaded->class_names(), dataset.class_names());
    for (size_t a = 0; a < dataset.num_attributes(); ++a) {
      const auto& expected = dataset.attribute(a);
      const auto& actual = loaded->attribute(a);
      EXPECT_EQ(actual.name, expected.name);
      ASSERT_EQ(actual.type, expected.type);
      EXPECT_EQ(actual.categories, expected.categories);
      if (expected.type == core::AttributeType::kNumeric) {
        const auto want = dataset.NumericColumn(a);
        const auto got = loaded->NumericColumn(a);
        // Bit-identical doubles, not approximately-equal ones.
        ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin(),
                               got.end(),
                               [](double x, double y) {
                                 return std::memcmp(&x, &y, sizeof(x)) == 0;
                               }))
            << "numeric column " << a << " diverged";
      } else {
        const auto want = dataset.CategoricalColumn(a);
        const auto got = loaded->CategoricalColumn(a);
        ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin(),
                               got.end()));
      }
    }
    const auto want_labels = dataset.labels();
    const auto got_labels = loaded->labels();
    EXPECT_TRUE(std::equal(want_labels.begin(), want_labels.end(),
                           got_labels.begin(), got_labels.end()));
  }
}

TEST(MiningResultRoundtripTest, LoadedResultIsIdentical) {
  const auto db = QuestWorkload(31);
  assoc::MiningParams params;
  params.min_support = 0.0075;
  auto result = assoc::MineFpGrowth(db, params);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->itemsets.empty());

  const std::string path = TempPath("mining.dmtb");
  ASSERT_TRUE(WriteMiningResult(*result, path).ok());
  auto loaded = LoadMiningResult(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->itemsets, result->itemsets);
  ASSERT_EQ(loaded->passes.size(), result->passes.size());
  for (size_t p = 0; p < result->passes.size(); ++p) {
    EXPECT_EQ(loaded->passes[p].pass, result->passes[p].pass);
    EXPECT_EQ(loaded->passes[p].candidates, result->passes[p].candidates);
    EXPECT_EQ(loaded->passes[p].frequent, result->passes[p].frequent);
  }
  EXPECT_EQ(loaded->conditional_trees_built, result->conditional_trees_built);
  EXPECT_EQ(loaded->fp_nodes_allocated, result->fp_nodes_allocated);
  EXPECT_EQ(loaded->tidset_intersections, result->tidset_intersections);
  EXPECT_EQ(loaded->partitions_mined, result->partitions_mined);
  EXPECT_EQ(loaded->bytes_mapped, result->bytes_mapped);
}

TEST(MiningResultRoundtripTest, RulesFromALoadedPartialResultFailCleanly) {
  // The container stores any itemset list; nothing on the load path
  // requires it to be downward closed. GenerateRules on such a result
  // must return InvalidArgument, not abort.
  assoc::MiningResult partial;
  partial.itemsets = {{{0, 1}, 5}};
  const std::string path = TempPath("mining_partial.dmtb");
  ASSERT_TRUE(WriteMiningResult(partial, path).ok());
  auto loaded = LoadMiningResult(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto rules = assoc::GenerateRules(*loaded, 10, assoc::RuleParams{});
  ASSERT_FALSE(rules.ok());
  EXPECT_EQ(rules.status().code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(rules.status().message().find("{0, 1}"), std::string::npos)
      << rules.status().message();
}

TEST(RuleSetRoundtripTest, LoadedRulesAreIdentical) {
  const auto db = QuestWorkload(41);
  assoc::MiningParams params;
  params.min_support = 0.01;
  auto mined = assoc::MineApriori(db, params);
  ASSERT_TRUE(mined.ok());
  assoc::RuleParams rule_params;
  rule_params.min_confidence = 0.5;
  auto rules = assoc::GenerateRules(*mined, db.size(), rule_params);
  ASSERT_TRUE(rules.ok());
  ASSERT_FALSE(rules->empty());

  const std::string path = TempPath("rules.dmtb");
  ASSERT_TRUE(WriteRuleSet(*rules, path).ok());
  auto loaded = LoadRuleSet(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), rules->size());
  for (size_t r = 0; r < rules->size(); ++r) {
    const auto& want = (*rules)[r];
    const auto& got = (*loaded)[r];
    EXPECT_EQ(got.antecedent, want.antecedent);
    EXPECT_EQ(got.consequent, want.consequent);
    EXPECT_EQ(got.support_count, want.support_count);
    EXPECT_EQ(std::memcmp(&got.support, &want.support, sizeof(double)), 0);
    EXPECT_EQ(
        std::memcmp(&got.confidence, &want.confidence, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&got.lift, &want.lift, sizeof(double)), 0);
    EXPECT_EQ(
        std::memcmp(&got.conviction, &want.conviction, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&got.leverage, &want.leverage, sizeof(double)), 0);
  }
}

TEST(QuantRuleSetRoundtripTest, LoadedRuleSetIsIdentical) {
  const auto dataset = AgrawalWorkload(19);
  assoc::QuantParams params;
  params.min_support = 0.1;
  params.num_bins = 6;
  params.min_confidence = 0.6;
  auto rule_set = assoc::MineQuantitativeRules(dataset, params);
  ASSERT_TRUE(rule_set.ok());
  ASSERT_FALSE(rule_set->rules.empty());
  ASSERT_FALSE(rule_set->items.empty());

  const std::string path = TempPath("quant_rules.dmtb");
  ASSERT_TRUE(WriteQuantRuleSet(*rule_set, path).ok());
  auto loaded = LoadQuantRuleSet(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->items, rule_set->items);
  EXPECT_EQ(std::memcmp(&loaded->partial_completeness,
                        &rule_set->partial_completeness, sizeof(double)),
            0);
  EXPECT_EQ(loaded->itemsets_mined, rule_set->itemsets_mined);
  EXPECT_EQ(loaded->itemsets_attribute_distinct,
            rule_set->itemsets_attribute_distinct);
  ASSERT_EQ(loaded->rules.size(), rule_set->rules.size());
  for (size_t r = 0; r < rule_set->rules.size(); ++r) {
    const auto& want = rule_set->rules[r];
    const auto& got = loaded->rules[r];
    EXPECT_EQ(got.antecedent, want.antecedent);
    EXPECT_EQ(got.consequent, want.consequent);
    EXPECT_EQ(got.support_count, want.support_count);
    EXPECT_EQ(std::memcmp(&got.leverage, &want.leverage, sizeof(double)), 0);
    // The loaded rules format identically — labels and measures survive.
    EXPECT_EQ(assoc::FormatQuantRule(got, loaded->items),
              assoc::FormatQuantRule(want, rule_set->items));
  }
}

TEST(QuantRuleSetRoundtripTest, RejectsOutOfRangeItemIds) {
  assoc::QuantRuleSet rule_set;
  assoc::QuantItem item;
  item.attribute = 0;
  item.lo = 1.0;
  item.hi = 2.0;
  item.label = "x in [1, 2]";
  rule_set.items.push_back(item);
  assoc::AssociationRule rule;
  rule.antecedent = {0};
  rule.consequent = {7};  // only one item exists
  rule_set.rules.push_back(rule);
  const std::string path = TempPath("quant_rules_bad.dmtb");
  ASSERT_TRUE(WriteQuantRuleSet(rule_set, path).ok());
  auto loaded = LoadQuantRuleSet(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), core::StatusCode::kCorruption)
      << loaded.status().ToString();
}

TEST(DecisionTreeRoundtripTest, LoadedTreePredictsIdentically) {
  // Every kind of tree the library writes: both greedy presets, SLIQ,
  // ID3 on binned data, and both pruners' output.
  const auto dataset = AgrawalWorkload(5);
  auto binned = tree::EqualWidthDiscretize(dataset, 8);
  ASSERT_TRUE(binned.ok());
  struct Case {
    std::string name;
    core::Result<tree::DecisionTree> tree;
    const core::Dataset* data;
  };
  std::vector<Case> cases;
  cases.push_back({"c45", tree::BuildC45(dataset), &dataset});
  cases.push_back({"cart", tree::BuildCart(dataset), &dataset});
  cases.push_back({"sliq", tree::BuildSliq(dataset), &dataset});
  cases.push_back({"id3", tree::BuildId3(*binned), &*binned});
  cases.push_back({"c45_pessimistic", tree::BuildC45(dataset), &dataset});
  ASSERT_TRUE(cases.back().tree.ok());
  ASSERT_TRUE(tree::PessimisticPrune(&*cases.back().tree).ok());
  cases.push_back({"cart_cost_complexity", tree::BuildCart(dataset),
                   &dataset});
  ASSERT_TRUE(cases.back().tree.ok());
  tree::CostComplexityPrune(&*cases.back().tree, 0.002);

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_TRUE(c.tree.ok()) << c.tree.status().ToString();
    const tree::DecisionTree& built = *c.tree;
    ASSERT_GT(built.num_nodes(), 1u);
    const std::string path = TempPath("tree_" + c.name + ".dmtb");
    ASSERT_TRUE(WriteDecisionTree(built, path).ok());
    auto loaded = LoadDecisionTree(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded->num_nodes(), built.num_nodes());
    for (size_t n = 0; n < built.num_nodes(); ++n) {
      const auto& want = built.node(n);
      const auto& got = loaded->node(n);
      EXPECT_EQ(got.is_leaf, want.is_leaf);
      EXPECT_EQ(got.kind, want.kind);
      EXPECT_EQ(got.majority_class, want.majority_class);
      EXPECT_EQ(got.attribute, want.attribute);
      EXPECT_EQ(got.category, want.category);
      EXPECT_EQ(std::memcmp(&got.threshold, &want.threshold, sizeof(double)),
                0);
      EXPECT_EQ(got.class_counts, want.class_counts);
      EXPECT_EQ(got.children, want.children);
    }
    EXPECT_EQ(loaded->ToText(), built.ToText());
    EXPECT_EQ(loaded->PredictAll(*c.data), built.PredictAll(*c.data));
  }
}

TEST(KMeansRoundtripTest, LoadedModelIsBitIdentical) {
  gen::GaussianMixtureParams mixture;
  mixture.num_clusters = 4;
  mixture.points_per_cluster = 100;
  mixture.dim = 3;
  auto points = gen::GenerateGaussianMixture(mixture, /*seed=*/13);
  ASSERT_TRUE(points.ok());
  cluster::KMeansOptions options;
  options.k = 4;
  options.seed = 13;
  auto model = cluster::KMeans(points->points, options);
  ASSERT_TRUE(model.ok());

  const std::string path = TempPath("kmeans.dmtb");
  ASSERT_TRUE(WriteKMeansModel(*model, path).ok());
  auto loaded = LoadKMeansModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->assignments, model->assignments);
  EXPECT_EQ(loaded->iterations, model->iterations);
  EXPECT_EQ(loaded->distance_computations, model->distance_computations);
  EXPECT_EQ(std::memcmp(&loaded->sse, &model->sse, sizeof(double)), 0);
  ASSERT_EQ(loaded->centers.size(), model->centers.size());
  ASSERT_EQ(loaded->centers.dim(), model->centers.dim());
  const auto& want = model->centers.data();
  const auto& got = loaded->centers.data();
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        want.size() * sizeof(double)),
            0);
}

/// CRC32 of a whole container file.
uint32_t FileCrc(const std::string& path) {
  auto bytes = core::ReadFileString(path);
  DMT_CHECK(bytes.ok());
  return core::Crc32(bytes->data(), bytes->size());
}

/// Writes `value` with `write`, checks the file's CRC32 against the pinned
/// one, then loads it back with `load` and rewrites the loaded object,
/// which must reproduce the same bytes.
template <typename T, typename WriteFn, typename LoadFn>
void ExpectPinnedBytes(const std::string& name, const T& value,
                       uint32_t pinned_crc, WriteFn write, LoadFn load) {
  SCOPED_TRACE(name);
  const std::string path = TempPath("golden_" + name + ".dmtb");
  ASSERT_TRUE(write(value, path).ok());
  EXPECT_EQ(FileCrc(path), pinned_crc)
      << std::hex << "0x" << FileCrc(path);
  auto loaded = load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::string rewritten = TempPath("golden_" + name + "_again.dmtb");
  ASSERT_TRUE(write(*loaded, rewritten).ok());
  EXPECT_EQ(FileCrc(rewritten), pinned_crc);
}

// The writers' exact bytes for small hand-built objects of every artifact
// type (and the empty ones), so a writer change that keeps round trips
// working but moves a byte — and breaks every file already on disk —
// cannot slip through.
TEST(GoldenBytesTest, WritersProducePinnedBytes) {
  core::TransactionDatabase db;
  db.Add(std::vector<core::ItemId>{1, 3, 5});
  db.Add(std::vector<core::ItemId>{2});
  db.Add(std::vector<core::ItemId>{});
  db.Add(std::vector<core::ItemId>{3, 4});
  ExpectPinnedBytes("txn", db, 0x413510f0u, WriteTransactionDatabase,
                    LoadTransactionDatabase);
  ExpectPinnedBytes("txn_empty", core::TransactionDatabase(), 0x581314c8u,
                    WriteTransactionDatabase, LoadTransactionDatabase);

  auto dataset = core::DatasetBuilder()
                     .AddNumericColumn("x", {1.5, -2.0, 3.25})
                     .AddCategoricalColumn("c", {0, 1, 1}, {"a", "b"})
                     .SetLabels({0, 1, 0}, {"no", "yes"})
                     .Build();
  ASSERT_TRUE(dataset.ok());
  ExpectPinnedBytes("dataset", *dataset, 0x6d5bd4b3u, WriteDataset,
                    LoadDataset);

  assoc::MiningResult mined;
  mined.itemsets = {{{1}, 3}, {{3}, 2}, {{1, 3}, 2}};
  mined.passes = {{1, 5, 2}, {2, 1, 1}};
  mined.conditional_trees_built = 4;
  mined.fp_nodes_allocated = 9;
  mined.tidset_intersections = 2;
  mined.partitions_mined = 1;
  mined.bytes_mapped = 4096;
  ExpectPinnedBytes("mining", mined, 0x61eeecf5u, WriteMiningResult,
                    LoadMiningResult);
  ExpectPinnedBytes("mining_empty", assoc::MiningResult(), 0x135aa688u,
                    WriteMiningResult, LoadMiningResult);

  assoc::AssociationRule rule;
  rule.antecedent = {1};
  rule.consequent = {3, 5};
  rule.support_count = 2;
  rule.support = 0.5;
  rule.confidence = 2.0 / 3.0;
  rule.lift = 1.25;
  rule.conviction = 1.5;
  rule.leverage = 0.0625;
  const std::vector<assoc::AssociationRule> rules = {rule};
  ExpectPinnedBytes("rules", rules, 0xcc4c558fu, WriteRuleSet, LoadRuleSet);
  ExpectPinnedBytes("rules_empty", std::vector<assoc::AssociationRule>(),
                    0xe765c650u, WriteRuleSet, LoadRuleSet);

  assoc::QuantRuleSet quant;
  assoc::QuantItem interval;
  interval.attribute = 0;
  interval.lo = 1.5;
  interval.hi = 3.25;
  interval.first_bin = 1;
  interval.last_bin = 2;
  interval.label = "x in [1.5, 3.25]";
  assoc::QuantItem category;
  category.attribute = 1;
  category.is_categorical = true;
  category.category = 1;
  category.label = "c = b";
  quant.items = {interval, category};
  assoc::AssociationRule quant_rule = rule;
  quant_rule.consequent = {0};
  quant.rules = {quant_rule};
  quant.partial_completeness = 1.5;
  quant.itemsets_mined = 3;
  quant.itemsets_attribute_distinct = 2;
  ExpectPinnedBytes("quant_rules", quant, 0x8310cec6u, WriteQuantRuleSet,
                    LoadQuantRuleSet);

  // A stump: x <= -0.25 sends row 1 left, rows 0 and 2 right.
  tree::DecisionTree stump;
  auto& nodes = tree::internal::TreeAccess::Nodes(stump);
  nodes.resize(3);
  nodes[0].is_leaf = false;
  nodes[0].kind = tree::SplitKind::kNumericThreshold;
  nodes[0].threshold = -0.25;
  nodes[0].class_counts = {2, 1};
  nodes[0].children = {1, 2};
  nodes[1].majority_class = 1;
  nodes[1].class_counts = {0, 1};
  nodes[2].class_counts = {2, 0};
  tree::internal::TreeAccess::AttributeNames(stump) = {"x", "c"};
  tree::internal::TreeAccess::AttributeCategories(stump) = {{}, {"a", "b"}};
  tree::internal::TreeAccess::ClassNames(stump) = {"no", "yes"};
  ExpectPinnedBytes("tree", stump, 0x94a66e0bu, WriteDecisionTree,
                    LoadDecisionTree);

  cluster::ClusteringResult model;
  auto centers = core::PointSet::FromFlat(2, {0.0, 1.0, 4.5, -3.0});
  ASSERT_TRUE(centers.ok());
  model.centers = *centers;
  model.assignments = {0, 1, 1};
  model.sse = 12.5;
  model.iterations = 3;
  model.distance_computations = 18;
  ExpectPinnedBytes("kmeans", model, 0x9680119eu, WriteKMeansModel,
                    LoadKMeansModel);
}

}  // namespace
}  // namespace dmt::io
