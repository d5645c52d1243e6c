// Concurrent runs in one process must report exactly what solo runs do.
// Every work count in a result (FP-growth trees and nodes, Eclat
// intersections, k-means and BIRCH distance evaluations, tree split-scan
// rows) is the run's own tally; the metrics registry is only a sink that
// each run publishes to once. Each test starts two threads behind a spin
// barrier, each repeating one algorithm over its own input, and requires
// every result to equal that input's solo run, field for field. The pairs
// publish to the same registry counter (the same algorithm twice, or
// BIRCH next to k-means, which share cluster/kmeans/distance_computations),
// so a run that read its counts back from the registry would pick up the
// other thread's work.
//
// The trace battery runs each of those six algorithms solo under a trace
// file and checks that the run span's counter args equal the result
// fields: each run records the totals it publishes while its span is
// open. A last case traces two of the pairs running concurrently and
// checks that every span arg is one a solo run records, so no run's arg
// picks up the other thread's work.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "assoc/eclat.h"
#include "assoc/fp_growth.h"
#include "cluster/birch.h"
#include "cluster/kmeans.h"
#include "core/check.h"
#include "gen/agrawal.h"
#include "gen/mixture.h"
#include "gen/quest.h"
#include "obs/trace.h"
#include "tree/builder.h"
#include "tree/sliq.h"

namespace dmt {
namespace {

constexpr size_t kMiningRepeats = 20;
constexpr size_t kTreeRepeats = 10;

// ------------------------------------------------------------- inputs

core::TransactionDatabase Baskets(uint64_t seed,
                                  size_t num_transactions = 3000) {
  gen::QuestParams params;
  params.num_transactions = num_transactions;
  auto db = gen::GenerateQuestTransactions(params, seed);
  DMT_CHECK(db.ok());
  return std::move(db).value();
}

core::PointSet Points(uint64_t seed) {
  gen::GaussianMixtureParams params;
  params.num_clusters = 8;
  params.points_per_cluster = 500;
  params.dim = 2;
  auto data = gen::GenerateGaussianMixture(params, seed);
  DMT_CHECK(data.ok());
  return std::move(data).value().points;
}

core::Dataset Rows(int function) {
  gen::AgrawalParams params;
  params.function = function;
  params.num_records = 3000;
  auto data = gen::GenerateAgrawal(params, /*seed=*/7);
  DMT_CHECK(data.ok());
  return std::move(data).value();
}

// ----------------------------------------------------------- runners

assoc::MiningParams OnePercent() {
  assoc::MiningParams params;
  params.min_support = 0.01;
  return params;
}

assoc::MiningResult FpGrowth(const core::TransactionDatabase& db) {
  auto result = assoc::MineFpGrowth(db, OnePercent());
  DMT_CHECK(result.ok());
  return std::move(result).value();
}

assoc::MiningResult Eclat(const core::TransactionDatabase& db) {
  auto result = assoc::MineEclat(db, OnePercent());
  DMT_CHECK(result.ok());
  return std::move(result).value();
}

cluster::ClusteringResult KMeans(const core::PointSet& points) {
  cluster::KMeansOptions options;
  options.k = 8;
  options.assignment = cluster::KMeansOptions::Assignment::kHamerly;
  auto result = cluster::KMeans(points, options);
  DMT_CHECK(result.ok());
  return std::move(result).value();
}

cluster::BirchResult Birch(const core::PointSet& points) {
  cluster::BirchOptions options;
  options.global_clusters = 8;
  auto result = cluster::Birch(points, options);
  DMT_CHECK(result.ok());
  return std::move(result).value();
}

struct Grown {
  tree::DecisionTree tree;
  tree::TreeBuildStats stats;
};

Grown Cart(const core::Dataset& data) {
  // The CART preset (BuildCart) through BuildTree, which reports stats.
  tree::TreeOptions options;
  options.criterion = tree::SplitCriterion::kGini;
  options.categorical_style = tree::CategoricalSplitStyle::kBinary;
  Grown out;
  auto grown = tree::BuildTree(data, options, &out.stats);
  DMT_CHECK(grown.ok());
  out.tree = std::move(grown).value();
  return out;
}

Grown Sliq(const core::Dataset& data) {
  Grown out;
  auto grown = tree::BuildSliq(data, tree::SliqOptions{}, &out.stats);
  DMT_CHECK(grown.ok());
  out.tree = std::move(grown).value();
  return out;
}

// -------------------------------------------------------- comparisons

/// Name of the first field whose check failed, or "" when all passed.
std::string FirstDifference(
    std::initializer_list<std::pair<const char*, bool>> same_fields) {
  for (const auto& [name, same] : same_fields) {
    if (!same) return name;
  }
  return "";
}

bool SamePasses(const std::vector<assoc::PassStats>& a,
                const std::vector<assoc::PassStats>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].pass != b[i].pass || a[i].candidates != b[i].candidates ||
        a[i].frequent != b[i].frequent) {
      return false;
    }
  }
  return true;
}

std::string Diff(const assoc::MiningResult& solo,
                 const assoc::MiningResult& run) {
  return FirstDifference({
      {"itemsets", run.itemsets == solo.itemsets},
      {"passes", SamePasses(run.passes, solo.passes)},
      {"conditional_trees_built",
       run.conditional_trees_built == solo.conditional_trees_built},
      {"fp_nodes_allocated",
       run.fp_nodes_allocated == solo.fp_nodes_allocated},
      {"tidset_intersections",
       run.tidset_intersections == solo.tidset_intersections},
      {"partitions_mined", run.partitions_mined == solo.partitions_mined},
      {"bytes_mapped", run.bytes_mapped == solo.bytes_mapped},
  });
}

std::string Diff(const cluster::ClusteringResult& solo,
                 const cluster::ClusteringResult& run) {
  return FirstDifference({
      {"assignments", run.assignments == solo.assignments},
      {"centers", run.centers.data() == solo.centers.data()},
      {"sse", run.sse == solo.sse},
      {"iterations", run.iterations == solo.iterations},
      {"distance_computations",
       run.distance_computations == solo.distance_computations},
  });
}

std::string Diff(const cluster::BirchResult& solo,
                 const cluster::BirchResult& run) {
  const std::string clustering = Diff(solo.clustering, run.clustering);
  if (!clustering.empty()) return clustering;
  return FirstDifference({
      {"num_leaf_entries", run.num_leaf_entries == solo.num_leaf_entries},
      {"final_threshold", run.final_threshold == solo.final_threshold},
      {"rebuilds", run.rebuilds == solo.rebuilds},
  });
}

bool SameNodes(const tree::DecisionTree& a, const tree::DecisionTree& b) {
  if (a.num_nodes() != b.num_nodes()) return false;
  for (size_t i = 0; i < a.num_nodes(); ++i) {
    const tree::TreeNode& x = a.node(i);
    const tree::TreeNode& y = b.node(i);
    if (x.is_leaf != y.is_leaf || x.majority_class != y.majority_class ||
        x.class_counts != y.class_counts || x.kind != y.kind ||
        x.attribute != y.attribute || x.threshold != y.threshold ||
        x.category != y.category || x.children != y.children) {
      return false;
    }
  }
  return true;
}

std::string Diff(const Grown& solo, const Grown& run) {
  return FirstDifference({
      {"tree nodes", SameNodes(run.tree, solo.tree)},
      {"split_scan_rows",
       run.stats.split_scan_rows == solo.stats.split_scan_rows},
  });
}

// ------------------------------------------------------------ harness

/// Runs `run_a` and `run_b` `repeats` times each on two threads released
/// together by a spin barrier, and returns every result of each.
template <typename RunA, typename RunB>
auto RunConcurrently(size_t repeats, RunA run_a, RunB run_b) {
  std::pair<std::vector<decltype(run_a())>, std::vector<decltype(run_b())>>
      results;
  std::atomic<int> arrived{0};
  auto start_together = [&arrived] {
    arrived.fetch_add(1);
    while (arrived.load() < 2) std::this_thread::yield();
  };
  std::thread a([&] {
    start_together();
    for (size_t i = 0; i < repeats; ++i) results.first.push_back(run_a());
  });
  std::thread b([&] {
    start_together();
    for (size_t i = 0; i < repeats; ++i) results.second.push_back(run_b());
  });
  a.join();
  b.join();
  return results;
}

template <typename Result>
void ExpectAllMatchSolo(const char* label, const Result& solo,
                        const std::vector<Result>& runs) {
  size_t wrong = 0;
  std::string first;
  for (const Result& run : runs) {
    const std::string difference = Diff(solo, run);
    if (difference.empty()) continue;
    if (wrong++ == 0) first = difference;
  }
  EXPECT_EQ(wrong, 0u) << label << ": " << wrong << " of " << runs.size()
                       << " concurrent runs differ from the solo run, "
                          "first in "
                       << first;
}

/// Runs `run_a` and `run_b` once each alone, then `repeats` times each
/// concurrently, and expects every concurrent result to equal its solo
/// run.
template <typename RunA, typename RunB>
void ExpectPairMatchesSolo(size_t repeats, const char* label_a, RunA run_a,
                           const char* label_b, RunB run_b) {
  const auto solo_a = run_a();
  const auto solo_b = run_b();
  const auto [runs_a, runs_b] = RunConcurrently(repeats, run_a, run_b);
  ExpectAllMatchSolo(label_a, solo_a, runs_a);
  ExpectAllMatchSolo(label_b, solo_b, runs_b);
}

// -------------------------------------------------- concurrent pairs

TEST(ConcurrentRunsTest, FpGrowthPairMatchesSoloRuns) {
  const auto db1 = Baskets(1);
  const auto db2 = Baskets(2);
  ExpectPairMatchesSolo(
      kMiningRepeats, "FP-growth, seed 1", [&] { return FpGrowth(db1); },
      "FP-growth, seed 2", [&] { return FpGrowth(db2); });
}

TEST(ConcurrentRunsTest, EclatPairMatchesSoloRuns) {
  const auto db1 = Baskets(1);
  const auto db2 = Baskets(2);
  ExpectPairMatchesSolo(
      kMiningRepeats, "Eclat, seed 1", [&] { return Eclat(db1); },
      "Eclat, seed 2", [&] { return Eclat(db2); });
}

TEST(ConcurrentRunsTest, KMeansPairMatchesSoloRuns) {
  const auto points1 = Points(1);
  const auto points2 = Points(2);
  ExpectPairMatchesSolo(
      kMiningRepeats, "k-means, seed 1", [&] { return KMeans(points1); },
      "k-means, seed 2", [&] { return KMeans(points2); });
}

TEST(ConcurrentRunsTest, BirchNextToKMeansMatchesSoloRuns) {
  const auto points1 = Points(1);
  const auto points2 = Points(2);
  ExpectPairMatchesSolo(
      kMiningRepeats, "BIRCH", [&] { return Birch(points1); },
      "k-means next to BIRCH", [&] { return KMeans(points2); });
}

TEST(ConcurrentRunsTest, CartPairMatchesSoloRuns) {
  const auto rows1 = Rows(1);
  const auto rows2 = Rows(2);
  ExpectPairMatchesSolo(
      kTreeRepeats, "CART, function 1", [&] { return Cart(rows1); },
      "CART, function 2", [&] { return Cart(rows2); });
}

TEST(ConcurrentRunsTest, SliqPairMatchesSoloRuns) {
  const auto rows1 = Rows(1);
  const auto rows2 = Rows(2);
  ExpectPairMatchesSolo(
      kTreeRepeats, "SLIQ, function 1", [&] { return Sliq(rows1); },
      "SLIQ, function 2", [&] { return Sliq(rows2); });
}

// ------------------------------------------------------ trace battery

/// Traces `run` into a temp file and returns the file's text.
template <typename Run>
std::string Traced(const char* file, Run run) {
  const std::string path = testing::TempDir() + file;
  obs::TraceSink& sink = obs::TraceSink::Global();
  sink.Clear();
  sink.Start(path);
  run();
  sink.Stop();
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Every (span name, arg key, value) in a trace file (one event per line).
std::vector<std::tuple<std::string, std::string, int64_t>> AllSpanArgs(
    const std::string& trace) {
  std::vector<std::tuple<std::string, std::string, int64_t>> out;
  std::istringstream lines(trace);
  std::string line;
  const std::string name_key = "\"name\": \"";
  const std::string args_key = "\"args\": {";
  while (std::getline(lines, line)) {
    const size_t name_at = line.find(name_key);
    const size_t args_at = line.find(args_key);
    if (name_at == std::string::npos || args_at == std::string::npos) {
      continue;
    }
    const size_t name_begin = name_at + name_key.size();
    const std::string name =
        line.substr(name_begin, line.find('"', name_begin) - name_begin);
    // The args object: "key": value, "key": value}
    size_t at = args_at + args_key.size();
    while (line[at] == '"') {
      const size_t key_end = line.find('"', at + 1);
      size_t digits = 0;
      const int64_t value = std::stoll(line.substr(key_end + 3), &digits);
      out.emplace_back(name, line.substr(at + 1, key_end - at - 1), value);
      at = key_end + 3 + digits;
      if (line.compare(at, 2, ", ") == 0) at += 2;
    }
  }
  return out;
}

/// The `counter` arg of the only event named `span` that carries it, or
/// -1 when there is no such event or more than one.
int64_t SpanArg(const std::string& trace, const std::string& span,
                const std::string& counter) {
  int64_t found = -1;
  size_t events = 0;
  for (const auto& [name, key, value] : AllSpanArgs(trace)) {
    if (name != span || key != counter) continue;
    ++events;
    found = value;
  }
  return events == 1 ? found : -1;
}

TEST(ConcurrentRunsTest, SpanArgsEqualResultFields) {
  const auto db = Baskets(1);
  const auto points = Points(1);
  const auto rows = Rows(1);

  assoc::MiningResult fp;
  std::string trace = Traced("fp_growth.json", [&] { fp = FpGrowth(db); });
  EXPECT_EQ(SpanArg(trace, "assoc/fp_growth/mine",
                    "assoc/fp_growth/conditional_trees_built"),
            static_cast<int64_t>(fp.conditional_trees_built));
  EXPECT_EQ(SpanArg(trace, "assoc/fp_growth/mine",
                    "assoc/fp_growth/fp_nodes_allocated"),
            static_cast<int64_t>(fp.fp_nodes_allocated));

  assoc::MiningResult eclat;
  trace = Traced("eclat.json", [&] { eclat = Eclat(db); });
  EXPECT_EQ(SpanArg(trace, "assoc/eclat/mine",
                    "assoc/eclat/tidset_intersections"),
            static_cast<int64_t>(eclat.tidset_intersections));

  cluster::ClusteringResult kmeans;
  trace = Traced("kmeans.json", [&] { kmeans = KMeans(points); });
  EXPECT_EQ(SpanArg(trace, "cluster/kmeans/run",
                    "cluster/kmeans/distance_computations"),
            static_cast<int64_t>(kmeans.distance_computations))
      << "the k-means run span must count seeding too";
  EXPECT_EQ(SpanArg(trace, "cluster/kmeans/run", "cluster/kmeans/iterations"),
            static_cast<int64_t>(kmeans.iterations));

  cluster::BirchResult birch;
  trace = Traced("birch.json", [&] { birch = Birch(points); });
  EXPECT_EQ(SpanArg(trace, "cluster/birch/run",
                    "cluster/kmeans/distance_computations"),
            static_cast<int64_t>(birch.clustering.distance_computations));
  EXPECT_EQ(SpanArg(trace, "cluster/birch/run", "cluster/birch/rebuilds"),
            static_cast<int64_t>(birch.rebuilds));

  Grown cart;
  trace = Traced("cart.json", [&] { cart = Cart(rows); });
  EXPECT_EQ(SpanArg(trace, "tree/greedy/build", "tree/greedy/split_scan_rows"),
            static_cast<int64_t>(cart.stats.split_scan_rows));
  EXPECT_EQ(SpanArg(trace, "tree/greedy/build", "tree/greedy/nodes"),
            static_cast<int64_t>(cart.tree.num_nodes()));

  Grown sliq;
  trace = Traced("sliq.json", [&] { sliq = Sliq(rows); });
  EXPECT_EQ(SpanArg(trace, "tree/sliq/build", "tree/sliq/split_scan_rows"),
            static_cast<int64_t>(sliq.stats.split_scan_rows));
}

TEST(ConcurrentRunsTest, ConcurrentSpanArgsAreEachRunsOwnTotals) {
  // Two FP-growth runs on different inputs publish different totals to
  // the same counters; BIRCH and k-means share the k-means distance
  // counter. Every arg of the concurrent trace must be a solo run's.
  const auto small = Baskets(1);
  const auto large = Baskets(2, 6000);
  const auto points1 = Points(1);
  const auto points2 = Points(2);
  auto fp_small = [&] { return FpGrowth(small); };
  auto fp_large = [&] { return FpGrowth(large); };
  auto birch = [&] { return Birch(points1); };
  auto kmeans = [&] { return KMeans(points2); };

  std::set<std::tuple<std::string, std::string, int64_t>> solo;
  const std::string solo_traces[] = {
      Traced("solo_fp_small.json", fp_small),
      Traced("solo_fp_large.json", fp_large),
      Traced("solo_birch.json", birch),
      Traced("solo_kmeans.json", kmeans)};
  for (const std::string& trace : solo_traces) {
    for (const auto& arg : AllSpanArgs(trace)) solo.insert(arg);
  }

  const auto concurrent = AllSpanArgs(Traced("concurrent.json", [&] {
    RunConcurrently(kMiningRepeats, fp_small, fp_large);
    RunConcurrently(kMiningRepeats, birch, kmeans);
  }));
  size_t fp_args = 0;
  size_t wrong = 0;
  std::string first;
  for (const auto& arg : concurrent) {
    const auto& [span, key, value] = arg;
    if (span == "assoc/fp_growth/mine") ++fp_args;
    if (solo.contains(arg)) continue;
    if (wrong++ == 0) {
      first = span + " " + key + " = " + std::to_string(value);
    }
  }
  // Two args (trees, nodes) on each of the 2 x kMiningRepeats mine spans.
  EXPECT_EQ(fp_args, 4 * kMiningRepeats);
  EXPECT_EQ(wrong, 0u) << wrong << " of " << concurrent.size()
                       << " concurrent span args match no solo run, "
                          "first: "
                       << first;
}

}  // namespace
}  // namespace dmt
