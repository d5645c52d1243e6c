#include "cluster/kmeans.h"

#include <gtest/gtest.h>

#include "eval/clustering_metrics.h"
#include "gen/mixture.h"

namespace dmt::cluster {
namespace {

using core::PointSet;

gen::LabeledPoints WellSeparated(size_t clusters, uint64_t seed) {
  gen::GaussianMixtureParams params;
  params.num_clusters = clusters;
  params.points_per_cluster = 100;
  params.cluster_stddev = 0.5;
  params.spread = 50.0;
  auto data = gen::GenerateGaussianMixture(params, seed);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

TEST(KMeansTest, RecoversWellSeparatedClusters) {
  auto data = WellSeparated(4, 1);
  KMeansOptions options;
  options.k = 4;
  options.seed = 9;
  auto result = KMeans(data.points, options);
  ASSERT_TRUE(result.ok());
  auto ari = eval::AdjustedRandIndex(data.labels, result->assignments);
  ASSERT_TRUE(ari.ok());
  EXPECT_GT(*ari, 0.99);
}

TEST(KMeansTest, DeterministicForSeed) {
  auto data = WellSeparated(3, 2);
  KMeansOptions options;
  options.k = 3;
  options.seed = 5;
  auto a = KMeans(data.points, options);
  auto b = KMeans(data.points, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->assignments, b->assignments);
  EXPECT_DOUBLE_EQ(a->sse, b->sse);
}

TEST(KMeansTest, SseConsistentWithAssignments) {
  auto data = WellSeparated(3, 3);
  KMeansOptions options;
  options.k = 3;
  auto result = KMeans(data.points, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->sse,
              ComputeSse(data.points, result->assignments, result->centers),
              1e-6);
}

TEST(KMeansTest, MoreClustersNeverIncreaseSse) {
  auto data = WellSeparated(4, 4);
  double previous = std::numeric_limits<double>::infinity();
  for (size_t k : {1u, 2u, 4u, 8u, 16u}) {
    KMeansOptions options;
    options.k = k;
    options.seed = 11;
    options.init = KMeansInit::kPlusPlus;
    auto result = KMeans(data.points, options);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result->sse, previous * 1.001) << "k=" << k;
    previous = result->sse;
  }
}

TEST(KMeansTest, PlusPlusBeatsForgyOnAverage) {
  // On a hard instance (many small clusters), k-means++ seeding should be
  // at least as good as Forgy on average over seeds.
  auto data = WellSeparated(16, 5);
  double forgy_total = 0.0, plus_total = 0.0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    KMeansOptions options;
    options.k = 16;
    options.seed = seed;
    options.init = KMeansInit::kForgy;
    auto forgy = KMeans(data.points, options);
    options.init = KMeansInit::kPlusPlus;
    auto plus = KMeans(data.points, options);
    ASSERT_TRUE(forgy.ok());
    ASSERT_TRUE(plus.ok());
    forgy_total += forgy->sse;
    plus_total += plus->sse;
  }
  EXPECT_LE(plus_total, forgy_total * 1.05);
}

TEST(KMeansTest, KOneCenterIsCentroid) {
  PointSet points(1);
  points.Add(std::vector<double>{0.0});
  points.Add(std::vector<double>{10.0});
  KMeansOptions options;
  options.k = 1;
  auto result = KMeans(points, options);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->centers.point(0)[0], 5.0);
  EXPECT_DOUBLE_EQ(result->sse, 50.0);
}

TEST(KMeansTest, KEqualsNZeroSse) {
  auto data = WellSeparated(2, 6);
  KMeansOptions options;
  options.k = data.points.size();
  options.max_iterations = 50;
  auto result = KMeans(data.points, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->sse, 0.0, 1e-9);
}

TEST(KMeansTest, RejectsBadInputs) {
  PointSet points(1);
  points.Add(std::vector<double>{1.0});
  KMeansOptions options;
  options.k = 2;  // more clusters than points
  EXPECT_FALSE(KMeans(points, options).ok());
  options.k = 0;
  EXPECT_FALSE(KMeans(points, options).ok());
  options.k = 1;
  options.max_iterations = 0;
  EXPECT_FALSE(KMeans(points, options).ok());
  PointSet empty(2);
  EXPECT_FALSE(KMeans(empty, KMeansOptions{}).ok());
}

TEST(KMeansTest, WeightedPullsCentersTowardHeavyPoints) {
  PointSet points(1);
  points.Add(std::vector<double>{0.0});
  points.Add(std::vector<double>{10.0});
  KMeansOptions options;
  options.k = 1;
  std::vector<double> weights = {9.0, 1.0};
  auto result = WeightedKMeans(points, weights, options);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->centers.point(0)[0], 1.0);
}

TEST(KMeansTest, WeightedValidatesWeights) {
  PointSet points(1);
  points.Add(std::vector<double>{1.0});
  KMeansOptions options;
  options.k = 1;
  EXPECT_FALSE(WeightedKMeans(points, {1.0, 2.0}, options).ok());
  EXPECT_FALSE(WeightedKMeans(points, {0.0}, options).ok());
  EXPECT_FALSE(WeightedKMeans(points, {-1.0}, options).ok());
}

using Assignment = KMeansOptions::Assignment;

void ExpectBitIdentical(const ClusteringResult& lloyd,
                        const ClusteringResult& pruned) {
  EXPECT_EQ(lloyd.assignments, pruned.assignments);
  // Bit-identical, not approximately equal: the pruned engine computes
  // the exact distance to the assigned center every iteration, so the
  // SSE reduction runs over identical values in identical order.
  EXPECT_EQ(lloyd.sse, pruned.sse);
  EXPECT_EQ(lloyd.iterations, pruned.iterations);
  EXPECT_EQ(lloyd.centers.data(), pruned.centers.data());
}

TEST(KMeansAssignmentTest, PrunedEnginesMatchLloydBitExact) {
  auto data = WellSeparated(12, 21);
  for (auto init : {KMeansInit::kForgy, KMeansInit::kPlusPlus}) {
    KMeansOptions options;
    options.k = 12;
    options.seed = 7;
    options.init = init;
    auto lloyd = KMeans(data.points, options);
    ASSERT_TRUE(lloyd.ok());
    options.assignment = Assignment::kHamerly;
    auto pruned = KMeans(data.points, options);
    ASSERT_TRUE(pruned.ok());
    ExpectBitIdentical(*lloyd, *pruned);
    EXPECT_LT(pruned->distance_computations, lloyd->distance_computations);
  }
}

TEST(KMeansAssignmentTest, WeightedPrunedMatchesLloyd) {
  auto data = WellSeparated(8, 22);
  std::vector<double> weights(data.points.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1.0 + static_cast<double>(i % 5);
  }
  for (auto init : {KMeansInit::kForgy, KMeansInit::kPlusPlus}) {
    KMeansOptions options;
    options.k = 8;
    options.seed = 13;
    options.init = init;
    auto lloyd = WeightedKMeans(data.points, weights, options);
    ASSERT_TRUE(lloyd.ok());
    options.assignment = Assignment::kHamerly;
    auto pruned = WeightedKMeans(data.points, weights, options);
    ASSERT_TRUE(pruned.ok());
    ExpectBitIdentical(*lloyd, *pruned);
  }
}

TEST(KMeansAssignmentTest, LloydDistanceCountHasClosedForm) {
  auto data = WellSeparated(4, 23);
  KMeansOptions options;
  options.k = 4;
  options.seed = 3;
  options.init = KMeansInit::kForgy;  // no seeding distances
  auto result = KMeans(data.points, options);
  ASSERT_TRUE(result.ok());
  // One assignment pass per iteration plus the final consistency pass,
  // k distances per point each.
  EXPECT_EQ(result->distance_computations,
            (result->iterations + 1) * data.points.size() * options.k);
}

TEST(KMeansAssignmentTest, HamerlyPrunesMostDistancesWhenSeparated) {
  auto data = WellSeparated(16, 24);
  KMeansOptions options;
  options.k = 16;
  options.seed = 5;
  auto lloyd = KMeans(data.points, options);
  options.assignment = Assignment::kHamerly;
  auto hamerly = KMeans(data.points, options);
  ASSERT_TRUE(lloyd.ok());
  ASSERT_TRUE(hamerly.ok());
  EXPECT_EQ(lloyd->sse, hamerly->sse);
  // Well-separated clusters are the best case for the bounds: the vast
  // majority of full scans are pruned away.
  EXPECT_LE(hamerly->distance_computations * 3,
            lloyd->distance_computations);
}

// Exact duplicates force distance ties (lowest-index tie-breaking) and
// duplicate initial centers force empty-cluster restarts; the pruned
// engine must track Lloyd through both.
TEST(KMeansAssignmentTest, PrunedEnginesMatchLloydOnDegenerateTies) {
  PointSet points(2);
  for (int i = 0; i < 30; ++i) points.Add(std::vector<double>{0.0, 0.0});
  points.Add(std::vector<double>{10.0, 0.0});
  points.Add(std::vector<double>{20.0, 0.0});
  for (uint64_t seed = 0; seed < 10; ++seed) {
    KMeansOptions options;
    options.k = 3;
    options.seed = seed;
    options.init = KMeansInit::kForgy;
    auto lloyd = KMeans(points, options);
    ASSERT_TRUE(lloyd.ok());
    options.assignment = Assignment::kHamerly;
    auto pruned = KMeans(points, options);
    ASSERT_TRUE(pruned.ok());
    ExpectBitIdentical(*lloyd, *pruned);
  }
}

TEST(KMeansTest, EmptyClusterRestartsSeparateAllLocations) {
  // 30 coincident points and two lone outliers: duplicate initial
  // centers empty out, and the restart must place the empty clusters on
  // *distinct* farthest points (measured against the pre-update
  // centers), so the three distinct locations always end up with one
  // center each and the SSE reaches exactly zero.
  PointSet points(2);
  for (int i = 0; i < 30; ++i) points.Add(std::vector<double>{0.0, 0.0});
  points.Add(std::vector<double>{10.0, 0.0});
  points.Add(std::vector<double>{20.0, 0.0});
  for (uint64_t seed = 0; seed < 10; ++seed) {
    KMeansOptions options;
    options.k = 3;
    options.seed = seed;
    options.init = KMeansInit::kForgy;
    auto result = KMeans(points, options);
    ASSERT_TRUE(result.ok()) << "seed " << seed;
    EXPECT_LE(result->sse, 1e-12) << "seed " << seed;
    for (uint32_t a = 0; a < 3; ++a) {
      for (uint32_t b = a + 1; b < 3; ++b) {
        EXPECT_NE(result->centers.point(a)[0], result->centers.point(b)[0])
            << "duplicate centers for seed " << seed;
      }
    }
  }
}

TEST(KMeansTest, IterationsReported) {
  auto data = WellSeparated(3, 8);
  KMeansOptions options;
  options.k = 3;
  auto result = KMeans(data.points, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->iterations, 1u);
  EXPECT_LE(result->iterations, options.max_iterations);
}

}  // namespace
}  // namespace dmt::cluster
