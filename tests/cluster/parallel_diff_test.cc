// Differential tests for the parallel clustering kernels: k-means and
// DBSCAN with num_threads in {2, 4} must produce bit-identical output to
// the serial path on seeded mixture workloads — same assignments/labels,
// same centers, same SSE to the last bit.
#include <gtest/gtest.h>

#include "cluster/dbscan.h"
#include "cluster/kmeans.h"
#include "core/check.h"
#include "gen/mixture.h"
#include "obs/metrics.h"

namespace dmt::cluster {
namespace {

gen::LabeledPoints Mixture(size_t clusters, double noise, uint64_t seed) {
  gen::GaussianMixtureParams params;
  params.num_clusters = clusters;
  params.points_per_cluster = 150;
  params.cluster_stddev = 0.8;
  params.placement = gen::CenterPlacement::kGrid;
  params.spread = 10.0;
  params.noise_fraction = noise;
  auto data = gen::GenerateGaussianMixture(params, seed);
  DMT_CHECK(data.ok());
  return std::move(data).value();
}

void ExpectSameClustering(const ClusteringResult& serial,
                          const ClusteringResult& parallel, size_t threads) {
  EXPECT_EQ(serial.assignments, parallel.assignments)
      << "assignments diverged at num_threads=" << threads;
  EXPECT_EQ(serial.iterations, parallel.iterations);
  // Bit-identical, not approximately equal: the parallel path must keep
  // every floating-point reduction in serial index order.
  EXPECT_EQ(serial.sse, parallel.sse);
  ASSERT_EQ(serial.centers.size(), parallel.centers.size());
  EXPECT_EQ(serial.centers.data(), parallel.centers.data());
  // Pruning decisions are per-point, so the distance-evaluation tally
  // must not depend on the chunking either.
  EXPECT_EQ(serial.distance_computations, parallel.distance_computations);
}

TEST(KMeansParallelDiffTest, PlusPlusSeedingMatchesSerial) {
  auto data = Mixture(9, 0.0, /*seed=*/17);
  KMeansOptions options;
  options.k = 9;
  options.seed = 5;
  auto serial = KMeans(data.points, options);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {2u, 4u}) {
    options.num_threads = threads;
    auto parallel = KMeans(data.points, options);
    ASSERT_TRUE(parallel.ok());
    ExpectSameClustering(*serial, *parallel, threads);
  }
}

TEST(KMeansParallelDiffTest, ForgySeedingMatchesSerial) {
  auto data = Mixture(6, 0.0, /*seed=*/18);
  KMeansOptions options;
  options.k = 6;
  options.seed = 11;
  options.init = KMeansInit::kForgy;
  auto serial = KMeans(data.points, options);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {2u, 4u}) {
    options.num_threads = threads;
    auto parallel = KMeans(data.points, options);
    ASSERT_TRUE(parallel.ok());
    ExpectSameClustering(*serial, *parallel, threads);
  }
}

TEST(KMeansParallelDiffTest, WeightedMatchesSerial) {
  auto data = Mixture(5, 0.0, /*seed=*/19);
  std::vector<double> weights(data.points.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1.0 + static_cast<double>(i % 7);
  }
  KMeansOptions options;
  options.k = 5;
  options.seed = 23;
  auto serial = WeightedKMeans(data.points, weights, options);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {2u, 4u}) {
    options.num_threads = threads;
    auto parallel = WeightedKMeans(data.points, weights, options);
    ASSERT_TRUE(parallel.ok());
    ExpectSameClustering(*serial, *parallel, threads);
  }
}

// The bound-pruned assignment engine keeps per-point bound arrays that
// are maintained chunk-parallel; serial and threaded runs must agree
// bit-for-bit with each other *and* with serial Lloyd.
TEST(KMeansParallelDiffTest, PrunedEnginesMatchSerialAndLloyd) {
  auto data = Mixture(9, 0.0, /*seed=*/37);
  KMeansOptions options;
  options.k = 9;
  options.seed = 5;
  auto lloyd = KMeans(data.points, options);
  ASSERT_TRUE(lloyd.ok());
  options.assignment = KMeansOptions::Assignment::kHamerly;
  auto serial = KMeans(data.points, options);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(lloyd->assignments, serial->assignments);
  EXPECT_EQ(lloyd->sse, serial->sse);
  EXPECT_EQ(lloyd->iterations, serial->iterations);
  for (size_t threads : {2u, 4u}) {
    options.num_threads = threads;
    auto parallel = KMeans(data.points, options);
    ASSERT_TRUE(parallel.ok());
    ExpectSameClustering(*serial, *parallel, threads);
  }
}

TEST(KMeansParallelDiffTest, PrunedForgySeedingMatchesSerial) {
  auto data = Mixture(6, 0.0, /*seed=*/38);
  KMeansOptions options;
  options.k = 6;
  options.seed = 11;
  options.init = KMeansInit::kForgy;
  options.assignment = KMeansOptions::Assignment::kHamerly;
  auto serial = KMeans(data.points, options);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {2u, 4u}) {
    options.num_threads = threads;
    auto parallel = KMeans(data.points, options);
    ASSERT_TRUE(parallel.ok());
    ExpectSameClustering(*serial, *parallel, threads);
  }
}

TEST(KMeansParallelDiffTest, WeightedPrunedMatchesSerial) {
  auto data = Mixture(5, 0.0, /*seed=*/39);
  std::vector<double> weights(data.points.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1.0 + static_cast<double>(i % 7);
  }
  KMeansOptions options;
  options.k = 5;
  options.seed = 23;
  options.assignment = KMeansOptions::Assignment::kHamerly;
  auto serial = WeightedKMeans(data.points, weights, options);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {2u, 4u}) {
    options.num_threads = threads;
    auto parallel = WeightedKMeans(data.points, weights, options);
    ASSERT_TRUE(parallel.ok());
    ExpectSameClustering(*serial, *parallel, threads);
  }
}

TEST(DbscanParallelDiffTest, KdTreeQueriesMatchSerial) {
  auto data = Mixture(8, 0.1, /*seed=*/29);
  DbscanOptions options;
  options.eps = 1.2;
  options.min_points = 6;
  auto serial = Dbscan(data.points, options);
  ASSERT_TRUE(serial.ok());
  EXPECT_GT(serial->num_clusters, 0u);
  for (size_t threads : {2u, 4u}) {
    options.num_threads = threads;
    auto parallel = Dbscan(data.points, options);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(serial->labels, parallel->labels)
        << "labels diverged at num_threads=" << threads;
    EXPECT_EQ(serial->num_clusters, parallel->num_clusters);
  }
}

TEST(DbscanParallelDiffTest, BruteForceQueriesMatchSerial) {
  auto data = Mixture(4, 0.15, /*seed=*/31);
  DbscanOptions options;
  options.eps = 1.0;
  options.min_points = 5;
  options.neighbors = DbscanOptions::Neighbors::kBruteForce;
  auto serial = Dbscan(data.points, options);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {2u, 4u}) {
    options.num_threads = threads;
    auto parallel = Dbscan(data.points, options);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(serial->labels, parallel->labels);
    EXPECT_EQ(serial->num_clusters, parallel->num_clusters);
  }
}

TEST(DbscanParallelDiffTest, MoreThreadsThanPoints) {
  core::PointSet points(2);
  points.Add(std::vector<double>{0.0, 0.0});
  points.Add(std::vector<double>{0.1, 0.0});
  points.Add(std::vector<double>{10.0, 10.0});
  DbscanOptions options;
  options.eps = 0.5;
  options.min_points = 2;
  auto serial = Dbscan(points, options);
  options.num_threads = 16;
  auto parallel = Dbscan(points, options);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(serial->labels, parallel->labels);
}

TEST(RegistryParallelDiffTest, CounterTotalsIdenticalAcrossThreadCounts) {
  // Registry totals (distance computations, iterations, region queries,
  // neighbour counts) must be bit-identical at every thread count,
  // including more threads than points (7 against a 3-point set).
  auto data = Mixture(6, 0.05, /*seed=*/53);
  core::PointSet tiny(2);
  tiny.Add(std::vector<double>{0.0, 0.0});
  tiny.Add(std::vector<double>{0.1, 0.0});
  tiny.Add(std::vector<double>{10.0, 10.0});
  std::vector<std::pair<std::string, uint64_t>> baseline;
  for (size_t threads : {0u, 1u, 2u, 7u}) {
    obs::Registry::Global().Reset();
    KMeansOptions kmeans_options;
    kmeans_options.k = 6;
    kmeans_options.seed = 5;
    kmeans_options.num_threads = threads;
    ASSERT_TRUE(KMeans(data.points, kmeans_options).ok());
    kmeans_options.assignment = KMeansOptions::Assignment::kHamerly;
    ASSERT_TRUE(KMeans(data.points, kmeans_options).ok());
    DbscanOptions dbscan_options;
    dbscan_options.eps = 1.2;
    dbscan_options.min_points = 6;
    dbscan_options.num_threads = threads;
    ASSERT_TRUE(Dbscan(data.points, dbscan_options).ok());
    DbscanOptions tiny_options;
    tiny_options.eps = 0.5;
    tiny_options.min_points = 2;
    tiny_options.num_threads = threads;
    ASSERT_TRUE(Dbscan(tiny, tiny_options).ok());
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
}  // namespace dmt::cluster
