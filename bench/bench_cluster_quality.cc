// TAB-B1 (BIRCH SIGMOD'96 Tables 4-6 analogue): clustering quality and
// time on the DS1-style grid dataset (100 Gaussian clusters on a 10x10
// grid, 200 points each) for BIRCH, k-means++ and Forgy-seeded k-means
// (seeding ablation, design choice 2), plus Ward on a subsample.
//
// Expected shape: BIRCH matches direct k-means++ quality (ARI ~1, similar
// SSE) while touching each point once; Forgy seeding loses clusters on
// the 100-center problem (visibly worse SSE/ARI); Ward is accurate but
// only feasible on the subsample.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <numeric>

#include "bench_main.h"
#include "bench_util.h"
#include "cluster/agglomerative.h"
#include "cluster/birch.h"
#include "cluster/clarans.h"
#include "cluster/kmeans.h"
#include "core/timer.h"
#include "eval/clustering_metrics.h"

namespace {

using dmt::bench::GridWorkload;

constexpr size_t kClusters = 100;
constexpr size_t kPerCluster = 200;

void PrintQualityTable() {
  const auto& data = GridWorkload(kClusters, kPerCluster);
  std::printf("# TAB-B1: DS1-style grid, %zu points in %zu clusters\n",
              data.points.size(), kClusters);
  std::printf("# method, time_ms, sse, ari, nmi, dist_comps\n");
  auto report = [&](const char* name, double millis, double sse,
                    const std::vector<uint32_t>& assignments,
                    const std::vector<uint32_t>& truth,
                    uint64_t dist_comps) {
    auto ari = dmt::eval::AdjustedRandIndex(truth, assignments);
    auto nmi = dmt::eval::NormalizedMutualInformation(truth, assignments);
    DMT_CHECK(ari.ok());
    DMT_CHECK(nmi.ok());
    std::printf("quality,%s,%.1f,%.1f,%.4f,%.4f,%llu\n", name, millis,
                sse, *ari, *nmi,
                static_cast<unsigned long long>(dist_comps));
  };

  // Assignment-engine ablation: both rows must report the same SSE and
  // ARI (the pruned engine is exact); only time and dist_comps move.
  {
    using Assignment = dmt::cluster::KMeansOptions::Assignment;
    constexpr struct {
      const char* name;
      Assignment assignment;
    } kEngines[] = {
        {"kmeans++", Assignment::kLloyd},
        {"kmeans++_hamerly", Assignment::kHamerly},
    };
    for (const auto& engine : kEngines) {
      dmt::cluster::KMeansOptions options;
      options.k = kClusters;
      options.init = dmt::cluster::KMeansInit::kPlusPlus;
      options.assignment = engine.assignment;
      options.seed = 17;
      dmt::core::WallTimer timer;
      auto result = dmt::cluster::KMeans(data.points, options);
      DMT_CHECK(result.ok());
      report(engine.name, timer.ElapsedMillis(), result->sse,
             result->assignments, data.labels,
             result->distance_computations);
    }
  }
  {
    dmt::cluster::KMeansOptions options;
    options.k = kClusters;
    options.init = dmt::cluster::KMeansInit::kForgy;
    options.seed = 17;
    dmt::core::WallTimer timer;
    auto result = dmt::cluster::KMeans(data.points, options);
    DMT_CHECK(result.ok());
    report("kmeans_forgy", timer.ElapsedMillis(), result->sse,
           result->assignments, data.labels,
           result->distance_computations);
  }
  {
    dmt::cluster::BirchOptions options;
    options.global_clusters = kClusters;
    options.threshold = 1.5;
    options.max_leaf_entries_total = 4096;
    options.seed = 17;
    dmt::core::WallTimer timer;
    auto result = dmt::cluster::Birch(data.points, options);
    DMT_CHECK(result.ok());
    report("birch", timer.ElapsedMillis(), result->clustering.sse,
           result->clustering.assignments, data.labels,
           result->clustering.distance_computations);
    std::printf("# birch summary: %zu leaf entries, threshold %.2f, "
                "%zu rebuilds\n",
                result->num_leaf_entries, result->final_threshold,
                result->rebuilds);
  }
  {
    // CLARANS on a 4000-point subsample (swap evaluation is O(n) per
    // sampled neighbour; the paper also subsampled for large n).
    std::vector<size_t> rows(4000);
    size_t stride = data.points.size() / rows.size();
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = i * stride;
    auto sample = data.points.Subset(rows);
    std::vector<uint32_t> sample_truth(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      sample_truth[i] = data.labels[rows[i]];
    }
    dmt::cluster::ClaransOptions options;
    options.k = kClusters;
    options.num_local = 1;
    options.max_neighbors = 2000;
    options.seed = 17;
    dmt::core::WallTimer timer;
    auto result = dmt::cluster::Clarans(sample, options);
    DMT_CHECK(result.ok());
    auto ari = dmt::eval::AdjustedRandIndex(sample_truth,
                                            result->assignments);
    DMT_CHECK(ari.ok());
    std::printf("quality,clarans_4k_sample,%.1f,n/a,%.4f,n/a\n",
                timer.ElapsedMillis(), *ari);
  }
  {
    // Ward on a 4000-point subsample (dense-matrix method).
    std::vector<size_t> rows(4000);
    size_t stride = data.points.size() / rows.size();
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = i * stride;
    auto sample = data.points.Subset(rows);
    std::vector<uint32_t> sample_truth(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      sample_truth[i] = data.labels[rows[i]];
    }
    dmt::core::WallTimer timer;
    auto dendrogram = dmt::cluster::AgglomerativeCluster(
        sample, dmt::cluster::Linkage::kWard);
    DMT_CHECK(dendrogram.ok());
    auto labels = dendrogram->CutAtK(kClusters);
    DMT_CHECK(labels.ok());
    auto ari = dmt::eval::AdjustedRandIndex(sample_truth, *labels);
    DMT_CHECK(ari.ok());
    std::printf("quality,ward_4k_sample,%.1f,n/a,%.4f,n/a\n",
                timer.ElapsedMillis(), *ari);
  }
  std::printf("\n");
}

void BM_KMeansPlusPlus(benchmark::State& state) {
  const auto& data = GridWorkload(kClusters, kPerCluster);
  dmt::cluster::KMeansOptions options;
  options.k = kClusters;
  options.seed = 17;
  double dist_comps = 0.0;
  for (auto _ : state) {
    auto result = dmt::cluster::KMeans(data.points, options);
    DMT_CHECK(result.ok());
    dist_comps = static_cast<double>(result->distance_computations);
    benchmark::DoNotOptimize(result);
  }
  state.counters["dist_comps"] = dist_comps;
}

void BM_Birch(benchmark::State& state) {
  const auto& data = GridWorkload(kClusters, kPerCluster);
  dmt::cluster::BirchOptions options;
  options.global_clusters = kClusters;
  options.threshold = 1.5;
  options.max_leaf_entries_total = 4096;
  options.seed = 17;
  for (auto _ : state) {
    auto result = dmt::cluster::Birch(data.points, options);
    DMT_CHECK(result.ok());
    benchmark::DoNotOptimize(result);
  }
}

BENCHMARK(BM_KMeansPlusPlus)->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_Birch)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  return dmt::bench::BenchMain("cluster_quality", argc, argv,
                               PrintQualityTable);
}
