// FIG-B2 (BIRCH scale-up): time vs dataset size (10K to 200K points,
// k = 100 grid clusters) for BIRCH and direct k-means++.
//
// Expected shape: BIRCH grows linearly with a small constant (single scan
// into bounded CF summaries, then clustering the summaries); direct
// k-means grows linearly with a much larger constant (k distance
// computations per point per Lloyd iteration), so the gap widens with n.
// The assignment column ablates that constant: the Hamerly engine returns
// bit-identical clusterings while pruning most of the k distances per
// point (dist_comps counter), so pruned k-means scales with cluster count
// instead of n*k.
#include <benchmark/benchmark.h>

#include "bench_main.h"
#include "bench_util.h"
#include "cluster/birch.h"
#include "cluster/kmeans.h"

namespace {

using dmt::bench::GridWorkload;

constexpr size_t kClusters = 100;

dmt::cluster::KMeansOptions::Assignment AssignmentFromArg(int64_t arg) {
  using Assignment = dmt::cluster::KMeansOptions::Assignment;
  return arg == 1 ? Assignment::kHamerly : Assignment::kLloyd;
}

void RunKMeans(benchmark::State& state, size_t clusters,
               size_t per_cluster) {
  const auto& data = GridWorkload(clusters, per_cluster);
  dmt::cluster::KMeansOptions options;
  options.k = clusters;
  options.seed = 3;
  options.max_iterations = 20;
  options.num_threads = static_cast<size_t>(state.range(1));
  options.assignment = AssignmentFromArg(state.range(2));
  double sse = 0.0;
  double dist_comps = 0.0;
  for (auto _ : state) {
    auto result = dmt::cluster::KMeans(data.points, options);
    DMT_CHECK(result.ok());
    sse = result->sse;
    dist_comps = static_cast<double>(result->distance_computations);
    benchmark::DoNotOptimize(result);
  }
  state.counters["points"] = static_cast<double>(data.points.size());
  state.counters["threads"] = static_cast<double>(state.range(1));
  state.counters["assignment"] = static_cast<double>(state.range(2));
  state.counters["sse"] = sse;
  state.counters["dist_comps"] = dist_comps;
}

// args: points per cluster (total = 100 * arg), worker threads,
// assignment engine (0 = Lloyd, 1 = Hamerly).
void BM_KMeans(benchmark::State& state) {
  RunKMeans(state, kClusters, static_cast<size_t>(state.range(0)));
}

// Acceptance sweep at n = 100K, k = 50: args = (threads, assignment).
// Identical SSE across the assignment column with a >= 3x drop in
// dist_comps is the exactness-plus-pruning check.
void BM_KMeansPruning(benchmark::State& state) {
  const auto& data = GridWorkload(50, 2000);
  dmt::cluster::KMeansOptions options;
  options.k = 50;
  options.seed = 3;
  options.max_iterations = 20;
  options.num_threads = static_cast<size_t>(state.range(0));
  options.assignment = AssignmentFromArg(state.range(1));
  double sse = 0.0;
  double dist_comps = 0.0;
  for (auto _ : state) {
    auto result = dmt::cluster::KMeans(data.points, options);
    DMT_CHECK(result.ok());
    sse = result->sse;
    dist_comps = static_cast<double>(result->distance_computations);
    benchmark::DoNotOptimize(result);
  }
  state.counters["points"] = static_cast<double>(data.points.size());
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["assignment"] = static_cast<double>(state.range(1));
  state.counters["sse"] = sse;
  state.counters["dist_comps"] = dist_comps;
}

// EXT-7: instrumentation overhead on the hottest kernel. arg = 0 runs
// with span collection disabled at runtime (registry counters stay on;
// they always are), arg = 1 with in-memory span collection enabled.
// The delta bounds what the observability layer costs a production run
// that never sets DMT_TRACE.
void BM_KMeansObsOverhead(benchmark::State& state) {
  const auto& data = GridWorkload(kClusters, 1000);
  dmt::cluster::KMeansOptions options;
  options.k = kClusters;
  options.seed = 3;
  options.max_iterations = 20;
  dmt::bench::ScopedTraceCollection trace(state.range(0) != 0);
  for (auto _ : state) {
    auto result = dmt::cluster::KMeans(data.points, options);
    DMT_CHECK(result.ok());
    benchmark::DoNotOptimize(result);
  }
  state.counters["tracing"] = static_cast<double>(state.range(0));
  state.counters["points"] = static_cast<double>(data.points.size());
}

void BM_Birch(benchmark::State& state) {
  const auto& data =
      GridWorkload(kClusters, static_cast<size_t>(state.range(0)));
  dmt::cluster::BirchOptions options;
  options.global_clusters = kClusters;
  options.threshold = 1.5;
  options.max_leaf_entries_total = 4096;
  options.seed = 3;
  for (auto _ : state) {
    auto result = dmt::cluster::Birch(data.points, options);
    DMT_CHECK(result.ok());
    benchmark::DoNotOptimize(result);
  }
  state.counters["points"] =
      static_cast<double>(data.points.size());
}

void KMeansSizes(benchmark::internal::Benchmark* bench) {
  // points per cluster: total = 100 * arg; second arg = worker threads
  // (0 = serial) so the scale-up figure gains a speedup column; third
  // arg = assignment engine, ablated on the largest size.
  for (int64_t per_cluster : {100, 200, 500, 1000, 2000}) {
    bench->Args({per_cluster, 0, 0});
  }
  for (int64_t threads : {2, 4}) {
    bench->Args({2000, threads, 0});
  }
  bench->Args({2000, 0, 1});
  bench->Unit(benchmark::kMillisecond)->Iterations(1);
}

void PruningSweep(benchmark::internal::Benchmark* bench) {
  for (int64_t assignment : {0, 1}) {
    bench->Args({0, assignment});
  }
  // Pruning composes with threading: the bound arrays are chunked
  // through the same deterministic parallel contract.
  bench->Args({4, 1});
  bench->Unit(benchmark::kMillisecond)->Iterations(1);
}

void BirchSizes(benchmark::internal::Benchmark* bench) {
  for (int64_t per_cluster : {100, 200, 500, 1000, 2000}) {
    bench->Arg(per_cluster);
  }
  bench->Unit(benchmark::kMillisecond)->Iterations(1);
}

BENCHMARK(BM_KMeans)->Apply(KMeansSizes);
BENCHMARK(BM_KMeansPruning)->Apply(PruningSweep);
BENCHMARK(BM_KMeansObsOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);
BENCHMARK(BM_Birch)->Apply(BirchSizes);

}  // namespace

int main(int argc, char** argv) {
  return dmt::bench::BenchMain("cluster_scaleup", argc, argv);
}
