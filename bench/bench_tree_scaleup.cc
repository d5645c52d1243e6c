// FIG-C2 (TKDE'93 scale-up): tree-induction time vs training-set size
// (1K to 100K records of Agrawal F2) for the presorted greedy builder
// (C4.5 and CART presets) and SLIQ, plus the threaded split search.
//
// Expected shape: the greedy builder sorts every numeric attribute once
// and partitions the sorted orders down the tree, so each level costs a
// linear sweep; SLIQ (EDBT'96) applies the same presorting breadth-first
// with a class list. Thread rows measure the deterministic chunk-parallel
// split search (bit-identical trees at any thread count).
//
// Each case reports `split_scan_rows` — (row, attribute) visits during
// candidate-split evaluation — which is invariant across thread counts.
#include <benchmark/benchmark.h>

#include "bench_main.h"
#include "bench_util.h"
#include "tree/builder.h"
#include "tree/sliq.h"

namespace {

using dmt::bench::AgrawalWorkload;

/// Runs BuildTree on Agrawal F2 with state.range(0) records and
/// state.range(1) worker threads, exporting the shared counters.
void RunGreedy(benchmark::State& state, dmt::tree::TreeOptions options) {
  const auto& data =
      AgrawalWorkload(2, static_cast<size_t>(state.range(0)));
  options.num_threads = static_cast<size_t>(state.range(1));
  dmt::tree::TreeBuildStats stats;
  for (auto _ : state) {
    auto tree = dmt::tree::BuildTree(data, options, &stats);
    DMT_CHECK(tree.ok());
    benchmark::DoNotOptimize(tree);
  }
  state.counters["records"] = static_cast<double>(state.range(0));
  state.counters["threads"] = static_cast<double>(state.range(1));
  state.counters["split_scan_rows"] =
      static_cast<double>(stats.split_scan_rows);
}

void BM_C45(benchmark::State& state) {
  dmt::tree::TreeOptions options;  // C4.5 defaults: gain ratio, multiway.
  RunGreedy(state, options);
}

void BM_Cart(benchmark::State& state) {
  dmt::tree::TreeOptions options;
  options.criterion = dmt::tree::SplitCriterion::kGini;
  options.categorical_style = dmt::tree::CategoricalSplitStyle::kBinary;
  RunGreedy(state, options);
}

void BM_Sliq(benchmark::State& state) {
  const auto& data =
      AgrawalWorkload(2, static_cast<size_t>(state.range(0)));
  dmt::tree::SliqOptions options;
  options.num_threads = static_cast<size_t>(state.range(1));
  dmt::tree::TreeBuildStats stats;
  for (auto _ : state) {
    auto tree = dmt::tree::BuildSliq(data, options, &stats);
    DMT_CHECK(tree.ok());
    benchmark::DoNotOptimize(tree);
  }
  state.counters["records"] = static_cast<double>(state.range(0));
  state.counters["threads"] = static_cast<double>(state.range(1));
  state.counters["split_scan_rows"] =
      static_cast<double>(stats.split_scan_rows);
}

/// Serial scale-up sweep: {records, 0 threads}.
void Sizes(benchmark::internal::Benchmark* bench) {
  for (int64_t n : {1000, 2000, 5000, 10000, 20000, 50000, 100000}) {
    bench->Args({n, 0});
  }
  bench->Unit(benchmark::kMillisecond)->Iterations(1);
}

/// Thread sweep at the largest size (deterministic-merge overhead row).
void Threads(benchmark::internal::Benchmark* bench) {
  for (int64_t threads : {2, 4}) bench->Args({100000, threads});
  bench->Unit(benchmark::kMillisecond)->Iterations(1);
}

BENCHMARK(BM_C45)->Apply(Sizes)->Apply(Threads);
BENCHMARK(BM_Cart)->Apply(Sizes)->Apply(Threads);
BENCHMARK(BM_Sliq)->Apply(Sizes)->Apply(Threads);

}  // namespace

int main(int argc, char** argv) {
  return dmt::bench::BenchMain("tree_scaleup", argc, argv);
}
