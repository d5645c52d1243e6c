// FIG-C3 (pruning ablation, design choice 3): tree size and hold-out
// accuracy across the pruning spectrum on noisy Agrawal F2 data —
// pessimistic pruning at several confidence factors vs cost-complexity
// pruning along its alpha path.
//
// Expected shape: unpruned trees overfit the 15% label noise (hundreds of
// leaves, depressed test accuracy); both pruners shrink the tree by an
// order of magnitude while raising test accuracy; over-pruning (huge
// alpha / tiny CF) eventually costs accuracy again.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_main.h"
#include "eval/cross_validation.h"
#include "eval/metrics.h"
#include "gen/agrawal.h"
#include "tree/builder.h"
#include "tree/pruning.h"

namespace {

using dmt::core::Dataset;

struct Fixture {
  Dataset train;
  Dataset test;
  std::vector<uint32_t> truth;
  dmt::tree::DecisionTree c45;
  dmt::tree::DecisionTree cart;
};

const Fixture& GetFixture() {
  static const Fixture fixture = [] {
    dmt::gen::AgrawalParams params;
    params.function = 2;
    params.num_records = 8000;
    params.label_noise = 0.15;
    auto data = dmt::gen::GenerateAgrawal(params, /*seed=*/77);
    DMT_CHECK(data.ok());
    auto split = dmt::eval::StratifiedTrainTestSplit(data->labels(), 0.3,
                                                     /*seed=*/5);
    DMT_CHECK(split.ok());
    Fixture out;
    dmt::eval::MaterializeSplit(*data, *split, &out.train, &out.test);
    out.truth.assign(out.test.labels().begin(), out.test.labels().end());
    auto c45 = dmt::tree::BuildC45(out.train);
    DMT_CHECK(c45.ok());
    out.c45 = std::move(c45).value();
    auto cart = dmt::tree::BuildCart(out.train);
    DMT_CHECK(cart.ok());
    out.cart = std::move(cart).value();
    return out;
  }();
  return fixture;
}

double AccuracyOf(const dmt::tree::DecisionTree& tree) {
  const Fixture& fixture = GetFixture();
  auto accuracy =
      dmt::eval::Accuracy(fixture.truth, tree.PredictAll(fixture.test));
  DMT_CHECK(accuracy.ok());
  return *accuracy;
}

void PrintSeries() {
  const Fixture& fixture = GetFixture();
  std::printf("# FIG-C3: pruning ablation on F2 with 15%% label noise\n");
  std::printf("# series, parameter, leaves, test_accuracy\n");
  std::printf("pessimistic,unpruned,%zu,%.4f\n", fixture.c45.NumLeaves(),
              AccuracyOf(fixture.c45));
  for (double cf : {0.5, 0.25, 0.1, 0.05, 0.01}) {
    auto tree = fixture.c45;
    dmt::tree::PessimisticPruneOptions options;
    options.confidence = cf;
    DMT_CHECK(dmt::tree::PessimisticPrune(&tree, options).ok());
    std::printf("pessimistic,cf=%.2f,%zu,%.4f\n", cf, tree.NumLeaves(),
                AccuracyOf(tree));
  }
  std::printf("cost_complexity,unpruned,%zu,%.4f\n",
              fixture.cart.NumLeaves(), AccuracyOf(fixture.cart));
  for (double alpha : {0.0001, 0.0005, 0.001, 0.005, 0.02}) {
    auto tree = fixture.cart;
    dmt::tree::CostComplexityPrune(&tree, alpha);
    std::printf("cost_complexity,alpha=%.4f,%zu,%.4f\n", alpha,
                tree.NumLeaves(), AccuracyOf(tree));
  }
  auto best_alpha =
      dmt::tree::SelectAlphaByValidation(fixture.cart, fixture.test);
  DMT_CHECK(best_alpha.ok());
  auto tree = fixture.cart;
  dmt::tree::CostComplexityPrune(&tree, *best_alpha);
  std::printf("cost_complexity,validated_alpha=%.5f,%zu,%.4f\n\n",
              *best_alpha, tree.NumLeaves(), AccuracyOf(tree));
}

/// Growth benchmark on the same noisy fixture (noise deepens the trees),
/// with Arg = worker threads for the presorted split search.
void BM_GrowC45Presorted(benchmark::State& state) {
  const Fixture& fixture = GetFixture();
  dmt::tree::TreeOptions options;
  options.num_threads = static_cast<size_t>(state.range(0));
  dmt::tree::TreeBuildStats stats;
  for (auto _ : state) {
    auto tree = dmt::tree::BuildTree(fixture.train, options, &stats);
    DMT_CHECK(tree.ok());
    benchmark::DoNotOptimize(tree);
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["split_scan_rows"] =
      static_cast<double>(stats.split_scan_rows);
}

void BM_PessimisticPrune(benchmark::State& state) {
  const Fixture& fixture = GetFixture();
  for (auto _ : state) {
    auto tree = fixture.c45;
    DMT_CHECK(dmt::tree::PessimisticPrune(&tree).ok());
    benchmark::DoNotOptimize(tree);
  }
}

void BM_CostComplexityPrune(benchmark::State& state) {
  const Fixture& fixture = GetFixture();
  for (auto _ : state) {
    auto tree = fixture.cart;
    dmt::tree::CostComplexityPrune(&tree, 0.0005);
    benchmark::DoNotOptimize(tree);
  }
}

BENCHMARK(BM_GrowC45Presorted)
    ->Arg(0)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PessimisticPrune)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CostComplexityPrune)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return dmt::bench::BenchMain("tree_pruning", argc, argv, PrintSeries);
}
