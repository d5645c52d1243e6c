// TAB-A4 (VLDB'94-style itemset census) plus Apriori's hash-tree counting
// time.
//
// Prints the per-pass candidate/frequent table on T10.I4.D10K at 0.5%
// support — expected shape: candidates peak at pass 2, the downward-
// closure prune collapses later passes, and the census is identical for
// Apriori and FP-Growth (same frequent collection). The timed section
// runs Apriori, whose passes count through the hash tree, on short-,
// medium- and long-transaction workloads.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "assoc/apriori.h"
#include "assoc/fp_growth.h"
#include "bench_main.h"
#include "bench_util.h"

namespace {

using dmt::bench::QuestWorkload;

dmt::assoc::MiningParams Params() {
  dmt::assoc::MiningParams params;
  params.min_support = 0.005;
  return params;
}

void PrintCensus() {
  const auto& db = QuestWorkload(10, 4, 10000);
  auto apriori = dmt::assoc::MineApriori(db, Params());
  auto fp = dmt::assoc::MineFpGrowth(db, Params());
  DMT_CHECK(apriori.ok());
  DMT_CHECK(fp.ok());
  std::printf("# TAB-A4: itemset census, T10.I4.D10K @ 0.5%% support\n");
  std::printf("# pass, apriori_candidates, apriori_frequent, fp_frequent\n");
  for (size_t p = 0; p < apriori->passes.size(); ++p) {
    size_t fp_frequent =
        p < fp->passes.size() ? fp->passes[p].frequent : 0;
    std::printf("census,%zu,%zu,%zu,%zu\n", apriori->passes[p].pass,
                apriori->passes[p].candidates, apriori->passes[p].frequent,
                fp_frequent);
  }
  DMT_CHECK(apriori->itemsets == fp->itemsets);
  std::printf("# total frequent itemsets: %zu (miners agree)\n\n",
              apriori->itemsets.size());
}

// The counting cells run at 1% support on T5, T10 and T15.
dmt::assoc::MiningParams CountingParams() {
  dmt::assoc::MiningParams params;
  params.min_support = 0.01;
  return params;
}

void BM_AprioriHashTree(benchmark::State& state) {
  const auto& db =
      QuestWorkload(static_cast<double>(state.range(0)), 4, 10000);
  for (auto _ : state) {
    auto result = dmt::assoc::MineApriori(db, CountingParams());
    DMT_CHECK(result.ok());
    benchmark::DoNotOptimize(result);
  }
}

BENCHMARK(BM_AprioriHashTree)
    ->Arg(5)
    ->Arg(10)
    ->Arg(15)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  return dmt::bench::BenchMain("assoc_census", argc, argv, PrintCensus);
}
