// Market-basket analysis on a synthetic IBM Quest workload: compares the
// four frequent-itemset miners, summarizes the pattern structure, and
// prints the strongest rules by lift.
//
//   $ ./build/examples/market_basket [num_transactions] [min_support]
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "assoc/apriori.h"
#include "assoc/eclat.h"
#include "assoc/fp_growth.h"
#include "assoc/postprocess.h"
#include "assoc/rules.h"
#include "core/timer.h"
#include "gen/quest.h"

int main(int argc, char** argv) {
  size_t num_transactions = argc > 1 ? std::strtoul(argv[1], nullptr, 10)
                                     : 20000;
  double min_support = argc > 2 ? std::strtod(argv[2], nullptr) : 0.01;

  dmt::gen::QuestParams workload;
  workload.num_transactions = num_transactions;
  workload.avg_transaction_size = 10.0;
  workload.avg_pattern_size = 4.0;
  workload.num_items = 1000;
  workload.num_patterns = 2000;
  auto db = dmt::gen::GenerateQuestTransactions(workload, /*seed=*/42);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  std::printf("workload %s: %zu transactions, avg length %.2f, %zu items\n",
              workload.Name().c_str(), db->size(), db->average_length(),
              db->item_universe());

  dmt::assoc::MiningParams params;
  params.min_support = min_support;

  struct Entry {
    const char* name;
    dmt::core::Result<dmt::assoc::MiningResult> (*run)(
        const dmt::core::TransactionDatabase&,
        const dmt::assoc::MiningParams&);
  };
  auto run_eclat = [](const dmt::core::TransactionDatabase& database,
                      const dmt::assoc::MiningParams& mining_params) {
    return dmt::assoc::MineEclat(database, mining_params,
                                 dmt::assoc::EclatOptions{});
  };
  const Entry miners[] = {{"Apriori", dmt::assoc::MineApriori},
                          {"AprioriTid", dmt::assoc::MineAprioriTid},
                          {"FP-Growth", dmt::assoc::MineFpGrowth},
                          {"Eclat", run_eclat}};

  dmt::assoc::MiningResult reference;
  std::printf("\n%-12s %10s %12s\n", "miner", "itemsets", "time (ms)");
  for (const Entry& miner : miners) {
    dmt::core::WallTimer timer;
    auto result = miner.run(*db, params);
    if (!result.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", miner.name,
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("%-12s %10zu %12.1f\n", miner.name,
                result->itemsets.size(), timer.ElapsedMillis());
    reference = std::move(result).value();
  }

  auto maximal = dmt::assoc::FilterMaximal(reference.itemsets);
  auto closed = dmt::assoc::FilterClosed(reference.itemsets);
  std::printf("\npattern structure: %zu frequent, %zu closed, %zu maximal\n",
              reference.itemsets.size(), closed.size(), maximal.size());
  std::printf("per-pass census (k: candidates -> frequent):\n");
  for (const auto& pass : reference.passes) {
    std::printf("  %zu: %zu -> %zu\n", pass.pass, pass.candidates,
                pass.frequent);
  }

  dmt::assoc::RuleParams rule_params;
  rule_params.min_confidence = 0.6;
  rule_params.min_lift = 1.0;
  auto rules = dmt::assoc::GenerateRules(reference, db->size(), rule_params);
  if (!rules.ok()) {
    std::fprintf(stderr, "%s\n", rules.status().ToString().c_str());
    return 1;
  }
  std::printf("\n%zu rules at confidence >= %.2f; top 10 by lift:\n",
              rules->size(), rule_params.min_confidence);
  std::stable_sort(rules->begin(), rules->end(),
                   [](const dmt::assoc::AssociationRule& a,
                      const dmt::assoc::AssociationRule& b) {
                     return a.lift > b.lift;
                   });
  for (size_t i = 0; i < rules->size() && i < 10; ++i) {
    std::printf("  %s\n", dmt::assoc::FormatRule((*rules)[i]).c_str());
  }
  return 0;
}
