// Mining path: container(s) on disk -> FP-growth -> rules -> rule file.
//
// gen-mine generates the Quest database from the seed, writes it as basket
// text (the input dmt_pack packs or partitions during set-up), and
// computes the reference rule set by another path: a serial in-memory
// Eclat mine of the generated database, never touching a container.
//
// mine runs timed ops in a process that holds none of the generated data:
// each op is LoadTransactionDatabase -> MineFpGrowth -> GenerateRules ->
// WriteRuleSet (mode memory), or MineFpGrowthDiskProjected over partition
// files -> GenerateRules -> WriteRuleSet (mode ooc). After the clock stops,
// the op's rule file is reloaded and digested for the oracle.
#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "assoc/eclat.h"
#include "assoc/fp_growth.h"
#include "assoc/out_of_core.h"
#include "assoc/rules.h"
#include "common.h"
#include "core/mmap_file.h"
#include "core/rng.h"
#include "core/string_util.h"
#include "gen/quest.h"
#include "io/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pb {
namespace {

using dmt::assoc::AssociationRule;
using dmt::assoc::MiningParams;
using dmt::assoc::MiningResult;
using dmt::assoc::RuleParams;

double SinkNowUs() {
  return dmt::obs::TraceSink::Global().EpochSeconds() * 1e6;
}

/// Work counts and layer-internal readings of one op.
struct OpOutcome {
  size_t itemsets = 0;
  size_t rules = 0;
  uint64_t cond_trees = 0;
  uint64_t fp_nodes = 0;
};

/// One op over the public entry points. `spans` is null when untraced.
OpOutcome RunOp(const Flags& flags, const std::vector<std::string>& inputs,
                SpanLog* spans, uint64_t op) {
  const bool ooc = flags.Str("mode") == "ooc";
  MiningParams params;
  params.min_support = flags.Num("support");
  params.num_threads = flags.Uint("threads");
  RuleParams rule_params;
  rule_params.min_confidence = flags.Num("confidence");

  ScopedSpan op_span(spans, "op", -1, op);
  const int64_t root = op_span.index();
  OpOutcome outcome;
  MiningResult mined;
  size_t num_transactions = 0;
  if (ooc) {
    num_transactions = flags.Uint("transactions");
    ScopedSpan span(spans, "assoc.mine", root, op);
    mined = OrDie(dmt::assoc::MineFpGrowthDiskProjected(
                      std::span<const std::string>(inputs), params),
                  "MineFpGrowthDiskProjected");
  } else {
    dmt::core::TransactionDatabase db;
    {
      ScopedSpan span(spans, "io.load", root, op);
      db = OrDie(dmt::io::LoadTransactionDatabase(inputs.at(0)),
                 "LoadTransactionDatabase");
    }
    num_transactions = db.size();
    ScopedSpan span(spans, "assoc.mine", root, op);
    mined = OrDie(dmt::assoc::MineFpGrowth(db, params), "MineFpGrowth");
  }
  outcome.itemsets = mined.itemsets.size();
  outcome.cond_trees = mined.conditional_trees_built;
  outcome.fp_nodes = mined.fp_nodes_allocated;
  std::vector<AssociationRule> rules;
  {
    ScopedSpan span(spans, "assoc.rules", root, op);
    rules = OrDie(
        dmt::assoc::GenerateRules(mined, num_transactions, rule_params),
        "GenerateRules");
  }
  outcome.rules = rules.size();
  {
    ScopedSpan span(spans, "io.write", root, op);
    OrDie(dmt::io::WriteRuleSet(rules, flags.Str("out")), "WriteRuleSet");
  }
  return outcome;
}

}  // namespace

void OrDie(const dmt::core::Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

dmt::core::TransactionDatabase LoadQuestBase(const Flags& flags) {
  const std::string base_path = flags.Str("base");
  if (!dmt::core::MappedFile::Open(base_path).ok()) {
    const dmt::core::TransactionDatabase base = OrDie(
        dmt::gen::GenerateQuestTransactions(QuestBaseParams(flags),
                                            flags.Uint("base-seed")),
        "GenerateQuestTransactions");
    OrDie(dmt::io::WriteTransactionDatabase(base, base_path),
          "write base database");
  }
  return OrDie(dmt::io::LoadTransactionDatabase(base_path),
               "load base database");
}

dmt::gen::QuestParams QuestBaseParams(const Flags& flags) {
  dmt::gen::QuestParams quest;
  quest.num_transactions = flags.Uint("base-transactions");
  quest.avg_transaction_size = flags.Num("tlen");
  quest.avg_pattern_size = flags.Num("ilen");
  quest.num_items = flags.Uint("items");
  quest.num_patterns = flags.Uint("patterns");
  return quest;
}

dmt::core::TransactionDatabase DrawTransactions(
    const dmt::core::TransactionDatabase& base, size_t n, uint64_t seed) {
  if (n > base.size()) Die("sample larger than the base database");
  dmt::core::Rng rng(seed);
  std::vector<size_t> picks = rng.SampleWithoutReplacement(base.size(), n);
  std::sort(picks.begin(), picks.end());
  dmt::core::TransactionDatabase db;
  for (size_t t : picks) db.Add(base.transaction(t));
  return db;
}

int GenMine(const Flags& flags) {
  const double t0 = NowUs();
  const dmt::core::TransactionDatabase db = DrawTransactions(
      LoadQuestBase(flags), flags.Uint("transactions"), flags.Uint("seed"));
  const std::string text = db.ToBasketText();
  OrDie(dmt::core::WriteFileBytes(
            flags.Str("out"),
            std::as_bytes(std::span<const char>(text.data(), text.size()))),
        "write baskets");
  const double t1 = NowUs();
  dmt::gen::QuestParams quest = QuestBaseParams(flags);
  quest.num_transactions = db.size();  // names the drawn sample

  MiningParams params;
  params.min_support = flags.Num("support");
  dmt::assoc::EclatOptions eclat;
  eclat.representation = dmt::assoc::EclatOptions::TidsetRepr::kBitsets;
  const MiningResult mined =
      OrDie(dmt::assoc::MineEclat(db, params, eclat), "MineEclat");
  RuleParams rule_params;
  rule_params.min_confidence = flags.Num("confidence");
  const std::vector<AssociationRule> rules = OrDie(
      dmt::assoc::GenerateRules(mined, db.size(), rule_params),
      "GenerateRules");
  std::printf(
      "{\"workload\": \"%s\", \"transactions\": %zu, \"items\": %zu, "
      "\"itemsets\": %zu, \"rules\": %zu, \"digest\": \"%s\", "
      "\"gen_s\": %.3f, \"reference_s\": %.3f}\n",
      quest.Name().c_str(), db.size(), db.total_items(),
      mined.itemsets.size(), rules.size(),
      Hex64(RuleSetDigest(rules)).c_str(), (t1 - t0) * 1e-6,
      (NowUs() - t1) * 1e-6);
  return 0;
}

int MineOps(const Flags& flags) {
  const std::vector<std::string> inputs =
      dmt::core::Split(flags.Str("inputs"), ',');
  const bool trace = flags.Uint("trace") != 0;
  const uint64_t warmup = flags.Uint("warmup");
  const uint64_t min_ops = flags.Uint("min-ops");
  const double seconds = flags.Num("seconds");
  const std::string out = flags.Str("out");

  dmt::obs::TraceSink& sink = dmt::obs::TraceSink::Global();
  SpanLog spans(&SinkNowUs);
  if (trace) {
    sink.Start(flags.Str("trace-out"));
    sink.set_enabled(false);
  }
  dmt::obs::Counter bytes_written("io/bytes_written");
  dmt::obs::Counter bytes_mapped("io/bytes_mapped");

  double measured_s = 0.0;
  uint64_t measured_ops = 0;
  for (uint64_t op = 0;; ++op) {
    const bool warm = op < warmup;
    // Traced runs alternate traced and untraced ops, so the tracing
    // overhead is measured inside one process on the same inputs.
    const bool traced = trace && !warm && (op - warmup) % 2 == 1;
    const uint64_t written0 = bytes_written.value();
    const uint64_t mapped0 = bytes_mapped.value();
    sink.set_enabled(traced);
    const double wall0 = NowUs();
    const double cpu0 = ProcessCpuSeconds();
    const OpOutcome outcome = RunOp(flags, inputs, traced ? &spans : nullptr,
                                    op);
    const double cpu_s = ProcessCpuSeconds() - cpu0;
    const double wall_s = (NowUs() - wall0) * 1e-6;
    sink.set_enabled(false);
    const uint64_t written = bytes_written.value() - written0;
    const uint64_t mapped = bytes_mapped.value() - mapped0;

    // Oracle input, off the clock: reload what the op wrote.
    const std::vector<AssociationRule> reloaded =
        OrDie(dmt::io::LoadRuleSet(out), "LoadRuleSet");
    std::printf(
        "{\"op\": %llu, \"warm\": %s, \"traced\": %s, \"wall_s\": %.6f, "
        "\"cpu_s\": %.6f, \"itemsets\": %zu, \"rules\": %zu, "
        "\"cond_trees\": %llu, \"fp_nodes\": %llu, \"bytes_written\": %llu, "
        "\"bytes_mapped\": %llu, \"reloaded_rules\": %zu, "
        "\"digest\": \"%s\"}\n",
        static_cast<unsigned long long>(op), warm ? "true" : "false",
        traced ? "true" : "false", wall_s, cpu_s, outcome.itemsets,
        outcome.rules, static_cast<unsigned long long>(outcome.cond_trees),
        static_cast<unsigned long long>(outcome.fp_nodes),
        static_cast<unsigned long long>(written),
        static_cast<unsigned long long>(mapped), reloaded.size(),
        Hex64(RuleSetDigest(reloaded)).c_str());
    std::fflush(stdout);
    if (warm) continue;
    measured_s += wall_s;
    ++measured_ops;
    if (measured_s >= seconds && measured_ops >= min_ops) break;
  }
  if (trace) {
    sink.Stop();  // writes the program's own spans to --trace-out
    if (!spans.WriteJson(flags.Str("spans-out"), sink.ThreadId())) {
      Die("cannot write " + flags.Str("spans-out"));
    }
  }
  std::printf("{\"peak_rss_kb\": %llu}\n",
              static_cast<unsigned long long>(ProcStatusKb(0, "VmHWM")));
  return 0;
}

}  // namespace pb
