#include "assoc/rules.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <compare>
#include <cstdint>
#include <span>

#include "core/string_util.h"

namespace dmt::assoc {

using core::Result;
using core::Status;

Status RuleParams::Validate() const {
  if (std::isnan(min_confidence) || std::isnan(min_lift)) {
    return Status::InvalidArgument(
        "rule thresholds must not be NaN (NaN passes every comparison "
        "and silently disables the filter)");
  }
  if (!(min_confidence > 0.0) || min_confidence > 1.0) {
    return Status::InvalidArgument("min_confidence must be in (0, 1]");
  }
  if (min_lift < 0.0) {
    return Status::InvalidArgument("min_lift must be >= 0");
  }
  return Status::OK();
}

namespace {

using core::ItemId;
using Items = std::span<const ItemId>;

double Conviction(double consequent_support_fraction, double confidence) {
  double denominator = 1.0 - confidence;
  if (denominator <= 1e-12) return 1e12;
  return (1.0 - consequent_support_fraction) / denominator;
}

std::string FormatItems(Items items, const core::ItemDictionary* dictionary) {
  std::string out = "{";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    if (dictionary != nullptr) {
      out += dictionary->Name(items[i]);
    } else {
      out += std::to_string(items[i]);
    }
  }
  out += "}";
  return out;
}

/// Open-addressing index over a mining result's itemsets, probed by item
/// span: no key is copied to build it or to look one up. Each slot packs
/// a 32-bit hash tag over (itemset index + 1); 0 marks an empty slot. At
/// most half the slots are used, so a probe ends after about two slots.
class ItemsetIndex {
 public:
  /// Indexes `itemsets`, which must outlive the index. A second entry for
  /// one itemset is an InvalidArgument naming it: its rules would come out
  /// twice, with contradictory measures.
  static Result<ItemsetIndex> Build(
      const std::vector<FrequentItemset>& itemsets) {
    if (itemsets.size() >= UINT32_MAX) {
      return Status::InvalidArgument("too many itemsets to index");
    }
    ItemsetIndex index(itemsets);
    for (size_t i = 0; i < itemsets.size(); ++i) {
      const Items items = itemsets[i].items;
      const uint64_t hash = Hash(items);
      for (size_t s = hash >> index.shift_;; s = (s + 1) & index.mask_) {
        uint64_t& slot = index.slots_[s];
        if (slot == 0) {
          slot = (hash << 32) | (i + 1);
          break;
        }
        if (const FrequentItemset* twin = index.Match(slot, hash, items)) {
          return Status::InvalidArgument(core::StrFormat(
              "itemset %s appears twice in the mining result (supports %u "
              "and %u); rule generation needs each itemset once",
              FormatItems(items, nullptr).c_str(), twin->support,
              itemsets[i].support));
        }
      }
    }
    return index;
  }

  /// The entry whose items equal `items`, or null.
  const FrequentItemset* Find(Items items) const {
    const uint64_t hash = Hash(items);
    for (size_t s = hash >> shift_;; s = (s + 1) & mask_) {
      const uint64_t slot = slots_[s];
      if (slot == 0) return nullptr;
      if (const FrequentItemset* entry = Match(slot, hash, items)) {
        return entry;
      }
    }
  }

 private:
  explicit ItemsetIndex(const std::vector<FrequentItemset>& itemsets)
      : itemsets_(&itemsets) {
    const size_t capacity =
        std::bit_ceil(std::max<size_t>(16, 2 * itemsets.size()));
    slots_.assign(capacity, 0);
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
  }

  /// FNV-1a over the items, then a Fibonacci multiply so the top bits
  /// (the slot) depend on every item.
  static uint64_t Hash(Items items) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (ItemId item : items) {
      h ^= item;
      h *= 0x100000001b3ULL;
    }
    return h * 0x9E3779B97F4A7C15ULL;
  }

  const FrequentItemset* Match(uint64_t slot, uint64_t hash,
                               Items items) const {
    if ((slot >> 32) != (hash & 0xFFFFFFFFu)) return nullptr;
    const FrequentItemset& entry = (*itemsets_)[(slot & 0xFFFFFFFFu) - 1];
    return std::ranges::equal(entry.items, items) ? &entry : nullptr;
  }

  const std::vector<FrequentItemset>* itemsets_;
  std::vector<uint64_t> slots_;
  size_t mask_ = 0;
  int shift_ = 0;
};

/// A rule that passed both thresholds. Its antecedent and then its
/// consequent sit at `items` in the generator's item buffer.
struct RuleRecord {
  double confidence;
  double lift;
  double support;
  double conviction;
  double leverage;
  uint64_t items;
  uint32_t support_count;
  uint32_t antecedent_size;
  uint32_t consequent_size;
};

/// `layer` holds equal-length consequents of `width` items each, in
/// lexicographic order; true when `key` is one of them.
bool LayerHolds(const std::vector<ItemId>& layer, size_t width,
                const ItemId* key) {
  size_t lo = 0;
  size_t hi = layer.size() / width;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const ItemId* row = layer.data() + mid * width;
    const auto order = std::lexicographical_compare_three_way(
        row, row + width, key, key + width);
    if (order == 0) return true;
    if (order < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return false;
}

/// ap-genrules over one itemset at a time. Every buffer is reused from
/// one itemset to the next, and a passing rule costs one record and its
/// items appended to one buffer; AssociationRule objects are built only
/// once the records are in final order.
class RuleGenerator {
 public:
  RuleGenerator(const ItemsetIndex& index, const RuleParams& params,
                double num_transactions)
      : index_(index), params_(params), n_(num_transactions) {}

  /// Emits the rules of `itemset`. Consequents grow apriori-style: the
  /// one-item consequents that pass the confidence bar form the first
  /// layer, and each layer's (m+1)-item candidates are the joins of two
  /// passing m-item consequents that share their first m-1 items, kept
  /// only if every m-item subset passed too (confidence is
  /// anti-monotone in the consequent).
  Status AddRulesOf(const FrequentItemset& itemset) {
    const Items items = itemset.items;
    layer_.clear();
    for (const ItemId& item : items) {
      DMT_ASSIGN_OR_RETURN(const bool passed,
                           EmitIfPassing(itemset, Items(&item, 1)));
      if (passed) layer_.push_back(item);
    }
    for (size_t m = 1; !layer_.empty() && m + 1 < items.size(); ++m) {
      const size_t count = layer_.size() / m;
      next_layer_.clear();
      candidate_.resize(m + 1);
      subset_.resize(m);
      for (size_t i = 0; i < count; ++i) {
        const ItemId* a = layer_.data() + i * m;
        for (size_t j = i + 1; j < count; ++j) {
          const ItemId* b = layer_.data() + j * m;
          // Lexicographic order puts every partner that shares a's first
          // m-1 items right after it.
          if (!std::equal(a, a + m - 1, b)) break;
          std::copy(a, a + m, candidate_.begin());
          candidate_[m] = b[m - 1];
          if (!SubsetsInLayer(m)) continue;
          DMT_ASSIGN_OR_RETURN(const bool passed,
                               EmitIfPassing(itemset, candidate_));
          if (passed) {
            next_layer_.insert(next_layer_.end(), candidate_.begin(),
                               candidate_.end());
          }
        }
      }
      std::swap(layer_, next_layer_);
    }
    return Status::OK();
  }

  /// The rules by descending confidence, then descending lift, then
  /// antecedent and consequent in lexicographic order.
  std::vector<AssociationRule> TakeSorted() {
    const ItemId* buffer = items_.data();
    std::sort(records_.begin(), records_.end(),
              [buffer](const RuleRecord& a, const RuleRecord& b) {
                if (a.confidence != b.confidence) {
                  return a.confidence > b.confidence;
                }
                if (a.lift != b.lift) return a.lift > b.lift;
                const ItemId* a_items = buffer + a.items;
                const ItemId* b_items = buffer + b.items;
                const auto order = std::lexicographical_compare_three_way(
                    a_items, a_items + a.antecedent_size, b_items,
                    b_items + b.antecedent_size);
                if (order != 0) return order < 0;
                return std::lexicographical_compare(
                    a_items + a.antecedent_size,
                    a_items + a.antecedent_size + a.consequent_size,
                    b_items + b.antecedent_size,
                    b_items + b.antecedent_size + b.consequent_size);
              });
    std::vector<AssociationRule> rules;
    rules.reserve(records_.size());
    for (const RuleRecord& record : records_) {
      const ItemId* antecedent = buffer + record.items;
      const ItemId* consequent = antecedent + record.antecedent_size;
      rules.push_back({Itemset(antecedent, consequent),
                       Itemset(consequent, consequent + record.consequent_size),
                       record.support_count, record.support, record.confidence,
                       record.lift, record.conviction, record.leverage});
    }
    return rules;
  }

 private:
  /// Prune: the candidate's m-item subsets without its last or
  /// second-to-last item are the joined pair; every other one must be in
  /// the layer. It changes no output (a candidate with a failed subset
  /// fails the confidence bar itself); it saves that candidate's lookups.
  bool SubsetsInLayer(size_t m) {
    for (size_t drop = 0; drop + 1 < m; ++drop) {
      std::copy(candidate_.begin(), candidate_.begin() + drop,
                subset_.begin());
      std::copy(candidate_.begin() + drop + 1, candidate_.end(),
                subset_.begin() + drop);
      if (!LayerHolds(layer_, m, subset_.data())) return false;
    }
    return true;
  }

  /// Support of `subset` ⊂ `itemset`. A mining result loaded from a file
  /// or built by hand need not be downward closed, and confidence and lift
  /// divide by this support, so a missing or zero entry is an
  /// InvalidArgument naming both itemsets.
  Result<uint32_t> SubsetSupport(const FrequentItemset& itemset,
                                 Items subset) const {
    const FrequentItemset* entry = index_.Find(subset);
    if (entry != nullptr && entry->support != 0) return entry->support;
    return Status::InvalidArgument(core::StrFormat(
        "itemset %s (support %u) has %s subset %s; rule generation needs a "
        "downward-closed mining result",
        FormatItems(itemset.items, nullptr).c_str(), itemset.support,
        entry == nullptr ? "no entry for its" : "a zero-support",
        FormatItems(subset, nullptr).c_str()));
  }

  /// The one rule-emission path for every layer, so the measure
  /// definitions and the accept-lenient +1e-12 epsilon cannot drift
  /// between layers. Returns true when the consequent passes the
  /// confidence bar and so stays in the layer for growth; the lift filter
  /// gates emission only, never growth, because lift is not anti-monotone
  /// in the consequent.
  Result<bool> EmitIfPassing(const FrequentItemset& itemset,
                             Items consequent) {
    antecedent_.clear();
    std::set_difference(itemset.items.begin(), itemset.items.end(),
                        consequent.begin(), consequent.end(),
                        std::back_inserter(antecedent_));
    DMT_ASSIGN_OR_RETURN(const uint32_t antecedent_support,
                         SubsetSupport(itemset, antecedent_));
    const double confidence = static_cast<double>(itemset.support) /
                              static_cast<double>(antecedent_support);
    if (confidence + 1e-12 < params_.min_confidence) return false;
    DMT_ASSIGN_OR_RETURN(const uint32_t consequent_support,
                         SubsetSupport(itemset, consequent));
    const double consequent_fraction =
        static_cast<double>(consequent_support) / n_;
    const double lift = confidence / consequent_fraction;
    if (lift + 1e-12 >= params_.min_lift) {
      const double rule_support = static_cast<double>(itemset.support) / n_;
      const double antecedent_fraction =
          static_cast<double>(antecedent_support) / n_;
      records_.push_back(
          {confidence, lift, rule_support,
           Conviction(consequent_fraction, confidence),
           rule_support - antecedent_fraction * consequent_fraction,
           items_.size(), itemset.support,
           static_cast<uint32_t>(antecedent_.size()),
           static_cast<uint32_t>(consequent.size())});
      items_.insert(items_.end(), antecedent_.begin(), antecedent_.end());
      items_.insert(items_.end(), consequent.begin(), consequent.end());
    }
    return true;
  }

  const ItemsetIndex& index_;
  const RuleParams& params_;
  const double n_;
  /// The passing m-item consequents, `m` items per row, in lexicographic
  /// order, and the (m+1)-item layer being grown from them.
  std::vector<ItemId> layer_;
  std::vector<ItemId> next_layer_;
  std::vector<ItemId> candidate_;
  std::vector<ItemId> subset_;
  std::vector<ItemId> antecedent_;
  std::vector<RuleRecord> records_;
  /// Every passing rule's antecedent then consequent, back to back.
  std::vector<ItemId> items_;
};

}  // namespace

Result<std::vector<AssociationRule>> GenerateRules(
    const MiningResult& mining, size_t num_transactions,
    const RuleParams& params) {
  DMT_RETURN_NOT_OK(params.Validate());
  if (num_transactions == 0) {
    return Status::InvalidArgument("num_transactions must be > 0");
  }
  DMT_ASSIGN_OR_RETURN(const ItemsetIndex index,
                       ItemsetIndex::Build(mining.itemsets));
  RuleGenerator generator(index, params,
                          static_cast<double>(num_transactions));
  for (const FrequentItemset& itemset : mining.itemsets) {
    if (itemset.items.size() < 2) continue;
    DMT_RETURN_NOT_OK(generator.AddRulesOf(itemset));
  }
  return generator.TakeSorted();
}

std::string FormatRule(const AssociationRule& rule,
                       const core::ItemDictionary* dictionary) {
  // Conviction is serialized and round-tripped through DMTBIN01
  // containers like the other measures, so the human-readable form prints
  // it (and leverage) too; the 1e12 cap marks an exact rule, rendered as
  // "inf" rather than a misleading finite number.
  std::string conviction = rule.conviction >= 1e12
                               ? "inf"
                               : core::StrFormat("%.2f", rule.conviction);
  return core::StrFormat(
      "%s => %s (supp=%.4f, conf=%.3f, lift=%.2f, conv=%s, lev=%.4f)",
      FormatItems(rule.antecedent, dictionary).c_str(),
      FormatItems(rule.consequent, dictionary).c_str(), rule.support,
      rule.confidence, rule.lift, conviction.c_str(), rule.leverage);
}

}  // namespace dmt::assoc
