#include "seq/gsp.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "core/check.h"
#include "core/kernels/kernels.h"
#include "core/parallel.h"
#include "core/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmt::seq {

using core::ItemId;
using core::Result;
using core::Sequence;
using core::SequenceDatabase;
using core::Status;

core::Status SeqMiningParams::Validate() const {
  if (!(min_support > 0.0) || min_support > 1.0) {
    return Status::InvalidArgument("min_support must be in (0, 1]");
  }
  return Status::OK();
}

namespace {

/// Flattened key for hashing/ordering: items with a sentinel between
/// elements. The sentinel is larger than any valid item, so lexicographic
/// comparison of keys orders "element break" after "continue element".
constexpr uint32_t kElementBreak = 0xffffffffu;

std::vector<uint32_t> FlattenSequence(const Sequence& sequence) {
  std::vector<uint32_t> key;
  key.reserve(sequence.TotalItems() + sequence.size());
  for (size_t e = 0; e < sequence.elements.size(); ++e) {
    if (e > 0) key.push_back(kElementBreak);
    for (ItemId item : sequence.elements[e]) key.push_back(item);
  }
  return key;
}

struct KeyHash {
  size_t operator()(const std::vector<uint32_t>& key) const {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint32_t v : key) {
      h ^= v;
      h *= 0x100000001b3ULL;
    }
    return static_cast<size_t>(h);
  }
};

using SeqKeySet = std::unordered_set<std::vector<uint32_t>, KeyHash>;

/// Drops the item at flat position (element, offset); removes the element
/// when it empties.
Sequence DropItem(const Sequence& sequence, size_t element, size_t offset) {
  Sequence out = sequence;
  auto& target = out.elements[element];
  target.erase(target.begin() + static_cast<std::ptrdiff_t>(offset));
  if (target.empty()) {
    out.elements.erase(out.elements.begin() +
                       static_cast<std::ptrdiff_t>(element));
  }
  return out;
}

/// Drops the very first item.
Sequence DropFirst(const Sequence& sequence) {
  return DropItem(sequence, 0, 0);
}

/// Drops the very last item.
Sequence DropLast(const Sequence& sequence) {
  return DropItem(sequence, sequence.elements.size() - 1,
                  sequence.elements.back().size() - 1);
}

/// GSP join of frequent k-sequences into (k+1)-candidates: s1 and s2 join
/// when dropping s1's first item equals dropping s2's last item; the result
/// is s1 extended by s2's last item (new element iff it was alone in s2's
/// last element).
std::vector<Sequence> JoinPhase(const std::vector<SequencePattern>& layer) {
  std::vector<Sequence> candidates;
  std::unordered_map<std::vector<uint32_t>, std::vector<size_t>, KeyHash>
      by_drop_first;
  for (size_t i = 0; i < layer.size(); ++i) {
    by_drop_first[FlattenSequence(DropFirst(layer[i].sequence))].push_back(
        i);
  }
  SeqKeySet emitted;
  for (const auto& s2 : layer) {
    Sequence trimmed = DropLast(s2.sequence);
    auto it = by_drop_first.find(FlattenSequence(trimmed));
    if (it == by_drop_first.end()) continue;
    const ItemId new_item = s2.sequence.elements.back().back();
    const bool own_element = s2.sequence.elements.back().size() == 1;
    for (size_t i : it->second) {
      const Sequence& s1 = layer[i].sequence;
      Sequence candidate = s1;
      if (own_element) {
        candidate.elements.push_back({new_item});
      } else {
        auto& last = candidate.elements.back();
        // Items within an element are a sorted set; the new item must
        // extend it strictly (insert keeping order, reject duplicates).
        auto pos = std::lower_bound(last.begin(), last.end(), new_item);
        if (pos != last.end() && *pos == new_item) continue;
        last.insert(pos, new_item);
      }
      auto key = FlattenSequence(candidate);
      if (emitted.insert(std::move(key)).second) {
        candidates.push_back(std::move(candidate));
      }
    }
  }
  return candidates;
}

/// Special-cased join for k=1: every ordered pair <{x} {y}> plus every
/// unordered pair <{x, y}> with x < y.
std::vector<Sequence> JoinSingles(const std::vector<SequencePattern>& layer) {
  std::vector<Sequence> candidates;
  for (const auto& a : layer) {
    ItemId x = a.sequence.elements[0][0];
    for (const auto& b : layer) {
      ItemId y = b.sequence.elements[0][0];
      Sequence two_elements;
      two_elements.elements = {{x}, {y}};
      candidates.push_back(std::move(two_elements));
      if (x < y) {
        Sequence one_element;
        one_element.elements = {{x, y}};
        candidates.push_back(std::move(one_element));
      }
    }
  }
  return candidates;
}

/// Downward-closure prune: every subsequence obtained by dropping a single
/// item must be frequent.
bool SurvivesPrune(const Sequence& candidate, const SeqKeySet& frequent) {
  for (size_t e = 0; e < candidate.elements.size(); ++e) {
    for (size_t o = 0; o < candidate.elements[e].size(); ++o) {
      Sequence subsequence = DropItem(candidate, e, o);
      if (!frequent.contains(FlattenSequence(subsequence))) return false;
    }
  }
  return true;
}

/// Fast counting for pass 2: |C2| is quadratic in |L1|, so per-candidate
/// containment scans dominate the whole run. Instead, one pass per customer
/// records each item's first and last element positions, which decide every
/// ordered pair, and scans elements for unordered pairs.
void CountPass2(const SequenceDatabase& db,
                const std::vector<Sequence>& candidates,
                std::span<uint32_t> counts,
                const core::ParallelContext& ctx) {
  auto pair_key = [](ItemId x, ItemId y) {
    return (static_cast<uint64_t>(x) << 32) | y;
  };
  std::unordered_map<uint64_t, uint32_t> ordered_index;   // <{x} {y}>
  std::unordered_map<uint64_t, uint32_t> element_index;   // <{x, y}>
  for (uint32_t c = 0; c < candidates.size(); ++c) {
    const Sequence& candidate = candidates[c];
    if (candidate.elements.size() == 2) {
      ordered_index.emplace(
          pair_key(candidate.elements[0][0], candidate.elements[1][0]), c);
    } else {
      element_index.emplace(
          pair_key(candidate.elements[0][0], candidate.elements[0][1]), c);
    }
  }
  const size_t universe = db.item_universe();
  // The indexes above are shared read-only; every stamp/position scratch
  // array is chunk-local, so customers partition cleanly across chunks.
  core::CountPartitioned(
      ctx, db.size(), counts,
      [&](size_t chunk_begin, size_t chunk_end, std::span<uint32_t> local) {
        std::vector<uint32_t> first_seen(universe, 0),
            last_seen(universe, 0);
        std::vector<uint32_t> first_pos(universe, 0), last_pos(universe, 0);
        std::vector<uint32_t> element_stamp(candidates.size(), 0);
        std::vector<ItemId> present;
        uint32_t serial = 0;
        for (size_t cust = chunk_begin; cust < chunk_end; ++cust) {
          const Sequence& customer = db.sequence(cust);
          ++serial;
          present.clear();
          for (uint32_t e = 0; e < customer.elements.size(); ++e) {
            for (ItemId item : customer.elements[e]) {
              if (first_seen[item] != serial) {
                first_seen[item] = serial;
                first_pos[item] = e;
                present.push_back(item);
              }
              last_seen[item] = serial;
              last_pos[item] = e;
            }
          }
          // Ordered pairs: x strictly before y in element position.
          for (ItemId x : present) {
            for (ItemId y : present) {
              if (first_pos[x] < last_pos[y]) {
                auto it = ordered_index.find(pair_key(x, y));
                if (it != ordered_index.end()) ++local[it->second];
              }
            }
          }
          // Same-element pairs, deduplicated per customer.
          for (const auto& element : customer.elements) {
            for (size_t i = 0; i < element.size(); ++i) {
              for (size_t j = i + 1; j < element.size(); ++j) {
                auto it =
                    element_index.find(pair_key(element[i], element[j]));
                if (it != element_index.end() &&
                    element_stamp[it->second] != serial) {
                  element_stamp[it->second] = serial;
                  ++local[it->second];
                }
              }
            }
          }
        }
      });
}

void SortCanonicalSequences(std::vector<SequencePattern>* patterns) {
  std::sort(patterns->begin(), patterns->end(),
            [](const SequencePattern& a, const SequencePattern& b) {
              size_t an = a.sequence.TotalItems();
              size_t bn = b.sequence.TotalItems();
              if (an != bn) return an < bn;
              return FlattenSequence(a.sequence) <
                     FlattenSequence(b.sequence);
            });
}

}  // namespace

Result<SeqMiningResult> MineGsp(const SequenceDatabase& db,
                                const SeqMiningParams& params) {
  DMT_RETURN_NOT_OK(params.Validate());
  SeqMiningResult result;
  if (db.empty()) return result;
  const core::ParallelContext ctx(params.num_threads);
  const auto min_count = static_cast<uint32_t>(std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(
             params.min_support * static_cast<double>(db.size()) - 1e-9))));

  obs::Counter candidates_counter("seq/gsp/candidates");
  obs::Counter frequent_counter("seq/gsp/frequent");
  obs::Counter passes_counter("seq/gsp/passes");
  obs::Span mine_span("seq/gsp/mine");

  // Pass 1: frequent items (customer support: once per customer).
  std::vector<uint32_t> item_support(db.item_universe(), 0);
  std::vector<SequencePattern> layer;
  {
    obs::Span pass1_span("seq/gsp/pass1");
    std::unordered_set<ItemId> seen;
    for (size_t c = 0; c < db.size(); ++c) {
      seen.clear();
      for (const auto& element : db.sequence(c).elements) {
        for (ItemId item : element) seen.insert(item);
      }
      for (ItemId item : seen) ++item_support[item];
    }
    for (ItemId item = 0; item < item_support.size(); ++item) {
      if (item_support[item] >= min_count) {
        Sequence s;
        s.elements = {{item}};
        layer.push_back({std::move(s), item_support[item]});
      }
    }
  }
  result.passes.push_back({1, db.item_universe(), layer.size()});
  result.patterns = layer;

  // Per-customer item signatures, computed once: a candidate whose
  // signature is not a bitmask subset of the customer's cannot be
  // contained, so the counting loop skips the greedy element walk.
  std::vector<uint64_t> customer_sigs(db.size());
  for (size_t c = 0; c < db.size(); ++c) {
    customer_sigs[c] = db.sequence(c).ItemSignature();
  }

  for (size_t k = 2; !layer.empty(); ++k) {
    if (params.max_pattern_items != 0 && k > params.max_pattern_items) break;
    obs::Span pass_span("seq/gsp/pass");
    pass_span.AddArg("k", k);
    std::vector<Sequence> candidates;
    {
      obs::Span join_span("seq/gsp/pass/join");
      candidates = k == 2 ? JoinSingles(layer) : JoinPhase(layer);
      if (k > 2) {
        SeqKeySet frequent_keys;
        for (const auto& pattern : layer) {
          frequent_keys.insert(FlattenSequence(pattern.sequence));
        }
        std::vector<Sequence> pruned;
        pruned.reserve(candidates.size());
        for (auto& candidate : candidates) {
          if (SurvivesPrune(candidate, frequent_keys)) {
            pruned.push_back(std::move(candidate));
          }
        }
        candidates = std::move(pruned);
      }
    }
    if (candidates.empty()) {
      result.passes.push_back({k, 0, 0});
      break;
    }
    std::vector<uint32_t> counts(candidates.size(), 0);
    {
      obs::Span count_span("seq/gsp/pass/count");
      if (k == 2) {
        CountPass2(db, candidates, counts, ctx);
      } else {
        std::vector<uint64_t> cand_sigs(candidates.size());
        for (size_t cand = 0; cand < candidates.size(); ++cand) {
          cand_sigs[cand] = candidates[cand].ItemSignature();
        }
        core::CountPartitioned(
            ctx, db.size(), counts,
            [&](size_t chunk_begin, size_t chunk_end,
                std::span<uint32_t> local) {
              for (size_t c = chunk_begin; c < chunk_end; ++c) {
                const Sequence& customer = db.sequence(c);
                if (customer.TotalItems() < k) continue;
                const uint64_t customer_sig = customer_sigs[c];
                for (size_t cand = 0; cand < candidates.size(); ++cand) {
                  if (core::kernels::SignatureSubset(cand_sigs[cand],
                                                     customer_sig) &&
                      customer.Contains(candidates[cand])) {
                    ++local[cand];
                  }
                }
              }
            });
      }
    }
    std::vector<SequencePattern> next_layer;
    for (size_t cand = 0; cand < candidates.size(); ++cand) {
      if (counts[cand] >= min_count) {
        next_layer.push_back({std::move(candidates[cand]), counts[cand]});
      }
    }
    result.passes.push_back({k, candidates.size(), next_layer.size()});
    result.patterns.insert(result.patterns.end(), next_layer.begin(),
                           next_layer.end());
    layer = std::move(next_layer);
  }
  // Publish the run's pass census once, and record its totals on the mine
  // span while it is open.
  uint64_t num_candidates = 0;
  uint64_t num_frequent = 0;
  for (const SeqPassStats& stats : result.passes) {
    num_candidates += stats.candidates;
    num_frequent += stats.frequent;
  }
  candidates_counter.Add(num_candidates);
  frequent_counter.Add(num_frequent);
  passes_counter.Add(result.passes.size());
  mine_span.AddArg(candidates_counter.name(), num_candidates);
  mine_span.AddArg(frequent_counter.name(), num_frequent);
  mine_span.AddArg(passes_counter.name(), result.passes.size());
  SortCanonicalSequences(&result.patterns);
  return result;
}

std::vector<SequencePattern> FilterMaximalSequences(
    const std::vector<SequencePattern>& patterns) {
  std::vector<uint64_t> sigs(patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    sigs[i] = patterns[i].sequence.ItemSignature();
  }
  std::vector<SequencePattern> kept;
  for (size_t i = 0; i < patterns.size(); ++i) {
    const auto& candidate = patterns[i];
    bool maximal = true;
    for (size_t j = 0; j < patterns.size(); ++j) {
      const auto& other = patterns[j];
      if (other.sequence.TotalItems() <= candidate.sequence.TotalItems()) {
        continue;
      }
      if (core::kernels::SignatureSubset(sigs[i], sigs[j]) &&
          other.sequence.Contains(candidate.sequence)) {
        maximal = false;
        break;
      }
    }
    if (maximal) kept.push_back(candidate);
  }
  SortCanonicalSequences(&kept);
  return kept;
}

std::string FormatSequencePattern(const SequencePattern& pattern) {
  std::string out = "<";
  for (size_t e = 0; e < pattern.sequence.elements.size(); ++e) {
    if (e > 0) out += ' ';
    out += '{';
    const auto& element = pattern.sequence.elements[e];
    for (size_t i = 0; i < element.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(element[i]);
    }
    out += '}';
  }
  out += core::StrFormat("> (support=%u)", pattern.support);
  return out;
}

}  // namespace dmt::seq
