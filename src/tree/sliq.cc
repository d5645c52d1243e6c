#include "tree/sliq.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "core/check.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tree/criteria.h"

namespace dmt::tree {

using core::AttributeType;
using core::Dataset;
using core::Result;
using core::Status;

Status SliqOptions::Validate() const {
  if (min_samples_split < 2) {
    return Status::InvalidArgument("min_samples_split must be >= 2");
  }
  if (min_gain < 0.0) {
    return Status::InvalidArgument("min_gain must be >= 0");
  }
  return Status::OK();
}

namespace {

constexpr uint32_t kInactive = 0xffffffffu;

/// Best split found for one open leaf during a level.
struct LeafSplit {
  double score = -1.0;
  uint32_t attribute = 0;
  SplitKind kind = SplitKind::kNumericThreshold;
  double threshold = 0.0;
  uint32_t category = 0;
};

/// Per-chunk level-scan state. One chunk owns a contiguous attribute
/// range; its buffers are reused across attributes and levels so the list
/// scans never allocate inside the level loop (beyond first-touch
/// growth). `best` holds the chunk's per-slot candidates, merged into the
/// level's winners in ascending chunk order after the pool barrier.
struct LevelScratch {
  std::vector<LeafSplit> best;      // num_slots
  std::vector<uint32_t> scan_left;  // num_slots * num_classes (numeric)
  std::vector<uint64_t> seen;       // num_slots
  std::vector<double> last_value;   // num_slots
  std::vector<uint32_t> histogram;  // num_slots * categories * classes
  std::vector<uint32_t> right;      // num_classes
  uint64_t scan_rows = 0;
};

}  // namespace

Result<DecisionTree> BuildSliq(const Dataset& data,
                               const SliqOptions& options,
                               TreeBuildStats* stats) {
  DMT_RETURN_NOT_OK(options.Validate());
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("cannot grow a tree on an empty dataset");
  }
  if (data.num_classes() == 0) {
    return Status::InvalidArgument("dataset has no classes");
  }
  const size_t n = data.num_rows();
  const size_t num_classes = data.num_classes();
  const size_t num_attributes = data.num_attributes();
  core::ParallelContext ctx(options.num_threads);

  obs::Counter scan_rows_counter("tree/sliq/split_scan_rows");
  obs::Counter levels_counter("tree/sliq/levels");
  obs::Span build_span("tree/sliq/build");

  DecisionTree tree;
  auto& nodes = internal::TreeAccess::Nodes(tree);
  for (size_t a = 0; a < num_attributes; ++a) {
    internal::TreeAccess::AttributeNames(tree).push_back(
        data.attribute(a).name);
    internal::TreeAccess::AttributeCategories(tree).push_back(
        data.attribute(a).categories);
  }
  internal::TreeAccess::ClassNames(tree) = data.class_names();

  // Presort every numeric attribute once (the SLIQ attribute lists) under
  // the (value, row id) total order — ties broken by row id, so the lists
  // are identical across standard libraries. Materialized (value, id)
  // pairs sort with contiguous comparator reads (lexicographic `<` is
  // exactly that order), and the per-attribute sorts run chunk-parallel.
  std::vector<std::vector<uint32_t>> sorted_rows(num_attributes);
  {
    obs::Span presort_span("tree/sliq/presort");
    ctx.ForEachChunk(num_attributes, [&](size_t, size_t begin, size_t end) {
      std::vector<std::pair<double, uint32_t>> keyed(n);
      for (size_t a = begin; a < end; ++a) {
        if (data.attribute(a).type != AttributeType::kNumeric) continue;
        auto column = data.NumericColumn(a);
        for (size_t i = 0; i < n; ++i) {
          keyed[i] = {column[i], static_cast<uint32_t>(i)};
        }
        std::sort(keyed.begin(), keyed.end());
        sorted_rows[a].resize(n);
        for (size_t i = 0; i < n; ++i) sorted_rows[a][i] = keyed[i].second;
      }
    });
  }

  // Class list: every row starts at the root (slot 0 of level 0).
  std::vector<uint32_t> slot_of(n, 0);
  // Level bookkeeping: slot -> tree node id, class histogram, depth.
  nodes.emplace_back();
  std::vector<uint32_t> slot_node = {0};
  std::vector<std::vector<uint32_t>> slot_counts(1);
  slot_counts[0].assign(num_classes, 0);
  for (size_t row = 0; row < n; ++row) ++slot_counts[0][data.Label(row)];
  size_t depth = 0;

  const size_t num_chunks =
      std::max<size_t>(1, ctx.NumChunks(num_attributes));
  std::vector<LevelScratch> scratch(num_chunks);
  for (LevelScratch& s : scratch) s.right.resize(num_classes);

  while (!slot_node.empty()) {
    obs::Span level_span("tree/sliq/level");
    level_span.AddArg("depth", depth);
    const size_t num_slots = slot_node.size();
    // Finalize majority classes for this level's nodes, and hoist the
    // parent-side split-score terms (totals, impurity) out of the list
    // scans: they are fixed per slot for the whole level.
    std::vector<bool> growable(num_slots, true);
    std::vector<uint64_t> slot_total(num_slots, 0);
    std::vector<BinarySplitScorer> slot_scorer;
    slot_scorer.reserve(num_slots);
    for (size_t s = 0; s < num_slots; ++s) {
      TreeNode& node = nodes[slot_node[s]];
      node.class_counts = slot_counts[s];
      uint32_t best_class = 0;
      uint64_t total = 0;
      for (uint32_t c = 0; c < num_classes; ++c) {
        total += slot_counts[s][c];
        if (slot_counts[s][c] > slot_counts[s][best_class]) best_class = c;
      }
      node.majority_class = best_class;
      slot_total[s] = total;
      slot_scorer.emplace_back(SplitCriterion::kGini, slot_counts[s]);
      bool pure = slot_counts[s][best_class] == total;
      if (pure || total < options.min_samples_split ||
          (options.max_depth != 0 && depth >= options.max_depth)) {
        growable[s] = false;
      }
    }

    // Evaluate splits for every growable slot with one pass per attribute.
    // Attributes are scanned in contiguous chunks (serial mode = one chunk
    // covering all of them); each chunk records per-slot candidates into
    // its own scratch, read-only over slot_of/growable/slot_counts.
    auto scan_attribute = [&](uint32_t a, LevelScratch& scr) {
      if (data.attribute(a).type == AttributeType::kNumeric) {
        auto column = data.NumericColumn(a);
        scr.scan_left.assign(num_slots * num_classes, 0);
        scr.seen.assign(num_slots, 0);
        scr.last_value.assign(num_slots, 0.0);
        for (uint32_t row : sorted_rows[a]) {
          uint32_t s = slot_of[row];
          if (s == kInactive || !growable[s]) continue;
          ++scr.scan_rows;
          std::span<uint32_t> left(scr.scan_left.data() + s * num_classes,
                                   num_classes);
          double value = column[row];
          if (scr.seen[s] > 0 && value > scr.last_value[s]) {
            for (uint32_t c = 0; c < num_classes; ++c) {
              scr.right[c] = slot_counts[s][c] - left[c];
            }
            double gain = slot_scorer[s].Score(
                left, scr.seen[s], scr.right, slot_total[s] - scr.seen[s]);
            if (gain > scr.best[s].score) {
              // Assign every field: the per-slot candidate is reused
              // across this chunk's attributes, and a stale category or
              // threshold from a previous kind would vary with chunking.
              scr.best[s].score = gain;
              scr.best[s].attribute = a;
              scr.best[s].kind = SplitKind::kNumericThreshold;
              scr.best[s].threshold =
                  scr.last_value[s] + (value - scr.last_value[s]) / 2.0;
              scr.best[s].category = 0;
            }
          }
          ++left[data.Label(row)];
          ++scr.seen[s];
          scr.last_value[s] = value;
        }
      } else {
        const size_t num_categories = data.attribute(a).num_categories();
        auto column = data.CategoricalColumn(a);
        // Per-slot per-category class histograms in one scan.
        scr.histogram.assign(num_slots * num_categories * num_classes, 0);
        for (size_t row = 0; row < n; ++row) {
          uint32_t s = slot_of[row];
          if (s == kInactive || !growable[s]) continue;
          ++scr.scan_rows;
          ++scr.histogram[(s * num_categories + column[row]) * num_classes +
                          data.Label(row)];
        }
        for (size_t s = 0; s < num_slots; ++s) {
          if (!growable[s]) continue;
          for (uint32_t v = 0; v < num_categories; ++v) {
            std::span<const uint32_t> left(
                scr.histogram.data() +
                    (s * num_categories + v) * num_classes,
                num_classes);
            uint64_t in_category = 0;
            for (uint32_t count : left) in_category += count;
            if (in_category == 0 || in_category == slot_total[s]) continue;
            for (uint32_t c = 0; c < num_classes; ++c) {
              scr.right[c] = slot_counts[s][c] - left[c];
            }
            double gain = slot_scorer[s].Score(
                left, in_category, scr.right, slot_total[s] - in_category);
            if (gain > scr.best[s].score) {
              scr.best[s].score = gain;
              scr.best[s].attribute = a;
              scr.best[s].kind = SplitKind::kCategoricalEquals;
              scr.best[s].threshold = 0.0;
              scr.best[s].category = v;
            }
          }
        }
      }
    };
    for (LevelScratch& s : scratch) s.best.assign(num_slots, LeafSplit{});
    ctx.ForEachChunk(num_attributes,
                     [&](size_t chunk, size_t begin, size_t end) {
                       for (size_t a = begin; a < end; ++a) {
                         scan_attribute(static_cast<uint32_t>(a),
                                        scratch[chunk]);
                       }
                     });
    // Merge the chunk candidates in ascending chunk (= attribute) order
    // under the serial strict-improvement comparison: ties keep the lowest
    // attribute, so any thread count grows the serial tree bit for bit.
    std::vector<LeafSplit> best(num_slots);
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
      for (size_t s = 0; s < num_slots; ++s) {
        if (scratch[chunk].best[s].score > best[s].score) {
          best[s] = scratch[chunk].best[s];
        }
      }
    }

    // Apply the chosen splits: create children, rewrite the class list.
    std::vector<uint32_t> next_slot_node;
    std::vector<std::vector<uint32_t>> next_slot_counts;
    // For each old slot: either (left_slot, right_slot) or kInactive.
    std::vector<std::pair<uint32_t, uint32_t>> slot_children(
        num_slots, {kInactive, kInactive});
    for (size_t s = 0; s < num_slots; ++s) {
      if (!growable[s] || best[s].score < options.min_gain) continue;
      TreeNode& node = nodes[slot_node[s]];
      node.is_leaf = false;
      node.kind = best[s].kind;
      node.attribute = best[s].attribute;
      node.threshold = best[s].threshold;
      node.category = best[s].category;
      uint32_t left_id = static_cast<uint32_t>(nodes.size());
      nodes.emplace_back();
      uint32_t right_id = static_cast<uint32_t>(nodes.size());
      nodes.emplace_back();
      nodes[slot_node[s]].children = {left_id, right_id};
      slot_children[s] = {
          static_cast<uint32_t>(next_slot_node.size()),
          static_cast<uint32_t>(next_slot_node.size() + 1)};
      next_slot_node.push_back(left_id);
      next_slot_node.push_back(right_id);
      next_slot_counts.emplace_back(num_classes, 0);
      next_slot_counts.emplace_back(num_classes, 0);
    }
    // Route rows.
    for (size_t row = 0; row < n; ++row) {
      uint32_t s = slot_of[row];
      if (s == kInactive || slot_children[s].first == kInactive) {
        slot_of[row] = kInactive;
        continue;
      }
      const TreeNode& node = nodes[slot_node[s]];
      bool goes_left =
          node.kind == SplitKind::kNumericThreshold
              ? data.Numeric(row, node.attribute) <= node.threshold
              : data.Categorical(row, node.attribute) == node.category;
      uint32_t next = goes_left ? slot_children[s].first
                                : slot_children[s].second;
      slot_of[row] = next;
      ++next_slot_counts[next][data.Label(row)];
    }
    slot_node = std::move(next_slot_node);
    slot_counts = std::move(next_slot_counts);
    ++depth;
  }
  // Fold the per-chunk scan tallies into this build's total and publish
  // it once with the level count, recording both on the build span while
  // it is open.
  uint64_t scan_rows = 0;
  for (const LevelScratch& s : scratch) scan_rows += s.scan_rows;
  scan_rows_counter.Add(scan_rows);
  levels_counter.Add(depth);
  build_span.AddArg(scan_rows_counter.name(), scan_rows);
  build_span.AddArg(levels_counter.name(), depth);
  if (stats != nullptr) stats->split_scan_rows = scan_rows;
  return tree;
}

}  // namespace dmt::tree
