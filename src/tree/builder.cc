#include "tree/builder.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/check.h"
#include "core/parallel.h"
#include "core/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmt::tree {

using core::AttributeType;
using core::Dataset;
using core::Result;
using core::Status;

Status TreeOptions::Validate() const {
  if (min_samples_split < 2) {
    return Status::InvalidArgument("min_samples_split must be >= 2");
  }
  if (min_gain < 0.0) {
    return Status::InvalidArgument("min_gain must be >= 0");
  }
  return Status::OK();
}

namespace {

/// Nodes smaller than this scan their attributes on the calling thread
/// even when a pool exists: dispatching chunk tasks costs more than the
/// scan itself. The grown tree is identical either way (the cutoff depends
/// only on the node size, never on scheduling).
constexpr size_t kParallelMinRows = 256;

/// A chosen split for one node.
struct BestSplit {
  double score = -1.0;
  uint32_t attribute = 0;
  SplitKind kind = SplitKind::kNumericThreshold;
  double threshold = 0.0;
  uint32_t category = 0;
};

/// Everything one node needs for split search: its rows (ascending row id
/// — partitions preserve the parent's order, and the root is the identity)
/// and its view of every numeric attribute's presorted row order. Children
/// derive their orders by a stable one-pass partition of the parent's
/// arrays, so the invariant "order[a] = the node's rows sorted by (value,
/// row id)" holds at every node without ever re-sorting.
struct Workset {
  std::vector<uint32_t> rows;
  std::vector<std::vector<uint32_t>> order;
};

/// Per-chunk scan state: the chunk's best candidate, its work tally, and
/// reusable histogram buffers so the hot sweeps never allocate (the same
/// scratch-hoisting treatment Eclat's intersections got in PR 2).
struct ScanScratch {
  BestSplit best;
  uint64_t scan_rows = 0;
  std::vector<uint32_t> left;      // num_classes
  std::vector<uint32_t> right;     // num_classes
  std::vector<uint32_t> best_left; // num_classes
  std::vector<uint32_t> flat;      // child-major categorical histograms
  std::vector<uint32_t> sizes;     // partition sizes for SplitScoreFlat
};

/// Builder state shared across the recursion.
class TreeBuilderImpl {
 public:
  TreeBuilderImpl(const Dataset& data, const TreeOptions& options)
      : data_(data), options_(options), ctx_(options.num_threads) {
    const size_t num_classes = data_.num_classes();
    size_t max_categories = 2;
    for (size_t a = 0; a < data_.num_attributes(); ++a) {
      if (data_.attribute(a).type == AttributeType::kCategorical) {
        max_categories =
            std::max(max_categories, data_.attribute(a).num_categories());
      }
    }
    scratch_.resize(
        std::max<size_t>(1, ctx_.NumChunks(data_.num_attributes())));
    for (ScanScratch& s : scratch_) {
      s.left.resize(num_classes);
      s.right.resize(num_classes);
      s.best_left.resize(num_classes);
      s.flat.resize(max_categories * num_classes);
      s.sizes.resize(max_categories);
    }
    row_child_.resize(data_.num_rows());
  }

  DecisionTree Build(TreeBuildStats* stats) {
    obs::Counter scan_rows_counter("tree/greedy/split_scan_rows");
    obs::Counter nodes_counter("tree/greedy/nodes");
    obs::Span build_span("tree/greedy/build");
    build_span.AttachCounter(scan_rows_counter);
    build_span.AttachCounter(nodes_counter);

    DecisionTree tree;
    // Capture rendering metadata.
    for (size_t a = 0; a < data_.num_attributes(); ++a) {
      internal::TreeAccess::AttributeNames(tree).push_back(
          data_.attribute(a).name);
      internal::TreeAccess::AttributeCategories(tree).push_back(
          data_.attribute(a).categories);
    }
    internal::TreeAccess::ClassNames(tree) = data_.class_names();
    Workset root;
    root.rows.resize(data_.num_rows());
    std::iota(root.rows.begin(), root.rows.end(), 0u);
    {
      obs::Span presort_span("tree/greedy/presort");
      Presort(&root);
    }
    {
      obs::Span grow_span("tree/greedy/grow");
      Grow(&tree, std::move(root), 0);
    }
    // Fold the per-chunk scan tallies into this build's total and
    // publish it once, while the build span is still open.
    uint64_t scan_rows = 0;
    for (const ScanScratch& s : scratch_) scan_rows += s.scan_rows;
    scan_rows_counter.Add(scan_rows);
    nodes_counter.Add(internal::TreeAccess::Nodes(tree).size());
    if (stats != nullptr) stats->split_scan_rows = scan_rows;
    return tree;
  }

 private:
  bool ScansNumeric(size_t attribute) const {
    return data_.attribute(attribute).type == AttributeType::kNumeric &&
           options_.allow_numeric_splits;
  }

  /// One-time presort of every numeric attribute into a row-index array
  /// under the (value, row id) total order, so the arrays are identical
  /// across standard libraries, and so is every derived per-node order.
  /// Sorting materialized (value, id) pairs — whose lexicographic `<` is
  /// exactly that order — keeps the comparator's reads contiguous instead
  /// of gathering through the column, which is what makes the one-time
  /// sort cheap enough to amortize at the root.
  void Presort(Workset* root) {
    const size_t num_attributes = data_.num_attributes();
    const size_t n = data_.num_rows();
    root->order.resize(num_attributes);
    ctx_.ForEachChunk(num_attributes, [&](size_t, size_t begin, size_t end) {
      std::vector<std::pair<double, uint32_t>> keyed(n);
      for (size_t a = begin; a < end; ++a) {
        if (!ScansNumeric(a)) continue;
        auto column = data_.NumericColumn(a);
        for (size_t i = 0; i < n; ++i) {
          keyed[i] = {column[i], static_cast<uint32_t>(i)};
        }
        std::sort(keyed.begin(), keyed.end());
        std::vector<uint32_t>& order = root->order[a];
        order.resize(n);
        for (size_t i = 0; i < n; ++i) order[i] = keyed[i].second;
      }
    });
  }

  std::vector<uint32_t> CountClasses(std::span<const uint32_t> rows) const {
    std::vector<uint32_t> counts(data_.num_classes(), 0);
    for (uint32_t row : rows) ++counts[data_.Label(row)];
    return counts;
  }

  static uint32_t Majority(std::span<const uint32_t> counts) {
    uint32_t best = 0;
    for (uint32_t c = 1; c < counts.size(); ++c) {
      if (counts[c] > counts[best]) best = c;
    }
    return best;
  }

  /// Evaluates the best threshold split on a numeric attribute, given the
  /// node's rows already sorted by (value, row id).
  void ScanNumericSorted(std::span<const uint32_t> sorted,
                         uint32_t attribute,
                         std::span<const uint32_t> parent_counts,
                         ScanScratch* s) const {
    s->scan_rows += sorted.size();
    auto column = data_.NumericColumn(attribute);
    std::fill(s->left.begin(), s->left.end(), 0u);
    std::copy(parent_counts.begin(), parent_counts.end(), s->right.begin());
    // C4.5 caveat: gain ratio rewards extremely lopsided thresholds (tiny
    // split information inflates the ratio), so the threshold is chosen by
    // raw gain and only the chosen threshold is scored with the requested
    // criterion (Quinlan's own remedy).
    const SplitCriterion scan_criterion =
        options_.criterion == SplitCriterion::kGainRatio
            ? SplitCriterion::kInformationGain
            : options_.criterion;
    const BinarySplitScorer scorer(scan_criterion, parent_counts);
    const size_t n = sorted.size();
    double best_gain = -1.0;
    double best_threshold = 0.0;
    // Each row's value is gathered once and carried into the next
    // iteration as the boundary's left side.
    double next_value = n != 0 ? column[sorted[0]] : 0.0;
    for (size_t i = 0; i + 1 < n; ++i) {
      uint32_t label = data_.Label(sorted[i]);
      ++s->left[label];
      --s->right[label];
      double left_value = next_value;
      next_value = column[sorted[i + 1]];
      if (left_value == next_value) continue;  // no boundary here
      double gain = scorer.Score(s->left, i + 1, s->right, n - (i + 1));
      if (gain > best_gain) {
        best_gain = gain;
        best_threshold = left_value + (next_value - left_value) / 2.0;
        std::copy(s->left.begin(), s->left.end(), s->best_left.begin());
      }
    }
    if (best_gain < 0.0) return;
    double score = best_gain;
    if (options_.criterion == SplitCriterion::kGainRatio) {
      for (size_t cls = 0; cls < s->right.size(); ++cls) {
        s->right[cls] = parent_counts[cls] - s->best_left[cls];
      }
      score = SplitScoreBinary(SplitCriterion::kGainRatio, parent_counts,
                               s->best_left, s->right);
    }
    if (score > s->best.score) {
      // Assign every field: the scratch candidate is reused across
      // attributes, and a stale category/threshold from a previous kind
      // would leak into the tree and vary with the chunking.
      s->best.score = score;
      s->best.attribute = attribute;
      s->best.kind = SplitKind::kNumericThreshold;
      s->best.threshold = best_threshold;
      s->best.category = 0;
    }
  }

  /// Evaluates a categorical attribute (multiway or best binary equals).
  void ScanCategorical(std::span<const uint32_t> rows, uint32_t attribute,
                       std::span<const uint32_t> parent_counts,
                       ScanScratch* s) const {
    s->scan_rows += rows.size();
    const size_t num_classes = data_.num_classes();
    const size_t num_categories =
        data_.attribute(attribute).num_categories();
    auto column = data_.CategoricalColumn(attribute);
    std::span<uint32_t> flat(s->flat.data(), num_categories * num_classes);
    std::fill(flat.begin(), flat.end(), 0u);
    for (uint32_t row : rows) {
      ++flat[column[row] * num_classes + data_.Label(row)];
    }
    if (options_.categorical_style == CategoricalSplitStyle::kMultiway) {
      double score = SplitScoreFlat(options_.criterion, parent_counts, flat,
                                    num_classes, s->sizes);
      if (score > s->best.score) {
        s->best.score = score;
        s->best.attribute = attribute;
        s->best.kind = SplitKind::kCategoricalMultiway;
        s->best.threshold = 0.0;
        s->best.category = 0;
      }
      return;
    }
    // Binary: try category == c for every c present among the rows.
    const BinarySplitScorer scorer(options_.criterion, parent_counts);
    for (uint32_t c = 0; c < num_categories; ++c) {
      std::span<const uint32_t> left =
          flat.subspan(c * num_classes, num_classes);
      uint64_t in_category = 0;
      for (uint32_t count : left) in_category += count;
      if (in_category == 0 || in_category == rows.size()) continue;
      for (size_t cls = 0; cls < num_classes; ++cls) {
        s->right[cls] = parent_counts[cls] - left[cls];
      }
      double score = scorer.Score(left, in_category, s->right,
                                  rows.size() - in_category);
      if (score > s->best.score) {
        s->best.score = score;
        s->best.attribute = attribute;
        s->best.kind = SplitKind::kCategoricalEquals;
        s->best.threshold = 0.0;
        s->best.category = c;
      }
    }
  }

  void ScanAttribute(const Workset& ws, uint32_t attribute,
                     std::span<const uint32_t> parent_counts,
                     ScanScratch* s) const {
    if (data_.attribute(attribute).type == AttributeType::kNumeric) {
      if (!options_.allow_numeric_splits) return;
      ScanNumericSorted(ws.order[attribute], attribute, parent_counts, s);
    } else {
      ScanCategorical(ws.rows, attribute, parent_counts, s);
    }
  }

  /// Scans every attribute — chunk-parallel on large nodes — and returns
  /// the winning candidate. Chunks are contiguous attribute ranges and the
  /// per-chunk winners merge in ascending chunk order under the serial
  /// strict-improvement comparison, so ties keep the lowest attribute and
  /// any thread count reproduces the serial tree bit for bit.
  BestSplit FindBestSplit(const Workset& ws,
                          std::span<const uint32_t> parent_counts) {
    const size_t num_attributes = data_.num_attributes();
    if (!ctx_.parallel() || ws.rows.size() < kParallelMinRows) {
      ScanScratch& s = scratch_[0];
      s.best = BestSplit{};
      for (uint32_t a = 0; a < num_attributes; ++a) {
        ScanAttribute(ws, a, parent_counts, &s);
      }
      return s.best;
    }
    const size_t chunks = ctx_.NumChunks(num_attributes);
    for (size_t c = 0; c < chunks; ++c) scratch_[c].best = BestSplit{};
    ctx_.ForEachChunk(
        num_attributes, [&](size_t chunk, size_t begin, size_t end) {
          ScanScratch& s = scratch_[chunk];
          for (size_t a = begin; a < end; ++a) {
            ScanAttribute(ws, static_cast<uint32_t>(a), parent_counts, &s);
          }
        });
    BestSplit best;
    for (size_t c = 0; c < chunks; ++c) {
      if (scratch_[c].best.score > best.score) best = scratch_[c].best;
    }
    return best;
  }

  uint32_t Grow(DecisionTree* tree, Workset ws, size_t depth) {
    auto& nodes = internal::TreeAccess::Nodes(*tree);
    const uint32_t node_index = static_cast<uint32_t>(nodes.size());
    nodes.emplace_back();
    {
      TreeNode& node = nodes[node_index];
      node.class_counts = CountClasses(ws.rows);
      node.majority_class = Majority(node.class_counts);
    }
    // No node is appended between here and the child creation below, so a
    // span over the arena-held histogram stays valid through split search
    // and partitioning.
    std::span<const uint32_t> parent_counts = nodes[node_index].class_counts;

    // Stopping conditions: purity, size, depth.
    bool pure = false;
    for (uint32_t count : parent_counts) {
      if (count == ws.rows.size()) pure = true;
    }
    if (pure || ws.rows.size() < options_.min_samples_split ||
        (options_.max_depth != 0 && depth >= options_.max_depth)) {
      return node_index;
    }

    BestSplit best = FindBestSplit(ws, parent_counts);
    if (best.score < options_.min_gain) return node_index;

    // Route every row of the node to its child once; the same marks drive
    // the row partition and the attribute-order partitions.
    const size_t num_children =
        best.kind == SplitKind::kCategoricalMultiway
            ? data_.attribute(best.attribute).num_categories()
            : 2;
    child_sizes_.assign(num_children, 0);
    switch (best.kind) {
      case SplitKind::kCategoricalMultiway: {
        auto column = data_.CategoricalColumn(best.attribute);
        for (uint32_t row : ws.rows) {
          row_child_[row] = column[row];
          ++child_sizes_[column[row]];
        }
        break;
      }
      case SplitKind::kCategoricalEquals: {
        auto column = data_.CategoricalColumn(best.attribute);
        for (uint32_t row : ws.rows) {
          uint32_t child = column[row] == best.category ? 0 : 1;
          row_child_[row] = child;
          ++child_sizes_[child];
        }
        break;
      }
      case SplitKind::kNumericThreshold: {
        auto column = data_.NumericColumn(best.attribute);
        for (uint32_t row : ws.rows) {
          uint32_t child = column[row] <= best.threshold ? 0 : 1;
          row_child_[row] = child;
          ++child_sizes_[child];
        }
        break;
      }
    }

    // A degenerate split (all rows one side) can slip through multiway
    // scoring when only one category is populated; keep the node a leaf.
    size_t non_empty = 0;
    for (size_t size : child_sizes_) {
      if (size != 0) ++non_empty;
    }
    if (non_empty < 2) return node_index;

    // Derive the child worksets by stable one-pass partitions of the
    // parent's arrays, then release the parent before recursing so live
    // memory along the recursion path stays bounded by the node sizes.
    std::vector<Workset> children(num_children);
    for (size_t c = 0; c < num_children; ++c) {
      children[c].rows.reserve(child_sizes_[c]);
    }
    for (uint32_t row : ws.rows) {
      children[row_child_[row]].rows.push_back(row);
    }
    const size_t num_attributes = data_.num_attributes();
    for (Workset& child : children) child.order.resize(num_attributes);
    auto partition_attribute = [&](size_t a) {
      if (!ScansNumeric(a)) return;
      for (size_t c = 0; c < num_children; ++c) {
        children[c].order[a].reserve(child_sizes_[c]);
      }
      for (uint32_t row : ws.order[a]) {
        children[row_child_[row]].order[a].push_back(row);
      }
    };
    if (ctx_.parallel() && ws.rows.size() >= kParallelMinRows) {
      ctx_.ForEachChunk(num_attributes, [&](size_t, size_t begin, size_t end) {
        for (size_t a = begin; a < end; ++a) partition_attribute(a);
      });
    } else {
      for (size_t a = 0; a < num_attributes; ++a) partition_attribute(a);
    }
    ws = Workset{};

    {
      TreeNode& node = nodes[node_index];
      node.is_leaf = false;
      node.kind = best.kind;
      node.attribute = best.attribute;
      node.threshold = best.threshold;
      node.category = best.category;
    }
    std::vector<uint32_t> child_ids;
    child_ids.reserve(num_children);
    for (Workset& child : children) {
      if (child.rows.empty()) {
        // Empty branch: a leaf inheriting the parent's majority (C4.5's
        // convention for unseen categories).
        uint32_t leaf_index = static_cast<uint32_t>(nodes.size());
        nodes.emplace_back();
        TreeNode& leaf = nodes[leaf_index];
        leaf.class_counts.assign(data_.num_classes(), 0);
        leaf.majority_class = nodes[node_index].majority_class;
        child_ids.push_back(leaf_index);
      } else {
        child_ids.push_back(Grow(tree, std::move(child), depth + 1));
      }
    }
    nodes[node_index].children = std::move(child_ids);
    return node_index;
  }

  const Dataset& data_;
  const TreeOptions& options_;
  core::ParallelContext ctx_;
  std::vector<ScanScratch> scratch_;
  /// Child index of every routed row; consumed before each recursion, so
  /// one arena-wide array serves the whole tree.
  std::vector<uint32_t> row_child_;
  std::vector<size_t> child_sizes_;
};

}  // namespace

Result<DecisionTree> BuildTree(const Dataset& data,
                               const TreeOptions& options,
                               TreeBuildStats* stats) {
  DMT_RETURN_NOT_OK(options.Validate());
  if (data.num_rows() == 0) {
    return Status::InvalidArgument("cannot grow a tree on an empty dataset");
  }
  if (data.num_classes() == 0) {
    return Status::InvalidArgument("dataset has no classes");
  }
  if (!options.allow_numeric_splits) {
    for (size_t a = 0; a < data.num_attributes(); ++a) {
      if (data.attribute(a).type == AttributeType::kNumeric) {
        return Status::InvalidArgument(core::StrFormat(
            "attribute '%s' is numeric but numeric splits are disabled "
            "(discretize first, e.g. EqualWidthDiscretize)",
            data.attribute(a).name.c_str()));
      }
    }
  }
  TreeBuilderImpl builder(data, options);
  return builder.Build(stats);
}

Result<DecisionTree> BuildId3(const Dataset& data, TreeOptions options) {
  options.criterion = SplitCriterion::kInformationGain;
  options.categorical_style = CategoricalSplitStyle::kMultiway;
  options.allow_numeric_splits = false;
  return BuildTree(data, options);
}

Result<DecisionTree> BuildC45(const Dataset& data, TreeOptions options) {
  options.criterion = SplitCriterion::kGainRatio;
  options.categorical_style = CategoricalSplitStyle::kMultiway;
  options.allow_numeric_splits = true;
  return BuildTree(data, options);
}

Result<DecisionTree> BuildCart(const Dataset& data, TreeOptions options) {
  options.criterion = SplitCriterion::kGini;
  options.categorical_style = CategoricalSplitStyle::kBinary;
  options.allow_numeric_splits = true;
  return BuildTree(data, options);
}

}  // namespace dmt::tree
