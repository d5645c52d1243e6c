// Brute-force greedy split oracle: the test-side reference for the
// presorted tree builder (tree/builder.h). It regrows a tree from the
// dataset alone. Every node re-sorts its own rows by (value, row id) and
// scores every candidate split with tree/criteria.h's SplitScore, so the
// oracle shares no presort, partition, boundary sweep or scorer with the
// builder it checks. BuildTree must match it node for node — structure,
// kinds, thresholds, categories and leaf histograms — and in
// split_scan_rows.
#ifndef DMT_TESTS_TREE_SPLIT_ORACLE_H_
#define DMT_TESTS_TREE_SPLIT_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/dataset.h"
#include "tree/builder.h"
#include "tree/criteria.h"
#include "tree/decision_tree.h"

namespace dmt::tree::oracle {

using Histogram = std::vector<uint32_t>;

/// One scored candidate split; score -1 means "no candidate".
struct Candidate {
  double score = -1.0;
  uint32_t attribute = 0;
  SplitKind kind = SplitKind::kNumericThreshold;
  double threshold = 0.0;
  uint32_t category = 0;
};

class Grower {
 public:
  Grower(const core::Dataset& data, const TreeOptions& options)
      : data_(data), options_(options) {}

  /// Grows the whole tree; `scan_rows` receives the (row, attribute)
  /// visits of split search, counted the way TreeBuildStats defines them.
  DecisionTree Grow(uint64_t* scan_rows) {
    DecisionTree tree;
    for (size_t a = 0; a < data_.num_attributes(); ++a) {
      internal::TreeAccess::AttributeNames(tree).push_back(
          data_.attribute(a).name);
      internal::TreeAccess::AttributeCategories(tree).push_back(
          data_.attribute(a).categories);
    }
    internal::TreeAccess::ClassNames(tree) = data_.class_names();
    std::vector<uint32_t> rows(data_.num_rows());
    std::iota(rows.begin(), rows.end(), 0u);
    GrowNode(&tree, rows, 0);
    *scan_rows = scan_rows_;
    return tree;
  }

 private:
  Histogram CountClasses(const std::vector<uint32_t>& rows) const {
    Histogram counts(data_.num_classes(), 0);
    for (uint32_t row : rows) ++counts[data_.Label(row)];
    return counts;
  }

  /// Best `value <= threshold` split: every boundary between distinct
  /// adjacent values of the node's freshly sorted rows. C4.5 picks the
  /// threshold by information gain and scores only the winner by gain
  /// ratio; the first of equally good boundaries wins.
  Candidate BestThreshold(const std::vector<uint32_t>& rows,
                          uint32_t attribute, const Histogram& parent) {
    Candidate out;
    if (!options_.allow_numeric_splits) return out;
    scan_rows_ += rows.size();
    auto column = data_.NumericColumn(attribute);
    std::vector<uint32_t> sorted = rows;
    std::sort(sorted.begin(), sorted.end(), [&](uint32_t a, uint32_t b) {
      return column[a] != column[b] ? column[a] < column[b] : a < b;
    });
    const bool ratio = options_.criterion == SplitCriterion::kGainRatio;
    const SplitCriterion sweep =
        ratio ? SplitCriterion::kInformationGain : options_.criterion;
    std::vector<Histogram> split = {Histogram(parent.size(), 0), parent};
    std::vector<Histogram> best_split;
    double best_gain = -1.0;
    for (size_t i = 0; i + 1 < sorted.size(); ++i) {
      const uint32_t label = data_.Label(sorted[i]);
      ++split[0][label];
      --split[1][label];
      const double lo = column[sorted[i]];
      const double hi = column[sorted[i + 1]];
      if (lo == hi) continue;
      const double gain = SplitScore(sweep, parent, split);
      if (gain > best_gain) {
        best_gain = gain;
        best_split = split;
        out.threshold = lo + (hi - lo) / 2.0;
      }
    }
    if (best_split.empty()) return Candidate{};
    out.score = ratio ? SplitScore(SplitCriterion::kGainRatio, parent,
                                   best_split)
                      : best_gain;
    out.attribute = attribute;
    return out;
  }

  /// Multiway: one child per category. Binary: the first best
  /// `category == c` over the categories that split the node.
  Candidate BestCategorical(const std::vector<uint32_t>& rows,
                            uint32_t attribute, const Histogram& parent) {
    scan_rows_ += rows.size();
    auto column = data_.CategoricalColumn(attribute);
    std::vector<Histogram> by_category(
        data_.attribute(attribute).num_categories(),
        Histogram(parent.size(), 0));
    for (uint32_t row : rows) ++by_category[column[row]][data_.Label(row)];
    Candidate out;
    out.attribute = attribute;
    if (options_.categorical_style == CategoricalSplitStyle::kMultiway) {
      out.kind = SplitKind::kCategoricalMultiway;
      out.score = SplitScore(options_.criterion, parent, by_category);
      return out;
    }
    out.kind = SplitKind::kCategoricalEquals;
    for (uint32_t c = 0; c < by_category.size(); ++c) {
      const uint64_t size = std::accumulate(by_category[c].begin(),
                                            by_category[c].end(), uint64_t{0});
      if (size == 0 || size == rows.size()) continue;
      Histogram rest = parent;
      for (size_t k = 0; k < rest.size(); ++k) rest[k] -= by_category[c][k];
      const double score =
          SplitScore(options_.criterion, parent, {by_category[c], rest});
      if (score > out.score) {
        out.score = score;
        out.category = c;
      }
    }
    return out;
  }

  uint32_t ChildOf(const Candidate& split, uint32_t row) const {
    switch (split.kind) {
      case SplitKind::kCategoricalMultiway:
        return data_.Categorical(row, split.attribute);
      case SplitKind::kCategoricalEquals:
        return data_.Categorical(row, split.attribute) == split.category ? 0
                                                                         : 1;
      case SplitKind::kNumericThreshold:
        return data_.Numeric(row, split.attribute) <= split.threshold ? 0
                                                                      : 1;
    }
    return 0;
  }

  /// Appends the node for `rows` (preorder, like the builder) and returns
  /// its index.
  uint32_t GrowNode(DecisionTree* tree, const std::vector<uint32_t>& rows,
                    size_t depth) {
    std::vector<TreeNode>& nodes = internal::TreeAccess::Nodes(*tree);
    const uint32_t index = static_cast<uint32_t>(nodes.size());
    nodes.emplace_back();
    const Histogram counts = CountClasses(rows);
    const uint32_t majority = static_cast<uint32_t>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());
    nodes[index].class_counts = counts;
    nodes[index].majority_class = majority;
    const bool pure = counts[majority] == rows.size();
    if (pure || rows.size() < options_.min_samples_split ||
        (options_.max_depth != 0 && depth >= options_.max_depth)) {
      return index;
    }
    Candidate best;
    for (uint32_t a = 0; a < data_.num_attributes(); ++a) {
      const Candidate candidate =
          data_.attribute(a).type == core::AttributeType::kNumeric
              ? BestThreshold(rows, a, counts)
              : BestCategorical(rows, a, counts);
      if (candidate.score > best.score) best = candidate;
    }
    if (best.score < options_.min_gain) return index;

    std::vector<std::vector<uint32_t>> parts(
        best.kind == SplitKind::kCategoricalMultiway
            ? data_.attribute(best.attribute).num_categories()
            : 2);
    for (uint32_t row : rows) parts[ChildOf(best, row)].push_back(row);
    if (std::count_if(parts.begin(), parts.end(), [](const auto& part) {
          return !part.empty();
        }) < 2) {
      return index;
    }
    nodes[index].is_leaf = false;
    nodes[index].kind = best.kind;
    nodes[index].attribute = best.attribute;
    nodes[index].threshold = best.threshold;
    nodes[index].category = best.category;
    std::vector<uint32_t> children;
    for (const std::vector<uint32_t>& part : parts) {
      if (part.empty()) {
        // An empty branch predicts its parent's majority.
        children.push_back(static_cast<uint32_t>(nodes.size()));
        nodes.emplace_back();
        nodes.back().class_counts.assign(counts.size(), 0);
        nodes.back().majority_class = majority;
      } else {
        children.push_back(GrowNode(tree, part, depth + 1));
      }
    }
    nodes[index].children = std::move(children);
    return index;
  }

  const core::Dataset& data_;
  const TreeOptions& options_;
  uint64_t scan_rows_ = 0;
};

/// Grows `data`'s tree under `options` by brute force.
inline DecisionTree Grow(const core::Dataset& data,
                         const TreeOptions& options,
                         uint64_t* scan_rows = nullptr) {
  uint64_t rows = 0;
  DecisionTree tree = Grower(data, options).Grow(&rows);
  if (scan_rows != nullptr) *scan_rows = rows;
  return tree;
}

}  // namespace dmt::tree::oracle

#endif  // DMT_TESTS_TREE_SPLIT_ORACLE_H_
