// Unified recursive tree induction behind the ID3 / C4.5 / CART presets.
#ifndef DMT_TREE_BUILDER_H_
#define DMT_TREE_BUILDER_H_

#include "core/dataset.h"
#include "core/status.h"
#include "tree/criteria.h"
#include "tree/decision_tree.h"

namespace dmt::tree {

/// How categorical attributes are split.
enum class CategoricalSplitStyle {
  /// One child per category (ID3, C4.5).
  kMultiway,
  /// Binary equals/not-equals on the best single category (CART-style).
  kBinary,
};

/// Induction hyper-parameters.
struct TreeOptions {
  SplitCriterion criterion = SplitCriterion::kGainRatio;
  CategoricalSplitStyle categorical_style =
      CategoricalSplitStyle::kMultiway;
  /// Whether numeric attributes may be split on thresholds (off for the
  /// faithful ID3, which handles only categorical data).
  bool allow_numeric_splits = true;
  /// Stop expanding below this many rows.
  size_t min_samples_split = 2;
  /// Hard depth cap; 0 = unlimited.
  size_t max_depth = 0;
  /// Minimum criterion improvement to accept a split.
  double min_gain = 1e-9;
  /// Worker threads for the per-attribute best-split search; 0 (default)
  /// or 1 = serial. Threaded runs grow bit-identical trees: attributes
  /// are scanned in contiguous chunks and the candidate splits merged in
  /// attribute order with the serial strict-improvement tie-breaking.
  size_t num_threads = 0;

  core::Status Validate() const;
};

/// Grows a decision tree on `data` (all rows). Each numeric attribute is
/// sorted once up front into a row-index array under the (value, row id)
/// order, and each child's order is derived by a stable one-pass
/// partition of its parent's arrays (the SLIQ/SPRINT attribute-list idea
/// applied to the greedy builder), so per-node split search is a linear
/// sweep. When `stats` is non-null it receives the split-search work
/// counters.
core::Result<DecisionTree> BuildTree(const core::Dataset& data,
                                     const TreeOptions& options,
                                     TreeBuildStats* stats = nullptr);

/// ID3 preset: information gain, multiway categorical splits, no numeric
/// splits. Fails with InvalidArgument on datasets with numeric attributes.
core::Result<DecisionTree> BuildId3(const core::Dataset& data,
                                    TreeOptions options = {});

/// C4.5 preset: gain ratio, multiway categorical splits, numeric
/// thresholds. (Apply PessimisticPrune afterwards for the full C4.5.)
core::Result<DecisionTree> BuildC45(const core::Dataset& data,
                                    TreeOptions options = {});

/// CART preset: Gini, binary splits everywhere. (Apply CostComplexityPrune
/// afterwards for the full CART.)
core::Result<DecisionTree> BuildCart(const core::Dataset& data,
                                     TreeOptions options = {});

}  // namespace dmt::tree

#endif  // DMT_TREE_BUILDER_H_
