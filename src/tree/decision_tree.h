// Shared decision-tree representation: a flat node arena with typed splits,
// prediction, introspection, and text/DOT export.
#ifndef DMT_TREE_DECISION_TREE_H_
#define DMT_TREE_DECISION_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/dataset.h"

namespace dmt::tree {

class DecisionTree;

namespace internal {
/// Builder/pruner back-door to the tree's private storage. Not part of the
/// public API.
struct TreeAccess;
}  // namespace internal

/// How an internal node routes a row.
enum class SplitKind {
  /// One child per category of a categorical attribute.
  kCategoricalMultiway,
  /// Binary: left iff category == `category` (CART-style).
  kCategoricalEquals,
  /// Binary: left iff numeric value <= `threshold`.
  kNumericThreshold,
};

/// One tree node. Leaves predict `majority_class`; internal nodes route by
/// `kind`. Children are indices into the tree's node arena.
struct TreeNode {
  bool is_leaf = true;
  uint32_t majority_class = 0;
  /// Training class histogram at this node (kept for pruning & export).
  std::vector<uint32_t> class_counts;

  SplitKind kind = SplitKind::kNumericThreshold;
  uint32_t attribute = 0;
  double threshold = 0.0;   // kNumericThreshold
  uint32_t category = 0;    // kCategoricalEquals
  std::vector<uint32_t> children;

  /// Training rows reaching this node.
  uint64_t NumSamples() const {
    uint64_t total = 0;
    for (uint32_t c : class_counts) total += c;
    return total;
  }
  /// Misclassified training rows if this node predicted its majority.
  uint64_t NumErrors() const {
    return NumSamples() - class_counts[majority_class];
  }
};

/// Work counters reported by the tree builders (the tree-pillar analogue
/// of ClusteringResult::distance_computations). `split_scan_rows` counts
/// every (row, attribute) visit made while evaluating candidate splits —
/// the numeric boundary sweeps and the categorical histogram passes — and
/// is covered by the determinism contract: it is identical across
/// num_threads settings.
struct TreeBuildStats {
  uint64_t split_scan_rows = 0;
};

/// A trained classification tree. Nodes live in a flat arena; node 0 is the
/// root.
class DecisionTree {
 public:
  /// Routes one row of `data` to a leaf and returns its class.
  uint32_t Predict(const core::Dataset& data, size_t row) const;

  /// Predicts every row.
  std::vector<uint32_t> PredictAll(const core::Dataset& data) const;

  size_t num_nodes() const { return nodes_.size(); }
  size_t NumLeaves() const;
  size_t Depth() const;

  const TreeNode& node(size_t i) const { return nodes_[i]; }
  const TreeNode& root() const { return nodes_[0]; }

  /// Indented human-readable rendering using stored attribute/class names.
  std::string ToText() const;

  /// Graphviz DOT rendering.
  std::string ToDot() const;

  /// Collapses the subtree rooted at `node_index` into a leaf predicting
  /// its majority class (used by pruners; children become unreachable).
  void CollapseToLeaf(size_t node_index);

  /// Drops unreachable nodes left behind by pruning and reindexes.
  void Compact();

 private:
  friend struct internal::TreeAccess;

  size_t DepthBelow(size_t node_index) const;

  std::vector<TreeNode> nodes_;
  /// Names captured from the training schema, for rendering.
  std::vector<std::string> attribute_names_;
  std::vector<std::vector<std::string>> attribute_categories_;
  std::vector<std::string> class_names_;
};

namespace internal {

struct TreeAccess {
  static std::vector<TreeNode>& Nodes(DecisionTree& tree) {
    return tree.nodes_;
  }
  static std::vector<std::string>& AttributeNames(DecisionTree& tree) {
    return tree.attribute_names_;
  }
  static std::vector<std::vector<std::string>>& AttributeCategories(
      DecisionTree& tree) {
    return tree.attribute_categories_;
  }
  static std::vector<std::string>& ClassNames(DecisionTree& tree) {
    return tree.class_names_;
  }
  // Const views for serializers.
  static const std::vector<std::string>& AttributeNames(
      const DecisionTree& tree) {
    return tree.attribute_names_;
  }
  static const std::vector<std::vector<std::string>>& AttributeCategories(
      const DecisionTree& tree) {
    return tree.attribute_categories_;
  }
  static const std::vector<std::string>& ClassNames(
      const DecisionTree& tree) {
    return tree.class_names_;
  }
};

}  // namespace internal

}  // namespace dmt::tree

#endif  // DMT_TREE_DECISION_TREE_H_
