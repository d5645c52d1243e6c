// The read-only model state a serving process holds: trained artifacts
// loaded from PR-6 DMTBIN01 containers (or handed over in-process for
// tests/benches), plus everything precomputed once at load so per-batch
// work touches only staged data:
//
//   - k-means centers staged dimension-major (SoaBlock) so nearest-center
//     assignment hits the batched squared_euclidean_to_many kernel
//   - the rules grouped by antecedent (AntecedentIndex), so a basket
//     reaches only the rules whose antecedent it can hold
//   - the serving schema (AttributeInfo per feature) for assembling
//     request records into Datasets with the training schema; every tree
//     split is checked against it at load, so a tree never reads a column
//     of the wrong type
//   - fitted kNN (brute-force mode => SoA distance kernel per query) and
//     naive-Bayes classifiers over the bundled training dataset
//
// A bundle is immutable after Load()/FromParts() and shared by every
// serving thread without locks.
#ifndef DMT_SERVE_MODEL_BUNDLE_H_
#define DMT_SERVE_MODEL_BUNDLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "assoc/rules.h"
#include "classify/knn.h"
#include "classify/naive_bayes.h"
#include "cluster/kmeans.h"
#include "core/dataset.h"
#include "core/kernels/kernels.h"
#include "core/status.h"
#include "tree/decision_tree.h"

namespace dmt::serve {

/// Container paths for Load(). Empty entries are simply absent from the
/// bundle: a daemon serving only rules needs only `rules`. Requests
/// against an absent artifact get a FailedPrecondition error response.
struct ModelPaths {
  std::string tree;    // WriteDecisionTree container
  std::string train;   // WriteDataset container (kNN/NB training data)
  std::string kmeans;  // WriteKMeansModel container
  std::string rules;   // WriteRuleSet container
};

/// The rules grouped by antecedent, built once at load. A group is one
/// distinct antecedent exactly as stored (an unsorted item list is its
/// own key) with the ascending indices of the rules that carry it. Groups
/// are in lexicographic antecedent order, so an empty antecedent is group
/// 0 and the groups whose first stored item is the same are contiguous.
/// Both lists are CSRs; nothing is sized by an item id.
class AntecedentIndex {
 public:
  /// Fails only when a count does not fit the index's 32-bit offsets.
  static core::Result<AntecedentIndex> Build(
      const std::vector<assoc::AssociationRule>& rules);

  size_t num_groups() const {
    return rule_offsets_.empty() ? 0 : rule_offsets_.size() - 1;
  }
  std::span<const uint32_t> antecedent(size_t group) const {
    return Row(items_, item_offsets_, group);
  }
  std::span<const uint32_t> rule_ids(size_t group) const {
    return Row(rule_ids_, rule_offsets_, group);
  }
  /// True when group 0 has the empty antecedent, which every basket holds.
  bool has_empty_group() const {
    return num_groups() > first_items_.size();
  }
  /// The groups [first, last) whose first stored antecedent item is
  /// `item`, by binary search over the groups' first items.
  std::pair<size_t, size_t> GroupsStartingWith(uint32_t item) const;

 private:
  static std::span<const uint32_t> Row(const std::vector<uint32_t>& values,
                                       const std::vector<uint32_t>& offsets,
                                       size_t row) {
    return std::span<const uint32_t>(values).subspan(
        offsets[row], offsets[row + 1] - offsets[row]);
  }

  std::vector<uint32_t> item_offsets_;
  std::vector<uint32_t> items_;
  std::vector<uint32_t> rule_offsets_;
  std::vector<uint32_t> rule_ids_;
  /// First stored item of every group with a non-empty antecedent.
  std::vector<uint32_t> first_items_;
};

class ModelBundle {
 public:
  /// Loads every non-empty path. Fails with the loader's error if any
  /// named container is missing or corrupt (partial bundles are
  /// expressed by empty paths, not by ignoring errors).
  static core::Result<std::shared_ptr<const ModelBundle>> Load(
      const ModelPaths& paths);

  /// Builds a bundle from in-process objects (tests, benches). Any part
  /// may be nullopt.
  static core::Result<std::shared_ptr<const ModelBundle>> FromParts(
      std::optional<tree::DecisionTree> tree,
      std::optional<core::Dataset> train,
      std::optional<cluster::ClusteringResult> kmeans,
      std::optional<std::vector<assoc::AssociationRule>> rules);

  bool has_tree() const { return tree_.has_value(); }
  bool has_train() const { return train_.has_value(); }
  bool has_kmeans() const { return kmeans_.has_value(); }
  bool has_rules() const { return rules_.has_value(); }

  const tree::DecisionTree& tree() const { return *tree_; }
  const core::Dataset& train() const { return *train_; }
  const cluster::ClusteringResult& kmeans() const { return *kmeans_; }
  const std::vector<assoc::AssociationRule>& rules() const {
    return *rules_;
  }

  const classify::KnnClassifier& knn() const { return *knn_; }
  const classify::NaiveBayesClassifier& naive_bayes() const { return *nb_; }

  /// Serving schema for classify requests: the training dataset's
  /// attributes when present, otherwise derived from the tree's captured
  /// names/categories. Empty when neither is loaded.
  const std::vector<core::AttributeInfo>& schema() const { return schema_; }

  /// Centers staged dimension-major for squared_euclidean_to_many.
  const core::kernels::SoaBlock& centers_soa() const { return centers_soa_; }

  /// The rules grouped by antecedent (empty when there are no rules).
  const AntecedentIndex& antecedent_index() const {
    return antecedent_index_;
  }

  /// One-line inventory for logs/stats ("tree=yes train=12x9 ...").
  std::string Describe() const;

 private:
  ModelBundle() = default;

  core::Status FinishInit();

  std::optional<tree::DecisionTree> tree_;
  std::optional<core::Dataset> train_;
  std::optional<cluster::ClusteringResult> kmeans_;
  std::optional<std::vector<assoc::AssociationRule>> rules_;

  std::unique_ptr<classify::KnnClassifier> knn_;
  std::unique_ptr<classify::NaiveBayesClassifier> nb_;
  std::vector<core::AttributeInfo> schema_;
  core::kernels::SoaBlock centers_soa_;
  AntecedentIndex antecedent_index_;
};

}  // namespace dmt::serve

#endif  // DMT_SERVE_MODEL_BUNDLE_H_
