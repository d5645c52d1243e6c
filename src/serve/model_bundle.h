// The read-only model state a serving process holds: trained artifacts
// loaded from PR-6 DMTBIN01 containers (or handed over in-process for
// tests/benches), plus everything precomputed once at load so per-batch
// work touches only staged data:
//
//   - k-means centers staged dimension-major (SoaBlock) so nearest-center
//     assignment hits the batched squared_euclidean_to_many kernel
//   - per-rule 64-bit antecedent/consequent Bloom signatures gating the
//     exact bitset containment scan
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
#include <string>
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

/// Per-rule data staged for the recommendation scan.
struct StagedRule {
  uint64_t antecedent_signature = 0;
  uint64_t consequent_signature = 0;
  /// Largest item id in antecedent ∪ consequent (bitset sizing guard).
  uint32_t max_item = 0;
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

  const std::vector<StagedRule>& staged_rules() const {
    return staged_rules_;
  }
  /// Largest item id across all rules (sizes the shared per-batch bitset;
  /// 0 when there are no rules).
  uint32_t max_rule_item() const { return max_rule_item_; }

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
  std::vector<StagedRule> staged_rules_;
  uint32_t max_rule_item_ = 0;
};

}  // namespace dmt::serve

#endif  // DMT_SERVE_MODEL_BUNDLE_H_
