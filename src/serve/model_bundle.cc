#include "serve/model_bundle.h"

#include <algorithm>
#include <utility>

#include "core/string_util.h"
#include "io/serialize.h"
#include "obs/trace.h"

namespace dmt::serve {

using core::Result;
using core::Status;

namespace {

/// Every split must read a schema attribute of the type it needs: a
/// numeric threshold a numeric attribute, an equals or multiway split a
/// categorical one. Prediction reads the column without checking.
Status CheckTreeAgainstSchema(const tree::DecisionTree& tree,
                              const std::vector<core::AttributeInfo>& schema) {
  auto type_name = [](bool numeric) {
    return numeric ? "numeric" : "categorical";
  };
  for (size_t n = 0; n < tree.num_nodes(); ++n) {
    const tree::TreeNode& node = tree.node(n);
    if (node.is_leaf) continue;
    if (node.attribute >= schema.size()) {
      return Status::InvalidArgument(core::StrFormat(
          "serving bundle: tree node %zu splits attribute %u, but the "
          "serving schema has %zu attributes",
          n, node.attribute, schema.size()));
    }
    const bool split_numeric = node.kind == tree::SplitKind::kNumericThreshold;
    const core::AttributeInfo& info = schema[node.attribute];
    const bool schema_numeric = info.type == core::AttributeType::kNumeric;
    if (split_numeric != schema_numeric) {
      return Status::InvalidArgument(core::StrFormat(
          "serving bundle: tree node %zu splits attribute %u ('%s') as "
          "%s, but the serving schema has it %s",
          n, node.attribute, info.name.c_str(), type_name(split_numeric),
          type_name(schema_numeric)));
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::shared_ptr<const ModelBundle>> ModelBundle::Load(
    const ModelPaths& paths) {
  obs::Span span("serve/bundle/load");
  auto bundle = std::shared_ptr<ModelBundle>(new ModelBundle());
  if (!paths.tree.empty()) {
    DMT_ASSIGN_OR_RETURN(bundle->tree_, io::LoadDecisionTree(paths.tree));
  }
  if (!paths.train.empty()) {
    DMT_ASSIGN_OR_RETURN(bundle->train_, io::LoadDataset(paths.train));
  }
  if (!paths.kmeans.empty()) {
    DMT_ASSIGN_OR_RETURN(bundle->kmeans_, io::LoadKMeansModel(paths.kmeans));
  }
  if (!paths.rules.empty()) {
    DMT_ASSIGN_OR_RETURN(bundle->rules_, io::LoadRuleSet(paths.rules));
  }
  DMT_RETURN_NOT_OK(bundle->FinishInit());
  span.AddArg("tree", bundle->tree_.has_value() ? 1 : 0);
  span.AddArg("train_rows",
              bundle->train_.has_value() ? bundle->train_->num_rows() : 0);
  span.AddArg("kmeans", bundle->kmeans_.has_value() ? 1 : 0);
  span.AddArg("rules",
              bundle->rules_.has_value() ? bundle->rules_->size() : 0);
  return std::shared_ptr<const ModelBundle>(std::move(bundle));
}

Result<std::shared_ptr<const ModelBundle>> ModelBundle::FromParts(
    std::optional<tree::DecisionTree> tree,
    std::optional<core::Dataset> train,
    std::optional<cluster::ClusteringResult> kmeans,
    std::optional<std::vector<assoc::AssociationRule>> rules) {
  auto bundle = std::shared_ptr<ModelBundle>(new ModelBundle());
  bundle->tree_ = std::move(tree);
  bundle->train_ = std::move(train);
  bundle->kmeans_ = std::move(kmeans);
  bundle->rules_ = std::move(rules);
  DMT_RETURN_NOT_OK(bundle->FinishInit());
  return std::shared_ptr<const ModelBundle>(std::move(bundle));
}

Status ModelBundle::FinishInit() {
  // Serving schema: training data is authoritative; a tree alone still
  // yields a usable schema from its captured names (an attribute is
  // categorical iff it captured category names).
  if (train_.has_value()) {
    schema_.reserve(train_->num_attributes());
    for (size_t a = 0; a < train_->num_attributes(); ++a) {
      schema_.push_back(train_->attribute(a));
    }
  } else if (tree_.has_value()) {
    const auto& names = tree::internal::TreeAccess::AttributeNames(*tree_);
    const auto& categories =
        tree::internal::TreeAccess::AttributeCategories(*tree_);
    schema_.reserve(names.size());
    for (size_t a = 0; a < names.size(); ++a) {
      core::AttributeInfo info;
      info.name = names[a];
      if (a < categories.size() && !categories[a].empty()) {
        info.type = core::AttributeType::kCategorical;
        info.categories = categories[a];
      }
      schema_.push_back(std::move(info));
    }
  }

  if (tree_.has_value()) {
    DMT_RETURN_NOT_OK(CheckTreeAgainstSchema(*tree_, schema_));
  }

  if (train_.has_value()) {
    if (train_->num_rows() == 0) {
      return Status::InvalidArgument(
          "serving bundle: training dataset is empty");
    }
    // Brute-force search stages the training points as an SoA block, so
    // every serving query runs through the batched distance kernel.
    classify::KnnOptions knn_options;
    knn_options.search = classify::KnnOptions::Search::kBruteForce;
    knn_options.k = std::min<size_t>(5, train_->num_rows());
    knn_ = std::make_unique<classify::KnnClassifier>(knn_options);
    DMT_RETURN_NOT_OK(knn_->Fit(*train_));
    nb_ = std::make_unique<classify::NaiveBayesClassifier>();
    DMT_RETURN_NOT_OK(nb_->Fit(*train_));
  }

  if (kmeans_.has_value()) {
    const core::PointSet& centers = kmeans_->centers;
    if (centers.empty()) {
      return Status::InvalidArgument(
          "serving bundle: k-means model has no centers");
    }
    centers_soa_.Assign(centers.data().data(), centers.size(),
                        centers.dim());
  }

  if (rules_.has_value()) {
    staged_rules_.reserve(rules_->size());
    for (const assoc::AssociationRule& rule : *rules_) {
      StagedRule staged;
      for (uint32_t item : rule.antecedent) {
        staged.antecedent_signature |=
            core::kernels::SignatureOfItem(item);
        staged.max_item = std::max(staged.max_item, item);
      }
      for (uint32_t item : rule.consequent) {
        staged.consequent_signature |=
            core::kernels::SignatureOfItem(item);
        staged.max_item = std::max(staged.max_item, item);
      }
      max_rule_item_ = std::max(max_rule_item_, staged.max_item);
      staged_rules_.push_back(staged);
    }
  }
  return Status::OK();
}

std::string ModelBundle::Describe() const {
  std::string out = "tree=";
  out += tree_.has_value()
             ? core::StrFormat("%zu-node", tree_->num_nodes())
             : "no";
  out += " train=";
  out += train_.has_value()
             ? core::StrFormat("%zux%zu", train_->num_rows(),
                               train_->num_attributes())
             : "no";
  out += " kmeans=";
  out += kmeans_.has_value()
             ? core::StrFormat("k%zu-d%zu", kmeans_->centers.size(),
                               kmeans_->centers.dim())
             : "no";
  out += " rules=";
  out += rules_.has_value() ? core::StrFormat("%zu", rules_->size()) : "no";
  return out;
}

}  // namespace dmt::serve
