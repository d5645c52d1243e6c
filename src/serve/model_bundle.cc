#include "serve/model_bundle.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
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

Result<AntecedentIndex> AntecedentIndex::Build(
    const std::vector<assoc::AssociationRule>& rules) {
  constexpr size_t kMaxOffset = std::numeric_limits<uint32_t>::max();
  if (rules.size() >= kMaxOffset) {
    return Status::InvalidArgument(core::StrFormat(
        "serving bundle: %zu rules do not fit a 32-bit rule index",
        rules.size()));
  }
  // One hashing pass gives every rule its group, numbered in order of
  // first appearance. Slots pack a 32-bit hash tag and the group id + 1,
  // and a group is keyed by the antecedent of the rule that opened it.
  // The table doubles before it is half full, so its size follows the
  // distinct antecedents, not the rules.
  std::vector<uint64_t> slots;
  size_t mask = 0;
  int shift = 0;
  std::vector<uint32_t> group_of(rules.size());
  std::vector<uint32_t> opened_by;   // per group: its first rule
  std::vector<uint32_t> group_size;  // per group: its rule count
  std::vector<uint64_t> group_hash;  // per group: its antecedent's hash
  auto grow = [&](size_t capacity) {
    slots.assign(capacity, 0);
    mask = capacity - 1;
    shift = 64 - std::countr_zero(capacity);
    for (size_t g = 0; g < group_hash.size(); ++g) {
      size_t s = group_hash[g] >> shift;
      while (slots[s] != 0) s = (s + 1) & mask;
      slots[s] = (group_hash[g] << 32) | (g + 1);
    }
  };
  grow(64);
  for (size_t r = 0; r < rules.size(); ++r) {
    if (2 * (opened_by.size() + 1) > slots.size()) grow(2 * slots.size());
    const std::vector<uint32_t>& antecedent = rules[r].antecedent;
    // FNV-1a over the items, then a Fibonacci multiply so the top bits
    // (the slot) depend on every item.
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (uint32_t item : antecedent) {
      hash ^= item;
      hash *= 0x100000001b3ULL;
    }
    hash *= 0x9E3779B97F4A7C15ULL;
    for (size_t s = hash >> shift;; s = (s + 1) & mask) {
      uint64_t& slot = slots[s];
      if (slot == 0) {
        group_of[r] = static_cast<uint32_t>(opened_by.size());
        opened_by.push_back(static_cast<uint32_t>(r));
        group_size.push_back(1);
        group_hash.push_back(hash);
        slot = (hash << 32) | opened_by.size();
        break;
      }
      const uint32_t group = static_cast<uint32_t>(slot) - 1;
      if ((slot >> 32) == (hash & 0xFFFFFFFFu) &&
          rules[opened_by[group]].antecedent == antecedent) {
        group_of[r] = group;
        ++group_size[group];
        break;
      }
    }
  }

  // Lexicographic order of the groups: a sort of the distinct
  // antecedents, never of the rules.
  const size_t num_groups = opened_by.size();
  std::vector<uint32_t> order(num_groups);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return rules[opened_by[a]].antecedent < rules[opened_by[b]].antecedent;
  });

  AntecedentIndex index;
  index.item_offsets_.resize(num_groups + 1);
  index.rule_offsets_.resize(num_groups + 1);
  std::vector<uint32_t> rank(num_groups);
  size_t total_items = 0;
  for (size_t g = 0; g < num_groups; ++g) {
    rank[order[g]] = static_cast<uint32_t>(g);
    total_items += rules[opened_by[order[g]]].antecedent.size();
    if (total_items > kMaxOffset) {
      return Status::InvalidArgument(
          "serving bundle: the rules' distinct antecedents hold more "
          "items than a 32-bit offset reaches");
    }
    index.item_offsets_[g + 1] = static_cast<uint32_t>(total_items);
    index.rule_offsets_[g + 1] =
        index.rule_offsets_[g] + group_size[order[g]];
  }
  index.items_.reserve(total_items);
  const bool has_empty =
      num_groups > 0 && rules[opened_by[order[0]]].antecedent.empty();
  index.first_items_.reserve(num_groups - (has_empty ? 1 : 0));
  for (uint32_t group : order) {
    const std::vector<uint32_t>& antecedent =
        rules[opened_by[group]].antecedent;
    index.items_.insert(index.items_.end(), antecedent.begin(),
                        antecedent.end());
    if (!antecedent.empty()) index.first_items_.push_back(antecedent.front());
  }
  // Rules in index order land at their group's cursor, so every group's
  // list comes out ascending without a sort.
  index.rule_ids_.resize(rules.size());
  std::vector<uint32_t> cursor(index.rule_offsets_.begin(),
                               index.rule_offsets_.end() - 1);
  for (size_t r = 0; r < rules.size(); ++r) {
    index.rule_ids_[cursor[rank[group_of[r]]]++] = static_cast<uint32_t>(r);
  }
  return index;
}

std::pair<size_t, size_t> AntecedentIndex::GroupsStartingWith(
    uint32_t item) const {
  const auto [lo, hi] =
      std::equal_range(first_items_.begin(), first_items_.end(), item);
  const size_t skip = num_groups() - first_items_.size();
  return {skip + static_cast<size_t>(lo - first_items_.begin()),
          skip + static_cast<size_t>(hi - first_items_.begin())};
}

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
    DMT_ASSIGN_OR_RETURN(antecedent_index_, AntecedentIndex::Build(*rules_));
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
