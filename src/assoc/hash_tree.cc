#include "assoc/hash_tree.h"

#include <algorithm>

namespace dmt::assoc {

HashTree::HashTree(const std::vector<Itemset>& itemsets,
                   std::span<const uint32_t> ids, size_t k, size_t fanout,
                   size_t max_leaf_size)
    : itemsets_(&itemsets),
      k_(k),
      fanout_(fanout),
      max_leaf_size_(max_leaf_size),
      root_(std::make_unique<Node>()) {
  DMT_CHECK_GE(k, 1u);
  DMT_CHECK_GE(fanout, 2u);
  DMT_CHECK_GE(max_leaf_size, 1u);
  for (uint32_t id : ids) {
    DMT_CHECK_EQ(itemsets[id].size(), k_);
    Insert(root_.get(), 0, id);
  }
}

void HashTree::Insert(Node* node, size_t depth, uint32_t candidate_id) {
  while (!node->is_leaf) {
    size_t bucket = Bucket((*itemsets_)[candidate_id][depth]);
    node = node->children[bucket].get();
    ++depth;
  }
  node->candidate_ids.push_back(candidate_id);
  // Split overfull leaves unless we've already consumed all k items on the
  // path (identical hash paths can't be separated further).
  if (node->candidate_ids.size() > max_leaf_size_ && depth < k_) {
    SplitLeaf(node, depth);
  }
}

void HashTree::SplitLeaf(Node* node, size_t depth) {
  std::vector<uint32_t> ids = std::move(node->candidate_ids);
  node->candidate_ids.clear();
  node->is_leaf = false;
  node->children.resize(fanout_);
  for (auto& child : node->children) {
    child = std::make_unique<Node>();
    ++num_nodes_;
  }
  for (uint32_t id : ids) {
    Insert(node->children[Bucket((*itemsets_)[id][depth])].get(), depth + 1,
           id);
  }
}

void HashTree::CountTransaction(std::span<const core::ItemId> transaction,
                                CountingState& state,
                                std::span<uint32_t> counts) const {
  DMT_DCHECK(counts.size() == itemsets_->size());
  DMT_DCHECK(state.stamps_.size() == itemsets_->size());
  if (transaction.size() < k_) return;
  ++state.serial_;
  if (state.serial_ == 0) {
    // Serial wrapped; reset stamps so no stale stamp matches.
    std::fill(state.stamps_.begin(), state.stamps_.end(), 0);
    state.serial_ = 1;
  }
  Descend(root_.get(), 0, transaction, 0, state, counts);
}

void HashTree::Descend(const Node* node, size_t depth,
                       std::span<const core::ItemId> transaction,
                       size_t start, CountingState& state,
                       std::span<uint32_t> counts) const {
  if (node->is_leaf) {
    // Verify containment of each stored candidate. The path pins down only
    // hash buckets, not exact items, so a subset check is still required;
    // the stamp guarantees each candidate is examined once per transaction.
    for (uint32_t id : node->candidate_ids) {
      if (state.stamps_[id] == state.serial_) continue;
      state.stamps_[id] = state.serial_;
      if (IsSubsetOf((*itemsets_)[id], transaction)) ++counts[id];
    }
    return;
  }
  // Try every remaining transaction item as the depth-th candidate item,
  // leaving at least k - depth - 1 items after it.
  size_t needed_after = k_ - depth - 1;
  for (size_t i = start; i + needed_after < transaction.size(); ++i) {
    const Node* child = node->children[Bucket(transaction[i])].get();
    Descend(child, depth + 1, transaction, i + 1, state, counts);
  }
}

SupportCounter::SupportCounter(const std::vector<Itemset>& itemsets)
    : num_itemsets_(itemsets.size()) {
  // ids_by_size[k - 1] lists the ids of the k-itemsets in list order.
  std::vector<std::vector<uint32_t>> ids_by_size;
  for (uint32_t id = 0; id < itemsets.size(); ++id) {
    const size_t k = itemsets[id].size();
    DMT_CHECK_GE(k, 1u);
    if (ids_by_size.size() < k) ids_by_size.resize(k);
    ids_by_size[k - 1].push_back(id);
  }
  if (ids_by_size.empty()) return;
  for (uint32_t id : ids_by_size[0]) {
    const core::ItemId item = itemsets[id][0];
    if (item >= item_to_id_.size()) {
      item_to_id_.resize(item + 1, kNoSingleton);
    }
    DMT_CHECK_EQ(item_to_id_[item], kNoSingleton);
    item_to_id_[item] = id;
  }
  for (size_t k = 2; k <= ids_by_size.size(); ++k) {
    if (!ids_by_size[k - 1].empty()) {
      trees_.emplace_back(itemsets, ids_by_size[k - 1], k);
    }
  }
}

void SupportCounter::AddSingletons(
    std::span<const core::ItemId> transaction,
    std::span<uint32_t> counts) const {
  for (core::ItemId item : transaction) {
    if (item >= item_to_id_.size()) break;  // items are sorted
    if (item_to_id_[item] != kNoSingleton) ++counts[item_to_id_[item]];
  }
}

}  // namespace dmt::assoc
