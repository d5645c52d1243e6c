// Candidate support counting — the central device of the Apriori
// algorithm (VLDB'94 §2.1.2). A HashTree's interior nodes hash on the item
// at the node's depth and its leaves hold candidate ids, so counting a
// transaction descends only the branches reachable from its items and
// touches a small fraction of the candidates. SupportCounter puts one tree
// per itemset size (and an item table for singletons) behind one call; it
// is how the library counts every candidate list against a database.
#ifndef DMT_ASSOC_HASH_TREE_H_
#define DMT_ASSOC_HASH_TREE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "assoc/itemset.h"
#include "core/check.h"
#include "core/parallel.h"

namespace dmt::assoc {

/// Hash tree over the candidates `ids` of a list of itemsets, all of one
/// size k. Candidate ids and counts index the whole list.
class HashTree {
 public:
  /// `itemsets` must outlive the tree; every itemsets[id] for id in `ids`
  /// must have size `k` >= 1. `fanout` is the hash-table width of
  /// interior nodes; `max_leaf_size` is the number of candidates a leaf
  /// holds before splitting (leaves at depth k never split).
  HashTree(const std::vector<Itemset>& itemsets,
           std::span<const uint32_t> ids, size_t k, size_t fanout = 128,
           size_t max_leaf_size = 16);

  /// Reusable per-call scratch state; lets one buffer serve a whole
  /// database scan without reallocation.
  class CountingState {
   public:
    explicit CountingState(size_t num_itemsets) : stamps_(num_itemsets, 0) {}

   private:
    friend class HashTree;
    std::vector<uint32_t> stamps_;
    uint32_t serial_ = 0;
  };

  /// Adds one to counts[id] for each of the tree's candidates contained in
  /// `transaction` (sorted), exactly once per contained candidate
  /// (hash-bucket collisions can route the walk to a leaf several times;
  /// `state` deduplicates). `counts` and `state` span the whole list.
  void CountTransaction(std::span<const core::ItemId> transaction,
                        CountingState& state,
                        std::span<uint32_t> counts) const;

  /// Number of nodes, for introspection/tests.
  size_t num_nodes() const { return num_nodes_; }

 private:
  struct Node {
    bool is_leaf = true;
    std::vector<uint32_t> candidate_ids;           // leaf payload
    std::vector<std::unique_ptr<Node>> children;   // interior: size fanout
  };

  void Insert(Node* node, size_t depth, uint32_t candidate_id);
  void SplitLeaf(Node* node, size_t depth);
  void Descend(const Node* node, size_t depth,
               std::span<const core::ItemId> transaction, size_t start,
               CountingState& state, std::span<uint32_t> counts) const;

  size_t Bucket(core::ItemId item) const { return item % fanout_; }

  const std::vector<Itemset>* itemsets_;
  size_t k_;
  size_t fanout_;
  size_t max_leaf_size_;
  size_t num_nodes_ = 1;
  std::unique_ptr<Node> root_;
};

/// Exact supports of a list of itemsets of mixed sizes. Singletons go
/// through an item -> id table; each larger size gets one HashTree over
/// the ids of that size. Nothing is copied: the counter indexes the
/// caller's list, which must outlive it.
class SupportCounter {
 public:
  /// `itemsets` are sorted, non-empty and distinct, in any order.
  explicit SupportCounter(const std::vector<Itemset>& itemsets);

  /// Adds the support of itemsets[i] in `db` to counts[i]. `db` is any
  /// sorted CSR with size() and transaction(t) (core::TransactionDatabase,
  /// io::MappedTransactionDatabase). Chunks of `db` are counted through
  /// core::CountPartitioned, so every thread count gives the same counts;
  /// a chunk counts its singletons first, then each tree by ascending
  /// size.
  template <typename Database>
  void Count(const Database& db, const core::ParallelContext& ctx,
             std::span<uint32_t> counts) const {
    DMT_CHECK_EQ(counts.size(), num_itemsets_);
    core::CountPartitioned(
        ctx, db.size(), counts,
        [&](size_t begin, size_t end, std::span<uint32_t> local) {
          if (!item_to_id_.empty()) {
            for (size_t t = begin; t < end; ++t) {
              AddSingletons(db.transaction(t), local);
            }
          }
          HashTree::CountingState state(num_itemsets_);
          for (const HashTree& tree : trees_) {
            for (size_t t = begin; t < end; ++t) {
              tree.CountTransaction(db.transaction(t), state, local);
            }
          }
        });
  }

 private:
  static constexpr uint32_t kNoSingleton = UINT32_MAX;

  void AddSingletons(std::span<const core::ItemId> transaction,
                     std::span<uint32_t> counts) const;

  size_t num_itemsets_;
  std::vector<uint32_t> item_to_id_;
  std::vector<HashTree> trees_;
};

}  // namespace dmt::assoc

#endif  // DMT_ASSOC_HASH_TREE_H_
