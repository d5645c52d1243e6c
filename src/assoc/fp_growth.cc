#include "assoc/fp_growth.h"

#include <algorithm>

#include "core/check.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmt::assoc {

using core::ItemId;
using core::Result;
using core::TransactionDatabase;

namespace {

/// FP-tree node; nodes live in one flat arena, links are indices. Nodes
/// carry the *header position* of their item (the item itself is
/// header[pos].item), so conditional-base recounting and position
/// remapping index flat arrays instead of hash maps.
struct FpNode {
  uint32_t pos = 0;
  uint32_t count = 0;
  uint32_t parent = kNull;
  uint32_t node_link = kNull;  // next node carrying the same item
  // (pos, node index) pairs; branching factors are small, linear search.
  std::vector<std::pair<uint32_t, uint32_t>> children;

  static constexpr uint32_t kNull = 0xffffffffu;
};

struct HeaderEntry {
  ItemId item = 0;
  uint32_t total_count = 0;
  uint32_t link_head = FpNode::kNull;
};

/// An FP-tree: arena of nodes plus a header table ordered by descending
/// total count (the construction order of the tree paths).
struct FpTree {
  std::vector<FpNode> nodes;  // nodes[0] is the root
  std::vector<HeaderEntry> header;

  FpTree() { nodes.emplace_back(); }

  uint32_t AddChild(uint32_t parent, uint32_t pos) {
    for (auto& [child_pos, child_index] : nodes[parent].children) {
      if (child_pos == pos) return child_index;
    }
    uint32_t index = static_cast<uint32_t>(nodes.size());
    FpNode node;
    node.pos = pos;
    node.parent = parent;
    nodes.push_back(node);
    nodes[parent].children.emplace_back(pos, index);
    return index;
  }

  /// Inserts one (already ordered, filtered) path with a count, wiring
  /// node links through `link_tail` (per header position).
  void InsertPath(std::span<const uint32_t> header_positions, uint32_t count,
                  std::vector<uint32_t>* link_tails) {
    uint32_t current = 0;
    for (uint32_t pos : header_positions) {
      uint32_t before = static_cast<uint32_t>(nodes.size());
      uint32_t child = AddChild(current, pos);
      if (child >= before) {
        // Fresh node: append to the item's node-link chain.
        if ((*link_tails)[pos] == FpNode::kNull) {
          header[pos].link_head = child;
        } else {
          nodes[(*link_tails)[pos]].node_link = child;
        }
        (*link_tails)[pos] = child;
      }
      nodes[child].count += count;
      current = child;
    }
  }

  /// True when the tree consists of a single chain below the root.
  bool IsSinglePath() const {
    uint32_t current = 0;
    while (true) {
      const auto& children = nodes[current].children;
      if (children.empty()) return true;
      if (children.size() > 1) return false;
      current = children[0].second;
    }
  }
};

/// One weighted path of a conditional pattern base, as positions into the
/// parent tree's header (root-to-node order after the reverse).
struct WeightedPath {
  std::vector<uint32_t> positions;
  uint32_t count = 0;
};

class FpMiner {
 public:
  FpMiner(uint32_t min_count, size_t max_size, bool single_path_opt,
          MiningResult* result)
      : min_count_(min_count),
        max_size_(max_size),
        single_path_opt_(single_path_opt),
        result_(result) {}

  /// Mines every header entry of `tree` with the given suffix, from least
  /// to most frequent (bottom-up).
  void Mine(const FpTree& tree, const Itemset& suffix) {
    for (size_t h = tree.header.size(); h-- > 0;) {
      MineEntry(tree, h, suffix);
    }
  }

  /// Mines one header entry: emits its pattern, projects its conditional
  /// pattern base, and recurses into the conditional tree. Entries are
  /// independent of each other, which is what makes the top level a task
  /// range for MinePartitioned.
  void MineEntry(const FpTree& tree, size_t h, const Itemset& suffix) {
    const HeaderEntry& entry = tree.header[h];
    Itemset pattern = suffix;
    pattern.insert(
        std::lower_bound(pattern.begin(), pattern.end(), entry.item),
        entry.item);
    Emit(pattern, entry.total_count);
    if (max_size_ != 0 && pattern.size() >= max_size_) return;

    // Conditional pattern base: prefix paths of every node of this item,
    // recorded as positions into `tree`'s header.
    std::vector<WeightedPath> base;
    for (uint32_t node = entry.link_head; node != FpNode::kNull;
         node = tree.nodes[node].node_link) {
      WeightedPath path;
      path.count = tree.nodes[node].count;
      for (uint32_t up = tree.nodes[node].parent; up != 0;
           up = tree.nodes[up].parent) {
        path.positions.push_back(tree.nodes[up].pos);
      }
      if (path.positions.empty()) continue;
      std::reverse(path.positions.begin(), path.positions.end());
      base.push_back(std::move(path));
    }
    if (base.empty()) return;
    FpTree conditional = BuildConditionalTree(base, tree);
    if (conditional.header.empty()) return;
    if (single_path_opt_ && conditional.IsSinglePath()) {
      EmitSinglePathCombinations(conditional, pattern);
    } else {
      Mine(conditional, pattern);
    }
  }

  /// Emits every combination of the single path's items (support = the
  /// count of the deepest selected node — counts are non-increasing down
  /// the path, so each node's count is the support of any combination
  /// whose deepest member it is).
  void EmitSinglePathCombinations(const FpTree& tree, const Itemset& suffix) {
    std::vector<std::pair<ItemId, uint32_t>> path;  // (item, count)
    uint32_t current = 0;
    while (!tree.nodes[current].children.empty()) {
      current = tree.nodes[current].children[0].second;
      path.emplace_back(tree.header[tree.nodes[current].pos].item,
                        tree.nodes[current].count);
    }
    if (path.size() > 30) {
      // Too many combinations to enumerate directly; recurse instead.
      Mine(tree, suffix);
      return;
    }
    const size_t n = path.size();
    Itemset items;
    for (uint32_t mask = 1; mask < (1u << n); ++mask) {
      // The deepest selected node bounds the combination's support.
      uint32_t support = 0;
      items = suffix;
      for (size_t bit = 0; bit < n; ++bit) {
        if (mask & (1u << bit)) {
          items.insert(
              std::lower_bound(items.begin(), items.end(), path[bit].first),
              path[bit].first);
          support = path[bit].second;
        }
      }
      if (max_size_ != 0 && items.size() > max_size_) continue;
      Emit(items, support);
    }
  }

  /// Builds the top-level tree from the database.
  static FpTree BuildRootTree(const TransactionDatabase& db,
                              uint32_t min_count, size_t* num_frequent) {
    FpTree tree;
    std::vector<uint32_t> supports = db.ItemSupports();
    // Header: frequent items by descending count, ties by ascending id.
    for (ItemId item = 0; item < supports.size(); ++item) {
      if (supports[item] >= min_count) {
        tree.header.push_back({item, supports[item], FpNode::kNull});
      }
    }
    std::stable_sort(tree.header.begin(), tree.header.end(),
                     [](const HeaderEntry& a, const HeaderEntry& b) {
                       return a.total_count > b.total_count;
                     });
    *num_frequent = tree.header.size();
    std::vector<uint32_t> item_to_pos(supports.size(), FpNode::kNull);
    for (uint32_t pos = 0; pos < tree.header.size(); ++pos) {
      item_to_pos[tree.header[pos].item] = pos;
    }
    std::vector<uint32_t> link_tails(tree.header.size(), FpNode::kNull);
    std::vector<uint32_t> positions;
    for (size_t t = 0; t < db.size(); ++t) {
      positions.clear();
      for (ItemId item : db.transaction(t)) {
        if (item_to_pos[item] != FpNode::kNull) {
          positions.push_back(item_to_pos[item]);
        }
      }
      std::sort(positions.begin(), positions.end());
      tree.InsertPath(positions, 1, &link_tails);
    }
    return tree;
  }

 private:
  void Emit(const Itemset& items, uint32_t support) {
    result_->itemsets.push_back({items, support});
  }

  /// Projects a conditional tree from `base`. Every position in `base`
  /// indexes `parent`'s header, so the recount and the parent-to-child
  /// position remap are flat arrays over the parent header size.
  FpTree BuildConditionalTree(const std::vector<WeightedPath>& base,
                              const FpTree& parent) {
    const size_t parent_size = parent.header.size();
    base_counts_.assign(parent_size, 0);
    for (const auto& path : base) {
      for (uint32_t pos : path.positions) base_counts_[pos] += path.count;
    }
    // Surviving (parent position, count) pairs, ordered by descending
    // count with ties by ascending item id.
    std::vector<std::pair<uint32_t, uint32_t>> kept;
    for (uint32_t pos = 0; pos < parent_size; ++pos) {
      if (base_counts_[pos] >= min_count_) {
        kept.emplace_back(pos, base_counts_[pos]);
      }
    }
    std::sort(kept.begin(), kept.end(),
              [&parent](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return parent.header[a.first].item <
                       parent.header[b.first].item;
              });
    FpTree tree;
    pos_map_.assign(parent_size, FpNode::kNull);
    for (uint32_t pos = 0; pos < kept.size(); ++pos) {
      tree.header.push_back(
          {parent.header[kept[pos].first].item, kept[pos].second,
           FpNode::kNull});
      pos_map_[kept[pos].first] = pos;
    }
    ++result_->conditional_trees_built;
    if (tree.header.empty()) return tree;
    std::vector<uint32_t> link_tails(tree.header.size(), FpNode::kNull);
    std::vector<uint32_t> positions;
    for (const auto& path : base) {
      positions.clear();
      for (uint32_t pos : path.positions) {
        if (pos_map_[pos] != FpNode::kNull) {
          positions.push_back(pos_map_[pos]);
        }
      }
      std::sort(positions.begin(), positions.end());
      tree.InsertPath(positions, path.count, &link_tails);
    }
    result_->fp_nodes_allocated += tree.nodes.size() - 1;
    return tree;
  }

  uint32_t min_count_;
  size_t max_size_;
  bool single_path_opt_;
  MiningResult* result_;
  // Flat per-parent-header scratch, reused across BuildConditionalTree
  // calls (each call completes before its tree is recursed into).
  std::vector<uint32_t> base_counts_;
  std::vector<uint32_t> pos_map_;
};

}  // namespace

Result<MiningResult> MineFpGrowth(const TransactionDatabase& db,
                                  const MiningParams& params,
                                  const FpGrowthOptions& options) {
  DMT_RETURN_NOT_OK(params.Validate());
  const uint32_t min_count = AbsoluteMinSupport(db, params.min_support);
  const core::ParallelContext ctx(params.num_threads);

  obs::Counter trees_counter("assoc/fp_growth/conditional_trees_built");
  obs::Counter nodes_counter("assoc/fp_growth/fp_nodes_allocated");
  obs::Span mine_span("assoc/fp_growth/mine");
  mine_span.AttachCounter(trees_counter);
  mine_span.AttachCounter(nodes_counter);

  MiningResult result;
  size_t num_frequent_items = 0;
  FpTree root = [&] {
    obs::Span build_span("assoc/fp_growth/build_tree");
    return FpMiner::BuildRootTree(db, min_count, &num_frequent_items);
  }();
  result.fp_nodes_allocated += root.nodes.size() - 1;
  if (!root.header.empty()) {
    obs::Span grow_span("assoc/fp_growth/grow");
    if (options.single_path_optimization && root.IsSinglePath()) {
      // Degenerate database: the whole tree is one chain, so every
      // frequent itemset is a combination of the chain's items.
      FpMiner miner(min_count, params.max_itemset_size,
                    options.single_path_optimization, &result);
      miner.EmitSinglePathCombinations(root, {});
    } else {
      // Top-level projection decomposition: each header entry's
      // conditional tree is mined independently, in the serial bottom-up
      // order (task i handles entry n-1-i), chunked contiguously with
      // per-chunk result scratch merged in chunk order.
      const size_t n = root.header.size();
      MinePartitioned(
          ctx, n, &result,
          [&](size_t begin, size_t end, MiningResult* out) {
            FpMiner miner(min_count, params.max_itemset_size,
                          options.single_path_optimization, out);
            for (size_t i = begin; i < end; ++i) {
              miner.MineEntry(root, n - 1 - i, {});
            }
          });
    }
  }
  // The result owns the merged tallies; publish them once, while the
  // mine span that attaches both counters is still open.
  trees_counter.Add(result.conditional_trees_built);
  nodes_counter.Add(result.fp_nodes_allocated);
  SortCanonical(&result.itemsets);

  // Reconstruct per-size pass stats (pattern growth has no candidates
  // beyond the itemsets it actually examines).
  size_t max_size = 0;
  for (const auto& itemset : result.itemsets) {
    max_size = std::max(max_size, itemset.items.size());
  }
  result.passes.push_back({1, db.item_universe(), num_frequent_items});
  for (size_t k = 2; k <= max_size; ++k) {
    size_t count = result.CountOfSize(k);
    result.passes.push_back({k, count, count});
  }
  return result;
}

}  // namespace dmt::assoc
