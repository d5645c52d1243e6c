#include "assoc/fp_growth.h"

#include <algorithm>
#include <deque>

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
/// remapping index flat arrays instead of hash maps. There are no child
/// links: FpTree::Build creates the nodes in preorder, so the only
/// questions asked of children (is the tree one chain, and what is on it)
/// are answered by the node order itself.
struct FpNode {
  uint32_t pos = 0;
  uint32_t count = 0;
  uint32_t parent = kNull;
  uint32_t node_link = kNull;  // next node carrying the same item

  static constexpr uint32_t kNull = 0xffffffffu;
};

struct HeaderEntry {
  ItemId item = 0;
  uint32_t total_count = 0;
  uint32_t link_head = FpNode::kNull;
};

/// Weighted paths in one flat buffer, reused from tree to tree: path i is
/// the positions [begin, begin + size) with weight `count`.
struct PathBuffer {
  struct Path {
    size_t begin = 0;
    uint32_t size = 0;
    uint32_t count = 0;
  };

  std::vector<uint32_t> positions;
  std::vector<Path> paths;

  std::span<const uint32_t> Positions(const Path& path) const {
    return {positions.data() + path.begin, path.size};
  }
};

/// An FP-tree: arena of nodes plus a header table ordered by descending
/// total count (the construction order of the tree paths).
struct FpTree {
  std::vector<FpNode> nodes;  // nodes[0] is the root
  std::vector<HeaderEntry> header;

  /// Rebuilds the nodes from `buffer`, whose paths hold ascending
  /// positions into the (already filled) header; empty paths are allowed.
  /// Sorted lexicographically, each path shares its prefix with the path
  /// before it and every node below that prefix is new, so there is no
  /// child search. A tree's nodes are its distinct path prefixes, so the
  /// tree is the same in any path order; only the node numbering (preorder
  /// here) depends on the build.
  void Build(PathBuffer* buffer) {
    std::sort(buffer->paths.begin(), buffer->paths.end(),
              [buffer](const PathBuffer::Path& a, const PathBuffer::Path& b) {
                return std::ranges::lexicographical_compare(
                    buffer->Positions(a), buffer->Positions(b));
              });
    nodes.assign(1, FpNode{});
    std::span<const uint32_t> previous;
    uint32_t tail = 0;  // deepest node of the previous path
    for (const PathBuffer::Path& path : buffer->paths) {
      std::span<const uint32_t> positions = buffer->Positions(path);
      const size_t shared =
          std::ranges::mismatch(positions, previous).in1 - positions.begin();
      uint32_t node = tail;
      for (size_t depth = previous.size(); depth > shared; --depth) {
        node = nodes[node].parent;
      }
      tail = node;
      for (; node != 0; node = nodes[node].parent) {
        nodes[node].count += path.count;
      }
      for (size_t depth = shared; depth < positions.size(); ++depth) {
        const uint32_t pos = positions[depth];
        const auto index = static_cast<uint32_t>(nodes.size());
        nodes.push_back({pos, path.count, tail, header[pos].link_head});
        header[pos].link_head = index;
        tail = index;
      }
      previous = positions;
    }
  }

  /// True when the tree consists of a single chain below the root: in
  /// preorder, exactly when every node hangs off the node before it.
  bool IsSinglePath() const {
    for (uint32_t i = 1; i < nodes.size(); ++i) {
      if (nodes[i].parent != i - 1) return false;
    }
    return true;
  }
};

class FpMiner {
 public:
  FpMiner(uint32_t min_count, size_t max_size, MiningResult* result)
      : min_count_(min_count), max_size_(max_size), result_(result) {}

  /// Mines every header entry of `tree` with the given suffix, from least
  /// to most frequent (bottom-up). `depth` picks the scratch tree the
  /// entries' conditional trees are built in.
  void Mine(const FpTree& tree, const Itemset& suffix, size_t depth) {
    for (size_t h = tree.header.size(); h-- > 0;) {
      MineEntry(tree, h, suffix, depth);
    }
  }

  /// Mines one header entry: emits its pattern, projects its conditional
  /// pattern base, and recurses into the conditional tree. Entries are
  /// independent of each other, which is what makes the top level a task
  /// range for MinePartitioned.
  void MineEntry(const FpTree& tree, size_t h, const Itemset& suffix,
                 size_t depth) {
    const HeaderEntry& entry = tree.header[h];
    Itemset pattern = suffix;
    pattern.insert(
        std::lower_bound(pattern.begin(), pattern.end(), entry.item),
        entry.item);
    Emit(pattern, entry.total_count);
    if (max_size_ != 0 && pattern.size() >= max_size_) return;

    // One conditional tree per depth, rebuilt in place for each entry, so
    // every arena keeps its capacity. A deque never moves its elements,
    // so `tree` (one depth up) stays valid while a new depth is added.
    if (conditionals_.size() <= depth) conditionals_.emplace_back();
    FpTree& conditional = conditionals_[depth];
    if (!BuildConditionalTree(tree, entry, &conditional)) return;
    if (conditional.IsSinglePath()) {
      EmitSinglePathCombinations(conditional, pattern, depth + 1);
    } else {
      Mine(conditional, pattern, depth + 1);
    }
  }

  /// Emits every combination of the single path's items (support = the
  /// count of the deepest selected node — counts are non-increasing down
  /// the path, so each node's count is the support of any combination
  /// whose deepest member it is). The chain is nodes 1..n in order.
  void EmitSinglePathCombinations(const FpTree& tree, const Itemset& suffix,
                                  size_t depth) {
    const size_t n = tree.nodes.size() - 1;
    if (n > 30) {
      // Too many combinations to enumerate directly; recurse instead.
      Mine(tree, suffix, depth);
      return;
    }
    Itemset items;
    for (uint32_t mask = 1; mask < (1u << n); ++mask) {
      // The deepest selected node bounds the combination's support.
      uint32_t support = 0;
      items = suffix;
      for (size_t bit = 0; bit < n; ++bit) {
        if (mask & (1u << bit)) {
          const FpNode& node = tree.nodes[bit + 1];
          const ItemId item = tree.header[node.pos].item;
          items.insert(std::lower_bound(items.begin(), items.end(), item),
                       item);
          support = node.count;
        }
      }
      if (max_size_ != 0 && items.size() > max_size_) continue;
      Emit(items, support);
    }
  }

  /// Builds the top-level tree from the database.
  static void BuildRootTree(const TransactionDatabase& db, uint32_t min_count,
                            FpTree* tree) {
    std::vector<uint32_t> supports = db.ItemSupports();
    // Header: frequent items by descending count, ties by ascending id.
    for (ItemId item = 0; item < supports.size(); ++item) {
      if (supports[item] >= min_count) {
        tree->header.push_back({item, supports[item], FpNode::kNull});
      }
    }
    std::stable_sort(tree->header.begin(), tree->header.end(),
                     [](const HeaderEntry& a, const HeaderEntry& b) {
                       return a.total_count > b.total_count;
                     });
    std::vector<uint32_t> item_to_pos(supports.size(), FpNode::kNull);
    for (uint32_t pos = 0; pos < tree->header.size(); ++pos) {
      item_to_pos[tree->header[pos].item] = pos;
    }
    PathBuffer buffer;
    for (size_t t = 0; t < db.size(); ++t) {
      const size_t begin = buffer.positions.size();
      for (ItemId item : db.transaction(t)) {
        if (item_to_pos[item] != FpNode::kNull) {
          buffer.positions.push_back(item_to_pos[item]);
        }
      }
      const auto size = static_cast<uint32_t>(buffer.positions.size() - begin);
      if (size == 0) continue;
      std::sort(buffer.positions.begin() + begin, buffer.positions.end());
      buffer.paths.push_back({begin, size, 1});
    }
    tree->Build(&buffer);
  }

 private:
  void Emit(const Itemset& items, uint32_t support) {
    result_->itemsets.push_back({items, support});
  }

  /// Projects the conditional tree of `entry` (an entry of `parent`'s
  /// header) into `tree`. Returns false when there is nothing to mine:
  /// the pattern base is empty (no tree is counted) or no item of it is
  /// frequent. Every base position indexes `parent`'s header, so the
  /// recount and the parent-to-child position remap are flat arrays over
  /// the parent header size.
  bool BuildConditionalTree(const FpTree& parent, const HeaderEntry& entry,
                            FpTree* tree) {
    // Conditional pattern base: the prefix path of every node of this
    // item, leaf to root, recounted on the way.
    const size_t parent_size = parent.header.size();
    base_counts_.assign(parent_size, 0);
    paths_.positions.clear();
    paths_.paths.clear();
    for (uint32_t node = entry.link_head; node != FpNode::kNull;
         node = parent.nodes[node].node_link) {
      const uint32_t count = parent.nodes[node].count;
      const size_t begin = paths_.positions.size();
      for (uint32_t up = parent.nodes[node].parent; up != 0;
           up = parent.nodes[up].parent) {
        paths_.positions.push_back(parent.nodes[up].pos);
        base_counts_[parent.nodes[up].pos] += count;
      }
      const auto size =
          static_cast<uint32_t>(paths_.positions.size() - begin);
      if (size != 0) paths_.paths.push_back({begin, size, count});
    }
    if (paths_.paths.empty()) return false;
    ++result_->conditional_trees_built;

    // Surviving (parent position, count) pairs, ordered by descending
    // count with ties by ascending item id.
    kept_.clear();
    for (uint32_t pos = 0; pos < parent_size; ++pos) {
      if (base_counts_[pos] >= min_count_) {
        kept_.emplace_back(pos, base_counts_[pos]);
      }
    }
    if (kept_.empty()) return false;
    std::sort(kept_.begin(), kept_.end(),
              [&parent](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return parent.header[a.first].item <
                       parent.header[b.first].item;
              });
    tree->header.clear();
    pos_map_.assign(parent_size, FpNode::kNull);
    for (uint32_t pos = 0; pos < kept_.size(); ++pos) {
      tree->header.push_back(
          {parent.header[kept_[pos].first].item, kept_[pos].second,
           FpNode::kNull});
      pos_map_[kept_[pos].first] = pos;
    }
    // Remap each path in place (it can only shrink) and order it.
    for (PathBuffer::Path& path : paths_.paths) {
      uint32_t* first = paths_.positions.data() + path.begin;
      uint32_t size = 0;
      for (uint32_t i = 0; i < path.size; ++i) {
        if (pos_map_[first[i]] != FpNode::kNull) {
          first[size++] = pos_map_[first[i]];
        }
      }
      std::sort(first, first + size);
      path.size = size;
    }
    tree->Build(&paths_);
    result_->fp_nodes_allocated += tree->nodes.size() - 1;
    return true;
  }

  uint32_t min_count_;
  size_t max_size_;
  MiningResult* result_;
  // Scratch reused across BuildConditionalTree calls (each call completes
  // before its tree is recursed into).
  PathBuffer paths_;
  std::vector<uint32_t> base_counts_;
  std::vector<uint32_t> pos_map_;
  std::vector<std::pair<uint32_t, uint32_t>> kept_;
  std::deque<FpTree> conditionals_;
};

}  // namespace

Result<MiningResult> MineFpGrowth(const TransactionDatabase& db,
                                  const MiningParams& params) {
  DMT_RETURN_NOT_OK(params.Validate());
  const uint32_t min_count = AbsoluteMinSupport(db.size(), params.min_support);
  const core::ParallelContext ctx(params.num_threads);

  obs::Counter trees_counter("assoc/fp_growth/conditional_trees_built");
  obs::Counter nodes_counter("assoc/fp_growth/fp_nodes_allocated");
  obs::Span mine_span("assoc/fp_growth/mine");

  MiningResult result;
  FpTree root;
  {
    obs::Span build_span("assoc/fp_growth/build_tree");
    FpMiner::BuildRootTree(db, min_count, &root);
  }
  result.fp_nodes_allocated += root.nodes.size() - 1;
  if (!root.header.empty()) {
    obs::Span grow_span("assoc/fp_growth/grow");
    if (root.IsSinglePath()) {
      // Degenerate database: the whole tree is one chain, so every
      // frequent itemset is a combination of the chain's items.
      FpMiner miner(min_count, params.max_itemset_size, &result);
      miner.EmitSinglePathCombinations(root, {}, 0);
    } else {
      // Top-level projection decomposition: each header entry's
      // conditional tree is mined independently, in the serial bottom-up
      // order (task i handles entry n-1-i), chunked contiguously with
      // per-chunk result scratch merged in chunk order.
      const size_t n = root.header.size();
      MinePartitioned(
          ctx, n, &result,
          [&](size_t begin, size_t end, MiningResult* out) {
            FpMiner miner(min_count, params.max_itemset_size, out);
            for (size_t i = begin; i < end; ++i) {
              miner.MineEntry(root, n - 1 - i, {}, 0);
            }
          });
    }
  }
  // The result owns the merged tallies; publish them once, and record
  // them on the mine span while it is open.
  trees_counter.Add(result.conditional_trees_built);
  nodes_counter.Add(result.fp_nodes_allocated);
  mine_span.AddArg(trees_counter.name(), result.conditional_trees_built);
  mine_span.AddArg(nodes_counter.name(), result.fp_nodes_allocated);
  SortCanonical(&result.itemsets);

  // Reconstruct per-size pass stats (pattern growth has no candidates
  // beyond the itemsets it actually examines).
  size_t max_size = 0;
  for (const auto& itemset : result.itemsets) {
    max_size = std::max(max_size, itemset.items.size());
  }
  result.passes.push_back({1, db.item_universe(), root.header.size()});
  for (size_t k = 2; k <= max_size; ++k) {
    size_t count = result.CountOfSize(k);
    result.passes.push_back({k, count, count});
  }
  return result;
}

}  // namespace dmt::assoc
