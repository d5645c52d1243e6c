#include "cluster/birch.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>

#include "core/check.h"
#include "core/distance.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmt::cluster {

using core::PointSet;
using core::Result;
using core::Status;

Status BirchOptions::Validate() const {
  if (threshold < 0.0) {
    return Status::InvalidArgument("threshold must be >= 0");
  }
  if (branching < 2 || leaf_entries < 2) {
    return Status::InvalidArgument("branching and leaf_entries must be >= 2");
  }
  if (max_leaf_entries_total < leaf_entries) {
    return Status::InvalidArgument(
        "max_leaf_entries_total must be >= leaf_entries");
  }
  if (global_clusters == 0) {
    return Status::InvalidArgument("global_clusters must be >= 1");
  }
  return Status::OK();
}

namespace {

/// Clustering feature: sufficient statistics of a point group.
struct Cf {
  double n = 0.0;
  std::vector<double> ls;  // linear sum
  double ss = 0.0;         // sum of squared norms

  explicit Cf(size_t dim) : ls(dim, 0.0) {}

  static Cf FromPoint(std::span<const double> p) {
    Cf cf(p.size());
    cf.n = 1.0;
    for (size_t d = 0; d < p.size(); ++d) {
      cf.ls[d] = p[d];
      cf.ss += p[d] * p[d];
    }
    return cf;
  }

  void Add(const Cf& other) {
    n += other.n;
    for (size_t d = 0; d < ls.size(); ++d) ls[d] += other.ls[d];
    ss += other.ss;
  }

  /// Centroid component d.
  double Centroid(size_t d) const { return ls[d] / n; }

  /// Squared centroid distance to another CF.
  double CentroidDistanceSq(const Cf& other) const {
    double total = 0.0;
    for (size_t d = 0; d < ls.size(); ++d) {
      double diff = Centroid(d) - other.Centroid(d);
      total += diff * diff;
    }
    return total;
  }

  /// Radius (RMS distance of members to the centroid) of this CF merged
  /// with `other`.
  double MergedRadius(const Cf& other) const {
    double merged_n = n + other.n;
    double merged_ss = ss + other.ss;
    double centroid_norm_sq = 0.0;
    for (size_t d = 0; d < ls.size(); ++d) {
      double c = (ls[d] + other.ls[d]) / merged_n;
      centroid_norm_sq += c * c;
    }
    double radius_sq = merged_ss / merged_n - centroid_norm_sq;
    return radius_sq > 0.0 ? std::sqrt(radius_sq) : 0.0;
  }
};

/// CF-tree with arena-allocated nodes.
class CfTree {
 public:
  CfTree(size_t dim, double threshold, size_t branching, size_t leaf_entries)
      : dim_(dim),
        threshold_(threshold),
        branching_(branching),
        leaf_entries_(leaf_entries) {
    root_ = NewNode(/*is_leaf=*/true);
  }

  void Insert(const Cf& cf) {
    InsertResult result = InsertInto(root_, cf);
    if (result.split) {
      // Grow a new root above the two halves.
      uint32_t new_root = NewNode(/*is_leaf=*/false);
      nodes_[new_root].cfs.push_back(SummarizeNode(root_));
      nodes_[new_root].children.push_back(root_);
      nodes_[new_root].cfs.push_back(SummarizeNode(result.new_node));
      nodes_[new_root].children.push_back(result.new_node);
      root_ = new_root;
    }
  }

  size_t num_leaf_entries() const { return num_leaf_entries_; }
  double threshold() const { return threshold_; }

  /// All leaf CF entries.
  std::vector<Cf> LeafEntries() const {
    std::vector<Cf> out;
    out.reserve(num_leaf_entries_);
    for (const Node& node : nodes_) {
      if (!node.alive || !node.is_leaf) continue;
      for (const Cf& cf : node.cfs) out.push_back(cf);
    }
    return out;
  }

 private:
  struct Node {
    bool is_leaf = true;
    bool alive = true;
    std::vector<Cf> cfs;
    std::vector<uint32_t> children;  // internal nodes only, parallel to cfs
  };

  struct InsertResult {
    bool split = false;
    uint32_t new_node = 0;
  };

  uint32_t NewNode(bool is_leaf) {
    nodes_.emplace_back();
    nodes_.back().is_leaf = is_leaf;
    return static_cast<uint32_t>(nodes_.size() - 1);
  }

  Cf SummarizeNode(uint32_t index) const {
    Cf total(dim_);
    for (const Cf& cf : nodes_[index].cfs) total.Add(cf);
    return total;
  }

  size_t ClosestEntry(const Node& node, const Cf& cf) const {
    size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (size_t e = 0; e < node.cfs.size(); ++e) {
      double d = node.cfs[e].CentroidDistanceSq(cf);
      if (d < best_d) {
        best_d = d;
        best = e;
      }
    }
    return best;
  }

  /// Splits node `index`'s entries across itself and a fresh sibling using
  /// farthest-pair seeding; returns the sibling.
  uint32_t SplitNode(uint32_t index) {
    uint32_t sibling = NewNode(nodes_[index].is_leaf);
    Node& node = nodes_[index];
    Node& other = nodes_[sibling];
    // Farthest pair of entries.
    size_t seed_a = 0, seed_b = 1;
    double worst = -1.0;
    for (size_t i = 0; i < node.cfs.size(); ++i) {
      for (size_t j = i + 1; j < node.cfs.size(); ++j) {
        double d = node.cfs[i].CentroidDistanceSq(node.cfs[j]);
        if (d > worst) {
          worst = d;
          seed_a = i;
          seed_b = j;
        }
      }
    }
    std::vector<Cf> cfs = std::move(node.cfs);
    std::vector<uint32_t> children = std::move(node.children);
    node.cfs.clear();
    node.children.clear();
    // Copy the seeds: entries are moved out of `cfs` as they are assigned,
    // so later comparisons must not reference the (possibly moved) seeds.
    const Cf anchor_a = cfs[seed_a];
    const Cf anchor_b = cfs[seed_b];
    for (size_t e = 0; e < cfs.size(); ++e) {
      bool to_a = e == seed_a ||
                  (e != seed_b && cfs[e].CentroidDistanceSq(anchor_a) <=
                                      cfs[e].CentroidDistanceSq(anchor_b));
      Node& target = to_a ? node : other;
      target.cfs.push_back(std::move(cfs[e]));
      if (!children.empty()) target.children.push_back(children[e]);
    }
    return sibling;
  }

  InsertResult InsertInto(uint32_t index, const Cf& cf) {
    Node& node = nodes_[index];
    if (node.is_leaf) {
      if (!node.cfs.empty()) {
        size_t closest = ClosestEntry(node, cf);
        if (node.cfs[closest].MergedRadius(cf) <= threshold_) {
          node.cfs[closest].Add(cf);
          return {};
        }
      }
      node.cfs.push_back(cf);
      ++num_leaf_entries_;
      if (node.cfs.size() > leaf_entries_) {
        return {true, SplitNode(index)};
      }
      return {};
    }
    size_t slot = ClosestEntry(node, cf);
    uint32_t child = node.children[slot];
    InsertResult child_result = InsertInto(child, cf);
    Node& node_after = nodes_[index];  // arena may have reallocated
    node_after.cfs[slot].Add(cf);
    if (!child_result.split) return {};
    // Recompute the split child's summary and add the new sibling.
    node_after.cfs[slot] = SummarizeNode(child);
    node_after.cfs.push_back(SummarizeNode(child_result.new_node));
    node_after.children.push_back(child_result.new_node);
    if (node_after.cfs.size() > branching_) {
      return {true, SplitNode(index)};
    }
    return {};
  }

  size_t dim_;
  double threshold_;
  size_t branching_;
  size_t leaf_entries_;
  size_t num_leaf_entries_ = 0;
  uint32_t root_ = 0;
  std::vector<Node> nodes_;
};

}  // namespace

Result<BirchResult> Birch(const PointSet& points,
                          const BirchOptions& options) {
  DMT_RETURN_NOT_OK(options.Validate());
  if (points.empty()) {
    return Status::InvalidArgument("cannot cluster an empty point set");
  }
  const size_t dim = points.dim();

  // BIRCH's global phase delegates to k-means, which publishes its own
  // distance work to the k-means counter; BIRCH adds its labeling scan
  // there too, and the run span's arg is the sum of both.
  obs::Counter comps_counter("cluster/kmeans/distance_computations");
  obs::Counter rebuilds_counter("cluster/birch/rebuilds");
  obs::Gauge leaf_entries_gauge("cluster/birch/leaf_entries");
  obs::Span run_span("cluster/birch/run");

  BirchResult result;
  double threshold = options.threshold > 0.0 ? options.threshold : 1e-3;
  auto tree = std::make_unique<CfTree>(dim, threshold, options.branching,
                                       options.leaf_entries);
  {
    obs::Span insert_span("cluster/birch/insert");
    for (size_t i = 0; i < points.size(); ++i) {
      tree->Insert(Cf::FromPoint(points.point(i)));
      if (tree->num_leaf_entries() > options.max_leaf_entries_total) {
        // Memory bound exceeded: rebuild with a doubled threshold by
        // reinserting the existing summaries, then continue the scan.
        std::vector<Cf> entries = tree->LeafEntries();
        threshold *= 2.0;
        ++result.rebuilds;
        tree = std::make_unique<CfTree>(dim, threshold, options.branching,
                                        options.leaf_entries);
        for (const Cf& entry : entries) tree->Insert(entry);
      }
    }
  }
  rebuilds_counter.Add(result.rebuilds);
  run_span.AddArg(rebuilds_counter.name(), result.rebuilds);

  std::vector<Cf> entries = tree->LeafEntries();
  result.num_leaf_entries = entries.size();
  leaf_entries_gauge.Set(static_cast<double>(entries.size()));
  result.final_threshold = threshold;

  // Global phase: weighted k-means over the entry centroids.
  PointSet centroids(dim);
  std::vector<double> weights;
  weights.reserve(entries.size());
  std::vector<double> buffer(dim);
  for (const Cf& entry : entries) {
    for (size_t d = 0; d < dim; ++d) buffer[d] = entry.Centroid(d);
    centroids.Add(buffer);
    weights.push_back(entry.n);
  }
  KMeansOptions kmeans;
  kmeans.k = std::min(options.global_clusters, centroids.size());
  kmeans.assignment = KMeansOptions::Assignment::kHamerly;
  kmeans.seed = options.seed;
  ClusteringResult global;
  {
    obs::Span global_span("cluster/birch/global_kmeans");
    DMT_ASSIGN_OR_RETURN(global, WeightedKMeans(centroids, weights, kmeans));
  }

  // Label original points by their nearest global center.
  obs::Span label_span("cluster/birch/label");
  result.clustering.centers = std::move(global.centers);
  result.clustering.iterations = global.iterations;
  const uint64_t label_comps =
      points.size() * result.clustering.centers.size();
  result.clustering.distance_computations =
      global.distance_computations + label_comps;
  comps_counter.Add(label_comps);
  run_span.AddArg(comps_counter.name(),
                  result.clustering.distance_computations);
  result.clustering.assignments.resize(points.size());
  double sse = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    auto p = points.point(i);
    double best_d = std::numeric_limits<double>::infinity();
    uint32_t best_c = 0;
    for (uint32_t c = 0; c < result.clustering.centers.size(); ++c) {
      double d = core::SquaredEuclideanDistance(
          p, result.clustering.centers.point(c));
      if (d < best_d) {
        best_d = d;
        best_c = c;
      }
    }
    result.clustering.assignments[i] = best_c;
    sse += best_d;
  }
  result.clustering.sse = sse;
  return result;
}

}  // namespace dmt::cluster
