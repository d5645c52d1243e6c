// BIRCH (Zhang, Ramakrishnan & Livny, SIGMOD'96): single-scan clustering
// via a height-balanced tree of clustering features CF = (n, LS, SS), with
// automatic threshold escalation and a global clustering phase over the
// leaf entries.
#ifndef DMT_CLUSTER_BIRCH_H_
#define DMT_CLUSTER_BIRCH_H_

#include <cstdint>
#include <vector>

#include "cluster/kmeans.h"
#include "core/point_set.h"
#include "core/status.h"

namespace dmt::cluster {

/// BIRCH hyper-parameters.
struct BirchOptions {
  /// Initial absorption threshold T: a leaf entry absorbs a point only if
  /// its radius stays <= threshold. 0 lets BIRCH start from a tiny value
  /// and rely on escalation.
  double threshold = 0.5;
  /// Max entries per internal node (B) and per leaf (L).
  size_t branching = 8;
  size_t leaf_entries = 8;
  /// Rebuild (threshold *= 2, reinsert entry centroids) when the number of
  /// leaf entries exceeds this cap — BIRCH's memory bound.
  size_t max_leaf_entries_total = 1024;
  /// Number of clusters produced by the global phase (weighted k-means over
  /// leaf-entry centroids, assigned by the Hamerly engine).
  size_t global_clusters = 8;
  uint64_t seed = 1;

  core::Status Validate() const;
};

/// Extra BIRCH introspection alongside the standard clustering output.
struct BirchResult {
  ClusteringResult clustering;
  /// Leaf CF entries after the build (the dataset summary).
  size_t num_leaf_entries = 0;
  /// Final absorption threshold after escalations.
  double final_threshold = 0.0;
  /// How many times the tree was rebuilt with a doubled threshold.
  size_t rebuilds = 0;
};

/// Clusters `points` with BIRCH. `clustering.distance_computations`
/// covers the global phase plus the final point-labeling pass.
core::Result<BirchResult> Birch(const core::PointSet& points,
                                const BirchOptions& options);

}  // namespace dmt::cluster

#endif  // DMT_CLUSTER_BIRCH_H_
