// Lloyd's k-means with Forgy / k-means++ seeding, empty-cluster repair,
// and triangle-inequality pruned assignment (Hamerly 2010) that is
// bit-identical to the plain Lloyd scan.
#ifndef DMT_CLUSTER_KMEANS_H_
#define DMT_CLUSTER_KMEANS_H_

#include <cstdint>
#include <vector>

#include "core/point_set.h"
#include "core/status.h"

namespace dmt::cluster {

/// Seeding strategy.
enum class KMeansInit {
  /// k distinct random points as initial centers (Forgy).
  kForgy,
  /// D^2-weighted seeding (Arthur & Vassilvitskii, k-means++).
  kPlusPlus,
};

/// k-means hyper-parameters.
struct KMeansOptions {
  /// Assignment-step engine. Both produce bit-identical assignments,
  /// SSE, iteration counts, and centers for the same options (see
  /// DESIGN.md "Bound-pruned k-means assignment"); they differ only in
  /// how many point-center distances they evaluate.
  enum class Assignment {
    /// Plain Lloyd scan: k distances per point per iteration.
    kLloyd,
    /// One lower bound per point on the distance to the second-closest
    /// center (Hamerly 2010): one exact distance per point per iteration
    /// plus full rescans only where the bound fails. O(n) extra memory.
    kHamerly,
  };

  size_t k = 8;
  KMeansInit init = KMeansInit::kPlusPlus;
  Assignment assignment = Assignment::kLloyd;
  size_t max_iterations = 100;
  /// Stop when the SSE improvement falls below this relative amount.
  double tolerance = 1e-6;
  uint64_t seed = 1;
  /// Worker threads for the assignment and seeding distance loops; 0 or 1
  /// = serial. Parallel runs are bit-identical to serial runs: per-point
  /// distances and bound maintenance are data-parallel and every
  /// floating-point reduction stays on the calling thread in point-index
  /// order.
  size_t num_threads = 0;

  core::Status Validate() const;
};

/// Hard-assignment clustering output.
struct ClusteringResult {
  /// Cluster index per input point.
  std::vector<uint32_t> assignments;
  /// Final cluster centers (k points).
  core::PointSet centers;
  /// Sum of squared distances of points to their centers.
  double sse = 0.0;
  /// Lloyd iterations executed.
  size_t iterations = 0;
  /// Point-center and center-center distance evaluations performed,
  /// including seeding. The pruned assignment engine exists to shrink
  /// this; benches report it as the pruning rate.
  uint64_t distance_computations = 0;
};

/// Runs k-means on `points`. Fails when k exceeds the number of points.
core::Result<ClusteringResult> KMeans(const core::PointSet& points,
                                      const KMeansOptions& options);

/// Weighted variant (per-point multiplicities); used by BIRCH's global
/// phase over CF-entry centroids. Weights scale only the SSE reduction
/// and the center update, so the pruned assignment engine applies
/// unchanged.
core::Result<ClusteringResult> WeightedKMeans(
    const core::PointSet& points, const std::vector<double>& weights,
    const KMeansOptions& options);

/// Recomputes the SSE of an assignment against given centers.
double ComputeSse(const core::PointSet& points,
                  const std::vector<uint32_t>& assignments,
                  const core::PointSet& centers);

}  // namespace dmt::cluster

#endif  // DMT_CLUSTER_KMEANS_H_
