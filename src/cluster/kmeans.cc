#include "cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/check.h"
#include "core/distance.h"
#include "core/kernels/kernels.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmt::cluster {

using core::PointSet;
using core::Result;
using core::Rng;
using core::Status;

Status KMeansOptions::Validate() const {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (max_iterations == 0) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  if (tolerance < 0.0) {
    return Status::InvalidArgument("tolerance must be >= 0");
  }
  return Status::OK();
}

double ComputeSse(const PointSet& points,
                  const std::vector<uint32_t>& assignments,
                  const PointSet& centers) {
  DMT_CHECK_EQ(points.size(), assignments.size());
  double sse = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    sse += core::SquaredEuclideanDistance(points.point(i),
                                          centers.point(assignments[i]));
  }
  return sse;
}

namespace {

using Assignment = KMeansOptions::Assignment;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Relative safety margin on every pruning test and bound update. The
// triangle-inequality bounds are maintained in floating point, so a few
// ulps of rounding could otherwise let a bound claim slightly more than
// the truth and skip a center the Lloyd scan would pick on a near-exact
// tie. A 1e-10 relative margin dwarfs the achievable rounding error while
// costing a negligible amount of pruning, so pruned runs stay
// bit-identical to Lloyd.
constexpr double kBoundSlack = 1.0 + 1e-10;

/// Picks initial centers; weights bias both strategies toward heavy
/// points. Distance evaluations are tallied into `distance_computations`.
PointSet SeedCenters(const PointSet& points,
                     const std::vector<double>& weights, size_t k,
                     KMeansInit init, Rng& rng,
                     const core::ParallelContext& ctx,
                     uint64_t* distance_computations) {
  PointSet centers(points.dim());
  if (init == KMeansInit::kForgy) {
    auto picks = rng.SampleWithoutReplacement(points.size(), k);
    for (size_t index : picks) centers.Add(points.point(index));
    return centers;
  }
  // k-means++: first center weight-proportional, then D^2-weighted.
  size_t first = rng.Categorical(weights);
  centers.Add(points.point(first));
  std::vector<double> min_dist_sq(points.size(),
                                  std::numeric_limits<double>::infinity());
  std::vector<double> sampling_weight(points.size(), 0.0);
  while (centers.size() < k) {
    auto latest = centers.point(centers.size() - 1);
    core::ParallelForChunks(
        ctx.pool(), 0, points.size(), [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            double d =
                core::SquaredEuclideanDistance(points.point(i), latest);
            if (d < min_dist_sq[i]) min_dist_sq[i] = d;
            sampling_weight[i] = min_dist_sq[i] * weights[i];
          }
        });
    *distance_computations += points.size();
    double total = 0.0;
    for (double w : sampling_weight) total += w;
    size_t next;
    if (total <= 0.0) {
      // All remaining points coincide with centers; any point will do.
      next = rng.UniformU64(points.size());
    } else {
      next = rng.Categorical(sampling_weight);
    }
    centers.Add(points.point(next));
  }
  return centers;
}

/// Nearest-center assignment with two interchangeable engines. Both
/// follow Lloyd's tie-breaking (strict `<`, lowest center index wins) and
/// produce bit-identical assignments and per-point squared distances;
/// Hamerly merely skips distance evaluations the triangle inequality
/// proves irrelevant. Every point computes the exact distance to its
/// assigned center each iteration, so the SSE reduction (done by the
/// caller in index order) matches Lloyd to the last bit and the
/// convergence test takes identical branches.
class AssignmentEngine {
 public:
  AssignmentEngine(const PointSet& points, const KMeansOptions& options,
                   const core::ParallelContext& ctx)
      : points_(points),
        options_(options),
        ctx_(ctx),
        n_(points.size()),
        dim_(points.dim()),
        k_(options.k),
        dist_sq_(points.size(), 0.0),
        chunk_comps_(ctx.NumChunks(points.size()), 0) {
    if (options_.assignment == Assignment::kHamerly) {
      half_nearest_.assign(k_, 0.0);
      lower_.assign(n_, 0.0);
    }
  }

  /// Writes the nearest center of every point into `assignments` and its
  /// exact squared distance into dist_sq().
  void Assign(const PointSet& centers, std::vector<uint32_t>* assignments) {
    // Stage the centers dimension-major for the batched distance kernel
    // that every full scan runs. The transpose is O(k * dim) against an
    // O(n) assignment pass.
    centers_soa_.Assign(centers.data().data(), k_, dim_);
    if (options_.assignment == Assignment::kLloyd) {
      AssignLloyd(centers, assignments);
      return;
    }
    if (!initialized_) {
      InitScan(centers, assignments);
      initialized_ = true;
    } else {
      ComputeHalfNearest(centers);
      AssignHamerly(centers, assignments);
    }
    // Fold the chunk-owned tallies after the barrier; integer sums, so
    // the total does not depend on the chunking.
    for (uint64_t& comps : chunk_comps_) {
      comps_ += comps;
      comps = 0;
    }
  }

  /// Folds one update step's center movement into the maintained lower
  /// bounds: a center that moved by delta can shrink any point's distance
  /// to it by at most delta (triangle inequality). Valid for arbitrary
  /// movement, including empty-cluster restarts that teleport a center.
  void ApplyMovement(const PointSet& before, const PointSet& after,
                     const std::vector<uint32_t>& assignments) {
    if (options_.assignment == Assignment::kLloyd || !initialized_) return;
    double max1 = 0.0, max2 = 0.0;
    uint32_t argmax = 0;
    for (uint32_t c = 0; c < k_; ++c) {
      // Inflated a hair so accumulated rounding can never make a
      // maintained bound claim more than the true distance.
      double m = core::EuclideanDistance(before.point(c), after.point(c)) *
                 kBoundSlack;
      if (m > max1) {
        max2 = max1;
        max1 = m;
        argmax = c;
      } else if (m > max2) {
        max2 = m;
      }
    }
    comps_ += k_;
    // lower_[i] bounds the distance to every center except the assigned
    // one, so the assigned center's movement never applies; when it
    // happens to be the biggest mover, the runner-up does.
    ctx_.ForEachChunk(n_, [&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        lower_[i] -= assignments[i] == argmax ? max2 : max1;
      }
    });
  }

  /// Exact squared distance of each point to its assigned center, as of
  /// the latest Assign() call (bit-identical across engines).
  const std::vector<double>& dist_sq() const { return dist_sq_; }

  /// Distance evaluations made by this engine so far.
  uint64_t distance_computations() const { return comps_; }

 private:
  /// All k distances of one point via the batched SIMD kernel, into the
  /// caller's scratch. Bit-identical to the pairwise scalar loop (one
  /// candidate per vector lane, scalar instruction order within a lane),
  /// so every downstream comparison takes the branches Lloyd would.
  void DistancesToCenters(std::span<const double> p, double* dist) const {
    core::kernels::Ops().squared_euclidean_to_many(
        p.data(), centers_soa_.data(), k_, k_, dim_, dist);
  }

  void AssignLloyd(const PointSet& /*centers*/,
                   std::vector<uint32_t>* assignments) {
    ctx_.ForEachChunk(n_, [&](size_t, size_t begin, size_t end) {
      std::vector<double> dist(k_);
      for (size_t i = begin; i < end; ++i) {
        DistancesToCenters(points_.point(i), dist.data());
        double best_d = kInf;
        uint32_t best_c = 0;
        for (uint32_t c = 0; c < k_; ++c) {
          if (dist[c] < best_d) {
            best_d = dist[c];
            best_c = c;
          }
        }
        (*assignments)[i] = best_c;
        dist_sq_[i] = best_d;
      }
    });
    comps_ += static_cast<uint64_t>(n_) * k_;
  }

  /// First Hamerly pass: a full Lloyd scan that also captures the
  /// second-closest distance as the initial lower bound.
  void InitScan(const PointSet& /*centers*/,
                std::vector<uint32_t>* assignments) {
    ctx_.ForEachChunk(n_, [&](size_t chunk, size_t begin, size_t end) {
      uint64_t comps = 0;
      std::vector<double> dist(k_);
      for (size_t i = begin; i < end; ++i) {
        DistancesToCenters(points_.point(i), dist.data());
        comps += k_;
        double best_d2 = kInf, second_d2 = kInf;
        uint32_t best = 0;
        for (uint32_t c = 0; c < k_; ++c) {
          double d2 = dist[c];
          if (d2 < best_d2) {
            second_d2 = best_d2;
            best_d2 = d2;
            best = c;
          } else if (d2 < second_d2) {
            second_d2 = d2;
          }
        }
        (*assignments)[i] = best;
        dist_sq_[i] = best_d2;
        lower_[i] = std::sqrt(second_d2);
      }
      chunk_comps_[chunk] += comps;
    });
  }

  void AssignHamerly(const PointSet& centers,
                     std::vector<uint32_t>* assignments) {
    ctx_.ForEachChunk(n_, [&](size_t chunk, size_t begin, size_t end) {
      uint64_t comps = 0;
      std::vector<double> dist(k_);
      for (size_t i = begin; i < end; ++i) {
        auto p = points_.point(i);
        uint32_t a = (*assignments)[i];
        // Exact distance to the assigned center: needed regardless of
        // pruning so the SSE reduction stays bit-identical to Lloyd.
        double d2 = core::SquaredEuclideanDistance(p, centers.point(a));
        ++comps;
        dist_sq_[i] = d2;
        double d = std::sqrt(d2);
        // Prune when d is strictly below both the maintained bound on
        // every other center and half the distance to the nearest other
        // center: either proves every rival is strictly farther, so the
        // Lloyd scan would keep `a` too (ties cannot survive a strict
        // inequality with slack).
        if (d * kBoundSlack < std::max(lower_[i], half_nearest_[a])) {
          continue;
        }
        // Bound failed: full Lloyd-identical rescan via the batched
        // kernel, which also yields the exact second-closest distance to
        // re-tighten the bound.
        DistancesToCenters(p, dist.data());
        comps += k_;
        double best_d2 = kInf, second_d2 = kInf;
        uint32_t best = 0;
        for (uint32_t c = 0; c < k_; ++c) {
          double dd2 = dist[c];
          if (dd2 < best_d2) {
            second_d2 = best_d2;
            best_d2 = dd2;
            best = c;
          } else if (dd2 < second_d2) {
            second_d2 = dd2;
          }
        }
        (*assignments)[i] = best;
        dist_sq_[i] = best_d2;
        lower_[i] = std::sqrt(second_d2);
      }
      chunk_comps_[chunk] += comps;
    });
  }

  /// Half the distance from every center to its nearest other center.
  void ComputeHalfNearest(const PointSet& centers) {
    std::fill(half_nearest_.begin(), half_nearest_.end(), kInf);
    for (uint32_t a = 0; a + 1 < k_; ++a) {
      for (uint32_t b = a + 1; b < k_; ++b) {
        double half = 0.5 * core::EuclideanDistance(centers.point(a),
                                                    centers.point(b));
        if (half < half_nearest_[a]) half_nearest_[a] = half;
        if (half < half_nearest_[b]) half_nearest_[b] = half;
      }
    }
    comps_ += static_cast<uint64_t>(k_) * (k_ - 1) / 2;
  }

  const PointSet& points_;
  const KMeansOptions& options_;
  const core::ParallelContext& ctx_;
  const size_t n_;
  const size_t dim_;
  const uint32_t k_;
  bool initialized_ = false;
  /// Centers staged dimension-major for the batched distance kernel,
  /// refreshed by every Assign() call.
  core::kernels::SoaBlock centers_soa_;
  std::vector<double> dist_sq_;
  /// Hamerly: per-point lower bound on the distance to every non-assigned
  /// center.
  std::vector<double> lower_;
  /// Hamerly: 0.5 * distance to the nearest other center.
  std::vector<double> half_nearest_;
  /// Distance evaluations: orchestrating-thread work adds to comps_
  /// directly; chunk bodies add to their own slot, folded into comps_
  /// after each barrier.
  std::vector<uint64_t> chunk_comps_;
  uint64_t comps_ = 0;
};

Result<ClusteringResult> Run(const PointSet& points,
                             const std::vector<double>& weights,
                             const KMeansOptions& options) {
  DMT_RETURN_NOT_OK(options.Validate());
  if (points.empty()) {
    return Status::InvalidArgument("cannot cluster an empty point set");
  }
  if (options.k > points.size()) {
    return Status::InvalidArgument("k exceeds the number of points");
  }
  const size_t n = points.size();
  const size_t dim = points.dim();
  Rng rng(options.seed);
  const core::ParallelContext ctx(options.num_threads);

  obs::Counter iterations_counter("cluster/kmeans/iterations");
  obs::Counter comps_counter("cluster/kmeans/distance_computations");
  obs::Span run_span("cluster/kmeans/run");
  run_span.AttachCounter(iterations_counter);
  run_span.AttachCounter(comps_counter);

  ClusteringResult result;
  uint64_t seeding_comps = 0;
  {
    obs::Span seed_span("cluster/kmeans/seed");
    result.centers = SeedCenters(points, weights, options.k, options.init,
                                 rng, ctx, &seeding_comps);
  }
  result.assignments.assign(n, 0);

  AssignmentEngine engine(points, options, ctx);

  // The SSE reduction runs on this thread in index order so parallel
  // runs are bit-identical to serial ones.
  auto assign_points = [&]() {
    engine.Assign(result.centers, &result.assignments);
    double sse = 0.0;
    for (size_t i = 0; i < n; ++i) sse += engine.dist_sq()[i] * weights[i];
    return sse;
  };

  std::vector<double> sums(options.k * dim, 0.0);
  std::vector<double> cluster_weight(options.k, 0.0);
  PointSet previous_centers;
  double previous_sse = std::numeric_limits<double>::infinity();

  obs::Span loop_span("cluster/kmeans/lloyd_loop");
  for (size_t iteration = 0; iteration < options.max_iterations;
       ++iteration) {
    result.iterations = iteration + 1;
    iterations_counter.Increment();
    result.sse = assign_points();

    // Update step (weights scale only the sums, never the assignment).
    previous_centers = result.centers;
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(cluster_weight.begin(), cluster_weight.end(), 0.0);
    for (size_t i = 0; i < n; ++i) {
      auto p = points.point(i);
      double w = weights[i];
      double* target = sums.data() + result.assignments[i] * dim;
      for (size_t d = 0; d < dim; ++d) target[d] += w * p[d];
      cluster_weight[result.assignments[i]] += w;
    }
    std::vector<uint32_t> empty_clusters;
    for (uint32_t c = 0; c < options.k; ++c) {
      if (cluster_weight[c] > 0.0) {
        auto center = result.centers.mutable_point(c);
        const double* source = sums.data() + c * dim;
        for (size_t d = 0; d < dim; ++d) {
          center[d] = source[d] / cluster_weight[c];
        }
      } else {
        empty_clusters.push_back(c);
      }
    }
    // Empty clusters restart at the points farthest from their assigned
    // centers, measured with the assignment step's distances (dist_sq)
    // so partially updated centers cannot skew the scan, and never
    // reusing one point for two restarts in the same iteration.
    std::vector<size_t> chosen;
    for (uint32_t c : empty_clusters) {
      size_t farthest = 0;
      double farthest_d = -1.0;
      for (size_t i = 0; i < n; ++i) {
        if (std::find(chosen.begin(), chosen.end(), i) != chosen.end()) {
          continue;
        }
        if (engine.dist_sq()[i] > farthest_d) {
          farthest_d = engine.dist_sq()[i];
          farthest = i;
        }
      }
      chosen.push_back(farthest);
      auto p = points.point(farthest);
      auto center = result.centers.mutable_point(c);
      std::copy(p.begin(), p.end(), center.begin());
    }

    engine.ApplyMovement(previous_centers, result.centers,
                         result.assignments);

    if (std::isfinite(previous_sse) &&
        previous_sse - result.sse <=
            options.tolerance * std::max(previous_sse, 1e-30)) {
      break;
    }
    previous_sse = result.sse;
  }

  // Final assignment against the last centers (keeps assignments and
  // centers mutually consistent).
  result.sse = assign_points();
  result.distance_computations =
      seeding_comps + engine.distance_computations();
  // Publish once, while the run span that attaches the counter is open.
  comps_counter.Add(result.distance_computations);
  return result;
}

}  // namespace

Result<ClusteringResult> KMeans(const PointSet& points,
                                const KMeansOptions& options) {
  std::vector<double> weights(points.size(), 1.0);
  return Run(points, weights, options);
}

Result<ClusteringResult> WeightedKMeans(const PointSet& points,
                                        const std::vector<double>& weights,
                                        const KMeansOptions& options) {
  if (weights.size() != points.size()) {
    return Status::InvalidArgument(
        "weights must match the number of points");
  }
  for (double w : weights) {
    if (!(w > 0.0)) {
      return Status::InvalidArgument("weights must be positive");
    }
  }
  return Run(points, weights, options);
}

}  // namespace dmt::cluster
