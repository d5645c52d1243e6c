#include "cluster/dbscan.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <memory>

#include "core/distance.h"
#include "core/kd_tree.h"
#include "core/kernels/kernels.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmt::cluster {

using core::PointSet;
using core::Result;
using core::Status;

Status DbscanOptions::Validate() const {
  if (!(eps > 0.0)) return Status::InvalidArgument("eps must be > 0");
  if (min_points == 0) {
    return Status::InvalidArgument("min_points must be >= 1");
  }
  return Status::OK();
}

namespace {

/// Block size of the batched brute-force scan: big enough to amortize
/// kernel dispatch, small enough for the distance scratch to sit in L1.
constexpr size_t kRegionQueryBlock = 256;

/// Brute-force region query over the staged SoA point block: distances
/// to every point in blocks of kRegionQueryBlock through the batched
/// SIMD kernel, filtered in ascending index order (so the neighbour
/// list matches the pairwise scalar scan element for element).
std::vector<uint32_t> BruteRegionQuery(const PointSet& points,
                                       const core::kernels::SoaBlock& soa,
                                       size_t center, double eps_sq) {
  std::vector<uint32_t> out;
  auto q = points.point(center);
  const size_t n = points.size();
  double dist[kRegionQueryBlock];
  for (size_t block = 0; block < n; block += kRegionQueryBlock) {
    const size_t len = std::min(kRegionQueryBlock, n - block);
    core::kernels::Ops().squared_euclidean_to_many(
        q.data(), soa.data() + block, n, len, points.dim(), dist);
    for (size_t j = 0; j < len; ++j) {
      if (dist[j] <= eps_sq) out.push_back(static_cast<uint32_t>(block + j));
    }
  }
  return out;
}

}  // namespace

Result<DbscanResult> Dbscan(const PointSet& points,
                            const DbscanOptions& options) {
  DMT_RETURN_NOT_OK(options.Validate());
  DbscanResult result;
  result.labels.assign(points.size(), DbscanResult::kNoise);
  if (points.empty()) return result;

  obs::Counter queries_counter("cluster/dbscan/region_queries");
  obs::Counter neighbors_counter("cluster/dbscan/neighbors_returned");
  obs::Span run_span("cluster/dbscan/run");

  std::unique_ptr<core::KdTree> index;
  core::kernels::SoaBlock soa;
  if (options.neighbors == DbscanOptions::Neighbors::kKdTree) {
    obs::Span index_span("cluster/dbscan/index_build");
    index = std::make_unique<core::KdTree>(points);
  } else {
    // Brute mode scans every point per query: stage the whole set
    // dimension-major once so the batched distance kernel does the
    // scanning.
    soa.Assign(points.data().data(), points.size(), points.dim());
  }
  const double eps_sq = options.eps * options.eps;
  auto query_point = [&](size_t center) {
    return index != nullptr
               ? index->RadiusSearch(points.point(center), options.eps)
               : BruteRegionQuery(points, soa, center, eps_sq);
  };

  // Parallel mode: batch all neighbourhood queries up front. Each query
  // depends only on the point set, so the serial expansion below consumes
  // identical neighbour lists and produces identical labels; the sweep
  // queries each point at most once, so handing the list out by move is
  // safe.
  const core::ParallelContext ctx(options.num_threads);
  std::vector<std::vector<uint32_t>> batched;
  if (ctx.parallel()) {
    obs::Span batch_span("cluster/dbscan/batch_queries");
    batched.resize(points.size());
    core::ParallelForChunks(
        ctx.pool(), 0, points.size(), [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) batched[i] = query_point(i);
        });
  }
  // Counted at the consumption site, on the orchestrating thread: the
  // parallel mode prefetches every neighbourhood but the serial sweep
  // queries lazily, so counting consumed queries is what keeps the totals
  // identical at every thread count.
  uint64_t queries = 0;
  uint64_t neighbors = 0;
  auto region_query = [&](size_t center) {
    ++queries;
    std::vector<uint32_t> neighbours = batched.empty()
                                           ? query_point(center)
                                           : std::move(batched[center]);
    neighbors += neighbours.size();
    return neighbours;
  };

  obs::Span expand_span("cluster/dbscan/expand");
  std::vector<bool> visited(points.size(), false);
  int32_t cluster_id = -1;
  std::deque<uint32_t> frontier;
  for (size_t seed = 0; seed < points.size(); ++seed) {
    if (visited[seed]) continue;
    visited[seed] = true;
    std::vector<uint32_t> neighbours = region_query(seed);
    if (neighbours.size() < options.min_points) continue;  // stays noise

    // Grow a new cluster by BFS over density-reachable points.
    ++cluster_id;
    result.labels[seed] = cluster_id;
    frontier.assign(neighbours.begin(), neighbours.end());
    while (!frontier.empty()) {
      uint32_t current = frontier.front();
      frontier.pop_front();
      if (result.labels[current] == DbscanResult::kNoise) {
        // Border or core point reachable from the cluster.
        result.labels[current] = cluster_id;
      }
      if (visited[current]) continue;
      visited[current] = true;
      std::vector<uint32_t> expansion = region_query(current);
      if (expansion.size() >= options.min_points) {
        // Core point: its neighbourhood joins the frontier.
        for (uint32_t next : expansion) {
          if (!visited[next] ||
              result.labels[next] == DbscanResult::kNoise) {
            frontier.push_back(next);
          }
        }
      }
    }
  }
  result.num_clusters = static_cast<size_t>(cluster_id + 1);
  // Publish the run's tallies once, and record them on the run span
  // while it is open.
  queries_counter.Add(queries);
  neighbors_counter.Add(neighbors);
  run_span.AddArg(queries_counter.name(), queries);
  run_span.AddArg(neighbors_counter.name(), neighbors);
  return result;
}

core::Result<std::vector<double>> SortedKDistances(const PointSet& points,
                                                   size_t k) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (points.size() <= k) {
    return Status::InvalidArgument(
        "need more than k points to compute k-distances");
  }
  core::KdTree index(points);
  std::vector<double> distances;
  distances.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    // k + 1 neighbours: the nearest is the point itself at distance 0.
    auto neighbours = index.KNearest(points.point(i), k + 1);
    distances.push_back(std::sqrt(neighbours.back().first));
  }
  std::sort(distances.begin(), distances.end(), std::greater<>());
  return distances;
}

}  // namespace dmt::cluster
