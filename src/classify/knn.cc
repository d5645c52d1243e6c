#include "classify/knn.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "core/distance.h"
#include "core/kernels/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmt::classify {

using core::Dataset;
using core::KdTree;
using core::PointSet;
using core::Result;
using core::Status;

Status KnnOptions::Validate() const {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  return Status::OK();
}

namespace {

/// Brute-force k-nearest as (squared distance, index), ascending. When a
/// dimension-major staging of `points` is supplied, distances come from
/// the batched SIMD kernel in blocks; the heap still consumes them in
/// ascending index order, so the result is bit-identical to the pairwise
/// scan (the kernel's per-candidate arithmetic is the scalar sequence).
std::vector<std::pair<double, uint32_t>> BruteKNearest(
    const PointSet& points, std::span<const double> query, size_t k,
    const core::kernels::SoaBlock* soa = nullptr) {
  std::vector<std::pair<double, uint32_t>> heap;
  heap.reserve(k + 1);
  constexpr size_t kBlock = 256;
  double dist[kBlock];
  const size_t n = points.size();
  for (size_t block = 0; block < n; block += kBlock) {
    const size_t len = std::min(kBlock, n - block);
    if (soa != nullptr) {
      core::kernels::Ops().squared_euclidean_to_many(
          query.data(), soa->data() + block, n, len, points.dim(), dist);
    } else {
      for (size_t j = 0; j < len; ++j) {
        dist[j] =
            core::SquaredEuclideanDistance(query, points.point(block + j));
      }
    }
    for (size_t j = 0; j < len; ++j) {
      const uint32_t i = static_cast<uint32_t>(block + j);
      const double d = dist[j];
      if (heap.size() < k) {
        heap.emplace_back(d, i);
        std::push_heap(heap.begin(), heap.end());
      } else if (d < heap.front().first) {
        std::pop_heap(heap.begin(), heap.end());
        heap.back() = {d, i};
        std::push_heap(heap.begin(), heap.end());
      }
    }
  }
  std::sort_heap(heap.begin(), heap.end());
  return heap;
}

}  // namespace

Status KnnClassifier::Fit(const Dataset& train) {
  DMT_RETURN_NOT_OK(options_.Validate());
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("cannot fit on an empty dataset");
  }
  obs::Span fit_span("classify/knn/fit");
  DMT_ASSIGN_OR_RETURN(train_points_, train.ToPointSet(true));
  train_labels_.assign(train.labels().begin(), train.labels().end());
  num_classes_ = train.num_classes();

  const size_t dim = train_points_.dim();
  feature_means_.assign(dim, 0.0);
  feature_scales_.assign(dim, 1.0);
  if (options_.standardize) {
    const size_t n = train_points_.size();
    std::vector<double> variance(dim, 0.0);
    for (size_t i = 0; i < n; ++i) {
      auto p = train_points_.point(i);
      for (size_t d = 0; d < dim; ++d) feature_means_[d] += p[d];
    }
    for (size_t d = 0; d < dim; ++d) {
      feature_means_[d] /= static_cast<double>(n);
    }
    for (size_t i = 0; i < n; ++i) {
      auto p = train_points_.point(i);
      for (size_t d = 0; d < dim; ++d) {
        double diff = p[d] - feature_means_[d];
        variance[d] += diff * diff;
      }
    }
    for (size_t d = 0; d < dim; ++d) {
      double stddev = std::sqrt(variance[d] / static_cast<double>(n));
      feature_scales_[d] = stddev > 0.0 ? stddev : 1.0;
    }
    for (size_t i = 0; i < n; ++i) {
      auto p = train_points_.mutable_point(i);
      for (size_t d = 0; d < dim; ++d) {
        p[d] = (p[d] - feature_means_[d]) / feature_scales_[d];
      }
    }
  }
  if (options_.search == KnnOptions::Search::kKdTree) {
    index_ = std::make_unique<KdTree>(train_points_);
  } else {
    index_.reset();
    // Brute mode scans the whole training set per query: stage it
    // dimension-major once (after standardization) for the batched
    // distance kernel.
    train_soa_.Assign(train_points_.data().data(), train_points_.size(),
                      train_points_.dim());
  }
  fitted_ = true;
  return Status::OK();
}

uint32_t KnnClassifier::Vote(
    const std::vector<std::pair<double, uint32_t>>& neighbours) const {
  std::vector<double> votes(num_classes_, 0.0);
  for (const auto& [distance_sq, index] : neighbours) {
    double weight = 1.0;
    if (options_.distance_weighted) {
      weight = 1.0 / (std::sqrt(distance_sq) + 1e-12);
    }
    votes[train_labels_[index]] += weight;
  }
  uint32_t best = 0;
  for (uint32_t c = 1; c < votes.size(); ++c) {
    if (votes[c] > votes[best]) best = c;
  }
  return best;
}

Result<std::vector<uint32_t>> KnnClassifier::PredictAll(
    const Dataset& test) const {
  if (!fitted_) {
    return Status::FailedPrecondition("classifier has not been fitted");
  }
  DMT_ASSIGN_OR_RETURN(PointSet queries, test.ToPointSet(true));
  if (queries.dim() != train_points_.dim()) {
    return Status::InvalidArgument(
        "schema mismatch: test dimensionality differs from training");
  }
  obs::Counter queries_counter("classify/knn/queries");
  obs::Span predict_span("classify/knn/predict_all");
  queries_counter.Add(queries.size());
  predict_span.AddArg(queries_counter.name(), queries.size());
  std::vector<uint32_t> predictions;
  predictions.reserve(queries.size());
  std::vector<double> buffer(queries.dim());
  for (size_t row = 0; row < queries.size(); ++row) {
    auto q = queries.point(row);
    for (size_t d = 0; d < buffer.size(); ++d) {
      buffer[d] = (q[d] - feature_means_[d]) / feature_scales_[d];
    }
    std::vector<std::pair<double, uint32_t>> neighbours =
        index_ != nullptr
            ? index_->KNearest(buffer, options_.k)
            : BruteKNearest(train_points_, buffer, options_.k,
                            &train_soa_);
    predictions.push_back(Vote(neighbours));
  }
  return predictions;
}

uint32_t KnnPredictPoint(const PointSet& train,
                         const std::vector<uint32_t>& labels,
                         size_t num_classes, std::span<const double> query,
                         size_t k, const KdTree* index) {
  DMT_CHECK_EQ(train.size(), labels.size());
  DMT_CHECK_GT(k, 0u);
  auto neighbours = index != nullptr ? index->KNearest(query, k)
                                     : BruteKNearest(train, query, k);
  std::vector<uint32_t> votes(num_classes, 0);
  for (const auto& [distance_sq, i] : neighbours) ++votes[labels[i]];
  uint32_t best = 0;
  for (uint32_t c = 1; c < votes.size(); ++c) {
    if (votes[c] > votes[best]) best = c;
  }
  return best;
}

}  // namespace dmt::classify
