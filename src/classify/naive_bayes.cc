#include "classify/naive_bayes.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "core/bitset.h"
#include "core/check.h"
#include "core/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmt::classify {

using core::AttributeType;
using core::Dataset;
using core::Result;
using core::Status;

Status NaiveBayesClassifier::Fit(const Dataset& train) {
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("cannot fit on an empty dataset");
  }
  if (options_.laplace_alpha < 0.0) {
    return Status::InvalidArgument("laplace_alpha must be >= 0");
  }
  if (options_.variance_floor <= 0.0) {
    return Status::InvalidArgument("variance_floor must be > 0");
  }
  obs::Span fit_span("classify/naive_bayes/fit");
  num_attributes_ = train.num_attributes();
  num_classes_ = train.num_classes();
  attribute_types_.clear();
  numeric_stats_.assign(num_attributes_, {});
  categorical_log_likelihood_.assign(num_attributes_, {});

  std::vector<size_t> class_counts = train.ClassCounts();
  log_priors_.assign(num_classes_, 0.0);
  for (uint32_t c = 0; c < num_classes_; ++c) {
    // Laplace-smoothed priors keep classes absent from the sample finite.
    log_priors_[c] = std::log(
        (static_cast<double>(class_counts[c]) + 1.0) /
        (static_cast<double>(train.num_rows()) +
         static_cast<double>(num_classes_)));
  }

  for (size_t a = 0; a < num_attributes_; ++a) {
    const auto& attr = train.attribute(a);
    attribute_types_.push_back(attr.type);
    if (attr.type == AttributeType::kNumeric) {
      // Per-class mean and variance.
      std::vector<double> sum(num_classes_, 0.0);
      std::vector<double> sum_sq(num_classes_, 0.0);
      auto column = train.NumericColumn(a);
      for (size_t row = 0; row < train.num_rows(); ++row) {
        uint32_t label = train.Label(row);
        sum[label] += column[row];
        sum_sq[label] += column[row] * column[row];
      }
      numeric_stats_[a].resize(num_classes_);
      for (uint32_t c = 0; c < num_classes_; ++c) {
        double n = static_cast<double>(class_counts[c]);
        if (n == 0.0) {
          numeric_stats_[a][c] = {0.0, 1.0};
          continue;
        }
        double mean = sum[c] / n;
        double variance = sum_sq[c] / n - mean * mean;
        numeric_stats_[a][c] = {
            mean, std::max(variance, options_.variance_floor)};
      }
    } else {
      size_t num_categories = attr.num_categories();
      categorical_log_likelihood_[a].assign(
          num_classes_, std::vector<double>(num_categories, 0.0));
      std::vector<std::vector<uint32_t>> counts(
          num_classes_, std::vector<uint32_t>(num_categories, 0));
      auto column = train.CategoricalColumn(a);
      for (size_t row = 0; row < train.num_rows(); ++row) {
        ++counts[train.Label(row)][column[row]];
      }
      for (uint32_t c = 0; c < num_classes_; ++c) {
        double denominator =
            static_cast<double>(class_counts[c]) +
            options_.laplace_alpha * static_cast<double>(num_categories);
        for (size_t v = 0; v < num_categories; ++v) {
          double numerator = static_cast<double>(counts[c][v]) +
                             options_.laplace_alpha;
          if (numerator <= 0.0) {
            // alpha == 0 and unseen: effectively -inf; use a huge penalty
            // so other attributes can still break ties.
            categorical_log_likelihood_[a][c][v] = -1e100;
          } else {
            categorical_log_likelihood_[a][c][v] =
                std::log(numerator / denominator);
          }
        }
      }
    }
  }
  fitted_ = true;
  return Status::OK();
}

Result<std::vector<double>> NaiveBayesClassifier::LogScores(
    const Dataset& data, size_t row) const {
  if (!fitted_) {
    return Status::FailedPrecondition("classifier has not been fitted");
  }
  if (data.num_attributes() != num_attributes_) {
    return Status::InvalidArgument(core::StrFormat(
        "schema mismatch: fitted on %zu attributes, queried with %zu",
        num_attributes_, data.num_attributes()));
  }
  std::vector<double> scores = log_priors_;
  constexpr double kLogTwoPi = 1.8378770664093453;  // log(2*pi)
  for (size_t a = 0; a < num_attributes_; ++a) {
    if (data.attribute(a).type != attribute_types_[a]) {
      return Status::InvalidArgument(
          "schema mismatch: attribute type differs from training");
    }
    if (attribute_types_[a] == AttributeType::kNumeric) {
      double value = data.Numeric(row, a);
      for (uint32_t c = 0; c < num_classes_; ++c) {
        const NumericStats& stats = numeric_stats_[a][c];
        double diff = value - stats.mean;
        scores[c] += -0.5 * (kLogTwoPi + std::log(stats.variance) +
                             diff * diff / stats.variance);
      }
    } else {
      uint32_t value = data.Categorical(row, a);
      if (value >= categorical_log_likelihood_[a][0].size()) {
        return Status::OutOfRange(
            "category code outside the training dictionary");
      }
      for (uint32_t c = 0; c < num_classes_; ++c) {
        scores[c] += categorical_log_likelihood_[a][c][value];
      }
    }
  }
  return scores;
}

bool NaiveBayesClassifier::ValidForFastPath(const Dataset& test) const {
  if (!fitted_ || test.num_attributes() != num_attributes_) return false;
  if (test.num_rows() == 0) return false;
  for (size_t a = 0; a < num_attributes_; ++a) {
    if (test.attribute(a).type != attribute_types_[a]) return false;
    if (attribute_types_[a] == AttributeType::kNumeric) continue;
    // Categorical column: every observed code must exist in the training
    // dictionary. One bitmask-subset kernel call per column replaces the
    // per-row per-value range check in LogScores.
    const size_t train_cats = categorical_log_likelihood_[a][0].size();
    const size_t test_cats = test.attribute(a).num_categories();
    const size_t span = std::max(train_cats, test_cats);
    core::DynamicBitset observed(span);
    core::DynamicBitset valid(span);
    for (size_t v = 0; v < train_cats; ++v) valid.Set(v);
    auto column = test.CategoricalColumn(a);
    for (size_t row = 0; row < test.num_rows(); ++row) {
      observed.Set(column[row]);
    }
    if (!observed.IsSubsetOf(valid)) return false;
  }
  return true;
}

Result<std::vector<uint32_t>> NaiveBayesClassifier::PredictAll(
    const Dataset& test) const {
  obs::Counter predictions_counter("classify/naive_bayes/predictions");
  obs::Span predict_span("classify/naive_bayes/predict_all");
  predictions_counter.Add(test.num_rows());
  predict_span.AddArg(predictions_counter.name(), test.num_rows());
  std::vector<uint32_t> predictions;
  predictions.reserve(test.num_rows());
  if (!ValidForFastPath(test)) {
    // Something would fail validation (or the test set is empty): run the
    // per-row checked path so the error row/attribute/order is exactly
    // what LogScores reports.
    for (size_t row = 0; row < test.num_rows(); ++row) {
      DMT_ASSIGN_OR_RETURN(std::vector<double> scores,
                           LogScores(test, row));
      uint32_t best = 0;
      for (uint32_t c = 1; c < scores.size(); ++c) {
        if (scores[c] > scores[best]) best = c;
      }
      predictions.push_back(best);
    }
    return predictions;
  }
  // Fast path: schema and dictionaries pre-validated above, so score rows
  // with no per-value checks and a reused buffer. The accumulation order
  // matches LogScores term for term, so predictions are bit-identical.
  constexpr double kLogTwoPi = 1.8378770664093453;  // log(2*pi)
  std::vector<double> scores;
  for (size_t row = 0; row < test.num_rows(); ++row) {
    scores = log_priors_;
    for (size_t a = 0; a < num_attributes_; ++a) {
      if (attribute_types_[a] == AttributeType::kNumeric) {
        const double value = test.Numeric(row, a);
        for (uint32_t c = 0; c < num_classes_; ++c) {
          const NumericStats& stats = numeric_stats_[a][c];
          const double diff = value - stats.mean;
          scores[c] += -0.5 * (kLogTwoPi + std::log(stats.variance) +
                               diff * diff / stats.variance);
        }
      } else {
        const uint32_t value = test.Categorical(row, a);
        for (uint32_t c = 0; c < num_classes_; ++c) {
          scores[c] += categorical_log_likelihood_[a][c][value];
        }
      }
    }
    uint32_t best = 0;
    for (uint32_t c = 1; c < scores.size(); ++c) {
      if (scores[c] > scores[best]) best = c;
    }
    predictions.push_back(best);
  }
  return predictions;
}

}  // namespace dmt::classify
