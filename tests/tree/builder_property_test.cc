// Property sweep over every Agrawal function and every tree builder:
// learned trees must beat the majority baseline out of sample, fit the
// training set at least as well as a stump, and predict deterministically.
#include <gtest/gtest.h>

#include <algorithm>

#include "eval/cross_validation.h"
#include "eval/metrics.h"
#include "gen/agrawal.h"
#include "split_oracle.h"
#include "tree/builder.h"
#include "tree/discretize.h"
#include "tree/sliq.h"

namespace dmt::tree {
namespace {

using core::Dataset;

enum class Builder {
  kC45,
  kCart,
  kSliq,
  kId3Binned,
  /// Reference and diff variants of the greedy builder: C4.5 grown
  /// naively by the brute-force split oracle (split_oracle.h) and the
  /// threaded presorted search must satisfy every property the defaults
  /// do (and grow the very same trees — pinned node-for-node by
  /// parallel_diff_test).
  kC45Oracle,
  kCartThreaded,
};

std::string BuilderName(Builder builder) {
  switch (builder) {
    case Builder::kC45:
      return "C45";
    case Builder::kCart:
      return "Cart";
    case Builder::kSliq:
      return "Sliq";
    case Builder::kId3Binned:
      return "Id3Binned";
    case Builder::kC45Oracle:
      return "C45Naive";
    case Builder::kCartThreaded:
      return "CartThreaded";
  }
  return "?";
}

struct Fitted {
  DecisionTree tree;
  Dataset train;
  Dataset test;
};

core::Result<Fitted> Fit(Builder builder, int function, uint64_t seed) {
  gen::AgrawalParams params;
  params.function = function;
  params.num_records = 1500;
  DMT_ASSIGN_OR_RETURN(Dataset data, gen::GenerateAgrawal(params, seed));
  DMT_ASSIGN_OR_RETURN(
      eval::Split split,
      eval::StratifiedTrainTestSplit(data.labels(), 0.3, seed + 1));
  Fitted out;
  eval::MaterializeSplit(data, split, &out.train, &out.test);
  switch (builder) {
    case Builder::kC45: {
      DMT_ASSIGN_OR_RETURN(out.tree, BuildC45(out.train));
      return out;
    }
    case Builder::kCart: {
      DMT_ASSIGN_OR_RETURN(out.tree, BuildCart(out.train));
      return out;
    }
    case Builder::kSliq: {
      DMT_ASSIGN_OR_RETURN(out.tree, BuildSliq(out.train));
      return out;
    }
    case Builder::kId3Binned: {
      DMT_ASSIGN_OR_RETURN(Dataset binned_train,
                           EqualWidthDiscretize(out.train, 8));
      DMT_ASSIGN_OR_RETURN(Dataset binned_test,
                           EqualWidthDiscretize(out.test, 8));
      out.train = std::move(binned_train);
      out.test = std::move(binned_test);
      DMT_ASSIGN_OR_RETURN(out.tree, BuildId3(out.train));
      return out;
    }
    case Builder::kC45Oracle: {
      TreeOptions options;
      options.criterion = SplitCriterion::kGainRatio;
      options.categorical_style = CategoricalSplitStyle::kMultiway;
      out.tree = oracle::Grow(out.train, options);
      return out;
    }
    case Builder::kCartThreaded: {
      TreeOptions options;
      options.num_threads = 4;
      DMT_ASSIGN_OR_RETURN(out.tree, BuildCart(out.train, options));
      return out;
    }
  }
  return core::Status::Internal("unknown builder");
}

using PropertyParam = std::tuple<Builder, int>;

class TreePropertyTest : public testing::TestWithParam<PropertyParam> {};

TEST_P(TreePropertyTest, BeatsMajorityBaselineOutOfSample) {
  auto [builder, function] = GetParam();
  auto fitted = Fit(builder, function, 300 + function);
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  std::vector<uint32_t> truth(fitted->test.labels().begin(),
                              fitted->test.labels().end());
  auto accuracy =
      eval::Accuracy(truth, fitted->tree.PredictAll(fitted->test));
  ASSERT_TRUE(accuracy.ok());
  auto counts = fitted->test.ClassCounts();
  double majority =
      static_cast<double>(
          *std::max_element(counts.begin(), counts.end())) /
      static_cast<double>(fitted->test.num_rows());
  // On roughly balanced functions demand a real improvement; on the
  // heavily skewed ones (F10's groupB is ~0.2% of records) demand
  // non-inferiority to the majority vote.
  double bar = majority < 0.9 ? majority + 0.02 : majority - 0.01;
  EXPECT_GT(*accuracy, bar) << BuilderName(builder) << " F" << function
                            << " majority " << majority;
}

TEST_P(TreePropertyTest, PredictionsAreDeterministic) {
  auto [builder, function] = GetParam();
  auto a = Fit(builder, function, 300 + function);
  auto b = Fit(builder, function, 300 + function);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->tree.PredictAll(a->test), b->tree.PredictAll(b->test));
  EXPECT_EQ(a->tree.num_nodes(), b->tree.num_nodes());
}

TEST_P(TreePropertyTest, LeafHistogramsSumToTrainingRows) {
  auto [builder, function] = GetParam();
  auto fitted = Fit(builder, function, 300 + function);
  ASSERT_TRUE(fitted.ok());
  // Sum of reachable-leaf sample counts must equal the training size.
  uint64_t total = 0;
  std::vector<size_t> stack = {0};
  while (!stack.empty()) {
    size_t index = stack.back();
    stack.pop_back();
    const TreeNode& node = fitted->tree.node(index);
    if (node.is_leaf) {
      total += node.NumSamples();
      continue;
    }
    for (uint32_t child : node.children) stack.push_back(child);
  }
  EXPECT_EQ(total, fitted->train.num_rows());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TreePropertyTest,
    testing::Combine(testing::Values(Builder::kC45, Builder::kCart,
                                     Builder::kSliq, Builder::kId3Binned,
                                     Builder::kC45Oracle,
                                     Builder::kCartThreaded),
                     testing::Range(1, 11)),
    [](const testing::TestParamInfo<PropertyParam>& param_info) {
      return BuilderName(std::get<0>(param_info.param)) + "_F" +
             std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace dmt::tree
