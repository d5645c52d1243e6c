// Wire-protocol robustness battery in the spirit of
// tests/io/corruption_test.cc: round-trips for every request/response
// shape, then systematic corruption — every truncation length, every
// magic byte flipped, lying declared lengths, unknown types, cap
// violations, trailing garbage — each of which must produce a
// descriptive Status (never a crash), and the Server / stream / queue
// layers must turn them into error responses while staying alive.
#include "serve/protocol.h"

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "serve/batch_queue.h"
#include "serve/daemon.h"
#include "serve/lru_cache.h"
#include "serve/server.h"
#include "test_bundle.h"

namespace dmt::serve {
namespace {

std::vector<std::byte> Truncate(const std::vector<std::byte>& frame,
                                size_t length) {
  return std::vector<std::byte>(frame.begin(), frame.begin() + length);
}

// ---------------------------------------------------------------- codec

TEST(ServeProtocolTest, ClassifyRequestRoundTrip) {
  Request request;
  request.id = 42;
  request.type = RequestType::kClassify;
  request.model = ClassifyModel::kKnn;
  request.count = 2;
  request.dim = 3;
  request.values = {1.0, -2.5, 3.25, 0.0, 7.5, -0.125};
  auto decoded = DecodeRequestFrame(EncodeRequestFrame(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().id, 42u);
  EXPECT_EQ(decoded.value().type, RequestType::kClassify);
  EXPECT_EQ(decoded.value().model, ClassifyModel::kKnn);
  EXPECT_EQ(decoded.value().count, 2u);
  EXPECT_EQ(decoded.value().dim, 3u);
  EXPECT_EQ(decoded.value().values, request.values);
}

TEST(ServeProtocolTest, ClusterRequestRoundTrip) {
  Request request;
  request.id = 7;
  request.type = RequestType::kAssignCluster;
  request.count = 2;
  request.dim = 2;
  request.values = {0.5, 1.5, -3.0, 4.0};
  auto decoded = DecodeRequestFrame(EncodeRequestFrame(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().type, RequestType::kAssignCluster);
  EXPECT_EQ(decoded.value().values, request.values);
}

TEST(ServeProtocolTest, RecommendRequestRoundTrip) {
  Request request;
  request.id = 9;
  request.type = RequestType::kRecommend;
  request.top_k = 5;
  request.count = 2;
  request.baskets = {{3, 1, 4}, {}};
  auto decoded = DecodeRequestFrame(EncodeRequestFrame(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().top_k, 5u);
  EXPECT_EQ(decoded.value().baskets, request.baskets);
}

TEST(ServeProtocolTest, StatsRequestRoundTrip) {
  Request request;
  request.id = 11;
  request.type = RequestType::kStats;
  auto decoded = DecodeRequestFrame(EncodeRequestFrame(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().id, 11u);
  EXPECT_EQ(decoded.value().type, RequestType::kStats);
}

TEST(ServeProtocolTest, ResponseRoundTrips) {
  Response classify;
  classify.id = 1;
  classify.type = RequestType::kClassify;
  classify.labels = {0, 2, 1};
  auto c = DecodeResponseFrame(EncodeResponseFrame(classify));
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c.value().labels, classify.labels);

  Response cluster;
  cluster.id = 2;
  cluster.type = RequestType::kAssignCluster;
  cluster.clusters = {3, 0};
  cluster.cluster_dist_sq = {1.25, 0.0};
  auto a = DecodeResponseFrame(EncodeResponseFrame(cluster));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a.value().clusters, cluster.clusters);
  EXPECT_EQ(a.value().cluster_dist_sq, cluster.cluster_dist_sq);

  Response recommend;
  recommend.id = 3;
  recommend.type = RequestType::kRecommend;
  recommend.recommendations = {
      {RuleHit{5, 0.75, 1.5, {8, 9}}, RuleHit{6, 0.5, 1.0, {}}}, {}};
  auto r = DecodeResponseFrame(EncodeResponseFrame(recommend));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().recommendations, recommend.recommendations);

  Response stats;
  stats.id = 4;
  stats.type = RequestType::kStats;
  stats.stats_json = "{\"x\":1}";
  auto s = DecodeResponseFrame(EncodeResponseFrame(stats));
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(s.value().stats_json, stats.stats_json);
}

TEST(ServeProtocolTest, ErrorResponseRoundTrip) {
  Response error = MakeErrorResponse(
      77, core::Status::InvalidArgument("boom goes the request"));
  auto decoded = DecodeResponseFrame(EncodeResponseFrame(error));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().id, 77u);
  EXPECT_NE(decoded.value().status, 0u);
  EXPECT_NE(decoded.value().error.find("boom goes the request"),
            std::string::npos);
}

// ----------------------------------------------------------- corruption

TEST(ServeProtocolTest, EveryTruncationLengthFailsDescriptively) {
  Request request;
  request.id = 3;
  request.type = RequestType::kClassify;
  request.model = ClassifyModel::kTree;
  request.count = 2;
  request.dim = 4;
  request.values.assign(8, 1.0);
  std::vector<std::byte> frame = EncodeRequestFrame(request);
  ASSERT_TRUE(DecodeRequestFrame(frame).ok());
  for (size_t length = 0; length < frame.size(); ++length) {
    auto decoded = DecodeRequestFrame(Truncate(frame, length));
    ASSERT_FALSE(decoded.ok()) << "truncation to " << length
                               << " byte(s) decoded successfully";
    EXPECT_FALSE(decoded.status().message().empty());
  }
}

TEST(ServeProtocolTest, EveryResponseTruncationLengthFails) {
  Response response;
  response.id = 8;
  response.type = RequestType::kRecommend;
  response.recommendations = {{RuleHit{1, 0.9, 2.0, {4, 5}}}};
  std::vector<std::byte> frame = EncodeResponseFrame(response);
  ASSERT_TRUE(DecodeResponseFrame(frame).ok());
  for (size_t length = 0; length < frame.size(); ++length) {
    EXPECT_FALSE(DecodeResponseFrame(Truncate(frame, length)).ok())
        << "truncation to " << length;
  }
}

TEST(ServeProtocolTest, EveryMagicByteFlipFails) {
  Request request;
  request.id = 1;
  request.type = RequestType::kStats;
  std::vector<std::byte> frame = EncodeRequestFrame(request);
  for (size_t i = 0; i < 4; ++i) {
    std::vector<std::byte> bad = frame;
    bad[i] ^= std::byte{0x40};
    auto decoded = DecodeRequestFrame(bad);
    ASSERT_FALSE(decoded.ok()) << "magic byte " << i;
    EXPECT_NE(decoded.status().ToString().find("magic"),
              std::string::npos);
  }
}

TEST(ServeProtocolTest, LyingDeclaredLengthFails) {
  Request request;
  request.id = 1;
  request.type = RequestType::kStats;
  std::vector<std::byte> frame = EncodeRequestFrame(request);
  uint32_t length = 0;
  std::memcpy(&length, frame.data() + 4, sizeof(length));
  for (int delta : {-1, 1}) {
    std::vector<std::byte> bad = frame;
    uint32_t lying = length + static_cast<uint32_t>(delta);
    std::memcpy(bad.data() + 4, &lying, sizeof(lying));
    EXPECT_FALSE(DecodeRequestFrame(bad).ok()) << "delta " << delta;
  }
  // A declared length above the cap is rejected before any allocation.
  std::vector<std::byte> huge = frame;
  uint32_t over_cap = kMaxFrameBody + 1;
  std::memcpy(huge.data() + 4, &over_cap, sizeof(over_cap));
  auto decoded = DecodeRequestFrame(huge);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().ToString().find("cap"), std::string::npos);
}

TEST(ServeProtocolTest, UnknownTypeAndModelFail) {
  Request stats;
  stats.id = 1;
  stats.type = RequestType::kStats;
  std::vector<std::byte> frame = EncodeRequestFrame(stats);
  // Body layout: u64 id, u8 type — the type byte sits at offset 16.
  frame[16] = std::byte{99};
  auto decoded = DecodeRequestFrame(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().ToString().find("unknown type"),
            std::string::npos);

  Request classify;
  classify.id = 1;
  classify.type = RequestType::kClassify;
  classify.count = 1;
  classify.dim = 1;
  classify.values = {1.0};
  std::vector<std::byte> cframe = EncodeRequestFrame(classify);
  cframe[17] = std::byte{42};  // model byte follows the type byte
  auto cdecoded = DecodeRequestFrame(cframe);
  ASSERT_FALSE(cdecoded.ok());
  EXPECT_NE(cdecoded.status().ToString().find("model"),
            std::string::npos);
}

TEST(ServeProtocolTest, CountAndDimCapViolationsFail) {
  Request classify;
  classify.id = 1;
  classify.type = RequestType::kClassify;
  classify.count = 1;
  classify.dim = 1;
  classify.values = {1.0};
  std::vector<std::byte> frame = EncodeRequestFrame(classify);
  // Body layout: id(8) type(1) model(1) count(4) dim(4) at body offsets
  // 0/8/9/10/14 => frame offsets +8.
  const size_t count_at = 8 + 8 + 1 + 1;
  const size_t dim_at = count_at + 4;
  for (uint32_t bad_count : {0u, kMaxRecordsPerRequest + 1}) {
    std::vector<std::byte> bad = frame;
    std::memcpy(bad.data() + count_at, &bad_count, sizeof(bad_count));
    EXPECT_FALSE(DecodeRequestFrame(bad).ok()) << bad_count;
  }
  for (uint32_t bad_dim : {0u, kMaxRecordDim + 1}) {
    std::vector<std::byte> bad = frame;
    std::memcpy(bad.data() + dim_at, &bad_dim, sizeof(bad_dim));
    EXPECT_FALSE(DecodeRequestFrame(bad).ok()) << bad_dim;
  }

  Request recommend;
  recommend.id = 1;
  recommend.type = RequestType::kRecommend;
  recommend.top_k = 1;
  recommend.count = 1;
  recommend.baskets = {{1}};
  std::vector<std::byte> rframe = EncodeRequestFrame(recommend);
  const size_t top_k_at = 8 + 8 + 1;  // id, type, then top_k
  uint32_t bad_top_k = kMaxTopK + 1;
  std::memcpy(rframe.data() + top_k_at, &bad_top_k, sizeof(bad_top_k));
  auto decoded = DecodeRequestFrame(rframe);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().ToString().find("top_k"), std::string::npos);
}

TEST(ServeProtocolTest, TrailingGarbageFails) {
  Request request;
  request.id = 1;
  request.type = RequestType::kStats;
  std::vector<std::byte> frame = EncodeRequestFrame(request);
  frame.push_back(std::byte{0xAB});
  uint32_t length = 0;
  std::memcpy(&length, frame.data() + 4, sizeof(length));
  ++length;  // keep the header honest so only the body is malformed
  std::memcpy(frame.data() + 4, &length, sizeof(length));
  EXPECT_FALSE(DecodeRequestFrame(frame).ok());
}

// ------------------------------------------------------------ LRU cache

TEST(ShardedLruCacheTest, HitRefreshAndEviction) {
  ShardedLruCache cache(/*capacity=*/2, /*num_shards=*/1);
  std::vector<RuleHit> a = {RuleHit{1, 0.5, 1.0, {2}}};
  std::vector<RuleHit> b = {RuleHit{2, 0.6, 1.1, {3}}};
  std::vector<RuleHit> c = {RuleHit{3, 0.7, 1.2, {4}}};
  EXPECT_EQ(cache.Put("a", a), 0u);
  EXPECT_EQ(cache.Put("b", b), 0u);
  ASSERT_TRUE(cache.Get("a").has_value());  // refreshes "a"
  EXPECT_EQ(cache.Put("c", c), 1u);         // evicts "b", the LRU entry
  EXPECT_FALSE(cache.Get("b").has_value());
  ASSERT_TRUE(cache.Get("a").has_value());
  EXPECT_EQ(*cache.Get("a"), a);
  ASSERT_TRUE(cache.Get("c").has_value());
  EXPECT_EQ(cache.Size(), 2u);
}

TEST(ShardedLruCacheTest, PutRefreshesExistingKey) {
  ShardedLruCache cache(/*capacity=*/4, /*num_shards=*/2);
  std::vector<RuleHit> v1 = {RuleHit{1, 0.5, 1.0, {2}}};
  std::vector<RuleHit> v2 = {RuleHit{9, 0.9, 2.0, {7}}};
  EXPECT_EQ(cache.Put("k", v1), 0u);
  EXPECT_EQ(cache.Put("k", v2), 0u);
  EXPECT_EQ(cache.Size(), 1u);
  EXPECT_EQ(*cache.Get("k"), v2);
}

// -------------------------------------------------------------- options

TEST(ServeOptionsTest, ValidateRejectsOutOfRangeValues) {
  EXPECT_TRUE(ServeOptions{}.Validate().ok());
  ServeOptions edge;
  edge.batch_size = 4096;
  edge.num_threads = ServeOptions::kMaxThreads;
  edge.cache_shards = 4096;
  EXPECT_TRUE(edge.Validate().ok());

  auto rejected = [](void (*mutate)(ServeOptions*)) {
    ServeOptions options;
    mutate(&options);
    return options.Validate().code() == core::StatusCode::kInvalidArgument;
  };
  EXPECT_TRUE(rejected([](ServeOptions* o) { o->batch_size = 0; }));
  EXPECT_TRUE(rejected([](ServeOptions* o) { o->batch_size = 4097; }));
  EXPECT_TRUE(rejected([](ServeOptions* o) {
    o->num_threads = ServeOptions::kMaxThreads + 1;
  }));
  // What an unchecked "--threads -1" used to become.
  EXPECT_TRUE(rejected([](ServeOptions* o) {
    o->num_threads = std::numeric_limits<size_t>::max();
  }));
  EXPECT_TRUE(rejected([](ServeOptions* o) { o->cache_shards = 0; }));
  EXPECT_TRUE(rejected([](ServeOptions* o) { o->cache_shards = 4097; }));
  EXPECT_TRUE(rejected([](ServeOptions* o) { o->verify_cache_hits = true; }));
}

// ------------------------------------------------------- script parser

TEST(ServeScriptTest, ParseScriptLineKeepsEveryU32Value) {
  auto parsed = ParseScriptLine("rules 4294967295 1 4294967295", 7);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Request& request = parsed.value();
  EXPECT_EQ(request.id, 7u);
  EXPECT_EQ(request.type, RequestType::kRecommend);
  EXPECT_EQ(request.top_k, 4294967295u);
  EXPECT_EQ(request.count, 1u);
  EXPECT_EQ(request.baskets,
            (std::vector<std::vector<uint32_t>>{{1, 4294967295u}}));
}

TEST(ServeScriptTest, ParseScriptLineRejectsValuesWiderThanU32) {
  // A value that does not fit the protocol's u32 is an error naming the
  // token, never a wrapped top_k or item id.
  const std::pair<const char*, const char*> cases[] = {
      {"rules 5 4294967296", "4294967296"},
      {"rules 4294967301 1 2", "4294967301"},
      {"rules 5 1 18446744073709551616", "18446744073709551616"},
  };
  for (const auto& [line, token] : cases) {
    auto parsed = ParseScriptLine(line, 1);
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), core::StatusCode::kInvalidArgument)
        << line;
    EXPECT_NE(parsed.status().message().find(token), std::string::npos)
        << parsed.status().ToString();
  }
}

// --------------------------------------------------- server robustness

class ServeServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bundle_ = new std::shared_ptr<const ModelBundle>(
        testutil::MakeTestBundle());
  }
  static void TearDownTestSuite() {
    delete bundle_;
    bundle_ = nullptr;
  }
  static std::shared_ptr<const ModelBundle> bundle() { return *bundle_; }

 private:
  static std::shared_ptr<const ModelBundle>* bundle_;
};

std::shared_ptr<const ModelBundle>* ServeServerTest::bundle_ = nullptr;

TEST_F(ServeServerTest, MalformedFrameYieldsErrorResponseAndServerLives) {
  Server server(bundle(), ServeOptions{});
  std::vector<std::byte> garbage(20, std::byte{0x5A});
  auto error = DecodeResponseFrame(server.HandleFrame(garbage));
  ASSERT_TRUE(error.ok()) << error.status().ToString();
  EXPECT_NE(error.value().status, 0u);
  EXPECT_FALSE(error.value().error.empty());

  // The server still serves valid requests afterwards.
  Request request = testutil::MakeClassifyRequest(
      5, ClassifyModel::kTree, bundle()->train(), {0, 1, 2});
  auto ok = DecodeResponseFrame(
      server.HandleFrame(EncodeRequestFrame(request)));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().status, 0u);
  EXPECT_EQ(ok.value().id, 5u);
  EXPECT_EQ(ok.value().labels.size(), 3u);
}

TEST_F(ServeServerTest, ValidationErrorEchoesRequestId) {
  Server server(bundle(), ServeOptions{});
  Request request;
  request.id = 123;
  request.type = RequestType::kClassify;
  request.model = ClassifyModel::kTree;
  request.count = 1;
  request.dim = 2;  // bundle schema expects 9 features
  request.values = {1.0, 2.0};
  auto response = DecodeResponseFrame(
      server.HandleFrame(EncodeRequestFrame(request)));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response.value().status, 0u);
  EXPECT_EQ(response.value().id, 123u);
  EXPECT_FALSE(response.value().error.empty());
}

TEST_F(ServeServerTest, AbsentArtifactIsFailedPreconditionNotCrash) {
  auto rules_only = ModelBundle::FromParts(
      std::nullopt, std::nullopt, std::nullopt, bundle()->rules());
  ASSERT_TRUE(rules_only.ok()) << rules_only.status().ToString();
  Server server(rules_only.value(), ServeOptions{});
  Request request = testutil::MakeClusterRequest(4, {0.0, 0.0}, 2);
  auto response = DecodeResponseFrame(
      server.HandleFrame(EncodeRequestFrame(request)));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response.value().status, 0u);
  EXPECT_EQ(response.value().id, 4u);

  // Rules are present, so recommendation still works on the same server.
  Request rules = testutil::MakeRecommendRequest(6, 3, {{1, 2, 3}});
  auto ok = DecodeResponseFrame(
      server.HandleFrame(EncodeRequestFrame(rules)));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().status, 0u);
  EXPECT_EQ(ok.value().recommendations.size(), 1u);
}

TEST_F(ServeServerTest, HugeItemIdAllocatesNothing) {
  // The largest item id a client can name sizes no memory: the basket is
  // answered from the rules it can match, like any other.
  Server server(bundle(), ServeOptions{});
  Request request =
      testutil::MakeRecommendRequest(9, 5, {{3, 4294967295u}});
  rusage before{};
  ASSERT_EQ(::getrusage(RUSAGE_SELF, &before), 0);
  auto response = DecodeResponseFrame(
      server.HandleFrame(EncodeRequestFrame(request)));
  rusage after{};
  ASSERT_EQ(::getrusage(RUSAGE_SELF, &after), 0);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 0u) << response.value().error;
  ASSERT_EQ(response.value().recommendations.size(), 1u);
  EXPECT_TRUE(response.value().recommendations[0].empty());
  // ru_maxrss is in KiB.
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 64 * 1024)
      << "peak RSS grew from " << before.ru_maxrss << " to "
      << after.ru_maxrss << " KiB";
}

TEST_F(ServeServerTest, TreeSplitOnWrongAttributeTypeRejectsBundle) {
  // The bundled CART tree splits its root on a numeric attribute. Serve
  // it next to a training set with the same attribute names, all
  // categorical: the threshold would read a numeric column the request
  // dataset does not have.
  const tree::TreeNode& root = bundle()->tree().root();
  ASSERT_FALSE(root.is_leaf);
  ASSERT_EQ(root.kind, tree::SplitKind::kNumericThreshold);
  const core::Dataset& train = bundle()->train();
  core::DatasetBuilder builder;
  for (size_t a = 0; a < train.num_attributes(); ++a) {
    builder.AddCategoricalColumn(train.attribute(a).name,
                                 std::vector<uint32_t>(train.num_rows(), 0),
                                 {"only"});
  }
  builder.SetLabels(
      std::vector<uint32_t>(train.labels().begin(), train.labels().end()),
      train.class_names());
  auto categorical = builder.Build();
  ASSERT_TRUE(categorical.ok()) << categorical.status().ToString();

  auto mismatched = ModelBundle::FromParts(
      bundle()->tree(), std::move(categorical).value(), std::nullopt,
      std::nullopt);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), core::StatusCode::kInvalidArgument);
  const std::string& message = mismatched.status().message();
  EXPECT_NE(message.find("node 0 "), std::string::npos) << message;
  EXPECT_NE(message.find("'" + train.attribute(root.attribute).name + "'"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("numeric"), std::string::npos) << message;
  EXPECT_NE(message.find("categorical"), std::string::npos) << message;
}

TEST_F(ServeServerTest, HandleFramesPreservesOrderAroundFailures) {
  Server server(bundle(), ServeOptions{});
  std::vector<std::vector<std::byte>> frames;
  frames.push_back(EncodeRequestFrame(testutil::MakeClassifyRequest(
      1, ClassifyModel::kNaiveBayes, bundle()->train(), {0})));
  frames.push_back(std::vector<std::byte>(5, std::byte{0x00}));
  frames.push_back(EncodeRequestFrame(
      testutil::MakeRecommendRequest(3, 4, {{2, 5, 9}})));
  auto responses = server.HandleFrames(frames);
  ASSERT_EQ(responses.size(), 3u);
  auto first = DecodeResponseFrame(responses[0]);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().id, 1u);
  EXPECT_EQ(first.value().status, 0u);
  auto second = DecodeResponseFrame(responses[1]);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second.value().status, 0u);
  auto third = DecodeResponseFrame(responses[2]);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value().id, 3u);
  EXPECT_EQ(third.value().status, 0u);
}

// -------------------------------------------------- stream robustness

/// Reads response frames from `fd` into an id-keyed map (responses may
/// complete out of order) until `expected` frames arrived.
std::map<uint64_t, Response> CollectResponses(int fd, size_t expected) {
  std::map<uint64_t, Response> responses;
  for (size_t i = 0; i < expected; ++i) {
    auto frame = ReadFrame(fd, kResponseMagic);
    if (!frame.ok() || frame.value().empty()) break;
    auto response = DecodeResponseFrame(frame.value());
    if (!response.ok()) break;
    responses[response.value().id] = std::move(response).value();
  }
  return responses;
}

TEST_F(ServeServerTest, StreamSurvivesMalformedBody) {
  Server server(bundle(), ServeOptions{});
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  std::thread serving([&] {
    core::Status status = ServeStream(&server, sv[1], sv[1]);
    EXPECT_TRUE(status.ok()) << status.ToString();
    ::close(sv[1]);
  });

  // stats, then a frame whose header is fine but whose body has an
  // unknown type (framing survives, the request errors), then stats.
  Request stats1;
  stats1.id = 1;
  stats1.type = RequestType::kStats;
  Request stats3 = stats1;
  stats3.id = 3;
  std::vector<std::byte> bad = EncodeRequestFrame(stats1);
  bad[16] = std::byte{77};  // type byte

  for (const auto& frame :
       {EncodeRequestFrame(stats1), bad, EncodeRequestFrame(stats3)}) {
    ASSERT_TRUE(WriteAll(sv[0], frame).ok());
  }
  ASSERT_EQ(::shutdown(sv[0], SHUT_WR), 0);

  std::map<uint64_t, Response> responses = CollectResponses(sv[0], 3);
  serving.join();
  ::close(sv[0]);

  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses.at(1).status, 0u);
  EXPECT_EQ(responses.at(3).status, 0u);
  EXPECT_NE(responses.at(0).status, 0u);  // decode failures report id 0
  EXPECT_FALSE(responses.at(0).error.empty());
}

TEST_F(ServeServerTest, StreamClosesCleanlyOnBadHeader) {
  Server server(bundle(), ServeOptions{});
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  core::Status stream_status = core::Status::OK();
  std::thread serving([&] {
    stream_status = ServeStream(&server, sv[1], sv[1]);
    ::close(sv[1]);
  });

  Request stats;
  stats.id = 1;
  stats.type = RequestType::kStats;
  ASSERT_TRUE(WriteAll(sv[0], EncodeRequestFrame(stats)).ok());
  std::vector<std::byte> garbage(kFrameHeaderBytes, std::byte{0xEE});
  ASSERT_TRUE(WriteAll(sv[0], garbage).ok());
  ASSERT_EQ(::shutdown(sv[0], SHUT_WR), 0);

  std::map<uint64_t, Response> responses = CollectResponses(sv[0], 2);
  serving.join();
  ::close(sv[0]);

  // The stream reported the framing error (and only the stream died —
  // the server object is still usable below).
  EXPECT_FALSE(stream_status.ok());
  ASSERT_TRUE(responses.count(0));
  EXPECT_NE(responses.at(0).status, 0u);

  Request probe = testutil::MakeRecommendRequest(9, 2, {{1, 2}});
  auto after = DecodeResponseFrame(
      server.HandleFrame(EncodeRequestFrame(probe)));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().status, 0u);
}

/// `count` stats request frames with ids 1..count, back to back. Stats
/// responses embed the registry snapshot (kilobytes each), so a
/// thousand of them overflow the socket buffers several times over.
std::vector<std::byte> StatsFrames(uint64_t count) {
  std::vector<std::byte> bytes;
  Request stats;
  stats.type = RequestType::kStats;
  for (stats.id = 1; stats.id <= count; ++stats.id) {
    std::vector<std::byte> frame = EncodeRequestFrame(stats);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  return bytes;
}

TEST_F(ServeServerTest, StreamSurvivesPeerHangUp) {
  ServeOptions options;
  options.num_threads = 2;
  Server server(bundle(), options);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  core::Status stream_status;
  std::thread serving([&] {
    stream_status = ServeStream(&server, sv[1], sv[1]);
    ::close(sv[1]);
  });
  // The peer sends far more than its receive buffer can take back, then
  // closes without reading a byte: some response write hits the closed
  // peer. Were that a SIGPIPE, this test binary would die here.
  ASSERT_TRUE(WriteAll(sv[0], StatsFrames(1000)).ok());
  ::close(sv[0]);
  serving.join();
  EXPECT_EQ(stream_status.code(), core::StatusCode::kIOError)
      << stream_status.ToString();
}

TEST_F(ServeServerTest, StreamAnswersAClientThatWritesEverythingFirst) {
  // A client may write every request before it reads any response (a
  // batch job, or dmtd --stdin fed by a pipe). 20,000 requests
  // overflow the request direction's buffers while the responses fill
  // the other direction's, so workers block writing. The stream's
  // reader must keep taking requests meanwhile, or client and daemon
  // each wait for the other for good.
  constexpr uint64_t kRequests = 20000;
  ServeOptions options;
  options.num_threads = 2;
  Server server(bundle(), options);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  core::Status stream_status;
  std::thread serving([&] {
    stream_status = ServeStream(&server, sv[1], sv[1]);
    ::shutdown(sv[1], SHUT_WR);  // the client's read loop sees EOF
  });
  std::promise<std::vector<uint64_t>> answered;
  std::future<std::vector<uint64_t>> ids = answered.get_future();
  std::thread client([&] {
    std::vector<uint64_t> seen;
    if (WriteAll(sv[0], StatsFrames(kRequests)).ok()) {
      ::shutdown(sv[0], SHUT_WR);
      for (;;) {
        auto frame = ReadFrame(sv[0], kResponseMagic);
        if (!frame.ok() || frame.value().empty()) break;
        auto response = DecodeResponseFrame(frame.value());
        if (response.ok()) seen.push_back(response.value().id);
      }
    }
    answered.set_value(std::move(seen));
  });
  const bool finished =
      ids.wait_for(std::chrono::seconds(300)) == std::future_status::ready;
  if (!finished) {
    // Deadlocked: break both directions so every thread can be joined.
    ::shutdown(sv[0], SHUT_RDWR);
    ::shutdown(sv[1], SHUT_RDWR);
  }
  client.join();
  serving.join();
  ::close(sv[0]);
  ::close(sv[1]);
  ASSERT_TRUE(finished) << "client and daemon deadlocked";
  EXPECT_TRUE(stream_status.ok()) << stream_status.ToString();
  std::vector<uint64_t> got = ids.get();
  std::sort(got.begin(), got.end());
  ASSERT_EQ(got.size(), kRequests);
  for (uint64_t i = 0; i < kRequests; ++i) ASSERT_EQ(got[i], i + 1);
}

/// Connects to the AF_UNIX socket at `path`, retrying while the serving
/// thread is still binding it. Returns -1 if it never comes up.
int ConnectWithRetry(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int attempt = 0; attempt < 500; ++attempt) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                             sizeof(addr)) == 0) {
      return fd;
    }
    if (fd >= 0) ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

TEST_F(ServeServerTest, ClosingAConnectionWaitsOnlyForItsOwnResponses) {
  ServeOptions options;
  options.num_threads = 2;
  Server server(bundle(), options);
  const std::string path = ::testing::TempDir() + "dmt_close_isolation_" +
                           std::to_string(::getpid()) + ".sock";
  ASSERT_LT(path.size(), sizeof(sockaddr_un::sun_path));
  core::Status serve_status;
  std::thread serving([&] {
    serve_status = ServeSocket(&server, path, /*max_connections=*/2);
  });

  // A: one request, answered.
  const int a = ConnectWithRetry(path);
  ASSERT_GE(a, 0);
  const Request probe = testutil::MakeRecommendRequest(1, 2, {{1, 2}});
  ASSERT_TRUE(WriteAll(a, EncodeRequestFrame(probe)).ok());
  auto answer = ReadFrame(a, kResponseMagic);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_FALSE(answer.value().empty());

  // B: floods requests and never reads. Once its first response lands,
  // B's requests are in service, and since the socket buffers cannot
  // hold them all, the workers writing them block for good.
  const int b = ConnectWithRetry(path);
  ASSERT_GE(b, 0);
  ASSERT_TRUE(WriteAll(b, StatsFrames(1000)).ok());
  pollfd b_ready{b, POLLIN, 0};
  ASSERT_EQ(::poll(&b_ready, 1, /*timeout_ms=*/5000), 1);

  // A is done: its connection must close (EOF) although B's requests
  // are stuck behind B's full socket.
  ASSERT_EQ(::shutdown(a, SHUT_WR), 0);
  pollfd a_ready{a, POLLIN, 0};
  const bool a_closed = ::poll(&a_ready, 1, /*timeout_ms=*/5000) == 1;
  EXPECT_TRUE(a_closed)
      << "connection A was held open by connection B's traffic";
  if (a_closed) {
    std::byte byte{};
    EXPECT_EQ(::read(a, &byte, 1), 0);  // EOF, no stray response
  }
  ::close(a);

  // B hangs up; the daemon drops its remaining responses and returns.
  ::close(b);
  serving.join();
  ::unlink(path.c_str());
  EXPECT_TRUE(serve_status.ok()) << serve_status.ToString();
}

TEST_F(ServeServerTest, BatchQueueDeliversErrorsAndKeepsServing) {
  ServeOptions options;
  options.batch_size = 4;
  options.num_threads = 2;
  Server server(bundle(), options);
  std::mutex mutex;
  std::map<uint64_t, Response> responses;
  auto collect = [&](std::vector<std::byte> frame) {
    auto response = DecodeResponseFrame(frame);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    std::lock_guard<std::mutex> lock(mutex);
    responses[response.value().id] = std::move(response).value();
  };
  {
    BatchQueue queue(&server);
    queue.Submit(EncodeRequestFrame(testutil::MakeClassifyRequest(
                     1, ClassifyModel::kKnn, bundle()->train(), {4})),
                 collect);
    queue.Submit(std::vector<std::byte>(3, std::byte{0x11}), collect);
    queue.Flush();
    // The malformed frame did not wedge the queue: later requests on the
    // same queue still complete.
    queue.Submit(EncodeRequestFrame(
                     testutil::MakeRecommendRequest(7, 3, {{3, 4}})),
                 collect);
    queue.Flush();
  }
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses.at(1).status, 0u);
  EXPECT_EQ(responses.at(1).labels.size(), 1u);
  EXPECT_NE(responses.at(0).status, 0u);
  EXPECT_EQ(responses.at(7).status, 0u);
}

TEST_F(ServeServerTest, BatchQueueReleasesEachCallbackAsSoonAsItRuns) {
  // dmtd's callbacks own their connection, whose fd closes with the
  // last of them, so a callback that has run must not be kept alive by
  // a later callback of its batch that blocks on another client.
  ServeOptions options;
  options.batch_size = 8;
  options.num_threads = 1;
  Server server(bundle(), options);
  Request request;
  request.type = RequestType::kStats;
  const std::vector<std::byte> stats = EncodeRequestFrame(request);

  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = token;
  bool released_before_next = false;
  std::promise<void> started;
  std::promise<void> release;
  std::future<void> release_signal = release.get_future();
  {
    BatchQueue queue(&server);
    // Holds the only worker, so the next two requests share one batch.
    queue.Submit(stats, [&](std::vector<std::byte>) {
      started.set_value();
      release_signal.wait();
    });
    started.get_future().wait();
    queue.Submit(stats, [token = std::move(token)](std::vector<std::byte>) {});
    queue.Submit(stats, [&](std::vector<std::byte>) {
      released_before_next = watch.expired();
    });
    release.set_value();
  }
  EXPECT_TRUE(released_before_next);
}

}  // namespace
}  // namespace dmt::serve
