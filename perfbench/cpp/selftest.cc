// Self-test of the serving oracle (oracle.h): a correct response stream
// passes; a single flipped byte, a missing response, an error response, a
// duplicate and a foreign id are each caught. Exit status 0 = pass.
//
//   cmake --build .bench_build/cmake --target pbtool_selftest
//   .bench_build/cmake/pbtool_selftest
#include <cstdio>
#include <cstring>
#include <vector>

#include "core/status.h"
#include "oracle.h"
#include "serve/protocol.h"

namespace {

using dmt::serve::Response;
using dmt::serve::RequestType;

int failures = 0;

void Expect(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<std::byte> Encode(const Response& response, uint64_t id) {
  Response copy = response;
  copy.id = id;
  return dmt::serve::EncodeResponseFrame(copy);
}

}  // namespace

int main() {
  Response labels;
  labels.type = RequestType::kClassify;
  labels.labels = {1, 0, 1};
  Response clusters;
  clusters.type = RequestType::kAssignCluster;
  clusters.clusters = {4};
  clusters.cluster_dist_sq = {0.25};
  const std::vector<std::vector<std::byte>> expected = {Encode(labels, 0),
                                                        Encode(clusters, 0)};
  // Request ids 1..4 use templates 0, 1, 1, 0.
  const std::vector<uint32_t> template_of = {0, 1, 1, 0};
  using Verdict = pb::ResponseOracle::Verdict;

  {
    pb::ResponseOracle oracle(&expected, &template_of);
    for (uint64_t id = 1; id <= 4; ++id) oracle.Sent(id);
    // Out of order is fine: ids pair responses with requests.
    for (uint64_t id : {3, 1, 4, 2}) {
      const Response& r = template_of[id - 1] == 0 ? labels : clusters;
      Expect(oracle.Check(Encode(r, id)) == Verdict::kMatch,
             "a correct response matches");
    }
    Expect(oracle.mismatched() == 0 && oracle.missing() == 0 &&
               oracle.unexpected() == 0,
           "a correct stream has no failures");
  }
  {
    pb::ResponseOracle oracle(&expected, &template_of);
    oracle.Sent(1);
    oracle.Sent(2);
    std::vector<std::byte> flipped = Encode(clusters, 2);
    // The last byte is inside cluster_dist_sq: a wrong answer.
    flipped.back() ^= std::byte{0x01};
    Expect(oracle.Check(Encode(labels, 1)) == Verdict::kMatch,
           "the untouched response matches");
    Expect(oracle.Check(flipped) == Verdict::kMismatch,
           "a single flipped byte is a mismatch");
    Expect(oracle.mismatched() == 1, "the flip is counted once");
  }
  {
    pb::ResponseOracle oracle(&expected, &template_of);
    oracle.Sent(1);
    oracle.Sent(2);
    oracle.Sent(3);
    Expect(oracle.Check(Encode(labels, 1)) == Verdict::kMatch, "id 1");
    Expect(oracle.Check(Encode(clusters, 3)) == Verdict::kMatch, "id 3");
    Expect(oracle.missing() == 1, "an unanswered request is missing");
  }
  {
    pb::ResponseOracle oracle(&expected, &template_of);
    oracle.Sent(1);
    oracle.Sent(2);
    const Response error = dmt::serve::MakeErrorResponse(
        2, dmt::core::Status::InvalidArgument("bad request"));
    Expect(oracle.Check(dmt::serve::EncodeResponseFrame(error)) ==
               Verdict::kMismatch,
           "an error response is a mismatch");
    Expect(oracle.Check(Encode(labels, 1)) == Verdict::kMatch, "id 1");
    Expect(oracle.Check(Encode(labels, 1)) == Verdict::kUnexpected,
           "a second response to one request is unexpected");
    Expect(oracle.Check(Encode(labels, 4)) == Verdict::kUnexpected,
           "a response to an unsent request is unexpected");
    Expect(oracle.Check(Encode(labels, 99)) == Verdict::kUnexpected,
           "an unknown id is unexpected");
    Expect(oracle.answered() == 2 && oracle.unexpected() == 3,
           "duplicates and strangers are not answers");
  }
  {
    pb::ResponseOracle oracle(&expected, &template_of);
    oracle.Sent(1);
    std::vector<std::byte> truncated = Encode(labels, 1);
    truncated.pop_back();
    Expect(oracle.Check(truncated) == Verdict::kMismatch,
           "a response of the wrong length is a mismatch");
  }
  if (failures == 0) std::printf("pbtool_selftest: all oracle checks pass\n");
  return failures == 0 ? 0 : 1;
}
