// Serving oracle: every response read off the socket must equal, byte for
// byte, the in-process Server::HandleFrames answer to the same request.
// The determinism contract (serve/server.h) makes that answer independent
// of batch size, thread count and cache state, so any difference is a
// failure. Request frames are built from templates: expected[t] is the
// in-process response to template t encoded with request id 0, and the
// oracle compares a live response to it with the id bytes swapped in.
#ifndef PERFBENCH_CPP_ORACLE_H_
#define PERFBENCH_CPP_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "serve/protocol.h"

namespace pb {

/// Byte offset and width of the request id inside a response frame
/// (after the u32 magic and u32 body length).
inline constexpr size_t kIdOffset = dmt::serve::kFrameHeaderBytes;
inline constexpr size_t kIdBytes = 8;

inline uint64_t FrameId(std::span<const std::byte> frame) {
  uint64_t id = 0;
  if (frame.size() >= kIdOffset + kIdBytes) {
    std::memcpy(&id, frame.data() + kIdOffset, kIdBytes);
  }
  return id;
}

/// Checks the responses of one connection. Request ids are 1..N; request
/// id k was built from template template_of[k - 1]. Not thread-safe: one
/// instance per connection.
class ResponseOracle {
 public:
  enum class Verdict { kMatch, kMismatch, kUnexpected };

  ResponseOracle(const std::vector<std::vector<std::byte>>* expected,
                 const std::vector<uint32_t>* template_of)
      : expected_(expected),
        template_of_(template_of),
        state_(template_of->size(), kNotSent) {}

  /// Records that request `id` was sent on this connection.
  void Sent(uint64_t id) {
    state_[id - 1] = kSent;
    ++sent_;
  }

  /// Classifies one response frame. A response to a request this
  /// connection did not send, or a second response to one, is
  /// kUnexpected; a response whose bytes differ from the expected answer
  /// is kMismatch (error responses included).
  Verdict Check(std::span<const std::byte> frame) {
    const uint64_t id = FrameId(frame);
    if (id == 0 || id > state_.size() || state_[id - 1] != kSent) {
      ++unexpected_;
      return Verdict::kUnexpected;
    }
    state_[id - 1] = kAnswered;
    ++answered_;
    const std::vector<std::byte>& want =
        (*expected_)[(*template_of_)[id - 1]];
    const bool same =
        frame.size() == want.size() &&
        std::memcmp(frame.data(), want.data(), kIdOffset) == 0 &&
        std::memcmp(frame.data() + kIdOffset + kIdBytes,
                    want.data() + kIdOffset + kIdBytes,
                    want.size() - kIdOffset - kIdBytes) == 0;
    if (!same) {
      ++mismatched_;
      return Verdict::kMismatch;
    }
    return Verdict::kMatch;
  }

  uint64_t sent() const { return sent_; }
  uint64_t answered() const { return answered_; }
  uint64_t mismatched() const { return mismatched_; }
  uint64_t unexpected() const { return unexpected_; }
  /// Requests sent and never answered.
  uint64_t missing() const { return sent_ - answered_; }

 private:
  enum State : uint8_t { kNotSent, kSent, kAnswered };

  const std::vector<std::vector<std::byte>>* expected_;
  const std::vector<uint32_t>* template_of_;
  std::vector<uint8_t> state_;
  uint64_t sent_ = 0;
  uint64_t answered_ = 0;
  uint64_t mismatched_ = 0;
  uint64_t unexpected_ = 0;
};

}  // namespace pb

#endif  // PERFBENCH_CPP_ORACLE_H_
