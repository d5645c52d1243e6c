// Daemon front-ends over a Server: frame transport on raw fds, a stream
// loop (stdin/pipe mode), an AF_UNIX socket listener with one reader
// thread per connection, and the text script/query format used by
// tools/dmtd.cc and the check.sh smoke tier.
//
// Robustness stance: a malformed request *body* produces an error
// response and the daemon keeps serving — the frame boundary is intact.
// A malformed frame *header* (bad magic or an oversized declared length)
// means the byte stream itself can no longer be framed; the daemon sends
// one final error response and closes that stream only, never the
// process (tests/serve/protocol_test.cc holds decode to the first half;
// the stream loops implement the second).
#ifndef DMT_SERVE_DAEMON_H_
#define DMT_SERVE_DAEMON_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/status.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace dmt::serve {

/// Periodic registry export for scrapers: renders the full metrics
/// registry (counters, gauges, histograms) in Prometheus text format to
/// `path` once at start, every `interval_ms` thereafter, and one final
/// time at destruction — so even a short script run leaves a complete
/// dump behind. Writes go through core::WriteFileBytes (same-directory
/// temp + rename), so scrapers never read a torn file. Used by
/// `dmtd --metrics-path`.
class MetricsDumper {
 public:
  MetricsDumper(std::string path, uint32_t interval_ms);
  /// Stops the timer thread and writes the final dump.
  ~MetricsDumper();

  MetricsDumper(const MetricsDumper&) = delete;
  MetricsDumper& operator=(const MetricsDumper&) = delete;

  /// Renders and writes one dump now. Logs (and keeps running) on write
  /// failure — metrics export must never take the daemon down.
  void DumpOnce();

 private:
  void Loop();

  std::string path_;
  uint32_t interval_ms_;
  std::mutex mutex_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::thread thread_;
};

/// Reads one length-prefixed frame with the given magic from `fd`.
/// Returns an empty vector on clean EOF (no bytes read), IOError on a
/// read failure or mid-frame EOF, Corruption on a bad header.
core::Result<std::vector<std::byte>> ReadFrame(int fd, uint32_t magic);

/// Writes the whole buffer, retrying short writes. On a socket a peer
/// that hung up is an IOError, never SIGPIPE; on any other fd the caller
/// must ignore SIGPIPE for the same guarantee.
core::Status WriteAll(int fd, std::span<const std::byte> bytes);

/// Serves frames from `in_fd`, writing responses to `out_fd`, until EOF.
/// Requests flow through a BatchQueue, so responses may be written out
/// of request order (match by id). On a framing error, writes one error
/// response and returns its status. Otherwise returns the first response
/// write error (the reader hung up; later responses are dropped), or OK
/// once every response is written.
core::Status ServeStream(Server* server, int in_fd, int out_fd);

/// Binds an AF_UNIX socket at `path` (unlinking any stale file first)
/// and serves connections, each on its own reader thread, all feeding
/// one shared BatchQueue. A connection closes as soon as its client has
/// finished sending and its own responses are written; responses still
/// pending for other clients never hold it open. Returns after
/// `max_connections` connections have been accepted and fully served
/// (0 = serve forever).
core::Status ServeSocket(Server* server, const std::string& path,
                         size_t max_connections);

/// Parses one text query line into a request (the script/client format):
///   classify tree|knn|nb <v1> <v2> ...
///   cluster <v1> <v2> ...
///   rules <top_k> <item1> <item2> ...
///   stats
/// Blank lines and lines starting with '#' yield NotFound ("skip").
core::Result<Request> ParseScriptLine(const std::string& line,
                                      uint64_t id);

/// One-line text rendering of a response, stable for smoke-test greps:
///   id=<id> error <message>
///   id=<id> labels <l...>
///   id=<id> clusters <c>(dist=<d>) ...
///   id=<id> rules <n> [<rule>:<conf>:<lift>=>{items}] ...
///   id=<id> stats <json>
std::string FormatResponse(const Response& response);

}  // namespace dmt::serve

#endif  // DMT_SERVE_DAEMON_H_
