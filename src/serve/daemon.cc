#include "serve/daemon.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>

#include "core/mmap_file.h"
#include "core/string_util.h"
#include "obs/expose.h"
#include "obs/log.h"
#include "serve/batch_queue.h"

namespace dmt::serve {

using core::Result;
using core::Status;

MetricsDumper::MetricsDumper(std::string path, uint32_t interval_ms)
    : path_(std::move(path)),
      interval_ms_(interval_ms > 0 ? interval_ms : 1) {
  DumpOnce();
  thread_ = std::thread([this] { Loop(); });
}

MetricsDumper::~MetricsDumper() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  thread_.join();
  DumpOnce();
}

void MetricsDumper::DumpOnce() {
  const std::string text = obs::RenderPrometheusText();
  Status written = core::WriteFileBytes(
      path_,
      std::as_bytes(std::span<const char>(text.data(), text.size())));
  if (!written.ok()) {
    obs::Log(obs::LogSeverity::kWarning, "metrics dump to %s failed: %s",
             path_.c_str(), written.ToString().c_str());
  }
}

void MetricsDumper::Loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (stop_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                          [this] { return stopping_; })) {
      return;  // final dump happens after join, from the destructor
    }
    lock.unlock();
    DumpOnce();
    lock.lock();
  }
}

namespace {

/// read() that retries EINTR; returns bytes read (0 = EOF).
Result<size_t> ReadSome(int fd, std::byte* out, size_t size) {
  for (;;) {
    ssize_t n = ::read(fd, out, size);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    return Status::IOError(
        core::StrFormat("read failed: %s", std::strerror(errno)));
  }
}

/// Reads exactly `size` bytes. `eof_ok` permits EOF at offset 0 (signalled
/// by returning false); EOF mid-buffer is always an error.
Result<bool> ReadExact(int fd, std::byte* out, size_t size, bool eof_ok) {
  size_t done = 0;
  while (done < size) {
    DMT_ASSIGN_OR_RETURN(size_t n, ReadSome(fd, out + done, size - done));
    if (n == 0) {
      if (done == 0 && eof_ok) return false;
      return Status::IOError(core::StrFormat(
          "unexpected EOF after %zu of %zu frame byte(s)", done, size));
    }
    done += n;
  }
  return true;
}

}  // namespace

Result<std::vector<std::byte>> ReadFrame(int fd, uint32_t magic) {
  std::vector<std::byte> frame(kFrameHeaderBytes);
  DMT_ASSIGN_OR_RETURN(
      bool got_header,
      ReadExact(fd, frame.data(), kFrameHeaderBytes, /*eof_ok=*/true));
  if (!got_header) return std::vector<std::byte>{};  // clean EOF
  DMT_ASSIGN_OR_RETURN(uint32_t body_length,
                       CheckFrameHeader(frame, magic));
  frame.resize(kFrameHeaderBytes + body_length);
  DMT_ASSIGN_OR_RETURN(
      bool got_body,
      ReadExact(fd, frame.data() + kFrameHeaderBytes, body_length,
                /*eof_ok=*/false));
  (void)got_body;
  return frame;
}

Status WriteAll(int fd, std::span<const std::byte> bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const std::byte* data = bytes.data() + done;
    const size_t size = bytes.size() - done;
    // MSG_NOSIGNAL: a hung-up peer is EPIPE here, not a fatal SIGPIPE.
    ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(
          core::StrFormat("write failed: %s", std::strerror(errno)));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

namespace {

/// Write side of one response stream, shared by its reader and by the
/// callbacks of its pending requests. Responses complete on queue
/// workers, so writes serialize on the mutex. An owning writer closes
/// the fd when its last owner lets go, which is after the stream's last
/// response is written: a connection closes as soon as its own
/// responses are out, whatever other streams do, and no late write can
/// reach a reused fd number.
struct ResponseWriter {
  ResponseWriter(int out_fd, bool owns) : fd(out_fd), owns_fd(owns) {}
  ~ResponseWriter() {
    if (owns_fd) ::close(fd);
  }
  ResponseWriter(const ResponseWriter&) = delete;
  ResponseWriter& operator=(const ResponseWriter&) = delete;

  /// After a write error (the client hung up) later responses are
  /// dropped: the error kills the stream, not the daemon.
  void Write(std::span<const std::byte> frame) {
    std::lock_guard<std::mutex> lock(mutex);
    if (!status.ok()) return;
    status = WriteAll(fd, frame);
    if (!status.ok()) {
      obs::Log(obs::LogSeverity::kWarning, "response write: %s",
               status.ToString().c_str());
    }
  }

  int fd;
  bool owns_fd;
  std::mutex mutex;
  Status status;  ///< The first write error, else OK.
};

/// Reads request frames from in_fd into `queue` until EOF or a framing
/// error; responses go to `writer`. Returns OK on EOF. Never waits for a
/// response, so a client that writes all its requests before reading
/// any cannot stall its own reader.
Status PumpRequests(BatchQueue* queue, int in_fd,
                    const std::shared_ptr<ResponseWriter>& writer) {
  for (;;) {
    Result<std::vector<std::byte>> frame = ReadFrame(in_fd, kRequestMagic);
    if (!frame.ok()) {
      // The stream cannot be re-framed; answer once and stop reading.
      writer->Write(EncodeResponseFrame(
          MakeErrorResponse(0, frame.status())));
      return frame.status();
    }
    if (frame.value().empty()) return Status::OK();  // EOF
    queue->Submit(std::move(frame).value(),
                  [writer](std::vector<std::byte> response) {
                    writer->Write(response);
                  });
  }
}

}  // namespace

Status ServeStream(Server* server, int in_fd, int out_fd) {
  auto writer = std::make_shared<ResponseWriter>(out_fd, /*owns=*/false);
  Status read_status;
  {
    BatchQueue queue(server);
    read_status = PumpRequests(&queue, in_fd, writer);
  }  // ~BatchQueue drains: every response is written or dropped here
  return read_status.ok() ? writer->status : read_status;
}

Status ServeSocket(Server* server, const std::string& path,
                   size_t max_connections) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument(
        core::StrFormat("socket path too long (%zu bytes)", path.size()));
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    return Status::IOError(
        core::StrFormat("socket: %s", std::strerror(errno)));
  }
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 64) != 0) {
    Status status = Status::IOError(core::StrFormat(
        "bind/listen %s: %s", path.c_str(), std::strerror(errno)));
    ::close(listener);
    return status;
  }
  obs::Log(obs::LogSeverity::kInfo, "dmtd listening on %s", path.c_str());

  BatchQueue queue(server);
  std::vector<std::thread> readers;
  size_t accepted = 0;
  while (max_connections == 0 || accepted < max_connections) {
    int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      ::close(listener);
      for (std::thread& t : readers) t.join();
      return Status::IOError(
          core::StrFormat("accept: %s", std::strerror(errno)));
    }
    ++accepted;
    readers.emplace_back([&queue, conn] {
      // The writer owns conn: it closes once this reader is done and
      // the connection's last response is written.
      auto writer = std::make_shared<ResponseWriter>(conn, /*owns=*/true);
      (void)PumpRequests(&queue, conn, writer);
    });
  }
  ::close(listener);
  for (std::thread& t : readers) t.join();
  return Status::OK();
}

namespace {

/// Parses a query value that the protocol carries as a u32. A wider
/// value is an InvalidArgument naming the token, never a wrapped one.
Result<uint32_t> ParseU32Token(const char* what, const std::string& token) {
  DMT_ASSIGN_OR_RETURN(uint64_t value, core::ParseUint(token));
  if (value > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(core::StrFormat(
        "%s \"%s\" is out of range [0, %u]", what, token.c_str(),
        std::numeric_limits<uint32_t>::max()));
  }
  return static_cast<uint32_t>(value);
}

}  // namespace

Result<Request> ParseScriptLine(const std::string& line, uint64_t id) {
  std::string_view trimmed = core::Trim(line);
  if (trimmed.empty() || trimmed.front() == '#') {
    return Status::NotFound("skip");
  }
  std::vector<std::string> tokens;
  for (const std::string& token :
       core::Split(std::string(trimmed), ' ')) {
    if (!token.empty()) tokens.push_back(token);
  }
  Request request;
  request.id = id;
  const std::string& verb = tokens.front();
  if (verb == "stats") {
    request.type = RequestType::kStats;
    return request;
  }
  if (verb == "classify") {
    if (tokens.size() < 3) {
      return Status::InvalidArgument(
          "classify needs a model and at least one value");
    }
    request.type = RequestType::kClassify;
    if (tokens[1] == "tree") {
      request.model = ClassifyModel::kTree;
    } else if (tokens[1] == "knn") {
      request.model = ClassifyModel::kKnn;
    } else if (tokens[1] == "nb") {
      request.model = ClassifyModel::kNaiveBayes;
    } else {
      return Status::InvalidArgument(
          core::StrFormat("unknown model \"%s\"", tokens[1].c_str()));
    }
    for (size_t i = 2; i < tokens.size(); ++i) {
      DMT_ASSIGN_OR_RETURN(double v, core::ParseDouble(tokens[i]));
      request.values.push_back(v);
    }
    request.count = 1;
    request.dim = static_cast<uint32_t>(request.values.size());
    return request;
  }
  if (verb == "cluster") {
    if (tokens.size() < 2) {
      return Status::InvalidArgument("cluster needs at least one value");
    }
    request.type = RequestType::kAssignCluster;
    for (size_t i = 1; i < tokens.size(); ++i) {
      DMT_ASSIGN_OR_RETURN(double v, core::ParseDouble(tokens[i]));
      request.values.push_back(v);
    }
    request.count = 1;
    request.dim = static_cast<uint32_t>(request.values.size());
    return request;
  }
  if (verb == "rules") {
    if (tokens.size() < 2) {
      return Status::InvalidArgument("rules needs a top_k");
    }
    request.type = RequestType::kRecommend;
    DMT_ASSIGN_OR_RETURN(request.top_k, ParseU32Token("top_k", tokens[1]));
    std::vector<uint32_t> basket;
    for (size_t i = 2; i < tokens.size(); ++i) {
      DMT_ASSIGN_OR_RETURN(uint32_t item, ParseU32Token("item id", tokens[i]));
      basket.push_back(item);
    }
    request.count = 1;
    request.baskets.push_back(std::move(basket));
    return request;
  }
  return Status::InvalidArgument(
      core::StrFormat("unknown query verb \"%s\"", verb.c_str()));
}

std::string FormatResponse(const Response& response) {
  std::string out = core::StrFormat(
      "id=%llu", static_cast<unsigned long long>(response.id));
  if (response.status != 0) {
    out += " error ";
    out += response.error;
    return out;
  }
  switch (response.type) {
    case RequestType::kClassify:
      out += " labels";
      for (uint32_t label : response.labels) {
        out += core::StrFormat(" %u", label);
      }
      break;
    case RequestType::kAssignCluster:
      out += " clusters";
      for (size_t i = 0; i < response.clusters.size(); ++i) {
        out += core::StrFormat(" %u(dist=%.6g)", response.clusters[i],
                               response.cluster_dist_sq[i]);
      }
      break;
    case RequestType::kRecommend:
      for (const std::vector<RuleHit>& hits : response.recommendations) {
        out += core::StrFormat(" rules %zu", hits.size());
        for (const RuleHit& hit : hits) {
          out += core::StrFormat(" [%u:%.4f:%.4f=>{", hit.rule_index,
                                 hit.confidence, hit.lift);
          for (size_t i = 0; i < hit.consequent.size(); ++i) {
            out += core::StrFormat(i == 0 ? "%u" : ",%u",
                                   hit.consequent[i]);
          }
          out += "}]";
        }
      }
      break;
    case RequestType::kStats:
      out += " stats ";
      out += response.stats_json;
      break;
  }
  return out;
}

}  // namespace dmt::serve
