#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <span>
#include <thread>
#include <utility>

#include "net/socket_util.h"
#include "util/endian.h"

namespace wcsd {

namespace {

using net::ErrnoStatus;
using net::MsgType;
using net::WireError;
using net::WireHeader;

Status StatusFromError(WireError error) {
  const std::string msg =
      std::string("server rejected request: ") + net::WireErrorName(error);
  switch (error) {
    case WireError::kOverloaded:
    case WireError::kShardUnavailable:
      return Status::Unavailable(msg);
    case WireError::kDeadlineExceeded:
      return Status::DeadlineExceeded(msg);
    case WireError::kNotSupported:
      return Status::Unimplemented(msg);
    default:
      return Status::InvalidArgument(msg);
  }
}

/// Milliseconds on the steady clock, for the end-to-end deadline.
uint64_t NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// xorshift64* step for backoff jitter — no need to drag in a full RNG.
uint64_t NextJitter(uint64_t* state) {
  uint64_t x = *state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  *state = x;
  return x * 0x2545F4914F6CDD1DULL;
}

uint64_t JitterSeed(const WcClientOptions& options) {
  return options.jitter_seed != 0 ? options.jitter_seed
                                  : 0x9E3779B97F4A7C15ULL;
}

/// Sleeps one retry backoff (~*backoff, halved then jittered) and doubles
/// *backoff up to options.backoff_max_ms. Returns false, without
/// sleeping, when the sleep would reach `deadline_at_ms` (0 = none).
bool Backoff(const WcClientOptions& options, uint64_t deadline_at_ms,
             uint64_t* backoff, uint64_t* jitter) {
  const uint64_t sleep_ms =
      *backoff / 2 + NextJitter(jitter) % (*backoff / 2 + 1);
  if (deadline_at_ms != 0 && NowMs() + sleep_ms >= deadline_at_ms) {
    return false;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  *backoff = std::min(*backoff * 2,
                      std::max<uint64_t>(1, options.backoff_max_ms));
  return true;
}

/// Opens one TCP connection; connect(2) gets what is left of the budget
/// until `deadline_at_ms` (0 = unbounded).
Result<int> OpenSocket(const std::string& host, uint16_t port,
                       uint64_t deadline_at_ms) {
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host address " + host);
  }
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return ErrnoStatus("socket");
  if (deadline_at_ms != 0) {
    const uint64_t now = NowMs();
    if (now >= deadline_at_ms) {
      close(fd);
      return Status::DeadlineExceeded("deadline expired before connect");
    }
    // SO_SNDTIMEO bounds connect(2) on Linux; arm it with exactly the
    // remaining budget.
    const uint64_t remaining = deadline_at_ms - now;
    timeval tv;
    tv.tv_sec = static_cast<time_t>(remaining / 1000);
    tv.tv_usec = static_cast<suseconds_t>((remaining % 1000) * 1000);
    setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st = (errno == EAGAIN || errno == EWOULDBLOCK ||
                 errno == EINPROGRESS)
                    ? Status::DeadlineExceeded(
                          "deadline expired during connect to " + host +
                          ":" + std::to_string(port))
                    : ErrnoStatus("connect " + host + ":" +
                                  std::to_string(port));
    close(fd);
    return st;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// The kQueryReply decoder Query and QueryPipelined share.
bool DecodeDistance(std::span<const uint8_t> payload, Distance* dist) {
  net::QueryReplyPayload reply{};
  if (!net::QueryReplyFrame::Decode(payload, &reply)) return false;
  *dist = reply.dist;
  return true;
}

Status MalformedReply() {
  return Status::Corruption("malformed reply payload from server");
}

}  // namespace

WcClient::WcClient(int fd, const WcClientOptions& options)
    : fd_(fd), options_(options), jitter_state_(JitterSeed(options)) {}

Result<WcClient> WcClient::Connect(const std::string& host, uint16_t port,
                                   const WcClientOptions& options) {
  WCSD_RETURN_NOT_OK(CheckSerializationByteOrder());
  const uint64_t deadline_at =
      options.deadline_ms != 0 ? NowMs() + options.deadline_ms : 0;
  uint64_t jitter = JitterSeed(options);
  uint64_t backoff = std::max<uint64_t>(1, options.backoff_base_ms);
  for (uint32_t attempt = 0;; ++attempt) {
    Result<int> fd = OpenSocket(host, port, deadline_at);
    if (fd.ok()) return WcClient(fd.value(), options);
    const StatusCode code = fd.status().code();
    // Bad addresses never get better, and a spent deadline has no budget
    // left to sleep on. Everything else (refused, unreachable, reset
    // mid-handshake) is the transient class connect retries exist for.
    if (attempt >= options.max_retries ||
        code == StatusCode::kInvalidArgument ||
        code == StatusCode::kDeadlineExceeded ||
        !Backoff(options, deadline_at, &backoff, &jitter)) {
      return fd.status();
    }
  }
}

WcClient::WcClient(WcClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      next_request_id_(other.next_request_id_),
      options_(other.options_),
      deadline_at_ms_(other.deadline_at_ms_),
      last_wire_error_(other.last_wire_error_),
      jitter_state_(other.jitter_state_) {}

WcClient& WcClient::operator=(WcClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    next_request_id_ = other.next_request_id_;
    options_ = other.options_;
    deadline_at_ms_ = other.deadline_at_ms_;
    last_wire_error_ = other.last_wire_error_;
    jitter_state_ = other.jitter_state_;
  }
  return *this;
}

WcClient::~WcClient() {
  if (fd_ >= 0) close(fd_);
}

void WcClient::BeginRequest() {
  deadline_at_ms_ =
      options_.deadline_ms != 0 ? NowMs() + options_.deadline_ms : 0;
}

Status WcClient::ArmTimeout(int which) {
  if (deadline_at_ms_ == 0) return Status::OK();
  const uint64_t now = NowMs();
  if (now >= deadline_at_ms_) {
    return Status::DeadlineExceeded("request deadline expired");
  }
  const uint64_t remaining = deadline_at_ms_ - now;
  timeval tv;
  tv.tv_sec = static_cast<time_t>(remaining / 1000);
  // Round up to a whole tick: a 0/0 timeval means "block forever", the
  // opposite of an almost-expired deadline.
  tv.tv_usec = static_cast<suseconds_t>((remaining % 1000) * 1000);
  if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1000;
  setsockopt(fd_, SOL_SOCKET, which, &tv, sizeof(tv));
  return Status::OK();
}

Status WcClient::SendBytes(const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  size_t sent = 0;
  while (sent < size) {
    // Re-armed per syscall so a stalled peer cannot stretch one send past
    // the whole-request deadline (no-op when no deadline is set).
    WCSD_RETURN_NOT_OK(ArmTimeout(SO_SNDTIMEO));
    ssize_t n = net::SendSome(fd_, bytes + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return deadline_at_ms_ != 0
                   ? Status::DeadlineExceeded("request deadline expired "
                                              "during send")
                   : Status::IoError("send timed out");
      }
      return ErrnoStatus("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<WireFrame> WcClient::ReadRawFrame() {
  auto read_exact = [&](uint8_t* into, size_t size) -> Status {
    size_t got = 0;
    while (got < size) {
      WCSD_RETURN_NOT_OK(ArmTimeout(SO_RCVTIMEO));
      ssize_t n = net::RecvSome(fd_, into + got, size - got, 0);
      if (n == 0) {
        return Status::IoError(got == 0 ? "connection closed"
                                        : "connection closed mid-frame");
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          return deadline_at_ms_ != 0
                     ? Status::DeadlineExceeded("request deadline expired "
                                                "waiting for a reply")
                     : Status::IoError("timed out waiting for a reply");
        }
        return ErrnoStatus("recv");
      }
      got += static_cast<size_t>(n);
    }
    return Status::OK();
  };

  uint8_t head[sizeof(WireHeader)] = {};
  WCSD_RETURN_NOT_OK(read_exact(head, sizeof(head)));
  WireFrame frame;
  const uint8_t* payload = nullptr;
  // ParseFrame checks a bare header as soon as it is complete: one that
  // passes reads kNeedMore, or kOk when no payload follows.
  const WireError framing = net::FramingError(net::ParseFrame(
      head, sizeof(head), net::kMaxPayloadBytes, &frame.header, &payload));
  if (framing != WireError::kOk) {
    return Status::Corruption(std::string(net::WireErrorName(framing)) +
                              " from server");
  }
  frame.payload.resize(frame.header.payload_bytes);
  if (!frame.payload.empty()) {
    WCSD_RETURN_NOT_OK(read_exact(frame.payload.data(),
                                  frame.payload.size()));
  }
  return frame;
}

Status WcClient::ShutdownSend() {
  if (shutdown(fd_, SHUT_WR) < 0) return ErrnoStatus("shutdown");
  return Status::OK();
}

Result<WireFrame> WcClient::ReadReply(MsgType expected, uint64_t first_id,
                                      uint64_t end_id) {
  Result<WireFrame> frame = ReadRawFrame();
  if (!frame.ok()) return frame;
  const WireHeader& header = frame.value().header;
  if (static_cast<MsgType>(header.type) == MsgType::kError) {
    last_wire_error_ = static_cast<WireError>(header.status);
    return StatusFromError(last_wire_error_);
  }
  if (static_cast<MsgType>(header.type) != expected ||
      header.status != static_cast<uint8_t>(WireError::kOk)) {
    return Status::Corruption("unexpected reply type from server");
  }
  if (header.request_id < first_id || header.request_id >= end_id) {
    return Status::Corruption("reply id does not match request");
  }
  return frame;
}

template <typename T, typename Encode, typename Decode>
Result<T> WcClient::Call(MsgType reply_type, size_t records, Encode encode,
                         Decode decode) {
  if (records > net::kMaxBatchQueries) {
    // A bigger batch does not fit one frame (a framing error that closes
    // the connection), and bigger top-k or profile requests would get
    // replies that do not; fail the call instead and keep the stream
    // healthy.
    return Status::InvalidArgument(
        "request of " + std::to_string(records) +
        " records exceeds the wire frame limit of " +
        std::to_string(net::kMaxBatchQueries) + "; split it across frames");
  }
  BeginRequest();
  uint64_t backoff = std::max<uint64_t>(1, options_.backoff_base_ms);
  for (uint32_t tries = 0;; ++tries) {
    const uint64_t id = next_request_id_++;
    std::vector<uint8_t> out;
    encode(&out, id);
    WCSD_RETURN_NOT_OK(SendBytes(out.data(), out.size()));
    last_wire_error_ = WireError::kOk;
    Result<WireFrame> reply = ReadReply(reply_type, id, id + 1);
    if (reply.ok()) {
      T value{};
      if (!decode(std::span<const uint8_t>(reply.value().payload), &value)) {
        return MalformedReply();
      }
      return value;
    }
    // Only kOverloaded is retry-safe on a live connection: the server
    // explicitly never executed the request and kept the stream healthy.
    // IO errors are NOT retried here — after a torn send the request may
    // have executed, and this transport has no request dedup.
    if (tries >= options_.max_retries ||
        last_wire_error_ != WireError::kOverloaded ||
        !Backoff(options_, deadline_at_ms_, &backoff, &jitter_state_)) {
      return reply.status();
    }
  }
}

Result<Distance> WcClient::Query(Vertex s, Vertex t, Quality w) {
  return Call<Distance>(
      MsgType::kQueryReply, 1,
      [&](std::vector<uint8_t>* out, uint64_t id) {
        net::AppendQueryRequest(out, id, s, t, w);
      },
      DecodeDistance);
}

Result<std::vector<Distance>> WcClient::Batch(
    const std::vector<BatchQueryInput>& queries) {
  return Call<std::vector<Distance>>(
      MsgType::kBatchQueryReply, queries.size(),
      [&](std::vector<uint8_t>* out, uint64_t id) {
        net::AppendBatchRequest(out, id, queries);
      },
      [&](std::span<const uint8_t> payload, std::vector<Distance>* results) {
        return net::BatchReplyFrame::Decode(payload, results) &&
               results->size() == queries.size();
      });
}

Result<std::vector<RankedCandidate>> WcClient::TopK(
    Vertex source, const std::vector<Vertex>& candidates, Quality w,
    uint32_t k) {
  return Call<std::vector<RankedCandidate>>(
      MsgType::kTopKReply, candidates.size(),
      [&](std::vector<uint8_t>* out, uint64_t id) {
        net::AppendTopKRequest(out, id, source, candidates, w, k);
      },
      [&](std::span<const uint8_t> payload,
          std::vector<RankedCandidate>* ranked) {
        return net::TopKReplyFrame::Decode(payload, ranked) &&
               ranked->size() <= std::min<size_t>(k, candidates.size());
      });
}

Result<std::vector<ProfilePoint>> WcClient::Profile(
    Vertex s, Vertex t, const std::vector<Quality>& thresholds) {
  return Call<std::vector<ProfilePoint>>(
      MsgType::kProfileReply, thresholds.size(),
      [&](std::vector<uint8_t>* out, uint64_t id) {
        net::AppendProfileRequest(out, id, s, t, thresholds);
      },
      [&](std::span<const uint8_t> payload,
          std::vector<ProfilePoint>* profile) {
        return net::ProfileReplyFrame::Decode(payload, profile) &&
               profile->size() == thresholds.size();
      });
}

Result<std::vector<Vertex>> WcClient::Path(Vertex s, Vertex t, Quality w) {
  return Call<std::vector<Vertex>>(
      MsgType::kPathReply, 1,
      [&](std::vector<uint8_t>* out, uint64_t id) {
        net::AppendPathRequest(out, id, s, t, w);
      },
      [](std::span<const uint8_t> payload, std::vector<Vertex>* path) {
        return net::PathReplyFrame::Decode(payload, path);
      });
}

Result<WireStats> WcClient::Stats() {
  return Call<WireStats>(
      MsgType::kStatsReply, 0, net::AppendStatsRequest,
      [](std::span<const uint8_t> payload, WireStats* stats) {
        net::StatsReplyPrefix prefix{};
        if (!net::StatsReplyFrame::Decode(payload, &stats->shards, &prefix)) {
          return false;
        }
        static_cast<net::StatsReplyPayload&>(*stats) = prefix.stats;
        return true;
      });
}

Result<net::HealthReplyPayload> WcClient::Health() {
  return Call<net::HealthReplyPayload>(MsgType::kHealthReply, 0,
                                       net::AppendHealthRequest,
                                       net::HealthReplyFrame::Decode);
}

Result<std::vector<Distance>> WcClient::QueryPipelined(
    const std::vector<BatchQueryInput>& queries, size_t window) {
  // Deadline applies; retry does not — replies already consumed from the
  // pipeline cannot be safely replayed.
  BeginRequest();
  if (window == 0) window = 1;
  std::vector<Distance> results(queries.size(), kInfDistance);
  const uint64_t base_id = next_request_id_;
  next_request_id_ += queries.size();

  size_t sent = 0;
  auto send_some = [&](size_t upto) -> Status {
    std::vector<uint8_t> out;
    for (; sent < upto; ++sent) {
      const BatchQueryInput& q = queries[sent];
      net::AppendQueryRequest(&out, base_id + sent, q.s, q.t, q.w);
    }
    if (out.empty()) return Status::OK();
    return SendBytes(out.data(), out.size());
  };

  WCSD_RETURN_NOT_OK(send_some(std::min(window, queries.size())));
  for (size_t received = 0; received < queries.size(); ++received) {
    Result<WireFrame> frame =
        ReadReply(MsgType::kQueryReply, base_id, base_id + queries.size());
    if (!frame.ok()) return frame.status();
    if (!DecodeDistance(frame.value().payload,
                        &results[frame.value().header.request_id - base_id])) {
      return MalformedReply();
    }
    // Keep the window full: one reply in, one request out.
    WCSD_RETURN_NOT_OK(send_some(std::min(sent + 1, queries.size())));
  }
  return results;
}

}  // namespace wcsd
