// WcClient: the wire-protocol client library (net/wire.h).
//
// Blocking sockets, two call shapes:
//   * sync      — Query/Batch/TopK/Profile/Path/Stats/Health send one
//                 request frame and wait for its reply;
//   * pipelined — QueryPipelined keeps a window of single-query frames in
//                 flight on the one connection, overlapping the network
//                 round trip with the server's work. Replies are matched by
//                 request id, not arrival order.
// Every sync call takes one request path: assign the id, encode and send
// the frame, read and check the reply header, decode the payload with the
// net/wire codec, and retry only kOverloaded. The client never sizes a
// payload itself; it adds only each family's count rule (a batch reply
// has one distance per query, a top-k reply at most min(k, candidates)
// records, a profile reply one point per threshold), and a reply that
// breaks its shape or its rule is a Corruption status.
// A connection is not thread-safe; open one WcClient per caller thread
// (the server multiplexes any number of connections).
//
// Reliability (WcClientOptions): `deadline_ms` is a real end-to-end
// deadline — one monotonic clock armed at the top of every public call
// (and across connect) and re-checked before every send and receive, so a
// call can never outlive its budget no matter how the time is spent.
// `max_retries` retries with exponential backoff plus jitter, and only
// where a retry is safe: connect failures (nothing was ever sent) and
// kOverloaded rejections (the server explicitly promised the request was
// never executed and the stream stays healthy). kShardUnavailable and
// kDeadlineExceeded are NOT retried — the former will keep failing until
// the shard is repaired, the latter means the budget is already spent.
//
// The raw escape hatches (SendBytes/ReadRawFrame/ShutdownSend) exist for
// protocol tests and tooling that must speak malformed or future frames on
// purpose.

#ifndef WCSD_NET_CLIENT_H_
#define WCSD_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/batch.h"
#include "net/wire.h"
#include "util/status.h"
#include "util/types.h"

namespace wcsd {

/// One frame read off the socket, payload copied out of the stream.
struct WireFrame {
  net::WireHeader header;
  std::vector<uint8_t> payload;
};

/// A decoded kStatsReply: the server's counters (net::StatsReplyPayload)
/// and its per-shard balance records (empty when the server's engine is
/// not sharded).
struct WireStats : net::StatsReplyPayload {
  std::vector<net::ShardBalancePayload> shards;
};

/// Reliability policy for a connection. Defaults: no deadline, no retries.
struct WcClientOptions {
  /// End-to-end budget for every public call (and for Connect itself),
  /// spanning all sends, receives, and retry backoffs within the call.
  /// 0 = unbounded.
  uint64_t deadline_ms = 0;
  /// Retries after the first attempt, for connect failures and
  /// kOverloaded rejections only. 0 = fail fast.
  uint32_t max_retries = 0;
  /// Exponential backoff: sleep ~backoff_base_ms * 2^attempt between
  /// retries (halved-then-jittered to decorrelate clients), capped at
  /// backoff_max_ms.
  uint64_t backoff_base_ms = 10;
  uint64_t backoff_max_ms = 1000;
  /// Seed for backoff jitter; 0 picks a fixed default (tests stay
  /// deterministic by seeding explicitly).
  uint64_t jitter_seed = 0;
};

class WcClient {
 public:
  /// Connects to host:port. `host` must be a numeric IPv4 address or
  /// "localhost". options.deadline_ms bounds the whole connect (all
  /// attempts and backoffs), options.max_retries retries refused
  /// connections with exponential backoff + jitter, and the returned
  /// client applies the same policy to every call.
  static Result<WcClient> Connect(const std::string& host, uint16_t port,
                                  const WcClientOptions& options = {});

  WcClient(WcClient&& other) noexcept;
  WcClient& operator=(WcClient&& other) noexcept;
  ~WcClient();

  /// One query, one round trip.
  Result<Distance> Query(Vertex s, Vertex t, Quality w);

  /// All queries in one kBatchQuery frame; results positionally aligned.
  /// More than net::kMaxBatchQueries queries fail the call (InvalidArgument)
  /// without touching the connection.
  Result<std::vector<Distance>> Batch(
      const std::vector<BatchQueryInput>& queries);

  /// All queries as individual kQuery frames with up to `window` in flight
  /// at once; results positionally aligned. This is the low-latency shape
  /// for streams of independent queries. The deadline applies; retries do
  /// not (replies already consumed cannot be safely replayed).
  Result<std::vector<Distance>> QueryPipelined(
      const std::vector<BatchQueryInput>& queries, size_t window = 64);

  /// One kTopK frame: up to k candidates closest to `source` under w,
  /// ascending by distance (ties by vertex id), unreachable candidates
  /// omitted — core/batch.h TopKClosest semantics, served remotely.
  Result<std::vector<RankedCandidate>> TopK(
      Vertex source, const std::vector<Vertex>& candidates, Quality w,
      uint32_t k);

  /// One kProfile frame: the (w, d) trade-off curve for (s, t) at the
  /// given thresholds, positionally aligned with the input.
  Result<std::vector<ProfilePoint>> Profile(
      Vertex s, Vertex t, const std::vector<Quality>& thresholds);

  /// One kPath frame: a shortest w-path s ... t inclusive; empty =
  /// unreachable. Servers without a graph refuse with kNotSupported
  /// (surfaced as an Unimplemented Status).
  Result<std::vector<Vertex>> Path(Vertex s, Vertex t, Quality w);

  Result<WireStats> Stats();

  /// Round-trips a kHealth frame: the served vertex count and whether the
  /// server is draining.
  Result<net::HealthReplyPayload> Health();

  // ---- raw protocol access (tests, tooling) ----

  /// Writes bytes verbatim to the socket.
  Status SendBytes(const void* data, size_t size);

  /// Reads one frame off the socket (any type, including kError). Fails
  /// with IoError on EOF and Corruption if the server's framing is bad.
  Result<WireFrame> ReadRawFrame();

  /// Half-closes the write side (signals EOF to the server while replies
  /// can still be read).
  Status ShutdownSend();

 private:
  WcClient(int fd, const WcClientOptions& options);

  /// The one request path (see the file comment). `records` is the
  /// request's record count, checked against net::kMaxBatchQueries before
  /// anything is sent; `encode(out, id)` appends the request frame and
  /// `decode(payload, &value)` fills the result, false for a reply that
  /// breaks its shape or its family's count rule.
  template <typename T, typename Encode, typename Decode>
  Result<T> Call(net::MsgType reply_type, size_t records, Encode encode,
                 Decode decode);

  /// Reads one frame and checks it is `expected` with status kOk and a
  /// request id in [first_id, end_id); turns kError frames into a clean
  /// Status (recording the wire error so Call can tell kOverloaded apart).
  Result<WireFrame> ReadReply(net::MsgType expected, uint64_t first_id,
                              uint64_t end_id);

  /// Arms the whole-request deadline for one public call: deadline_at_ms_
  /// = now + options.deadline_ms (0 = unbounded). Every send/receive
  /// below re-checks the remaining budget.
  void BeginRequest();
  /// Checks the remaining budget and narrows the socket timeout to it.
  /// `which` is SO_SNDTIMEO or SO_RCVTIMEO.
  Status ArmTimeout(int which);

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  WcClientOptions options_;
  /// Monotonic ms instant the current call must finish by; 0 = none.
  uint64_t deadline_at_ms_ = 0;
  /// Wire error of the last kError reply, for the retry-safety decision.
  net::WireError last_wire_error_ = net::WireError::kOk;
  /// Backoff jitter state.
  uint64_t jitter_state_ = 0;
};

}  // namespace wcsd

#endif  // WCSD_NET_CLIENT_H_
