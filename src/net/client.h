// WcClient: the wire-protocol client library (net/wire.h).
//
// Blocking sockets, two call shapes:
//   * sync      — Query/Batch/Stats/Health send one request frame and wait
//                 for its reply;
//   * pipelined — QueryPipelined keeps a window of single-query frames in
//                 flight on the one connection, overlapping the network
//                 round trip with the server's work. Replies are matched by
//                 request id, not arrival order.
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
// The raw escape hatches (SendBytes/ReadRawFrame) exist for protocol tests
// and tooling that must speak malformed or future frames on purpose.

#ifndef WCSD_NET_CLIENT_H_
#define WCSD_NET_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/batch.h"
#include "net/wire.h"
#include "util/status.h"
#include "util/types.h"

namespace wcsd {

/// One decoded frame, payload copied out of the stream.
struct WireFrame {
  net::WireHeader header;
  std::vector<uint8_t> payload;
};

/// Server counters as reported over the wire (kStatsReply): the engine
/// counters, the result-cache counters (zero when the server's engine
/// serves uncached), plus the per-shard balance section (empty when the
/// server's engine is not sharded).
struct WireStats {
  uint64_t num_vertices = 0;
  uint64_t queries = 0;
  uint64_t reachable = 0;
  uint64_t batches = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_inserts = 0;
  uint64_t cache_evictions = 0;
  uint64_t overload_rejections = 0;
  uint64_t deadline_rejections = 0;
  uint64_t shard_unavailable = 0;
  /// Hot-swap generation serving when the stats were read; 0 when the
  /// server's service is not swappable, monotone per server otherwise.
  uint64_t generation = 0;
  bool draining = false;
  /// True when the served index carries §V parent quads; false is the
  /// explicit degraded parent-less mode (e.g. a v1 snapshot).
  bool has_parents = false;
  /// Path unwind steps the server resolved through the graph fallback.
  uint64_t path_fallbacks = 0;
  /// True when the engine serves the compressed label backend (a v3
  /// compressed snapshot, or any compressed shard).
  bool compressed = false;
  /// Decoded-label cache counters (zero without a decode cache; distance
  /// queries never consult it). cold_pageins counts label reads that
  /// walked mmap-backed compressed bytes: each streamed side of a distance
  /// query, each decode-cache miss, each decode without a cache.
  uint64_t decode_hits = 0;
  uint64_t decode_misses = 0;
  uint64_t cold_pageins = 0;
  /// Label mass actually served vs. the same labels' flat-backend mass;
  /// the ratio is the compression ratio (equal on the flat backend).
  uint64_t label_bytes = 0;
  uint64_t uncompressed_label_bytes = 0;
  std::vector<net::ShardBalancePayload> shards;
};

/// Decoded kHealthReply.
struct WireHealth {
  uint64_t num_vertices = 0;
  bool draining = false;
};

/// Reliability policy for a connection. Defaults are fully backward
/// compatible: no deadline, no retries.
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
  /// "localhost". `timeout_ms` > 0 bounds connect and every subsequent
  /// send/receive (SO_SNDTIMEO/SO_RCVTIMEO); an expired deadline surfaces
  /// as a clean IoError instead of a hang. 0 = fully blocking. (Legacy
  /// shape: per-syscall timeouts, not an end-to-end deadline — prefer the
  /// options overload.)
  static Result<WcClient> Connect(const std::string& host, uint16_t port,
                                  int timeout_ms = 0);

  /// Connects with a reliability policy: options.deadline_ms bounds the
  /// whole connect (all attempts and backoffs), options.max_retries
  /// retries refused connections with exponential backoff + jitter, and
  /// the returned client applies the same policy to every call.
  static Result<WcClient> Connect(const std::string& host, uint16_t port,
                                  const WcClientOptions& options);

  WcClient(WcClient&& other) noexcept;
  WcClient& operator=(WcClient&& other) noexcept;
  ~WcClient();

  /// One query, one round trip.
  Result<Distance> Query(Vertex s, Vertex t, Quality w);

  /// All queries in one kBatchQuery frame; results positionally aligned.
  Result<std::vector<Distance>> Batch(
      const std::vector<BatchQueryInput>& queries);

  /// All queries as individual kQuery frames with up to `window` in flight
  /// at once; results positionally aligned. This is the low-latency shape
  /// for streams of independent queries.
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

  /// Round-trips a kHealth frame; returns the served vertex count.
  Result<uint64_t> Health();

  /// Round-trips a kHealth frame; returns the full decoded payload
  /// (vertex count plus the draining flag).
  Result<WireHealth> HealthEx();

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
  explicit WcClient(int fd) : fd_(fd) {}

  static Result<WcClient> ConnectOnce(const std::string& host, uint16_t port,
                                      uint64_t deadline_at_ms);

  /// Reads one frame and checks it is `expected` with status kOk and the
  /// given request id; turns kError frames into a clean Status (recording
  /// the wire error so the retry loop can tell kOverloaded apart).
  Result<WireFrame> ReadReply(net::MsgType expected, uint64_t request_id);

  /// Arms the whole-request deadline for one public call: deadline_at_ms_
  /// = now + options.deadline_ms (0 = unbounded). Every send/receive
  /// below re-checks the remaining budget.
  void BeginRequest();
  /// Checks the remaining budget and narrows the socket timeout to it.
  /// `which` is SO_SNDTIMEO or SO_RCVTIMEO.
  Status ArmTimeout(int which);
  /// Runs `attempt` under the retry policy: retries only kOverloaded
  /// rejections, with exponential backoff + jitter, never past the
  /// deadline.
  template <typename T>
  Result<T> RetryLoop(const std::function<Result<T>()>& attempt);

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
