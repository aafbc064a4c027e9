// WcServer: a dependency-free epoll TCP front end over the serving engine.
//
// The engine (serve/query_engine.h) is a thread-safe in-process
// QueryService over any tiling of the index; WcServer turns that service
// into a network one. N reactor threads (options.num_reactors, default 1)
// each run their own epoll loop over their own SO_REUSEPORT listen socket —
// the kernel hashes each incoming 4-tuple to one reactor, and that
// reactor owns the connection end-to-end: accept, read, parse, serve,
// flush, close all happen on one thread, so per-connection state needs no
// synchronization and per-reactor stats counters are aggregated only
// off-path (stats()/reactor_stats()). Per-connection read buffers
// accumulate bytes until complete frames (net/wire.h) can be cut, each
// frame is routed through the immutable QueryService (thread-safe by
// contract — the only state reactors share), and replies accumulate in
// per-connection write buffers, handed to the socket every 16 KiB while a
// read pass is served and again at its end, and flushed as the socket
// drains. Clients may pipeline — any number of requests in flight per
// connection — and a kBatchQuery frame fans out across the engine's
// ThreadPool. For per-core serving, pair N reactors with single-threaded
// engines (queries run inline on the reactor thread — `serve --reactors
// N` does this) so each core runs one reactor end-to-end with no
// cross-core handoff; answers are bit-identical at any N because reactors
// share one immutable service.
//
// Robustness contract (exercised by tests/test_net.cc and
// tests/test_net_faults.cc): malformed input never crashes the server.
// Framing errors (bad magic/version, oversized length) get one kError
// frame and a close, because the stream can no longer be trusted;
// frame-local errors (bad payload size, unknown type) get a kError reply
// and the connection keeps serving; truncated frames and abrupt
// disconnects just release the connection.
//
// Production hardening on top of that:
//   - Overload control: admission limits (max batch size, buffered-reply
//     soft cap) shed work with clean kOverloaded error frames instead of
//     disconnecting — the stream stays healthy and the client can back
//     off and retry.
//   - Per-request deadlines: a frame that waited longer than the
//     configured deadline behind earlier work is failed with
//     kDeadlineExceeded rather than served late.
//   - Idle and header (slow-loris) timeouts close connections that hold
//     fds without making progress.
//   - Graceful drain (Drain()): stop accepting, keep serving existing
//     connections until they close or the drain deadline passes, report
//     `draining` in health/stats frames so load balancers steer away.

#ifndef WCSD_NET_SERVER_H_
#define WCSD_NET_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/wire.h"
#include "serve/query_engine.h"
#include "util/status.h"

namespace wcsd {

/// The engine is itself a QueryService (serve/query_engine.h); this upcast
/// keeps call sites that hold a concrete engine terse. The shared_ptr keeps
/// the engine (and its mmap'd snapshot) alive for the service's lifetime.
inline std::shared_ptr<const QueryService> MakeQueryService(
    std::shared_ptr<const QueryEngine> engine) {
  return engine;
}

struct WcServerOptions {
  /// Address to bind. Loopback by default: exposing an index to a wider
  /// interface is a deliberate deployment decision.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 = kernel-assigned ephemeral port (see WcServer::port).
  uint16_t port = 0;
  /// listen(2) backlog.
  int backlog = 128;
  /// Event-loop (reactor) threads. 1 keeps the classic single-loop server.
  /// More than 1 creates that many epoll loops, each with its own
  /// SO_REUSEPORT listen socket; the kernel spreads connections across
  /// them by 4-tuple hash. Values above 1 only pay off with real cores
  /// and an engine that does not itself fan out (see the header comment).
  /// 0 is treated as 1.
  size_t num_reactors = 1;
  /// Frames announcing a larger payload are rejected before allocation
  /// with WireError::kOversizedFrame. Tests shrink this to probe the path.
  uint32_t max_payload_bytes = net::kMaxPayloadBytes;
  /// Per-connection cap on buffered reply bytes. A client that pipelines
  /// requests faster than it reads replies accumulates output here; past
  /// the cap the server stops serving that connection and closes it after
  /// the backlog flushes — backpressure by disconnect rather than
  /// unbounded server memory.
  size_t max_buffered_reply_bytes = 64u << 20;
  /// Soft overload threshold, below the hard cap: while a connection's
  /// unflushed reply backlog exceeds this, new query/batch frames are shed
  /// with kOverloaded error frames instead of being served. The connection
  /// stays healthy (stats/health still answered) and the client can back
  /// off and retry. 0 disables soft shedding.
  size_t overload_shed_reply_bytes = 32u << 20;
  /// Largest batch one kBatchQuery frame may carry; bigger batches are
  /// shed with kOverloaded (the client can split and resend). 0 = no
  /// limit beyond what the frame size allows.
  uint32_t max_batch_queries = 0;
  /// Per-request deadline: a query/batch frame that waited longer than
  /// this (behind earlier frames on any connection) is failed with
  /// kDeadlineExceeded instead of served late. 0 disables.
  uint64_t request_deadline_ms = 0;
  /// Close a connection with no traffic in either direction for this
  /// long. 0 disables.
  uint64_t idle_timeout_ms = 0;
  /// Slow-loris guard: a connection holding a partial frame must complete
  /// it within this long or be closed. 0 disables.
  uint64_t header_timeout_ms = 0;
  /// Upper bound on graceful drain: Drain() force-closes connections that
  /// have not finished after this long.
  uint64_t drain_deadline_ms = 5000;
};

/// Monotonic server-level counters (engine-level query counters live in
/// QueryService::Stats).
struct WcServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t frames_served = 0;    // replies to well-formed requests
  uint64_t protocol_errors = 0;  // error frames sent for malformed input
  uint64_t overload_rejections = 0;   // frames shed with kOverloaded
  uint64_t deadline_rejections = 0;   // frames failed with kDeadlineExceeded
  uint64_t shard_unavailable = 0;     // frames failed with kShardUnavailable
  uint64_t timeout_closed = 0;        // idle / slow-loris closes
  bool draining = false;              // graceful drain in progress
};

/// One reactor's share of the traffic (stats() aggregates these). Each
/// counter is owned by exactly one reactor thread and read off-path, so
/// per-reactor accounting adds no hot-path synchronization.
struct WcReactorStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t frames_served = 0;
  uint64_t protocol_errors = 0;
};

class WcServer {
 public:
  /// Binds, listens, and starts the event-loop thread. On success the
  /// server is already accepting connections on port().
  static Result<WcServer> Start(std::shared_ptr<const QueryService> service,
                                const WcServerOptions& options = {});

  WcServer(WcServer&&) noexcept;
  WcServer& operator=(WcServer&&) noexcept;
  ~WcServer();

  /// The bound port (resolves option port 0 to the kernel's choice). All
  /// reactors share it via SO_REUSEPORT.
  uint16_t port() const;

  /// Number of reactor event loops actually running.
  size_t num_reactors() const;

  /// Stops accepting, closes every connection, and joins the event loop.
  /// Idempotent; also run by the destructor.
  void Stop();

  /// Graceful drain: stops accepting new connections, keeps serving the
  /// existing ones (health/stats report `draining` so balancers steer
  /// away), and returns once every connection has closed or
  /// options.drain_deadline_ms has passed — whichever comes first. Any
  /// connections still open at the deadline are force-closed. Idempotent
  /// with Stop(); safe to call from a signal-notified thread.
  void Drain();

  WcServerStats stats() const;

  /// Per-reactor traffic breakdown, index-aligned with the reactors.
  std::vector<WcReactorStats> reactor_stats() const;

 private:
  struct Impl;
  explicit WcServer(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace wcsd

#endif  // WCSD_NET_SERVER_H_
