#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/socket_util.h"
#include "util/endian.h"

namespace wcsd {

namespace {

using net::ErrnoStatus;
using net::FrameStatus;
using net::MsgType;
using net::WireError;
using net::WireHeader;

/// Milliseconds on the steady clock, for timeouts and deadlines.
uint64_t NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

struct WcServer::Impl {
  /// One connection's streaming state. `in` accumulates raw bytes until
  /// whole frames can be cut (in_consumed avoids re-compacting per frame);
  /// `out` holds encoded replies not yet accepted by the socket.
  struct Connection {
    std::vector<uint8_t> in;
    size_t in_consumed = 0;
    std::vector<uint8_t> out;
    size_t out_sent = 0;
    bool close_after_flush = false;
    bool want_write = false;
    /// Last time bytes moved in either direction (idle timeout).
    uint64_t last_activity_ms = 0;
    /// When an incomplete frame first appeared in `in`; 0 while the buffer
    /// holds no partial frame (slow-loris timeout).
    uint64_t partial_since_ms = 0;
    /// When the read pass that completed the currently-parsed frames ran;
    /// the per-request deadline measures from here.
    uint64_t arrival_ms = 0;
  };

  /// One event loop owning its share of the traffic end-to-end: its own
  /// listen socket (SO_REUSEPORT when there are several reactors — the
  /// kernel hashes each incoming 4-tuple to one reactor), epoll instance,
  /// wake eventfd, EMFILE spare fd, connection table, and stats counters.
  /// A connection is accepted, served, and closed by exactly one reactor
  /// thread, so none of the per-connection state needs synchronization;
  /// the only cross-thread traffic is the shared QueryService (thread-safe
  /// by contract) and the relaxed stats counters aggregated off-path.
  struct Reactor {
    Reactor(Impl* server_, size_t index_) : server(server_), index(index_) {}
    ~Reactor() { CloseAll(); }

    Impl* server;
    size_t index;
    int listen_fd = -1;
    int epoll_fd = -1;
    int wake_fd = -1;
    /// Reserved fd sacrificed to shed pending connections under EMFILE.
    int spare_fd = -1;
    uint16_t port = 0;
    std::thread loop;
    std::unordered_map<int, Connection> connections;

    std::atomic<uint64_t> connections_accepted{0};
    std::atomic<uint64_t> connections_closed{0};
    std::atomic<uint64_t> frames_served{0};
    std::atomic<uint64_t> protocol_errors{0};
    std::atomic<uint64_t> overload_rejections{0};
    std::atomic<uint64_t> deadline_rejections{0};
    std::atomic<uint64_t> shard_unavailable_rejections{0};
    std::atomic<uint64_t> timeout_closed{0};

    Status Listen(uint16_t bind_port, bool reuse_port) {
      const WcServerOptions& options = server->options;
      listen_fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         0);
      if (listen_fd < 0) return ErrnoStatus("socket");
      int one = 1;
      setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      if (reuse_port &&
          setsockopt(listen_fd, SOL_SOCKET, SO_REUSEPORT, &one,
                     sizeof(one)) < 0) {
        return ErrnoStatus("setsockopt SO_REUSEPORT");
      }
      sockaddr_in addr = {};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(bind_port);
      if (inet_pton(AF_INET, options.bind_address.c_str(),
                    &addr.sin_addr) != 1) {
        return Status::InvalidArgument("bad bind address " +
                                       options.bind_address);
      }
      if (bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0) {
        return ErrnoStatus("bind " + options.bind_address + ":" +
                           std::to_string(bind_port));
      }
      if (listen(listen_fd, options.backlog) < 0) {
        return ErrnoStatus("listen");
      }
      socklen_t len = sizeof(addr);
      if (getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) <
          0) {
        return ErrnoStatus("getsockname");
      }
      port = ntohs(addr.sin_port);

      spare_fd = open("/dev/null", O_RDONLY | O_CLOEXEC);
      epoll_fd = epoll_create1(EPOLL_CLOEXEC);
      if (epoll_fd < 0) return ErrnoStatus("epoll_create1");
      wake_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (wake_fd < 0) return ErrnoStatus("eventfd");
      WCSD_RETURN_NOT_OK(Watch(listen_fd, EPOLLIN));
      WCSD_RETURN_NOT_OK(Watch(wake_fd, EPOLLIN));
      return Status::OK();
    }

    void Wake() {
      if (wake_fd >= 0) {
        uint64_t one = 1;
        [[maybe_unused]] ssize_t n = write(wake_fd, &one, sizeof(one));
      }
    }

    /// Post-join cleanup: closes every connection and owned fd. Only safe
    /// once the loop thread is no longer running.
    void CloseAll() {
      for (auto& [fd, conn] : connections) {
        close(fd);
        connections_closed.fetch_add(1, std::memory_order_relaxed);
      }
      connections.clear();
      auto close_fd = [](int* fd) {
        if (*fd >= 0) close(*fd);
        *fd = -1;
      };
      close_fd(&listen_fd);
      close_fd(&wake_fd);
      close_fd(&epoll_fd);
      close_fd(&spare_fd);
    }

    Status Watch(int fd, uint32_t events) {
      epoll_event ev = {};
      ev.events = events;
      ev.data.fd = fd;
      if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
        return ErrnoStatus("epoll_ctl add");
      }
      return Status::OK();
    }

    void Rearm(int fd, uint32_t events) {
      epoll_event ev = {};
      ev.events = events;
      ev.data.fd = fd;
      epoll_ctl(epoll_fd, EPOLL_CTL_MOD, fd, &ev);
    }

    void Loop() {
      constexpr int kMaxEvents = 64;
      epoll_event events[kMaxEvents];
      bool drain_started = false;
      uint64_t drain_deadline_ms = 0;
      while (!server->stopping.load(std::memory_order_acquire)) {
        if (server->draining.load(std::memory_order_acquire)) {
          if (!drain_started) {
            drain_started = true;
            // Stop accepting: pending and future connections belong to
            // whoever replaces this server. Existing connections keep
            // being served below until they close or the deadline passes.
            if (listen_fd >= 0) {
              epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
              close(listen_fd);
              listen_fd = -1;
            }
            drain_deadline_ms = NowMs() + server->options.drain_deadline_ms;
          }
          if (connections.empty() || NowMs() >= drain_deadline_ms) break;
        }
        // The 500ms tick doubles as the timeout/drain sweep cadence.
        int n = epoll_wait(epoll_fd, events, kMaxEvents, /*timeout_ms=*/500);
        if (n < 0) {
          if (errno == EINTR) continue;
          break;
        }
        for (int i = 0; i < n; ++i) {
          int fd = events[i].data.fd;
          uint32_t ev = events[i].events;
          if (fd == wake_fd) {
            uint64_t drained;
            [[maybe_unused]] ssize_t r = read(wake_fd, &drained,
                                              sizeof(drained));
            continue;
          }
          if (fd == listen_fd) {
            Accept();
            continue;
          }
          auto it = connections.find(fd);
          if (it == connections.end()) continue;
          if (ev & (EPOLLHUP | EPOLLERR)) {
            CloseConnection(it);
            continue;
          }
          bool alive = true;
          if (ev & EPOLLIN) alive = OnReadable(it);
          if (alive && (ev & EPOLLOUT)) FlushConnection(it);
        }
        SweepTimeouts(NowMs());
      }
    }

    /// Closes connections that exceeded the idle or header (slow-loris)
    /// timeout. Runs every loop tick, so enforcement granularity is the
    /// epoll timeout (500ms) — fine for timeouts meant in seconds.
    void SweepTimeouts(uint64_t now) {
      const WcServerOptions& options = server->options;
      if (options.idle_timeout_ms == 0 && options.header_timeout_ms == 0) {
        return;
      }
      std::vector<int> doomed;
      for (const auto& [fd, conn] : connections) {
        if (options.header_timeout_ms != 0 && conn.partial_since_ms != 0 &&
            now - conn.partial_since_ms >= options.header_timeout_ms) {
          doomed.push_back(fd);
          continue;
        }
        // A connection still flushing replies is not idle, however long
        // ago the peer last wrote.
        if (options.idle_timeout_ms != 0 &&
            conn.out_sent == conn.out.size() &&
            now - conn.last_activity_ms >= options.idle_timeout_ms) {
          doomed.push_back(fd);
        }
      }
      for (int fd : doomed) {
        auto it = connections.find(fd);
        if (it != connections.end()) {
          timeout_closed.fetch_add(1, std::memory_order_relaxed);
          CloseConnection(it);
        }
      }
    }

    void Accept() {
      for (;;) {
        int fd = accept4(listen_fd, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
          // Out of file descriptors: the pending connection would keep the
          // level-triggered listen fd hot forever (a busy-spin). Shed it
          // via the reserved spare fd, then re-reserve.
          if ((errno == EMFILE || errno == ENFILE) && spare_fd >= 0) {
            close(spare_fd);
            spare_fd = -1;
            int shed = accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
            if (shed >= 0) close(shed);
            spare_fd = open("/dev/null", O_RDONLY | O_CLOEXEC);
            if (shed >= 0) continue;
          }
          return;  // EAGAIN or transient error; epoll re-reports
        }
        int one = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        if (!Watch(fd, EPOLLIN).ok()) {
          close(fd);
          continue;
        }
        Connection conn;
        conn.last_activity_ms = NowMs();
        connections.emplace(fd, std::move(conn));
        connections_accepted.fetch_add(1, std::memory_order_relaxed);
      }
    }

    void CloseConnection(std::unordered_map<int, Connection>::iterator it) {
      epoll_ctl(epoll_fd, EPOLL_CTL_DEL, it->first, nullptr);
      close(it->first);
      connections.erase(it);
      connections_closed.fetch_add(1, std::memory_order_relaxed);
    }

    /// Reads everything the socket has, cuts and serves complete frames,
    /// then flushes replies. Returns false if the connection was closed.
    bool OnReadable(std::unordered_map<int, Connection>::iterator it) {
      const WcServerOptions& options = server->options;
      Connection& conn = it->second;
      // A draining connection reads nothing more: new bytes would pile up
      // unparsed (the frame loop is closed) and unbounded.
      if (conn.close_after_flush) return FlushConnection(it);
      uint8_t chunk[65536];
      bool peer_eof = false;
      // Bounded read pass: one connection streaming faster than the loop
      // must not starve the others — leftover bytes keep the level-
      // triggered fd hot, so the next epoll_wait resumes it.
      constexpr size_t kMaxReadPerPass = 1u << 20;
      // Replies go to the socket whenever this many have accumulated, not
      // only at the end of the pass: a client that pipelines a window of
      // frames then refills while the rest of the pass is served, instead
      // of the loop idling through the client's turnaround after every
      // pass. Well above one reply frame, so a pass of a few frames still
      // sends once, at its end.
      constexpr size_t kStreamReplyBytes = 16u << 10;
      size_t read_this_pass = 0;
      while (read_this_pass < kMaxReadPerPass) {
        ssize_t got = net::RecvSome(it->first, chunk, sizeof(chunk), 0);
        if (got > 0) {
          conn.in.insert(conn.in.end(), chunk, chunk + got);
          read_this_pass += static_cast<size_t>(got);
          continue;
        }
        if (got == 0) {
          peer_eof = true;
          break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        CloseConnection(it);
        return false;
      }
      const uint64_t now = NowMs();
      if (read_this_pass > 0) {
        conn.last_activity_ms = now;
        // Frames completed by this pass measure their deadline from here:
        // time spent behind earlier frames (a monster batch ahead in the
        // buffer) counts against them.
        conn.arrival_ms = now;
      }

      while (!conn.close_after_flush) {
        if (conn.out.size() - conn.out_sent >
            options.max_buffered_reply_bytes) {
          // The client pipelines faster than it reads replies; cap the
          // buffered output and drop the connection once it drains.
          conn.close_after_flush = true;
          break;
        }
        WireHeader header;
        const uint8_t* payload = nullptr;
        FrameStatus st = net::ParseFrame(
            conn.in.data() + conn.in_consumed,
            conn.in.size() - conn.in_consumed, options.max_payload_bytes,
            &header, &payload);
        if (st == FrameStatus::kNeedMore) break;
        if (st != FrameStatus::kOk) {
          // Framing error: the stream is poisoned. Reply once and close.
          // The oversized case has a trustworthy header, so echo its id.
          SendError(conn,
                    st == FrameStatus::kOversized ? header.request_id : 0,
                    net::FramingError(st));
          conn.close_after_flush = true;
          break;
        }
        HandleFrame(conn, header, payload);
        conn.in_consumed += sizeof(WireHeader) + header.payload_bytes;
        // A socket that refused bytes before stays with EPOLLOUT.
        if (!conn.want_write &&
            conn.out.size() - conn.out_sent >= kStreamReplyBytes &&
            !FlushConnection(it)) {
          return false;
        }
      }
      if (conn.in_consumed == conn.in.size()) {
        conn.in.clear();
        conn.in_consumed = 0;
      } else if (conn.in_consumed > (64u << 10)) {
        conn.in.erase(conn.in.begin(),
                      conn.in.begin() +
                          static_cast<ptrdiff_t>(conn.in_consumed));
        conn.in_consumed = 0;
      }
      // Slow-loris tracking: leftover bytes are a partial frame. The clock
      // starts when the partial first appears and resets whenever the
      // buffer drains to a frame boundary.
      if (conn.in.size() > conn.in_consumed) {
        if (conn.partial_since_ms == 0) conn.partial_since_ms = now;
      } else {
        conn.partial_since_ms = 0;
      }

      if (!FlushConnection(it)) return false;
      if (peer_eof) {
        // Orderly shutdown: the peer sent everything it will (half-close).
        // Replies it has not yet read may still be in the write buffer —
        // drain them before closing, watching only writability (EOF keeps
        // the fd read-hot forever otherwise).
        if (conn.out_sent < conn.out.size()) {
          conn.close_after_flush = true;
          conn.want_write = true;
          Rearm(it->first, EPOLLOUT);
          return true;
        }
        CloseConnection(it);
        return false;
      }
      return true;
    }

    /// Sends an error frame in place of a reply and counts it. Refusals of
    /// well-formed frames (overload, deadline, shard unavailable, not
    /// supported) are not protocol errors: the request never executed and
    /// the stream stays healthy.
    void SendError(Connection& conn, uint64_t request_id, WireError error) {
      net::AppendFrame(&conn.out, MsgType::kError, error, request_id,
                       nullptr, 0);
      switch (error) {
        case WireError::kOverloaded:
          overload_rejections.fetch_add(1, std::memory_order_relaxed);
          break;
        case WireError::kDeadlineExceeded:
          deadline_rejections.fetch_add(1, std::memory_order_relaxed);
          break;
        case WireError::kShardUnavailable:
          shard_unavailable_rejections.fetch_add(1,
                                                 std::memory_order_relaxed);
          break;
        case WireError::kNotSupported:
          break;
        default:
          protocol_errors.fetch_add(1, std::memory_order_relaxed);
      }
    }

    /// Admission control for a query frame asking for `work` records: the
    /// error it is shed with, or kOk. Stats and health frames skip it:
    /// they are tiny and exactly what an operator needs while the server
    /// is unhappy.
    WireError Admission(const Connection& conn, size_t work) const {
      const WcServerOptions& options = server->options;
      if (options.overload_shed_reply_bytes != 0 &&
          conn.out.size() - conn.out_sent >
              options.overload_shed_reply_bytes) {
        return WireError::kOverloaded;
      }
      if (options.request_deadline_ms != 0 &&
          NowMs() - conn.arrival_ms > options.request_deadline_ms) {
        return WireError::kDeadlineExceeded;
      }
      // A batched query, a top-k candidate and a profile threshold are one
      // query's worth of work each; the batch knob governs them all. No
      // frame may ask for more than kMaxBatchQueries records, whatever the
      // knob says: past that its reply would not fit one frame.
      const size_t limit =
          options.max_batch_queries == 0
              ? net::kMaxBatchQueries
              : std::min<size_t>(options.max_batch_queries,
                                 net::kMaxBatchQueries);
      return work > limit ? WireError::kOverloaded : WireError::kOk;
    }

    /// Serves one frame: decode, admission, the service call, then the
    /// encoded reply or one error frame.
    void HandleFrame(Connection& conn, const WireHeader& header,
                     const uint8_t* bytes) {
      const std::span<const uint8_t> payload(bytes, header.payload_bytes);
      const uint64_t id = header.request_id;
      const QueryService& service = *server->service;
      // A query frame is served only if it decoded (else kBadPayload) and
      // passed admission (else the error it was shed with).
      auto admitted = [&](bool decoded, size_t work) {
        const WireError error =
            decoded ? Admission(conn, work) : WireError::kBadPayload;
        if (error == WireError::kOk) return true;
        SendError(conn, id, error);
        return false;
      };
      ServeOutcome outcome = ServeOutcome::kOk;
      switch (static_cast<MsgType>(header.type)) {
        case MsgType::kQuery: {
          net::QueryPayload q{};
          if (!admitted(net::QueryFrame::Decode(payload, &q), 1)) return;
          net::QueryReplyPayload reply{kInfDistance};
          outcome = service.QueryEx(q.s, q.t, q.w, &reply.dist);
          if (outcome == ServeOutcome::kOk) {
            net::QueryReplyFrame::Append(&conn.out, id, reply);
          }
          break;
        }
        case MsgType::kBatchQuery: {
          std::vector<BatchQueryInput> queries;
          const bool decoded = net::BatchFrame::Decode(payload, &queries);
          if (!admitted(decoded, queries.size())) return;
          std::vector<Distance> results;
          outcome = service.BatchEx(queries, &results);
          if (outcome == ServeOutcome::kOk) {
            net::BatchReplyFrame::Append(&conn.out, id, {}, results);
          }
          break;
        }
        case MsgType::kTopK: {
          net::TopKRequestPayload request{};
          std::vector<Vertex> candidates;
          const bool decoded =
              net::TopKFrame::Decode(payload, &candidates, &request);
          if (!admitted(decoded, candidates.size())) return;
          std::vector<RankedCandidate> ranked;
          outcome = service.TopKEx(request.source, candidates, request.w,
                                   request.k, &ranked);
          if (outcome == ServeOutcome::kOk) {
            net::TopKReplyFrame::Append(&conn.out, id, {}, ranked);
          }
          break;
        }
        case MsgType::kProfile: {
          net::ProfileRequestPayload request{};
          std::vector<Quality> thresholds;
          const bool decoded =
              net::ProfileFrame::Decode(payload, &thresholds, &request);
          if (!admitted(decoded, thresholds.size())) return;
          std::vector<ProfilePoint> profile;
          outcome =
              service.ProfileEx(request.s, request.t, thresholds, &profile);
          if (outcome == ServeOutcome::kOk) {
            net::ProfileReplyFrame::Append(&conn.out, id, {}, profile);
          }
          break;
        }
        case MsgType::kPath: {
          net::QueryPayload q{};
          if (!admitted(net::PathFrame::Decode(payload, &q), 1)) return;
          std::vector<Vertex> path;
          outcome = service.PathEx(q.s, q.t, q.w, &path);
          if (outcome == ServeOutcome::kOk) {
            net::PathReplyFrame::Append(&conn.out, id, {}, path);
          }
          break;
        }
        case MsgType::kStats: {
          if (!payload.empty()) {
            return SendError(conn, id, WireError::kBadPayload);
          }
          const QueryEngineStats stats = service.Stats();
          const WcServerStats server_stats = server->Aggregate();
          const net::StatsReplyPrefix prefix{
              {service.NumVertices(), stats.queries, stats.reachable,
               stats.batches, stats.cache_hits, stats.cache_misses,
               stats.cache_inserts, stats.cache_evictions,
               server_stats.overload_rejections,
               server_stats.deadline_rejections, stats.shard_unavailable,
               stats.generation, server_stats.draining ? 1u : 0u, 0,
               stats.has_parents, stats.path_fallbacks, stats.compressed,
               stats.decode_hits, stats.decode_misses, stats.cold_pageins,
               stats.label_bytes, stats.uncompressed_label_bytes},
              0,
              0};
          std::vector<net::ShardBalancePayload> shards;
          for (const ShardBalanceEntry& shard : service.ShardBalance()) {
            shards.push_back(net::ShardBalancePayload{
                shard.vertex_begin, shard.vertex_end, shard.entry_count,
                shard.label_bytes, shard.quarantined ? 1u : 0u, 0});
          }
          net::StatsReplyFrame::Append(&conn.out, id, prefix, shards);
          break;
        }
        case MsgType::kHealth: {
          if (!payload.empty()) {
            return SendError(conn, id, WireError::kBadPayload);
          }
          net::HealthReplyFrame::Append(
              &conn.out, id,
              {service.NumVertices(),
               server->draining.load(std::memory_order_relaxed) ? 1u : 0u,
               0});
          break;
        }
        default:
          return SendError(conn, id, WireError::kUnknownType);
      }
      if (outcome != ServeOutcome::kOk) {
        return SendError(conn, id,
                         outcome == ServeOutcome::kNotSupported
                             ? WireError::kNotSupported
                             : WireError::kShardUnavailable);
      }
      frames_served.fetch_add(1, std::memory_order_relaxed);
    }

    /// Writes as much buffered output as the socket accepts; keeps
    /// EPOLLOUT armed while a backlog remains. Returns false if the
    /// connection was closed (write error, or close_after_flush with a
    /// drained buffer).
    bool FlushConnection(std::unordered_map<int, Connection>::iterator it) {
      Connection& conn = it->second;
      while (conn.out_sent < conn.out.size()) {
        ssize_t sent =
            net::SendSome(it->first, conn.out.data() + conn.out_sent,
                          conn.out.size() - conn.out_sent, MSG_NOSIGNAL);
        if (sent > 0) {
          conn.out_sent += static_cast<size_t>(sent);
          conn.last_activity_ms = NowMs();
          continue;
        }
        if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (sent < 0 && errno == EINTR) continue;
        CloseConnection(it);
        return false;
      }
      if (conn.out_sent == conn.out.size()) {
        conn.out.clear();
        conn.out_sent = 0;
        if (conn.close_after_flush) {
          CloseConnection(it);
          return false;
        }
        if (conn.want_write) {
          conn.want_write = false;
          Rearm(it->first, EPOLLIN);
        }
      } else {
        // Backlog remains. A draining connection watches writability only
        // (readable bytes we will never parse would wake the loop
        // forever).
        conn.want_write = true;
        Rearm(it->first,
              conn.close_after_flush ? EPOLLOUT : EPOLLIN | EPOLLOUT);
      }
      return true;
    }
  };

  std::shared_ptr<const QueryService> service;
  WcServerOptions options;
  uint16_t port = 0;
  std::atomic<bool> stopping{false};
  std::atomic<bool> draining{false};
  std::vector<std::unique_ptr<Reactor>> reactors;

  ~Impl() { StopAndJoin(); }

  /// Binds and wires every reactor. With several reactors all listen
  /// sockets join one SO_REUSEPORT group; the first bind resolves a
  /// kernel-assigned port 0 so the rest can join it.
  Status Listen() {
    const size_t n = std::max<size_t>(1, options.num_reactors);
    const bool reuse_port = n > 1;
    reactors.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      reactors.push_back(std::make_unique<Reactor>(this, i));
      const uint16_t bind_port = i == 0 ? options.port : port;
      WCSD_RETURN_NOT_OK(reactors[i]->Listen(bind_port, reuse_port));
      if (i == 0) port = reactors[0]->port;
    }
    return Status::OK();
  }

  void WakeAll() {
    for (auto& reactor : reactors) reactor->Wake();
  }

  void JoinAll() {
    for (auto& reactor : reactors) {
      if (reactor->loop.joinable()) reactor->loop.join();
    }
  }

  /// Graceful drain: flags every loop, which closes its listen fd and
  /// keeps serving existing connections until they close or the drain
  /// deadline passes; then finishes the usual teardown.
  void DrainAndJoin() {
    draining.store(true, std::memory_order_release);
    WakeAll();
    JoinAll();
    StopAndJoin();
  }

  void StopAndJoin() {
    bool was_stopping = stopping.exchange(true);
    if (!was_stopping) WakeAll();
    JoinAll();
    for (auto& reactor : reactors) reactor->CloseAll();
  }

  WcServerStats Aggregate() const {
    WcServerStats stats;
    for (const auto& reactor : reactors) {
      stats.connections_accepted +=
          reactor->connections_accepted.load(std::memory_order_relaxed);
      stats.connections_closed +=
          reactor->connections_closed.load(std::memory_order_relaxed);
      stats.frames_served +=
          reactor->frames_served.load(std::memory_order_relaxed);
      stats.protocol_errors +=
          reactor->protocol_errors.load(std::memory_order_relaxed);
      stats.overload_rejections +=
          reactor->overload_rejections.load(std::memory_order_relaxed);
      stats.deadline_rejections +=
          reactor->deadline_rejections.load(std::memory_order_relaxed);
      stats.shard_unavailable +=
          reactor->shard_unavailable_rejections.load(
              std::memory_order_relaxed);
      stats.timeout_closed +=
          reactor->timeout_closed.load(std::memory_order_relaxed);
    }
    stats.draining = draining.load(std::memory_order_relaxed);
    return stats;
  }
};

WcServer::WcServer(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

WcServer::WcServer(WcServer&&) noexcept = default;
WcServer& WcServer::operator=(WcServer&&) noexcept = default;

WcServer::~WcServer() {
  if (impl_) impl_->StopAndJoin();
}

Result<WcServer> WcServer::Start(
    std::shared_ptr<const QueryService> service,
    const WcServerOptions& options) {
  WCSD_RETURN_NOT_OK(CheckSerializationByteOrder());
  if (service == nullptr) {
    return Status::InvalidArgument("null service");
  }
  auto impl = std::make_unique<Impl>();
  impl->service = std::move(service);
  impl->options = options;
  Status st = impl->Listen();
  if (!st.ok()) return st;
  for (auto& reactor : impl->reactors) {
    Impl::Reactor* raw = reactor.get();
    raw->loop = std::thread([raw] { raw->Loop(); });
  }
  return WcServer(std::move(impl));
}

uint16_t WcServer::port() const { return impl_->port; }

size_t WcServer::num_reactors() const { return impl_->reactors.size(); }

void WcServer::Stop() {
  if (impl_) impl_->StopAndJoin();
}

void WcServer::Drain() {
  if (impl_) impl_->DrainAndJoin();
}

WcServerStats WcServer::stats() const { return impl_->Aggregate(); }

std::vector<WcReactorStats> WcServer::reactor_stats() const {
  std::vector<WcReactorStats> all;
  all.reserve(impl_->reactors.size());
  for (const auto& reactor : impl_->reactors) {
    WcReactorStats stats;
    stats.connections_accepted =
        reactor->connections_accepted.load(std::memory_order_relaxed);
    stats.connections_closed =
        reactor->connections_closed.load(std::memory_order_relaxed);
    stats.frames_served =
        reactor->frames_served.load(std::memory_order_relaxed);
    stats.protocol_errors =
        reactor->protocol_errors.load(std::memory_order_relaxed);
    all.push_back(stats);
  }
  return all;
}

}  // namespace wcsd
