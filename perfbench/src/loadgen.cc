#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <thread>

#include "common.h"

namespace perfbench {

namespace net = wcsd::net;

uint8_t Checker::Match(size_t pool_index, const net::WireHeader& header,
                       const uint8_t* payload) const {
  uint8_t mask = 0;
  for (size_t g = 0; g < generations_->size() && g < 8; ++g) {
    if (ReplyMatches(*traffic_, (*generations_)[g], pool_index, header,
                     payload)) {
      mask |= static_cast<uint8_t>(1u << g);
    }
  }
  return mask;
}

namespace {

/// Buffers a byte stream and cuts it into wire frames.
class FrameReader {
 public:
  FrameReader() : buf_(1u << 20) {}

  /// One read; returns what recv(2) returned. `flags` = MSG_DONTWAIT
  /// polls instead of blocking.
  ssize_t Fill(int fd, int flags = 0) {
    if (begin_ == end_) {
      begin_ = end_ = 0;
    } else if (buf_.size() - end_ < (64u << 10)) {
      std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
      if (buf_.size() - end_ < (64u << 10)) buf_.resize(buf_.size() * 2);
    }
    for (;;) {
      ssize_t n = recv(fd, buf_.data() + end_, buf_.size() - end_, flags);
      if (n < 0 && errno == EINTR) continue;
      if (n > 0) end_ += static_cast<size_t>(n);
      return n;
    }
  }

  bool Next(net::WireHeader* header, const uint8_t** payload) {
    net::FrameStatus st =
        net::ParseFrame(buf_.data() + begin_, end_ - begin_,
                        net::kMaxPayloadBytes, header, payload);
    if (st != net::FrameStatus::kOk) return false;
    begin_ += sizeof(net::WireHeader) + header->payload_bytes;
    return true;
  }

 private:
  std::vector<uint8_t> buf_;
  size_t begin_ = 0;
  size_t end_ = 0;
};

bool WriteAll(int fd, const uint8_t* data, size_t size) {
  while (size > 0) {
    ssize_t n = send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

/// Records reply `i` of the phase.
void RecordReply(const Checker& checker, size_t i, int64_t now,
                 const net::WireHeader& header, const uint8_t* payload,
                 PhaseLog* log) {
  log->recv_ns[i] = now;
  if (header.type == static_cast<uint8_t>(net::MsgType::kError)) {
    ++log->error_frames;
  }
  const uint8_t mask = header.request_id == log->pool_index[i]
                           ? checker.Match(log->pool_index[i], header, payload)
                           : 0;
  log->match[i] = mask;
  if (mask == 0) {
    log->bad_replies[i] = {header, {payload, payload + header.payload_bytes}};
  }
}

}  // namespace

void AppendPhase(PhaseLog* into, PhaseLog part) {
  if (into->pool_index.empty() && into->samples.empty()) {
    *into = std::move(part);
    return;
  }
  auto append = [](auto* to, const auto& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  const size_t offset = into->pool_index.size();
  append(&into->pool_index, part.pool_index);
  append(&into->due_ns, part.due_ns);
  append(&into->sent_ns, part.sent_ns);
  append(&into->recv_ns, part.recv_ns);
  append(&into->match, part.match);
  into->end_ns = part.end_ns;
  into->queries += part.queries;
  into->bytes_out += part.bytes_out;
  into->bytes_in += part.bytes_in;
  into->error_frames += part.error_frames;
  into->spin_ns += part.spin_ns;
  into->stall_ns += part.stall_ns;
  into->write_ns += part.write_ns;
  append(&into->swap_trigger_ns, part.swap_trigger_ns);
  if (!part.samples.empty()) part.samples.front().restart = true;
  append(&into->samples, part.samples);
  for (auto& [i, bad] : part.bad_replies) {
    into->bad_replies.emplace(offset + i, std::move(bad));
  }
}

int Connect(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool FetchStats(int fd, net::StatsReplyPayload* stats) {
  std::vector<uint8_t> request;
  net::AppendStatsRequest(&request, ~uint64_t{0});
  if (!WriteAll(fd, request.data(), request.size())) return false;
  FrameReader reader;
  net::WireHeader header;
  const uint8_t* payload = nullptr;
  while (!reader.Next(&header, &payload)) {
    if (reader.Fill(fd) <= 0) return false;
  }
  if (header.type != static_cast<uint8_t>(net::MsgType::kStatsReply) ||
      header.payload_bytes < sizeof(*stats)) {
    return false;
  }
  std::memcpy(stats, payload, sizeof(*stats));
  return true;
}

PhaseLog RunClosedLoop(int fd, const Traffic& traffic, const Checker& checker,
                       size_t first, size_t window, double seconds,
                       double sample_s,
                       const std::function<int64_t()>& server_cpu) {
  PhaseLog log;
  const size_t pool = traffic.size();
  size_t cursor = first % pool;
  bool write_failed = false;
  // Appends `count` frames to the log and sends them with one write per
  // contiguous pool run (two when the run wraps the pool).
  auto refill = [&](size_t count) {
    const int64_t now = NowNs();
    while (count > 0 && !write_failed) {
      const size_t run = std::min(count, pool - cursor);
      for (size_t k = 0; k < run; ++k) {
        log.pool_index.push_back(static_cast<uint32_t>(cursor + k));
        log.queries += traffic.Queries(cursor + k);
      }
      log.sent_ns.resize(log.pool_index.size(), now);
      log.recv_ns.resize(log.pool_index.size(), 0);
      log.match.resize(log.pool_index.size(), 0);
      const size_t begin = traffic.wire_offsets[cursor];
      const size_t bytes = traffic.wire_offsets[cursor + run] - begin;
      write_failed = !WriteAll(fd, traffic.wire.data() + begin, bytes);
      log.bytes_out += bytes;
      cursor = (cursor + run) % pool;
      count -= run;
    }
  };

  FrameReader reader;
  net::WireHeader header;
  const uint8_t* payload = nullptr;
  log.start_ns = NowNs();
  const int64_t deadline =
      log.start_ns + static_cast<int64_t>(seconds * 1e9);
  size_t received = 0;
  uint64_t answered = 0;
  const int64_t sample_every = static_cast<int64_t>(sample_s * 1e9);
  auto sample = [&](int64_t now) {
    log.samples.push_back({now, answered, server_cpu(), ProcessCpuNs()});
  };
  sample(log.start_ns);
  refill(window);
  while (received < log.pool_index.size() && !write_failed) {
    const ssize_t n = reader.Fill(fd);
    if (n <= 0) break;
    const int64_t now = NowNs();
    log.bytes_in += static_cast<uint64_t>(n);
    size_t done = 0;
    while (received < log.pool_index.size() &&
           reader.Next(&header, &payload)) {
      const size_t i = received++;
      RecordReply(checker, i, now, header, payload, &log);
      if (log.match[i] != 0) answered += traffic.Queries(log.pool_index[i]);
      ++done;
    }
    if (now - log.samples.back().at_ns >= sample_every) sample(now);
    if (done > 0 && now < deadline) refill(done);
  }
  log.end_ns = NowNs();
  sample(log.end_ns);
  log.due_ns = log.sent_ns;
  return log;
}

PhaseLog RunOpenLoop(int fd, const Traffic& traffic, const Checker& checker,
                     size_t first, double rate, double seconds,
                     const std::vector<int>& sender_cpus,
                     const std::vector<int>& receiver_cpus,
                     const std::function<void(size_t, PhaseLog*)>& on_sent) {
  PhaseLog log;
  const size_t frames =
      std::max<size_t>(1, static_cast<size_t>(std::llround(rate * seconds)));
  const size_t pool = traffic.size();
  log.pool_index.resize(frames);
  log.due_ns.resize(frames);
  log.sent_ns.resize(frames, 0);
  log.recv_ns.resize(frames, 0);
  log.match.resize(frames, 0);
  for (size_t i = 0; i < frames; ++i) {
    log.pool_index[i] = static_cast<uint32_t>((first + i) % pool);
    log.queries += traffic.Queries(log.pool_index[i]);
  }
  std::atomic<bool> sender_done{false};

  // Receiver: owns recv_ns, match, bytes_in, error_frames, bad_replies.
  std::thread receiver([&] {
    PinCurrentThread(receiver_cpus);
    FrameReader reader;
    net::WireHeader header;
    const uint8_t* payload = nullptr;
    size_t received = 0;
    int64_t last_progress = NowNs();
    // Busy-polls like the sender spins, so a reply is stamped when it
    // arrives rather than when the scheduler wakes a blocked reader.
    while (received < frames) {
      const ssize_t n = reader.Fill(fd, MSG_DONTWAIT);
      const int64_t now = NowNs();
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        // A server that stops answering must not hang the run: give up
        // five seconds after the last reply once everything was sent.
        if (sender_done.load(std::memory_order_relaxed) &&
            now - last_progress > 5000000000LL) {
          break;
        }
        continue;
      }
      if (n <= 0) break;
      last_progress = now;
      log.bytes_in += static_cast<uint64_t>(n);
      while (received < frames && reader.Next(&header, &payload)) {
        RecordReply(checker, received++, now, header, payload, &log);
      }
    }
    log.end_ns = NowNs();
  });

  // Sender: owns due_ns, sent_ns, bytes_out, spin/stall, swap triggers.
  std::thread sender([&] {
    PinCurrentThread(sender_cpus);
    constexpr int64_t kStallNs = 20000;  // a 20 µs clock gap is not us
    const int64_t start = NowNs() + 2000000;
    log.start_ns = start;
    for (size_t i = 0; i < frames; ++i) {
      const int64_t due =
          start + static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate);
      log.due_ns[i] = due;
      int64_t now = NowNs();
      const int64_t spin_from = now;
      while (now < due) {
        const int64_t next = NowNs();
        if (next - now > kStallNs) log.stall_ns += next - now;
        now = next;
      }
      log.spin_ns += now - spin_from;
      log.sent_ns[i] = now;
      const size_t index = log.pool_index[i];
      const size_t begin = traffic.wire_offsets[index];
      const size_t bytes = traffic.FrameBytes(index);
      if (!WriteAll(fd, traffic.wire.data() + begin, bytes)) break;
      log.write_ns += NowNs() - now;
      log.bytes_out += bytes;
      if (on_sent) on_sent(i, &log);
    }
    sender_done.store(true);
  });
  sender.join();
  receiver.join();
  return log;
}

}  // namespace perfbench
