// The benchmark runner: sets a workload up from its seed, starts the
// serving process, drives it over TCP, checks every answer, and prints the
// metrics. run.py builds this binary and runs it:
//
//   perfbench_runner --workload=NAME --seed=N --seconds=S --trace=0|1
//                    --server=<perfbench_server binary> --workdir=DIR
//                    [--trace-out=FILE]
//
// --trace=0 prints the end-to-end metrics; --trace=1 re-runs the phases
// with spans recorded (setup spans here, request spans here and in the
// server's decorator) and prints the per-layer metrics. The last stdout
// line is the JSON result; earlier lines are the human-readable record,
// including every mismatch with its (s, t, w) and generation.

#include <sched.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/batch.h"
#include "core/path_index.h"
#include "graph/io.h"
#include "loadgen.h"
#include "server_proc.h"
#include "util/flags.h"
#include "util/random.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace net = wcsd::net;
using wcsd::Vertex;

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Closed-loop sample interval; the closed-loop figures are medians over
/// these intervals.
constexpr double kSampleSeconds = 0.5;
/// The closed loop's share of the measured seconds; the open loop gets the
/// rest. The closed-loop figures swing most with the host's speed, which
/// drifts over tens of seconds, so they get the larger share (p50 needs
/// fewer seconds: 20k samples per second).
constexpr double kClosedShare = 0.7;
/// Length of one round of closed loop plus open loop; a run measures
/// --seconds / kRoundSeconds rounds (at least one).
constexpr double kRoundSeconds = 5;

// ------------------------------------------------------------ utilities

/// Nearest-rank percentile of an ascending vector (q in [0, 1]).
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Percentile(values, 0.5);
}

double Share(double part, double whole) { return whole > 0 ? part / whole : 0; }

/// Where each thread runs: the generator's two threads, the server's
/// control thread, and its reactor each get their own CPU when there are
/// four; with fewer, the generator and the server still stay apart.
struct CpuLayout {
  std::vector<int> sender;
  std::vector<int> receiver;
  std::vector<int> generator;
  int control = -1;
  int reactor = -1;
};

CpuLayout PlanCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  CpuLayout layout;
  if (cpus.size() >= 4) {
    layout.sender = {cpus[0]};
    layout.receiver = {cpus[1]};
    layout.generator = {cpus[0], cpus[1]};
    layout.control = cpus[2];
    layout.reactor = cpus[3];
  } else if (cpus.size() >= 2) {
    layout.sender = layout.receiver = layout.generator = {cpus[0]};
    layout.control = layout.reactor = cpus[1];
  }
  return layout;
}

/// Host-wide CPU ticks from /proc/stat, for the steal share.
struct HostTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};

HostTicks ReadHostTicks() {
  HostTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  for (int field = 0; field < 8 && stat; ++field) {
    uint64_t value = 0;
    stat >> value;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double StealShare(const HostTicks& a, const HostTicks& b) {
  return Share(static_cast<double>(b.steal - a.steal),
               static_cast<double>(b.total - a.total));
}

struct Usage {
  int64_t cpu_ns = 0;
  int64_t rss_kib = 0;
};

Usage ServerUsage(ServerProcess* server) {
  Usage usage;
  auto line = server->Command("usage");
  if (line.ok()) {
    std::vector<std::string> words = Split(line.value(), ' ');
    if (words.size() == 3) {
      usage.cpu_ns = std::atoll(words[1].c_str());
      usage.rss_kib = std::atoll(words[2].c_str());
    }
  }
  return usage;
}

// ------------------------------------------------------------ spans

/// One recorded span. Setup spans are parented under their set-up run;
/// request spans under the client round trip of their request.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";  // a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanLog {
 public:
  uint64_t Add(const char* name, int64_t start, int64_t end,
               uint64_t parent = 0, uint64_t request = 0) {
    spans_.push_back({++next_id_, parent, request, name, start, end});
    return next_id_;
  }

  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  uint64_t next_id_ = 0;
};

// ------------------------------------------------------------ set-up

struct Context {
  const WorkloadSpec& spec;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server_binary;
  std::string workdir;
  CpuLayout cpus;
};

/// Durations of one set-up run, in seconds.
struct SetupRun {
  double total_s = 0;
  double graph_s = 0;
  double write_s = 0;
  double open_s = 0;
  SetupTimes times;
};

std::vector<std::string> ServerArgs(const Context& ctx,
                                    const std::string& serve_flag,
                                    const std::string& graph_file,
                                    bool traced) {
  const WorkloadSpec& spec = ctx.spec;
  std::vector<std::string> args = {
      serve_flag,
      "--cache-kib=" + std::to_string(spec.cache_kib),
      "--decode-cache-kib=" + std::to_string(spec.decode_cache_kib),
      "--reactor-cpu=" + std::to_string(ctx.cpus.reactor),
      "--control-cpu=" + std::to_string(ctx.cpus.control)};
  if (!graph_file.empty()) args.push_back("--graph=" + graph_file);
  if (spec.swaps > 0) args.push_back("--swappable");
  if (traced) args.push_back("--trace");
  return args;
}

/// Sends one query and waits for its reply: the "first answered request"
/// that ends a set-up.
bool FirstReply(uint16_t port, Vertex n) {
  int fd = Connect(port);
  if (fd < 0) return false;
  std::vector<uint8_t> frame;
  net::AppendQueryRequest(&frame, 0, 0, n - 1, 1.0f);
  bool ok = send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) ==
            static_cast<ssize_t>(frame.size());
  net::WireHeader header;
  size_t got = 0;
  uint8_t buf[64];
  while (ok && got < sizeof(header) + sizeof(net::QueryReplyPayload)) {
    ssize_t n_read = recv(fd, buf + got, sizeof(buf) - got, 0);
    if (n_read <= 0) ok = false;
    else got += static_cast<size_t>(n_read);
  }
  close(fd);
  if (!ok) return false;
  std::memcpy(&header, buf, sizeof(header));
  return header.type == static_cast<uint8_t>(net::MsgType::kQueryReply);
}

struct Served {
  BuiltIndex built;
  std::string serve_flag;
  std::string graph_file;  // binary graph for kPath, when the spec needs it
  std::string stem;
  std::unique_ptr<ServerProcess> server;
};

/// Runs the full set-up `spec.setup_repeats` times (graph, order, build,
/// write, server start, first reply) and keeps the last run's server.
wcsd::Result<Served> SetUp(const Context& ctx, std::vector<SetupRun>* runs,
                           SpanLog* spans) {
  const WorkloadSpec& spec = ctx.spec;
  Served served;
  served.stem = ctx.workdir + "/index";
  const bool wants_graph = spec.family_share > 0;
  for (size_t rep = 0; rep < spec.setup_repeats; ++rep) {
    if (served.server) {
      served.server->Quit();
      served.server.reset();
    }
    SetupRun run;
    const int64_t t0 = NowNs();
    wcsd::QualityGraph graph = GenerateGraph(spec, ctx.seed);
    const int64_t t1 = NowNs();
    served.built = BuildIndex(spec, std::move(graph), &run.times);
    const int64_t t2 = NowNs();
    auto flag = WriteServingFiles(spec, *served.built.index, served.stem);
    if (!flag.ok()) return flag.status();
    served.serve_flag = flag.value();
    if (wants_graph) {
      served.graph_file = served.stem + ".graph";
      wcsd::Status st =
          wcsd::WriteBinaryGraph(*served.built.graph, served.graph_file);
      if (!st.ok()) return st;
    }
    const int64_t t3 = NowNs();
    served.server = std::make_unique<ServerProcess>();
    wcsd::Status st = served.server->Start(
        ctx.server_binary,
        ServerArgs(ctx, served.serve_flag, served.graph_file, false));
    if (!st.ok()) return st;
    const int64_t t4 = NowNs();
    if (!FirstReply(served.server->port(),
                    static_cast<Vertex>(served.built.graph->NumVertices()))) {
      return wcsd::Status::IoError("server did not answer the first query");
    }
    const int64_t t5 = NowNs();

    run.total_s = (t5 - t0) * 1e-9;
    run.graph_s = (t1 - t0) * 1e-9;
    run.write_s = (t3 - t2) * 1e-9;
    run.open_s =
        (served.server->open_end_ns() - served.server->open_start_ns()) * 1e-9;
    const uint64_t root = spans->Add("setup", t0, t5);
    spans->Add("graph.gen", t0, t1, root);
    const int64_t order_end =
        t1 + static_cast<int64_t>(run.times.order_s * 1e9);
    spans->Add("order", t1, order_end, root);
    spans->Add("core.build", order_end, t2, root);
    spans->Add("labeling.snapshot_write", t2, t3, root);
    const uint64_t start = spans->Add("server.start", t3, t4, root);
    spans->Add("labeling.open", served.server->open_start_ns(),
               served.server->open_end_ns(), start);
    spans->Add("net.first_request", t4, t5, root);
    std::printf("setup %zu: %.3f s (graph %.3f, order %.3f, build %.3f, "
                "write %.3f, open %.3f)\n",
                rep + 1, run.total_s, run.graph_s, run.times.order_s,
                run.times.build_s, run.write_s, run.open_s);
    runs->push_back(run);
  }
  return served;
}

// ------------------------------------------------------------ phases

struct SwapRecord {
  int64_t trigger_ns = 0;
  int64_t done_ns = 0;
  uint64_t hits = 0;
  uint64_t lookups = 0;
};

/// Server counters summed over the closed loops of a run (StatsReply
/// deltas), so the open loops between them do not count.
struct ClosedCounters {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t decode_hits = 0;
  uint64_t decode_misses = 0;
  uint64_t cold_pageins = 0;

  void Add(const net::StatsReplyPayload& before,
           const net::StatsReplyPayload& after) {
    cache_hits += after.cache_hits - before.cache_hits;
    cache_misses += after.cache_misses - before.cache_misses;
    cache_evictions += after.cache_evictions - before.cache_evictions;
    decode_hits += after.decode_hits - before.decode_hits;
    decode_misses += after.decode_misses - before.decode_misses;
    cold_pageins += after.cold_pageins - before.cold_pageins;
  }
};

/// Everything one server lifetime's measurement produced.
struct Measurement {
  PhaseLog warm;
  PhaseLog closed;
  PhaseLog open;
  Usage end;
  net::StatsReplyPayload stats{};  // after the first closed loop
  ClosedCounters closed_counters;
  HostTicks host_before;
  HostTicks host_after;
  std::vector<SwapRecord> swaps;
  std::vector<ServerSpan> open_spans;  // traced runs only; one per frame
  uint64_t extra_spans = 0;            // server spans beyond the frames
  std::vector<bool> open_ok;           // per open-loop frame, from Judge
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t server_rejections = 0;
};

/// Per-phase verdict: replies are compared with the generations that could
/// have answered them — the one live when the frame was sent, and, for a
/// frame in flight across a swap, the one after it. Every wrong frame is
/// printed, and for a batch every wrong query in it.
uint64_t Judge(const char* phase, const PhaseLog& log, const Traffic& traffic,
               const std::vector<Expected>& gens, uint32_t gen_start,
               const std::vector<SwapRecord>& swaps, uint64_t* attempted,
               std::vector<bool>* ok = nullptr) {
  uint64_t failed = 0;
  if (ok != nullptr) ok->assign(log.pool_index.size(), true);
  for (size_t i = 0; i < log.pool_index.size(); ++i) {
    const size_t pool_i = log.pool_index[i];
    const uint64_t queries = traffic.Queries(pool_i);
    *attempted += queries;
    uint32_t lo = gen_start;
    uint32_t hi = gen_start;
    for (const SwapRecord& swap : swaps) {
      if (swap.done_ns <= log.sent_ns[i]) ++lo;
      if (log.recv_ns[i] != 0 && swap.trigger_ns < log.recv_ns[i]) ++hi;
    }
    hi = std::max(hi, lo);
    uint32_t bits = 0;
    for (uint32_t g = lo; g <= hi && g <= 8; ++g) bits |= 1u << (g - 1);
    if (log.recv_ns[i] != 0 && (log.match[i] & bits) != 0) continue;
    if (ok != nullptr) (*ok)[i] = false;
    failed += queries;
    auto bad = log.bad_replies.find(i);
    const BadReply* reply =
        bad == log.bad_replies.end() ? nullptr : &bad->second;
    for (const std::string& detail :
         MismatchDetails(traffic, gens[std::min<size_t>(lo, gens.size()) - 1],
                         pool_i, reply)) {
      std::printf("MISMATCH %s frame=%zu generation=%u..%u %s: %s\n", phase,
                  i, lo, hi, Describe(traffic, pool_i).c_str(),
                  detail.c_str());
    }
  }
  return failed;
}

wcsd::Result<Measurement> Measure(const Context& ctx, const Traffic& traffic,
                                  const std::vector<Expected>& gens,
                                  const std::vector<ChainStep>& chain,
                                  ServerProcess* server, double seconds,
                                  bool traced) {
  const WorkloadSpec& spec = ctx.spec;
  Measurement m;
  Checker checker(&traffic, &gens);
  const uint16_t port = server->port();
  const double warm_s = std::max(0.5, 0.1 * ctx.seconds);
  auto dump = [&](const std::string& name,
                  std::vector<ServerSpan>* out) -> wcsd::Status {
    if (!server->Command("trace off").ok()) {
      return wcsd::Status::IoError("trace off failed");
    }
    const std::string path = ctx.workdir + "/" + name + ".spans";
    if (!server->Command("dump " + path).ok()) {
      return wcsd::Status::IoError("span dump failed");
    }
    if (out != nullptr) {
      std::ifstream in(path, std::ios::binary);
      ServerSpan span;
      while (in.read(reinterpret_cast<char*>(&span), sizeof(span))) {
        out->push_back(span);
      }
    }
    return wcsd::Status();
  };

  // Warm-up: fill caches and fault the mapping in; checked, not timed.
  int fd = Connect(port);
  if (fd < 0) return wcsd::Status::IoError("connect failed");
  auto server_cpu = [server] { return ServerUsage(server).cpu_ns; };
  m.warm = RunClosedLoop(fd, traffic, checker, 0, spec.window, warm_s,
                         warm_s, server_cpu);
  close(fd);
  size_t cursor = m.warm.pool_index.size();

  // Rounds of closed loop then open loop, so that both phases sample the
  // host's states across the whole run rather than one stretch of it.
  const size_t rounds = std::max<size_t>(
      1, static_cast<size_t>(std::llround(seconds / kRoundSeconds)));
  const double closed_s = kClosedShare * seconds / rounds;
  const double open_s = (1 - kClosedShare) * seconds / rounds;
  // RunOpenLoop sends this many frames per call.
  const size_t round_frames = std::max<size_t>(
      1, static_cast<size_t>(std::llround(spec.open_rate * open_s)));
  std::vector<size_t> swap_at;  // open-loop frame indices over all rounds
  for (size_t k = 0; k < spec.swaps && k < chain.size(); ++k) {
    swap_at.push_back(rounds * round_frames * (k + 1) / (spec.swaps + 1));
  }
  size_t next_swap = 0;
  bool swap_send_failed = false;
  m.host_before = ReadHostTicks();
  for (size_t round = 0; round < rounds; ++round) {
    // Closed loop: throughput and server CPU per query.
    fd = Connect(port);
    if (fd < 0) return wcsd::Status::IoError("connect failed");
    net::StatsReplyPayload before{}, after{};
    FetchStats(fd, &before);
    if (traced && !server->Command("trace on").ok()) {
      return wcsd::Status::IoError("trace on failed");
    }
    PhaseLog closed = RunClosedLoop(fd, traffic, checker, cursor, spec.window,
                                    closed_s, kSampleSeconds, server_cpu);
    if (traced) {
      wcsd::Status st = dump("closed", nullptr);
      if (!st.ok()) return st;
    }
    FetchStats(fd, &after);
    close(fd);
    if (round == 0) m.stats = after;
    m.closed_counters.Add(before, after);
    cursor += closed.pool_index.size();
    AppendPhase(&m.closed, std::move(closed));

    // Open loop at the frozen rate, with the workload's hot swaps.
    fd = Connect(port);
    if (fd < 0) return wcsd::Status::IoError("connect failed");
    if (traced && !server->Command("trace on").ok()) {
      return wcsd::Status::IoError("trace on failed");
    }
    const size_t first_frame = round * round_frames;
    auto on_sent = [&](size_t i, PhaseLog* log) {
      if (next_swap >= swap_at.size() ||
          first_frame + i != swap_at[next_swap]) {
        return;
      }
      const ChainStep& step = chain[next_swap++];
      log->swap_trigger_ns.push_back(NowNs());
      swap_send_failed |= !server
                              ->Send("swap " + step.snapshot + " " +
                                     step.delta + " " + step.graph)
                              .ok();
    };
    PhaseLog open =
        RunOpenLoop(fd, traffic, checker, cursor, spec.open_rate, open_s,
                    ctx.cpus.sender, ctx.cpus.receiver, on_sent);
    close(fd);
    if (swap_send_failed) return wcsd::Status::IoError("swap command failed");
    for (int64_t trigger : open.swap_trigger_ns) {
      auto line = server->ReadLine();
      if (!line.ok()) return line.status();
      std::vector<std::string> words = Split(line.value(), ' ');
      if (words.size() != 7 || words[0] != "swapped") {
        return wcsd::Status::IoError("swap failed: " + line.value());
      }
      SwapRecord swap;
      swap.trigger_ns = trigger;
      swap.done_ns = std::atoll(words[3].c_str());
      swap.hits = std::strtoull(words[5].c_str(), nullptr, 10);
      swap.lookups = std::strtoull(words[6].c_str(), nullptr, 10);
      std::printf("swap to generation %s: %.2f ms from trigger to published, "
                  "%s cached intervals dropped, %llu/%llu hits after\n",
                  words[1].c_str(), (swap.done_ns - trigger) * 1e-6,
                  words[4].c_str(), static_cast<unsigned long long>(swap.hits),
                  static_cast<unsigned long long>(swap.lookups));
      m.swaps.push_back(swap);
    }
    if (traced) {
      // Spans line up with frames by order within the round; a missing
      // one is padded with an empty span (unmatched), extras are counted.
      std::vector<ServerSpan> spans;
      wcsd::Status st = dump("open", &spans);
      if (!st.ok()) return st;
      const size_t frames = open.pool_index.size();
      if (spans.size() > frames) m.extra_spans += spans.size() - frames;
      spans.resize(frames);
      m.open_spans.insert(m.open_spans.end(), spans.begin(), spans.end());
    }
    cursor += open.pool_index.size();
    AppendPhase(&m.open, std::move(open));
  }
  m.host_after = ReadHostTicks();
  m.end = ServerUsage(server);

  m.failed += Judge("warm-up", m.warm, traffic, gens, 1, {}, &m.attempted);
  m.failed += Judge("closed", m.closed, traffic, gens, 1, m.swaps,
                    &m.attempted);
  m.failed += Judge("open", m.open, traffic, gens, 1, m.swaps, &m.attempted,
                    &m.open_ok);
  return m;
}

/// Stops the server and adds its refusal counters (overload, deadline,
/// shard-unavailable, protocol errors) to `m`.
void StopServer(ServerProcess* server, Measurement* m) {
  auto bye = server->Quit();
  if (!bye.ok()) return;
  std::vector<std::string> words = Split(bye.value(), ' ');
  for (size_t i = 2; i < words.size(); ++i) {
    m->server_rejections += std::strtoull(words[i].c_str(), nullptr, 10);
  }
}

// ------------------------------------------------------------ figures

struct ClosedFigures {
  double throughput_qps = 0;
  std::vector<double> qps;  // per sample interval, ascending
  std::vector<double> qps_series, cpu_series;  // per interval, in time order
  double seconds = 0;                          // summed over the intervals
  double server_cpu_us = 0;
  double loadgen_cpu_us = 0;
  double busy_share = 0;
  double wire_bytes_per_query = 0;
};

/// Closed-loop figures are medians over the sample intervals, so a burst
/// of host noise moves one or two intervals, not the result.
ClosedFigures Closed(const Measurement& m) {
  std::vector<double> qps, server_cpu, loadgen_cpu, busy;
  double measured_ns = 0;
  const std::vector<Sample>& samples = m.closed.samples;
  for (size_t k = 1; k < samples.size(); ++k) {
    const Sample& a = samples[k - 1];
    const Sample& b = samples[k];
    if (b.restart) continue;  // the gap between two rounds
    const double wall_ns = static_cast<double>(b.at_ns - a.at_ns);
    const double answered = static_cast<double>(b.answered - a.answered);
    // The drain after the deadline leaves a short tail interval; skip it.
    if (wall_ns < 0.5e9 * kSampleSeconds || answered == 0) continue;
    const double cpu_ns = static_cast<double>(b.server_cpu_ns - a.server_cpu_ns);
    qps.push_back(answered * 1e9 / wall_ns);
    server_cpu.push_back(cpu_ns * 1e-3 / answered);
    loadgen_cpu.push_back((b.runner_cpu_ns - a.runner_cpu_ns) * 1e-3 / answered);
    busy.push_back(cpu_ns / wall_ns);
    measured_ns += wall_ns;
  }
  ClosedFigures f;
  f.seconds = measured_ns * 1e-9;
  f.qps_series = qps;
  f.cpu_series = server_cpu;
  f.throughput_qps = Median(qps);
  f.qps = qps;
  std::sort(f.qps.begin(), f.qps.end());
  f.server_cpu_us = Median(server_cpu);
  f.loadgen_cpu_us = Median(loadgen_cpu);
  f.busy_share = Median(busy);
  f.wire_bytes_per_query =
      Share(static_cast<double>(m.closed.bytes_out + m.closed.bytes_in),
            static_cast<double>(m.closed.queries));
  return f;
}

struct OpenFigures {
  std::vector<double> latency_us;  // sorted; failures are +inf
  double p50_us = 0;
  double lag_p99_us = 0;
  double stall_share = 0;
  bool behind = false;
};

OpenFigures Open(const Measurement& m) {
  OpenFigures f;
  const PhaseLog& log = m.open;
  std::vector<double> lag;
  for (size_t i = 0; i < log.pool_index.size(); ++i) {
    f.latency_us.push_back(m.open_ok[i]
                               ? (log.recv_ns[i] - log.due_ns[i]) * 1e-3
                               : kInf);
    if (log.sent_ns[i] != 0) lag.push_back((log.sent_ns[i] - log.due_ns[i]) * 1e-3);
  }
  std::sort(f.latency_us.begin(), f.latency_us.end());
  std::sort(lag.begin(), lag.end());
  f.p50_us = Percentile(f.latency_us, 0.5);
  f.lag_p99_us = Percentile(lag, 0.99);
  f.stall_share = Share(static_cast<double>(log.stall_ns),
                        static_cast<double>(log.spin_ns));
  // Behind: one frame in ten left more than 100 µs late, or frames never
  // left at all. (Host stalls of a few milliseconds make the p99 late on
  // any generator; a generator that cannot keep up moves the p90.)
  f.behind = Percentile(lag, 0.9) > 100 || lag.size() < log.pool_index.size();
  return f;
}

void PrintPhaseLines(const char* label, const Measurement& m) {
  const ClosedFigures c = Closed(m);
  const OpenFigures o = Open(m);
  std::printf("%s closed: frames=%zu error_frames=%llu queries=%llu "
              "seconds=%.3f throughput_qps=%.1f (intervals min %.1f q1 %.1f "
              "q3 %.1f max %.1f) "
              "server_cpu_us_per_query=%.3f loadgen.cpu_us_per_query=%.3f "
              "loadgen.server_busy_share=%.3f\n",
              label, m.closed.pool_index.size(),
              static_cast<unsigned long long>(m.closed.error_frames),
              static_cast<unsigned long long>(m.closed.queries),
              c.seconds, c.throughput_qps,
              Percentile(c.qps, 0), Percentile(c.qps, 0.25),
              Percentile(c.qps, 0.75), Percentile(c.qps, 1), c.server_cpu_us,
              c.loadgen_cpu_us,
              c.busy_share);
  std::printf("%s closed intervals (q/s server_us/query):", label);
  for (size_t k = 0; k < c.qps_series.size(); ++k) {
    std::printf(" %.0f/%.3f", c.qps_series[k], c.cpu_series[k]);
  }
  std::printf("\n");
  if (c.loadgen_cpu_us > 0.5 * c.server_cpu_us) {
    std::printf("%s WARNING: the generator's CPU per query is not well below "
                "the server's; throughput_qps may measure the client\n",
                label);
  }
  std::printf("%s open: frames=%zu error_frames=%llu p50_us=%.2f "
              "p90_us=%.2f p99_us=%.2f p999_us=%.2f loadgen.lag_p99_us=%.2f "
              "loadgen.write_us=%.2f loadgen.stall_share=%.5f "
              "loadgen.steal_share=%.5f generator=%s\n",
              label, m.open.pool_index.size(),
              static_cast<unsigned long long>(m.open.error_frames), o.p50_us,
              Percentile(o.latency_us, 0.9), Percentile(o.latency_us, 0.99),
              Percentile(o.latency_us, 0.999), o.lag_p99_us,
              Share(m.open.write_ns * 1e-3,
                    static_cast<double>(m.open.pool_index.size())),
              o.stall_share,
              StealShare(m.host_before, m.host_after),
              o.behind ? "BEHIND" : "on-schedule");
}

// ------------------------------------------------------------ attribution

/// How far the per-layer self times may add up away from the client p50.
/// Medians of different quantities do not add exactly when requests are
/// of mixed kinds: on zipf-live the median request is a result-cache miss
/// while the median engine call is a hit, which leaves up to 9% between
/// them.
constexpr double kAttributionTolerance = 0.10;

/// Per-layer self times of the traced open-loop requests, each the median
/// over the matched requests of that layer alone, and how far their sum is
/// from the client-observed p50. The three are medians of different
/// quantities, so their sum equals the p50 only when the layers account
/// for the typical request's round trip.
struct Attribution {
  double loadgen_us = 0;  // due -> write (generator lateness)
  double serve_us = 0;    // inside the QueryService call
  double net_us = 0;      // round trip minus both of the above
  double p50_us = 0;      // client-observed, all frames
  double error_share = 0;
  uint64_t unmatched = 0;
  std::vector<uint32_t> generation;  // per frame; 0 = no matched span
};

Attribution Attribute(const Measurement& m, const Traffic& traffic,
                      double client_p50_us, SpanLog* spans) {
  Attribution a;
  const PhaseLog& log = m.open;
  const size_t frames = log.pool_index.size();
  a.generation.assign(frames, 0);
  a.p50_us = client_p50_us;
  std::vector<double> lag, serve, net;
  for (size_t i = 0; i < frames; ++i) {
    if (!m.open_ok[i]) continue;
    if (i >= m.open_spans.size()) {
      ++a.unmatched;
      continue;
    }
    const ServerSpan& s = m.open_spans[i];
    const Request& r = traffic.requests[log.pool_index[i]];
    const bool same = s.s == r.s && (r.kind == Kind::kTopK || s.t == r.t);
    // The children do not overlap: the server cannot start on a frame
    // before its write began.
    const bool inside = s.start_ns >= log.sent_ns[i] &&
                        s.end_ns <= log.recv_ns[i] && s.start_ns <= s.end_ns;
    if (!same || !inside) {
      ++a.unmatched;
      continue;
    }
    a.generation[i] = s.generation;
    const uint64_t root =
        spans->Add("client.round_trip", log.due_ns[i], log.recv_ns[i], 0, i);
    spans->Add("loadgen.lag", log.due_ns[i], log.sent_ns[i], root, i);
    spans->Add("serve.engine", s.start_ns, s.end_ns, root, i);
    const double rtt_us = (log.recv_ns[i] - log.due_ns[i]) * 1e-3;
    lag.push_back((log.sent_ns[i] - log.due_ns[i]) * 1e-3);
    serve.push_back((s.end_ns - s.start_ns) * 1e-3);
    net.push_back(rtt_us - lag.back() - serve.back());
  }
  a.unmatched += m.extra_spans;
  if (net.empty() || a.p50_us <= 0) return a;
  a.loadgen_us = Median(lag);
  a.serve_us = Median(serve);
  a.net_us = Median(net);
  a.error_share =
      std::fabs(a.loadgen_us + a.serve_us + a.net_us - a.p50_us) / a.p50_us;
  return a;
}

// ------------------------------------------------------------ in process

/// Replays the workload's queries through WcIndex::Query on the mapped
/// snapshot (a compressed one for compressed storage): the kernel cost
/// without the wire. Mean microseconds per query.
double KernelReplay(const Context& ctx, const Served& served,
                    const Traffic& traffic) {
  std::string path = served.stem + ".wcsnap";
  if (ctx.spec.storage == Storage::kCompressedShards) {
    path = served.stem + ".kernel.wcsnap";
    wcsd::SnapshotWriteOptions write;
    write.compress = true;
    if (!served.built.index->SaveSnapshot(path, write).ok()) return 0;
  }
  auto mapped = wcsd::WcIndex::LoadMmap(path);
  if (!mapped.ok()) return 0;
  const wcsd::WcIndex& index = mapped.value();
  std::vector<wcsd::BatchQueryInput> queries;
  for (const Request& r : traffic.requests) {
    if (r.kind != Kind::kBatch) queries.push_back({r.s, r.t, r.w});
  }
  queries.insert(queries.end(), traffic.batch_queries.begin(),
                 traffic.batch_queries.end());
  queries.resize(std::min<size_t>(queries.size(), 1u << 18));
  uint64_t sum = 0;
  for (size_t i = 0; i < std::min<size_t>(queries.size(), 4096); ++i) {
    sum += index.Query(queries[i].s, queries[i].t, queries[i].w);
  }
  const int64_t start = NowNs();
  for (const wcsd::BatchQueryInput& q : queries) {
    sum += index.Query(q.s, q.t, q.w);
  }
  const int64_t end = NowNs();
  std::printf("kernel replay: %zu queries on %s, distance sum %llu\n",
              queries.size(), path.c_str(),
              static_cast<unsigned long long>(sum));
  return Share((end - start) * 1e-3, static_cast<double>(queries.size()));
}

struct FamilyFigures {
  double topk_us = 0;
  double profile_us = 0;
  double path_us = 0;
  uint64_t fallback_steps = 0;
};

/// Times the query families of core/batch and core/path_index in process
/// on the built index, over a fixed sample of the pool's (s, t, w).
FamilyFigures Families(const Context& ctx, const Traffic& traffic,
                       const BuiltIndex& built) {
  constexpr size_t kSamples = 256;
  FamilyFigures f;
  wcsd::Rng rng(ctx.seed ^ 0xfa3111e5ULL);
  const size_t n = built.graph->NumVertices();
  std::vector<double> topk, profile, path;
  size_t results = 0;
  for (size_t k = 0; k < kSamples; ++k) {
    const Request& r = traffic.requests[(k * 7919) % traffic.size()];
    std::vector<Vertex> candidates(kTopKCandidates);
    for (Vertex& c : candidates) c = static_cast<Vertex>(rng.NextBounded(n));
    int64_t t0 = NowNs();
    auto ranked =
        wcsd::TopKClosest(*built.index, r.s, candidates, r.w, kTopK);
    int64_t t1 = NowNs();
    auto points =
        wcsd::QualityProfile(*built.index, r.s, r.t, traffic.thresholds);
    int64_t t2 = NowNs();
    wcsd::PathQueryStats stats;
    auto walk = wcsd::QueryConstrainedPath(*built.index, *built.graph, r.s,
                                           r.t, r.w, &stats);
    int64_t t3 = NowNs();
    topk.push_back((t1 - t0) * 1e-3);
    profile.push_back((t2 - t1) * 1e-3);
    path.push_back((t3 - t2) * 1e-3);
    f.fallback_steps += stats.fallback_steps;
    results += ranked.size() + points.size() + walk.size();
  }
  std::printf("families: %zu samples, %zu result records\n", kSamples,
              results);
  f.topk_us = Median(topk);
  f.profile_us = Median(profile);
  f.path_us = Median(path);
  return f;
}

// ------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Run(const Context& ctx, const std::string& trace_out) {
  const WorkloadSpec& spec = ctx.spec;
  SpanLog spans;
  std::vector<SetupRun> runs;
  auto set_up = SetUp(ctx, &runs, &spans);
  if (!set_up.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 set_up.status().ToString().c_str());
    return 1;
  }
  Served served = std::move(set_up).value();

  // References: every generation the server may serve, each cross-checked
  // against constrained Dijkstra on a fixed sample.
  const int64_t ref_start = NowNs();
  Traffic traffic = MakeTraffic(spec, *served.built.graph, ctx.seed);
  std::vector<BuiltIndex> gens = {served.built};
  std::vector<ChainStep> chain;
  if (spec.swaps > 0) {
    auto built_chain =
        BuildChain(spec, served.built, ctx.seed, served.stem, &chain);
    if (!built_chain.ok()) {
      std::fprintf(stderr, "chain failed: %s\n",
                   built_chain.status().ToString().c_str());
      return 1;
    }
    for (BuiltIndex& g : built_chain.value()) gens.push_back(std::move(g));
  }
  std::vector<Expected> expected;
  constexpr size_t kOracleSamples = 200;
  uint64_t oracle_checked = 0;
  uint64_t oracle_mismatches = 0;
  for (size_t g = 0; g < gens.size(); ++g) {
    expected.push_back(ComputeExpected(traffic, gens[g]));
    oracle_mismatches += OracleCheck(gens[g], kOracleSamples, ctx.seed,
                                     static_cast<uint32_t>(g + 1));
    oracle_checked += kOracleSamples;
  }
  std::printf("references: %zu generation(s), %zu pool frames, oracle "
              "%llu/%llu agree, %.3f s\n",
              gens.size(), traffic.size(),
              static_cast<unsigned long long>(oracle_checked -
                                              oracle_mismatches),
              static_cast<unsigned long long>(oracle_checked),
              (NowNs() - ref_start) * 1e-9);

  std::printf("cpus: generator sender %d receiver %d, server control %d "
              "reactor %d (-1 = unpinned)\n",
              ctx.cpus.sender.empty() ? -1 : ctx.cpus.sender[0],
              ctx.cpus.receiver.empty() ? -1 : ctx.cpus.receiver[0],
              ctx.cpus.control, ctx.cpus.reactor);
  if (!PinCurrentThread(ctx.cpus.generator)) {
    std::printf("WARNING: could not pin the generator\n");
  }
  // A traced run splits --seconds between the plain and the traced server.
  const double measure_s = ctx.trace ? ctx.seconds / 2 : ctx.seconds;
  auto measured = Measure(ctx, traffic, expected, chain, served.server.get(),
                          measure_s, false);
  if (!measured.ok()) {
    std::fprintf(stderr, "measurement failed: %s\n",
                 measured.status().ToString().c_str());
    return 1;
  }
  Measurement m = std::move(measured).value();
  StopServer(served.server.get(), &m);
  PrintPhaseLines("untraced", m);
  uint64_t attempted = m.attempted;
  uint64_t failed = m.failed;
  const ClosedFigures closed = Closed(m);
  const OpenFigures open = Open(m);
  std::vector<double> setup_s;
  for (const SetupRun& run : runs) setup_s.push_back(run.total_s);

  std::vector<Metric> metrics;
  if (!ctx.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"throughput_qps", closed.throughput_qps, "q/s"},
        {"p50_us", open.p50_us, "us"},
        {"server_cpu_us_per_query", closed.server_cpu_us, "us"},
        {"server_rss_mib", m.end.rss_kib / 1024.0, "MiB"},
        {"index_mib", m.stats.label_bytes / 1048576.0, "MiB"},
        {"answered_share",
         Share(static_cast<double>(attempted - failed),
               static_cast<double>(attempted)),
         "share"},
    };
  } else {
    // The traced re-run: a fresh server with the span decorator.
    ServerProcess traced_server;
    wcsd::Status st = traced_server.Start(
        ctx.server_binary,
        ServerArgs(ctx, served.serve_flag, served.graph_file, true));
    if (!st.ok()) {
      std::fprintf(stderr, "traced server failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    auto traced_run = Measure(ctx, traffic, expected, chain, &traced_server,
                              measure_s, true);
    if (!traced_run.ok()) {
      std::fprintf(stderr, "traced measurement failed: %s\n",
                   traced_run.status().ToString().c_str());
      return 1;
    }
    Measurement t = std::move(traced_run).value();
    StopServer(&traced_server, &t);
    PrintPhaseLines("traced", t);
    attempted += t.attempted;
    failed += t.failed;
    const ClosedFigures t_closed = Closed(t);
    const OpenFigures t_open = Open(t);
    const Attribution a = Attribute(t, traffic, t_open.p50_us, &spans);
    std::printf("attribution: median self times loadgen %.2f + serve %.2f + "
                "net %.2f us against the client p50 %.2f us, error %.4f "
                "(tolerance %.2f), unmatched spans %llu\n",
                a.loadgen_us, a.serve_us, a.net_us, a.p50_us, a.error_share,
                kAttributionTolerance,
                static_cast<unsigned long long>(a.unmatched));
    if (a.error_share > kAttributionTolerance || a.unmatched > 0) {
      std::printf("ATTRIBUTION CHECK FAILED\n");
    }

    // Swap latency: trigger -> first reply served by the new generation.
    std::vector<double> swap_ms;
    for (size_t k = 0; k < t.swaps.size(); ++k) {
      const uint32_t target = static_cast<uint32_t>(k + 2);
      for (size_t i = 0; i < a.generation.size(); ++i) {
        if (a.generation[i] >= target) {
          swap_ms.push_back((t.open.recv_ns[i] - t.swaps[k].trigger_ns) * 1e-6);
          break;
        }
      }
    }
    uint64_t swap_hits = 0;
    uint64_t swap_lookups = 0;
    for (const SwapRecord& swap : m.swaps) {
      swap_hits += swap.hits;
      swap_lookups += swap.lookups;
    }

    std::vector<double> gen_s, order_s, build_s, build_cpu_s, write_s, open_s;
    for (const SetupRun& run : runs) {
      gen_s.push_back(run.graph_s);
      order_s.push_back(run.times.order_s);
      build_s.push_back(run.times.build_s);
      build_cpu_s.push_back(run.times.build_cpu_s);
      write_s.push_back(run.write_s);
      open_s.push_back(run.open_s);
    }
    const wcsd::WcIndexBuildStats& b = runs.back().times.stats;
    const net::StatsReplyPayload& stats = m.stats;
    const ClosedCounters& c = m.closed_counters;
    const double queries = static_cast<double>(m.closed.queries);
    const FamilyFigures fam = Families(ctx, traffic, served.built);
    const double kernel_us = KernelReplay(ctx, served, traffic);
    metrics = {
        {"graph.gen_s", Median(gen_s), "s"},
        {"order.s", Median(order_s), "s"},
        {"core.build_s", Median(build_s), "s"},
        {"core.build_cpu_s", Median(build_cpu_s), "s"},
        {"core.pops", static_cast<double>(b.pops), "count"},
        {"core.entries", static_cast<double>(b.entries_added), "count"},
        {"core.pruned_by_query", static_cast<double>(b.pruned_by_query),
         "count"},
        {"core.pruned_by_memo", static_cast<double>(b.pruned_by_memo),
         "count"},
        {"core.useful_pop_share",
         Share(static_cast<double>(b.entries_added),
               static_cast<double>(b.pops)),
         "share"},
        {"core.topk_p50_us", fam.topk_us, "us"},
        {"core.profile_p50_us", fam.profile_us, "us"},
        {"core.path_p50_us", fam.path_us, "us"},
        {"core.path_fallback_steps", static_cast<double>(fam.fallback_steps),
         "count"},
        {"labeling.snapshot_write_s", Median(write_s), "s"},
        {"labeling.open_s", Median(open_s), "s"},
        {"labeling.kernel_us", kernel_us, "us"},
        {"labeling.compression_ratio",
         Share(static_cast<double>(stats.uncompressed_label_bytes),
               static_cast<double>(stats.label_bytes)),
         "ratio"},
        {"serve.engine_us", a.serve_us, "us"},
        {"serve.cache_hit_share",
         Share(static_cast<double>(c.cache_hits),
               static_cast<double>(c.cache_hits + c.cache_misses)),
         "share"},
        {"serve.cache_evictions",
         static_cast<double>(c.cache_evictions),
         "count"},
        {"serve.decode_hit_share",
         Share(static_cast<double>(c.decode_hits),
               static_cast<double>(c.decode_hits + c.decode_misses)),
         "share"},
        {"serve.cold_pageins_per_query",
         Share(static_cast<double>(c.cold_pageins), queries),
         "count"},
        {"serve.swap_ms", swap_ms.empty() ? 0 : Median(swap_ms), "ms"},
        {"serve.hit_share_after_swap",
         Share(static_cast<double>(swap_hits),
               static_cast<double>(swap_lookups)),
         "share"},
        {"net.self_us", a.net_us, "us"},
        {"net.wire_bytes_per_query", closed.wire_bytes_per_query, "bytes"},
        {"net.rejections",
         static_cast<double>(m.server_rejections + t.server_rejections),
         "count"},
        {"search.oracle_checked", static_cast<double>(oracle_checked),
         "count"},
        {"search.oracle_mismatches", static_cast<double>(oracle_mismatches),
         "count"},
        {"loadgen.self_us", a.loadgen_us, "us"},
        {"loadgen.cpu_us_per_query", closed.loadgen_cpu_us, "us"},
        {"loadgen.server_busy_share", closed.busy_share, "share"},
        {"loadgen.lag_p99_us", open.lag_p99_us, "us"},
        {"loadgen.stall_share", open.stall_share, "share"},
        {"loadgen.steal_share", StealShare(m.host_before, m.host_after),
         "share"},
        {"tail.p90_us", Percentile(open.latency_us, 0.9), "us"},
        {"tail.p99_us", Percentile(open.latency_us, 0.99), "us"},
        {"tail.p999_us", Percentile(open.latency_us, 0.999), "us"},
        {"trace.overhead_share",
         1.0 - Share(t_closed.throughput_qps, closed.throughput_qps), "share"},
        {"trace.p50_overhead_share",
         Share(t_open.p50_us, open.p50_us) - 1.0, "share"},
        {"trace.attribution_error_share", a.error_share, "share"},
        {"trace.unmatched_spans", static_cast<double>(a.unmatched), "count"},
    };
    if (!trace_out.empty() && !spans.Write(trace_out)) {
      std::fprintf(stderr, "could not write %s\n", trace_out.c_str());
    }
  }
  for (const Metric& metric : metrics) {
    std::printf("metric %s = %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  const bool correct = failed == 0 && oracle_mismatches == 0;
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

int Main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  wcsd::Flags flags(argc, argv);
  const std::string name = flags.GetString("workload", "");
  const WorkloadSpec* spec = FindWorkload(name);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; the workloads are %s\n",
                 name.c_str(), WorkloadNames().c_str());
    return 2;
  }
  Context ctx{.spec = *spec,
              .seed = static_cast<uint64_t>(flags.GetInt("seed", 1)),
              .seconds = flags.GetDouble("seconds", 10),
              .trace = flags.GetInt("trace", 0) != 0,
              .server_binary = flags.GetString("server", ""),
              .workdir = flags.GetString("workdir", ""),
              .cpus = PlanCpus()};
  if (ctx.server_binary.empty() || ctx.workdir.empty() || ctx.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload=NAME --seed=N "
                 "--seconds=S --trace=0|1 --server=BIN --workdir=DIR\n");
    return 2;
  }
  return Run(ctx, flags.GetString("trace-out", ""));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
