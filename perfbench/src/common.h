// Pieces shared by the benchmark's two processes: the load-generating
// runner (runner_main.cc) and the serving process it starts
// (server_main.cc).
//
// Both processes stamp events with CLOCK_MONOTONIC, which is one clock for
// the whole host, so a span recorded inside the server can be placed inside
// the client round trip that caused it.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds.
int64_t NowNs();

/// Pins the calling thread to `cpus`; an empty set leaves it unpinned.
/// Returns false when the kernel refuses.
bool PinCurrentThread(const std::vector<int>& cpus);

/// Splits on `sep`, dropping empty parts.
std::vector<std::string> Split(const std::string& text, char sep);

/// CPU time (user + system) of the calling process, in nanoseconds.
int64_t ProcessCpuNs();

/// Resident set of the calling process in KiB (VmRSS), 0 if unknown.
int64_t ResidentKib();

/// One call into the QueryService, recorded by the server's tracing
/// decorator and shipped to the runner as raw records. The runner matches
/// record i of a phase to request i of that phase (one connection per
/// phase; the server answers a connection in order) and checks the match
/// with (s, t).
struct ServerSpan {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t s = 0;           // first query's source (batch: first element)
  uint32_t t = 0;           // first query's target (top-k: 0)
  uint32_t generation = 0;  // hot-swap generation that answered
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
