// The load generator: a raw-socket client that writes pre-encoded frames
// from the request pool and checks every reply against the reference
// answers of each index generation.
//
// Closed loop (one thread): keeps `window` frames in flight on one
// connection; each read of replies is followed by ONE write that refills
// every freed slot. Open loop (two threads): a sender spins on the clock
// and writes each frame with its own write(2) at its due time, as
// independent callers would; a receiver timestamps replies as they arrive.
// Latency is measured from the due time, so a stall of the generator or
// the server counts against every request scheduled behind it.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "workload.h"

namespace perfbench {

/// Matches replies against every generation's reference answers.
class Checker {
 public:
  Checker(const Traffic* traffic, const std::vector<Expected>* generations)
      : traffic_(traffic), generations_(generations) {}

  /// Bit g-1 is set when the reply equals generation g's answer.
  uint8_t Match(size_t pool_index, const wcsd::net::WireHeader& header,
                const uint8_t* payload) const;

 private:
  const Traffic* traffic_;
  const std::vector<Expected>* generations_;
};

/// A closed-loop progress sample: correctly answered queries so far and
/// both processes' CPU time.
struct Sample {
  int64_t at_ns = 0;
  uint64_t answered = 0;
  int64_t server_cpu_ns = 0;
  int64_t runner_cpu_ns = 0;
  bool restart = false;  // first sample of an appended loop (AppendPhase)
};

/// Everything recorded about one phase; per-frame vectors are in send
/// order.
struct PhaseLog {
  std::vector<uint32_t> pool_index;
  std::vector<int64_t> due_ns;   // open loop: schedule; closed: = sent_ns
  std::vector<int64_t> sent_ns;  // just before the frame's write began
  std::vector<int64_t> recv_ns;  // when the reply completed; 0 = none
  std::vector<uint8_t> match;    // Checker::Match of the reply; 0 = none
  int64_t start_ns = 0;
  int64_t end_ns = 0;            // last reply (or give-up time)
  uint64_t queries = 0;          // queries carried by the frames sent
  uint64_t bytes_out = 0;
  uint64_t bytes_in = 0;
  uint64_t error_frames = 0;     // kError replies (refusals, bad frames)
  int64_t spin_ns = 0;           // open loop: time the sender spun
  int64_t stall_ns = 0;          // ... of which lost to clock gaps
  int64_t write_ns = 0;          // open loop: time inside write(2)
  std::vector<int64_t> swap_trigger_ns;
  std::vector<Sample> samples;   // closed loop: one per sample interval
  /// Replies that matched no generation, by frame, for the mismatch
  /// report.
  std::map<size_t, BadReply> bad_replies;
};

/// Appends the log of a later run of the same phase to `into`, as if the
/// two had been one: frames, counters, samples (the first one marked as a
/// restart, so no interval spans the gap) and bad replies (re-keyed).
void AppendPhase(PhaseLog* into, PhaseLog part);

/// Connects to 127.0.0.1:port with TCP_NODELAY; -1 on failure.
int Connect(uint16_t port);

/// Sends one kStats request and decodes the reply's fixed prefix.
bool FetchStats(int fd, wcsd::net::StatsReplyPayload* stats);

/// Closed loop from pool position `first` for `seconds`, then drains.
/// Every `sample_s` seconds (and at both ends) it records a Sample, asking
/// `server_cpu` for the server's CPU time.
PhaseLog RunClosedLoop(int fd, const Traffic& traffic, const Checker& checker,
                       size_t first, size_t window, double seconds,
                       double sample_s,
                       const std::function<int64_t()>& server_cpu);

/// Open loop at `rate` frames/s for `seconds`. `on_sent(i)` runs on the
/// sender thread after frame i is written (the hot-swap trigger).
PhaseLog RunOpenLoop(int fd, const Traffic& traffic, const Checker& checker,
                     size_t first, double rate, double seconds,
                     const std::vector<int>& sender_cpus,
                     const std::vector<int>& receiver_cpus,
                     const std::function<void(size_t, PhaseLog*)>& on_sent);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
