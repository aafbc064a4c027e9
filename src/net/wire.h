// The WCSD wire protocol: length-prefixed little-endian binary frames.
//
// Versioned like labeling/snapshot.h: every frame starts with a fixed
// 24-byte header carrying magic, protocol version, message type, a status
// byte (meaningful on replies), a client-chosen request id echoed verbatim
// in the matching reply, and the payload length. Request ids are what make
// pipelining work — a client may have any number of frames in flight on one
// connection and correlate replies without assuming ordering (the server
// happens to reply in order, but the protocol does not promise it).
//
// All fields are little-endian fixed-width, the same contract as the
// on-disk formats (util/endian.h): hosts that can serve a snapshot can
// speak the protocol with plain struct reads, no per-field marshalling.
//
// Message types and payloads (sizes in bytes):
//   kQuery       (12)  u32 s, u32 t, f32 w
//   kQueryReply  (4)   u32 dist (kInfDistance = unreachable)
//   kBatchQuery  (4+12n) u32 count, then count (s, t, w) triples
//   kBatchQueryReply (4+4n) u32 count, then count u32 distances,
//                      positionally aligned with the request
//   kTopK        (16+4n) u32 source, f32 w, u32 k, u32 count, then count
//                      u32 candidate vertices
//   kTopKReply   (4+8n) u32 count (<= min(k, candidates)), then count
//                      (u32 vertex, u32 dist) records ascending by
//                      distance, ties by vertex id; unreachable candidates
//                      are omitted
//   kProfile     (12+4n) u32 s, u32 t, u32 count, then count f32
//                      thresholds (any order)
//   kProfileReply (4+8n) u32 count, then count (f32 w, u32 dist) records,
//                      positionally aligned with the request's thresholds
//   kPath        (12)  u32 s, u32 t, f32 w (same shape as kQuery)
//   kPathReply   (4+4n) u32 count, then count u32 vertices: the path
//                      s ... t inclusive; count 0 = unreachable
//   kStats       (0)
//   kStatsReply  (176+40n) u64 num_vertices, queries, reachable, batches,
//                      cache_hits, cache_misses, cache_inserts,
//                      cache_evictions (result-cache counters; zero when
//                      the engine serves uncached), overload_rejections,
//                      deadline_rejections, shard_unavailable, generation
//                      (hot-swap generation, monotone per server; 0 when
//                      the service is not swappable), u32
//                      draining, u32 reserved2, u64 has_parents (1 when
//                      the index carries §V parent quads), u64
//                      path_fallbacks (path unwind steps served through
//                      the graph fallback), u64 compressed (1 when the
//                      engine serves the compressed label backend), u64
//                      decode_hits, decode_misses (decoded-label cache
//                      counters; zero without a decode cache),
//                      cold_pageins (label reads that walked mmap-backed
//                      compressed bytes), u64 label_bytes,
//                      uncompressed_label_bytes (served vs. flat label
//                      mass; their ratio is the compression ratio), then
//                      u32 shard_count, u32 reserved, then shard_count
//                      per-shard balance records (u64 vertex_begin,
//                      vertex_end, entry_count, label_bytes, u32
//                      quarantined, u32 reserved) in tiling order;
//                      shard_count is 0 for unsharded engines. The first
//                      120 bytes are the v6 layout, unchanged
//                      (static_asserted below).
//   kHealth      (0)
//   kHealthReply (16)  u64 num_vertices, u32 draining (1 while the server
//                      is in graceful drain), u32 reserved
//   kError       (0)   header.status carries the WireError; sent in place
//                      of a reply when a frame is well-delimited but
//                      invalid, when the server sheds it under overload
//                      (kOverloaded), misses its deadline
//                      (kDeadlineExceeded), cannot serve it in degraded
//                      mode (kShardUnavailable), does not serve that query
//                      family at all (kNotSupported — e.g. kPath on a
//                      server without a graph), or before closing on a
//                      framing error
//
// Framing errors (bad magic, bad version, oversized length) poison the
// byte stream — the receiver cannot trust where the next frame starts — so
// the server replies with one kError frame and closes. Payload errors
// (wrong payload size for the type, unknown type, batch count mismatch)
// are frame-local: the server replies kError with the offending request id
// and the connection keeps serving.

#ifndef WCSD_NET_WIRE_H_
#define WCSD_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/batch.h"
#include "util/types.h"

namespace wcsd {
namespace net {

/// First four bytes of every frame: "WCSN" on the wire.
inline constexpr uint32_t kWireMagic = 0x4e534357;

/// Current protocol version. Bump on any frame-layout change; peers reject
/// other versions with a clean error frame. v2: kStatsReply grew the
/// per-shard balance section. v3: the kStatsReply fixed prefix grew the
/// result-cache hit/miss/insert/evict counters. v4: robustness fields —
/// kStatsReply grew overload/deadline/shard-unavailable rejection counters
/// and a draining flag, kHealthReply grew the draining flag, per-shard
/// balance records grew a quarantined flag, and the kOverloaded /
/// kDeadlineExceeded / kShardUnavailable error codes were added. v5:
/// kStatsReply grew the hot-swap generation counter (live-update serving).
/// v6: the kTopK / kProfile / kPath query families, the kNotSupported
/// error code, and the kStatsReply has_parents / path_fallbacks counters
/// (appended after the v5 prefix, whose layout is unchanged). v7: the
/// kStatsReply compressed-backend / decoded-label-cache counters and the
/// label-mass fields (appended after the v6 prefix, whose layout is
/// unchanged).
inline constexpr uint16_t kWireVersion = 7;

/// Default upper bound on one frame's payload (16 MiB ≈ 1.4M batched
/// queries). A header announcing more is treated as a framing error before
/// any allocation happens.
inline constexpr uint32_t kMaxPayloadBytes = 1u << 24;

enum class MsgType : uint8_t {
  kQuery = 1,
  kBatchQuery = 2,
  kStats = 3,
  kHealth = 4,
  kTopK = 5,
  kProfile = 6,
  kPath = 7,
  kQueryReply = 65,
  kBatchQueryReply = 66,
  kStatsReply = 67,
  kHealthReply = 68,
  kTopKReply = 69,
  kProfileReply = 70,
  kPathReply = 71,
  kError = 255,
};

/// Reply-header status byte. kOk on every successful reply; error frames
/// carry the reason here (the payload stays empty, keeping error frames
/// deterministic for the golden fixtures).
enum class WireError : uint8_t {
  kOk = 0,
  kBadMagic = 1,
  kBadVersion = 2,
  kOversizedFrame = 3,
  kBadPayload = 4,
  kUnknownType = 5,
  /// The server shed this frame under overload. Frame-local and
  /// retry-safe: the request was never executed and the stream stays
  /// healthy — back off and resend.
  kOverloaded = 6,
  /// The frame's per-request deadline expired before (or while) serving
  /// it. Frame-local; whether a retry makes sense is the caller's call.
  kDeadlineExceeded = 7,
  /// Degraded mode: the query needs a label slice from a quarantined
  /// shard. Frame-local; retrying the same server will not help until the
  /// shard is repaired.
  kShardUnavailable = 8,
  /// The server does not serve this query family at all (e.g. kPath on a
  /// server started without a graph). Frame-local; retrying never helps.
  kNotSupported = 9,
};

/// Human-readable name of a WireError, for Status messages and logs.
const char* WireErrorName(WireError error);

/// The fixed frame header. POD with explicit padding so the wire bytes are
/// exactly the struct bytes on the little-endian hosts we support.
struct WireHeader {
  uint32_t magic;
  uint16_t version;
  uint8_t type;          // MsgType
  uint8_t status;        // WireError; 0 on requests
  uint64_t request_id;   // echoed verbatim in the reply
  uint32_t payload_bytes;
  uint32_t reserved;     // zero
};
static_assert(sizeof(WireHeader) == 24);

/// kQuery payload. Matches BatchQueryInput's layout so batch payloads can
/// be copied in bulk.
struct QueryPayload {
  uint32_t s;
  uint32_t t;
  float w;
};
static_assert(sizeof(QueryPayload) == 12);
static_assert(sizeof(BatchQueryInput) == sizeof(QueryPayload));

/// Most queries one kBatchQuery frame can carry under kMaxPayloadBytes.
/// Clients must split larger workloads across frames (WcClient::Batch
/// rejects bigger inputs rather than poison the stream).
inline constexpr size_t kMaxBatchQueries =
    (kMaxPayloadBytes - sizeof(uint32_t)) / sizeof(QueryPayload);

/// kQueryReply payload.
struct QueryReplyPayload {
  uint32_t dist;
};
static_assert(sizeof(QueryReplyPayload) == 4);

/// kTopK request fixed prefix; `count` candidate vertex ids follow.
struct TopKRequestPayload {
  uint32_t source;
  float w;
  uint32_t k;
  uint32_t count;
};
static_assert(sizeof(TopKRequestPayload) == 16);

/// One kTopKReply record. Matches core/batch.h RankedCandidate so replies
/// can be encoded and decoded with bulk copies.
struct RankedCandidatePayload {
  uint32_t vertex;
  uint32_t dist;
};
static_assert(sizeof(RankedCandidatePayload) == 8);
static_assert(sizeof(RankedCandidate) == sizeof(RankedCandidatePayload));

/// kProfile request fixed prefix; `count` f32 thresholds follow.
struct ProfileRequestPayload {
  uint32_t s;
  uint32_t t;
  uint32_t count;
};
static_assert(sizeof(ProfileRequestPayload) == 12);

/// One kProfileReply record, positionally aligned with the request's
/// thresholds. Matches core/batch.h ProfilePoint for bulk copies.
struct ProfilePointPayload {
  float w;
  uint32_t dist;
};
static_assert(sizeof(ProfilePointPayload) == 8);
static_assert(sizeof(ProfilePoint) == sizeof(ProfilePointPayload));

/// Most candidates / thresholds one kTopK / kProfile frame can carry.
/// Deliberately the same cap as kMaxBatchQueries (the batch cap is the
/// tighter of the two per-element limits), so one knob governs "how much
/// work may one frame request".
inline constexpr size_t kMaxTopKCandidates = kMaxBatchQueries;
inline constexpr size_t kMaxProfileThresholds = kMaxBatchQueries;

/// kStatsReply fixed prefix: the serving engine's aggregate counters,
/// including the result-cache counters (all zero when the server's engine
/// runs without a cache). The wire payload continues with u32 shard_count,
/// u32 reserved, and shard_count ShardBalancePayload records (empty for
/// unsharded engines).
struct StatsReplyPayload {
  uint64_t num_vertices;
  uint64_t queries;
  uint64_t reachable;
  uint64_t batches;
  uint64_t cache_hits;
  uint64_t cache_misses;
  uint64_t cache_inserts;
  uint64_t cache_evictions;
  uint64_t overload_rejections;   // frames shed with kOverloaded
  uint64_t deadline_rejections;   // frames failed with kDeadlineExceeded
  uint64_t shard_unavailable;     // frames failed with kShardUnavailable
  uint64_t generation;            // hot-swap generation; 0 = not swappable
  uint32_t draining;              // 1 while the server is in graceful drain
  uint32_t reserved2;             // zero
  uint64_t has_parents;           // v6: 1 when the index carries §V quads
  uint64_t path_fallbacks;        // v6: path steps served via graph fallback
  uint64_t compressed;            // v7: 1 = compressed label backend
  uint64_t decode_hits;           // v7: decoded-label cache hits
  uint64_t decode_misses;         // v7: decoded-label cache misses
  uint64_t cold_pageins;          // v7: label reads of mmap'd varint bytes
  uint64_t label_bytes;           // v7: label mass actually served
  uint64_t uncompressed_label_bytes;  // v7: the same labels' flat mass
};
static_assert(sizeof(StatsReplyPayload) == 168);
// Earlier prefixes must never move: each version only appends. A v5 / v6
// decoder reading the first 104 / 120 bytes of a v7 stats payload sees
// exactly its own layout.
static_assert(offsetof(StatsReplyPayload, has_parents) == 104);
static_assert(offsetof(StatsReplyPayload, compressed) == 120);

/// One per-shard balance record in a kStatsReply: the shard's vertex range
/// and the label mass it serves. Matches serve's ShardBalanceEntry. A
/// quarantined shard reports the planned range with zero mass — its labels
/// never loaded.
struct ShardBalancePayload {
  uint64_t vertex_begin;
  uint64_t vertex_end;
  uint64_t entry_count;
  uint64_t label_bytes;
  uint32_t quarantined;  // 1 when the shard failed to load (degraded mode)
  uint32_t reserved;     // zero
};
static_assert(sizeof(ShardBalancePayload) == 40);

/// Bytes of a kStatsReply payload carrying `shard_count` balance records.
inline constexpr size_t StatsReplyBytes(size_t shard_count) {
  return sizeof(StatsReplyPayload) + 2 * sizeof(uint32_t) +
         shard_count * sizeof(ShardBalancePayload);
}

/// kHealthReply payload: nonzero vertex count doubles as "index mapped".
/// `draining` flips to 1 the moment graceful drain begins, so load
/// balancers can steer new traffic away while in-flight work completes.
struct HealthReplyPayload {
  uint64_t num_vertices;
  uint32_t draining;
  uint32_t reserved;
};
static_assert(sizeof(HealthReplyPayload) == 16);

// ------------------------------------------------------------- encoding

/// Appends one frame (header + payload copy) to `out`. `payload_bytes`
/// must not exceed kMaxPayloadBytes (asserted): the header field is
/// 32-bit, and a silently truncated length would desync the stream.
void AppendFrame(std::vector<uint8_t>* out, MsgType type, WireError status,
                 uint64_t request_id, const void* payload,
                 size_t payload_bytes);

void AppendQueryRequest(std::vector<uint8_t>* out, uint64_t request_id,
                        Vertex s, Vertex t, Quality w);
void AppendBatchRequest(std::vector<uint8_t>* out, uint64_t request_id,
                        std::span<const BatchQueryInput> queries);
void AppendStatsRequest(std::vector<uint8_t>* out, uint64_t request_id);
void AppendHealthRequest(std::vector<uint8_t>* out, uint64_t request_id);
void AppendTopKRequest(std::vector<uint8_t>* out, uint64_t request_id,
                       Vertex source, std::span<const Vertex> candidates,
                       Quality w, uint32_t k);
void AppendProfileRequest(std::vector<uint8_t>* out, uint64_t request_id,
                          Vertex s, Vertex t,
                          std::span<const Quality> thresholds);
void AppendPathRequest(std::vector<uint8_t>* out, uint64_t request_id,
                       Vertex s, Vertex t, Quality w);

/// Appends a kBatchQueryReply frame, writing the count and distances
/// straight into `out` (batch payloads are the big ones; no staging copy).
void AppendBatchReply(std::vector<uint8_t>* out, uint64_t request_id,
                      std::span<const Distance> results);

/// Appends a kTopKReply / kProfileReply / kPathReply frame (u32 count +
/// bulk-copied records, like AppendBatchReply).
void AppendTopKReply(std::vector<uint8_t>* out, uint64_t request_id,
                     std::span<const RankedCandidate> ranked);
void AppendProfileReply(std::vector<uint8_t>* out, uint64_t request_id,
                        std::span<const ProfilePoint> profile);
void AppendPathReply(std::vector<uint8_t>* out, uint64_t request_id,
                     std::span<const Vertex> path);

/// Appends a kStatsReply frame: the fixed counter prefix plus the
/// per-shard balance section.
void AppendStatsReply(std::vector<uint8_t>* out, uint64_t request_id,
                      const StatsReplyPayload& stats,
                      std::span<const ShardBalancePayload> shards);

// ------------------------------------------------------------- decoding

/// Outcome of trying to delimit one frame in a byte stream.
enum class FrameStatus {
  kNeedMore,    // fewer bytes than one complete frame; read more
  kOk,          // *header/*payload describe one complete frame
  kBadMagic,    // stream poisoned: close after an error frame
  kBadVersion,  // stream poisoned: close after an error frame
  kOversized,   // announced payload exceeds max_payload: close
};

/// Attempts to parse one frame from [data, data + size). On kOk, fills
/// `header` and points `payload` at the payload bytes inside the input
/// (no copy; valid only while the input buffer is). Magic and version are
/// validated as soon as the header is complete, so a poisoned stream is
/// detected without waiting for the announced payload to arrive.
FrameStatus ParseFrame(const uint8_t* data, size_t size, size_t max_payload,
                       WireHeader* header, const uint8_t** payload);

}  // namespace net
}  // namespace wcsd

#endif  // WCSD_NET_WIRE_H_
