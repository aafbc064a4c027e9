// The WCSD wire protocol: length-prefixed little-endian binary frames, and
// the one codec that encodes and decodes every payload.
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
// Every payload has one of two shapes, and this module is the only one
// that knows which type has which:
//   fixed    exactly one POD struct (FixedFrame);
//   counted  a fixed prefix whose u32 `count` field says how many
//            fixed-size records follow, exactly sizeof(prefix) +
//            count * sizeof(record) bytes (CountedFrame).
// The server and the client encode and decode through the per-type
// aliases below (QueryFrame ... StatsReplyFrame) and never size a payload
// themselves; ParseFrame is the one header check.
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
// (a payload that is not its type's shape, an unknown type) are
// frame-local: the server replies kError with the offending request id
// and the connection keeps serving.

#ifndef WCSD_NET_WIRE_H_
#define WCSD_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
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

/// kQuery / kPath payload, and one kBatchQuery record (BatchQueryInput has
/// the same layout).
struct QueryPayload {
  uint32_t s;
  uint32_t t;
  float w;
};
static_assert(sizeof(QueryPayload) == 12);

/// Most records (queries, top-k candidates or profile thresholds) one
/// request frame may carry: what one kBatchQuery frame holds under
/// kMaxPayloadBytes. One cap for every family keeps each reply under the
/// limit too (a record answers with at most 8 bytes), so one number
/// governs how much work one frame may request. WcClient refuses larger
/// requests without sending them; split them across frames.
inline constexpr size_t kMaxBatchQueries =
    (kMaxPayloadBytes - sizeof(uint32_t)) / sizeof(QueryPayload);

/// kQueryReply payload.
struct QueryReplyPayload {
  uint32_t dist;
};
static_assert(sizeof(QueryReplyPayload) == 4);

/// kTopK request prefix; `count` candidate vertex ids follow.
struct TopKRequestPayload {
  uint32_t source;
  float w;
  uint32_t k;
  uint32_t count;
};
static_assert(sizeof(TopKRequestPayload) == 16);

/// kProfile request prefix; `count` f32 thresholds follow.
struct ProfileRequestPayload {
  uint32_t s;
  uint32_t t;
  uint32_t count;
};
static_assert(sizeof(ProfileRequestPayload) == 12);

/// kStatsReply counters: the serving engine's aggregate counters,
/// including the result-cache counters (all zero when the server's engine
/// runs without a cache). On the wire they are followed by u32
/// shard_count, u32 reserved, and shard_count ShardBalancePayload records
/// (StatsReplyPrefix, empty for unsharded engines).
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

/// kHealthReply payload: nonzero vertex count doubles as "index mapped".
/// `draining` flips to 1 the moment graceful drain begins, so load
/// balancers can steer new traffic away while in-flight work completes.
struct HealthReplyPayload {
  uint64_t num_vertices;
  uint32_t draining;
  uint32_t reserved;
};
static_assert(sizeof(HealthReplyPayload) == 16);

// ------------------------------------------------------------- framing

/// Appends one frame: the header, `payload_bytes` from `payload`, then
/// `records_bytes` from `records` (a counted frame's records, copied
/// straight into `out` with no staging copy). The payload total must not
/// exceed kMaxPayloadBytes (asserted): the header field is 32-bit, and a
/// silently truncated length would desync the stream.
void AppendFrame(std::vector<uint8_t>* out, MsgType type, WireError status,
                 uint64_t request_id, const void* payload,
                 size_t payload_bytes, const void* records = nullptr,
                 size_t records_bytes = 0);

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
/// (no copy; valid only while the input buffer is). Magic, version and
/// length are validated as soon as the header is complete, so a poisoned
/// stream is detected without waiting for the announced payload to arrive
/// (a bare header that passes reads kNeedMore, or kOk without a payload).
FrameStatus ParseFrame(const uint8_t* data, size_t size, size_t max_payload,
                       WireHeader* header, const uint8_t** payload);

/// The wire error a framing failure is reported with (kBadMagic,
/// kBadVersion or kOversizedFrame); kOk for kOk and kNeedMore.
WireError FramingError(FrameStatus status);

// ---------------------------------------------------------------- codec

/// A frame whose payload is exactly one `Payload`.
template <MsgType kType, typename Payload>
struct FixedFrame {
  static_assert(std::is_trivially_copyable_v<Payload>);

  static void Append(std::vector<uint8_t>* out, uint64_t request_id,
                     const Payload& payload) {
    AppendFrame(out, kType, WireError::kOk, request_id, &payload,
                sizeof(payload));
  }

  /// False unless `payload` is exactly one Payload.
  static bool Decode(std::span<const uint8_t> payload, Payload* out) {
    if (payload.size() != sizeof(Payload)) return false;
    std::memcpy(out, payload.data(), sizeof(Payload));
    return true;
  }
};

/// A frame whose payload is a `Prefix` with a u32 `count` field, then
/// `count` `Record`s. Records are copied in bulk, so a Record's layout is
/// its wire layout.
template <MsgType kType, typename PrefixT, typename RecordT>
struct CountedFrame {
  using Prefix = PrefixT;
  using Record = RecordT;
  static constexpr MsgType kMsgType = kType;
  static_assert(std::is_trivially_copyable_v<Prefix> &&
                std::is_trivially_copyable_v<Record>);

  /// Appends one frame: `prefix` with its count set to records.size(),
  /// then the records.
  static void Append(std::vector<uint8_t>* out, uint64_t request_id,
                     Prefix prefix, std::span<const Record> records) {
    prefix.count = static_cast<uint32_t>(records.size());
    AppendFrame(out, kType, WireError::kOk, request_id, &prefix,
                sizeof(prefix), records.data(), records.size_bytes());
  }

  /// Decodes `payload` into *records, and its prefix into *prefix when
  /// given. Returns false, before anything is sized by the count, unless
  /// the payload is exactly sizeof(Prefix) + count * sizeof(Record) bytes.
  static bool Decode(std::span<const uint8_t> payload,
                     std::vector<Record>* records, Prefix* prefix = nullptr) {
    Prefix local{};
    if (prefix == nullptr) prefix = &local;
    if (payload.size() < sizeof(Prefix)) return false;
    std::memcpy(prefix, payload.data(), sizeof(Prefix));
    const std::span<const uint8_t> body = payload.subspan(sizeof(Prefix));
    if (body.size() != uint64_t{prefix->count} * sizeof(Record)) return false;
    records->resize(prefix->count);
    if (!body.empty()) std::memcpy(records->data(), body.data(), body.size());
    return true;
  }
};

/// The prefix of a counted frame that carries nothing but its count.
struct CountPrefix {
  uint32_t count;
};

/// kStatsReply prefix: the counters, then the number of
/// ShardBalancePayload records that follow.
struct StatsReplyPrefix {
  StatsReplyPayload stats;
  uint32_t count;
  uint32_t reserved;  // zero
};
static_assert(sizeof(StatsReplyPrefix) == 176);

// Records copied in bulk: each core type's layout is its wire layout.
static_assert(sizeof(Vertex) == 4 && sizeof(Distance) == 4 &&
              sizeof(Quality) == 4);
static_assert(sizeof(BatchQueryInput) == sizeof(QueryPayload) &&
              offsetof(BatchQueryInput, w) == offsetof(QueryPayload, w));
static_assert(sizeof(RankedCandidate) == 8 &&
              offsetof(RankedCandidate, dist) == 4);
static_assert(sizeof(ProfilePoint) == 8 && offsetof(ProfilePoint, dist) == 4);

// Each message type's shape. kStats and kHealth carry no payload; kError
// carries none either (its status byte is the message).
using QueryFrame = FixedFrame<MsgType::kQuery, QueryPayload>;
using PathFrame = FixedFrame<MsgType::kPath, QueryPayload>;
using QueryReplyFrame = FixedFrame<MsgType::kQueryReply, QueryReplyPayload>;
using HealthReplyFrame =
    FixedFrame<MsgType::kHealthReply, HealthReplyPayload>;
using BatchFrame =
    CountedFrame<MsgType::kBatchQuery, CountPrefix, BatchQueryInput>;
using BatchReplyFrame =
    CountedFrame<MsgType::kBatchQueryReply, CountPrefix, Distance>;
using TopKFrame = CountedFrame<MsgType::kTopK, TopKRequestPayload, Vertex>;
using TopKReplyFrame =
    CountedFrame<MsgType::kTopKReply, CountPrefix, RankedCandidate>;
using ProfileFrame =
    CountedFrame<MsgType::kProfile, ProfileRequestPayload, Quality>;
using ProfileReplyFrame =
    CountedFrame<MsgType::kProfileReply, CountPrefix, ProfilePoint>;
using PathReplyFrame = CountedFrame<MsgType::kPathReply, CountPrefix, Vertex>;
using StatsReplyFrame = CountedFrame<MsgType::kStatsReply, StatsReplyPrefix,
                                     ShardBalancePayload>;

/// Request encoders, one line each over the frames above.
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

}  // namespace net
}  // namespace wcsd

#endif  // WCSD_NET_WIRE_H_
