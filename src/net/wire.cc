#include "net/wire.h"

#include <cassert>
#include <cstring>

namespace wcsd {
namespace net {

const char* WireErrorName(WireError error) {
  switch (error) {
    case WireError::kOk:
      return "ok";
    case WireError::kBadMagic:
      return "bad magic";
    case WireError::kBadVersion:
      return "unsupported protocol version";
    case WireError::kOversizedFrame:
      return "oversized frame";
    case WireError::kBadPayload:
      return "bad payload";
    case WireError::kUnknownType:
      return "unknown message type";
    case WireError::kOverloaded:
      return "server overloaded";
    case WireError::kDeadlineExceeded:
      return "deadline exceeded";
    case WireError::kShardUnavailable:
      return "shard unavailable";
    case WireError::kNotSupported:
      return "not supported";
  }
  return "unknown error";
}

void AppendFrame(std::vector<uint8_t>* out, MsgType type, WireError status,
                 uint64_t request_id, const void* payload,
                 size_t payload_bytes, const void* records,
                 size_t records_bytes) {
  // Contract (wire.h): no legitimate frame exceeds kMaxPayloadBytes, and
  // the header field is 32-bit — a silent mod-2^32 truncation here would
  // desync the stream, so fail loudly instead.
  const size_t bytes = payload_bytes + records_bytes;
  assert(bytes <= kMaxPayloadBytes);
  const WireHeader header{kWireMagic,
                          kWireVersion,
                          static_cast<uint8_t>(type),
                          static_cast<uint8_t>(status),
                          request_id,
                          static_cast<uint32_t>(bytes),
                          0};
  const size_t at = out->size();
  out->resize(at + sizeof(header) + bytes);
  uint8_t* into = out->data() + at;
  std::memcpy(into, &header, sizeof(header));
  into += sizeof(header);
  if (payload_bytes > 0) std::memcpy(into, payload, payload_bytes);
  if (records_bytes > 0) {
    std::memcpy(into + payload_bytes, records, records_bytes);
  }
}

FrameStatus ParseFrame(const uint8_t* data, size_t size, size_t max_payload,
                       WireHeader* header, const uint8_t** payload) {
  if (size < sizeof(WireHeader)) return FrameStatus::kNeedMore;
  std::memcpy(header, data, sizeof(WireHeader));
  if (header->magic != kWireMagic) return FrameStatus::kBadMagic;
  if (header->version != kWireVersion) return FrameStatus::kBadVersion;
  if (header->payload_bytes > max_payload) return FrameStatus::kOversized;
  if (size - sizeof(WireHeader) < header->payload_bytes) {
    return FrameStatus::kNeedMore;
  }
  *payload = data + sizeof(WireHeader);
  return FrameStatus::kOk;
}

WireError FramingError(FrameStatus status) {
  switch (status) {
    case FrameStatus::kBadMagic:
      return WireError::kBadMagic;
    case FrameStatus::kBadVersion:
      return WireError::kBadVersion;
    case FrameStatus::kOversized:
      return WireError::kOversizedFrame;
    case FrameStatus::kNeedMore:
    case FrameStatus::kOk:
      break;
  }
  return WireError::kOk;
}

void AppendQueryRequest(std::vector<uint8_t>* out, uint64_t request_id,
                        Vertex s, Vertex t, Quality w) {
  QueryFrame::Append(out, request_id, {s, t, w});
}

void AppendBatchRequest(std::vector<uint8_t>* out, uint64_t request_id,
                        std::span<const BatchQueryInput> queries) {
  BatchFrame::Append(out, request_id, {}, queries);
}

void AppendStatsRequest(std::vector<uint8_t>* out, uint64_t request_id) {
  AppendFrame(out, MsgType::kStats, WireError::kOk, request_id, nullptr, 0);
}

void AppendHealthRequest(std::vector<uint8_t>* out, uint64_t request_id) {
  AppendFrame(out, MsgType::kHealth, WireError::kOk, request_id, nullptr, 0);
}

void AppendTopKRequest(std::vector<uint8_t>* out, uint64_t request_id,
                       Vertex source, std::span<const Vertex> candidates,
                       Quality w, uint32_t k) {
  TopKFrame::Append(out, request_id, {source, w, k, 0}, candidates);
}

void AppendProfileRequest(std::vector<uint8_t>* out, uint64_t request_id,
                          Vertex s, Vertex t,
                          std::span<const Quality> thresholds) {
  ProfileFrame::Append(out, request_id, {s, t, 0}, thresholds);
}

void AppendPathRequest(std::vector<uint8_t>* out, uint64_t request_id,
                       Vertex s, Vertex t, Quality w) {
  PathFrame::Append(out, request_id, {s, t, w});
}

}  // namespace net
}  // namespace wcsd
