#include "xmlq/net/protocol.h"

#include <cassert>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

#include "xmlq/base/crc32.h"

namespace xmlq::net {

namespace {

uint32_t FrameCrc(const FrameHeader& header, std::string_view payload) {
  FrameHeader crc_input = header;
  crc_input.crc = 0;
  const uint32_t crc = Crc32(&crc_input, sizeof(crc_input));
  return Crc32(payload.data(), payload.size(), crc);
}

bool KnownFrameType(uint8_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kQuery:
    case FrameType::kCancel:
    case FrameType::kPing:
    case FrameType::kStats:
    case FrameType::kQueryOpts:
    case FrameType::kReplSubscribe:
    case FrameType::kPromote:
    case FrameType::kResponse:
    case FrameType::kReplRecord:
    case FrameType::kReplChunk:
    case FrameType::kReplHeartbeat:
      return true;
  }
  return false;
}

/// Little-endian scalar append/read helpers for the multi-field repl
/// payloads (the simpler payloads above memcpy fixed layouts directly).
template <typename T>
void PutScalar(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
bool GetScalar(std::string_view* in, T* out) {
  if (in->size() < sizeof(T)) return false;
  std::memcpy(out, in->data(), sizeof(T));
  in->remove_prefix(sizeof(T));
  return true;
}

bool GetBytes(std::string_view* in, size_t len, std::string* out) {
  if (in->size() < len) return false;
  out->assign(in->substr(0, len));
  in->remove_prefix(len);
  return true;
}

}  // namespace

std::string_view FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kQuery: return "query";
    case FrameType::kCancel: return "cancel";
    case FrameType::kPing: return "ping";
    case FrameType::kStats: return "stats";
    case FrameType::kQueryOpts: return "query_opts";
    case FrameType::kReplSubscribe: return "repl_subscribe";
    case FrameType::kPromote: return "promote";
    case FrameType::kResponse: return "response";
    case FrameType::kReplRecord: return "repl_record";
    case FrameType::kReplChunk: return "repl_chunk";
    case FrameType::kReplHeartbeat: return "repl_heartbeat";
  }
  return "?";
}

std::string EncodeFrame(FrameType type, uint64_t request_id,
                        std::string_view payload) {
  // payload_len is a u32 on the wire. A payload that does not fit would
  // silently truncate the length field and corrupt the stream for the
  // peer, which is strictly worse than dying here: callers must cap or
  // split (the server substitutes a status response — see
  // Server::EncodeResponseFrame).
  if (payload.size() > std::numeric_limits<uint32_t>::max()) {
    assert(false && "EncodeFrame payload exceeds u32 length field");
    std::abort();
  }
  FrameHeader header;
  std::memcpy(header.magic, kFrameMagic, sizeof(header.magic));
  header.version = kProtocolVersion;
  header.type = static_cast<uint8_t>(type);
  header.request_id = request_id;
  header.payload_len = static_cast<uint32_t>(payload.size());
  header.crc = FrameCrc(header, payload);
  std::string bytes(sizeof(header) + payload.size(), '\0');
  std::memcpy(bytes.data(), &header, sizeof(header));
  if (!payload.empty()) {  // an empty view's data() may be null
    std::memcpy(bytes.data() + sizeof(header), payload.data(), payload.size());
  }
  return bytes;
}

std::string EncodeResponse(const ResponsePayload& response) {
  const uint32_t code = static_cast<uint32_t>(response.code);
  std::string bytes(sizeof(uint32_t) + sizeof(uint64_t) +
                        response.body.size(),
                    '\0');
  std::memcpy(bytes.data(), &code, sizeof(code));
  std::memcpy(bytes.data() + sizeof(code), &response.retry_after_micros,
              sizeof(response.retry_after_micros));
  std::memcpy(bytes.data() + sizeof(code) +
                  sizeof(response.retry_after_micros),
              response.body.data(), response.body.size());
  return bytes;
}

bool DecodeResponse(std::string_view payload, ResponsePayload* out) {
  constexpr size_t kFixed = sizeof(uint32_t) + sizeof(uint64_t);
  if (payload.size() < kFixed) return false;
  uint32_t code = 0;
  std::memcpy(&code, payload.data(), sizeof(code));
  bool known = false;
  for (const StatusCode c : kAllStatusCodes) {
    if (code == static_cast<uint32_t>(c)) known = true;
  }
  if (!known) return false;
  out->code = static_cast<StatusCode>(code);
  std::memcpy(&out->retry_after_micros, payload.data() + sizeof(code),
              sizeof(out->retry_after_micros));
  out->body.assign(payload.substr(kFixed));
  return true;
}

std::string EncodeCancelTarget(uint64_t target_request_id) {
  std::string bytes(sizeof(target_request_id), '\0');
  std::memcpy(bytes.data(), &target_request_id, sizeof(target_request_id));
  return bytes;
}

bool DecodeCancelTarget(std::string_view payload, uint64_t* out) {
  if (payload.size() != sizeof(*out)) return false;
  std::memcpy(out, payload.data(), sizeof(*out));
  return true;
}

std::string EncodeQueryOpts(uint32_t parallelism, std::string_view query) {
  std::string bytes(sizeof(parallelism) + query.size(), '\0');
  std::memcpy(bytes.data(), &parallelism, sizeof(parallelism));
  std::memcpy(bytes.data() + sizeof(parallelism), query.data(), query.size());
  return bytes;
}

bool DecodeQueryOpts(std::string_view payload, uint32_t* parallelism,
                     std::string* query) {
  if (payload.size() < sizeof(*parallelism)) return false;
  std::memcpy(parallelism, payload.data(), sizeof(*parallelism));
  query->assign(payload.substr(sizeof(*parallelism)));
  return true;
}

std::string EncodeReplSubscribe(const ReplSubscribePayload& subscribe) {
  std::string bytes;
  PutScalar(&bytes, subscribe.from_generation);
  PutScalar(&bytes, subscribe.epoch);
  PutScalar(&bytes, subscribe.refetch_generation);
  return bytes;
}

bool DecodeReplSubscribe(std::string_view payload,
                         ReplSubscribePayload* out) {
  return GetScalar(&payload, &out->from_generation) &&
         GetScalar(&payload, &out->epoch) &&
         GetScalar(&payload, &out->refetch_generation) && payload.empty();
}

std::string EncodeReplRecord(const ReplRecordPayload& record) {
  std::string bytes;
  PutScalar(&bytes, record.op);
  PutScalar(&bytes, static_cast<uint32_t>(record.name.size()));
  PutScalar(&bytes, record.generation);
  PutScalar(&bytes, record.snapshot_size);
  PutScalar(&bytes, record.snapshot_crc);
  PutScalar(&bytes, record.epoch);
  bytes += record.name;
  bytes += record.file;
  return bytes;
}

bool DecodeReplRecord(std::string_view payload, ReplRecordPayload* out) {
  uint32_t name_len = 0;
  if (!GetScalar(&payload, &out->op) || !GetScalar(&payload, &name_len) ||
      !GetScalar(&payload, &out->generation) ||
      !GetScalar(&payload, &out->snapshot_size) ||
      !GetScalar(&payload, &out->snapshot_crc) ||
      !GetScalar(&payload, &out->epoch)) {
    return false;
  }
  if (!GetBytes(&payload, name_len, &out->name)) return false;
  out->file.assign(payload);
  return true;
}

std::string EncodeReplChunk(const ReplChunkPayload& chunk) {
  std::string bytes;
  PutScalar(&bytes, chunk.generation);
  PutScalar(&bytes, chunk.offset);
  PutScalar(&bytes, chunk.total_size);
  PutScalar(&bytes, chunk.epoch);
  bytes += chunk.bytes;
  return bytes;
}

bool DecodeReplChunk(std::string_view payload, ReplChunkPayload* out) {
  if (!GetScalar(&payload, &out->generation) ||
      !GetScalar(&payload, &out->offset) ||
      !GetScalar(&payload, &out->total_size) ||
      !GetScalar(&payload, &out->epoch)) {
    return false;
  }
  // A chunk claiming bytes past total_size is hostile or corrupt.
  if (out->offset > out->total_size ||
      payload.size() > out->total_size - out->offset) {
    return false;
  }
  out->bytes.assign(payload);
  return true;
}

std::string EncodeReplHeartbeat(const ReplHeartbeatPayload& heartbeat) {
  std::string bytes;
  PutScalar(&bytes, heartbeat.epoch);
  PutScalar(&bytes, heartbeat.max_generation);
  PutScalar(&bytes, static_cast<uint32_t>(heartbeat.live.size()));
  for (const ReplLiveEntry& entry : heartbeat.live) {
    PutScalar(&bytes, static_cast<uint32_t>(entry.name.size()));
    bytes += entry.name;
    PutScalar(&bytes, entry.generation);
  }
  return bytes;
}

bool DecodeReplHeartbeat(std::string_view payload,
                         ReplHeartbeatPayload* out) {
  uint32_t count = 0;
  if (!GetScalar(&payload, &out->epoch) ||
      !GetScalar(&payload, &out->max_generation) ||
      !GetScalar(&payload, &count)) {
    return false;
  }
  // Each entry is at least 12 bytes, so the remaining payload bounds the
  // claimed count before anything is allocated for it.
  if (count > payload.size() / (sizeof(uint32_t) + sizeof(uint64_t))) {
    return false;
  }
  out->live.clear();
  out->live.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t name_len = 0;
    ReplLiveEntry entry;
    if (!GetScalar(&payload, &name_len) ||
        !GetBytes(&payload, name_len, &entry.name) ||
        !GetScalar(&payload, &entry.generation)) {
      return false;
    }
    out->live.push_back(std::move(entry));
  }
  return payload.empty();
}

DecodeStatus DecodeFrame(std::string_view buffer, Frame* frame,
                         size_t* consumed, std::string* error,
                         uint32_t max_frame_bytes) {
  if (buffer.size() < sizeof(FrameHeader)) return DecodeStatus::kNeedMore;
  FrameHeader header;
  std::memcpy(&header, buffer.data(), sizeof(header));
  if (std::memcmp(header.magic, kFrameMagic, sizeof(header.magic)) != 0) {
    *error = "bad frame magic";
    return DecodeStatus::kBad;
  }
  if (header.version != kProtocolVersion) {
    *error = "unsupported protocol version " + std::to_string(header.version);
    return DecodeStatus::kBad;
  }
  if (!KnownFrameType(header.type)) {
    *error = "unknown frame type " + std::to_string(header.type);
    return DecodeStatus::kBad;
  }
  if (header.reserved != 0) {
    *error = "reserved header bits set";
    return DecodeStatus::kBad;
  }
  if (sizeof(FrameHeader) + static_cast<uint64_t>(header.payload_len) >
      max_frame_bytes) {
    *error = "frame too large (" + std::to_string(header.payload_len) +
             " payload bytes, cap " + std::to_string(max_frame_bytes) + ")";
    return DecodeStatus::kBad;
  }
  if (buffer.size() - sizeof(FrameHeader) < header.payload_len) {
    return DecodeStatus::kNeedMore;
  }
  const std::string_view payload(buffer.data() + sizeof(FrameHeader),
                                 header.payload_len);
  const uint32_t crc = FrameCrc(header, payload);
  if (crc != header.crc) {
    *error = "frame checksum mismatch (stored " + std::to_string(header.crc) +
             ", computed " + std::to_string(crc) + ")";
    return DecodeStatus::kBad;
  }
  frame->type = static_cast<FrameType>(header.type);
  frame->request_id = header.request_id;
  frame->payload.assign(payload);
  *consumed = sizeof(FrameHeader) + header.payload_len;
  return DecodeStatus::kFrame;
}

}  // namespace xmlq::net
