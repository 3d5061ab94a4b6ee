#ifndef XMLQ_NET_PROTOCOL_H_
#define XMLQ_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "xmlq/base/status.h"

namespace xmlq::net {

/// The xmlq wire protocol (DESIGN.md §10): length-prefixed binary frames,
/// each protected end-to-end by CRC-32C. Integers are little-endian host
/// format, like the storage formats — the server refuses the connection on
/// a magic mismatch, which also catches byte-order confusion.
///
/// Frame layout:
///   [FrameHeader : 24 B][payload : payload_len B]
///
/// The header's crc covers the header (with crc zeroed) plus the payload,
/// so a flipped bit anywhere in a frame invalidates it. A decode failure is
/// not recoverable mid-stream (framing is lost), so the peer closes the
/// connection — the client's retry layer treats that as a clean
/// connection error and reconnects.

inline constexpr char kFrameMagic[4] = {'X', 'Q', 'N', 'F'};
inline constexpr uint8_t kProtocolVersion = 1;
/// Server-side default cap on one frame (header + payload); a header whose
/// payload_len exceeds the cap is a protocol error, not an allocation.
inline constexpr uint32_t kDefaultMaxFrameBytes = 1u << 20;

enum class FrameType : uint8_t {
  // Client -> server.
  kQuery = 1,   // payload: XQuery/XPath text (UTF-8)
  kCancel = 2,  // payload: u64 request_id of the in-flight query to cancel
  kPing = 3,    // payload: empty
  kStats = 4,   // payload: empty
  kQueryOpts = 5,  // payload: [u32 parallelism][XQuery/XPath text]
  kReplSubscribe = 6,  // payload: ReplSubscribePayload (below)
  kPromote = 7,    // payload: empty — promote this server to primary
  // Server -> client, echoing the request's request_id.
  kResponse = 16,  // payload: ResponsePayload (below)
  // Server -> subscriber (replication stream, DESIGN.md §13). These ride
  // the subscriber's connection interleaved with responses to its own
  // pipelined requests, so clients must demux by type (Client keeps two
  // queues). request_id is 0 — stream frames answer no request.
  kReplRecord = 17,     // payload: ReplRecordPayload (below)
  kReplChunk = 18,      // payload: ReplChunkPayload (below)
  kReplHeartbeat = 19,  // payload: ReplHeartbeatPayload (below)
};

/// Stable lowercase name for a frame type; "?" for unknown.
std::string_view FrameTypeName(FrameType type);

struct FrameHeader {
  char magic[4];
  uint8_t version = kProtocolVersion;
  uint8_t type = 0;
  uint16_t reserved = 0;    // must be 0
  uint64_t request_id = 0;  // client-chosen; the response echoes it
  uint32_t payload_len = 0;
  uint32_t crc = 0;  // CRC-32C of header (crc = 0) + payload
};
static_assert(sizeof(FrameHeader) == 24, "on-wire layout");

/// One decoded frame, payload copied out of the stream buffer.
struct Frame {
  FrameType type = FrameType::kPing;
  uint64_t request_id = 0;
  std::string payload;
};

/// Serializes one frame (header + payload + CRC). The payload must fit the
/// u32 length field (< 4 GiB) — anything larger aborts rather than
/// truncating the length and corrupting the stream; size-capping payloads
/// is the caller's job (the server substitutes an error status response).
std::string EncodeFrame(FrameType type, uint64_t request_id,
                        std::string_view payload);

/// Every response frame carries a status code, the scheduler's retry-after
/// backpressure hint (micros; 0 = no hint) and a body: the serialized
/// result for kOk, the error message otherwise; the stats text for kStats;
/// empty for kPing/kCancel acks.
///
/// Wire layout: [u32 status_code][u64 retry_after_micros][body bytes].
struct ResponsePayload {
  StatusCode code = StatusCode::kOk;
  uint64_t retry_after_micros = 0;
  std::string body;
};

std::string EncodeResponse(const ResponsePayload& response);
/// False when the payload is shorter than the fixed fields or the status
/// code is not a known StatusCode.
bool DecodeResponse(std::string_view payload, ResponsePayload* out);

/// Cancel-frame payload helpers (a single u64 target request id).
std::string EncodeCancelTarget(uint64_t target_request_id);
bool DecodeCancelTarget(std::string_view payload, uint64_t* out);

/// kQueryOpts payload helpers: [u32 parallelism][query text]. The server
/// accepts any parallelism value and ignores it (τ evaluation is serial;
/// see api::QueryOptions::parallelism), so a kQueryOpts request answers
/// exactly as a plain kQuery with the same text. A payload shorter than
/// the u32 field is malformed.
std::string EncodeQueryOpts(uint32_t parallelism, std::string_view query);
bool DecodeQueryOpts(std::string_view payload, uint32_t* parallelism,
                     std::string* query);

// -- Replication payloads (DESIGN.md §13) -----------------------------------
//
// These codecs live in the protocol layer (not src/xmlq/repl/) because both
// ends need them: the server ships, the follower's ReplicationClient
// receives, and neither may depend on the other's module.

/// kReplSubscribe payload: the follower's resume cursor, the highest epoch
/// it has persisted (DESIGN.md §14 — a primary refuses a subscriber from a
/// *newer* epoch: shipping to it could only be split-brain), and an optional
/// self-heal request: when `refetch_generation` != 0, ship that exact live
/// generation first even though it is at or below the cursor (the follower
/// quarantined its local copy and wants a fresh one).
///
/// Wire: [u64 from_generation][u64 epoch][u64 refetch_generation].
struct ReplSubscribePayload {
  uint64_t from_generation = 0;
  uint64_t epoch = 0;
  uint64_t refetch_generation = 0;
};

std::string EncodeReplSubscribe(const ReplSubscribePayload& subscribe);
bool DecodeReplSubscribe(std::string_view payload, ReplSubscribePayload* out);

/// kReplRecord: announces one manifest registration about to be shipped.
/// Mirrors storage::ManifestRecord for op kRegister; `snapshot_size` bytes
/// of the named snapshot file follow as kReplChunk frames. The whole-file
/// `snapshot_crc` is the follower's commit-time verification authority,
/// independent of the per-frame CRCs.
///
/// Wire: [u32 op][u32 name_len][u64 generation][u64 snapshot_size]
///       [u32 snapshot_crc][u64 epoch][name bytes][file bytes].
struct ReplRecordPayload {
  uint32_t op = 0;  // storage::ManifestOp numeric value
  uint64_t generation = 0;
  uint64_t snapshot_size = 0;
  uint32_t snapshot_crc = 0;
  uint64_t epoch = 0;  // shipper's replication epoch (fencing term)
  std::string name;
  std::string file;
};

std::string EncodeReplRecord(const ReplRecordPayload& record);
bool DecodeReplRecord(std::string_view payload, ReplRecordPayload* out);

/// kReplChunk: one bounded slice of the announced snapshot's bytes.
/// `total_size` repeats the announced size on every chunk so a follower can
/// sanity-check contiguity without trusting its own reassembly state.
///
/// Wire: [u64 generation][u64 offset][u64 total_size][u64 epoch][bytes].
struct ReplChunkPayload {
  uint64_t generation = 0;
  uint64_t offset = 0;
  uint64_t total_size = 0;
  uint64_t epoch = 0;  // shipper's replication epoch (fencing term)
  std::string bytes;
};

std::string EncodeReplChunk(const ReplChunkPayload& chunk);
bool DecodeReplChunk(std::string_view payload, ReplChunkPayload* out);

/// kReplHeartbeat: sent whenever the subscriber is caught up (and at least
/// every heartbeat interval). Carries the primary's manifest clock plus the
/// *full* live census (name, generation per live document), so removals and
/// quarantines — whose journal records compaction may have erased — always
/// propagate: the follower drops local store-backed documents absent from
/// the census. Self-healing every heartbeat, no journal-horizon bookkeeping.
///
/// Wire: [u64 epoch][u64 max_generation][u32 live_count]
///       ([u32 name_len][name bytes][u64 generation])*.
struct ReplLiveEntry {
  std::string name;
  uint64_t generation = 0;
};

struct ReplHeartbeatPayload {
  uint64_t epoch = 0;  // shipper's replication epoch (fencing term)
  uint64_t max_generation = 0;
  std::vector<ReplLiveEntry> live;
};

std::string EncodeReplHeartbeat(const ReplHeartbeatPayload& heartbeat);
bool DecodeReplHeartbeat(std::string_view payload, ReplHeartbeatPayload* out);

/// One step of the incremental frame decoder.
enum class DecodeStatus : uint8_t {
  kFrame,     // *frame filled; *consumed bytes eaten from the buffer
  kNeedMore,  // buffer holds a valid prefix of a frame; read more
  kBad,       // stream is corrupt at its current position (*error says why)
};

/// Decodes the frame at the front of `buffer` without consuming it; the
/// caller erases `*consumed` bytes after a kFrame. Rejects, with kBad: bad
/// magic, unsupported version, unknown frame type, non-zero reserved bits,
/// payload_len > max_frame_bytes (checked *before* waiting for the payload,
/// so a length-field lie cannot stall or balloon the connection), and CRC
/// mismatch. Never reads past buffer.size().
DecodeStatus DecodeFrame(std::string_view buffer, Frame* frame,
                         size_t* consumed, std::string* error,
                         uint32_t max_frame_bytes = kDefaultMaxFrameBytes);

}  // namespace xmlq::net

#endif  // XMLQ_NET_PROTOCOL_H_
