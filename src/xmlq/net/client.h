#ifndef XMLQ_NET_CLIENT_H_
#define XMLQ_NET_CLIENT_H_

#include <cstdint>
#include <deque>
#include <random>
#include <string>
#include <string_view>
#include <utility>

#include "xmlq/base/socket.h"
#include "xmlq/base/status.h"
#include "xmlq/net/protocol.h"

namespace xmlq::net {

struct ClientConfig {
  uint64_t connect_timeout_micros = 2'000'000;
  /// Per-recv/send socket timeout; also the cap on waiting for one
  /// response.
  uint64_t io_timeout_micros = 30'000'000;
  /// Client-side frame cap — responses can be larger than requests.
  uint32_t max_frame_bytes = 64u << 20;
};

/// Knobs for QueryWithRetry's backoff loop.
struct RetryPolicy {
  uint32_t max_attempts = 6;
  /// Fallback wait when an overload response carries no hint.
  uint64_t base_backoff_micros = 1'000;
  uint64_t max_backoff_micros = 500'000;
};

/// The pre-jitter backoff schedule QueryWithRetry follows: the server's
/// retry-after hint scaled by 2^attempt, saturating at
/// policy.max_backoff_micros — a huge hint cannot overflow and wrap to a
/// near-zero wait.
uint64_t ScaledBackoffMicros(uint64_t hint_micros, uint32_t attempt,
                             const RetryPolicy& policy);

/// What one retried request ultimately came to. Every request ends in
/// exactly one of these — the trichotomy the chaos suite asserts.
enum class CallOutcome : uint8_t {
  kResponse,         // a response frame arrived (any status but overload)
  kOverload,         // still shed after every retry (retryable; gave up)
  kConnectionError,  // transport failed (clean close, reset, timeout)
};
std::string_view CallOutcomeName(CallOutcome outcome);

struct CallResult {
  CallOutcome outcome = CallOutcome::kConnectionError;
  ResponsePayload response;  // meaningful for kResponse / kOverload
  Status transport_error;    // meaningful for kConnectionError
  uint32_t attempts = 1;
  uint64_t backoff_micros = 0;  // total time slept honoring retry-after
};

/// Blocking client for the xmlq wire protocol. One connection, one thread:
/// the pipelined Send*/ReadResponse surface exists so a caller can overlap
/// requests (and cancel one mid-flight), but the object itself is not
/// thread-safe.
class Client {
 public:
  static Result<Client> Connect(const std::string& host, uint16_t port,
                                const ClientConfig& config = {});

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  /// One request, one response (request ids are assigned internally).
  /// `parallelism` != 1 rides a kQueryOpts frame, which the server accepts
  /// and ignores (the answer equals a plain kQuery's); 1 sends the plain
  /// kQuery frame.
  Result<ResponsePayload> Query(std::string_view text,
                                uint32_t parallelism = 1);
  Result<ResponsePayload> Ping();
  Result<ResponsePayload> Stats();

  /// Query with overload handling: while responses come back
  /// kResourceExhausted with a retry-after hint, sleeps the hinted time
  /// scaled by 2^attempt with ±50% jitter (capped by the policy) and
  /// resubmits. Never retries transport errors — reconnect-and-retry is a
  /// topology decision that belongs to the caller (see xmlq_loadgen).
  CallResult QueryWithRetry(std::string_view text, const RetryPolicy& policy,
                            std::mt19937_64* rng, uint32_t parallelism = 1);

  // -- Pipelined surface ----------------------------------------------------

  /// Sends a Query frame without waiting; returns the request id to match
  /// against ReadResponse / pass to SendCancel.
  Result<uint64_t> SendQuery(std::string_view text, uint32_t parallelism = 1);
  /// Asks the server to cancel in-flight request `target_request_id`. The
  /// cancel gets its own ack response.
  Result<uint64_t> SendCancel(uint64_t target_request_id);
  /// Blocks for the next response frame: (request_id, payload). Frames of
  /// other server->client types (the replication stream) arriving
  /// interleaved are stashed for ReadReplFrame, never mis-delivered here.
  Result<std::pair<uint64_t, ResponsePayload>> ReadResponse();

  // -- Replication surface --------------------------------------------------

  /// Subscribes this connection to the primary's replication stream,
  /// resuming from `from_generation` (ships every live registration with a
  /// higher generation, then heartbeats). `epoch` is the follower's highest
  /// persisted fencing term — a primary that is *behind* it refuses (it is
  /// the stale side of a split brain). `refetch_generation` != 0 asks for
  /// that exact live generation to be re-shipped first (self-heal after a
  /// local quarantine). Returns the server's ack, whose body carries the
  /// primary's epoch ("... epoch=N").
  Result<ResponsePayload> Subscribe(uint64_t from_generation,
                                    uint64_t epoch = 0,
                                    uint64_t refetch_generation = 0);
  /// Promotes the server (kPromote admin frame): it stops its replication
  /// client, bumps+persists its epoch and lifts follower mode. The ack body
  /// carries the new epoch ("promoted; epoch=N").
  Result<ResponsePayload> Promote();
  /// Blocks for the next replication stream frame (kReplRecord, kReplChunk
  /// or kReplHeartbeat); kResponse frames arriving interleaved are stashed
  /// for ReadResponse. The symmetric half of the type demux.
  Result<Frame> ReadReplFrame();

  int fd() const { return fd_.get(); }

 private:
  Client(UniqueFd fd, ClientConfig config)
      : fd_(std::move(fd)), config_(config) {}

  Status SendFrame(FrameType type, uint64_t request_id,
                   std::string_view payload);
  Result<ResponsePayload> RoundTrip(FrameType type, std::string_view payload);
  /// Reads one frame off the socket (decoding from inbuf_ first).
  Result<Frame> ReadFrame();

  /// Stashed repl frames are bounded: a client that only ever calls
  /// ReadResponse on a subscribed connection must not buffer the stream
  /// without limit, so the oldest stream frames are dropped (the follower's
  /// resume-from-cursor makes re-shipping safe).
  static constexpr size_t kMaxPendingRepl = 1024;

  UniqueFd fd_;
  ClientConfig config_;
  uint64_t next_request_id_ = 1;
  std::string inbuf_;
  std::deque<Frame> pending_responses_;
  std::deque<Frame> pending_repl_;
};

}  // namespace xmlq::net

#endif  // XMLQ_NET_CLIENT_H_
