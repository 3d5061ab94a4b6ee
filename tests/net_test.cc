// The serving tier's robustness suite (DESIGN.md §10): protocol round-trip
// and hostile-bytes decoding, deadline/idle/backpressure eviction, wire
// cancellation, graceful drain under load, and the chaos matrix over every
// net.* fault site — asserting clean closes, zero fd leaks (counted via
// /proc/self/fd) and the response/overload/connection-error trichotomy.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "xmlq/api/database.h"
#include "xmlq/base/fault_injector.h"
#include "xmlq/base/socket.h"
#include "xmlq/datagen/bib_gen.h"
#include "xmlq/net/client.h"
#include "xmlq/net/conn.h"
#include "xmlq/net/protocol.h"
#include "xmlq/net/server.h"

namespace xmlq {
namespace {

using net::CallOutcome;
using net::Client;
using net::ClientConfig;
using net::DecodeFrame;
using net::DecodeStatus;
using net::EncodeFrame;
using net::Frame;
using net::FrameType;
using net::ResponsePayload;
using net::RetryPolicy;
using net::Server;
using net::ServerConfig;

/// A query slow enough (seconds; see the calibration note in git history:
/// the 120-book triple join runs ~3.7 s) that cancels and drains reliably
/// land while it is still running.
constexpr char kSlowQuery[] =
    "for $a in doc(\"bib.xml\")//book, $b in doc(\"bib.xml\")//book, "
    "$c in doc(\"bib.xml\")//book "
    "where $a/price < $b/price and $b/price < $c/price "
    "return $a/title";

void LoadBib(api::Database* db, size_t books = 120) {
  datagen::BibOptions options;
  options.num_books = books;
  ASSERT_TRUE(
      db->RegisterDocument("bib.xml", datagen::GenerateBibliography(options))
          .ok());
}

// ---------------------------------------------------------------------------
// Protocol

TEST(NetProtocolTest, FrameRoundTrip) {
  for (const FrameType type :
       {FrameType::kQuery, FrameType::kCancel, FrameType::kPing,
        FrameType::kStats, FrameType::kResponse}) {
    const std::string payload =
        type == FrameType::kPing ? "" : "payload for " +
                                            std::string(FrameTypeName(type));
    const std::string bytes = EncodeFrame(type, 42, payload);
    Frame frame;
    size_t consumed = 0;
    std::string error;
    ASSERT_EQ(DecodeFrame(bytes, &frame, &consumed, &error),
              DecodeStatus::kFrame)
        << error;
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.request_id, 42u);
    EXPECT_EQ(frame.payload, payload);
  }
}

TEST(NetProtocolTest, ResponsePayloadRoundTrip) {
  ResponsePayload in;
  in.code = StatusCode::kResourceExhausted;
  in.retry_after_micros = 123456;
  in.body = "admission queue full";
  ResponsePayload out;
  ASSERT_TRUE(DecodeResponse(net::EncodeResponse(in), &out));
  EXPECT_EQ(out.code, in.code);
  EXPECT_EQ(out.retry_after_micros, in.retry_after_micros);
  EXPECT_EQ(out.body, in.body);

  uint64_t target = 0;
  ASSERT_TRUE(net::DecodeCancelTarget(net::EncodeCancelTarget(77), &target));
  EXPECT_EQ(target, 77u);
  EXPECT_FALSE(net::DecodeCancelTarget("short", &target));
  EXPECT_FALSE(DecodeResponse("x", &out));
}

TEST(NetProtocolTest, PartialFramesNeedMore) {
  const std::string bytes = EncodeFrame(FrameType::kQuery, 7, "//book");
  Frame frame;
  size_t consumed = 0;
  std::string error;
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_EQ(DecodeFrame(std::string_view(bytes).substr(0, len), &frame,
                          &consumed, &error),
              DecodeStatus::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(NetProtocolTest, LengthFieldLiesAreRejectedBeforeBuffering) {
  // A header promising a payload far over the cap must be rejected from the
  // header alone — even though none of the payload is present.
  std::string bytes = EncodeFrame(FrameType::kQuery, 7, "q");
  uint32_t huge = 512u << 20;
  std::memcpy(bytes.data() + 16, &huge, sizeof(huge));  // payload_len field
  Frame frame;
  size_t consumed = 0;
  std::string error;
  EXPECT_EQ(DecodeFrame(std::string_view(bytes).substr(0, sizeof(net::FrameHeader)),
                        &frame, &consumed, &error, /*max_frame_bytes=*/1 << 20),
            DecodeStatus::kBad);
  EXPECT_NE(error.find("too large"), std::string::npos) << error;
}

TEST(NetProtocolTest, CorruptionIsDetected) {
  const std::string clean = EncodeFrame(FrameType::kQuery, 9, "//book/title");
  Frame frame;
  std::string error;
  // Every single-bit flip anywhere in the frame must fail decoding (magic,
  // version, type, reserved or CRC check — never a silently wrong frame).
  for (size_t byte = 0; byte < clean.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bytes = clean;
      bytes[byte] = static_cast<char>(bytes[byte] ^ (1 << bit));
      size_t consumed = 0;
      const DecodeStatus status =
          DecodeFrame(bytes, &frame, &consumed, &error);
      // A flip in the length field may also leave the decoder waiting for
      // bytes that never come — that is the read deadline's job, not the
      // decoder's. What must never happen is a valid decode.
      EXPECT_NE(status, DecodeStatus::kFrame)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(NetProtocolTest, FuzzedMutantsNeverCrashTheDecoder) {
  std::mt19937_64 rng(20260807);
  const std::string seeds[] = {
      EncodeFrame(FrameType::kQuery, 1, "//book/title"),
      EncodeFrame(FrameType::kCancel, 2, net::EncodeCancelTarget(1)),
      EncodeFrame(FrameType::kPing, 3, ""),
      EncodeFrame(FrameType::kResponse, 4,
                  net::EncodeResponse({StatusCode::kOk, 0, "<r/>"})),
  };
  for (int iter = 0; iter < 4000; ++iter) {
    std::string bytes = seeds[rng() % std::size(seeds)];
    switch (rng() % 5) {
      case 0:  // truncate
        bytes.resize(rng() % (bytes.size() + 1));
        break;
      case 1: {  // bit flips
        const int flips = 1 + rng() % 8;
        for (int i = 0; i < flips && !bytes.empty(); ++i) {
          bytes[rng() % bytes.size()] ^= static_cast<char>(1u << (rng() % 8));
        }
        break;
      }
      case 2: {  // length-field lie (offset 16, see FrameHeader)
        if (bytes.size() >= 20) {
          uint32_t lie = static_cast<uint32_t>(rng());
          std::memcpy(bytes.data() + 16, &lie, sizeof(lie));
        }
        break;
      }
      case 3:  // garbage prefix (stream desync)
        bytes.insert(0, std::string(1 + rng() % 32, static_cast<char>(rng())));
        break;
      case 4: {  // pure garbage
        bytes.assign(rng() % 256, '\0');
        for (char& c : bytes) c = static_cast<char>(rng());
        break;
      }
    }
    // Drive the decoder the way a connection would: consume frames until it
    // stalls or errors. It must terminate, stay in bounds, and never spin.
    size_t guard = 0;
    while (guard++ < 64) {
      Frame frame;
      size_t consumed = 0;
      std::string error;
      const DecodeStatus status = DecodeFrame(bytes, &frame, &consumed, &error);
      if (status != DecodeStatus::kFrame) break;
      ASSERT_GT(consumed, 0u);
      ASSERT_LE(consumed, bytes.size());
      bytes.erase(0, consumed);
    }
    ASSERT_LT(guard, 64u) << "decoder failed to terminate";
  }
}

TEST(NetClientTest, BackoffSaturatesInsteadOfWrapping) {
  RetryPolicy policy;
  policy.max_backoff_micros = 500'000;
  // The ordinary schedule: hint * 2^attempt until the cap.
  EXPECT_EQ(net::ScaledBackoffMicros(1'000, 0, policy), 1'000u);
  EXPECT_EQ(net::ScaledBackoffMicros(1'000, 3, policy), 8'000u);
  EXPECT_EQ(net::ScaledBackoffMicros(1'000, 16, policy), 500'000u);
  EXPECT_EQ(net::ScaledBackoffMicros(1'000, 40, policy), 500'000u);
  // A huge (buggy or hostile) server hint must saturate at the cap, never
  // overflow the shift and wrap to a near-zero wait.
  EXPECT_EQ(net::ScaledBackoffMicros(UINT64_MAX, 0, policy), 500'000u);
  EXPECT_EQ(net::ScaledBackoffMicros(UINT64_MAX / 2, 16, policy), 500'000u);
}

// ---------------------------------------------------------------------------
// Conn deadline policy (pure; no sockets)

TEST(ConnPolicyTest, DeadlinesFireInPriorityOrder) {
  net::ConnLimits limits;
  limits.idle_timeout_micros = 1000;
  limits.read_deadline_micros = 500;
  limits.write_deadline_micros = 700;
  limits.max_write_buffer_bytes = 64;
  const auto t0 = net::Conn::Clock::now();
  net::Conn conn(1, UniqueFd(), limits, t0);
  using std::chrono::microseconds;

  // Fresh connection: nothing fires until the idle timeout.
  EXPECT_EQ(conn.CheckDeadlines(t0 + microseconds(999)),
            net::Conn::Evict::kNone);
  EXPECT_EQ(conn.CheckDeadlines(t0 + microseconds(1001)),
            net::Conn::Evict::kIdle);

  // A partial frame arms the read deadline (and is activity: no idle).
  conn.NoteRead(t0, /*partial_frame=*/true);
  EXPECT_EQ(conn.CheckDeadlines(t0 + microseconds(499)),
            net::Conn::Evict::kNone);
  EXPECT_EQ(conn.CheckDeadlines(t0 + microseconds(501)),
            net::Conn::Evict::kReadDeadline);
  // Completing the frame disarms it.
  conn.NoteRead(t0 + microseconds(400), /*partial_frame=*/false);
  EXPECT_EQ(conn.CheckDeadlines(t0 + microseconds(600)),
            net::Conn::Evict::kNone);

  // Buffered writes arm the write deadline; progress re-arms it.
  conn.outbuf() = "response bytes";
  conn.NoteQueuedWrite(t0 + microseconds(600));
  EXPECT_EQ(conn.CheckDeadlines(t0 + microseconds(1200)),
            net::Conn::Evict::kNone);
  EXPECT_EQ(conn.CheckDeadlines(t0 + microseconds(1400)),
            net::Conn::Evict::kWriteDeadline);
  conn.outbuf().erase(0, 4);
  conn.NoteWrote(t0 + microseconds(1300));
  EXPECT_EQ(conn.CheckDeadlines(t0 + microseconds(1400)),
            net::Conn::Evict::kNone);

  // The backpressure bound beats everything.
  conn.outbuf().assign(65, 'x');
  EXPECT_EQ(conn.CheckDeadlines(t0 + microseconds(1400)),
            net::Conn::Evict::kSlowClient);
}

// ---------------------------------------------------------------------------
// End-to-end serving

struct ServerFixture {
  api::Database db;
  std::unique_ptr<Server> server;

  explicit ServerFixture(ServerConfig config = {}, size_t books = 120) {
    LoadBib(&db, books);
    server = std::make_unique<Server>(&db, config);
    const Status status = server->Start();
    EXPECT_TRUE(status.ok()) << status.ToString();
  }

  Result<Client> Connect(ClientConfig config = {}) {
    return Client::Connect("127.0.0.1", server->port(), config);
  }
};

TEST(NetServerTest, QueryPingStatsOverTheWire) {
  ServerFixture fx;
  auto client = fx.Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto pong = client->Ping();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->code, StatusCode::kOk);

  auto result = client->Query("doc(\"bib.xml\")//book/title");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->code, StatusCode::kOk);
  EXPECT_NE(result->body.find("<title>"), std::string::npos) << result->body;

  // Errors relay their status code, not a stringly-typed blob.
  auto missing = client->Query("doc(\"nope.xml\")//x");
  ASSERT_TRUE(missing.ok()) << missing.status().ToString();
  EXPECT_EQ(missing->code, StatusCode::kNotFound);

  auto parse = client->Query("for $x in");
  ASSERT_TRUE(parse.ok());
  EXPECT_EQ(parse->code, StatusCode::kParseError);

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->body.find("admission:"), std::string::npos);
  EXPECT_NE(stats->body.find("queries="), std::string::npos);

  const net::ServerStats server_stats = fx.server->stats();
  EXPECT_EQ(server_stats.queries, 3u);
  EXPECT_EQ(server_stats.pings, 1u);
  EXPECT_EQ(server_stats.protocol_errors, 0u);
}

TEST(NetServerTest, QueryOptsParallelismIsIgnored) {
  ServerFixture fx;
  auto client = fx.Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const std::string query = "doc(\"bib.xml\")//book[author]/title";
  auto plain = client->Query(query);  // parallelism 1: a plain kQuery frame
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_EQ(plain->code, StatusCode::kOk);

  // Any kQueryOpts parallelism value, hostile ones included, is accepted
  // and has no effect: the answer is byte-identical to the plain kQuery.
  for (const uint32_t parallelism : {0u, 2u, 0xFFFFFFFFu}) {
    auto opts = client->Query(query, parallelism);
    ASSERT_TRUE(opts.ok()) << opts.status().ToString();
    EXPECT_EQ(opts->code, StatusCode::kOk) << "parallelism " << parallelism;
    EXPECT_EQ(opts->body, plain->body) << "parallelism " << parallelism;
  }
}

TEST(NetServerTest, MalformedQueryOptsPayloadIsRejected) {
  ServerFixture fx(ServerConfig{}, /*books=*/10);
  auto fd = ConnectTcp("127.0.0.1", fx.server->port(), 1'000'000,
                       5'000'000);
  ASSERT_TRUE(fd.ok());
  // Two bytes cannot hold the u32 parallelism field.
  const std::string frame = EncodeFrame(FrameType::kQueryOpts, 7, "ab");
  ASSERT_EQ(send(fd->get(), frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  std::string buffer;
  Frame reply;
  size_t consumed = 0;
  std::string error;
  DecodeStatus status = DecodeStatus::kNeedMore;
  while (status == DecodeStatus::kNeedMore) {
    char buf[256];
    const ssize_t n = recv(fd->get(), buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "connection closed before the response";
    buffer.append(buf, static_cast<size_t>(n));
    status = DecodeFrame(buffer, &reply, &consumed, &error);
  }
  ASSERT_EQ(status, DecodeStatus::kFrame) << error;
  EXPECT_EQ(reply.type, FrameType::kResponse);
  EXPECT_EQ(reply.request_id, 7u);
  ResponsePayload response;
  ASSERT_TRUE(net::DecodeResponse(reply.payload, &response));
  EXPECT_EQ(response.code, StatusCode::kInvalidArgument);
  EXPECT_EQ(response.body, "malformed query-opts payload");
}

TEST(NetServerTest, SharedConnectionPipelinesResponsesByRequestId) {
  ServerFixture fx;
  auto client = fx.Connect();
  ASSERT_TRUE(client.ok());
  auto id1 = client->SendQuery("doc(\"bib.xml\")//book/title");
  auto id2 = client->SendQuery("doc(\"bib.xml\")//book/author");
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  int seen = 0;
  while (seen < 2) {
    auto response = client->ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->first == *id1 || response->first == *id2);
    EXPECT_EQ(response->second.code, StatusCode::kOk);
    ++seen;
  }
}

TEST(NetServerTest, OverloadRelaysRetryAfterHint) {
  ServerConfig config;
  ServerFixture fx(config);
  fx.db.SetAdmission({.max_concurrent = 1, .max_queue = 0,
                      .queue_deadline_micros = 2000});
  auto slow = fx.Connect();
  auto fast = fx.Connect();
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(fast.ok());
  auto slow_id = slow->SendQuery(kSlowQuery);
  ASSERT_TRUE(slow_id.ok());
  // Give the worker a moment to occupy the single admission slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto shed = fast->Query("doc(\"bib.xml\")//book/title");
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->code, StatusCode::kResourceExhausted);
  EXPECT_EQ(shed->retry_after_micros, 2000u) << shed->body;
  // Clean up: cancel the slow query and collect its response.
  ASSERT_TRUE(slow->SendCancel(*slow_id).ok());
  int responses = 0;
  while (responses < 2) {
    auto response = slow->ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ++responses;
  }
}

TEST(NetServerTest, RetryingClientEventuallyGetsThrough) {
  ServerFixture fx;
  fx.db.SetAdmission({.max_concurrent = 1, .max_queue = 0,
                      .queue_deadline_micros = 1000});
  auto slow = fx.Connect();
  ASSERT_TRUE(slow.ok());
  auto slow_id = slow->SendQuery(kSlowQuery);
  ASSERT_TRUE(slow_id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    (void)slow->SendCancel(*slow_id);
  });
  auto retry = fx.Connect();
  ASSERT_TRUE(retry.ok());
  std::mt19937_64 rng(1);
  RetryPolicy policy;
  policy.max_attempts = 200;  // keep retrying until the slot frees
  const net::CallResult call =
      retry->QueryWithRetry("doc(\"bib.xml\")//book/title", policy, &rng);
  canceller.join();
  EXPECT_EQ(call.outcome, CallOutcome::kResponse)
      << CallOutcomeName(call.outcome) << ": "
      << call.transport_error.ToString();
  EXPECT_EQ(call.response.code, StatusCode::kOk) << call.response.body;
  EXPECT_GT(call.attempts, 1u) << "expected at least one overload retry";
  EXPECT_GT(call.backoff_micros, 0u);
  int responses = 0;
  while (responses < 2) {
    auto response = slow->ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ++responses;
  }
}

TEST(NetServerTest, CancelOverTheWire) {
  ServerFixture fx;
  auto client = fx.Connect();
  ASSERT_TRUE(client.ok());
  auto query_id = client->SendQuery(kSlowQuery);
  ASSERT_TRUE(query_id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto cancel_id = client->SendCancel(*query_id);
  ASSERT_TRUE(cancel_id.ok());
  bool saw_cancel_ack = false;
  bool saw_query_response = false;
  while (!saw_cancel_ack || !saw_query_response) {
    auto response = client->ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (response->first == *cancel_id) {
      EXPECT_EQ(response->second.code, StatusCode::kOk);
      EXPECT_NE(response->second.body.find("cancel signalled"),
                std::string::npos);
      saw_cancel_ack = true;
    } else if (response->first == *query_id) {
      EXPECT_EQ(response->second.code, StatusCode::kCancelled)
          << response->second.body;
      saw_query_response = true;
    }
  }
  // Cancelling a finished request reports not-found.
  auto late = client->SendCancel(*query_id);
  ASSERT_TRUE(late.ok());
  auto ack = client->ReadResponse();
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->second.code, StatusCode::kNotFound);
}

TEST(NetServerTest, InflightLimitAnswersWithRetryableOverload) {
  ServerConfig config;
  config.limits.max_inflight = 1;
  ServerFixture fx(config);
  auto client = fx.Connect();
  ASSERT_TRUE(client.ok());
  auto first = client->SendQuery(kSlowQuery);
  ASSERT_TRUE(first.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto second = client->Query("doc(\"bib.xml\")//book/title");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->code, StatusCode::kResourceExhausted);
  EXPECT_NE(second->body.find("in-flight limit"), std::string::npos)
      << second->body;
  EXPECT_GT(second->retry_after_micros, 0u);
  EXPECT_EQ(fx.server->stats().inflight_limit_rejects, 1u);
  ASSERT_TRUE(client->SendCancel(*first).ok());
  int responses = 0;
  while (responses < 2) {
    auto response = client->ReadResponse();
    ASSERT_TRUE(response.ok());
    ++responses;
  }
}

// ---------------------------------------------------------------------------
// Evictions

TEST(NetServerTest, IdleConnectionsAreEvicted) {
  ServerConfig config;
  config.limits.idle_timeout_micros = 100'000;
  ServerFixture fx(config, /*books=*/10);
  auto fd = ConnectTcp("127.0.0.1", fx.server->port(), 1'000'000,
                       5'000'000);
  ASSERT_TRUE(fd.ok());
  char buf[16];
  // The server must close us: recv returns 0 (not a timeout).
  const ssize_t n = recv(fd->get(), buf, sizeof(buf), 0);
  EXPECT_EQ(n, 0);
  // Eventually counted (the sweep runs on the loop tick).
  for (int i = 0; i < 100 && fx.server->stats().evicted_idle == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fx.server->stats().evicted_idle, 1u);
}

TEST(NetServerTest, PartialFrameHitsReadDeadline) {
  ServerConfig config;
  config.limits.read_deadline_micros = 100'000;
  config.limits.idle_timeout_micros = 60'000'000;
  ServerFixture fx(config, /*books=*/10);
  auto fd = ConnectTcp("127.0.0.1", fx.server->port(), 1'000'000,
                       5'000'000);
  ASSERT_TRUE(fd.ok());
  // A torn frame: half a header, then silence (slow-loris).
  const std::string frame = EncodeFrame(FrameType::kQuery, 1, "//book");
  ASSERT_EQ(send(fd->get(), frame.data(), 10, MSG_NOSIGNAL), 10);
  char buf[16];
  const ssize_t n = recv(fd->get(), buf, sizeof(buf), 0);
  EXPECT_EQ(n, 0);
  for (int i = 0; i < 100 && fx.server->stats().evicted_read_deadline == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fx.server->stats().evicted_read_deadline, 1u);
}

TEST(NetServerTest, GarbageBytesCloseTheConnection) {
  ServerFixture fx(ServerConfig{}, /*books=*/10);
  auto fd = ConnectTcp("127.0.0.1", fx.server->port(), 1'000'000,
                       5'000'000);
  ASSERT_TRUE(fd.ok());
  // Wrong protocol entirely — and long enough (> one FrameHeader) that the
  // decoder sees a full header rather than waiting for more bytes.
  const char garbage[] =
      "GET / HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n";
  ASSERT_GT(send(fd->get(), garbage, sizeof(garbage) - 1, MSG_NOSIGNAL), 0);
  char buf[64];
  EXPECT_EQ(recv(fd->get(), buf, sizeof(buf), 0), 0);
  for (int i = 0; i < 100 && fx.server->stats().protocol_errors == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(fx.server->stats().protocol_errors, 1u);
}

TEST(NetServerTest, OversizedFrameIsRefusedFromTheHeader) {
  ServerConfig config;
  config.limits.max_frame_bytes = 4096;
  ServerFixture fx(config, /*books=*/10);
  auto fd = ConnectTcp("127.0.0.1", fx.server->port(), 1'000'000,
                       5'000'000);
  ASSERT_TRUE(fd.ok());
  // Claim an 8 MiB payload; send only the header. The server must reject
  // from the length field alone instead of waiting for bytes.
  std::string frame = EncodeFrame(FrameType::kQuery, 1, "q");
  const uint32_t lie = 8u << 20;
  std::memcpy(frame.data() + 16, &lie, sizeof(lie));
  ASSERT_EQ(send(fd->get(), frame.data(), sizeof(net::FrameHeader),
                 MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(net::FrameHeader)));
  char buf[16];
  EXPECT_EQ(recv(fd->get(), buf, sizeof(buf), 0), 0);
}

TEST(NetServerTest, WriteFaultDuringPipelinedDispatchClosesCleanly) {
  // Regression: a write fault while responding used to destroy the Conn
  // from inside QueueResponse while the frame-dispatch loop still held a
  // pointer to it (use-after-free under ASan). Two pings arrive in one
  // segment; the first response's flush hits the armed fault, so the close
  // happens with the second frame still queued in the input buffer.
  ServerFixture fx(ServerConfig{}, /*books=*/10);
  auto fd = ConnectTcp("127.0.0.1", fx.server->port(), 1'000'000,
                       5'000'000);
  ASSERT_TRUE(fd.ok());
  const std::string bytes = EncodeFrame(FrameType::kPing, 1, "") +
                            EncodeFrame(FrameType::kPing, 2, "");
  FaultInjector::Instance().Arm("net.write", /*skip=*/0, /*count=*/1);
  ASSERT_EQ(send(fd->get(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  // The server must close us (no response ever flushed).
  char buf[64];
  EXPECT_LE(recv(fd->get(), buf, sizeof(buf), 0), 0);
  FaultInjector::Instance().Reset();
  for (int i = 0; i < 100 && fx.server->stats().write_faults == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fx.server->stats().write_faults, 1u);
  // The server survived: a fresh client gets a real answer.
  auto probe = fx.Connect();
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  auto pong = probe->Ping();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->code, StatusCode::kOk);
}

TEST(NetServerTest, OversizedResponseBodyBecomesStatusError) {
  // A result body over the server's response cap must come back as a
  // decodable status response — not a frame the client's decode cap
  // rejects as stream corruption.
  ServerConfig config;
  config.max_response_bytes = 1024;
  ServerFixture fx(config);  // 120 books: //book serializes far past 1 KiB
  auto client = fx.Connect();
  ASSERT_TRUE(client.ok());
  auto result = client->Query("doc(\"bib.xml\")//book");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->code, StatusCode::kResourceExhausted);
  EXPECT_NE(result->body.find("too large"), std::string::npos)
      << result->body;
  // Not an overload: no retry-after hint, so clients do not resubmit.
  EXPECT_EQ(result->retry_after_micros, 0u);
  // The connection is still healthy afterwards.
  auto pong = client->Ping();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->code, StatusCode::kOk);
}

// ---------------------------------------------------------------------------
// Graceful drain

TEST(NetServerTest, DrainUnderLoadLosesNoResponses) {
  ServerConfig config;
  config.workers = 4;
  config.drain_deadline_micros = 2'000'000;
  ServerFixture fx(config);
  constexpr int kThreads = 4;
  std::atomic<uint64_t> responses{0}, overloads{0}, conn_errors{0},
      requests{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::atomic<bool> stop{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(t);
      auto client = fx.Connect();
      while (!stop.load(std::memory_order_acquire)) {
        if (!client.ok()) {
          // Draining server refuses connects: a clean connection error.
          ++conn_errors;
          ++requests;
          break;
        }
        const net::CallResult call = client->QueryWithRetry(
            "doc(\"bib.xml\")//book/title", RetryPolicy{.max_attempts = 2},
            &rng);
        ++requests;
        switch (call.outcome) {
          case CallOutcome::kResponse: ++responses; break;
          case CallOutcome::kOverload: ++overloads; break;
          case CallOutcome::kConnectionError: ++conn_errors; return;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  fx.server->RequestDrain();
  const Status status = fx.server->Wait();
  EXPECT_TRUE(status.ok()) << status.ToString();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  // The trichotomy: every request ended in exactly one bucket, none hung.
  EXPECT_EQ(requests.load(),
            responses.load() + overloads.load() + conn_errors.load());
  EXPECT_GT(responses.load(), 0u);
}

TEST(NetServerTest, DrainCancelsInflightPastDeadlineButStillResponds) {
  ServerConfig config;
  config.drain_deadline_micros = 200'000;  // far shorter than kSlowQuery
  ServerFixture fx(config);
  auto client = fx.Connect();
  ASSERT_TRUE(client.ok());
  auto query_id = client->SendQuery(kSlowQuery);
  ASSERT_TRUE(query_id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  fx.server->RequestDrain();
  // Even though the drain cancels the query, its kCancelled response is
  // flushed before the connection closes: admitted work is never dropped
  // silently.
  auto response = client->ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->first, *query_id);
  EXPECT_EQ(response->second.code, StatusCode::kCancelled);
  const Status status = fx.server->Wait();
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(fx.server->stats().drain_cancelled, 1u);
}

TEST(NetServerTest, ConcurrentWaitersAllBlockUntilThreadsAreJoined) {
  ServerFixture fx(ServerConfig{}, /*books=*/10);
  constexpr int kWaiters = 4;
  std::atomic<int> returned{0};
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      const Status status = fx.server->Wait();
      EXPECT_TRUE(status.ok()) << status.ToString();
      ++returned;
    });
  }
  // Nobody may return while the server is still serving — a second caller
  // racing the first's join must block, not bail out early.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(returned.load(), 0);
  fx.server->RequestDrain();
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(returned.load(), kWaiters);
}

TEST(NetServerTest, DestructorForceDrainsWithoutWaitingOutTheDeadline) {
  auto fx = std::make_unique<ServerFixture>();  // default 5 s drain budget
  auto client = fx->Connect();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->SendQuery(kSlowQuery).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto start = std::chrono::steady_clock::now();
  // ~Server drains with a zero deadline: the multi-second query is
  // cancelled immediately instead of getting the configured 5 s grace.
  fx.reset();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(3))
      << "destructor waited out the graceful drain deadline";
}

// ---------------------------------------------------------------------------
// Chaos matrix

/// The acceptance gate: every net.* fault site armed (periodically
/// re-armed so faults keep firing), torn-frame and garbage-byte injection
/// running, 8 concurrent retrying clients — and still: no crash, every
/// request ends in exactly one outcome bucket, the server drains cleanly,
/// and not one fd leaks.
TEST(NetChaosTest, FaultMatrixNoCrashNoFdLeakNoStuckConnection) {
  const int fds_before = CountOpenFds();
  ASSERT_GT(fds_before, 0);
  {
    ServerConfig config;
    config.workers = 4;
    config.limits.idle_timeout_micros = 2'000'000;
    config.limits.read_deadline_micros = 500'000;
    config.limits.write_deadline_micros = 500'000;
    config.drain_deadline_micros = 2'000'000;
    ServerFixture fx(config, /*books=*/30);
    fx.db.SetAdmission({.max_concurrent = 2, .max_queue = 2,
                        .queue_deadline_micros = 5'000});

    std::atomic<bool> stop{false};
    // Chaos driver: keeps all four sites armed with rotating skip/count so
    // faults land intermittently on every socket operation class.
    std::thread chaos([&] {
      std::mt19937_64 rng(99);
      const char* sites[] = {"net.accept", "net.read", "net.write",
                             "net.frame.decode"};
      while (!stop.load(std::memory_order_acquire)) {
        for (const char* site : sites) {
          FaultInjector::Instance().Arm(site, /*skip=*/rng() % 24,
                                        /*count=*/1 + rng() % 2);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      FaultInjector::Instance().Reset();
    });
    // Torn-frame injector: connects, sends partial frames / garbage /
    // short writes, disconnects mid-frame.
    std::thread torn([&] {
      std::mt19937_64 rng(7);
      while (!stop.load(std::memory_order_acquire)) {
        auto fd = ConnectTcp("127.0.0.1", fx.server->port(), 200'000,
                             200'000);
        if (fd.ok()) {
          std::string bytes =
              EncodeFrame(FrameType::kQuery, rng(),
                          "doc(\"bib.xml\")//book/title");
          switch (rng() % 3) {
            case 0:  // torn frame: a strict prefix, then close
              bytes.resize(rng() % bytes.size());
              break;
            case 1:  // garbage bytes
              for (char& c : bytes) c = static_cast<char>(rng());
              break;
            case 2:  // valid frame followed by a torn second one
              bytes += bytes.substr(0, 1 + rng() % 20);
              break;
          }
          (void)send(fd->get(), bytes.data(), bytes.size(), MSG_NOSIGNAL);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });

    constexpr int kClients = 8;
    constexpr int kRequestsPerClient = 250;
    std::atomic<uint64_t> responses{0}, overloads{0}, conn_errors{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::mt19937_64 rng(c * 31 + 1);
        ClientConfig client_config;
        client_config.connect_timeout_micros = 500'000;
        client_config.io_timeout_micros = 5'000'000;
        auto client = fx.Connect(client_config);
        for (int i = 0; i < kRequestsPerClient; ++i) {
          if (!client.ok()) {
            ++conn_errors;
            client = fx.Connect(client_config);
            continue;
          }
          const net::CallResult call = client->QueryWithRetry(
              "doc(\"bib.xml\")//book/title",
              RetryPolicy{.max_attempts = 3}, &rng);
          switch (call.outcome) {
            case CallOutcome::kResponse: ++responses; break;
            case CallOutcome::kOverload: ++overloads; break;
            case CallOutcome::kConnectionError:
              ++conn_errors;
              client = fx.Connect(client_config);
              break;
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    stop.store(true, std::memory_order_release);
    chaos.join();
    torn.join();
    FaultInjector::Instance().Reset();

    // Exactly one outcome per request, for every request.
    EXPECT_EQ(responses.load() + overloads.load() + conn_errors.load(),
              static_cast<uint64_t>(kClients) * kRequestsPerClient);
    EXPECT_GT(responses.load(), 0u) << "chaos starved every client";
    // The chaos actually landed: at least one injected fault or hostile
    // frame hit the server (otherwise this test proves nothing).
    const net::ServerStats mid = fx.server->stats();
    EXPECT_GT(mid.accept_faults + mid.read_faults + mid.write_faults +
                  mid.protocol_errors + mid.evicted_read_deadline,
              0u)
        << mid.ToString();
    // The server is not stuck: a fresh client gets a real answer.
    auto probe = fx.Connect();
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
    std::mt19937_64 rng(123);
    const net::CallResult call = probe->QueryWithRetry(
        "doc(\"bib.xml\")//book/title", RetryPolicy{.max_attempts = 50},
        &rng);
    EXPECT_EQ(call.outcome, CallOutcome::kResponse)
        << call.transport_error.ToString();
    const Status status = fx.server->Shutdown();
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  // Everything closed: sockets, epoll, eventfd, every accepted conn.
  const int fds_after = CountOpenFds();
  EXPECT_EQ(fds_before, fds_after) << "fd leak";
}

}  // namespace
}  // namespace xmlq
