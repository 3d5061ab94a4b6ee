// Replication & follower serving (DESIGN.md §13): payload codecs against
// hostile bytes, the staleness gate, follower read-only enforcement, full
// primary->follower convergence proven by the shared 74-query oracle, live
// catch-up and census-driven removal, the interleaved-frame client demux,
// a chaos matrix over every repl.* and net.* fault site (convergence once
// faults clear, zero fd leaks), divergence quarantine (degrade, never
// drop), and a fork+kill-point crash matrix over ApplyReplicated asserting
// every crash recovers to exactly the old or exactly the new generation.
//
// Coordinated failover (DESIGN.md §14): epoch persistence and compaction
// survival, promotion with its own fork+kill-point matrix, the split-brain
// fence at the subscribe ack, at mid-stream frames and on the server side,
// auto-demotion of a stale primary back into a converged follower, the
// structured follower write refusal, backoff reset only after an applied
// shipment, and self-healing quarantine recovery (both the divergence path
// and the scrubber path).
//
// All temp paths are relative, so they land under the build tree.

#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "oracle_queries.h"
#include "xmlq/api/database.h"
#include "xmlq/base/fault_injector.h"
#include "xmlq/base/file_io.h"
#include "xmlq/datagen/auction_gen.h"
#include "xmlq/datagen/bib_gen.h"
#include "xmlq/exec/admission.h"
#include "xmlq/net/client.h"
#include "xmlq/net/protocol.h"
#include "xmlq/net/server.h"
#include "xmlq/repl/replication.h"
#include "xmlq/storage/manifest.h"
#include "xmlq/xml/serializer.h"

namespace xmlq {
namespace {

using api::Database;
using repl::ReplicationClient;
using repl::ReplicationConfig;
using repl::ReplicationStats;
using storage::ManifestOp;
using storage::ManifestRecord;
using storage::SnapshotOpenMode;

// ctest runs every test as its own concurrent process in a shared working
// directory, so temp paths carry the pid to keep concurrently running tests
// out of each other's stores.
class TempDir {
 public:
  explicit TempDir(const std::string& prefix)
      : path_(prefix + "." + std::to_string(::getpid())) {
    std::filesystem::remove_all(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::unique_ptr<xml::Document> MakeBib(size_t books) {
  datagen::BibOptions options;
  options.num_books = books;
  return datagen::GenerateBibliography(options);
}

std::unique_ptr<xml::Document> MakeAuction() {
  datagen::AuctionOptions options;
  options.scale = 0.06;
  options.seed = 11;
  return datagen::GenerateAuctionSite(options);
}

std::string DocImage(const Database& db, const std::string& name) {
  const exec::IndexedDocument* doc = db.Get(name);
  return doc == nullptr ? std::string() : xml::Serialize(*doc->dom);
}

size_t OpenFdCount() {
  size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

/// Polls `predicate` until true or the deadline passes.
bool WaitFor(const std::function<bool()>& predicate,
             uint64_t deadline_millis = 20'000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_millis);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return predicate();
}

ReplicationConfig FastReplConfig(uint16_t port, std::string store_dir) {
  ReplicationConfig config;
  config.host = "127.0.0.1";
  config.port = port;
  config.store_dir = std::move(store_dir);
  config.base_backoff_micros = 5'000;
  config.max_backoff_micros = 100'000;
  config.client.io_timeout_micros = 2'000'000;
  return config;
}

net::ServerConfig FastServerConfig() {
  net::ServerConfig config;
  config.port = 0;  // ephemeral
  config.workers = 2;
  config.repl_heartbeat_micros = 50'000;
  return config;
}

// ---------------------------------------------------------------------------
// Payload codecs: round-trips and hostile bytes

TEST(ReplCodecTest, SubscribeRoundTripAndHostile) {
  net::ReplSubscribePayload subscribe;
  subscribe.from_generation = 42;
  subscribe.epoch = 7;
  subscribe.refetch_generation = 9;
  const std::string wire = net::EncodeReplSubscribe(subscribe);
  ASSERT_EQ(wire.size(), 24u);  // three u64s, nothing else
  net::ReplSubscribePayload out;
  ASSERT_TRUE(net::DecodeReplSubscribe(wire, &out));
  EXPECT_EQ(out.from_generation, 42u);
  EXPECT_EQ(out.epoch, 7u);
  EXPECT_EQ(out.refetch_generation, 9u);
  EXPECT_FALSE(net::DecodeReplSubscribe("", &out));
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(net::DecodeReplSubscribe(wire.substr(0, len), &out))
        << "accepted truncation at " << len;
  }
  EXPECT_FALSE(net::DecodeReplSubscribe(wire + "x", &out));  // trailing
}

TEST(ReplCodecTest, RecordRoundTripAndHostile) {
  net::ReplRecordPayload record;
  record.op = static_cast<uint32_t>(ManifestOp::kRegister);
  record.generation = 7;
  record.snapshot_size = 1234;
  record.snapshot_crc = 0xDEADBEEF;
  record.epoch = 3;
  record.name = "auction.xml";
  record.file = "auction.xml.g7.xqpack";
  const std::string wire = net::EncodeReplRecord(record);
  net::ReplRecordPayload out;
  ASSERT_TRUE(net::DecodeReplRecord(wire, &out));
  EXPECT_EQ(out.op, record.op);
  EXPECT_EQ(out.generation, 7u);
  EXPECT_EQ(out.snapshot_size, 1234u);
  EXPECT_EQ(out.snapshot_crc, 0xDEADBEEFu);
  EXPECT_EQ(out.epoch, 3u);
  EXPECT_EQ(out.name, record.name);
  EXPECT_EQ(out.file, record.file);
  // Hostile: truncation anywhere in the fixed fields or the name must be
  // rejected, never over-read. (The file field is the payload remainder by
  // design — truncating it yields a *shorter file name*, which the apply
  // path's ".xqpack" validation rejects; see HostileRecordsRejected.)
  const size_t kFixedAndName = 36 + record.name.size();
  for (size_t len = 0; len < kFixedAndName; ++len) {
    EXPECT_FALSE(net::DecodeReplRecord(wire.substr(0, len), &out))
        << "accepted truncation at " << len;
  }
  ASSERT_TRUE(net::DecodeReplRecord(wire.substr(0, kFixedAndName), &out));
  EXPECT_TRUE(out.file.empty());
}

TEST(ReplCodecTest, ChunkRoundTripAndHostile) {
  net::ReplChunkPayload chunk;
  chunk.generation = 9;
  chunk.offset = 100;
  chunk.total_size = 200;
  chunk.epoch = 5;
  chunk.bytes = std::string(50, 'x');
  const std::string wire = net::EncodeReplChunk(chunk);
  net::ReplChunkPayload out;
  ASSERT_TRUE(net::DecodeReplChunk(wire, &out));
  EXPECT_EQ(out.generation, 9u);
  EXPECT_EQ(out.offset, 100u);
  EXPECT_EQ(out.total_size, 200u);
  EXPECT_EQ(out.epoch, 5u);
  EXPECT_EQ(out.bytes, chunk.bytes);
  // offset past total_size.
  chunk.offset = 300;
  EXPECT_FALSE(net::DecodeReplChunk(net::EncodeReplChunk(chunk), &out));
  // bytes overrunning total_size.
  chunk.offset = 180;
  EXPECT_FALSE(net::DecodeReplChunk(net::EncodeReplChunk(chunk), &out));
  for (size_t len = 0; len < 32; ++len) {
    EXPECT_FALSE(net::DecodeReplChunk(wire.substr(0, len), &out));
  }
}

TEST(ReplCodecTest, HeartbeatRoundTripAndHostile) {
  net::ReplHeartbeatPayload heartbeat;
  heartbeat.epoch = 2;
  heartbeat.max_generation = 31;
  heartbeat.live.push_back({"a.xml", 30});
  heartbeat.live.push_back({"b.xml", 31});
  const std::string wire = net::EncodeReplHeartbeat(heartbeat);
  net::ReplHeartbeatPayload out;
  ASSERT_TRUE(net::DecodeReplHeartbeat(wire, &out));
  EXPECT_EQ(out.epoch, 2u);
  EXPECT_EQ(out.max_generation, 31u);
  ASSERT_EQ(out.live.size(), 2u);
  EXPECT_EQ(out.live[0].name, "a.xml");
  EXPECT_EQ(out.live[0].generation, 30u);
  EXPECT_EQ(out.live[1].name, "b.xml");
  EXPECT_EQ(out.live[1].generation, 31u);
  // Empty census is legal (an empty store heartbeats too).
  net::ReplHeartbeatPayload empty;
  empty.max_generation = 0;
  ASSERT_TRUE(net::DecodeReplHeartbeat(net::EncodeReplHeartbeat(empty), &out));
  EXPECT_TRUE(out.live.empty());
  // Hostile: truncations and a census count far beyond the payload (the
  // classic pre-allocation bomb) must be rejected before any allocation.
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(net::DecodeReplHeartbeat(wire.substr(0, len), &out))
        << "accepted truncation at " << len;
  }
  std::string bomb = wire.substr(0, 16);  // [u64 epoch][u64 max_generation]
  bomb += std::string("\xff\xff\xff\xff", 4);  // live_count = 2^32-1
  EXPECT_FALSE(net::DecodeReplHeartbeat(bomb, &out));
}

// ---------------------------------------------------------------------------
// Staleness gate

TEST(StalenessGateTest, UnboundedPolicyAdmitsHoweverStale) {
  exec::StalenessGate gate;  // default policy: no bounds
  EXPECT_TRUE(gate.Admit().ok());  // no heartbeat ever — still serves
  gate.Publish(/*generation_lag=*/1'000'000, /*heartbeat_micros=*/1);
  EXPECT_TRUE(gate.Admit().ok());
}

TEST(StalenessGateTest, GenerationLagBoundShedsWithRetryHint) {
  exec::StalenessGate gate;
  gate.Configure({/*max_generation_lag=*/2, /*max_heartbeat_age_micros=*/0});
  gate.Publish(2, 0);
  EXPECT_TRUE(gate.Admit().ok());
  gate.Publish(3, 0);
  const Status status = gate.Admit();
  ASSERT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(exec::RetryAfterMicrosFromStatus(status), 0u);
}

TEST(StalenessGateTest, HeartbeatAgeBoundSheds) {
  exec::StalenessGate gate;
  gate.Configure({0, /*max_heartbeat_age_micros=*/50'000'000});
  // No heartbeat yet: age is unknown (UINT64_MAX), must shed.
  EXPECT_EQ(gate.Admit().code(), StatusCode::kResourceExhausted);
  gate.Publish(0, std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
  EXPECT_TRUE(gate.Admit().ok());
  EXPECT_LT(gate.HeartbeatAgeMicros(), 50'000'000u);
}

TEST(StalenessGateTest, DatabaseRunChecksInstalledGate) {
  Database db;
  ASSERT_TRUE(db.RegisterDocument("bib.xml", MakeBib(3)).ok());
  auto gate = std::make_shared<exec::StalenessGate>();
  gate->Configure({/*max_generation_lag=*/1, 0});
  gate->Publish(/*generation_lag=*/5, 0);
  db.SetReadGate(gate);
  auto shed = db.QueryPath("//book/title");
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  gate->Publish(0, 0);
  EXPECT_TRUE(db.QueryPath("//book/title").ok());
  db.SetReadGate(nullptr);
  gate->Publish(5, 0);
  EXPECT_TRUE(db.QueryPath("//book/title").ok());
}

// ---------------------------------------------------------------------------
// Follower mode is read-only

TEST(FollowerModeTest, PersistAndRemoveRefuse) {
  TempDir dir("repl_follower_ro_store");
  Database db;
  ASSERT_TRUE(db.Attach(dir.path()).ok());
  ASSERT_TRUE(db.RegisterDocument("bib.xml", MakeBib(3)).ok());
  db.SetFollower(true);
  EXPECT_EQ(db.Persist("bib.xml").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db.Remove("bib.xml").code(), StatusCode::kInvalidArgument);
  // Queries still serve.
  EXPECT_TRUE(db.QueryPath("//book/title").ok());
  db.SetFollower(false);
  EXPECT_TRUE(db.Persist("bib.xml").ok());
}

// ---------------------------------------------------------------------------
// End-to-end: primary server + follower client

class ReplEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Instance().Reset();
    primary_dir_ = std::make_unique<TempDir>("repl_primary_store");
    follower_dir_ = std::make_unique<TempDir>("repl_follower_store");
    primary_db_ = std::make_unique<Database>();
    ASSERT_TRUE(primary_db_->Attach(primary_dir_->path()).ok());
    StartServer();
  }

  void TearDown() override {
    if (follower_ != nullptr) follower_->Stop();
    follower_.reset();
    follower_db_.reset();
    if (server_ != nullptr) (void)server_->Shutdown();
    server_.reset();
    primary_db_.reset();
    FaultInjector::Instance().Reset();
  }

  void StartServer() {
    net::ServerConfig config = FastServerConfig();
    config.port = port_;  // 0 on first start; the bound port on restarts
    server_ = std::make_unique<net::Server>(primary_db_.get(), config);
    ASSERT_TRUE(server_->Start().ok());
    port_ = server_->port();
  }

  void StartFollower(ReplicationConfig config) {
    follower_db_ = std::make_unique<Database>();
    follower_ = std::make_unique<ReplicationClient>(follower_db_.get(),
                                                    std::move(config));
    ASSERT_TRUE(follower_->Start().ok());
  }
  void StartFollower() {
    StartFollower(FastReplConfig(port_, follower_dir_->path()));
  }

  uint64_t PrimaryGeneration() {
    auto delta = primary_db_->ReplDeltaFrom(0);
    return delta.ok() ? delta->max_generation : 0;
  }

  /// True once the follower has applied everything the primary has.
  bool Converged() {
    return follower_->stats().cursor == PrimaryGeneration();
  }

  std::unique_ptr<TempDir> primary_dir_;
  std::unique_ptr<TempDir> follower_dir_;
  std::unique_ptr<Database> primary_db_;
  std::unique_ptr<Database> follower_db_;
  std::unique_ptr<net::Server> server_;
  std::unique_ptr<ReplicationClient> follower_;
  uint16_t port_ = 0;
};

TEST_F(ReplEndToEndTest, FollowerConvergesAndServesOracleByteIdentically) {
  ASSERT_TRUE(primary_db_->RegisterDocument("auction.xml", MakeAuction()).ok());
  ASSERT_TRUE(primary_db_->Persist("auction.xml").ok());
  ASSERT_TRUE(primary_db_->RegisterDocument("bib.xml", MakeBib(20)).ok());
  ASSERT_TRUE(primary_db_->Persist("bib.xml").ok());

  StartFollower();
  ASSERT_TRUE(WaitFor([&] { return Converged(); }))
      << follower_->stats().ToString();

  // The acceptance oracle: all 74 shared queries, byte-identical.
  for (const char* path : tests::kAuctionXPaths) {
    auto want = primary_db_->QueryPath(path, "auction.xml");
    auto got = follower_db_->QueryPath(path, "auction.xml");
    ASSERT_TRUE(want.ok()) << path;
    ASSERT_TRUE(got.ok()) << path << ": " << got.status().ToString();
    EXPECT_EQ(Database::ToXml(*got), Database::ToXml(*want)) << path;
  }
  for (const char* path : tests::kRandomTreeXPaths) {
    // The random-tree vocabulary never matches the auction document; both
    // sides must agree on the empty result too.
    auto want = primary_db_->QueryPath(path, "auction.xml");
    auto got = follower_db_->QueryPath(path, "auction.xml");
    ASSERT_TRUE(want.ok()) << path;
    ASSERT_TRUE(got.ok()) << path;
    EXPECT_EQ(Database::ToXml(*got), Database::ToXml(*want)) << path;
  }
  std::vector<const char*> queries(std::begin(tests::kAuctionXQueries),
                                   std::end(tests::kAuctionXQueries));
  for (const tests::FlworPredicatePair& pair : tests::kFlworPredicatePairs) {
    queries.push_back(pair.flwor);
    queries.push_back(pair.predicate);
  }
  for (const char* query : queries) {
    auto want = primary_db_->Query(query);
    auto got = follower_db_->Query(query);
    ASSERT_TRUE(want.ok()) << query;
    ASSERT_TRUE(got.ok()) << query << ": " << got.status().ToString();
    EXPECT_EQ(Database::ToXml(*got), Database::ToXml(*want)) << query;
  }

  const ReplicationStats stats = follower_->stats();
  EXPECT_TRUE(stats.connected);
  EXPECT_EQ(stats.records_applied, 2u);
  EXPECT_EQ(stats.generation_lag, 0u);
  EXPECT_LT(stats.heartbeat_age_micros, 10'000'000u);
}

TEST_F(ReplEndToEndTest, LiveCatchUpReplaceAndCensusRemoval) {
  ASSERT_TRUE(primary_db_->RegisterDocument("bib.xml", MakeBib(5)).ok());
  ASSERT_TRUE(primary_db_->Persist("bib.xml").ok());
  StartFollower();
  ASSERT_TRUE(WaitFor([&] { return Converged(); }));
  EXPECT_EQ(DocImage(*follower_db_, "bib.xml"),
            DocImage(*primary_db_, "bib.xml"));

  // Live catch-up: a new document persisted while the follower streams.
  ASSERT_TRUE(primary_db_->RegisterDocument("more.xml", MakeBib(9)).ok());
  ASSERT_TRUE(primary_db_->Persist("more.xml").ok());
  ASSERT_TRUE(WaitFor([&] {
    return Converged() && follower_db_->Contains("more.xml");
  })) << follower_->stats().ToString();
  EXPECT_EQ(DocImage(*follower_db_, "more.xml"),
            DocImage(*primary_db_, "more.xml"));

  // Replace: a higher generation of an existing document.
  ASSERT_TRUE(primary_db_->RegisterDocument("bib.xml", MakeBib(12)).ok());
  ASSERT_TRUE(primary_db_->Persist("bib.xml").ok());
  ASSERT_TRUE(WaitFor([&] {
    return Converged() && DocImage(*follower_db_, "bib.xml") ==
                              DocImage(*primary_db_, "bib.xml");
  })) << follower_->stats().ToString();

  // Removal propagates through the heartbeat census (its journal record
  // may never ship).
  ASSERT_TRUE(primary_db_->Remove("more.xml").ok());
  ASSERT_TRUE(WaitFor([&] { return !follower_db_->Contains("more.xml"); }))
      << follower_->stats().ToString();
  EXPECT_GE(follower_->stats().removes_applied, 1u);
  // The survivor still serves.
  EXPECT_EQ(DocImage(*follower_db_, "bib.xml"),
            DocImage(*primary_db_, "bib.xml"));
}

TEST_F(ReplEndToEndTest, FollowerServesThroughPrimaryDeathAndReconnects) {
  ASSERT_TRUE(primary_db_->RegisterDocument("bib.xml", MakeBib(7)).ok());
  ASSERT_TRUE(primary_db_->Persist("bib.xml").ok());
  StartFollower();
  ASSERT_TRUE(WaitFor([&] { return Converged(); }));
  const std::string image = DocImage(*follower_db_, "bib.xml");
  ASSERT_FALSE(image.empty());

  // Primary dies. The follower must keep serving the same bytes and report
  // growing staleness, not fail.
  ASSERT_TRUE(server_->Shutdown().ok());
  server_.reset();
  ASSERT_TRUE(WaitFor([&] { return !follower_->stats().connected; }));
  EXPECT_EQ(DocImage(*follower_db_, "bib.xml"), image);
  EXPECT_TRUE(follower_db_->QueryPath("//book/title", "bib.xml").ok());
  const uint64_t age1 = follower_->stats().heartbeat_age_micros;
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_GT(follower_->stats().heartbeat_age_micros, age1);

  // Primary returns (same port) with more data; the follower catches up
  // from its durable cursor without operator intervention.
  ASSERT_TRUE(primary_db_->RegisterDocument("late.xml", MakeBib(4)).ok());
  ASSERT_TRUE(primary_db_->Persist("late.xml").ok());
  StartServer();
  ASSERT_TRUE(WaitFor([&] {
    return follower_->stats().connected && Converged() &&
           follower_db_->Contains("late.xml");
  })) << follower_->stats().ToString();
  EXPECT_EQ(DocImage(*follower_db_, "late.xml"),
            DocImage(*primary_db_, "late.xml"));
  EXPECT_GE(follower_->stats().reconnects, 1u);
}

// The satellite regression: one connection carrying pipelined query
// responses AND the replication stream must demux by frame type — a
// heartbeat arriving before a response must not be mis-delivered as one.
TEST_F(ReplEndToEndTest, ClientDemuxesInterleavedResponseAndReplFrames) {
  ASSERT_TRUE(primary_db_->RegisterDocument("bib.xml", MakeBib(3)).ok());
  ASSERT_TRUE(primary_db_->Persist("bib.xml").ok());

  auto client = net::Client::Connect("127.0.0.1", port_);
  ASSERT_TRUE(client.ok());
  auto ack = client->Subscribe(0);
  ASSERT_TRUE(ack.ok());
  ASSERT_EQ(ack->code, StatusCode::kOk) << ack->body;

  // Let the stream frames (record + chunks + heartbeats) pile up first.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // A query issued now gets its response *behind* buffered stream frames;
  // ReadResponse must skip past them without losing either kind.
  auto request_id = client->SendQuery("//book/title");
  ASSERT_TRUE(request_id.ok());
  auto response = client->ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->first, *request_id);
  EXPECT_EQ(response->second.code, StatusCode::kOk);
  EXPECT_NE(response->second.body.find("<title>"), std::string::npos);

  // The stashed stream frames come out of ReadReplFrame, starting with the
  // shipment announcement, in order.
  auto first = client->ReadReplFrame();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->type, net::FrameType::kReplRecord);
  bool saw_heartbeat = false;
  for (int i = 0; i < 10 && !saw_heartbeat; ++i) {
    auto frame = client->ReadReplFrame();
    ASSERT_TRUE(frame.ok());
    saw_heartbeat = frame->type == net::FrameType::kReplHeartbeat;
  }
  EXPECT_TRUE(saw_heartbeat);

  // And the connection still answers queries afterwards.
  auto again = client->Query("//book/title");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->code, StatusCode::kOk);
}

// ---------------------------------------------------------------------------
// Chaos: every repl.* and net.* fault, torn shipments, convergence after

TEST_F(ReplEndToEndTest, ChaosFaultsEventuallyConvergeWithoutFdLeaks) {
  ASSERT_TRUE(primary_db_->RegisterDocument("auction.xml", MakeAuction()).ok());
  ASSERT_TRUE(primary_db_->Persist("auction.xml").ok());
  ASSERT_TRUE(primary_db_->RegisterDocument("bib.xml", MakeBib(15)).ok());
  ASSERT_TRUE(primary_db_->Persist("bib.xml").ok());

  const size_t fds_before = OpenFdCount();

  // Every fault site on both halves, re-armed with finite counts so the
  // system must ride through repeated failures and then converge:
  //  - repl.ship.read / repl.ship.send: primary drops the subscriber
  //    mid-ship (torn shipment on the wire);
  //  - net.read / net.write: the serving tier's own link faults;
  //  - repl.apply.chunk: shipped bytes corrupted in flight — the CRC gate
  //    must reject the apply (count kept under max_apply_attempts so the
  //    re-ship eventually lands; the quarantine path has its own test).
  FaultInjector::Instance().Arm("repl.ship.read", /*skip=*/1, /*count=*/2);
  FaultInjector::Instance().Arm("repl.ship.send", /*skip=*/2, /*count=*/2);
  FaultInjector::Instance().Arm("net.write", /*skip=*/5, /*count=*/2);
  FaultInjector::Instance().Arm("net.read", /*skip=*/3, /*count=*/1);
  FaultInjector::Instance().Arm("repl.apply.chunk", /*skip=*/1, /*count=*/2);

  StartFollower();

  // While the link is being tortured, keep the primary moving.
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(
        primary_db_->RegisterDocument("churn.xml", MakeBib(3 + round)).ok());
    ASSERT_TRUE(primary_db_->Persist("churn.xml").ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Once the armed counts are exhausted the stream must converge.
  ASSERT_TRUE(WaitFor([&] { return Converged(); }, 30'000))
      << follower_->stats().ToString();
  FaultInjector::Instance().Reset();

  for (const char* name : {"auction.xml", "bib.xml", "churn.xml"}) {
    EXPECT_EQ(DocImage(*follower_db_, name), DocImage(*primary_db_, name))
        << name;
  }
  // No torn state: the follower's store re-attaches cleanly to the same
  // catalog (proof the journal holds only committed generations).
  follower_->Stop();
  const std::string churn_image = DocImage(*follower_db_, "churn.xml");
  follower_db_.reset();
  Database reattached;
  auto report = reattached.Attach(follower_dir_->path());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->quarantined.empty()) << report->ToString();
  EXPECT_EQ(DocImage(reattached, "churn.xml"), churn_image);

  // Zero fd leaks across connects, faults, reconnects and shutdowns.
  follower_.reset();
  ASSERT_TRUE(server_->Shutdown().ok());
  server_.reset();
  const size_t fds_after = OpenFdCount();
  EXPECT_LE(fds_after, fds_before) << "fd leak: " << fds_before << " -> "
                                   << fds_after;
}

// Divergence: a shipment that keeps failing verification is quarantined —
// the follower keeps serving the previous generation and picks up the next
// clean one. Degrade, never drop.
TEST_F(ReplEndToEndTest, PersistentCorruptionQuarantinesGenerationKeepsOld) {
  ASSERT_TRUE(primary_db_->RegisterDocument("bib.xml", MakeBib(5)).ok());
  ASSERT_TRUE(primary_db_->Persist("bib.xml").ok());
  StartFollower();
  ASSERT_TRUE(WaitFor([&] { return Converged(); }));
  const std::string v1 = DocImage(*follower_db_, "bib.xml");

  // Every shipped chunk corrupts from here on: v2 can never verify.
  FaultInjector::Instance().Arm("repl.apply.chunk");
  ASSERT_TRUE(primary_db_->RegisterDocument("bib.xml", MakeBib(25)).ok());
  ASSERT_TRUE(primary_db_->Persist("bib.xml").ok());
  ASSERT_TRUE(WaitFor([&] {
    return follower_->stats().divergence_quarantines >= 1;
  })) << follower_->stats().ToString();

  // Quarantined generation: cursor moved past it, previous keeps serving.
  EXPECT_TRUE(WaitFor([&] { return Converged(); }));
  EXPECT_EQ(DocImage(*follower_db_, "bib.xml"), v1);
  EXPECT_TRUE(follower_db_->QueryPath("//book/title", "bib.xml").ok());

  // Corruption clears; the next generation ships clean and replaces v1.
  FaultInjector::Instance().Reset();
  ASSERT_TRUE(primary_db_->RegisterDocument("bib.xml", MakeBib(40)).ok());
  ASSERT_TRUE(primary_db_->Persist("bib.xml").ok());
  ASSERT_TRUE(WaitFor([&] {
    return Converged() && DocImage(*follower_db_, "bib.xml") ==
                              DocImage(*primary_db_, "bib.xml");
  })) << follower_->stats().ToString();
  EXPECT_NE(DocImage(*follower_db_, "bib.xml"), v1);
}

// ---------------------------------------------------------------------------
// Crash matrix: fork a child, kill it at every ApplyReplicated write
// boundary, assert recovery yields exactly the old or exactly the new
// generation — never a torn hybrid — and that the orphan sweep leaves no
// stray files.

struct Shipment {
  ManifestRecord record;
  std::string bytes;
};

/// Builds a primary store holding one persisted bib of `books` books and
/// returns its shipment (the manifest record + snapshot bytes a follower
/// would receive).
Shipment BuildShipment(const std::string& dir, size_t books) {
  Database db;
  EXPECT_TRUE(db.Attach(dir).ok());
  EXPECT_TRUE(db.RegisterDocument("bib.xml", MakeBib(books)).ok());
  EXPECT_TRUE(db.Persist("bib.xml").ok());
  auto delta = db.ReplDeltaFrom(0);
  EXPECT_TRUE(delta.ok());
  EXPECT_EQ(delta->pending.size(), 1u);
  Shipment shipment;
  shipment.record = delta->pending.front();
  auto bytes = FileBytes::ReadWhole(dir + "/" + shipment.record.file);
  EXPECT_TRUE(bytes.ok());
  shipment.bytes.assign(bytes->data(), bytes->size());
  return shipment;
}

/// Forks a child that attaches `dir`, arms XMLQ_CRASH=`site`, and runs
/// `apply` on it. 2 = killed at the site, 0 = completed without hitting it.
int RunCrashChild(const std::string& dir, const std::string& site,
                  const std::function<Status(Database&)>& apply) {
  const pid_t pid = fork();
  if (pid == 0) {
    // In the child: only _exit() paths from here on (no gtest teardown).
    Database db;
    if (!db.Attach(dir, SnapshotOpenMode::kCopy).ok()) _exit(3);
    ::setenv("XMLQ_CRASH", site.c_str(), 1);
    _exit(apply(db).ok() ? 0 : 4);
  }
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
}

/// RunCrashChild applying `shipment`.
int RunApplyCrashChild(const std::string& dir, const Shipment& shipment,
                       const std::string& site) {
  return RunCrashChild(dir, site, [&](Database& db) {
    return db.ApplyReplicated(shipment.record, shipment.bytes);
  });
}

/// Files in `dir` (names only), for the no-stray-files assertion.
std::vector<std::string> StoreFiles(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  return names;
}

TEST(ReplCrashMatrixTest, EveryApplyKillPointRecoversToOldOrNew) {
  // Every write boundary of ApplyReplicated: its own kill points plus the
  // atomic-write and manifest-append sites it runs through.
  const char* kSites[] = {
      "repl.apply.begin",
      "file.atomic.torn",
      "file.atomic.tmp_written",
      "file.atomic.tmp_synced",
      "file.atomic.renamed",
      "repl.apply.snapshot_written",
      "file.append.torn",
      "file.append.written",
      "file.append.synced",
      "repl.apply.committed",
  };

  TempDir source_v1("repl_crash_src_v1");
  TempDir source_v2("repl_crash_src_v2");
  const Shipment v1 = BuildShipment(source_v1.path(), 12);
  Shipment v2 = BuildShipment(source_v2.path(), 25);
  // Make v2 a *replacement* shipped after v1: same name, higher generation,
  // distinct file (generations never share file names).
  v2.record.generation = v1.record.generation + 1;
  v2.record.file = "bib.xml.g" + std::to_string(v2.record.generation) +
                   ".xqpack";

  Database oracle_v1, oracle_v2;
  ASSERT_TRUE(oracle_v1.RegisterDocument("bib.xml", MakeBib(12)).ok());
  ASSERT_TRUE(oracle_v2.RegisterDocument("bib.xml", MakeBib(25)).ok());
  const std::string old_image = DocImage(oracle_v1, "bib.xml");
  const std::string new_image = DocImage(oracle_v2, "bib.xml");

  for (const char* site : kSites) {
    for (const bool replace : {false, true}) {
      SCOPED_TRACE(std::string(site) + (replace ? " [replace]" : " [fresh]"));
      TempDir dir("repl_crash_follower");
      if (replace) {
        // Seed the follower with v1 committed, then crash applying v2.
        Database seed;
        ASSERT_TRUE(seed.Attach(dir.path()).ok());
        ASSERT_TRUE(seed.ApplyReplicated(v1.record, v1.bytes).ok());
      }
      const Shipment& shipment = replace ? v2 : v1;
      const int code = RunApplyCrashChild(dir.path(), shipment, site);
      ASSERT_EQ(code, 2) << "site not reached";

      // Recovery: exactly old or exactly new, and the orphan sweep leaves
      // only the journal plus the live snapshots.
      Database recovered;
      auto report = recovered.Attach(dir.path());
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_TRUE(report->quarantined.empty()) << report->ToString();
      const std::string got = DocImage(recovered, "bib.xml");
      const std::string expect_old = replace ? old_image : std::string();
      const std::string expect_new = replace ? new_image : old_image;
      EXPECT_TRUE(got == expect_old || got == expect_new)
          << "torn state: " << got.size() << " bytes matches neither image";
      auto delta = recovered.ReplDeltaFrom(0);
      ASSERT_TRUE(delta.ok());
      const size_t live_docs = delta->live.size();
      const std::vector<std::string> files = StoreFiles(dir.path());
      EXPECT_EQ(files.size(), 1 + live_docs) << "stray files left behind";
    }
  }
}

// The replicated remove runs through the same remove commit as Remove, so
// it has Remove's kill points: a crash at any of them recovers to exactly
// the seeded v1 or to no document, never a quarantine or a stray file.
TEST(ReplCrashMatrixTest, EveryRemoveKillPointRecoversToOldOrNothing) {
  const char* kSites[] = {"remove.begin", "file.append.torn",
                          "file.append.written", "file.append.synced",
                          "remove.committed"};
  TempDir source("repl_remove_crash_src");
  const Shipment v1 = BuildShipment(source.path(), 12);
  Database oracle;
  ASSERT_TRUE(oracle.RegisterDocument("bib.xml", MakeBib(12)).ok());
  const std::string old_image = DocImage(oracle, "bib.xml");

  for (const char* site : kSites) {
    SCOPED_TRACE(site);
    TempDir dir("repl_remove_crash_follower");
    {
      Database seed;
      ASSERT_TRUE(seed.Attach(dir.path()).ok());
      ASSERT_TRUE(seed.ApplyReplicated(v1.record, v1.bytes).ok());
    }
    const int code = RunCrashChild(dir.path(), site, [&](Database& db) {
      return db.ApplyReplicatedRemove("bib.xml", v1.record.generation + 1);
    });
    ASSERT_EQ(code, 2) << "site not reached";

    Database recovered;
    auto report = recovered.Attach(dir.path());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->quarantined.empty()) << report->ToString();
    const std::string got = DocImage(recovered, "bib.xml");
    EXPECT_TRUE(got == old_image || got.empty())
        << "torn state: " << got.size() << " bytes matches neither state";
    // Before any write the remove never happened; after the fsync'd
    // append it has.
    if (std::string_view(site) == "remove.begin") {
      EXPECT_EQ(got, old_image);
    }
    if (std::string_view(site) == "remove.committed") {
      EXPECT_TRUE(got.empty());
    }
    auto delta = recovered.ReplDeltaFrom(0);
    ASSERT_TRUE(delta.ok());
    EXPECT_EQ(StoreFiles(dir.path()).size(), 1 + delta->live.size())
        << "stray files left behind";
  }
}

// Applying the same shipment twice (re-ship after a crash or reconnect)
// must be a no-op the second time — idempotence by name and generation.
TEST(ReplCrashMatrixTest, ReShippedRecordIsIdempotent) {
  TempDir source("repl_idem_src");
  const Shipment shipment = BuildShipment(source.path(), 8);
  TempDir dir("repl_idem_follower");
  Database db;
  ASSERT_TRUE(db.Attach(dir.path()).ok());
  ASSERT_TRUE(db.ApplyReplicated(shipment.record, shipment.bytes).ok());
  const std::string image = DocImage(db, "bib.xml");
  ASSERT_TRUE(db.ApplyReplicated(shipment.record, shipment.bytes).ok());
  EXPECT_EQ(DocImage(db, "bib.xml"), image);
  auto delta = db.ReplDeltaFrom(0);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->max_generation, shipment.record.generation);
  // Corrupted re-ship of an already-applied generation is also a no-op
  // (skipped before verification), not an error.
  std::string corrupt = shipment.bytes;
  corrupt[0] ^= 0x01;
  EXPECT_TRUE(db.ApplyReplicated(shipment.record, corrupt).ok());
  EXPECT_EQ(DocImage(db, "bib.xml"), image);
}

// Hostile records must be rejected before any disk write: bad op, empty
// name, path traversal in the file name, wrong-size and wrong-CRC bytes.
TEST(ReplCrashMatrixTest, HostileRecordsRejected) {
  TempDir source("repl_hostile_src");
  const Shipment good = BuildShipment(source.path(), 4);
  TempDir dir("repl_hostile_follower");
  Database db;
  ASSERT_TRUE(db.Attach(dir.path()).ok());

  ManifestRecord record = good.record;
  record.op = ManifestOp::kRemove;
  EXPECT_FALSE(db.ApplyReplicated(record, good.bytes).ok());

  record = good.record;
  record.name.clear();
  EXPECT_FALSE(db.ApplyReplicated(record, good.bytes).ok());

  record = good.record;
  record.file = "../escape.xqpack";
  EXPECT_FALSE(db.ApplyReplicated(record, good.bytes).ok());

  record = good.record;
  record.file = "not_a_pack.txt";
  EXPECT_FALSE(db.ApplyReplicated(record, good.bytes).ok());

  record = good.record;
  record.snapshot_size = good.bytes.size() + 1;
  EXPECT_FALSE(db.ApplyReplicated(record, good.bytes).ok());

  record = good.record;
  record.snapshot_crc ^= 0x1;
  EXPECT_FALSE(db.ApplyReplicated(record, good.bytes).ok());

  // Nothing was committed; the store is still empty and attachable.
  auto delta = db.ReplDeltaFrom(0);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->live.empty());
  EXPECT_TRUE(db.ApplyReplicated(good.record, good.bytes).ok());
}

// The injected apply fault (the chaos matrix's handle on "apply failed
// after the bytes arrived intact") must fail cleanly and leave no state.
TEST(ReplCrashMatrixTest, InjectedApplyCommitFaultLeavesNoState) {
  TempDir source("repl_fault_src");
  const Shipment shipment = BuildShipment(source.path(), 6);
  TempDir dir("repl_fault_follower");
  Database db;
  ASSERT_TRUE(db.Attach(dir.path()).ok());
  FaultInjector::Instance().Arm("repl.apply.commit", 0, 1);
  EXPECT_FALSE(db.ApplyReplicated(shipment.record, shipment.bytes).ok());
  FaultInjector::Instance().Reset();
  EXPECT_FALSE(db.Contains("bib.xml"));
  // Retry succeeds.
  EXPECT_TRUE(db.ApplyReplicated(shipment.record, shipment.bytes).ok());
  EXPECT_TRUE(db.Contains("bib.xml"));
}

// ---------------------------------------------------------------------------
// The replication epoch (DESIGN.md §14): persisted in the manifest, replayed
// on open, monotone, and a compaction survivor.

TEST(ManifestEpochTest, PersistsReplaysMonotoneAndSurvivesCompaction) {
  TempDir dir("repl_epoch_manifest");
  {
    auto manifest = storage::Manifest::Open(dir.path());
    ASSERT_TRUE(manifest.ok());
    EXPECT_EQ(manifest->epoch(), 0u);
    ManifestRecord epoch_record;
    epoch_record.op = ManifestOp::kEpoch;
    epoch_record.generation = 3;  // kEpoch stores the term in `generation`
    ASSERT_TRUE(manifest->Append(epoch_record).ok());
    EXPECT_EQ(manifest->epoch(), 3u);
    // Monotone: a stale/lower term replayed later never regresses it.
    epoch_record.generation = 2;
    ASSERT_TRUE(manifest->Append(epoch_record).ok());
    EXPECT_EQ(manifest->epoch(), 3u);
    // The epoch is not the generation clock, and it never ships: the
    // subscriber delta carries registrations only.
    EXPECT_EQ(manifest->max_generation(), 0u);
    EXPECT_TRUE(manifest->LiveRecordsAbove(0).empty());
  }
  {
    auto reopened = storage::Manifest::Open(dir.path());
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(reopened->epoch(), 3u);
    ASSERT_TRUE(reopened->Compact().ok());
    EXPECT_EQ(reopened->epoch(), 3u);
  }
  auto compacted = storage::Manifest::Open(dir.path());
  ASSERT_TRUE(compacted.ok());
  EXPECT_EQ(compacted->epoch(), 3u);
}

TEST(PromoteTest, BumpsPersistsAndLiftsFollowerMode) {
  TempDir dir("repl_promote_store");
  {
    Database db;
    ASSERT_TRUE(db.Attach(dir.path()).ok());
    EXPECT_EQ(db.epoch(), 0u);
    db.SetFollower(true);
    auto epoch = db.Promote();
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
    EXPECT_EQ(*epoch, 1u);
    EXPECT_EQ(db.epoch(), 1u);
    // Follower mode lifted: writes accepted again.
    ASSERT_TRUE(db.RegisterDocument("bib.xml", MakeBib(3)).ok());
    EXPECT_TRUE(db.Persist("bib.xml").ok());
    // AdoptEpoch is monotone: lower or equal terms are no-ops, higher
    // terms persist.
    ASSERT_TRUE(db.AdoptEpoch(1).ok());
    EXPECT_EQ(db.epoch(), 1u);
    ASSERT_TRUE(db.AdoptEpoch(9).ok());
    EXPECT_EQ(db.epoch(), 9u);
  }
  // The epoch is durable and the next promotion continues from it.
  Database reopened;
  ASSERT_TRUE(reopened.Attach(dir.path()).ok());
  EXPECT_EQ(reopened.epoch(), 9u);
  auto epoch = reopened.Promote();
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 10u);
}

TEST(PromoteTest, WithoutStoreRefuses) {
  Database db;
  EXPECT_EQ(db.Promote().status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db.AdoptEpoch(5).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(db.AdoptEpoch(0).ok());  // no-op needs no store
}

// Satellite: the follower write refusal is structured — it names the
// primary (when known) and carries a machine-readable retry-after hint.
TEST(FollowerModeTest, RefusalNamesPrimaryAndCarriesRetryHint) {
  TempDir dir("repl_refusal_store");
  Database db;
  ASSERT_TRUE(db.Attach(dir.path()).ok());
  ASSERT_TRUE(db.RegisterDocument("bib.xml", MakeBib(3)).ok());
  db.SetFollower(true);
  // Primary unknown: still a structured refusal with a retry hint.
  Status status = db.Persist("bib.xml");
  ASSERT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("primary unknown"), std::string::npos)
      << status.message();
  EXPECT_GT(exec::RetryAfterMicrosFromStatus(status), 0u);
  // With the hint installed (ReplicationClient::Start does this), the
  // refusal tells the client exactly where writes go.
  db.SetPrimaryHint("10.1.2.3:7227");
  status = db.Remove("bib.xml");
  ASSERT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("10.1.2.3:7227"), std::string::npos)
      << status.message();
  EXPECT_GT(exec::RetryAfterMicrosFromStatus(status), 0u);
}

// ---------------------------------------------------------------------------
// Promotion crash matrix: fork a child, kill it at every write boundary of
// Promote(), assert recovery lands on exactly the old or exactly the new
// epoch — never torn, never skipped ahead.

/// Forks a child that attaches `dir`, arms XMLQ_CRASH=`site`, and promotes.
/// 2 = killed at the site, 0 = completed without hitting it.
int RunPromoteCrashChild(const std::string& dir, const std::string& site) {
  const pid_t pid = fork();
  if (pid == 0) {
    // In the child: only _exit() paths from here on (no gtest teardown).
    Database db;
    if (!db.Attach(dir, SnapshotOpenMode::kCopy).ok()) _exit(3);
    ::setenv("XMLQ_CRASH", site.c_str(), 1);
    auto epoch = db.Promote();
    _exit(epoch.ok() ? 0 : 4);
  }
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
}

TEST(PromoteCrashMatrixTest, EveryPromoteKillPointYieldsOldOrNewEpoch) {
  // Promote() is one fsync'd manifest append, so its boundaries are its own
  // kill points plus the append sites it runs through.
  const char* kSites[] = {
      "promote.begin",
      "file.append.torn",
      "file.append.written",
      "file.append.synced",
      "promote.committed",
  };
  for (const char* site : kSites) {
    SCOPED_TRACE(site);
    TempDir dir("repl_promote_crash");
    {
      // Seed: a store with data and a non-zero starting term.
      Database seed;
      ASSERT_TRUE(seed.Attach(dir.path()).ok());
      ASSERT_TRUE(seed.RegisterDocument("bib.xml", MakeBib(4)).ok());
      ASSERT_TRUE(seed.Persist("bib.xml").ok());
      ASSERT_TRUE(seed.AdoptEpoch(2).ok());
    }
    ASSERT_EQ(RunPromoteCrashChild(dir.path(), site), 2) << "site not reached";

    Database recovered;
    auto report = recovered.Attach(dir.path());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->quarantined.empty()) << report->ToString();
    // Exactly the old or exactly the new term.
    EXPECT_TRUE(recovered.epoch() == 2u || recovered.epoch() == 3u)
        << "torn epoch: " << recovered.epoch();
    // The store still serves, and the next promotion still lands.
    EXPECT_TRUE(recovered.QueryPath("//book/title", "bib.xml").ok());
    auto epoch = recovered.Promote();
    ASSERT_TRUE(epoch.ok());
    EXPECT_TRUE(*epoch == 3u || *epoch == 4u) << *epoch;
  }
}

// ---------------------------------------------------------------------------
// Split-brain prevention: the epoch fence at every layer (DESIGN.md §14)

// Server-side fence: a subscriber announcing a term from the future (it was
// promoted; we are the stale side) is refused at the subscribe ack, and the
// refused follower is not harmed — it keeps serving, keeps its epoch, and
// backs off instead of spinning (a refused stream never resets the rung).
TEST_F(ReplEndToEndTest, ServerFencesSubscriberFromTheFuture) {
  ASSERT_TRUE(primary_db_->RegisterDocument("bib.xml", MakeBib(5)).ok());
  ASSERT_TRUE(primary_db_->Persist("bib.xml").ok());
  StartFollower();
  ASSERT_TRUE(WaitFor([&] { return Converged(); }));
  const std::string image = DocImage(*follower_db_, "bib.xml");
  follower_->Stop();
  follower_.reset();
  follower_db_.reset();

  // The follower's store learns of a promotion this primary never saw.
  {
    Database db;
    ASSERT_TRUE(db.Attach(follower_dir_->path()).ok());
    ASSERT_TRUE(db.AdoptEpoch(5).ok());
  }
  StartFollower();
  ASSERT_TRUE(WaitFor([&] {
    return follower_->stats().fenced_rejections >= 1;
  })) << follower_->stats().ToString();
  EXPECT_GE(server_->stats().repl_fenced_subscribes, 1u);
  // Fencing never corrupts the follower: it keeps serving its catalog and
  // its adopted term.
  EXPECT_EQ(DocImage(*follower_db_, "bib.xml"), image);
  EXPECT_EQ(follower_db_->epoch(), 5u);
  EXPECT_EQ(follower_->stats().epoch, 5u);
  // The backoff reset is earned by an applied shipment; refused streams
  // climb the rungs.
  ASSERT_TRUE(WaitFor([&] {
    return follower_->stats().backoff_attempt >= 3;
  })) << follower_->stats().ToString();
}

// Client-side fence, heartbeat and record cells. The stream is ordered, so
// whichever frame type arrives first after a local term change must trip
// the fence (CheckFrameEpoch guards the ack, record, chunk, heartbeat and
// the apply commit identically).
TEST_F(ReplEndToEndTest, MidStreamTermChangeFencesHeartbeatAndRecordFrames) {
  // Heartbeat cell: a caught-up stream carries only heartbeats; adopting a
  // newer term locally fences the very next one.
  ASSERT_TRUE(primary_db_->RegisterDocument("bib.xml", MakeBib(5)).ok());
  ASSERT_TRUE(primary_db_->Persist("bib.xml").ok());
  StartFollower();
  ASSERT_TRUE(WaitFor([&] { return Converged(); }));
  ASSERT_TRUE(follower_db_->AdoptEpoch(3).ok());
  ASSERT_TRUE(WaitFor([&] {
    return follower_->stats().fenced_rejections >= 1;
  })) << follower_->stats().ToString();
  const std::string image = DocImage(*follower_db_, "bib.xml");
  EXPECT_EQ(DocImage(*primary_db_, "bib.xml"), image);
  follower_->Stop();
  follower_.reset();
  follower_db_.reset();

  // Record cell: restart the primary with heartbeats effectively off and a
  // fresh follower store. Once caught up (silent link), adopt a newer term
  // locally, then persist on the primary — the fence must trip on the
  // record frame itself.
  ASSERT_TRUE(server_->Shutdown().ok());
  server_.reset();
  net::ServerConfig quiet = FastServerConfig();
  quiet.port = port_;
  quiet.repl_heartbeat_micros = 60'000'000;
  server_ = std::make_unique<net::Server>(primary_db_.get(), quiet);
  ASSERT_TRUE(server_->Start().ok());
  port_ = server_->port();
  TempDir fresh_dir("repl_fence_record_store");
  StartFollower(FastReplConfig(port_, fresh_dir.path()));
  ASSERT_TRUE(WaitFor([&] { return Converged(); }))
      << follower_->stats().ToString();
  const uint64_t fenced_before = follower_->stats().fenced_rejections;
  ASSERT_TRUE(follower_db_->AdoptEpoch(7).ok());
  ASSERT_TRUE(primary_db_->RegisterDocument("late.xml", MakeBib(4)).ok());
  ASSERT_TRUE(primary_db_->Persist("late.xml").ok());
  ASSERT_TRUE(WaitFor([&] {
    return follower_->stats().fenced_rejections > fenced_before;
  })) << follower_->stats().ToString();
  // The fenced shipment never applied, and the store re-attaches clean.
  EXPECT_FALSE(follower_db_->Contains("late.xml"));
  EXPECT_EQ(DocImage(*follower_db_, "bib.xml"),
            DocImage(*primary_db_, "bib.xml"));
  follower_->Stop();
  follower_.reset();
  follower_db_.reset();
  Database reattached;
  auto report = reattached.Attach(fresh_dir.path());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->quarantined.empty()) << report->ToString();
  EXPECT_EQ(reattached.epoch(), 7u);
  EXPECT_FALSE(reattached.Contains("late.xml"));
}

// The full failover story at library level, driven over the wire: promote
// the follower with the kPromote admin frame, write on both sides of the
// partition, then re-point the stale primary at the new one — it must
// auto-demote (adopt the term durably), drop its forked write via the
// census, resync what it lacks, and refuse writes from then on.
TEST_F(ReplEndToEndTest, PromoteOverWireStalePrimaryAutoDemotesAndReconverges) {
  ASSERT_TRUE(primary_db_->RegisterDocument("bib.xml", MakeBib(6)).ok());
  ASSERT_TRUE(primary_db_->Persist("bib.xml").ok());
  ASSERT_TRUE(primary_db_->RegisterDocument("keep.xml", MakeBib(3)).ok());
  ASSERT_TRUE(primary_db_->Persist("keep.xml").ok());
  StartFollower();
  ASSERT_TRUE(WaitFor([&] { return Converged(); }));

  // Stand the follower up as a server with the promote hook wired the way
  // xmlq_serve wires it: stop replicating first, then bump the epoch.
  net::ServerConfig new_primary_config = FastServerConfig();
  new_primary_config.on_promote = [this]() -> Result<uint64_t> {
    if (follower_ != nullptr) follower_->Stop();
    return follower_db_->Promote();
  };
  net::Server new_primary(follower_db_.get(), new_primary_config);
  ASSERT_TRUE(new_primary.Start().ok());

  auto admin = net::Client::Connect("127.0.0.1", new_primary.port());
  ASSERT_TRUE(admin.ok());
  auto ack = admin->Promote();
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  ASSERT_EQ(ack->code, StatusCode::kOk) << ack->body;
  EXPECT_NE(ack->body.find("epoch=1"), std::string::npos) << ack->body;
  EXPECT_EQ(follower_db_->epoch(), 1u);
  EXPECT_GE(new_primary.stats().promotes, 1u);

  // The new primary accepts writes; the old one diverges behind the
  // partition (a split-brain write that must not survive).
  ASSERT_TRUE(follower_db_->RegisterDocument("new.xml", MakeBib(9)).ok());
  ASSERT_TRUE(follower_db_->Persist("new.xml").ok());
  ASSERT_TRUE(primary_db_->RegisterDocument("fork.xml", MakeBib(2)).ok());
  ASSERT_TRUE(primary_db_->Persist("fork.xml").ok());

  // Operators (and failover_smoke.sh) read the term off the stats frame.
  auto stats_body = admin->Stats();
  ASSERT_TRUE(stats_body.ok());
  EXPECT_NE(stats_body->body.find("epoch=1\n"), std::string::npos)
      << stats_body->body;

  // The stale primary comes back and is re-pointed at the new one.
  ASSERT_TRUE(server_->Shutdown().ok());
  server_.reset();
  auto demoted = std::make_unique<ReplicationClient>(
      primary_db_.get(),
      FastReplConfig(new_primary.port(), primary_dir_->path()));
  ASSERT_TRUE(demoted->Start().ok());
  ASSERT_TRUE(WaitFor([&] {
    return primary_db_->epoch() == 1 && !primary_db_->Contains("fork.xml") &&
           primary_db_->Contains("new.xml");
  })) << demoted->stats().ToString();
  for (const char* name : {"bib.xml", "keep.xml", "new.xml"}) {
    EXPECT_EQ(DocImage(*primary_db_, name), DocImage(*follower_db_, name))
        << name;
  }
  // Demoted means read-only, with the refusal pointing at the new primary.
  const Status refused = primary_db_->Persist("bib.xml");
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.message().find(std::to_string(new_primary.port())),
            std::string::npos)
      << refused.message();
  demoted->Stop();
  demoted.reset();
  // The adopted term is durable on the demoted side.
  primary_db_.reset();
  primary_db_ = std::make_unique<Database>();
  ASSERT_TRUE(primary_db_->Attach(primary_dir_->path()).ok());
  EXPECT_EQ(primary_db_->epoch(), 1u);
  ASSERT_TRUE(new_primary.Shutdown().ok());
}

// A server without the promote hook refuses the admin frame cleanly.
TEST_F(ReplEndToEndTest, PromoteFrameWithoutHookRefuses) {
  auto client = net::Client::Connect("127.0.0.1", port_);
  ASSERT_TRUE(client.ok());
  auto ack = client->Promote();
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->code, StatusCode::kInvalidArgument) << ack->body;
  EXPECT_EQ(server_->stats().promotes, 0u);
}

// ---------------------------------------------------------------------------
// Satellite: the reconnect backoff resets to base only after a stream that
// actually applied a shipment — connect-and-refused (or connect-and-idle)
// streams keep climbing.

TEST_F(ReplEndToEndTest, ReconnectBackoffResetsOnlyAfterAppliedShipment) {
  ASSERT_TRUE(primary_db_->RegisterDocument("bib.xml", MakeBib(4)).ok());
  ASSERT_TRUE(primary_db_->Persist("bib.xml").ok());
  // Phase 1: no server — the rung climbs and stays climbed.
  ASSERT_TRUE(server_->Shutdown().ok());
  server_.reset();
  ReplicationConfig config = FastReplConfig(port_, follower_dir_->path());
  config.base_backoff_micros = 30'000;
  config.max_backoff_micros = 240'000;
  StartFollower(config);
  ASSERT_TRUE(WaitFor([&] {
    return follower_->stats().backoff_attempt >= 4;
  })) << follower_->stats().ToString();

  // Phase 2: the primary returns; the stream applies the shipment.
  StartServer();
  ASSERT_TRUE(WaitFor([&] { return Converged(); }))
      << follower_->stats().ToString();
  ASSERT_GE(follower_->stats().records_applied, 1u);

  // Phase 3: kill it again. Because the last stream applied, the schedule
  // restarts at the base rung — observable as the attempt counter dropping
  // below phase 1's high-water mark before climbing again.
  ASSERT_TRUE(server_->Shutdown().ok());
  server_.reset();
  bool saw_reset = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (std::chrono::steady_clock::now() < deadline && !saw_reset) {
    const uint64_t rung = follower_->stats().backoff_attempt;
    saw_reset = rung >= 1 && rung <= 2;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(saw_reset) << follower_->stats().ToString();
}

// ---------------------------------------------------------------------------
// Self-healing quarantine recovery (DESIGN.md §14)

// Transient in-flight corruption exhausts the apply budget and quarantines
// the generation; the scheduled re-fetch then repairs it with no operator
// action and the quarantine gauge returns to zero.
TEST_F(ReplEndToEndTest, DivergenceQuarantineSelfHealsWithoutOperator) {
  ASSERT_TRUE(primary_db_->RegisterDocument("bib.xml", MakeBib(5)).ok());
  ASSERT_TRUE(primary_db_->Persist("bib.xml").ok());
  ReplicationConfig config = FastReplConfig(port_, follower_dir_->path());
  config.heal_base_backoff_micros = 10'000;
  config.heal_max_backoff_micros = 100'000;
  StartFollower(config);
  ASSERT_TRUE(WaitFor([&] { return Converged(); }));
  const std::string v1 = DocImage(*follower_db_, "bib.xml");

  // v2 corrupts in flight exactly max_apply_attempts times, then clears —
  // the transient fault self-heal exists for.
  FaultInjector::Instance().Arm("repl.apply.chunk", /*skip=*/0, /*count=*/3);
  ASSERT_TRUE(primary_db_->RegisterDocument("bib.xml", MakeBib(25)).ok());
  ASSERT_TRUE(primary_db_->Persist("bib.xml").ok());
  ASSERT_TRUE(WaitFor([&] {
    return follower_->stats().divergence_quarantines >= 1;
  })) << follower_->stats().ToString();

  ASSERT_TRUE(WaitFor([&] {
    const ReplicationStats stats = follower_->stats();
    return stats.refetch_successes >= 1 && stats.quarantined == 0;
  })) << follower_->stats().ToString();
  ASSERT_TRUE(WaitFor([&] {
    return DocImage(*follower_db_, "bib.xml") ==
           DocImage(*primary_db_, "bib.xml");
  })) << follower_->stats().ToString();
  EXPECT_NE(DocImage(*follower_db_, "bib.xml"), v1);
  EXPECT_GE(follower_->stats().refetch_attempts, 1u);
}

// The scrubber path: local disk rot on the replica quarantines a snapshot;
// the quarantine hook hands the generation to the replication client, which
// re-fetches it from the primary instead of leaving a hole.
TEST_F(ReplEndToEndTest, ScrubberQuarantineSelfHealsFromPrimary) {
  ASSERT_TRUE(primary_db_->RegisterDocument("bib.xml", MakeBib(8)).ok());
  ASSERT_TRUE(primary_db_->Persist("bib.xml").ok());
  ReplicationConfig config = FastReplConfig(port_, follower_dir_->path());
  config.heal_base_backoff_micros = 10'000;
  config.heal_max_backoff_micros = 100'000;
  config.mode = SnapshotOpenMode::kCopy;  // serve from memory, not the bad disk
  StartFollower(config);
  ASSERT_TRUE(WaitFor([&] { return Converged(); }));
  const std::string image = DocImage(*follower_db_, "bib.xml");
  ASSERT_FALSE(image.empty());

  // Flip one byte of the replica's snapshot file on disk.
  std::string snapshot_file;
  for (const auto& entry :
       std::filesystem::directory_iterator(follower_dir_->path())) {
    const std::string name = entry.path().filename().string();
    if (name.find(".xqpack") != std::string::npos) {
      snapshot_file = entry.path().string();
    }
  }
  ASSERT_FALSE(snapshot_file.empty());
  {
    std::fstream file(snapshot_file,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(100);
    char byte = 0;
    file.get(byte);
    file.seekp(100);
    file.put(static_cast<char>(byte ^ 0x01));
  }

  // The scrubber quarantines it — and, because a replication client is
  // attached, the quarantine hook schedules the re-fetch.
  auto report = follower_db_->Scrub();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->corrupt, 1u) << report->ToString();

  // Self-heal: the document comes back byte-identical, the gauge drops to
  // zero, and the store re-attaches clean.
  ASSERT_TRUE(WaitFor([&] {
    const ReplicationStats stats = follower_->stats();
    return stats.refetch_successes >= 1 && stats.quarantined == 0 &&
           follower_db_->Contains("bib.xml");
  })) << follower_->stats().ToString();
  EXPECT_EQ(DocImage(*follower_db_, "bib.xml"), image);
  // The healed entry replaced the degraded one, so reads are unflagged.
  auto healed = follower_db_->Query("count(doc(\"bib.xml\")//book)");
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_FALSE(healed->degraded) << healed->degradation;
  follower_->Stop();
  follower_.reset();
  follower_db_.reset();
  Database reattached;
  auto reattach = reattached.Attach(follower_dir_->path());
  ASSERT_TRUE(reattach.ok());
  EXPECT_TRUE(reattach->quarantined.empty()) << reattach->ToString();
  EXPECT_EQ(DocImage(reattached, "bib.xml"), image);
}

// Bounded attempts: when the primary keeps shipping bytes that cannot
// verify, the heal budget runs out and the quarantine becomes terminal —
// no infinite re-fetch loop — while the previous generation keeps serving.
TEST_F(ReplEndToEndTest, SelfHealGivesUpAfterBoundedAttempts) {
  ASSERT_TRUE(primary_db_->RegisterDocument("bib.xml", MakeBib(5)).ok());
  ASSERT_TRUE(primary_db_->Persist("bib.xml").ok());
  ReplicationConfig config = FastReplConfig(port_, follower_dir_->path());
  config.heal_base_backoff_micros = 5'000;
  config.heal_max_backoff_micros = 20'000;
  config.max_heal_attempts = 2;
  StartFollower(config);
  ASSERT_TRUE(WaitFor([&] { return Converged(); }));
  const std::string v1 = DocImage(*follower_db_, "bib.xml");

  // Permanent corruption: every shipped chunk rots, so every re-fetch
  // fails verification too.
  FaultInjector::Instance().Arm("repl.apply.chunk");
  ASSERT_TRUE(primary_db_->RegisterDocument("bib.xml", MakeBib(25)).ok());
  ASSERT_TRUE(primary_db_->Persist("bib.xml").ok());
  ASSERT_TRUE(WaitFor([&] {
    return follower_->stats().divergence_quarantines >= 1;
  })) << follower_->stats().ToString();
  // The budgeted re-fetches run and stop; the gauge stays at one (terminal)
  // and v1 keeps serving.
  ASSERT_TRUE(WaitFor([&] {
    return follower_->stats().refetch_attempts >= config.max_heal_attempts;
  })) << follower_->stats().ToString();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_LE(follower_->stats().refetch_attempts,
            uint64_t{config.max_heal_attempts} + 1);
  EXPECT_EQ(follower_->stats().refetch_successes, 0u);
  EXPECT_EQ(DocImage(*follower_db_, "bib.xml"), v1);
  FaultInjector::Instance().Reset();
}

}  // namespace
}  // namespace xmlq
