#ifndef XMLQ_NET_SERVER_H_
#define XMLQ_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "xmlq/api/database.h"
#include "xmlq/base/socket.h"
#include "xmlq/base/status.h"
#include "xmlq/net/conn.h"
#include "xmlq/net/protocol.h"

namespace xmlq::net {

struct ServerConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = bind an ephemeral port; read back with port()
  int backlog = 128;
  /// Query worker threads. The event loop never runs a query itself: every
  /// Query frame is dispatched here so one slow query cannot stall accepts,
  /// reads, pings or cancels.
  uint32_t workers = 4;
  uint32_t max_connections = 1024;
  ConnLimits limits;
  /// Cap on one response frame's payload body. A body larger than this is
  /// replaced with a kResourceExhausted status response (no retry hint —
  /// retrying cannot help) so the client sees a decodable error instead of
  /// a frame its own decode cap rejects as stream corruption.
  uint64_t max_response_bytes = 48u << 20;
  /// Drain budget: after RequestDrain(), in-flight queries get this long to
  /// finish before they are cancelled (Database::Cancel via their tokens);
  /// responses still flush, then connections close.
  uint64_t drain_deadline_micros = 5'000'000;
  /// Replication shipping (DESIGN.md §13): snapshot bytes per kReplChunk
  /// frame. Bounded well below the write-buffer backpressure cap so a slow
  /// follower backpressures cleanly instead of tripping kSlowClient.
  uint32_t repl_chunk_bytes = 256u * 1024;
  /// Heartbeat interval for caught-up subscribers (the census carrier; also
  /// what keeps an otherwise-silent subscriber connection from idling out).
  uint64_t repl_heartbeat_micros = 1'000'000;
  /// Extra text appended to every kStats response body; xmlq_serve wires a
  /// follower's replication stats through this. Called on the loop thread —
  /// keep it cheap and thread-safe.
  std::function<std::string()> extra_stats;
  /// Promotion hook for the kPromote admin frame (DESIGN.md §14): stop the
  /// replication client, bump+persist the epoch, lift follower mode; return
  /// the new epoch. Unset = kPromote answered with kInvalidArgument. Called
  /// on a worker thread (promotion fsyncs — it must not stall the loop).
  std::function<Result<uint64_t>()> on_promote;
};

/// Event-loop counters, readable from any thread via Server::stats().
struct ServerStats {
  uint64_t accepted = 0;
  uint64_t accept_faults = 0;       // injected or real accept failures
  uint64_t accept_rejected_full = 0;  // over max_connections
  uint64_t frames = 0;
  uint64_t queries = 0;
  uint64_t cancels = 0;
  uint64_t pings = 0;
  uint64_t stats_requests = 0;
  uint64_t responses = 0;
  uint64_t overload_responses = 0;  // admission shed/reject relayed + local
  uint64_t inflight_limit_rejects = 0;
  uint64_t drain_rejects = 0;       // Query frames refused while draining
  uint64_t protocol_errors = 0;
  uint64_t read_faults = 0;
  uint64_t write_faults = 0;
  uint64_t evicted_idle = 0;
  uint64_t evicted_read_deadline = 0;
  uint64_t evicted_write_deadline = 0;
  uint64_t evicted_slow = 0;
  uint64_t drain_cancelled = 0;     // in-flight queries cancelled at drain
  uint64_t repl_records_shipped = 0;   // kReplRecord announcements sent
  uint64_t repl_chunks_shipped = 0;    // kReplChunk frames sent
  uint64_t repl_heartbeats = 0;        // kReplHeartbeat frames sent
  uint64_t repl_ship_faults = 0;       // injected/real ship failures
  uint64_t repl_fenced_subscribes = 0;  // subscribers refused: newer epoch
  uint64_t promotes = 0;               // successful kPromote frames
  uint32_t repl_subscribers = 0;       // currently subscribed connections
  uint32_t connections = 0;         // currently open
  std::string ToString() const;
};

/// The fault-tolerant serving front-end (DESIGN.md §10): one epoll event
/// loop owning every socket, a worker pool running queries through the
/// embedded api::Database (whose admission control, cancellation and
/// circuit breakers do the heavy lifting), and a drain state machine
///
///   kServing --RequestDrain()--> kDraining --deadline/idle--> kClosed
///
/// kServing: accept + serve. kDraining: listener closed, new Query frames
/// answered with a retryable overload response, in-flight queries finish
/// (or are cancelled once the drain deadline passes), write buffers flush,
/// each connection closes as it goes quiet. kClosed: Run() returns; Wait()
/// unblocks.
///
/// Fault sites, armed by the chaos suite: "net.accept" (accepted socket
/// dropped), "net.read" (read treated as a connection error),
/// "net.write" (write treated as a connection error), "net.frame.decode"
/// (frame treated as corrupt). Every one of them must result in a clean
/// connection close — no crash, no fd leak, no stuck connection — which is
/// exactly what tests/net_test.cc's chaos matrix asserts.
class Server {
 public:
  Server(api::Database* db, ServerConfig config);
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  /// Force-drains and joins if still running: requests a zero-deadline
  /// drain (in-flight queries are cancelled immediately, flushes are
  /// best-effort). If a graceful drain is already underway it joins that
  /// drain instead.
  ~Server();

  /// Binds, spawns the worker pool and the event-loop thread. On return the
  /// server is accepting connections on port().
  Status Start();

  /// The bound port (valid after Start; resolves ephemeral binds).
  uint16_t port() const { return port_; }

  /// Begins graceful drain. Async-signal-safe (one atomic store + one
  /// write() to an eventfd), so a SIGTERM handler may call it directly.
  void RequestDrain();

  /// Blocks until the drain completes and every thread is joined. Idempotent.
  Status Wait();

  /// RequestDrain() + Wait().
  Status Shutdown();

  ServerStats stats() const;

 private:
  struct Job {
    uint64_t conn_id = 0;
    uint64_t request_id = 0;
    std::string query;
    std::shared_ptr<InflightQuery> inflight;
    /// kPromote admin frame: run config_.on_promote instead of a query.
    bool promote = false;
  };
  struct Completion {
    uint64_t conn_id = 0;
    uint64_t request_id = 0;
    std::string frame;  // encoded response
    bool overload = false;
  };

  void Loop();
  void WorkerLoop();
  void Accept();
  void HandleReadable(Conn* conn);
  void HandleWritable(Conn* conn);
  /// Decodes and dispatches every complete frame in conn's inbuf; returns
  /// false when the connection must close (protocol error / injected
  /// decode fault / write failure while responding).
  ///
  /// None of DrainInbuf/Dispatch/QueueResponse ever destroys the Conn
  /// itself: a false return travels up to the caller that owns the event
  /// (HandleReadable), which is the only place that closes — so no frame
  /// loop is ever left holding a dangling Conn*.
  bool DrainInbuf(Conn* conn);
  /// Returns false when the connection must close.
  bool Dispatch(Conn* conn, Frame frame);
  /// Encodes and queues a response, flushing what the socket accepts;
  /// returns false when the connection must close (the caller closes it —
  /// conn is still valid on return).
  bool QueueResponse(Conn* conn, uint64_t request_id,
                     const ResponsePayload& response);
  /// Encodes one response frame, substituting a kResourceExhausted status
  /// response when the body exceeds config_.max_response_bytes (keeps
  /// every emitted frame decodable by the client).
  std::string EncodeResponseFrame(uint64_t request_id,
                                  const ResponsePayload& response) const;
  /// Flushes as much of conn's outbuf as the socket accepts; returns false
  /// when the connection died (write error / injected fault / peer gone).
  bool FlushWrites(Conn* conn);
  void UpdateEpoll(Conn* conn);
  void CloseConn(uint64_t conn_id, Conn::Evict reason);
  void DrainCompletions();
  /// Advances every subscribed connection's replication stream: refreshes
  /// its pending set from the manifest, announces records, slices chunks,
  /// heartbeats when caught up. Runs on the loop thread each tick (and the
  /// per-conn half after writable flushes), bounded by a per-conn outbuf
  /// low-water mark so a slow follower backpressures instead of ballooning.
  void PumpReplication();
  /// One subscriber's pump step; returns false when the connection must
  /// close (ship fault / manifest error / write failure).
  bool PumpSubscriber(Conn* conn);
  void SweepDeadlines();
  /// Advances the drain state machine; true when the loop should exit.
  bool DrainFinished();
  void WakeLoop();

  api::Database* const db_;
  const ServerConfig config_;

  UniqueFd listener_;
  UniqueFd epoll_;
  UniqueFd wake_;
  uint16_t port_ = 0;

  std::thread loop_thread_;
  std::vector<std::thread> workers_;
  std::atomic<bool> drain_requested_{false};
  /// Tightens the drain deadline below config_.drain_deadline_micros; set
  /// (to 0) by the destructor before it requests its force-drain. Read
  /// once, at drain entry.
  std::atomic<uint64_t> drain_deadline_override_micros_{UINT64_MAX};
  bool draining_ = false;  // loop-thread view
  uint64_t drain_deadline_micros_ = 0;  // effective budget, set at drain entry
  Conn::Clock::time_point drain_deadline_{};
  bool drain_cancelled_inflight_ = false;

  // Connections: loop-thread only.
  std::map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 16;  // ids 0..15 reserved for loop-internal fds

  // Worker queue.
  std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;
  std::deque<Job> jobs_;
  bool jobs_stop_ = false;

  // Completions, posted by workers, drained by the loop.
  std::mutex completions_mu_;
  std::deque<Completion> completions_;

  mutable std::mutex stats_mu_;
  ServerStats stats_;

  std::mutex lifecycle_mu_;
  std::condition_variable join_cv_;
  bool started_ = false;
  bool join_started_ = false;  // some caller is inside Wait()'s join work
  bool join_done_ = false;     // every thread is joined; Wait() may return
  Status loop_status_;
};

}  // namespace xmlq::net

#endif  // XMLQ_NET_SERVER_H_
