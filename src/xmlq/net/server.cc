#include "xmlq/net/server.h"

#include <errno.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "xmlq/base/fault_injector.h"
#include "xmlq/exec/admission.h"

namespace xmlq::net {

namespace {

constexpr uint64_t kListenerId = 0;
constexpr uint64_t kWakeId = 1;

/// The loop ticks at least this often so deadline sweeps and drain progress
/// never wait on socket activity.
constexpr int kTickMillis = 20;

std::string CounterLine(std::string_view name, uint64_t value) {
  std::string out(name);
  out += "=";
  out += std::to_string(value);
  out += "\n";
  return out;
}

}  // namespace

std::string ServerStats::ToString() const {
  std::string out;
  out += CounterLine("connections", connections);
  out += CounterLine("accepted", accepted);
  out += CounterLine("frames", frames);
  out += CounterLine("queries", queries);
  out += CounterLine("responses", responses);
  out += CounterLine("overload_responses", overload_responses);
  out += CounterLine("inflight_limit_rejects", inflight_limit_rejects);
  out += CounterLine("drain_rejects", drain_rejects);
  out += CounterLine("cancels", cancels);
  out += CounterLine("pings", pings);
  out += CounterLine("stats_requests", stats_requests);
  out += CounterLine("protocol_errors", protocol_errors);
  out += CounterLine("accept_faults", accept_faults);
  out += CounterLine("accept_rejected_full", accept_rejected_full);
  out += CounterLine("read_faults", read_faults);
  out += CounterLine("write_faults", write_faults);
  out += CounterLine("evicted_idle", evicted_idle);
  out += CounterLine("evicted_read_deadline", evicted_read_deadline);
  out += CounterLine("evicted_write_deadline", evicted_write_deadline);
  out += CounterLine("evicted_slow", evicted_slow);
  out += CounterLine("drain_cancelled", drain_cancelled);
  out += CounterLine("repl_subscribers", repl_subscribers);
  out += CounterLine("repl_records_shipped", repl_records_shipped);
  out += CounterLine("repl_chunks_shipped", repl_chunks_shipped);
  out += CounterLine("repl_heartbeats", repl_heartbeats);
  out += CounterLine("repl_ship_faults", repl_ship_faults);
  out += CounterLine("repl_fenced_subscribes", repl_fenced_subscribes);
  out += CounterLine("promotes", promotes);
  return out;
}

Server::Server(api::Database* db, ServerConfig config)
    : db_(db), config_(std::move(config)) {}

Server::~Server() {
  // No effect if the loop already entered drain with the configured
  // deadline — then this just joins the in-progress graceful drain.
  drain_deadline_override_micros_.store(0, std::memory_order_release);
  RequestDrain();
  (void)Wait();
}

Status Server::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) return Status::InvalidArgument("server already started");
  XMLQ_ASSIGN_OR_RETURN(
      listener_, ListenTcp(config_.host, config_.port, config_.backlog));
  XMLQ_ASSIGN_OR_RETURN(uint16_t port, LocalPort(listener_.get()));
  port_ = port;
  epoll_.Reset(epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_.valid()) {
    return Status::Internal(std::string("epoll_create1: ") +
                            std::strerror(errno));
  }
  wake_.Reset(eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!wake_.valid()) {
    return Status::Internal(std::string("eventfd: ") + std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerId;
  if (epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, listener_.get(), &ev) < 0) {
    return Status::Internal(std::string("epoll_ctl(listener): ") +
                            std::strerror(errno));
  }
  ev.data.u64 = kWakeId;
  if (epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wake_.get(), &ev) < 0) {
    return Status::Internal(std::string("epoll_ctl(eventfd): ") +
                            std::strerror(errno));
  }
  const uint32_t worker_count = config_.workers == 0 ? 1 : config_.workers;
  workers_.reserve(worker_count);
  for (uint32_t i = 0; i < worker_count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  loop_thread_ = std::thread([this] { Loop(); });
  started_ = true;
  return Status::Ok();
}

void Server::RequestDrain() {
  drain_requested_.store(true, std::memory_order_release);
  WakeLoop();
}

void Server::WakeLoop() {
  if (!wake_.valid()) return;
  const uint64_t one = 1;
  // write() is async-signal-safe; a full eventfd counter (EAGAIN) already
  // means the loop has a pending wake-up.
  [[maybe_unused]] const ssize_t rc =
      write(wake_.get(), &one, sizeof(one));
}

Status Server::Wait() {
  std::unique_lock<std::mutex> lock(lifecycle_mu_);
  if (!started_) return loop_status_;
  if (join_started_) {
    // Another caller is (or was) doing the join work; block until it
    // finishes so every Wait() return really means "all threads joined".
    join_cv_.wait(lock, [this] { return join_done_; });
    return loop_status_;
  }
  join_started_ = true;
  lock.unlock();
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    std::lock_guard<std::mutex> jobs_lock(jobs_mu_);
    jobs_stop_ = true;
  }
  jobs_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  lock.lock();
  join_done_ = true;
  join_cv_.notify_all();
  return loop_status_;
}

Status Server::Shutdown() {
  RequestDrain();
  return Wait();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

// ---------------------------------------------------------------------------
// Event loop

void Server::Loop() {
  epoll_event events[64];
  while (true) {
    const int n = epoll_wait(epoll_.get(), events, 64, kTickMillis);
    if (n < 0 && errno != EINTR) {
      std::lock_guard<std::mutex> lock(lifecycle_mu_);
      loop_status_ = Status::Internal(std::string("epoll_wait: ") +
                                      std::strerror(errno));
      break;
    }
    for (int i = 0; i < (n < 0 ? 0 : n); ++i) {
      const uint64_t id = events[i].data.u64;
      if (id == kWakeId) {
        uint64_t drained = 0;
        [[maybe_unused]] const ssize_t rc =
            read(wake_.get(), &drained, sizeof(drained));
        continue;
      }
      if (id == kListenerId) {
        Accept();
        continue;
      }
      const auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // closed earlier this iteration
      Conn* conn = it->second.get();
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConn(id, Conn::Evict::kNone);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) HandleReadable(conn);
      // The connection may have died in HandleReadable.
      if (conns_.find(id) == conns_.end()) continue;
      if ((events[i].events & EPOLLOUT) != 0) HandleWritable(conn);
    }

    DrainCompletions();

    PumpReplication();

    if (!draining_ && drain_requested_.load(std::memory_order_acquire)) {
      // Enter drain: stop accepting (close the listener so the port frees
      // up immediately) and start the clock on in-flight work.
      draining_ = true;
      if (listener_.valid()) {
        (void)epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, listener_.get(),
                        nullptr);
        listener_.Reset();
      }
      drain_deadline_micros_ = std::min(
          config_.drain_deadline_micros,
          drain_deadline_override_micros_.load(std::memory_order_acquire));
      drain_deadline_ = Conn::Clock::now() +
                        std::chrono::microseconds(drain_deadline_micros_);
    }

    SweepDeadlines();

    if (draining_ && DrainFinished()) break;
  }

  // Loop exit: every remaining connection closes now; their in-flight
  // queries were already cancelled by the drain state machine.
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (const uint64_t id : ids) CloseConn(id, Conn::Evict::kNone);
}

void Server::Accept() {
  while (true) {
    UniqueFd fd(accept4(listener_.get(), nullptr, nullptr,
                        SOCK_NONBLOCK | SOCK_CLOEXEC));
    if (!fd.valid()) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // Transient accept errors (EMFILE and friends): count and carry on —
      // the listener stays armed, so recovery is automatic once fds free.
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.accept_faults;
      return;
    }
    if (XMLQ_FAULT("net.accept")) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.accept_faults;
      continue;  // fd closes on scope exit: the injected "accept failed"
    }
    if (conns_.size() >= config_.max_connections) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.accept_rejected_full;
      continue;
    }
    const uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Conn>(id, std::move(fd), config_.limits,
                                       Conn::Clock::now());
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, conn->fd(), &ev) < 0) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.accept_faults;
      continue;
    }
    conns_.emplace(id, std::move(conn));
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.accepted;
    stats_.connections = static_cast<uint32_t>(conns_.size());
  }
}

void Server::HandleReadable(Conn* conn) {
  const uint64_t id = conn->id();
  char buf[64 * 1024];
  while (true) {
    if (XMLQ_FAULT("net.read")) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.read_faults;
      }
      CloseConn(id, Conn::Evict::kNone);
      return;
    }
    const ssize_t n = read(conn->fd(), buf, sizeof(buf));
    if (n > 0) {
      conn->inbuf().append(buf, static_cast<size_t>(n));
      if (!DrainInbuf(conn)) {
        CloseConn(id, Conn::Evict::kNone);
        return;
      }
      conn->NoteRead(Conn::Clock::now(), /*partial_frame=*/
                     !conn->inbuf().empty());
      if (static_cast<size_t>(n) < sizeof(buf)) return;
      continue;  // possibly more data queued
    }
    if (n == 0) {  // orderly peer close
      CloseConn(id, Conn::Evict::kNone);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CloseConn(id, Conn::Evict::kNone);
    return;
  }
}

bool Server::DrainInbuf(Conn* conn) {
  while (true) {
    Frame frame;
    size_t consumed = 0;
    std::string error;
    const DecodeStatus status =
        DecodeFrame(conn->inbuf(), &frame, &consumed, &error,
                    conn->limits().max_frame_bytes);
    if (status == DecodeStatus::kNeedMore) return true;
    if (status == DecodeStatus::kBad || XMLQ_FAULT("net.frame.decode")) {
      // Framing is gone; nothing sent after this point could be attributed
      // to a request, so the only safe move is to close.
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.protocol_errors;
      return false;
    }
    conn->inbuf().erase(0, consumed);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.frames;
    }
    if (!Dispatch(conn, std::move(frame))) return false;
  }
}

bool Server::Dispatch(Conn* conn, Frame frame) {
  switch (frame.type) {
    case FrameType::kPing: {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.pings;
      }
      return QueueResponse(conn, frame.request_id, ResponsePayload{});
    }
    case FrameType::kStats: {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.stats_requests;
      }
      ResponsePayload response;
      const exec::AdmissionStats admission = db_->admission_stats();
      response.retry_after_micros = admission.retry_after_micros;
      response.body = "admission: submitted=" +
                      std::to_string(admission.submitted) +
                      " admitted=" + std::to_string(admission.admitted) +
                      " rejected=" + std::to_string(admission.rejected) +
                      " shed=" + std::to_string(admission.shed) +
                      " running=" + std::to_string(admission.running) +
                      " queued=" + std::to_string(admission.queued) + "\n" +
                      db_->BreakerReport() +
                      db_->plan_cache_stats().ToString() + "\n" +
                      "epoch=" + std::to_string(db_->epoch()) + "\n" +
                      stats().ToString();
      if (config_.extra_stats) response.body += config_.extra_stats();
      return QueueResponse(conn, frame.request_id, response);
    }
    case FrameType::kReplSubscribe: {
      ReplSubscribePayload subscribe;
      ResponsePayload response;
      if (!DecodeReplSubscribe(frame.payload, &subscribe)) {
        response.code = StatusCode::kInvalidArgument;
        response.body = "malformed subscribe payload";
      } else if (draining_) {
        response.code = StatusCode::kResourceExhausted;
        response.retry_after_micros = config_.drain_deadline_micros;
        response.body = "server draining; retry elsewhere";
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.overload_responses;
      } else if (db_->store_dir().empty()) {
        response.code = StatusCode::kInvalidArgument;
        response.body = "no store attached; nothing to replicate";
      } else if (subscribe.epoch > db_->epoch()) {
        // Split-brain fence, primary side (DESIGN.md §14): this subscriber
        // has seen a newer epoch than ours, so *we* are the stale primary.
        // Shipping to it could only rewind a promoted store — refuse.
        response.code = StatusCode::kInvalidArgument;
        response.body = "subscriber epoch " + std::to_string(subscribe.epoch) +
                        " is ahead of this primary's epoch " +
                        std::to_string(db_->epoch()) +
                        ": fenced (a promotion happened elsewhere)";
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.repl_fenced_subscribes;
      } else {
        ReplSub& repl = conn->repl();
        if (!repl.active) {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.repl_subscribers;
        }
        repl = ReplSub{};
        repl.active = true;
        repl.cursor = subscribe.from_generation;
        repl.refetch_generation = subscribe.refetch_generation;
        // UINT64_MAX forces a census heartbeat right after initial catch-up
        // so the follower learns removals it slept through.
        repl.last_heartbeat_generation = UINT64_MAX;
        // The ack carries our epoch: a follower at a higher epoch fences us
        // from the very first exchange, and one at a lower epoch adopts.
        response.body =
            "subscribed from g" + std::to_string(subscribe.from_generation) +
            " epoch=" + std::to_string(db_->epoch());
      }
      return QueueResponse(conn, frame.request_id, response);
    }
    case FrameType::kPromote: {
      if (!config_.on_promote) {
        ResponsePayload response;
        response.code = StatusCode::kInvalidArgument;
        response.body = "promotion is not enabled on this server";
        return QueueResponse(conn, frame.request_id, response);
      }
      // Promotion fsyncs the manifest — run it on a worker so the loop
      // keeps pumping frames and heartbeats for everyone else.
      Job job;
      job.conn_id = conn->id();
      job.request_id = frame.request_id;
      job.promote = true;
      {
        std::lock_guard<std::mutex> lock(jobs_mu_);
        jobs_.push_back(std::move(job));
      }
      jobs_cv_.notify_one();
      return true;
    }
    case FrameType::kCancel: {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.cancels;
      }
      uint64_t target = 0;
      ResponsePayload response;
      if (!DecodeCancelTarget(frame.payload, &target)) {
        response.code = StatusCode::kInvalidArgument;
        response.body = "malformed cancel payload";
      } else if (const auto it = conn->inflight().find(target);
                 it != conn->inflight().end()) {
        // Cancel the token first (covers the not-yet-started window), then
        // go through Database::Cancel so a query parked in the admission
        // queue is woken promptly.
        it->second->token->Cancel();
        const uint64_t query_id =
            it->second->query_id.load(std::memory_order_acquire);
        if (query_id != 0) (void)db_->Cancel(query_id);
        response.body = "cancel signalled";
      } else {
        response.code = StatusCode::kNotFound;
        response.body = "no in-flight request " + std::to_string(target);
      }
      return QueueResponse(conn, frame.request_id, response);
    }
    case FrameType::kQuery:
    case FrameType::kQueryOpts: {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.queries;
      }
      std::string query = std::move(frame.payload);
      if (frame.type == FrameType::kQueryOpts) {
        // The parallelism field is decoded for validation and otherwise
        // ignored: evaluation is serial at any value.
        std::string text;
        uint32_t parallelism = 0;
        if (!DecodeQueryOpts(query, &parallelism, &text)) {
          ResponsePayload response;
          response.code = StatusCode::kInvalidArgument;
          response.body = "malformed query-opts payload";
          return QueueResponse(conn, frame.request_id, response);
        }
        query = std::move(text);
      }
      if (draining_) {
        ResponsePayload response;
        response.code = StatusCode::kResourceExhausted;
        response.retry_after_micros = config_.drain_deadline_micros;
        response.body = "server draining; retry elsewhere";
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.drain_rejects;
          ++stats_.overload_responses;
        }
        return QueueResponse(conn, frame.request_id, response);
      }
      if (conn->inflight().size() >= conn->limits().max_inflight) {
        ResponsePayload response;
        response.code = StatusCode::kResourceExhausted;
        response.retry_after_micros =
            db_->admission_stats().retry_after_micros;
        response.body = "connection in-flight limit (" +
                        std::to_string(conn->limits().max_inflight) +
                        ") reached";
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.inflight_limit_rejects;
          ++stats_.overload_responses;
        }
        return QueueResponse(conn, frame.request_id, response);
      }
      auto [it, inserted] = conn->inflight().emplace(
          frame.request_id, std::make_shared<InflightQuery>());
      if (!inserted) {
        ResponsePayload response;
        response.code = StatusCode::kInvalidArgument;
        response.body = "request id " + std::to_string(frame.request_id) +
                        " already in flight on this connection";
        return QueueResponse(conn, frame.request_id, response);
      }
      Job job;
      job.conn_id = conn->id();
      job.request_id = frame.request_id;
      job.query = std::move(query);
      job.inflight = it->second;
      {
        std::lock_guard<std::mutex> lock(jobs_mu_);
        jobs_.push_back(std::move(job));
      }
      jobs_cv_.notify_one();
      return true;
    }
    case FrameType::kResponse:
    case FrameType::kReplRecord:
    case FrameType::kReplChunk:
    case FrameType::kReplHeartbeat:
      break;  // server->client types only; fall through to protocol error
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.protocol_errors;
  return true;
}

std::string Server::EncodeResponseFrame(
    uint64_t request_id, const ResponsePayload& response) const {
  if (response.body.size() > config_.max_response_bytes) {
    ResponsePayload too_big;
    too_big.code = StatusCode::kResourceExhausted;
    // No retry-after hint: resubmitting the same query yields the same
    // oversized result, so this must not read as a retryable overload.
    too_big.body = "response body too large (" +
                   std::to_string(response.body.size()) + " bytes, cap " +
                   std::to_string(config_.max_response_bytes) + ")";
    return EncodeFrame(FrameType::kResponse, request_id,
                       EncodeResponse(too_big));
  }
  return EncodeFrame(FrameType::kResponse, request_id,
                     EncodeResponse(response));
}

bool Server::QueueResponse(Conn* conn, uint64_t request_id,
                           const ResponsePayload& response) {
  conn->outbuf() += EncodeResponseFrame(request_id, response);
  conn->NoteQueuedWrite(Conn::Clock::now());
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.responses;
  }
  if (!FlushWrites(conn)) return false;  // caller closes; conn still valid
  UpdateEpoll(conn);
  return true;
}

void Server::HandleWritable(Conn* conn) {
  const uint64_t id = conn->id();
  if (!FlushWrites(conn)) {
    CloseConn(id, Conn::Evict::kNone);
    return;
  }
  // Freed outbuf space lets a backpressured subscriber ship its next slice
  // now instead of waiting out the tick.
  if (conn->repl().active && !draining_ && !PumpSubscriber(conn)) {
    CloseConn(id, Conn::Evict::kNone);
    return;
  }
  UpdateEpoll(conn);
}

bool Server::FlushWrites(Conn* conn) {
  while (!conn->outbuf().empty()) {
    if (XMLQ_FAULT("net.write")) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.write_faults;
      return false;
    }
    const ssize_t n = send(conn->fd(), conn->outbuf().data(),
                           conn->outbuf().size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn->outbuf().erase(0, static_cast<size_t>(n));
      conn->NoteWrote(Conn::Clock::now());
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer gone / hard error
  }
  return true;
}

void Server::UpdateEpoll(Conn* conn) {
  epoll_event ev{};
  ev.events = EPOLLIN | (conn->outbuf().empty() ? 0u : EPOLLOUT);
  ev.data.u64 = conn->id();
  (void)epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, conn->fd(), &ev);
}

void Server::CloseConn(uint64_t conn_id, Conn::Evict reason) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn* conn = it->second.get();
  // Cancel whatever this connection still has running: nobody is left to
  // read the answers, and the slots should go to live clients.
  for (auto& [request_id, inflight] : conn->inflight()) {
    inflight->token->Cancel();
    const uint64_t query_id =
        inflight->query_id.load(std::memory_order_acquire);
    if (query_id != 0) (void)db_->Cancel(query_id);
  }
  const bool was_subscriber = conn->repl().active;
  (void)epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, conn->fd(), nullptr);
  conns_.erase(it);  // UniqueFd closes the socket
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.connections = static_cast<uint32_t>(conns_.size());
  if (was_subscriber && stats_.repl_subscribers > 0) {
    --stats_.repl_subscribers;
  }
  switch (reason) {
    case Conn::Evict::kNone: break;
    case Conn::Evict::kIdle: ++stats_.evicted_idle; break;
    case Conn::Evict::kReadDeadline: ++stats_.evicted_read_deadline; break;
    case Conn::Evict::kWriteDeadline: ++stats_.evicted_write_deadline; break;
    case Conn::Evict::kSlowClient: ++stats_.evicted_slow; break;
  }
}

void Server::DrainCompletions() {
  std::deque<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  for (Completion& done : batch) {
    const auto it = conns_.find(done.conn_id);
    if (it == conns_.end()) continue;  // connection died while running
    Conn* conn = it->second.get();
    conn->inflight().erase(done.request_id);
    conn->outbuf() += done.frame;
    conn->NoteQueuedWrite(Conn::Clock::now());
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.responses;
      if (done.overload) ++stats_.overload_responses;
    }
    if (!FlushWrites(conn)) {
      CloseConn(done.conn_id, Conn::Evict::kNone);
      continue;
    }
    UpdateEpoll(conn);
  }
}

// ---------------------------------------------------------------------------
// Replication shipping (DESIGN.md §13)

void Server::PumpReplication() {
  if (draining_) return;  // subscribers re-subscribe against a live primary
  std::vector<uint64_t> doomed;
  for (const auto& [id, conn] : conns_) {
    if (!conn->repl().active) continue;
    if (!PumpSubscriber(conn.get())) doomed.push_back(id);
  }
  for (const uint64_t id : doomed) CloseConn(id, Conn::Evict::kNone);
}

bool Server::PumpSubscriber(Conn* conn) {
  // Ship until the outbuf crosses this low-water mark, then let the socket
  // drain: a slow follower backpressures here, far below the kSlowClient
  // eviction bound, instead of ballooning the write buffer.
  constexpr size_t kOutbufLowWater = 1u << 20;
  ReplSub& repl = conn->repl();
  // Every stream frame carries the current epoch: the follower fences any
  // frame from a lower epoch, so a promotion elsewhere cuts this stream off
  // at the first frame after it (see DESIGN.md §14 on stream ordering).
  const uint64_t epoch = db_->epoch();
  bool queued = false;
  while (conn->outbuf().size() < kOutbufLowWater) {
    if (!repl.shipping && repl.refetch_generation != 0) {
      // Self-heal re-fetch: ship exactly this live generation, below the
      // cursor or not. A generation that is no longer live (replaced or
      // removed since the follower quarantined it) ships nothing — the
      // normal cursor/census machinery delivers its successor instead.
      const uint64_t target = repl.refetch_generation;
      repl.refetch_generation = 0;
      auto delta = db_->ReplDeltaFrom(target - 1);
      if (!delta.ok()) return false;
      for (storage::ManifestRecord& record : delta->pending) {
        if (record.generation != target) continue;
        auto mapped = FileBytes::Map(db_->store_dir() + "/" + record.file);
        if (!mapped.ok() || mapped->size() != record.snapshot_size) break;
        repl.shipping = true;
        repl.record = std::move(record);
        repl.file = std::move(*mapped);
        repl.offset = 0;
        ReplRecordPayload announce;
        announce.op = static_cast<uint32_t>(repl.record.op);
        announce.generation = repl.record.generation;
        announce.snapshot_size = repl.record.snapshot_size;
        announce.snapshot_crc = repl.record.snapshot_crc;
        announce.epoch = epoch;
        announce.name = repl.record.name;
        announce.file = repl.record.file;
        conn->outbuf() += EncodeFrame(FrameType::kReplRecord, 0,
                                      EncodeReplRecord(announce));
        conn->NoteQueuedWrite(Conn::Clock::now());
        queued = true;
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.repl_records_shipped;
        break;
      }
      continue;
    }
    if (!repl.shipping) {
      auto delta = db_->ReplDeltaFrom(repl.cursor);
      if (!delta.ok()) return false;
      if (delta->pending.empty()) {
        // Caught up. Heartbeat when the interval elapsed — or immediately
        // when the manifest clock moved with nothing to ship (a Remove on
        // the primary must not wait out the interval: the census is its
        // only carrier).
        const auto now = Conn::Clock::now();
        if (repl.last_heartbeat_generation != delta->max_generation ||
            now - repl.last_heartbeat >=
                std::chrono::microseconds(config_.repl_heartbeat_micros)) {
          ReplHeartbeatPayload heartbeat;
          heartbeat.epoch = epoch;
          heartbeat.max_generation = delta->max_generation;
          heartbeat.live.reserve(delta->live.size());
          for (auto& [name, generation] : delta->live) {
            heartbeat.live.push_back(
                ReplLiveEntry{std::move(name), generation});
          }
          conn->outbuf() += EncodeFrame(FrameType::kReplHeartbeat, 0,
                                        EncodeReplHeartbeat(heartbeat));
          conn->NoteQueuedWrite(now);
          queued = true;
          repl.last_heartbeat = now;
          repl.last_heartbeat_generation = delta->max_generation;
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.repl_heartbeats;
        }
        break;
      }
      if (XMLQ_FAULT("repl.ship.read")) {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.repl_ship_faults;
        return false;  // link-error model: close; the follower resumes
      }
      storage::ManifestRecord record = std::move(delta->pending.front());
      auto mapped = FileBytes::Map(db_->store_dir() + "/" + record.file);
      if (!mapped.ok() || mapped->size() != record.snapshot_size) {
        // The snapshot vanished (or was replaced) between the manifest read
        // and the map — a concurrent Remove or replace. Skip past it: a
        // replacement ships under a higher generation, and the census
        // heartbeat reconciles removals.
        repl.cursor = record.generation;
        continue;
      }
      repl.shipping = true;
      repl.record = std::move(record);
      repl.file = std::move(*mapped);
      repl.offset = 0;
      ReplRecordPayload announce;
      announce.op = static_cast<uint32_t>(repl.record.op);
      announce.generation = repl.record.generation;
      announce.snapshot_size = repl.record.snapshot_size;
      announce.snapshot_crc = repl.record.snapshot_crc;
      announce.epoch = epoch;
      announce.name = repl.record.name;
      announce.file = repl.record.file;
      conn->outbuf() +=
          EncodeFrame(FrameType::kReplRecord, 0, EncodeReplRecord(announce));
      conn->NoteQueuedWrite(Conn::Clock::now());
      queued = true;
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.repl_records_shipped;
      }
      continue;
    }
    // Mid-shipment: slice the next chunk. The mapping stays valid even if
    // a concurrent replace unlinked the file (generations never share a
    // file name, so the inode cannot be overwritten under the map).
    if (XMLQ_FAULT("repl.ship.send")) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.repl_ship_faults;
      return false;
    }
    if (repl.offset < repl.file.size()) {
      const uint64_t remaining = repl.file.size() - repl.offset;
      const uint64_t take = std::min<uint64_t>(config_.repl_chunk_bytes,
                                               remaining);
      ReplChunkPayload chunk;
      chunk.generation = repl.record.generation;
      chunk.offset = repl.offset;
      chunk.total_size = repl.file.size();
      chunk.epoch = epoch;
      chunk.bytes.assign(repl.file.data() + repl.offset,
                         static_cast<size_t>(take));
      conn->outbuf() +=
          EncodeFrame(FrameType::kReplChunk, 0, EncodeReplChunk(chunk));
      conn->NoteQueuedWrite(Conn::Clock::now());
      queued = true;
      repl.offset += take;
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.repl_chunks_shipped;
      }
    }
    if (repl.offset >= repl.file.size()) {
      // Shipment complete (a zero-byte snapshot completes with no chunks).
      // max(): a self-heal re-fetch ships a generation at or below the
      // cursor and must not rewind it.
      repl.shipping = false;
      repl.cursor = std::max(repl.cursor, repl.record.generation);
      repl.file = FileBytes();  // unmap promptly
    }
  }
  if (queued) {
    if (!FlushWrites(conn)) return false;
    UpdateEpoll(conn);
  }
  return true;
}

void Server::SweepDeadlines() {
  const auto now = Conn::Clock::now();
  std::vector<std::pair<uint64_t, Conn::Evict>> doomed;
  for (const auto& [id, conn] : conns_) {
    const Conn::Evict reason = conn->CheckDeadlines(now);
    if (reason != Conn::Evict::kNone) doomed.emplace_back(id, reason);
  }
  for (const auto& [id, reason] : doomed) CloseConn(id, reason);
}

bool Server::DrainFinished() {
  const auto now = Conn::Clock::now();
  if (!drain_cancelled_inflight_ && now >= drain_deadline_) {
    // Deadline passed: in-flight queries lose their grace period.
    drain_cancelled_inflight_ = true;
    uint64_t cancelled = 0;
    for (const auto& [id, conn] : conns_) {
      for (auto& [request_id, inflight] : conn->inflight()) {
        inflight->token->Cancel();
        const uint64_t query_id =
            inflight->query_id.load(std::memory_order_acquire);
        if (query_id != 0) (void)db_->Cancel(query_id);
        ++cancelled;
      }
    }
    if (cancelled != 0) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.drain_cancelled += cancelled;
    }
  }
  // A connection is done once it has nothing in flight and nothing left to
  // flush. Cancelled queries still post their kCancelled responses first,
  // so "zero lost responses" holds for everything that was admitted.
  std::vector<uint64_t> quiet;
  for (const auto& [id, conn] : conns_) {
    if (conn->inflight().empty() && conn->outbuf().empty()) {
      quiet.push_back(id);
    }
  }
  for (const uint64_t id : quiet) CloseConn(id, Conn::Evict::kNone);
  if (!conns_.empty()) {
    // Past the deadline plus one more full deadline of flush grace, give
    // up: force-close whoever is left (slow readers of their last bytes).
    if (drain_cancelled_inflight_ &&
        now >= drain_deadline_ +
                   std::chrono::microseconds(drain_deadline_micros_)) {
      return true;
    }
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Worker pool

void Server::WorkerLoop() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(jobs_mu_);
      jobs_cv_.wait(lock, [this] { return jobs_stop_ || !jobs_.empty(); });
      if (jobs_.empty()) {
        if (jobs_stop_) return;
        continue;
      }
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    ResponsePayload response;
    if (job.promote) {
      const Result<uint64_t> promoted = config_.on_promote();
      if (promoted.ok()) {
        response.body = "promoted; epoch=" + std::to_string(*promoted);
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.promotes;
      } else {
        response.code = promoted.status().code();
        response.body = promoted.status().message();
      }
      Completion done;
      done.conn_id = job.conn_id;
      done.request_id = job.request_id;
      done.frame = EncodeResponseFrame(job.request_id, response);
      {
        std::lock_guard<std::mutex> lock(completions_mu_);
        completions_.push_back(std::move(done));
      }
      WakeLoop();
      continue;
    }
    if (job.inflight->token->cancelled()) {
      // Cancelled (or its connection died) before the query started.
      response.code = StatusCode::kCancelled;
      response.body = "query cancelled before execution";
    } else {
      api::QueryOptions options;
      options.limits.cancel_token = job.inflight->token;
      options.query_id_out = &job.inflight->query_id;
      auto result = db_->Query(job.query, options);
      if (result.ok()) {
        response.body = api::Database::ToXml(*result);
      } else {
        response.code = result.status().code();
        response.retry_after_micros =
            exec::RetryAfterMicrosFromStatus(result.status());
        response.body = result.status().message();
      }
    }
    Completion done;
    done.conn_id = job.conn_id;
    done.request_id = job.request_id;
    done.overload = response.code == StatusCode::kResourceExhausted &&
                    response.retry_after_micros != 0;
    done.frame = EncodeResponseFrame(job.request_id, response);
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      completions_.push_back(std::move(done));
    }
    WakeLoop();
  }
}

}  // namespace xmlq::net
