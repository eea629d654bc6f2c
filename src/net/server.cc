#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/completion_scope.h"
#include "common/failpoint.h"
#include "common/idle_spin.h"
#include "common/io_util.h"

namespace relserve {
namespace net {

namespace {

// Per-readiness-event read budget: level-triggered + re-arm means a
// firehose connection simply fires again, so capping one event keeps
// the loop fair across hundreds of sockets.
constexpr size_t kReadChunk = 64 * 1024;
constexpr int64_t kMaxReadPerEvent = 1 << 20;

// Bit-flips land in the magic/version bytes so an injected corrupt
// frame is always *detectably* corrupt (a payload flip would be
// silent wrong bits — the opposite of what the fuzz test asserts).
constexpr size_t kCorruptRegionBytes = 5;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Result<std::unique_ptr<NetServer>> NetServer::Start(
    ServingSession* session, RequestScheduler* scheduler,
    NetServerConfig config) {
  std::unique_ptr<NetServer> server(
      new NetServer(session, scheduler, config));
  RELSERVE_RETURN_NOT_OK(server->Listen());
  for (auto& loop : server->loops_) {
    loop->thread =
        std::thread(&NetServer::LoopThread, server.get(), loop.get());
  }
  return server;
}

NetServer::NetServer(ServingSession* session,
                     RequestScheduler* scheduler, NetServerConfig config)
    : session_(session),
      scheduler_(scheduler),
      config_(config) {}

NetServer::~NetServer() { Shutdown(); }

Status NetServer::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK |
                                     SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") +
                           std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
               sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(),
                  &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad bind address " +
                                   config_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::IOError(std::string("bind: ") +
                           std::strerror(errno));
  }
  if (::listen(listen_fd_, config_.backlog) != 0) {
    return Status::IOError(std::string("listen: ") +
                           std::strerror(errno));
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    return Status::IOError(std::string("getsockname: ") +
                           std::strerror(errno));
  }
  port_ = ntohs(addr.sin_port);

  int num_loops = config_.num_loops;
  if (num_loops <= 0) {
    // One shard per ~4 cores, capped: the loops only read, decode,
    // and re-arm (scheduler threads write replies), so a few go a
    // long way — and on a small machine extra shards are pure
    // context-switch overhead.
    const unsigned hw = std::thread::hardware_concurrency();
    num_loops = std::max(1, std::min(4, static_cast<int>(hw / 4)));
  }
  loops_.reserve(num_loops);
  for (int i = 0; i < num_loops; ++i) {
    auto loop = std::make_unique<EventLoop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (loop->epoll_fd < 0) {
      return Status::IOError(std::string("epoll_create1: ") +
                             std::strerror(errno));
    }
    if (::pipe2(loop->wake_pipe, O_NONBLOCK | O_CLOEXEC) != 0) {
      return Status::IOError(std::string("pipe2: ") +
                             std::strerror(errno));
    }
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    // EPOLLEXCLUSIVE: one shard wakes per pending accept, and the
    // kernel spreads connections across shards for us — no handoff
    // machinery between loops.
    ev.events = EPOLLIN | EPOLLEXCLUSIVE;
    ev.data.u64 = 0;  // 0 = the listen socket
    if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev) !=
        0) {
      return Status::IOError(std::string("epoll_ctl(listen): ") +
                             std::strerror(errno));
    }
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.u64 = 1;  // 1 = the wakeup pipe
    if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_pipe[0],
                    &ev) != 0) {
      return Status::IOError(std::string("epoll_ctl(wake): ") +
                             std::strerror(errno));
    }
    loops_.push_back(std::move(loop));
  }
  return Status::OK();
}

void NetServer::WakeLoop(EventLoop* loop) {
  // Collapse bursts: the loop clears wake_pending before draining, so
  // exactly one byte is in flight per loop iteration no matter how
  // many completions land meanwhile.
  if (loop->wake_pending.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  const char byte = 1;
  // Nonblocking; a full pipe already guarantees a pending wakeup.
  (void)io::WriteSome(loop->wake_pipe[1], &byte, 1);
}

void NetServer::AcceptAll(EventLoop* loop) {
  while (true) {
    const int fd = static_cast<int>(io::RetryEintr([&] {
      return ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    }));
    if (fd < 0) return;  // EAGAIN (or transient accept failure)
    const int64_t live =
        live_conns_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (config_.max_connections > 0 &&
        live > config_.max_connections) {
      live_conns_.fetch_sub(1, std::memory_order_acq_rel);
      // Counted before the refusal becomes observable: a client that
      // has read the frame and EOF must already see it in stats().
      stats_.connections_refused.Add();
      // Typed refusal so the client can distinguish "server full"
      // from a network failure. Best-effort single write: if the
      // socket won't take the bytes we close regardless.
      Buffer refusal;
      AppendErrorReply(
          0, Opcode::kPing,
          Status::Unavailable("connection limit reached (" +
                              std::to_string(config_.max_connections) +
                              ")"),
          &refusal);
      (void)io::WriteSome(fd, refusal.data(), refusal.size());
      ::close(fd);
      continue;
    }
    const int one = 1;
    // Replies are small frames on a request/response cycle; Nagle
    // would add 40ms to every closed-loop client.
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    conn->loop = loop;
    conn->last_activity_ms.store(NowMs(), std::memory_order_relaxed);
    loop->conns.emplace(conn->id, conn);
    stats_.connections_accepted.Add();

    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;
    ev.data.u64 = conn->id + 2;  // ids 0/1 are listen/wake
    if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      CloseConnection(conn);
    }
  }
}

void NetServer::CloseConnection(
    const std::shared_ptr<Connection>& conn) {
  if (conn->state == Connection::State::kClosed) return;
  ::epoll_ctl(conn->loop->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  {
    // Under write_mu so the close can never race a completion's
    // direct write — after this, completions see kClosed and skip.
    std::lock_guard<std::mutex> lock(conn->write_mu);
    conn->state = Connection::State::kClosed;
    ::close(conn->fd);
  }
  conn->loop->conns.erase(conn->id);
  live_conns_.fetch_sub(1, std::memory_order_acq_rel);
  stats_.connections_closed.Add();
}

bool NetServer::FlushLocked(Connection* conn) {
  while (!conn->out.empty()) {
    const ssize_t n = io::WriteSome(conn->fd, conn->out.data(),
                                    conn->out.size());
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;  // peer reset mid-write
    }
    conn->out.Consume(static_cast<size_t>(n));
    stats_.write_calls.Add();
    stats_.bytes_out.Add(n);
  }
  conn->last_activity_ms.store(NowMs(), std::memory_order_relaxed);
  return true;
}

void NetServer::FlushWrites(const std::shared_ptr<Connection>& conn) {
  size_t backlog = 0;
  bool broken = false;
  {
    // `broken` is read here, under the lock a completion sets it under.
    std::lock_guard<std::mutex> lock(conn->write_mu);
    if (conn->state == Connection::State::kClosed) return;
    if (!FlushLocked(conn.get())) conn->broken = true;
    broken = conn->broken;
    backlog = conn->out.size();
  }
  if (broken) {
    // Unlocked first: CloseConnection retakes write_mu.
    CloseConnection(conn);
    return;
  }
  // Backpressure: a connection that won't drain its replies stops
  // being read until it does — the client can't run the server out
  // of reply memory by never reading.
  conn->reading_paused =
      static_cast<int64_t>(backlog) > config_.write_buffer_limit;
}

template <typename Append>
std::unique_lock<std::mutex> NetServer::QueueReply(Connection* conn,
                                                   const Append& append) {
  std::unique_lock<std::mutex> lock(conn->write_mu);
  if (conn->state != Connection::State::kClosed) {
    append(&conn->out);
    stats_.frames_out.Add();
  }
  return lock;
}

void NetServer::FailConnection(const std::shared_ptr<Connection>& conn,
                               const Status& status) {
  stats_.protocol_errors.Add();
  {
    auto lock = QueueReply(conn.get(), [&](Buffer* out) {
      AppendErrorReply(0, Opcode::kPing, status, out);
    });
    FlushLocked(conn.get());  // best-effort: we close either way
  }
  CloseConnection(conn);
}

bool NetServer::DispatchFrame(const std::shared_ptr<Connection>& conn,
                              const char* frame, size_t len) {
  Result<FrameHeader> header_or = DecodeFrameHeader(frame, len);
  if (!header_or.ok()) {
    // Unframeable: the stream has no trustworthy boundaries past this
    // point.
    FailConnection(conn, header_or.status());
    return false;
  }
  const FrameHeader header = *header_or;
  const char* body = frame + kFrameHeaderBytes;
  const size_t body_len = len - kFrameHeaderBytes;
  stats_.frames_in.Add();
  // A typed error reply to this request; the framing is still sound.
  auto reply_error = [&](const Status& status) {
    QueueReply(conn.get(), [&](Buffer* out) {
      AppendErrorReply(header.request_id, header.opcode, status, out);
    });
    return true;
  };

  switch (header.opcode) {
    case Opcode::kPing:
      QueueReply(conn.get(), [&](Buffer* out) {
        AppendPingFrame(header.request_id, /*is_reply=*/true, out);
      });
      return true;
    case Opcode::kStats: {
      const std::string json = StatsJson();
      QueueReply(conn.get(), [&](Buffer* out) {
        AppendTextReply(header.request_id, Opcode::kStats, Status::OK(),
                        json, out);
      });
      return true;
    }
    case Opcode::kDeploy: {
      Result<DeployRequest> req_or =
          DecodeDeployRequest(body, body_len);
      if (!req_or.ok()) {
        stats_.protocol_errors.Add();
        return reply_error(req_or.status());
      }
      static constexpr ServingMode kModes[] = {
          ServingMode::kAdaptive, ServingMode::kForceUdf,
          ServingMode::kForceRelational};
      // Deploy compiles a plan (tens of microseconds) inline on the
      // loop thread; it is a control-plane rarity, not a hot path.
      const Status status =
          session_
              ->Deploy(req_or->model, kModes[req_or->mode],
                       req_or->batch_size)
              .status();
      QueueReply(conn.get(), [&](Buffer* out) {
        AppendTextReply(header.request_id, Opcode::kDeploy, status,
                        status.ok() ? "deployed" : status.message(), out);
      });
      return true;
    }
    case Opcode::kPredict: {
      Result<PredictRequest> req_or =
          DecodePredictRequest(body, body_len);
      if (!req_or.ok()) {
        stats_.protocol_errors.Add();
        return reply_error(req_or.status());
      }
      // The single ingress copy: payload bytes leave the read ring
      // straight into an aligned Tensor the coalescer/GEMM tile path
      // consumes — no Row boxing in between.
      Result<Tensor> input_or = PredictInputTensor(*req_or);
      if (!input_or.ok()) return reply_error(input_or.status());
      conn->inflight.fetch_add(1, std::memory_order_acq_rel);
      // Whichever thread resolves the request encodes the reply right
      // there: a scheduler worker, inside its batch's completion scope,
      // for results and deadline sheds; this very thread, flushing at
      // once, for admission sheds.
      const uint64_t request_id = header.request_id;
      callbacks_outstanding_.fetch_add(1, std::memory_order_acq_rel);
      scheduler_->SubmitBatchCallback(
          req_or->model, std::move(*input_or), req_or->deadline_us,
          [this, conn, request_id](Result<Tensor> result) {
            CompleteRequest(conn, request_id, std::move(result));
            ReleaseCallback();
          });
      return true;
    }
  }
  return true;
}

bool NetServer::DrainFrames(const std::shared_ptr<Connection>& conn) {
  while (conn->in.size() >= kLenPrefixBytes) {
    uint32_t frame_len = 0;
    std::memcpy(&frame_len, conn->in.data(), sizeof(frame_len));
    if (frame_len < kFrameHeaderBytes ||
        static_cast<int64_t>(frame_len) > config_.max_frame_bytes) {
      // The cap is enforced on the *declared* length, before any
      // buffer ever grows toward it.
      FailConnection(
          conn, Status::ProtocolError(
                    "declared frame length " + std::to_string(frame_len) +
                    " outside [16, " +
                    std::to_string(config_.max_frame_bytes) + "]"));
      return false;
    }
    if (conn->in.size() < kLenPrefixBytes + frame_len) {
      return true;  // partial frame: wait for more bytes
    }
    char* frame = conn->in.mutable_data() + kLenPrefixBytes;
    if (failpoint::AnyActive()) {
      const failpoint::Eval eval =
          failpoint::Evaluate("net.frame.corrupt");
      if (eval.fired) {
        const size_t bit =
            eval.payload % (kCorruptRegionBytes * 8);
        frame[bit / 8] ^= static_cast<char>(1u << (bit % 8));
      }
    }
    const bool alive = DispatchFrame(conn, frame, frame_len);
    if (!alive) return false;
    conn->in.Consume(kLenPrefixBytes + frame_len);
  }
  return true;
}

void NetServer::HandleReadable(
    const std::shared_ptr<Connection>& conn) {
  int64_t read_this_event = 0;
  while (read_this_event < kMaxReadPerEvent) {
    char* span = conn->in.WritableSpan(kReadChunk);
    const ssize_t n =
        io::ReadSome(conn->fd, span, kReadChunk, "net.read.short");
    if (n > 0) {
      conn->in.CommitWrite(static_cast<size_t>(n));
      stats_.bytes_in.Add(n);
      read_this_event += n;
      conn->last_activity_ms.store(NowMs(), std::memory_order_relaxed);
      // A short read means the kernel buffer is drained: skip the
      // would-be-EAGAIN syscall. Level-triggered epoll re-fires if
      // more bytes race in behind us.
      if (static_cast<size_t>(n) < kReadChunk) break;
      continue;
    }
    if (n == 0) {
      // Peer half-closed its write side: no more requests will
      // arrive, but every in-flight one still gets its reply. Under
      // write_mu: completions read `state` under it to decide whether
      // a draining connection needs the loop.
      std::lock_guard<std::mutex> lock(conn->write_mu);
      conn->state = Connection::State::kPeerHalfClosed;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(conn);
    return;
  }
  if (config_.max_conn_memory_bytes > 0) {
    int64_t total;
    {
      std::lock_guard<std::mutex> lock(conn->write_mu);
      total = static_cast<int64_t>(conn->in.size() + conn->out.size());
    }
    if (total > config_.max_conn_memory_bytes) {
      // One peer pinning more than its share of buffer memory (giant
      // partial frames plus unread replies) is closed outright — the
      // per-frame and write-buffer caps bound each side, this bounds
      // their sum.
      stats_.memory_closed.Add();
      FailConnection(
          conn, Status::ProtocolError(
                    "connection buffers (" + std::to_string(total) +
                    " bytes) exceed max_conn_memory_bytes " +
                    std::to_string(config_.max_conn_memory_bytes)));
      return;
    }
  }
  if (!DrainFrames(conn)) return;  // closed on protocol error
  FlushWrites(conn);
}

void NetServer::RearmOrClose(const std::shared_ptr<Connection>& conn) {
  if (conn->state == Connection::State::kClosed) return;
  // Order matters: a completion appends the reply *before* it drops
  // inflight, so inflight==0 observed first means every owed reply is
  // already in `out` (or flushed) by the time we check it.
  const int64_t inflight =
      conn->inflight.load(std::memory_order_acquire);
  bool out_empty;
  bool broken;
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    out_empty = conn->out.empty();
    broken = conn->broken;
  }
  if (broken) {
    CloseConnection(conn);
    return;
  }
  // A half-closed (or draining) connection with nothing left to send
  // and nothing in flight is done.
  const bool draining =
      conn->state == Connection::State::kPeerHalfClosed ||
      stopping_.load(std::memory_order_acquire);
  if (draining && inflight == 0 && out_empty) {
    CloseConnection(conn);
    return;
  }
  // EPOLLRDHUP only while open: after the peer's half-close it stays
  // asserted, so arming it would spin the loop until the last reply.
  uint32_t events = EPOLLONESHOT;
  if (conn->state == Connection::State::kOpen) {
    events |= EPOLLRDHUP;
    if (!conn->reading_paused &&
        !stopping_.load(std::memory_order_acquire)) {
      events |= EPOLLIN;
    }
  }
  if (!out_empty) events |= EPOLLOUT;
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = events;
  ev.data.u64 = conn->id + 2;
  if (::epoll_ctl(conn->loop->epoll_fd, EPOLL_CTL_MOD, conn->fd,
                  &ev) != 0) {
    CloseConnection(conn);
  }
}

void NetServer::HandleEvent(const std::shared_ptr<Connection>& conn,
                            uint32_t events) {
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    // Flush what we can (the peer may only have reset one side).
    FlushWrites(conn);
    CloseConnection(conn);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    FlushWrites(conn);
    if (conn->state == Connection::State::kClosed) return;
  }
  if ((events & (EPOLLIN | EPOLLRDHUP)) != 0 &&
      conn->state == Connection::State::kOpen) {
    HandleReadable(conn);
    if (conn->state == Connection::State::kClosed) return;
  }
  RearmOrClose(conn);
}

void NetServer::SweepIdle(EventLoop* loop) {
  if (config_.idle_timeout_ms <= 0) return;
  const int64_t now = NowMs();
  std::vector<std::shared_ptr<Connection>> idle;
  for (const auto& [id, conn] : loop->conns) {
    if (conn->inflight.load(std::memory_order_acquire) != 0) continue;
    if (now - conn->last_activity_ms.load(std::memory_order_relaxed) <=
        config_.idle_timeout_ms) {
      continue;
    }
    bool out_empty;
    {
      std::lock_guard<std::mutex> lock(conn->write_mu);
      out_empty = conn->out.empty();
    }
    if (out_empty) idle.push_back(conn);
  }
  for (const auto& conn : idle) {
    stats_.idle_closed.Add();
    CloseConnection(conn);
  }
}

void NetServer::LoopThread(EventLoop* loop) {
  constexpr int kMaxEvents = 256;
  epoll_event events[kMaxEvents];
  int64_t drain_deadline_ms = 0;
  bool accepting = true;
  IdleSpin idle;

  while (true) {
    const bool stopping = stopping_.load(std::memory_order_acquire);
    if (stopping && accepting) {
      // Drain phase: stop accepting, stop reading, flush what's owed.
      ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
      accepting = false;
      drain_deadline_ms = NowMs() + config_.drain_timeout_ms;
    }
    if (stopping && !accepting) {
      // Completions flush fully-drained replies without waking the
      // loop, so drain progress (inflight hitting zero) is polled:
      // the 10ms epoll timeout below bounds the polling latency.
      std::vector<std::shared_ptr<Connection>> all;
      all.reserve(loop->conns.size());
      for (const auto& [id, conn] : loop->conns) all.push_back(conn);
      for (const auto& conn : all) {
        FlushWrites(conn);
        if (conn->state == Connection::State::kClosed) continue;
        RearmOrClose(conn);
      }
    }
    if (stopping &&
        (loop->conns.empty() || NowMs() >= drain_deadline_ms)) {
      break;
    }

    // Spin, then park (common/idle_spin.h): poll without blocking for
    // up to the spin budget, so a request that follows its
    // predecessor closely costs no epoll wake-up. The drain does not
    // spin; it polls on its own timer.
    const auto wait = [&](int timeout_ms) {
      return static_cast<int>(io::RetryEintr([&] {
        return ::epoll_wait(loop->epoll_fd, events, kMaxEvents,
                            timeout_ms);
      }));
    };
    int n = 0;
    if (!stopping) {
      idle.Begin();
      idle.Spin([&] { return (n = wait(0)) > 0; });
    }
    if (n <= 0) {
      stats_.loop_parks.Add();
      n = wait(stopping ? 10 : (config_.idle_timeout_ms > 0 ? 20 : 200));
    }
    if (n > 0) idle.End(IdleSpin::Clock::now());
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == 0) {
        if (accepting) AcceptAll(loop);
        continue;
      }
      if (tag == 1) {
        // Clear before draining: a completion nudging after this point
        // writes a fresh byte and the next iteration picks it up.
        loop->wake_pending.store(false, std::memory_order_release);
        char sink[256];
        while (io::ReadSome(loop->wake_pipe[0], sink, sizeof(sink)) >
               0) {
        }
        continue;
      }
      auto it = loop->conns.find(tag - 2);
      if (it == loop->conns.end()) continue;  // closed pre-dispatch
      // Copy out of the map: CloseConnection erases the entry while
      // HandleEvent is still running, which would leave a reference
      // into a destroyed map node.
      const std::shared_ptr<Connection> conn = it->second;
      HandleEvent(conn, events[i].events);
    }

    // Completion nudges: connections with backlogged, broken, or
    // drain-eligible write sides.
    std::vector<std::shared_ptr<Connection>> pending;
    {
      std::lock_guard<std::mutex> lock(loop->pending_mu);
      pending.swap(loop->pending_writes);
    }
    for (const auto& conn : pending) {
      // Cleared before the flush: a completion landing mid-flush
      // re-queues the connection for the next round.
      conn->pending.store(false, std::memory_order_release);
      if (conn->state == Connection::State::kClosed) continue;
      FlushWrites(conn);
      if (conn->state == Connection::State::kClosed) continue;
      RearmOrClose(conn);
    }

    SweepIdle(loop);
  }

  // Exit: anything still open is past the drain budget.
  std::vector<std::shared_ptr<Connection>> rest;
  rest.reserve(loop->conns.size());
  for (const auto& [id, conn] : loop->conns) rest.push_back(conn);
  for (const auto& conn : rest) CloseConnection(conn);
}

void NetServer::CompleteRequest(
    const std::shared_ptr<Connection>& conn, uint64_t request_id,
    Result<Tensor> result) {
  QueueReply(conn.get(), [&](Buffer* out) {
    if (result.ok()) {
      AppendPredictOkReply(request_id, *result, out);
    } else {
      AppendErrorReply(request_id, Opcode::kPredict, result.status(), out);
    }
  });
  // The reply is in `out` before inflight drops: RearmOrClose relies on
  // it.
  conn->inflight.fetch_sub(1, std::memory_order_acq_rel);
  // One flush per connection per scheduler batch: every reply the batch
  // queued here leaves in one write once the batch's last callback has
  // run. The flush may outlive this callback, so it holds a token of
  // its own until it has run.
  callbacks_outstanding_.fetch_add(1, std::memory_order_acq_rel);
  const bool flush_queued = CompletionScope::Defer(conn.get(), [this, conn] {
    FlushCompleted(conn);
    ReleaseCallback();
  });
  if (!flush_queued) ReleaseCallback();  // an earlier reply's flush covers us
}

void NetServer::FlushCompleted(const std::shared_ptr<Connection>& conn) {
  bool need_loop = false;
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    if (conn->state == Connection::State::kClosed) return;
    // The hot path: flush straight to the socket from right here. The
    // event loop is only involved when the socket pushes back (EPOLLOUT
    // arming), the write fails, or the connection is winding down — a
    // fully flushed reply on an open connection costs zero loop work
    // and zero wakeups. A broken socket is not written again: the loop
    // closes it.
    if (!conn->broken && !FlushLocked(conn.get())) conn->broken = true;
    need_loop = conn->broken || !conn->out.empty() ||
                conn->state != Connection::State::kOpen;
  }
  if (need_loop &&
      !conn->pending.exchange(true, std::memory_order_acq_rel)) {
    {
      std::lock_guard<std::mutex> lock(conn->loop->pending_mu);
      conn->loop->pending_writes.push_back(conn);
    }
    WakeLoop(conn->loop);
  }
}

void NetServer::ReleaseCallback() {
  if (callbacks_outstanding_.fetch_sub(1, std::memory_order_acq_rel) ==
      1) {
    std::lock_guard<std::mutex> lock(cb_mu_);
    cb_cv_.notify_all();
  }
}

std::string NetServer::StatsJson() const {
  // Cross-model weight dedup: live shared-block state of the
  // session's PhysicalBlockIndex (all zeros when dedup is off).
  PhysicalBlockStats dedup;
  if (session_->block_index() != nullptr) {
    dedup = session_->block_index()->stats();
  }
  const ExecContext* ctx = session_->exec_context();
  return "{\"scheduler\":" + RenderJson(scheduler_->stats()) +
         ",\"server\":" + RenderJson(stats_) +
         ",\"dedup\":" + RenderJson(dedup) +
         ",\"exec\":" + RenderJson(ctx->stats) +
         ",\"buffer_pool\":" + RenderJson(ctx->buffer_pool->stats()) +
         "}";
}

void NetServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  stopping_.store(true, std::memory_order_release);
  for (auto& loop : loops_) WakeLoop(loop.get());
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  {
    // Wait out completions still running on scheduler threads (the
    // scheduler resolves every admitted request in bounded time,
    // shutdown or not). After this, no scheduler thread holds a
    // reference into the server.
    std::unique_lock<std::mutex> lock(cb_mu_);
    cb_cv_.wait(lock, [this] {
      return callbacks_outstanding_.load(std::memory_order_acquire) ==
             0;
    });
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  for (auto& loop : loops_) {
    if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
    if (loop->wake_pipe[0] >= 0) ::close(loop->wake_pipe[0]);
    if (loop->wake_pipe[1] >= 0) ::close(loop->wake_pipe[1]);
    loop->epoll_fd = loop->wake_pipe[0] = loop->wake_pipe[1] = -1;
  }
}

}  // namespace net
}  // namespace relserve
