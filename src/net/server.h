// NetServer: the epoll network serving front-end (DESIGN.md "Network
// serving front-end").
//
// A small shard of event-loop threads each owns a level-triggered
// epoll set with EPOLLONESHOT re-arm per connection: every readiness
// event disarms the fd until the owning loop finishes handling it and
// re-arms with exactly the interest set the connection's state machine
// wants (EPOLLIN while reading is allowed, EPOLLOUT only while bytes
// are pending — backpressure gating). The listen socket is registered
// in every shard with EPOLLEXCLUSIVE, so the kernel spreads accepts
// across shards and each connection lives its whole life on one loop
// thread. Requests decoded from a connection's read ring flow through
// admission control into the RequestScheduler, so cross-request
// micro-batching coalesces rows *across sockets*; each predict
// completes through the scheduler's callback, on the scheduler worker
// that takes its batch, which encodes the reply bytes into the
// connection's outbound buffer under its write mutex. The socket flush
// is deferred to the end of the scheduler batch (a CompletionScope,
// common/completion_scope.h): one write per connection per batch
// carries every reply the batch owed it, deadline sheds included, and
// the deferred flush holds its own callbacks_outstanding_ token so
// Shutdown cannot free the server under it. Only admission sheds,
// resolved on the loop thread outside any batch, flush at once. The
// event loop is only involved when the socket pushes back (EPOLLOUT)
// or the connection is winding down.
//
// Connection lifecycle is explicit state-machine code:
//
//   kOpen            reading frames, dispatching, writing replies
//   kPeerHalfClosed  read() hit EOF (client shutdown(SHUT_WR)); no
//                    more reads, but every in-flight request still
//                    gets its reply flushed before close
//   kClosed          fd closed (set under write_mu so a completion can
//                    never write to a recycled descriptor)
//
// and a connection dies immediately on: unframeable input (bad
// magic/version, or a declared frame length over max_frame_bytes —
// the cap is checked *before* any buffer growth, so a hostile length
// can never balloon memory), a write error, or idle timeout. Server
// shutdown drains: admission stops, in-flight replies flush, bounded
// by drain_timeout_ms.

#ifndef RELSERVE_NET_SERVER_H_
#define RELSERVE_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/counter.h"
#include "common/result.h"
#include "net/buffer.h"
#include "net/wire.h"
#include "serving/request_scheduler.h"
#include "serving/serving_session.h"

namespace relserve {
namespace net {

struct NetServerConfig {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  // 0 = kernel-assigned; NetServer::port() reports
  int backlog = 511;
  // Frames whose declared length exceeds this close the connection
  // (ProtocolError) instead of allocating unbounded buffers.
  int64_t max_frame_bytes = 64LL << 20;
  // Close connections with no traffic for this long; 0 = never.
  int64_t idle_timeout_ms = 0;
  // Stop reading from a connection whose outbound buffer exceeds this
  // (EPOLLOUT-gated backpressure); reading resumes once drained.
  int64_t write_buffer_limit = 8LL << 20;
  // Live-connection cap across all shards: an accept past the cap is
  // answered with a best-effort typed Unavailable frame and closed
  // immediately, so a well-behaved client can tell "server full" from
  // a network failure. 0 = unlimited.
  int64_t max_connections = 0;
  // Total buffered bytes (read ring + pending replies) one connection
  // may hold; past it the connection gets a typed ProtocolError reply
  // and is closed. Bounds what one abusive peer can pin regardless of
  // max_frame_bytes and write_buffer_limit. 0 = unlimited.
  int64_t max_conn_memory_bytes = 0;
  // Event-loop shards; connections are spread across them by
  // EPOLLEXCLUSIVE accept. 0 = pick from hardware_concurrency (extra
  // shards on a small machine just add context switches). Clamped to
  // >= 1.
  int num_loops = 0;
  // Shutdown drain budget: how long to keep flushing pending replies.
  int64_t drain_timeout_ms = 5000;
};

struct NetServerStats {
  Counter connections_accepted;
  Counter connections_closed;
  Counter frames_in;
  Counter frames_out;
  Counter bytes_in;
  Counter bytes_out;
  Counter protocol_errors;
  Counter idle_closed;
  Counter connections_refused;  // accepts refused at max_connections
  Counter memory_closed;  // closed for exceeding max_conn_memory_bytes
  Counter write_calls;    // successful socket writes of reply bytes
  Counter loop_parks;     // blocking epoll_waits (the spin found nothing)

  template <typename F>
  void ForEachField(F&& f) const {
    f("connections_accepted", connections_accepted);
    f("connections_closed", connections_closed);
    f("frames_in", frames_in);
    f("frames_out", frames_out);
    f("bytes_in", bytes_in);
    f("bytes_out", bytes_out);
    f("protocol_errors", protocol_errors);
    f("idle_closed", idle_closed);
    f("connections_refused", connections_refused);
    f("memory_closed", memory_closed);
    f("write_calls", write_calls);
    f("loop_parks", loop_parks);
  }
};

class NetServer {
 public:
  // Binds, listens, spawns the event-loop shards.
  // `session` and `scheduler` must outlive the server.
  static Result<std::unique_ptr<NetServer>> Start(
      ServingSession* session, RequestScheduler* scheduler,
      NetServerConfig config);

  ~NetServer();  // implies Shutdown()

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // The bound port (resolves config.port == 0).
  uint16_t port() const { return port_; }

  // Stops accepting, drains in-flight requests and pending reply
  // bytes (bounded by drain_timeout_ms), closes every connection,
  // joins all threads. Idempotent.
  void Shutdown();

  NetServerStats stats() const { return stats_; }

  // The stats-opcode JSON: one object per stats struct (scheduler,
  // server, dedup, exec, buffer_pool), each rendered by RenderJson.
  std::string StatsJson() const;

 private:
  struct EventLoop;

  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    EventLoop* loop = nullptr;  // owning shard, fixed at accept
    enum class State { kOpen, kPeerHalfClosed, kClosed };
    // Written by the owning loop thread (kClosed under write_mu, so
    // close never races a completion holding the lock); read freely
    // by the loop, under write_mu by completions.
    State state = State::kOpen;
    Buffer in;  // owning loop thread only
    // The write side is shared: completions encode replies into `out`
    // and the end of their scheduler batch flushes the socket directly
    // — the hot path never detours through the event loop. write_mu
    // serializes out/fd writes and gates them against close (fd reuse
    // is the hazard: a write after ::close could land on a recycled
    // descriptor).
    std::mutex write_mu;
    Buffer out;
    bool broken = false;  // fatal write error seen by a completion
    // Requests submitted to the scheduler whose replies are not yet
    // flushed; a connection can only drain-close at zero (completions
    // hold a shared_ptr anyway — this gates *drain*, not lifetime).
    std::atomic<int64_t> inflight{0};
    // True while the connection sits in its loop's pending list: one
    // entry per flush round no matter how many completions request one.
    std::atomic<bool> pending{false};
    bool reading_paused = false;  // backpressure: out over the limit
    std::atomic<int64_t> last_activity_ms{0};
  };

  // One epoll shard. Its conns map, accepting flag, and drain state
  // are touched only by its own thread; the pending list is the
  // completion → loop handoff.
  struct EventLoop {
    int epoll_fd = -1;
    int wake_pipe[2] = {-1, -1};
    std::unordered_map<uint64_t, std::shared_ptr<Connection>> conns;
    // Connections a completion wants the loop to look at (backlogged,
    // broken, or drain-eligible writes).
    std::mutex pending_mu;
    std::vector<std::shared_ptr<Connection>> pending_writes;
    // Collapses completion wakeups: one self-pipe byte per loop
    // iteration, not one per completed request.
    std::atomic<bool> wake_pending{false};
    std::thread thread;
  };

  NetServer(ServingSession* session, RequestScheduler* scheduler,
            NetServerConfig config);

  Status Listen();
  void LoopThread(EventLoop* loop);
  // Encodes `result` for `request_id` into conn->out and defers the
  // socket flush to the end of the resolving thread's CompletionScope
  // (once per connection per scheduler batch; at once with no scope
  // open). Called from the thread that resolved the request.
  void CompleteRequest(const std::shared_ptr<Connection>& conn,
                       uint64_t request_id, Result<Tensor> result);
  // Flushes the replies completions queued on `conn` under
  // conn->write_mu, and nudges the owning loop only when it has work
  // (backlog, broken socket, or a drain-eligible connection). A closed
  // connection is skipped.
  void FlushCompleted(const std::shared_ptr<Connection>& conn);
  // Drops one callbacks_outstanding_ token, waking Shutdown at zero.
  void ReleaseCallback();

  void AcceptAll(EventLoop* loop);
  // Handles one epoll event for `conn`; afterwards the fd is either
  // re-armed with the state machine's interest set or closed.
  void HandleEvent(const std::shared_ptr<Connection>& conn,
                   uint32_t events);
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  // Parses and dispatches every complete frame in conn->in. Returns
  // false when the connection must close (unframeable input).
  bool DrainFrames(const std::shared_ptr<Connection>& conn);
  // One frame (header already sliced off the length prefix).
  bool DispatchFrame(const std::shared_ptr<Connection>& conn,
                     const char* frame, size_t len);
  // The one reply path: under conn->write_mu, appends one frame with
  // `append(&conn->out)` and counts it in frames_out, so the counter
  // cannot drift from the frames queued. A closed connection gets
  // nothing. Returns the held lock so the caller can flush in the same
  // critical section.
  template <typename Append>
  std::unique_lock<std::mutex> QueueReply(Connection* conn,
                                          const Append& append);
  // Unframeable or over-budget input: counts a protocol error, sends
  // `status` as a best-effort error reply (request id unknown: 0) and
  // closes the connection.
  void FailConnection(const std::shared_ptr<Connection>& conn,
                      const Status& status);
  // Flushes conn->out to the socket; write_mu must be held. Returns
  // false on a fatal write error (the caller closes / marks broken).
  bool FlushLocked(Connection* conn);
  // Lock-acquiring wrapper used by the event loop.
  void FlushWrites(const std::shared_ptr<Connection>& conn);
  void RearmOrClose(const std::shared_ptr<Connection>& conn);
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  void SweepIdle(EventLoop* loop);
  void WakeLoop(EventLoop* loop);

  ServingSession* session_;
  RequestScheduler* scheduler_;
  NetServerConfig config_;
  NetServerStats stats_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;

  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<uint64_t> next_conn_id_{1};
  // Live connections across all shards; the accept cap reserves a
  // slot (fetch_add) before admitting, so the cap is exact even with
  // EPOLLEXCLUSIVE spreading accepts across loops.
  std::atomic<int64_t> live_conns_{0};

  std::atomic<bool> stopping_{false};
  // Completions still running inside scheduler threads, plus deferred
  // reply flushes not yet run (each holds its own token); Shutdown
  // waits for zero so neither can touch a freed server (the scheduler
  // may outlive us and fire late sheds).
  std::atomic<int64_t> callbacks_outstanding_{0};
  std::mutex cb_mu_;
  std::condition_variable cb_cv_;
  std::mutex shutdown_mu_;
  bool shut_down_ = false;
};

}  // namespace net
}  // namespace relserve

#endif  // RELSERVE_NET_SERVER_H_
