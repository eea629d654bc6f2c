// wire_predict: 1-row predicts on the 28-256-2 fraud FFNN over four
// loopback connections into an in-process NetServer. One epoll
// generator thread drives every connection in closed bursts: it sends
// a fixed number of requests, waits for all their replies, and sends
// the next burst.
//
//   throughput phase — bursts of kDepth requests on each connection:
//                      gives qps (burst size / median burst time);
//   latency phase    — bursts of one request on one connection, a
//                      ping-pong: gives p50/p90;
//   open phase       — traced runs only: a seeded Poisson schedule at
//                      kOpenRate, each request timed from its due time,
//                      for the tail, generator lateness and backlog.
//
// The gated phases busy-poll and send in lock-step bursts because on a
// shared VM a sleeping generator and a free-running pipeline both made
// the figures follow the host, not the program (README.md).
//
// Rows come from a seeded pool of distinct rows, and every reply is
// bit-compared with that row's reference, computed at set-up by a
// lone in-process PredictBatch. The traced run adds an in-process
// replay of the same stream through RequestScheduler::
// SubmitBatchCallback at the same outstanding count, and a timed
// ServingSession::PredictBatch at the observed mean batch size, so the
// wire, scheduler and engine shares can be told apart.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>

#include "common/io_util.h"
#include "graph/model.h"
#include "layers.h"
#include "net/buffer.h"
#include "net/server.h"
#include "net/wire.h"
#include "serving/request_scheduler.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace relserve;

constexpr int64_t kDim = 28;
const std::vector<int64_t> kDims = {kDim, 256, 2};
constexpr uint64_t kModelSeed = 5;
const char* kModel = "fraud";
constexpr int64_t kPoolRows = 1024;
constexpr int kConns = 4;
constexpr int kDepth = 128;            // requests per connection per burst
constexpr double kOpenRate = 8000;     // requests/s, open phase
constexpr int64_t kWarmupRequests = 4000;
constexpr int64_t kDrainTimeoutNs = 5'000'000'000;
constexpr uint64_t kTraceEvery = 16;   // traced phases: spans per request
constexpr int kKeepWarmThreads = 3;    // with the generator: one per vCPU
constexpr size_t kRing = 1024;         // > requests in flight
constexpr int kSchedulerWorkers = 1;   // pinned, like every thread count
constexpr int kNetLoops = 1;           // (0 = hardware_concurrency)

// Share of --seconds each phase gets.
constexpr double kThroughputShare = 0.8;  // untraced: then latency phase
constexpr int kTracePhases = 6;           // traced run: see TraceLayers
constexpr int kPredictCalls = 20000;      // PredictBatch alone, traced run
constexpr size_t kMaxLatencySamples = 1 << 18;

struct Phase {
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t failed = 0;
  std::vector<double> latency_ms;  // closed: each burst, first send to
                                   // last reply; open: due time to reply
  std::vector<double> late_ms;     // open: send minus due
  std::string first_error;
};

// The seeded request stream: request `seq` carries pool row RowFor(seq).
class RowStream {
 public:
  explicit RowStream(uint64_t seed) : seed_(SubSeed(seed, 2)) {}
  int64_t RowFor(uint64_t seq) const {
    SplitMix64 mix(seed_ ^ (seq * 0x9E3779B97F4A7C15ULL));
    return static_cast<int64_t>(mix.Below(kPoolRows));
  }

 private:
  uint64_t seed_;
};

struct Fixture {
  std::unique_ptr<ServingSession> session;
  std::unique_ptr<RequestScheduler> scheduler;
  std::unique_ptr<net::NetServer> server;
  std::vector<Tensor> rows;             // [1, kDim] each
  std::vector<float> expected;          // kPoolRows x 2 reference scores
  int64_t classes = 0;

  Fixture() = default;
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
  ~Fixture() {
    if (server != nullptr) server->Shutdown();
    if (scheduler != nullptr) scheduler->Shutdown();
  }
};

// The generator: one epoll loop over kConns nonblocking connections.
class Generator {
 public:
  Generator(const Fixture* fixture, const RowStream* stream,
            SpanRecorder* spans)
      : fixture_(fixture), stream_(stream), spans_(spans) {}
  ~Generator() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  Status Connect(uint16_t port);

  // How a closed phase waits for replies. kSpin busy-polls, so no
  // wake-up of the generator lands on the measured path (the gated
  // phases); kBlock sleeps in epoll, so the process's CPU time is the
  // program's work (the traced phases).
  enum class Wait { kSpin, kBlock };

  // Until `deadline_ns`: `depth` requests on each of the first `conns`
  // connections, then the wait for every reply.
  Phase RunBursts(int64_t deadline_ns, int conns, int depth, Wait wait,
                  bool traced);
  // Sends on the Poisson schedule `due` (seconds from now).
  Phase RunOpen(const std::vector<double>& due);

 private:
  struct Conn {
    int fd = -1;
    net::Buffer in;
    net::Buffer out;
  };
  using OnReply = std::function<void(uint64_t seq, int conn, int64_t now)>;

  bool Send(int c, uint64_t seq, int64_t root_span);
  bool Flush(Conn* conn);
  // Waits up to `timeout_ms` and handles every complete reply.
  bool Poll(int64_t timeout_ns, Phase* phase, const OnReply& on_reply);
  void Check(const net::Reply& reply, uint64_t seq, Phase* phase);

  const Fixture* fixture_;
  const RowStream* stream_;
  SpanRecorder* spans_;
  int epoll_fd_ = -1;
  std::vector<Conn> conns_;
  uint64_t next_seq_ = 0;
  std::vector<int64_t> root_span_ = std::vector<int64_t>(kRing);  // by seq
  uint64_t phase_base_ = 0;
  int64_t outstanding_ = 0;
  std::string error_;
};

Status Generator::Connect(uint16_t port) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Status::IOError("epoll_create1 failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  conns_.resize(kConns);
  for (int c = 0; c < kConns; ++c) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return Status::IOError("socket failed");
    conns_[c].fd = fd;
    const int rc = static_cast<int>(io::RetryEintr([&] {
      return ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                       sizeof(addr));
    }));
    if (rc != 0) {
      return Status::IOError(std::string("connect: ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<uint32_t>(c);
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      return Status::IOError("epoll_ctl failed");
    }
  }
  return Status::OK();
}

bool Generator::Flush(Conn* conn) {
  while (!conn->out.empty()) {
    const ssize_t n =
        io::WriteSome(conn->fd, conn->out.data(), conn->out.size());
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      error_ = std::string("write: ") + std::strerror(errno);
      return false;
    }
    conn->out.Consume(static_cast<size_t>(n));
  }
  return true;
}

bool Generator::Send(int c, uint64_t seq, int64_t root_span) {
  Conn& conn = conns_[c];
  const int64_t t0 = NowNs();
  net::AppendPredictRequest(seq, kModel,
                            fixture_->rows[stream_->RowFor(seq)],
                            /*deadline_us=*/0, &conn.out);
  const int64_t t1 = NowNs();
  const bool ok = Flush(&conn);
  if (root_span >= 0) {
    spans_->Record("wire.encode", root_span, seq, t0, t1);
    spans_->Record("wire.send", root_span, seq, t1, NowNs());
  }
  ++outstanding_;
  return ok;
}

void Generator::Check(const net::Reply& reply, uint64_t seq, Phase* phase) {
  if (!reply.status.ok()) {
    ++phase->failed;
    if (phase->first_error.empty()) {
      phase->first_error = "request " + std::to_string(seq) + ": " +
                           reply.status.ToString();
    }
    return;
  }
  const int64_t row = stream_->RowFor(seq);
  const float* want = fixture_->expected.data() + row * fixture_->classes;
  if (reply.tensor.NumElements() != fixture_->classes ||
      std::memcmp(reply.tensor.data(), want,
                  sizeof(float) * fixture_->classes) != 0) {
    ++phase->failed;
    if (phase->first_error.empty()) {
      phase->first_error = "reply to request " + std::to_string(seq) +
                           " differs from the reference bits";
    }
    return;
  }
  ++phase->ok;
}

bool Generator::Poll(int64_t timeout_ns, Phase* phase,
                     const OnReply& on_reply) {
  epoll_event events[kConns];
  const timespec timeout{static_cast<time_t>(timeout_ns / 1'000'000'000),
                         static_cast<long>(timeout_ns % 1'000'000'000)};
  const int n = static_cast<int>(io::RetryEintr([&] {
    return ::epoll_pwait2(epoll_fd_, events, kConns, &timeout, nullptr);
  }));
  if (n < 0) {
    error_ = "epoll_wait failed";
    return false;
  }
  for (int i = 0; i < n; ++i) {
    const int c = static_cast<int>(events[i].data.u32);
    Conn& conn = conns_[c];
    while (true) {
      constexpr size_t kChunk = 64 * 1024;
      char* span = conn.in.WritableSpan(kChunk);
      const ssize_t r = io::ReadSome(conn.fd, span, kChunk);
      if (r > 0) {
        conn.in.CommitWrite(static_cast<size_t>(r));
        if (static_cast<size_t>(r) < kChunk) break;
        continue;
      }
      if (r == 0) {
        error_ = "server closed a connection";
        return false;
      }
      break;  // EAGAIN
    }
    while (conn.in.size() >= net::kLenPrefixBytes) {
      uint32_t frame_len = 0;
      std::memcpy(&frame_len, conn.in.data(), sizeof(frame_len));
      if (conn.in.size() < net::kLenPrefixBytes + frame_len) break;
      const int64_t now = NowNs();
      const char* frame = conn.in.data() + net::kLenPrefixBytes;
      auto header = net::DecodeFrameHeader(frame, frame_len);
      if (!header.ok()) {
        error_ = "undecodable reply header: " + header.status().ToString();
        return false;
      }
      const uint64_t seq = header->request_id;
      if (seq < phase_base_ || seq >= next_seq_) {
        error_ = "reply to unknown request " + std::to_string(seq);
        return false;
      }
      auto reply = net::DecodeReply(*header, frame + net::kFrameHeaderBytes,
                                    frame_len - net::kFrameHeaderBytes);
      if (reply.ok()) {
        Check(*reply, seq, phase);
      } else {
        ++phase->failed;
        if (phase->first_error.empty()) {
          phase->first_error = reply.status().ToString();
        }
      }
      const int64_t root = root_span_[seq % kRing];
      if (root >= 0) {
        spans_->Record("wire.decode", root, seq, now, NowNs());
        spans_->Close(root);
      }
      conn.in.Consume(net::kLenPrefixBytes + frame_len);
      --outstanding_;
      on_reply(seq, c, now);
    }
  }
  return true;
}

Phase Generator::RunBursts(int64_t deadline_ns, int conns, int depth,
                           Wait wait, bool traced) {
  Phase phase;
  phase_base_ = next_seq_;
  std::fill(root_span_.begin(), root_span_.end(), -1);
  const int64_t timeout_ns = wait == Wait::kSpin ? 0 : 100'000'000;
  bool ok = true;
  while (ok && NowNs() < deadline_ns) {
    const int64_t start = NowNs();
    for (int d = 0; d < depth && ok; ++d) {
      for (int c = 0; c < conns && ok; ++c) {
        const uint64_t seq = next_seq_++;
        const int64_t root = traced && seq % kTraceEvery == 0
                                 ? spans_->Open("wire.request", -1, seq)
                                 : -1;
        root_span_[seq % kRing] = root;
        ++phase.sent;
        ok = Send(c, seq, root);
      }
    }
    int64_t last_progress = NowNs();
    while (ok && outstanding_ > 0 &&
           NowNs() - last_progress <= kDrainTimeoutNs) {
      ok = Poll(timeout_ns, &phase,
                [&](uint64_t, int, int64_t now) { last_progress = now; });
    }
    if (outstanding_ > 0) break;
    if (phase.latency_ms.size() < kMaxLatencySamples) {
      phase.latency_ms.push_back((NowNs() - start) / 1e6);
    }
  }
  if (!ok && phase.first_error.empty()) phase.first_error = error_;
  phase.failed += outstanding_;  // never answered
  outstanding_ = 0;
  return phase;
}

Phase Generator::RunOpen(const std::vector<double>& due) {
  Phase phase;
  phase_base_ = next_seq_;
  std::fill(root_span_.begin(), root_span_.end(), -1);
  OpenLoopClock clock(due);
  const int64_t start = NowNs();
  bool ok = true;
  int64_t last_progress = start;
  while (ok) {
    const int64_t now = NowNs();
    const size_t due_by = clock.DueBy((now - start) / 1e9);
    for (size_t i = clock.next_unsent(); i < due_by && ok; ++i) {
      const uint64_t seq = next_seq_++;
      clock.MarkSent(i, (NowNs() - start) / 1e9);
      ++phase.sent;
      ok = Send(static_cast<int>(i % kConns), seq, -1);
    }
    if (clock.next_unsent() == clock.size() && outstanding_ == 0) break;
    // Busy-poll: a zero timeout keeps send times on schedule without
    // timer wake-up jitter (the generator owns one vCPU).
    ok = ok && Poll(0, &phase, [&](uint64_t seq, int, int64_t t) {
      const size_t i = static_cast<size_t>(seq - phase_base_);
      phase.latency_ms.push_back(clock.MarkDone(i, (t - start) / 1e9) * 1e3);
      last_progress = t;
    });
    if (clock.next_unsent() == clock.size() &&
        NowNs() - last_progress > kDrainTimeoutNs) {
      break;
    }
  }
  for (double late : clock.lateness()) phase.late_ms.push_back(late * 1e3);
  if (!ok && phase.first_error.empty()) phase.first_error = error_;
  phase.failed += outstanding_;
  outstanding_ = 0;
  return phase;
}

ServingConfig WireConfig(const std::string& spill_path) {
  ServingConfig config;
  config.buffer_pool_pages = 64;
  config.working_memory_bytes = 256LL << 20;
  config.num_threads = kSessionThreads;
  config.spill_path = spill_path;
  return config;
}

SchedulerConfig WireSchedulerConfig() {
  SchedulerConfig config;  // max_batch_rows 256, queue_capacity 1024
  config.num_workers = kSchedulerWorkers;
  // No coalescing timer: a batch is whatever queued while the worker
  // was busy. A fixed window would dominate p50 and hide the wire and
  // dispatch costs this workload exists to show.
  config.max_delay_us = 0;
  return config;
}

net::NetServerConfig WireNetConfig() {
  net::NetServerConfig config;  // zero-handoff completions
  config.num_loops = kNetLoops;
  return config;
}

// Session construction through warm-up: model, deploy, references,
// scheduler, server, connections and kWarmupRequests requests.
Status BuildFixture(uint64_t seed, const std::string& spill_path,
                    const RowStream& stream, Fixture* f,
                    std::unique_ptr<Generator>* gen, SpanRecorder* spans) {
  f->session = std::make_unique<ServingSession>(WireConfig(spill_path));
  RELSERVE_RETURN_NOT_OK(f->session->status());
  RELSERVE_ASSIGN_OR_RETURN(Model model, BuildFFNN(kModel, kDims, kModelSeed));
  RELSERVE_RETURN_NOT_OK(f->session->RegisterModel(std::move(model)));
  RELSERVE_RETURN_NOT_OK(
      f->session->Deploy(kModel, ServingMode::kAdaptive, 64).status());

  SplitMix64 rng(SubSeed(seed, 1));
  f->classes = kDims.back();
  f->expected.resize(kPoolRows * f->classes);
  for (int64_t r = 0; r < kPoolRows; ++r) {
    RELSERVE_ASSIGN_OR_RETURN(Tensor row, Tensor::Create(Shape{1, kDim}));
    for (int64_t j = 0; j < kDim; ++j) {
      row.data()[j] = static_cast<float>(rng.Uniform01() * 2 - 1);
    }
    // The reference: this row alone through the deployed plan.
    RELSERVE_ASSIGN_OR_RETURN(ExecOutput out,
                              f->session->PredictBatch(kModel, row));
    RELSERVE_ASSIGN_OR_RETURN(Tensor scores,
                              out.ToTensor(f->session->exec_context()));
    if (scores.NumElements() != f->classes) {
      return Status::Internal("unexpected reference shape");
    }
    std::memcpy(f->expected.data() + r * f->classes, scores.data(),
                sizeof(float) * f->classes);
    f->rows.push_back(std::move(row));
  }

  f->scheduler = std::make_unique<RequestScheduler>(f->session.get(),
                                                    WireSchedulerConfig());
  RELSERVE_ASSIGN_OR_RETURN(
      f->server,
      net::NetServer::Start(f->session.get(), f->scheduler.get(),
                            WireNetConfig()));

  *gen = std::make_unique<Generator>(f, &stream, spans);
  RELSERVE_RETURN_NOT_OK((*gen)->Connect(f->server->port()));
  // Warm-up: a fixed number of closed-loop requests.
  int64_t done = 0;
  while (done < kWarmupRequests) {
    Phase warm = (*gen)->RunBursts(NowNs() + 20'000'000, kConns, kDepth,
                                   Generator::Wait::kSpin, false);
    if (warm.failed > 0) {
      return Status::Internal("warm-up: " + warm.first_error);
    }
    done += warm.ok;
  }
  return Status::OK();
}

// The in-process replay: the same request stream straight into the
// scheduler in bursts of `burst` requests, like the wire phases,
// completions through SubmitBatchCallback.
struct Replay {
  int64_t ok = 0;
  int64_t failed = 0;
  std::vector<double> latency_us;
  CpuTimes cpu;
  std::string first_error;
};

Replay RunReplay(Fixture* f, const RowStream& stream, uint64_t first_seq,
                 int64_t deadline_ns, int burst, SpanRecorder* spans,
                 const KeepWarm* keep_warm) {
  Replay out;
  std::mutex mu;
  std::condition_variable cv;
  int in_flight = 0;
  const CpuTimes cpu0 = ProcessCpu();
  const double warm0 = keep_warm->CpuSeconds();
  uint64_t seq = first_seq;
  while (NowNs() < deadline_ns) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return in_flight == 0; });
      in_flight = burst;
    }
    for (int i = 0; i < burst; ++i, ++seq) {
      const int64_t row = stream.RowFor(seq);
      const int64_t span = seq % kTraceEvery == 0
                               ? spans->Open("serving.request", -1, seq)
                               : -1;
      const int64_t t0 = NowNs();
      f->scheduler->SubmitBatchCallback(
          kModel, f->rows[row], 0, [&, row, span, t0](Result<Tensor> r) {
            const int64_t t1 = NowNs();
            spans->Close(span);
            const float* want = f->expected.data() + row * f->classes;
            const bool good =
                r.ok() && r->NumElements() == f->classes &&
                std::memcmp(r->data(), want, sizeof(float) * f->classes) == 0;
            std::lock_guard<std::mutex> lock(mu);
            if (good) {
              ++out.ok;
              out.latency_us.push_back((t1 - t0) / 1e3);
            } else {
              ++out.failed;
              if (out.first_error.empty()) {
                out.first_error = r.ok() ? "in-process reply differs"
                                         : r.status().ToString();
              }
            }
            --in_flight;
            cv.notify_all();
          });
    }
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return in_flight == 0; });
  const CpuTimes cpu1 = ProcessCpu();
  out.cpu = {cpu1.user_s - cpu0.user_s - (keep_warm->CpuSeconds() - warm0),
             cpu1.sys_s - cpu0.sys_s};
  return out;
}

// Replies per second of a throughput phase: the burst size over the
// median burst time, robust to a stall that holds up a few bursts.
double BurstQps(const Phase& phase) {
  const double ms = Median(phase.latency_ms);
  return ms > 0 ? kConns * kDepth / (ms / 1e3) : 0;
}

void Absorb(const Phase& phase, RunResult* result) {
  result->attempted += phase.sent;
  result->failed += phase.failed;
  if (!phase.first_error.empty()) {
    result->Fail(phase.first_error);
  }
}

// Phases of the traced run, each options.seconds / kTracePhases long
// but the PredictBatch timing (kPredictCalls calls):
//   1-2. throughput phase untraced, then traced (tracing overhead;
//        CPU, bytes, batches and stage times under load);
//   3.   in-process replay in the same kConns x kDepth bursts (its CPU);
//   4-5. latency phase traced, and the replay one request at a time
//        (the split of p50 into net, serving and engine);
//   -    PredictBatch alone at phase 4's mean batch size;
//   6.   open loop on the Poisson schedule (diagnostics).
void TraceLayers(const RunOptions& options, Fixture* f,
                 const RowStream& stream, Generator* gen,
                 const PhysicalPlan* plan, const KeepWarm* keep_warm,
                 SpanRecorder* spans, RunResult* result) {
  const int64_t slice =
      static_cast<int64_t>(options.seconds / kTracePhases * 1e9);
  ServingSession* session = f->session.get();
  const SchedulerStats sched0 = f->scheduler->stats();
  const net::NetServerStats net0 = f->server->stats();

  // Every traced phase sleeps in epoll: the CPU metrics divide the
  // process's CPU time by requests.
  constexpr Generator::Wait kBlock = Generator::Wait::kBlock;
  const Phase plain =
      gen->RunBursts(NowNs() + slice, kConns, kDepth, kBlock, false);
  Absorb(plain, result);
  const EngineSnapshot eng0 = TakeEngineSnapshot(session, "", plan);
  const SchedulerStats sched1 = f->scheduler->stats();
  const net::NetServerStats net1 = f->server->stats();
  const CpuTimes cpu0 = ProcessCpu();
  const double warm0 = keep_warm->CpuSeconds();
  const Phase loaded =
      gen->RunBursts(NowNs() + slice, kConns, kDepth, kBlock, true);
  const CpuTimes cpu1 = ProcessCpu();
  const double warm1 = keep_warm->CpuSeconds();
  const net::NetServerStats net2 = f->server->stats();
  const SchedulerStats sched2 = f->scheduler->stats();
  const EngineSnapshot eng1 = TakeEngineSnapshot(session, "", plan);
  Absorb(loaded, result);

  auto replay = [&](uint64_t first_seq, int burst) {
    const Replay r = RunReplay(f, stream, first_seq, NowNs() + slice, burst,
                               spans, keep_warm);
    result->attempted += r.ok + r.failed;
    result->failed += r.failed;
    if (r.failed > 0) result->Fail("replay: " + r.first_error);
    return r;
  };
  const Replay loaded_replay = replay(1ULL << 40, kConns * kDepth);

  const SchedulerStats sched3 = f->scheduler->stats();
  const Phase callers = gen->RunBursts(NowNs() + slice, 1, 1, kBlock, true);
  const SchedulerStats sched4 = f->scheduler->stats();
  Absorb(callers, result);
  const Replay callers_replay = replay(1ULL << 41, 1);

  // The engine alone, at the latency phase's mean batch size.
  const int64_t callers_batches = sched4.batches - sched3.batches;
  const int64_t batch_rows = std::max<int64_t>(
      1, callers_batches > 0
             ? std::llround(static_cast<double>(sched4.total_rows -
                                                sched3.total_rows) /
                            callers_batches)
             : 1);
  double predict = 0;
  if (auto batch = Tensor::Create(Shape{batch_rows, kDim}); batch.ok()) {
    for (int64_t r = 0; r < batch_rows; ++r) {
      std::memcpy(batch->data() + r * kDim, f->rows[r % kPoolRows].data(),
                  sizeof(float) * kDim);
    }
    predict = AddPredictBatchTime(session, kModel, *batch, kPredictCalls,
                                  spans, result);
  }
  const Phase open = gen->RunOpen(PoissonSchedule(
      SubSeed(options.seed, 3), kOpenRate, options.seconds / kTracePhases));
  Absorb(open, result);

  const LatencySummary wire = Summarize(callers.latency_ms);
  const LatencySummary rep = Summarize(callers_replay.latency_us);
  const LatencySummary open_lat = Summarize(open.latency_ms);
  const int64_t reqs = std::max<int64_t>(1, loaded.ok);
  const int64_t rreqs = std::max<int64_t>(1, loaded_replay.ok);
  // Spinners run in user mode; take their time out of the process's.
  const double wire_user =
      (cpu1.user_s - cpu0.user_s - (warm1 - warm0)) / reqs * 1e6;
  const double wire_sys = (cpu1.sys_s - cpu0.sys_s) / reqs * 1e6;
  // Client-side time of a traced request: its span minus its self
  // time (the wait for the server).
  const std::vector<Span> all = spans->Snapshot();
  const std::vector<double> request_us = DurationsUs(all, "wire.request");
  const std::vector<double> waiting_us = SelfTimesUs(all, "wire.request");
  std::vector<double> client;
  for (size_t i = 0; i < request_us.size(); ++i) {
    client.push_back(request_us[i] - waiting_us[i]);
  }
  const double client_us = Median(client);
  const int64_t batches = sched2.batches - sched1.batches;
  const net::NetServerStats net_end = f->server->stats();
  const SchedulerStats sched_end = f->scheduler->stats();

  MetricList& m = result->layers;
  m.Add("net.cpu_us_per_req",
        wire_user - loaded_replay.cpu.user_s / rreqs * 1e6, "us", loaded.ok,
        /*subtractive=*/true);
  m.Add("net.sys_us_per_req", wire_sys - loaded_replay.cpu.sys_s / rreqs * 1e6,
        "us", loaded.ok, /*subtractive=*/true);
  m.Add("net.bytes_per_req",
        static_cast<double>((net2.bytes_in - net1.bytes_in) +
                            (net2.bytes_out - net1.bytes_out)) /
            reqs,
        "B");
  m.Add("net.self_us_p50", Subtractive(wire.p50 * 1e3, {rep.p50}), "us",
        wire.samples, /*subtractive=*/true);
  m.Add("net.protocol_errors", net_end.protocol_errors - net0.protocol_errors,
        "count");
  m.Add("serving.mean_batch_rows",
        batches > 0 ? static_cast<double>(sched2.total_rows -
                                          sched1.total_rows) /
                          batches
                    : 0,
        "rows");
  m.Add("serving.batches", batches, "count");
  m.Add("serving.shed",
        (sched_end.shed_queue_full - sched0.shed_queue_full) +
            (sched_end.shed_deadline - sched0.shed_deadline) +
            (sched_end.shed_breaker - sched0.shed_breaker),
        "count");
  m.Add("serving.retries", sched_end.retries - sched0.retries, "count");
  m.Add("serving.self_us_p50", Subtractive(rep.p50, {predict}), "us",
        rep.samples, /*subtractive=*/true);
  AddEngineLayers(eng0, eng1, Diff(eng0, eng1, loaded.ok), FfnnFlops(kDims, 1),
                  session, result);
  m.Add("bench.gen_late_p99_ms", PercentileOf(open.late_ms, 99), "ms",
        static_cast<int64_t>(open.late_ms.size()));
  m.Add("bench.backlog", BacklogGrew(open.latency_ms) ? 1 : 0, "count");
  m.Add("bench.open_p50_ms", open_lat.p50, "ms", open_lat.samples);
  m.Add("bench.open_p90_ms", open_lat.p90, "ms", open_lat.samples);
  m.Add("bench.trace_overhead_frac",
        BurstQps(loaded) > 0 ? BurstQps(plain) / BurstQps(loaded) - 1 : 0,
        "ratio");
  m.Add("bench.accounted_frac",
        wire.p50 > 0 ? (client_us + rep.p50) / (wire.p50 * 1e3) : 0, "ratio");
  AddTail(wire, result);
  m.Add("bench.attempted", result->attempted, "count");
  m.Add("bench.failed", result->failed, "count");
  if (!spans->WriteJsonLines(options.span_file)) {
    result->Fail("cannot write " + options.span_file);
  }
}

}  // namespace

RunResult RunWirePredict(const RunOptions& options) {
  RunResult result;
  KeepWarm keep_warm(kKeepWarmThreads);
  std::filesystem::create_directories(options.work_dir);
  const std::string spill_path = options.work_dir + "/wire_predict-" +
                                 std::to_string(::getpid()) + ".spill";
  const RowStream stream(options.seed);
  SpanRecorder spans(options.trace);

  std::vector<double> setup_s;
  std::unique_ptr<Generator> gen;
  std::unique_ptr<Fixture> fixture;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    gen.reset();
    fixture.reset();
    std::filesystem::remove(spill_path);
    fixture = std::make_unique<Fixture>();
    const int64_t t0 = NowNs();
    const Status st =
        BuildFixture(options.seed, spill_path, stream, fixture.get(), &gen,
                     &spans);
    setup_s.push_back((NowNs() - t0) / 1e9);
    if (!st.ok()) {
      result.Fail("setup: " + st.ToString());
      return result;
    }
  }
  Fixture* f = fixture.get();
  std::shared_ptr<const PhysicalPlan> plan;
  if (auto deployed = f->session->DeployedPhysicalPlan(kModel); deployed.ok()) {
    plan = std::move(*deployed);
  } else {
    result.Fail(deployed.status().ToString());
    return result;
  }
  ResetPeakRss();
  // The generator (this thread) gets a CPU of its own.
  IsolateCallingThread();
  if (options.trace) {
    TraceLayers(options, f, stream, gen.get(), plan.get(), &keep_warm,
                &spans, &result);
  } else {
    const int64_t throughput_ns =
        static_cast<int64_t>(options.seconds * kThroughputShare * 1e9);
    const int64_t latency_ns =
        static_cast<int64_t>(options.seconds * 1e9) - throughput_ns;
    constexpr Generator::Wait kSpin = Generator::Wait::kSpin;
    const Phase closed =
        gen->RunBursts(NowNs() + throughput_ns, kConns, kDepth, kSpin, false);
    Absorb(closed, &result);
    const Phase callers =
        gen->RunBursts(NowNs() + latency_ns, 1, 1, kSpin, false);
    Absorb(callers, &result);
    const BlockSummary lat = SummarizeBlocks(callers.latency_ms, kGatedBlocks);
    if (lat.blocks == 0) result.Fail("too few samples");
    const auto samples = static_cast<int64_t>(callers.latency_ms.size());
    result.end_to_end.Add("qps", BurstQps(closed), "1/s", closed.ok);
    result.end_to_end.Add("p50_ms", lat.p50, "ms", samples);
    result.end_to_end.Add("p90_ms", lat.p90, "ms", samples);
  }
  AddSetupAndRss(setup_s, &result);
  plan.reset();
  gen.reset();
  fixture.reset();
  std::filesystem::remove(spill_path);
  return result;
}

}  // namespace perfbench
