// Network serving front-end throughput (DESIGN.md "Network serving
// front-end"): a closed-loop multi-connection load generator driving
// the epoll NetServer over loopback, against the in-process
// scheduler baseline (same client count, no sockets).
//
// The generator is itself a single-threaded epoll loop holding every
// connection — hundreds of concurrent sockets, one outstanding
// 1-row predict per connection, next request sent the instant the
// reply lands. All clients ship the *same* input row, so every reply
// must be bit-identical to the in-process prediction: the harness
// counts dropped and corrupted replies (both must be zero) while
// measuring what the wire + framing + completion path costs on top of
// the scheduler it wraps.
//
// Reported per client count: network QPS, p50/p99 latency,
// bytes/request on the wire, the in-process baseline QPS, and the
// network/in-process ratio — as a table and BENCH_JSON lines.
//
// Env knobs:
//   RELSERVE_NET_CLIENTS  — comma-separated connection counts
//                           (default "8,64,256")
//   RELSERVE_NET_REQUESTS — requests per connection (default 128)

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <arpa/inet.h>
#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/io_util.h"
#include "common/timer.h"
#include "graph/model.h"
#include "net/buffer.h"
#include "net/server.h"
#include "net/wire.h"
#include "serving/request_scheduler.h"
#include "serving/serving_session.h"
#include "workloads/datasets.h"

namespace relserve {
namespace {

constexpr int64_t kDim = 28;
const char* kModel = "net-ffnn";

int RequestsPerConn() {
  const char* s = std::getenv("RELSERVE_NET_REQUESTS");
  // Long enough that the closed loop reaches steady state: short runs
  // are dominated by scheduler batching phase-in and timing noise.
  return s != nullptr ? std::atoi(s) : 128;
}

std::vector<int> ClientCounts() {
  const char* s = std::getenv("RELSERVE_NET_CLIENTS");
  if (s == nullptr || *s == '\0') return {8, 64, 256};
  std::vector<int> counts;
  for (const char* p = s; *p != '\0';) {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p) break;
    if (v > 0) counts.push_back(static_cast<int>(v));
    p = (*end == ',') ? end + 1 : end;
  }
  return counts.empty() ? std::vector<int>{8, 64, 256} : counts;
}

struct RunResult {
  double qps = 0.0;
  bench::LatencySummary latency;  // milliseconds
  int64_t replies = 0;
  int64_t dropped = 0;
  int64_t corrupted = 0;
  double bytes_per_request = 0.0;
  double mean_batch_rows = 0.0;  // scheduler coalescing this phase
};

double MeanBatchRowsDelta(const SchedulerStats& before,
                          const SchedulerStats& after) {
  const int64_t batches = after.batches.load() - before.batches.load();
  const int64_t rows =
      after.total_rows.load() - before.total_rows.load();
  return batches > 0
             ? static_cast<double>(rows) / static_cast<double>(batches)
             : 0.0;
}

// Start gate: workers finish their setup (thread spawn, socket
// connects), then every mode measures the same thing — steady-state
// request throughput from a standing start.
struct StartGate {
  std::mutex mu;
  std::condition_variable cv;
  int ready = 0;
  bool go = false;

  void Arrive() {
    std::unique_lock<std::mutex> lock(mu);
    ++ready;
    cv.notify_all();
    cv.wait(lock, [this] { return go; });
  }
  void WaitReady(int total) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return ready >= total; });
  }
  void Go() {
    std::lock_guard<std::mutex> lock(mu);
    go = true;
    cv.notify_all();
  }
};

// In-process baseline: same closed loop, straight into the scheduler.
RunResult RunInProcess(RequestScheduler* scheduler, const Tensor& row,
                       int clients, int per_client) {
  std::vector<std::vector<double>> lat_ms(clients);
  std::vector<std::thread> threads;
  std::atomic<int64_t> failed{0};
  StartGate gate;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      gate.Arrive();
      for (int r = 0; r < per_client; ++r) {
        Timer t;
        auto out = scheduler->PredictBatch(kModel, row);
        if (!out.ok()) {
          failed.fetch_add(1);
          continue;
        }
        lat_ms[c].push_back(t.ElapsedSeconds() * 1e3);
      }
    });
  }
  gate.WaitReady(clients);
  Timer wall;
  gate.Go();
  for (std::thread& t : threads) t.join();
  const double wall_s = wall.ElapsedSeconds();
  std::vector<double> all;
  for (const auto& v : lat_ms) {
    all.insert(all.end(), v.begin(), v.end());
  }
  RunResult result;
  result.replies = static_cast<int64_t>(all.size());
  result.dropped = failed.load();
  result.qps = static_cast<double>(all.size()) / wall_s;
  result.latency = bench::Summarize(all);
  return result;
}

// One loopback connection of the closed-loop epoll generator.
struct GenConn {
  int fd = -1;
  net::Buffer in;
  net::Buffer out;
  int sent = 0;
  int received = 0;
  std::chrono::steady_clock::time_point sent_at;
};

Status SendNext(GenConn* conn, const Tensor& row, uint64_t conn_id) {
  const uint64_t request_id =
      conn_id * 1000000 + static_cast<uint64_t>(conn->sent);
  net::AppendPredictRequest(request_id, kModel, row, /*deadline_us=*/0,
                            &conn->out);
  conn->sent_at = std::chrono::steady_clock::now();
  ++conn->sent;
  while (!conn->out.empty()) {
    const ssize_t n =
        io::WriteSome(conn->fd, conn->out.data(), conn->out.size());
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return Status::IOError(std::string("write: ") +
                             std::strerror(errno));
    }
    conn->out.Consume(static_cast<size_t>(n));
  }
  return Status::OK();
}

struct ShardOut {
  std::vector<double> lat_ms;
  int64_t dropped = 0;
  int64_t corrupted = 0;
};

// One generator shard: `clients` concurrent loopback connections, one
// outstanding request each, driven by one epoll loop.
Result<ShardOut> RunShard(uint16_t port, const Tensor& row,
                          const Tensor& expected, int clients,
                          int per_client, StartGate* gate) {
  std::vector<GenConn> conns(clients);
  int epoll_fd = -1;
  const Status setup = [&]() -> Status {
    epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd < 0) {
      return Status::IOError("epoll_create1 failed");
    }
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);

    for (int c = 0; c < clients; ++c) {
      const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd < 0) {
        return Status::IOError("socket: out of descriptors at conn " +
                               std::to_string(c));
      }
      const int rc = static_cast<int>(io::RetryEintr([&] {
        return ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr));
      }));
      if (rc != 0) {
        return Status::IOError(std::string("connect: ") +
                               std::strerror(errno));
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
      conns[c].fd = fd;
      epoll_event ev;
      std::memset(&ev, 0, sizeof(ev));
      ev.events = EPOLLIN;  // level-triggered: fine for the generator
      ev.data.u32 = static_cast<uint32_t>(c);
      ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev);
    }
    return Status::OK();
  }();

  ShardOut result;
  std::vector<double>& lat_ms = result.lat_ms;
  lat_ms.reserve(static_cast<size_t>(clients) * per_client);
  const int64_t total = static_cast<int64_t>(clients) * per_client;
  int64_t received = 0;
  const size_t expected_bytes =
      static_cast<size_t>(expected.shape().NumElements()) *
      sizeof(float);

  // Connections are up (or setup failed — arrive either way so the
  // gate never hangs); waiting for every shard before the first byte
  // means the wall clock measures steady-state serving, not TCP
  // setup.
  gate->Arrive();
  if (!setup.ok()) {
    for (GenConn& conn : conns) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
    if (epoll_fd >= 0) ::close(epoll_fd);
    return setup;
  }
  for (int c = 0; c < clients; ++c) {
    RELSERVE_RETURN_NOT_OK(
        SendNext(&conns[c], row, static_cast<uint64_t>(c)));
  }

  epoll_event events[128];
  while (received < total) {
    const int n = static_cast<int>(io::RetryEintr([&] {
      return ::epoll_wait(epoll_fd, events, 128, 5000);
    }));
    if (n == 0) {
      // 5s of silence with requests outstanding: count them dropped.
      result.dropped = total - received;
      break;
    }
    for (int i = 0; i < n; ++i) {
      GenConn& conn = conns[events[i].data.u32];
      bool closed = false;
      while (true) {
        constexpr size_t kChunk = 16 * 1024;
        char* span = conn.in.WritableSpan(kChunk);
        const ssize_t r = io::ReadSome(conn.fd, span, kChunk);
        if (r > 0) {
          conn.in.CommitWrite(static_cast<size_t>(r));
          // Short read = socket drained; skip the EAGAIN syscall
          // (level-triggered epoll re-fires if more arrives).
          if (static_cast<size_t>(r) < kChunk) break;
          continue;
        }
        if (r == 0) closed = true;
        break;
      }
      while (conn.in.size() >= net::kLenPrefixBytes) {
        uint32_t frame_len = 0;
        std::memcpy(&frame_len, conn.in.data(), sizeof(frame_len));
        if (conn.in.size() < net::kLenPrefixBytes + frame_len) break;
        const char* frame = conn.in.data() + net::kLenPrefixBytes;
        auto header = net::DecodeFrameHeader(frame, frame_len);
        Result<net::Reply> reply =
            header.ok()
                ? net::DecodeReply(*header,
                                   frame + net::kFrameHeaderBytes,
                                   frame_len - net::kFrameHeaderBytes)
                : Result<net::Reply>(header.status());
        const auto now = std::chrono::steady_clock::now();
        if (!reply.ok() || !reply->status.ok() ||
            reply->tensor.shape().NumElements() !=
                expected.shape().NumElements() ||
            std::memcmp(reply->tensor.data(), expected.data(),
                        expected_bytes) != 0) {
          ++result.corrupted;
        } else {
          lat_ms.push_back(
              std::chrono::duration<double, std::milli>(
                  now - conn.sent_at)
                  .count());
        }
        ++received;
        ++conn.received;
        conn.in.Consume(net::kLenPrefixBytes + frame_len);
        if (conn.sent < per_client) {
          RELSERVE_RETURN_NOT_OK(SendNext(
              &conn, row, events[i].data.u32));
        }
      }
      if (closed && conn.received < per_client) {
        result.dropped += per_client - conn.received;
        received += per_client - conn.received;
        ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
        ::close(conn.fd);
        conn.fd = -1;
        conn.received = per_client;
      }
    }
  }
  for (GenConn& conn : conns) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  ::close(epoll_fd);
  return result;
}

// The load generator: shards the connections across a few epoll
// threads so the generator itself — not the server — is never the
// syscall-throughput ceiling (the in-process baseline it races gets
// one thread per client).
Result<RunResult> RunNetwork(uint16_t port, const Tensor& row,
                             const Tensor& expected, int clients,
                             int per_client) {
  const int want = clients >= 32 ? 4 : (clients >= 8 ? 2 : 1);
  // More generator shards than cores just preempt each other (and the
  // server) on a small machine.
  const int hw = std::max(
      1, static_cast<int>(std::thread::hardware_concurrency()));
  const int shards = std::min(want, hw);
  std::vector<Result<ShardOut>> outs(
      shards, Result<ShardOut>(Status::Internal("shard not run")));
  std::vector<std::thread> threads;
  StartGate gate;
  for (int s = 0; s < shards; ++s) {
    const int share =
        clients / shards + (s < clients % shards ? 1 : 0);
    threads.emplace_back([&, s, share] {
      outs[s] =
          RunShard(port, row, expected, share, per_client, &gate);
    });
  }
  gate.WaitReady(shards);
  Timer wall;
  gate.Go();
  for (std::thread& t : threads) t.join();
  const double wall_s = wall.ElapsedSeconds();

  RunResult result;
  std::vector<double> all;
  for (Result<ShardOut>& out : outs) {
    RELSERVE_RETURN_NOT_OK(out.status());
    all.insert(all.end(), out->lat_ms.begin(), out->lat_ms.end());
    result.dropped += out->dropped;
    result.corrupted += out->corrupted;
  }
  result.replies = static_cast<int64_t>(all.size());
  result.qps = static_cast<double>(all.size()) / wall_s;
  result.latency = bench::Summarize(all);
  return result;
}

void Report(const std::string& mode, int clients, const RunResult& r,
            double ratio) {
  char qps[24], p50[24], p99[24], bpr[24], ratio_s[24];
  std::snprintf(qps, sizeof(qps), "%.0f", r.qps);
  std::snprintf(p50, sizeof(p50), "%.3f", r.latency.p50);
  std::snprintf(p99, sizeof(p99), "%.3f", r.latency.p99);
  std::snprintf(bpr, sizeof(bpr), "%.0f", r.bytes_per_request);
  std::snprintf(ratio_s, sizeof(ratio_s),
                ratio > 0.0 ? "%.2f" : "-", ratio);
  bench::PrintRow({mode, std::to_string(clients), qps, p50, p99,
                   std::to_string(r.dropped),
                   std::to_string(r.corrupted), bpr, ratio_s},
                  12);
  bench::PrintBenchJson(
      "net_serving",
      {{"mode", bench::JsonStr(mode)},
       {"clients", bench::JsonNum(clients)},
       {"qps", bench::JsonNum(r.qps)},
       {"p50_ms", bench::JsonNum(r.latency.p50)},
       {"p99_ms", bench::JsonNum(r.latency.p99)},
       {"mean_ms", bench::JsonNum(r.latency.mean)},
       {"replies", bench::JsonNum(static_cast<double>(r.replies))},
       {"dropped", bench::JsonNum(static_cast<double>(r.dropped))},
       {"corrupted",
        bench::JsonNum(static_cast<double>(r.corrupted))},
       {"bytes_per_request", bench::JsonNum(r.bytes_per_request)},
       {"mean_batch_rows", bench::JsonNum(r.mean_batch_rows)},
       {"net_vs_inprocess", bench::JsonNum(ratio)}});
}

Status Run() {
  ServingConfig config;
  config.working_memory_bytes = 4LL << 30;
  ServingSession session(config);

  RELSERVE_ASSIGN_OR_RETURN(
      Model model, BuildFFNN(kModel, {kDim, 64, 4}, /*seed=*/3));
  RELSERVE_RETURN_NOT_OK(session.RegisterModel(std::move(model)));
  RELSERVE_RETURN_NOT_OK(
      session.Deploy(kModel, ServingMode::kForceUdf, 256).status());

  SchedulerConfig sched_config;
  sched_config.max_batch_rows = 256;
  sched_config.max_delay_us = 200;
  sched_config.num_workers = 2;
  RequestScheduler scheduler(&session, sched_config);

  // The request row every connection ships, and the reply bytes every
  // connection must get back, bit for bit.
  RELSERVE_ASSIGN_OR_RETURN(Tensor row,
                            workloads::GenBatch(1, Shape{kDim}, 42));
  RELSERVE_ASSIGN_OR_RETURN(Tensor expected,
                            scheduler.PredictBatch(kModel, row));

  net::NetServerConfig net_config;
  RELSERVE_ASSIGN_OR_RETURN(
      auto server, net::NetServer::Start(&session, &scheduler,
                                         net_config));

  const int per_client = RequestsPerConn();
  const std::vector<int> client_counts = ClientCounts();

  std::printf("Network serving front-end: closed-loop loopback "
              "connections, 1-row predicts, %d requests/connection\n"
              "(every reply verified bit-identical to the in-process "
              "prediction)\n\n",
              per_client);
  bench::PrintRow({"mode", "clients", "qps", "p50_ms", "p99_ms",
                   "dropped", "corrupt", "bytes_req", "ratio"},
                  12);
  bench::PrintRule(9, 12);

  for (const int clients : client_counts) {
    const SchedulerStats sched_before_in = scheduler.stats();
    RunResult inproc =
        RunInProcess(&scheduler, row, clients, per_client);
    inproc.mean_batch_rows =
        MeanBatchRowsDelta(sched_before_in, scheduler.stats());
    Report("inprocess", clients, inproc, 0.0);

    const SchedulerStats sched_before_net = scheduler.stats();
    const net::NetServerStats before = server->stats();
    RELSERVE_ASSIGN_OR_RETURN(
        RunResult net,
        RunNetwork(server->port(), row, expected, clients,
                   per_client));
    const net::NetServerStats after = server->stats();
    net.mean_batch_rows =
        MeanBatchRowsDelta(sched_before_net, scheduler.stats());
    const int64_t wire_bytes =
        (after.bytes_in.load() - before.bytes_in.load()) +
        (after.bytes_out.load() - before.bytes_out.load());
    if (net.replies > 0) {
      net.bytes_per_request =
          static_cast<double>(wire_bytes) /
          static_cast<double>(net.replies);
    }
    const double ratio =
        inproc.qps > 0.0 ? net.qps / inproc.qps : 0.0;
    Report("network", clients, net, ratio);
    if (net.dropped != 0 || net.corrupted != 0) {
      return Status::Internal(
          std::to_string(net.dropped) + " dropped / " +
          std::to_string(net.corrupted) +
          " corrupted replies at " + std::to_string(clients) +
          " clients");
    }
  }

  server->Shutdown();
  scheduler.Shutdown();
  return Status::OK();
}

}  // namespace
}  // namespace relserve

int main() {
  relserve::Status status = relserve::Run();
  if (!status.ok()) {
    std::fprintf(stderr, "bench_net_serving: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}
