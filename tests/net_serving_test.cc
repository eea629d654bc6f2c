// Tests for the epoll network serving front-end: the framed wire
// protocol must round-trip predictions bit-identically, typed errors
// must cross the wire as typed statuses, and no sequence of torn,
// truncated, oversized, or garbage frames may crash the server or
// corrupt a neighboring connection. Fragmented reads (the
// net.read.short failpoint caps every recv at 3 bytes) and
// deterministically corrupted frames (net.frame.corrupt) exercise
// reassembly and rejection on the same code the benchmarks drive.
//
// This binary is part of scripts/tsan_check.sh — every assertion here
// also runs under ThreadSanitizer and UBSan.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/idle_spin.h"
#include "common/io_util.h"
#include "graph/model.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "serving/request_scheduler.h"
#include "serving/serving_session.h"
#include "workloads/datasets.h"

namespace relserve {
namespace {

ServingConfig SmallConfig() {
  ServingConfig config;
  config.buffer_pool_pages = 256;
  config.working_memory_bytes = 64LL << 20;
  config.memory_threshold_bytes = 1LL << 20;
  config.block_rows = 16;
  config.block_cols = 16;
  config.num_threads = 2;
  return config;
}

// A raw blocking loopback socket for wire-level malformed-input tests
// (NetClient only speaks well-formed frames).
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0;
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  bool Send(const void* p, size_t n) {
    const char* bytes = static_cast<const char*>(p);
    size_t done = 0;
    while (done < n) {
      const ssize_t w = io::WriteSome(fd_, bytes + done, n - done);
      if (w <= 0) return false;
      done += static_cast<size_t>(w);
    }
    return true;
  }
  void CloseWrite() { ::shutdown(fd_, SHUT_WR); }

  // Reads until EOF (or error); returns everything received.
  std::vector<char> DrainToEof() {
    std::vector<char> all;
    char buf[4096];
    while (true) {
      const ssize_t n = io::ReadSome(fd_, buf, sizeof(buf));
      if (n <= 0) break;
      all.insert(all.end(), buf, buf + n);
    }
    return all;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

SchedulerConfig SmallSchedulerConfig() {
  SchedulerConfig config;
  config.max_batch_rows = 16;
  config.max_delay_us = 100;
  config.num_workers = 2;
  return config;
}

class NetServingTest : public ::testing::Test {
 protected:
  NetServingTest() : session_(SmallConfig()) {}

  void StartServer(net::NetServerConfig net_config = {},
                   SchedulerConfig sched_config = SmallSchedulerConfig()) {
    auto model = BuildFFNN("m", {16, 32, 4}, 3);
    ASSERT_TRUE(model.ok());
    ASSERT_TRUE(session_.RegisterModel(std::move(*model)).ok());
    ASSERT_TRUE(session_.Deploy("m", ServingMode::kForceUdf, 8).ok());

    scheduler_ =
        std::make_unique<RequestScheduler>(&session_, sched_config);
    auto server =
        net::NetServer::Start(&session_, scheduler_.get(), net_config);
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(*server);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
    if (scheduler_ != nullptr) scheduler_->Shutdown();
  }

  std::unique_ptr<net::NetClient> Connect() {
    auto client = net::NetClient::Connect("127.0.0.1",
                                          server_->port());
    EXPECT_TRUE(client.ok()) << client.status();
    return client.ok() ? std::move(*client) : nullptr;
  }

  Result<Tensor> Direct(const Tensor& input) {
    return scheduler_->PredictBatch("m", input);
  }

  ServingSession session_;
  std::unique_ptr<RequestScheduler> scheduler_;
  std::unique_ptr<net::NetServer> server_;
};

TEST_F(NetServingTest, PingRoundTrip) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(NetServingTest, PredictRoundTripBitIdentical) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  auto row = workloads::GenBatch(1, Shape{16}, 11);
  ASSERT_TRUE(row.ok());
  auto expected = Direct(*row);
  ASSERT_TRUE(expected.ok());

  auto got = client->Predict("m", *row);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->shape().NumElements(),
            expected->shape().NumElements());
  // Bit-identical, not approximately equal: the wire carries raw
  // float bytes both ways and coalescing is bit-transparent.
  EXPECT_EQ(std::memcmp(got->data(), expected->data(),
                        expected->shape().NumElements() *
                            sizeof(float)),
            0);
}

TEST_F(NetServingTest, MultiRowBatchRoundTrips) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  auto batch = workloads::GenBatch(8, Shape{16}, 12);
  ASSERT_TRUE(batch.ok());
  auto expected = Direct(*batch);
  ASSERT_TRUE(expected.ok());

  auto got = client->Predict("m", *batch);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->MaxAbsDiff(*expected), 0.0f);
}

TEST_F(NetServingTest, TypedErrorsCrossTheWire) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  auto row = workloads::GenBatch(1, Shape{16}, 13);
  ASSERT_TRUE(row.ok());

  // Unknown model: the session's NotFound arrives typed.
  auto missing = client->Predict("nope", *row);
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound()) << missing.status();

  // Pre-expired deadline: the scheduler's shed arrives typed.
  auto expired = client->Predict("m", *row, /*deadline_us=*/-1);
  ASSERT_FALSE(expired.ok());
  EXPECT_TRUE(expired.status().IsDeadlineExceeded())
      << expired.status();

  // The connection survives both typed errors.
  EXPECT_TRUE(client->Ping().ok());
}

// The members of object `name` in a stats frame: every occurrence of
// each key, with its value.
std::map<std::string, std::vector<double>> StatsObject(
    const std::string& json, const std::string& name) {
  std::map<std::string, std::vector<double>> members;
  const size_t open = json.find("\"" + name + "\":{");
  if (open == std::string::npos) return members;
  const size_t begin = json.find('{', open) + 1;
  const std::string body = json.substr(begin, json.find('}', begin) - begin);
  size_t pos = 0;
  while (pos < body.size()) {
    const size_t key_end = body.find('"', pos + 1);
    const std::string key = body.substr(pos + 1, key_end - pos - 1);
    const size_t end = std::min(body.find(',', key_end), body.size());
    members[key].push_back(
        std::strtod(body.substr(key_end + 2, end - key_end - 2).c_str(),
                    nullptr));
    pos = end + 1;
  }
  return members;
}

// Every ForEachField entry of `snapshot` appears exactly once in
// object `name` of the stats frame `json`, with the snapshot's value —
// or, for a `trailing` field that the frame's own reply bumps after
// rendering, a value no larger.
template <typename Stats>
void ExpectRendered(const std::string& json, const std::string& name,
                    const Stats& snapshot,
                    const std::set<std::string>& trailing = {}) {
  const auto members = StatsObject(json, name);
  size_t fields = 0;
  snapshot.ForEachField([&](const char* field, const auto& value) {
    ++fields;
    const auto it = members.find(field);
    ASSERT_NE(it, members.end()) << name << "." << field << " in " << json;
    ASSERT_EQ(it->second.size(), 1u) << name << "." << field;
    const double expected = static_cast<double>(value);
    if (trailing.count(field) > 0) {
      EXPECT_LE(it->second[0], expected) << name << "." << field;
    } else {
      EXPECT_NEAR(it->second[0], expected, 1e-5 * std::abs(expected))
          << name << "." << field;
    }
  });
  EXPECT_EQ(members.size(), fields) << name << " in " << json;
}

TEST_F(NetServingTest, DeployAndStatsOverTheWire) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  // Redeploy the registered model relationally over the wire.
  EXPECT_TRUE(client->Deploy("m", /*mode=*/2, /*batch=*/8).ok());
  auto row = workloads::GenBatch(1, Shape{16}, 14);
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE(client->Predict("m", *row).ok());

  // Deploying an unregistered model fails typed.
  EXPECT_TRUE(client->Deploy("nope", 0, 8).IsNotFound());

  // Quiesce: the relational predict may leave page prefetches queued.
  BufferPool* pool = session_.exec_context()->buffer_pool;
  for (int i = 0; i < 10000; ++i) {
    const BufferPoolStats s = pool->stats();
    if (s.prefetches_completed == s.prefetches_issued) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  // Every field of every stats struct rides the frame once, with the
  // value a stats() snapshot reads. The frame is rendered before its
  // own reply is queued and written.
  // The park counters move whenever a thread goes idle.
  ExpectRendered(*stats, "scheduler", scheduler_->stats(),
                 {"worker_parks"});
  ExpectRendered(*stats, "server", server_->stats(),
                 {"frames_out", "bytes_out", "write_calls", "loop_parks"});
  ExpectRendered(*stats, "dedup", session_.block_index()->stats());
  ExpectRendered(*stats, "exec", session_.exec_context()->stats);
  ExpectRendered(*stats, "buffer_pool", pool->stats());
  // The keys clients already read stay in the frame.
  for (const char* key :
       {"submitted", "shed_queue_full", "shed_deadline", "shed_breaker",
        "retries", "batches", "coalesced_requests", "total_rows",
        "max_batch_rows_seen", "mean_batch_rows", "connections_accepted",
        "connections_closed", "frames_in", "frames_out", "bytes_in",
        "bytes_out", "protocol_errors", "idle_closed",
        "connections_refused", "memory_closed", "write_calls",
        "worker_parks", "loop_parks", "unique_blocks",
        "logical_refs", "physical_bytes", "logical_bytes", "dedup_hits",
        "freed_blocks", "pinned_peak"}) {
    EXPECT_NE(stats->find(std::string("\"") + key + "\":"),
              std::string::npos)
        << key;
  }
  // The relational redeploy above interned weight blocks and ran a
  // block matmul, so the dedup and exec counters are nonzero.
  EXPECT_GT(StatsObject(*stats, "dedup").at("unique_blocks").at(0), 0);
  EXPECT_GT(StatsObject(*stats, "exec").at("blocks_read").at(0), 0);
}

// A deploy batch whose plan estimate overflows int64 gets a typed
// error reply; the connection stays open and the model keeps serving
// the plan it had.
TEST_F(NetServingTest, OverflowingDeployBatchIsATypedError) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Deploy("m", /*mode=*/0, int64_t{1} << 62)
                  .IsInvalidArgument());
  auto row = workloads::GenBatch(1, Shape{16}, 15);
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE(client->Predict("m", *row).ok());
  auto plan = session_.DeployedPhysicalPlan("m");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->logical_plan().batch_size, 8);
  EXPECT_EQ(server_->stats().protocol_errors.load(), 0);
}

// An idle server parks: its event loop stops polling once the spin
// budget has passed (DESIGN.md "Network serving front-end"), so a
// server with no traffic burns no CPU; both park counters ride the
// stats frame.
TEST_F(NetServingTest, IdleServerParks) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  auto row = workloads::GenBatch(1, Shape{16}, 16);
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(client->Predict("m", *row).ok());
  const int64_t before = server_->stats().loop_parks.load();
  std::this_thread::sleep_for(20 * kIdleSpinBudget);
  // Sanitizer builds may not schedule the loop at once; an idle loop
  // also re-parks after each epoll timeout, so a park always follows.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->stats().loop_parks.load() <= before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const int64_t parked = server_->stats().loop_parks.load();
  EXPECT_GT(parked, before);

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GE(StatsObject(*stats, "server").at("loop_parks").at(0), parked);
  // The predict's worker parked at least once: timing its batching
  // window, or idle afterwards.
  EXPECT_GT(StatsObject(*stats, "scheduler").at("worker_parks").at(0), 0);
  // The loop still serves after parking.
  auto again = client->Predict("m", *row);
  ASSERT_TRUE(again.ok()) << again.status();
}

TEST_F(NetServingTest, PipelinedRequestsMatchByRequestId) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  auto row = workloads::GenBatch(1, Shape{16}, 15);
  ASSERT_TRUE(row.ok());
  auto expected = Direct(*row);
  ASSERT_TRUE(expected.ok());

  // Many requests in flight on one socket before any reply is read;
  // replies carry ids, and every id comes back exactly once.
  constexpr int kInFlight = 24;
  for (int i = 0; i < kInFlight; ++i) {
    ASSERT_TRUE(client->SendPredict(100 + i, "m", *row).ok());
  }
  std::set<uint64_t> seen;
  for (int i = 0; i < kInFlight; ++i) {
    auto reply = client->ReceiveReply();
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_TRUE(reply->status.ok()) << reply->status;
    EXPECT_GE(reply->header.request_id, 100u);
    EXPECT_LT(reply->header.request_id, 100u + kInFlight);
    EXPECT_TRUE(seen.insert(reply->header.request_id).second);
    EXPECT_EQ(reply->tensor.MaxAbsDiff(*expected), 0.0f);
  }
}

// Blocks until the server has read `n` frames in total.
void WaitForFramesIn(const net::NetServer& server, int64_t n) {
  while (server.stats().frames_in.load() < n) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Paused, with a batching window so long that a batch closes on its
// 16th row, never on the window: a frame the loop has counted but not
// yet submitted still joins the batch. A 16-row Direct call closes its
// batch at once.
SchedulerConfig PausedSixteenRowBatches() {
  SchedulerConfig config = SmallSchedulerConfig();
  config.start_paused = true;
  config.max_batch_rows = 16;
  config.max_delay_us = 10'000'000;
  return config;
}

// Row `i` of `batch` as a 1-row tensor.
Tensor RowOf(const Tensor& batch, int64_t i) {
  const int64_t cols = batch.shape().dim(1);
  auto row = Tensor::Create(Shape{1, cols});
  EXPECT_TRUE(row.ok());
  std::memcpy(row->data(), batch.data() + i * cols, cols * sizeof(float));
  return std::move(*row);
}

// `got` holds exactly row `i` of `expected`, bit for bit.
void ExpectRowBits(const Tensor& got, const Tensor& expected, int64_t i) {
  const int64_t cols = expected.shape().dim(1);
  ASSERT_EQ(got.NumElements(), cols);
  EXPECT_EQ(std::memcmp(got.data(), expected.data() + i * cols,
                        cols * sizeof(float)),
            0)
      << "row " << i;
}

// server.stats() once `write_calls` has reached `n`. A write's counter
// is bumped just after the write returns, so a client can read the
// bytes before the count moves; every earlier write is counted by then.
net::NetServerStats StatsAfterWrites(const net::NetServer& server,
                                     int64_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().write_calls.load() < n &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return server.stats();
}

TEST_F(NetServingTest, RepliesOfOneBatchLeaveInOneWrite) {
  StartServer({}, PausedSixteenRowBatches());
  auto client = Connect();
  ASSERT_NE(client, nullptr);

  // Sixteen 1-row predicts wait in the admission queue, then run as
  // one 16-row batch whose replies all leave in a single write.
  constexpr int kRequests = 16;
  auto rows = workloads::GenBatch(kRequests, Shape{16}, 400);
  ASSERT_TRUE(rows.ok());
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client->SendPredict(500 + i, "m", RowOf(*rows, i)).ok());
  }
  WaitForFramesIn(*server_, kRequests);
  const net::NetServerStats before = server_->stats();
  scheduler_->Resume();

  std::vector<net::Reply> replies;
  for (int i = 0; i < kRequests; ++i) {
    auto reply = client->ReceiveReply();
    ASSERT_TRUE(reply.ok()) << reply.status();
    replies.push_back(std::move(*reply));
  }
  const net::NetServerStats after =
      StatsAfterWrites(*server_, before.write_calls + 1);
  EXPECT_EQ(scheduler_->stats().batches.load(), 1);
  EXPECT_EQ(after.frames_out - before.frames_out, kRequests);
  EXPECT_EQ(after.write_calls - before.write_calls, 1);

  // In request order, each bit-identical to an in-process predict.
  auto expected = Direct(*rows);
  ASSERT_TRUE(expected.ok());
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(replies[i].status.ok()) << replies[i].status;
    EXPECT_EQ(replies[i].header.request_id, 500u + i);
    ExpectRowBits(replies[i].tensor, *expected, i);
  }
}

TEST_F(NetServingTest, RepliesCoalescePerConnection) {
  StartServer({}, PausedSixteenRowBatches());

  // Four connections, four requests each, all in one 16-row batch: one
  // write per connection, and each carries only that connection's
  // replies (connection c sends rows 4c .. 4c+3).
  constexpr int kConns = 4;
  constexpr int kPerConn = 4;
  auto rows = workloads::GenBatch(kConns * kPerConn, Shape{16}, 600);
  ASSERT_TRUE(rows.ok());
  std::vector<std::unique_ptr<net::NetClient>> clients;
  for (int c = 0; c < kConns; ++c) {
    clients.push_back(Connect());
    ASSERT_NE(clients.back(), nullptr);
    for (int i = 0; i < kPerConn; ++i) {
      ASSERT_TRUE(clients[c]
                      ->SendPredict(1000 * (c + 1) + i, "m",
                                    RowOf(*rows, c * kPerConn + i))
                      .ok());
    }
  }
  WaitForFramesIn(*server_, kConns * kPerConn);
  const net::NetServerStats before = server_->stats();
  scheduler_->Resume();

  std::vector<std::vector<net::Reply>> replies(kConns);
  for (int c = 0; c < kConns; ++c) {
    for (int i = 0; i < kPerConn; ++i) {
      auto reply = clients[c]->ReceiveReply();
      ASSERT_TRUE(reply.ok()) << reply.status();
      replies[c].push_back(std::move(*reply));
    }
  }
  const net::NetServerStats after =
      StatsAfterWrites(*server_, before.write_calls + kConns);
  EXPECT_EQ(scheduler_->stats().batches.load(), 1);
  EXPECT_EQ(after.frames_out - before.frames_out, kConns * kPerConn);
  EXPECT_EQ(after.write_calls - before.write_calls, kConns);

  auto expected = Direct(*rows);
  ASSERT_TRUE(expected.ok());
  for (int c = 0; c < kConns; ++c) {
    for (int i = 0; i < kPerConn; ++i) {
      const net::Reply& reply = replies[c][i];
      ASSERT_TRUE(reply.status.ok()) << reply.status;
      EXPECT_EQ(reply.header.request_id, 1000u * (c + 1) + i);
      ExpectRowBits(reply.tensor, *expected, c * kPerConn + i);
    }
  }
}

TEST_F(NetServingTest, ExpiredPredictsOfOneConnectionLeaveInOneWrite) {
  // The eighth row makes the batch due, so all eight are taken together.
  constexpr int kRequests = 8;
  SchedulerConfig config = PausedSixteenRowBatches();
  config.max_batch_rows = kRequests;
  StartServer({}, config);
  auto client = Connect();
  ASSERT_NE(client, nullptr);

  // Deadline sheds run on the worker inside the batch's completion
  // scope, so their replies share one write like served ones do.
  auto rows = workloads::GenBatch(kRequests, Shape{16}, 800);
  ASSERT_TRUE(rows.ok());
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client
                    ->SendPredict(900 + i, "m", RowOf(*rows, i),
                                  /*deadline_us=*/-1)
                    .ok());
  }
  WaitForFramesIn(*server_, kRequests);
  const net::NetServerStats before = server_->stats();
  scheduler_->Resume();

  for (int i = 0; i < kRequests; ++i) {
    auto reply = client->ReceiveReply();
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->header.request_id, 900u + i);
    EXPECT_TRUE(reply->status.IsDeadlineExceeded()) << reply->status;
  }
  const net::NetServerStats after =
      StatsAfterWrites(*server_, before.write_calls + 1);
  EXPECT_EQ(scheduler_->stats().shed_deadline.load(), kRequests);
  EXPECT_EQ(after.write_calls - before.write_calls, 1);
}

TEST_F(NetServingTest, ConcurrentClientsAllBitIdentical) {
  StartServer();
  auto row = workloads::GenBatch(1, Shape{16}, 16);
  ASSERT_TRUE(row.ok());
  auto expected = Direct(*row);
  ASSERT_TRUE(expected.ok());

  // 8 threads x 1 connection x 16 closed-loop predicts; rows from
  // different sockets coalesce into shared micro-batches, results
  // must stay per-request exact.
  constexpr int kClients = 8;
  constexpr int kPerClient = 16;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      auto client = net::NetClient::Connect("127.0.0.1",
                                            server_->port());
      if (!client.ok()) {
        bad.fetch_add(kPerClient);
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {
        auto got = (*client)->Predict("m", *row);
        if (!got.ok() || got->MaxAbsDiff(*expected) != 0.0f) ++bad;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GE(scheduler_->stats().coalesced_requests.load(), 0);
}

TEST_F(NetServingTest, BadMagicGetsProtocolErrorAndClose) {
  StartServer();
  RawConn raw(server_->port());
  ASSERT_TRUE(raw.connected());

  // A well-framed 16-byte header with the wrong magic.
  char frame[20];
  const uint32_t len = 16;
  std::memcpy(frame, &len, 4);
  std::memset(frame + 4, 0xAB, 16);
  ASSERT_TRUE(raw.Send(frame, sizeof(frame)));

  const std::vector<char> reply = raw.DrainToEof();  // server closed
  // The best-effort reply is a ProtocolError frame with request id 0.
  ASSERT_GE(reply.size(), net::kLenPrefixBytes + net::kFrameHeaderBytes);
  auto header = net::DecodeFrameHeader(
      reply.data() + net::kLenPrefixBytes,
      reply.size() - net::kLenPrefixBytes);
  ASSERT_TRUE(header.ok()) << header.status();
  EXPECT_EQ(header->request_id, 0u);
  EXPECT_EQ(net::StatusCodeFromWire(header->status),
            StatusCode::kProtocolError);
  EXPECT_GE(server_->stats().protocol_errors.load(), 1);
}

TEST_F(NetServingTest, OversizedFrameClosesWithoutAllocating) {
  net::NetServerConfig config;
  config.max_frame_bytes = 4096;
  StartServer(config);
  RawConn raw(server_->port());
  ASSERT_TRUE(raw.connected());

  // Declare a 512 MB frame on a server capped at 4 KB. The cap check
  // runs on the declared length — before any buffer growth.
  const uint32_t huge = 512u << 20;
  ASSERT_TRUE(raw.Send(&huge, sizeof(huge)));

  const std::vector<char> reply = raw.DrainToEof();
  ASSERT_GE(reply.size(), net::kLenPrefixBytes + net::kFrameHeaderBytes);
  auto header = net::DecodeFrameHeader(
      reply.data() + net::kLenPrefixBytes,
      reply.size() - net::kLenPrefixBytes);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(net::StatusCodeFromWire(header->status),
            StatusCode::kProtocolError);
  EXPECT_GE(server_->stats().protocol_errors.load(), 1);

  // The server is still healthy for the next client.
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(NetServingTest, TruncatedFrameThenHalfCloseIsClean) {
  StartServer();
  RawConn raw(server_->port());
  ASSERT_TRUE(raw.connected());

  // Half a predict frame, then FIN: nothing to reply to, the server
  // just closes its side without dispatching anything.
  net::Buffer full;
  auto row = workloads::GenBatch(1, Shape{16}, 17);
  ASSERT_TRUE(row.ok());
  net::AppendPredictRequest(7, "m", *row, 0, &full);
  ASSERT_TRUE(raw.Send(full.data(), full.size() / 2));
  raw.CloseWrite();
  EXPECT_TRUE(raw.DrainToEof().empty());
  EXPECT_EQ(server_->stats().frames_in.load(), 0);
}

TEST_F(NetServingTest, GarbageBytesNeverCrashTheServer) {
  StartServer();
  // Deterministic LCG garbage, several connections' worth. Every
  // connection must end in a server-side close (oversized/broken
  // framing), and the server must stay fully serviceable after.
  uint64_t state = 0x9E3779B97F4A7C15ull;
  for (int round = 0; round < 8; ++round) {
    RawConn raw(server_->port());
    ASSERT_TRUE(raw.connected());
    char junk[512];
    for (char& b : junk) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      b = static_cast<char>(state >> 33);
    }
    ASSERT_TRUE(raw.Send(junk, sizeof(junk)));
    raw.CloseWrite();
    raw.DrainToEof();
  }
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(NetServingTest, ShortReadsReassembleFrames) {
  StartServer();
  // Cap every server-side recv at 3 bytes: a multi-hundred-byte
  // predict frame arrives in ~100 fragments and must reassemble.
  failpoint::ScopedFailpoint short_reads(
      "net.read.short", failpoint::Spec::Bitflip());
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  auto row = workloads::GenBatch(1, Shape{16}, 18);
  ASSERT_TRUE(row.ok());
  auto expected = Direct(*row);
  ASSERT_TRUE(expected.ok());
  auto got = client->Predict("m", *row);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->MaxAbsDiff(*expected), 0.0f);
}

TEST_F(NetServingTest, CorruptedFrameIsDetectedAndRejected) {
  StartServer();
  // Flip one deterministic bit in the next frame's magic/version
  // region: the server must answer ProtocolError and close — never
  // dispatch the corrupted frame.
  failpoint::ScopedFailpoint corrupt(
      "net.frame.corrupt", failpoint::Spec::Bitflip().Once());
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  auto row = workloads::GenBatch(1, Shape{16}, 19);
  ASSERT_TRUE(row.ok());
  auto got = client->Predict("m", *row);
  ASSERT_FALSE(got.ok());
  // Either the typed reply arrived before the close, or the close won
  // the race; both are protocol-clean outcomes.
  EXPECT_TRUE(got.status().IsProtocolError() ||
              got.status().IsUnavailable())
      << got.status();
  EXPECT_GE(server_->stats().protocol_errors.load(), 1);
}

TEST_F(NetServingTest, IdleConnectionsAreSwept) {
  net::NetServerConfig config;
  config.idle_timeout_ms = 50;
  StartServer(config);
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Ping().ok());
  // Go quiet past the timeout; the sweeper closes us.
  auto reply = client->ReceiveReply();  // blocks until the close
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(reply.status().IsUnavailable()) << reply.status();
  EXPECT_GE(server_->stats().idle_closed.load(), 1);
}

TEST_F(NetServingTest, HalfCloseStillDeliversPendingReplies) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  auto row = workloads::GenBatch(1, Shape{16}, 20);
  ASSERT_TRUE(row.ok());
  auto expected = Direct(*row);
  ASSERT_TRUE(expected.ok());

  // Requests in flight, then shutdown(SHUT_WR): the server finishes
  // every admitted request and flushes the replies before closing.
  constexpr int kInFlight = 6;
  for (int i = 0; i < kInFlight; ++i) {
    ASSERT_TRUE(client->SendPredict(200 + i, "m", *row).ok());
  }
  client->CloseWrite();
  int ok = 0;
  for (int i = 0; i < kInFlight; ++i) {
    auto reply = client->ReceiveReply();
    if (reply.ok() && reply->status.ok() &&
        reply->tensor.MaxAbsDiff(*expected) == 0.0f) {
      ++ok;
    }
  }
  EXPECT_EQ(ok, kInFlight);
  // And then the close arrives.
  EXPECT_TRUE(client->ReceiveReply().status().IsUnavailable());
}

TEST_F(NetServingTest, HalfCloseBeforeBatchStillDeliversReplies) {
  SchedulerConfig sched_config = SmallSchedulerConfig();
  sched_config.start_paused = true;
  StartServer({}, sched_config);
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  auto row = workloads::GenBatch(1, Shape{16}, 22);
  ASSERT_TRUE(row.ok());

  // The peer half-closes while its requests still wait for a batch:
  // the batch's one deferred flush delivers every reply, then the
  // connection closes.
  constexpr int kInFlight = 6;
  for (int i = 0; i < kInFlight; ++i) {
    ASSERT_TRUE(client->SendPredict(700 + i, "m", *row).ok());
  }
  WaitForFramesIn(*server_, kInFlight);
  client->CloseWrite();
  // Give the loop time to read the EOF before the batch runs; the
  // contract holds either way.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  scheduler_->Resume();
  auto expected = Direct(*row);
  ASSERT_TRUE(expected.ok());
  int ok = 0;
  for (int i = 0; i < kInFlight; ++i) {
    auto reply = client->ReceiveReply();
    if (reply.ok() && reply->status.ok() &&
        reply->tensor.MaxAbsDiff(*expected) == 0.0f) {
      ++ok;
    }
  }
  EXPECT_EQ(ok, kInFlight);
  EXPECT_TRUE(client->ReceiveReply().status().IsUnavailable());
}

TEST_F(NetServingTest, ShutdownDrainsInFlightRequests) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  auto row = workloads::GenBatch(1, Shape{16}, 21);
  ASSERT_TRUE(row.ok());

  constexpr int kInFlight = 4;
  for (int i = 0; i < kInFlight; ++i) {
    ASSERT_TRUE(client->SendPredict(300 + i, "m", *row).ok());
  }
  // Wait until the server has actually read and admitted them, so the
  // drain contract (not a read/shutdown race) is what's under test.
  WaitForFramesIn(*server_, kInFlight);
  server_->Shutdown();
  int ok = 0;
  for (int i = 0; i < kInFlight; ++i) {
    auto reply = client->ReceiveReply();
    if (reply.ok() && reply->status.ok()) ++ok;
  }
  EXPECT_EQ(ok, kInFlight);
}

TEST_F(NetServingTest, MaxConnectionsRefusedWithTypedFrame) {
  net::NetServerConfig config;
  config.max_connections = 2;
  StartServer(config);

  auto c1 = Connect();
  auto c2 = Connect();
  ASSERT_NE(c1, nullptr);
  ASSERT_NE(c2, nullptr);
  ASSERT_TRUE(c1->Ping().ok());
  ASSERT_TRUE(c2->Ping().ok());

  // Third connection: TCP connect succeeds (backlog), but the server
  // answers with a typed Unavailable refusal frame and closes.
  RawConn raw(server_->port());
  ASSERT_TRUE(raw.connected());
  const std::vector<char> reply = raw.DrainToEof();
  ASSERT_GE(reply.size(),
            net::kLenPrefixBytes + net::kFrameHeaderBytes);
  auto header = net::DecodeFrameHeader(
      reply.data() + net::kLenPrefixBytes,
      reply.size() - net::kLenPrefixBytes);
  ASSERT_TRUE(header.ok()) << header.status();
  EXPECT_EQ(header->request_id, 0u);
  EXPECT_EQ(net::StatusCodeFromWire(header->status),
            StatusCode::kUnavailable);
  EXPECT_GE(server_->stats().connections_refused.load(), 1);

  // The admitted connections are untouched by the refusal.
  EXPECT_TRUE(c1->Ping().ok());
  EXPECT_TRUE(c2->Ping().ok());

  // Freeing a slot re-opens admission (the close is observed by the
  // loop asynchronously, so poll briefly).
  c2.reset();
  bool admitted = false;
  for (int i = 0; i < 200 && !admitted; ++i) {
    auto c3 = net::NetClient::Connect("127.0.0.1", server_->port());
    if (c3.ok() && (*c3)->Ping().ok()) {
      admitted = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(admitted);
}

TEST_F(NetServingTest, PerConnectionMemoryCapCloses) {
  net::NetServerConfig config;
  config.max_conn_memory_bytes = 4096;
  StartServer(config);
  RawConn raw(server_->port());
  ASSERT_TRUE(raw.connected());

  // A partial frame whose declared length (1 MB) clears the per-frame
  // cap but whose buffered bytes blow the total-memory cap: the frame
  // never completes, yet the connection may not pin that memory.
  const uint32_t declared = 1u << 20;
  ASSERT_TRUE(raw.Send(&declared, sizeof(declared)));
  std::vector<char> partial(16 * 1024, 0x5A);
  ASSERT_TRUE(raw.Send(partial.data(), partial.size()));

  const std::vector<char> reply = raw.DrainToEof();  // server closed
  ASSERT_GE(reply.size(),
            net::kLenPrefixBytes + net::kFrameHeaderBytes);
  auto header = net::DecodeFrameHeader(
      reply.data() + net::kLenPrefixBytes,
      reply.size() - net::kLenPrefixBytes);
  ASSERT_TRUE(header.ok()) << header.status();
  EXPECT_EQ(net::StatusCodeFromWire(header->status),
            StatusCode::kProtocolError);
  EXPECT_GE(server_->stats().memory_closed.load(), 1);

  // The abusive connection is gone; the server serves the next one.
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(NetServingTest, WireStatusBytesAreStable) {
  // On-the-wire values are a protocol contract; renumbering Status
  // enum internals must never leak to the wire.
  EXPECT_EQ(net::WireStatusByte(StatusCode::kOk), 0);
  EXPECT_EQ(net::StatusCodeFromWire(0), StatusCode::kOk);
  EXPECT_EQ(net::StatusCodeFromWire(
                net::WireStatusByte(StatusCode::kProtocolError)),
            StatusCode::kProtocolError);
  EXPECT_EQ(net::StatusCodeFromWire(
                net::WireStatusByte(StatusCode::kDeadlineExceeded)),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(net::StatusCodeFromWire(
                net::WireStatusByte(StatusCode::kNotFound)),
            StatusCode::kNotFound);
  // Unknown bytes decode to kInternal, never to kOk.
  EXPECT_EQ(net::StatusCodeFromWire(0xEE), StatusCode::kInternal);
}

}  // namespace
}  // namespace relserve
