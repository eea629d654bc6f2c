#include <gtest/gtest.h>

#include "engine/connector.h"
#include "engine/external_runtime.h"
#include "engine/hybrid_executor.h"
#include "graph/model.h"
#include "relational/operator.h"
#include "workloads/datasets.h"

namespace relserve {
namespace {

TEST(ConnectorTest, FeatureStreamRoundTripFromTensor) {
  auto batch = workloads::GenBatch(5, Shape{7}, 1);
  ASSERT_TRUE(batch.ok());
  auto encoded = Connector::EncodeFeatureStream(*batch);
  ASSERT_TRUE(encoded.ok());
  // Framing adds 4 bytes per row.
  EXPECT_EQ(encoded->size(), 5 * (4 + 7 * 4));
  auto decoded = Connector::DecodeFeatureStream(*encoded, nullptr);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FLOAT_EQ(batch->MaxAbsDiff(*decoded), 0.0f);
}

TEST(ConnectorTest, FeatureStreamFromRows) {
  Schema schema({{"id", ValueType::kInt64},
                 {"features", ValueType::kFloatVector}});
  std::vector<Row> rows = {
      Row({Value(int64_t{0}), Value(std::vector<float>{1, 2})}),
      Row({Value(int64_t{1}), Value(std::vector<float>{3, 4})})};
  MemScan scan(rows, schema);
  auto encoded = Connector::EncodeFeatureStream(&scan, 1);
  ASSERT_TRUE(encoded.ok());
  auto decoded = Connector::DecodeFeatureStream(*encoded, nullptr);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(decoded->At(1, 0), 3.0f);
}

TEST(ConnectorTest, EncodeRejectsNonVectorColumn) {
  Schema schema({{"id", ValueType::kInt64}});
  std::vector<Row> rows = {Row({Value(int64_t{0})})};
  MemScan scan(rows, schema);
  EXPECT_TRUE(Connector::EncodeFeatureStream(&scan, 0)
                  .status()
                  .IsInvalidArgument());
}

TEST(ConnectorTest, DecodeRejectsRaggedStream) {
  Schema schema({{"f", ValueType::kFloatVector}});
  std::vector<Row> rows = {
      Row({Value(std::vector<float>{1, 2})}),
      Row({Value(std::vector<float>{3})})};
  MemScan scan(rows, schema);
  auto encoded = Connector::EncodeFeatureStream(&scan, 0);
  ASSERT_TRUE(encoded.ok());
  EXPECT_FALSE(Connector::DecodeFeatureStream(*encoded, nullptr).ok());
}

TEST(ConnectorTest, DecodeChargesReceiverArena) {
  auto batch = workloads::GenBatch(10, Shape{100}, 1);
  ASSERT_TRUE(batch.ok());
  auto encoded = Connector::EncodeFeatureStream(*batch);
  ASSERT_TRUE(encoded.ok());
  MemoryTracker arena("rt", 1000);  // too small for 4000 B of floats
  EXPECT_TRUE(Connector::DecodeFeatureStream(*encoded, &arena)
                  .status()
                  .IsOutOfMemory());
}

TEST(ConnectorTest, TensorWireRoundTrip) {
  auto t = workloads::GenBatch(3, Shape{4, 5}, 2);
  ASSERT_TRUE(t.ok());
  auto encoded = Connector::EncodeTensor(*t);
  ASSERT_TRUE(encoded.ok());
  auto decoded = Connector::DecodeTensor(*encoded, nullptr);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->shape(), t->shape());
  EXPECT_FLOAT_EQ(t->MaxAbsDiff(*decoded), 0.0f);
}

TEST(ConnectorTest, DecodeTensorRejectsTruncation) {
  auto t = workloads::GenBatch(2, Shape{3}, 2);
  auto encoded = Connector::EncodeTensor(*t);
  ASSERT_TRUE(encoded.ok());
  std::string truncated = encoded->substr(0, encoded->size() - 4);
  EXPECT_FALSE(Connector::DecodeTensor(truncated, nullptr).ok());
}

TEST(ExternalRuntimeTest, EndToEndInference) {
  auto model = BuildFFNN("m", {8, 16, 3}, 1);
  ASSERT_TRUE(model.ok());
  ExternalRuntime runtime("tf-sim", 64LL << 20);
  ASSERT_TRUE(runtime.RegisterModel(&*model).ok());
  // Weights are resident in the runtime arena after registration.
  EXPECT_GT(runtime.tracker()->used_bytes(), 0);

  auto batch = workloads::GenBatch(6, Shape{8}, 4);
  ASSERT_TRUE(batch.ok());
  auto request = Connector::EncodeFeatureStream(*batch);
  ASSERT_TRUE(request.ok());
  auto response =
      runtime.Infer("m", Connector::Transmit(*request));
  ASSERT_TRUE(response.ok());
  auto prediction = Connector::DecodeTensor(*response, nullptr);
  ASSERT_TRUE(prediction.ok());
  EXPECT_EQ(prediction->shape(), (Shape{6, 3}));
  EXPECT_EQ(runtime.stats().requests.load(), 1);
  EXPECT_GT(runtime.stats().bytes_received.load(), 0);
  EXPECT_GT(runtime.stats().bytes_sent.load(), 0);
}

TEST(ExternalRuntimeTest, UnknownModelIsNotFound) {
  ExternalRuntime runtime("rt", 1 << 20);
  EXPECT_TRUE(runtime.Infer("nope", "").status().IsNotFound());
}

TEST(ExternalRuntimeTest, RegisterOomsWhenModelTooLarge) {
  auto model = BuildFFNN("big", {1000, 1000, 10}, 1);  // ~4 MB weights
  ASSERT_TRUE(model.ok());
  ExternalRuntime runtime("tiny", 1 << 20);  // 1 MB arena
  EXPECT_TRUE(runtime.RegisterModel(&*model).IsOutOfMemory());
}

TEST(ExternalRuntimeTest, InferOomsOnOversizedBatch) {
  auto model = BuildFFNN("m", {64, 32, 4}, 1);
  ASSERT_TRUE(model.ok());
  // Arena fits the weights (~10 KB) but not a big batch.
  ExternalRuntime runtime("rt", 64 * 1024);
  ASSERT_TRUE(runtime.RegisterModel(&*model).ok());
  auto batch = workloads::GenBatch(2000, Shape{64}, 4);  // ~512 KB
  ASSERT_TRUE(batch.ok());
  auto request = Connector::EncodeFeatureStream(*batch);
  ASSERT_TRUE(request.ok());
  auto response = runtime.Infer("m", Connector::Transmit(*request));
  EXPECT_TRUE(response.status().IsOutOfMemory());
  // A small batch still works afterwards (no leaked charge).
  auto small = workloads::GenBatch(4, Shape{64}, 4);
  auto ok_request = Connector::EncodeFeatureStream(*small);
  ASSERT_TRUE(ok_request.ok());
  EXPECT_TRUE(runtime.Infer("m", Connector::Transmit(*ok_request)).ok());
}

TEST(ExternalRuntimeTest, MatchesInDatabaseExecution) {
  auto model = BuildFFNN("m", {10, 12, 4}, 9);
  ASSERT_TRUE(model.ok());
  ExternalRuntime runtime("rt", 64LL << 20);
  ASSERT_TRUE(runtime.RegisterModel(&*model).ok());
  auto batch = workloads::GenBatch(5, Shape{10}, 6);
  ASSERT_TRUE(batch.ok());

  auto request = Connector::EncodeFeatureStream(*batch);
  ASSERT_TRUE(request.ok());
  auto response = runtime.Infer("m", *request);
  ASSERT_TRUE(response.ok());
  auto remote = Connector::DecodeTensor(*response, nullptr);
  ASSERT_TRUE(remote.ok());

  // In-database UDF-centric run of the same model.
  MemoryTracker tracker("db");
  ExecContext ctx;
  ctx.tracker = &tracker;
  auto compiled = PhysicalPlan::Compile(
      &*model, MakeForcedPlan(*model, Repr::kUdf, 0), &ctx);
  ASSERT_TRUE(compiled.ok());
  auto out = HybridExecutor::Run(**compiled, *batch, &ctx);
  ASSERT_TRUE(out.ok());
  auto local = out->ToTensor(&ctx);
  ASSERT_TRUE(local.ok());
  EXPECT_LT(local->MaxAbsDiff(*remote), 1e-6f);
}

}  // namespace
}  // namespace relserve
