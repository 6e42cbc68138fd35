#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>

#include "common/rng.h"
#include "data/synth.h"
#include "feature_store/feature_store.h"
#include "gtest/gtest.h"
#include "core/model_zoo.h"
#include "net/client.h"
#include "net/epoll_server.h"
#include "net/router.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "runtime/serving_engine.h"
#include "feature_store/feature_server.h"
#include "serving/pipeline.h"
#include "serving/recall.h"

namespace basm::net {
namespace {

// ------------------------------------------------------------- wire codec --

RpcRequest SampleRequest() {
  RpcRequest request;
  request.sequence = 7;
  request.request.user_id = 42;
  request.request.hour = 12;
  request.request.weekday = 3;
  request.request.city = 2;
  request.request.day = 5;
  request.request.request_id = 901;
  request.deadline_micros = 250000;
  request.candidates = {10, 20, 30, 40};
  return request;
}

RpcResponse SampleResponse() {
  RpcResponse response;
  response.sequence = 7;
  response.code = StatusCode::kOk;
  response.replica = 1;
  response.model_version = 9;
  response.degraded = true;
  response.message = "fine";
  for (int i = 0; i < 3; ++i) {
    serving::RankedItem item;
    item.item_id = 100 + i;
    item.score = 0.5f - 0.1f * static_cast<float>(i);
    item.position = i;
    response.slate.push_back(item);
  }
  return response;
}

/// Splits a full frame into (validated header, payload bytes).
void SplitFrame(const std::vector<uint8_t>& frame, FrameHeader* header,
                std::vector<uint8_t>* payload) {
  ASSERT_GE(frame.size(), kFrameHeaderBytes);
  ASSERT_TRUE(DecodeFrameHeader(frame.data(), frame.size(), header).ok());
  payload->assign(frame.begin() + kFrameHeaderBytes, frame.end());
  ASSERT_TRUE(
      VerifyPayload(*header, payload->data(), payload->size()).ok());
}

TEST(NetTest, RequestFrameRoundTrips) {
  RpcRequest request = SampleRequest();
  std::vector<uint8_t> frame = EncodeRequestFrame(request);

  FrameHeader header;
  std::vector<uint8_t> payload;
  SplitFrame(frame, &header, &payload);
  EXPECT_EQ(header.type, FrameType::kRequest);
  EXPECT_EQ(header.version, kWireVersion);

  RpcRequest decoded;
  ASSERT_TRUE(
      DecodeRequestPayload(payload.data(), payload.size(), &decoded).ok());
  EXPECT_EQ(decoded.sequence, request.sequence);
  EXPECT_EQ(decoded.request.user_id, request.request.user_id);
  EXPECT_EQ(decoded.request.hour, request.request.hour);
  EXPECT_EQ(decoded.request.weekday, request.request.weekday);
  EXPECT_EQ(decoded.request.city, request.request.city);
  EXPECT_EQ(decoded.request.day, request.request.day);
  EXPECT_EQ(decoded.request.request_id, request.request.request_id);
  EXPECT_EQ(decoded.deadline_micros, request.deadline_micros);
  EXPECT_EQ(decoded.candidates, request.candidates);
}

TEST(NetTest, ResponseFrameRoundTrips) {
  RpcResponse response = SampleResponse();
  std::vector<uint8_t> frame = EncodeResponseFrame(response);

  FrameHeader header;
  std::vector<uint8_t> payload;
  SplitFrame(frame, &header, &payload);
  EXPECT_EQ(header.type, FrameType::kResponse);

  RpcResponse decoded;
  ASSERT_TRUE(
      DecodeResponsePayload(payload.data(), payload.size(), &decoded).ok());
  EXPECT_EQ(decoded.sequence, response.sequence);
  EXPECT_EQ(decoded.code, response.code);
  EXPECT_EQ(decoded.replica, response.replica);
  EXPECT_EQ(decoded.model_version, response.model_version);
  EXPECT_EQ(decoded.degraded, response.degraded);
  EXPECT_EQ(decoded.message, response.message);
  ASSERT_EQ(decoded.slate.size(), response.slate.size());
  for (size_t i = 0; i < decoded.slate.size(); ++i) {
    EXPECT_EQ(decoded.slate[i].item_id, response.slate[i].item_id);
    EXPECT_EQ(decoded.slate[i].score, response.slate[i].score);
    EXPECT_EQ(decoded.slate[i].position, response.slate[i].position);
  }
}

TEST(NetTest, TruncatedHeaderIsError) {
  std::vector<uint8_t> frame = EncodeRequestFrame(SampleRequest());
  FrameHeader header;
  for (size_t len = 0; len < kFrameHeaderBytes; ++len) {
    Status s = DecodeFrameHeader(frame.data(), len, &header);
    EXPECT_FALSE(s.ok()) << "header of " << len << " bytes must not decode";
    EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  }
}

TEST(NetTest, MalformedHeaderCorpusIsRejected) {
  const std::vector<uint8_t> good = EncodeRequestFrame(SampleRequest());
  FrameHeader header;

  struct Mutation {
    const char* name;
    size_t offset;
    uint8_t value;
  };
  const Mutation corpus[] = {
      {"bad magic", 0, 0xFF},
      {"wrong version", 4, kWireVersion + 1},
      {"unknown frame type", 5, 99},
      {"nonzero reserved flag (low)", 6, 1},
      {"nonzero reserved flag (high)", 7, 0x80},
      {"oversized payload length", 11, 0xFF},  // top byte of payload_size
  };
  for (const Mutation& m : corpus) {
    std::vector<uint8_t> frame = good;
    frame[m.offset] = m.value;
    EXPECT_FALSE(DecodeFrameHeader(frame.data(), frame.size(), &header).ok())
        << m.name;
  }
}

TEST(NetTest, CorruptChecksumIsRejected) {
  std::vector<uint8_t> frame = EncodeRequestFrame(SampleRequest());
  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(frame.data(), frame.size(), &header).ok());

  // Flip one payload bit: the declared checksum no longer matches.
  std::vector<uint8_t> payload(frame.begin() + kFrameHeaderBytes,
                               frame.end());
  payload[payload.size() / 2] ^= 0x01;
  Status s = VerifyPayload(header, payload.data(), payload.size());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);

  // A payload shorter than the header claims is a size mismatch.
  EXPECT_EQ(
      VerifyPayload(header, payload.data(), payload.size() - 1).code(),
      StatusCode::kOutOfRange);
}

TEST(NetTest, TruncatedPayloadNeverOverReads) {
  // Every strict prefix of a valid payload must fail cleanly — under ASan
  // this doubles as an over-read probe across all field boundaries.
  std::vector<uint8_t> req_frame = EncodeRequestFrame(SampleRequest());
  std::vector<uint8_t> req(req_frame.begin() + kFrameHeaderBytes,
                           req_frame.end());
  for (size_t len = 0; len < req.size(); ++len) {
    RpcRequest out;
    EXPECT_FALSE(DecodeRequestPayload(req.data(), len, &out).ok())
        << "request prefix of " << len << " bytes must not decode";
  }

  std::vector<uint8_t> resp_frame = EncodeResponseFrame(SampleResponse());
  std::vector<uint8_t> resp(resp_frame.begin() + kFrameHeaderBytes,
                            resp_frame.end());
  for (size_t len = 0; len < resp.size(); ++len) {
    RpcResponse out;
    EXPECT_FALSE(DecodeResponsePayload(resp.data(), len, &out).ok())
        << "response prefix of " << len << " bytes must not decode";
  }
}

TEST(NetTest, TrailingBytesAreRejected) {
  std::vector<uint8_t> frame = EncodeRequestFrame(SampleRequest());
  std::vector<uint8_t> payload(frame.begin() + kFrameHeaderBytes,
                               frame.end());
  payload.push_back(0xAB);
  RpcRequest out;
  Status s = DecodeRequestPayload(payload.data(), payload.size(), &out);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(NetTest, HostileCountsAreCappedBeforeAllocation) {
  // A request payload whose candidate count field claims 2^31 entries in a
  // tiny buffer: the cap and the bytes-present check both fire before any
  // allocation sized from the count.
  WireWriter w;
  w.PutU64(1);                      // sequence
  for (int i = 0; i < 6; ++i) w.PutI32(0);  // request fields
  w.PutI64(1000);                   // deadline
  w.PutU32(0x80000000u);            // hostile candidate count
  std::vector<uint8_t> hostile = w.Release();
  RpcRequest out;
  Status s = DecodeRequestPayload(hostile.data(), hostile.size(), &out);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);

  // Same shape at the slate: count over the cap, and a capped count whose
  // bytes are absent.
  WireWriter r;
  r.PutU64(1);      // sequence
  r.PutU8(0);       // code
  r.PutU8(0);       // degraded
  r.PutU32(0);      // replica
  r.PutU64(0);      // model version
  r.PutU16(0);      // message length
  r.PutU32(kMaxWireSlate + 1);
  std::vector<uint8_t> overslate = r.Release();
  RpcResponse resp;
  EXPECT_FALSE(
      DecodeResponsePayload(overslate.data(), overslate.size(), &resp).ok());

  WireWriter t;
  t.PutU64(1);
  t.PutU8(0);
  t.PutU8(0);
  t.PutU32(0);
  t.PutU64(0);
  t.PutU16(0);
  t.PutU32(kMaxWireSlate);  // claims a full slate, provides zero bytes
  std::vector<uint8_t> starved = t.Release();
  EXPECT_FALSE(
      DecodeResponsePayload(starved.data(), starved.size(), &resp).ok());
}

TEST(NetTest, InvalidEnumBytesAreRejected) {
  RpcResponse response = SampleResponse();
  std::vector<uint8_t> frame = EncodeResponseFrame(response);
  std::vector<uint8_t> payload(frame.begin() + kFrameHeaderBytes,
                               frame.end());
  RpcResponse out;

  std::vector<uint8_t> bad_code = payload;
  bad_code[8] = 0xEE;  // status code byte
  EXPECT_FALSE(
      DecodeResponsePayload(bad_code.data(), bad_code.size(), &out).ok());

  std::vector<uint8_t> bad_flag = payload;
  bad_flag[9] = 2;  // degraded flag byte
  EXPECT_FALSE(
      DecodeResponsePayload(bad_flag.data(), bad_flag.size(), &out).ok());
}

TEST(NetTest, WireReaderIsBoundsChecked) {
  const uint8_t bytes[3] = {1, 2, 3};
  WireReader r(bytes, sizeof(bytes));
  uint32_t v32 = 0;
  EXPECT_EQ(r.ReadU32(&v32).code(), StatusCode::kOutOfRange);
  uint8_t v8 = 0;
  EXPECT_TRUE(r.ReadU8(&v8).ok());
  EXPECT_EQ(v8, 1);
  uint16_t v16 = 0;
  EXPECT_TRUE(r.ReadU16(&v16).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(r.ReadU8(&v8).code(), StatusCode::kOutOfRange);
}

// ----------------------------------------------------------------- router --

TEST(NetTest, RouterPinsUsersDeterministically) {
  RouterConfig config;
  Router router(4, config);
  for (int32_t user = 0; user < 200; ++user) {
    int32_t home = router.HomeReplica(user);
    ASSERT_GE(home, 0);
    ASSERT_LT(home, 4);
    for (int i = 0; i < 3; ++i) {
      StatusOr<int32_t> routed = router.Route(user);
      ASSERT_TRUE(routed.ok());
      EXPECT_EQ(routed.value(), home) << "user " << user;
    }
  }
  EXPECT_EQ(router.stats().failovers, 0);
}

TEST(NetTest, RouterSpreadsUsersAcrossReplicas) {
  RouterConfig config;
  Router router(4, config);
  std::vector<int64_t> share(4, 0);
  const int32_t kUsers = 4000;
  for (int32_t user = 0; user < kUsers; ++user) {
    ++share[router.HomeReplica(user)];
  }
  for (int32_t r = 0; r < 4; ++r) {
    // With 64 virtual nodes the shard shares stay within a loose band of
    // the fair 25% — the balance contract, not a tight statistical test.
    EXPECT_GT(share[r], kUsers / 10) << "replica " << r << " starved";
    EXPECT_LT(share[r], kUsers / 2) << "replica " << r << " overloaded";
  }
}

TEST(NetTest, FailoverMovesOnlyTheDeadReplicasArc) {
  RouterConfig config;
  Router router(3, config);
  const int32_t kUsers = 600;
  std::vector<int32_t> home(kUsers);
  for (int32_t user = 0; user < kUsers; ++user) {
    home[user] = router.HomeReplica(user);
  }

  router.MarkDown(1);
  for (int32_t user = 0; user < kUsers; ++user) {
    StatusOr<int32_t> routed = router.Route(user);
    ASSERT_TRUE(routed.ok());
    if (home[user] != 1) {
      // Users of healthy replicas keep their pins during the failover.
      EXPECT_EQ(routed.value(), home[user]) << "user " << user << " re-homed";
    } else {
      EXPECT_NE(routed.value(), 1) << "user " << user << " sent to the dead "
                                      "replica";
    }
  }
  EXPECT_GT(router.stats().failovers, 0);

  // Recovery restores the original pins exactly.
  router.MarkUp(1);
  for (int32_t user = 0; user < kUsers; ++user) {
    StatusOr<int32_t> routed = router.Route(user);
    ASSERT_TRUE(routed.ok());
    EXPECT_EQ(routed.value(), home[user]);
  }
}

TEST(NetTest, BreakerTripsReplicaOutOfTheRing) {
  RouterConfig config;
  config.breaker.failure_threshold = 3;
  config.breaker.open_micros = 30000;
  config.breaker.close_after_successes = 1;
  Router router(2, config);

  // Find a user homed on replica 0.
  int32_t user = 0;
  while (router.HomeReplica(user) != 0) ++user;

  bool tripped = false;
  for (int i = 0; i < 3; ++i) tripped = router.ReportFailure(0);
  EXPECT_TRUE(tripped);
  EXPECT_EQ(router.BreakerStats(0).opens, 1);

  StatusOr<int32_t> routed = router.Route(user);
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.value(), 1) << "open breaker must fail the user over";

  // After the open window a probe is admitted; its success closes the
  // breaker and the user's pin comes back.
  std::this_thread::sleep_for(std::chrono::microseconds(40000));
  routed = router.Route(user);
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.value(), 0);
  router.ReportSuccess(0);
  routed = router.Route(user);
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.value(), 0);
}

TEST(NetTest, AllReplicasDownIsUnroutable) {
  RouterConfig config;
  Router router(2, config);
  router.MarkDown(0);
  router.MarkDown(1);
  StatusOr<int32_t> routed = router.Route(5);
  ASSERT_FALSE(routed.ok());
  EXPECT_EQ(routed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(router.stats().unroutable, 1);
}

// ------------------------------------------------------- loopback serving --

data::SynthConfig NetWorldConfig() {
  data::SynthConfig c = data::SynthConfig::Eleme();
  c.num_users = 200;
  c.num_items = 180;
  c.num_cities = 4;
  c.seq_len = 6;
  return c;
}

/// Shared world/model fixture (expensive) with per-test replicas/server.
class NetServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new data::World(NetWorldConfig());
    features_ = new feature_store::FeatureServer(*world_, 6, 11);
    store_ = new feature_store::FeatureStore(features_);
    recall_ = new serving::RecallIndex(*world_);
    model_ = core::CreateModel(core::ModelKind::kDin, world_->schema(), 13)
                 .release();
    model_->SetTraining(false);
    pipeline_ = new serving::Pipeline(*world_, store_, recall_, model_,
                                      /*recall_size=*/16, /*expose_k=*/6);
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete model_;
    delete recall_;
    delete store_;
    delete features_;
    delete world_;
  }

  /// Builds `n` independent replicas on the shared pipeline.
  std::vector<std::unique_ptr<runtime::ServingEngine>> MakeReplicas(
      int32_t n, runtime::EngineConfig config = {}) {
    std::vector<std::unique_ptr<runtime::ServingEngine>> replicas;
    for (int32_t i = 0; i < n; ++i) {
      config.seed = 0xE57E + static_cast<uint64_t>(i);
      replicas.push_back(
          std::make_unique<runtime::ServingEngine>(pipeline_, config));
    }
    return replicas;
  }

  static std::vector<runtime::ServingEngine*> Borrow(
      const std::vector<std::unique_ptr<runtime::ServingEngine>>& replicas) {
    std::vector<runtime::ServingEngine*> out;
    for (const auto& r : replicas) out.push_back(r.get());
    return out;
  }

  static data::World* world_;
  static feature_store::FeatureServer* features_;
  static feature_store::FeatureStore* store_;
  static serving::RecallIndex* recall_;
  static models::CtrModel* model_;
  static serving::Pipeline* pipeline_;
};

data::World* NetServingTest::world_ = nullptr;
feature_store::FeatureServer* NetServingTest::features_ = nullptr;
feature_store::FeatureStore* NetServingTest::store_ = nullptr;
serving::RecallIndex* NetServingTest::recall_ = nullptr;
models::CtrModel* NetServingTest::model_ = nullptr;
serving::Pipeline* NetServingTest::pipeline_ = nullptr;

TEST_F(NetServingTest, ConsistentHashKeepsUsersPinnedAcrossTheWire) {
  auto replicas = MakeReplicas(3);
  Router router(3, RouterConfig{});
  EpollRpcServer server(Borrow(replicas), &router, EpollServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  FleetConfig fleet_config;
  fleet_config.num_clients = 4;
  fleet_config.num_requests = 300;
  ClientFleet fleet(*world_, fleet_config);
  StatusOr<FleetReport> report = fleet.Run("127.0.0.1", server.port());
  ASSERT_TRUE(report.ok());

  EXPECT_EQ(report.value().sent, 300);
  EXPECT_EQ(report.value().ok, 300);
  EXPECT_EQ(report.value().transport_errors, 0);
  // The pinning contract over the wire: no user ever answered by two
  // different replicas while all replicas stay healthy.
  EXPECT_EQ(report.value().rehomed_users, 0);
  // Zipf users over 3 shards: more than one replica does real work.
  int32_t active = 0;
  for (int64_t ok : report.value().per_replica_ok) active += ok > 0 ? 1 : 0;
  EXPECT_GE(active, 2);
  server.Stop();
}

TEST_F(NetServingTest, OverloadShedsInsteadOfCollapsing) {
  runtime::EngineConfig engine_config;
  engine_config.num_workers = 1;
  engine_config.queue_capacity = 4;
  engine_config.default_deadline_micros = 2'000'000;
  auto replicas = MakeReplicas(1, engine_config);
  Router router(1, RouterConfig{});
  EpollServerConfig server_config;
  server_config.shed_queue_fraction = 0.75;
  EpollRpcServer server(Borrow(replicas), &router, server_config);
  ASSERT_TRUE(server.Start().ok());

  // 16 closed-loop clients against a single worker with a 4-deep queue:
  // far past saturation. The contract is graceful: accepted requests
  // complete within their deadline, the rest are shed with UNAVAILABLE,
  // and nothing errors or wedges.
  FleetConfig fleet_config;
  fleet_config.num_clients = 16;
  fleet_config.num_requests = 320;
  fleet_config.deadline_micros = 2'000'000;
  ClientFleet fleet(*world_, fleet_config);
  StatusOr<FleetReport> report = fleet.Run("127.0.0.1", server.port());
  ASSERT_TRUE(report.ok());

  const FleetReport& r = report.value();
  EXPECT_EQ(r.sent, 320);
  EXPECT_EQ(r.transport_errors, 0);
  EXPECT_GT(r.ok, 0) << "overload must not starve everyone";
  EXPECT_GT(r.shed, 0) << "2x overload with a 4-deep queue must shed";
  EXPECT_EQ(r.ok + r.shed + r.failed, r.sent);
  // Accepted-request latency stays bounded by the deadline: admission
  // control kept the queue from growing into the deadline.
  EXPECT_LT(r.p99_micros, 2'000'000.0);
  EXPECT_GT(server.stats().core.shed, 0);
  server.Stop();
}

// ------------------------------------------------- epoll event-loop tier --

/// Reads one full response frame off a raw (blocking) connection.
StatusOr<RpcResponse> ReadOneResponse(TcpConnection& conn) {
  uint8_t header_bytes[kFrameHeaderBytes];
  BASM_RETURN_IF_ERROR(conn.ReadAll(header_bytes, kFrameHeaderBytes));
  FrameHeader header;
  BASM_RETURN_IF_ERROR(
      DecodeFrameHeader(header_bytes, kFrameHeaderBytes, &header));
  if (header.type != FrameType::kResponse) {
    return Status::InvalidArgument("expected a response frame");
  }
  std::vector<uint8_t> payload(header.payload_size);
  BASM_RETURN_IF_ERROR(conn.ReadAll(payload.data(), payload.size()));
  BASM_RETURN_IF_ERROR(VerifyPayload(header, payload.data(), payload.size()));
  RpcResponse response;
  BASM_RETURN_IF_ERROR(
      DecodeResponsePayload(payload.data(), payload.size(), &response));
  return response;
}

TEST_F(NetServingTest, EpollLoopbackCallRoundTrips) {
  auto replicas = MakeReplicas(1);
  Router router(1, RouterConfig{});
  EpollRpcServer server(Borrow(replicas), &router, EpollServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  StatusOr<RpcClient> client = RpcClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  RpcRequest request;
  request.request.user_id = 3;
  request.request.hour = 12;
  request.request.city = world_->user(3).city;
  request.request.request_id = 1;
  StatusOr<RpcResponse> response = client.value().Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().code, StatusCode::kOk);
  EXPECT_EQ(response.value().replica, 0u);
  EXPECT_EQ(static_cast<int32_t>(response.value().slate.size()),
            pipeline_->expose_k());
  for (size_t i = 0; i < response.value().slate.size(); ++i) {
    EXPECT_EQ(response.value().slate[i].position, static_cast<int32_t>(i));
  }

  // The loop counts a response just after its write returns, so the client
  // can read it a moment before it is counted: the live counters must
  // catch up within a bounded wait, and hold after Stop joins the loops.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().core.responses_sent < 1 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EpollServerStats live = server.stats();
  EXPECT_EQ(live.core.connections_accepted, 1);
  EXPECT_EQ(live.core.frames_received, 1);
  EXPECT_EQ(live.core.responses_sent, 1);

  server.Stop();
  EpollServerStats stats = server.stats();
  EXPECT_EQ(stats.core.connections_accepted, 1);
  EXPECT_EQ(stats.core.frames_received, 1);
  EXPECT_EQ(stats.core.responses_sent, 1);
}

TEST_F(NetServingTest, EpollMalformedFrameCorpusRejected) {
  // The same malformed-header corpus the codec tests run, replayed against
  // the live epoll frontend: every mutation must produce a wire error
  // response (sequence 0, no replica) followed by a close.
  auto replicas = MakeReplicas(1);
  Router router(1, RouterConfig{});
  EpollRpcServer server(Borrow(replicas), &router, EpollServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  const std::vector<uint8_t> good = EncodeRequestFrame(SampleRequest());
  struct Mutation {
    const char* name;
    size_t offset;
    uint8_t value;
  };
  const Mutation corpus[] = {
      {"bad magic", 0, 0xFF},
      {"wrong version", 4, kWireVersion + 1},
      {"unknown frame type", 5, 99},
      {"nonzero reserved flag (low)", 6, 1},
      {"nonzero reserved flag (high)", 7, 0x80},
      {"oversized payload length", 11, 0xFF},
  };
  int64_t expected_errors = 0;
  for (const Mutation& m : corpus) {
    SCOPED_TRACE(m.name);
    std::vector<uint8_t> frame = good;
    frame[m.offset] = m.value;

    StatusOr<TcpConnection> raw =
        TcpConnection::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(raw.ok());
    ASSERT_TRUE(raw.value().WriteAll(frame.data(), frame.size()).ok());

    StatusOr<RpcResponse> response = ReadOneResponse(raw.value());
    ASSERT_TRUE(response.ok());
    EXPECT_NE(response.value().code, StatusCode::kOk);
    EXPECT_EQ(response.value().sequence, 0u);
    EXPECT_EQ(response.value().replica, kNoReplica);

    // Closed after the error: next read sees EOF, not a hang.
    uint8_t byte = 0;
    EXPECT_FALSE(raw.value().ReadAll(&byte, 1).ok());
    ++expected_errors;
  }

  // Corrupt payload checksum behind a valid header: same contract.
  {
    SCOPED_TRACE("corrupt checksum");
    std::vector<uint8_t> frame = good;
    frame.back() ^= 0x40;
    StatusOr<TcpConnection> raw =
        TcpConnection::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(raw.ok());
    ASSERT_TRUE(raw.value().WriteAll(frame.data(), frame.size()).ok());
    StatusOr<RpcResponse> response = ReadOneResponse(raw.value());
    ASSERT_TRUE(response.ok());
    EXPECT_NE(response.value().code, StatusCode::kOk);
    EXPECT_EQ(response.value().replica, kNoReplica);
    uint8_t byte = 0;
    EXPECT_FALSE(raw.value().ReadAll(&byte, 1).ok());
    ++expected_errors;
  }

  EXPECT_EQ(server.stats().core.decode_errors, expected_errors);
  server.Stop();
}

TEST_F(NetServingTest, EpollPipelinedOutOfOrderMatchesSerialSlates) {
  // Slates served through the pipelined out-of-order path are bit-identical
  // to the serial in-process pipeline on the same recall stream. The
  // reference shares no engine, queue or transport with the path under
  // test; any divergence is a frontend or batching bug.
  constexpr int kRequests = 24;
  std::vector<RpcRequest> requests;
  for (int i = 0; i < kRequests; ++i) {
    RpcRequest r;
    r.request.user_id = (i * 7) % NetWorldConfig().num_users;
    r.request.hour = 11 + (i % 3);
    r.request.weekday = i % 7;
    r.request.city = world_->user(r.request.user_id).city;
    r.request.request_id = 1000 + i;
    r.deadline_micros = 2'000'000;
    requests.push_back(r);
  }

  // Serial oracle: recall from the replica's per-request stream (the single
  // replica is seeded 0xE57E), then rank in-process.
  std::vector<std::vector<serving::RankedItem>> expected;
  for (const RpcRequest& r : requests) {
    Rng rng = Rng(0xE57E).Fork(static_cast<uint64_t>(r.request.request_id));
    expected.push_back(pipeline_->RankCandidates(
        r.request, pipeline_->Recall(r.request, rng)));
  }

  // Pipelined: the whole batch in flight at once, responses demuxed by
  // sequence in whatever order the engine completes them.
  auto replicas = MakeReplicas(1);
  Router router(1, RouterConfig{});
  EpollServerConfig config;
  config.max_in_flight_per_connection = kRequests;  // nothing sheds
  EpollRpcServer server(Borrow(replicas), &router, config);
  ASSERT_TRUE(server.Start().ok());
  StatusOr<RpcClient> client = RpcClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  std::map<uint64_t, size_t> sequence_to_index;
  for (size_t i = 0; i < requests.size(); ++i) {
    StatusOr<uint64_t> sequence = client.value().Send(requests[i]);
    ASSERT_TRUE(sequence.ok());
    sequence_to_index[sequence.value()] = i;
  }
  std::vector<std::vector<serving::RankedItem>> got(requests.size());
  std::vector<bool> seen(requests.size(), false);
  for (int i = 0; i < kRequests; ++i) {
    StatusOr<RpcResponse> response = client.value().Receive(10000);
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response.value().code, StatusCode::kOk);
    auto it = sequence_to_index.find(response.value().sequence);
    ASSERT_NE(it, sequence_to_index.end()) << "unknown sequence";
    ASSERT_FALSE(seen[it->second]) << "duplicate response";
    seen[it->second] = true;
    got[it->second] = response.value().slate;
  }

  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(got[i].size(), expected[i].size()) << "request " << i;
    for (size_t k = 0; k < got[i].size(); ++k) {
      EXPECT_EQ(got[i][k].item_id, expected[i][k].item_id)
          << "request " << i << " slot " << k;
      // Bit-identical scores, not approximately equal: both paths must run
      // the exact same scoring computation.
      EXPECT_EQ(got[i][k].score, expected[i][k].score)
          << "request " << i << " slot " << k;
      EXPECT_EQ(got[i][k].position, expected[i][k].position);
    }
  }
  server.Stop();
}

TEST_F(NetServingTest, EpollInFlightCapShedsCleanly) {
  // A greedy pipelined client bursts far past the per-connection in-flight
  // cap: the overflow is shed with UNAVAILABLE (never dropped, never
  // disconnects), accepted frames complete, and the connection stays
  // usable afterwards.
  auto replicas = MakeReplicas(1);
  Router router(1, RouterConfig{});
  EpollServerConfig config;
  config.num_loops = 1;
  config.max_in_flight_per_connection = 2;
  EpollRpcServer server(Borrow(replicas), &router, config);
  ASSERT_TRUE(server.Start().ok());

  StatusOr<TcpConnection> raw =
      TcpConnection::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(raw.ok());

  constexpr int kBurst = 32;
  std::vector<uint8_t> burst;
  for (int i = 0; i < kBurst; ++i) {
    RpcRequest r;
    r.sequence = static_cast<uint64_t>(i + 1);
    r.request.user_id = 3;
    r.request.city = world_->user(3).city;
    r.request.request_id = i;
    r.deadline_micros = 5'000'000;
    std::vector<uint8_t> frame = EncodeRequestFrame(r);
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(raw.value().WriteAll(burst.data(), burst.size()).ok());

  int64_t ok = 0, shed = 0;
  std::vector<bool> answered(kBurst + 1, false);
  for (int i = 0; i < kBurst; ++i) {
    StatusOr<RpcResponse> response = ReadOneResponse(raw.value());
    ASSERT_TRUE(response.ok()) << "response " << i;
    ASSERT_GE(response.value().sequence, 1u);
    ASSERT_LE(response.value().sequence, static_cast<uint64_t>(kBurst));
    ASSERT_FALSE(answered[response.value().sequence]) << "duplicate";
    answered[response.value().sequence] = true;
    if (response.value().code == StatusCode::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(response.value().code, StatusCode::kUnavailable);
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GE(ok, 2) << "capped frames must still complete";
  EXPECT_GT(shed, 0) << "a 32-frame burst against cap 2 must shed";
  EXPECT_EQ(server.stats().shed_pipeline, shed);

  // The shed path is per-frame, not per-connection: the next lock-step
  // request on the same connection succeeds.
  RpcRequest again;
  again.sequence = 999;
  again.request.user_id = 3;
  again.request.city = world_->user(3).city;
  std::vector<uint8_t> frame = EncodeRequestFrame(again);
  ASSERT_TRUE(raw.value().WriteAll(frame.data(), frame.size()).ok());
  StatusOr<RpcResponse> response = ReadOneResponse(raw.value());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().code, StatusCode::kOk);
  EXPECT_EQ(response.value().sequence, 999u);
  server.Stop();
}

TEST_F(NetServingTest, EpollSlowReaderBackpressureNeverBlocksTheLoop) {
  // A client that writes thousands of frames and reads nothing: its output
  // backlog crosses the cap, its reads pause, and — the point of the test —
  // the single IO loop keeps serving other connections the whole time. No
  // thread ever blocks on the slow reader's socket.
  auto replicas = MakeReplicas(1);
  Router router(1, RouterConfig{});
  EpollServerConfig config;
  config.num_loops = 1;  // the slow reader and the probe share one loop
  config.send_buffer_bytes = 4096;
  config.max_output_backlog_bytes = 8192;
  EpollRpcServer server(Borrow(replicas), &router, config);
  ASSERT_TRUE(server.Start().ok());

  StatusOr<TcpConnection> slow =
      TcpConnection::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(slow.ok());
  // Clamp the slow reader's receive buffer too, so unread responses cannot
  // drain into kernel slack — the server-side backlog must actually grow.
  int rcvbuf = 4096;
  ASSERT_EQ(setsockopt(slow.value().fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                       sizeof(rcvbuf)),
            0);

  constexpr int kFrames = 2000;
  std::thread writer([&] {
    for (int i = 0; i < kFrames; ++i) {
      RpcRequest r;
      r.sequence = static_cast<uint64_t>(i + 1);
      r.request.user_id = 3;
      r.request.city = world_->user(3).city;
      r.request.request_id = i;
      r.deadline_micros = 30'000'000;
      std::vector<uint8_t> frame = EncodeRequestFrame(r);
      // Blocks once the server pauses reads and the buffers fill — that is
      // the backpressure propagating to the client, by design.
      ASSERT_TRUE(slow.value().WriteAll(frame.data(), frame.size()).ok());
    }
  });

  // Wait for the backlog to cross the cap at least once.
  bool paused = false;
  for (int i = 0; i < 2000 && !paused; ++i) {
    paused = server.stats().backpressure_pauses > 0;
    if (!paused) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(paused) << "output backlog never crossed the cap";

  // Liveness probe: a second connection on the SAME loop is served while
  // the slow reader sits paused with a full output queue.
  StatusOr<RpcClient> probe =
      RpcClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(probe.ok());
  RpcRequest ping;
  ping.request.user_id = 5;
  ping.request.city = world_->user(5).city;
  StatusOr<RpcResponse> pong = probe.value().Call(ping);
  ASSERT_TRUE(pong.ok()) << "IO loop blocked behind a slow reader";
  // The round trip is the liveness proof. The engine may legitimately shed
  // or deadline the probe while digesting the flood (sanitizer builds are
  // slow enough to hit this) — only a transport-level failure would mean
  // the loop was blocked.
  EXPECT_TRUE(pong.value().code == StatusCode::kOk ||
              pong.value().code == StatusCode::kUnavailable ||
              pong.value().code == StatusCode::kDeadlineExceeded)
      << "unexpected probe code " << static_cast<int>(pong.value().code);

  // Now drain: every one of the kFrames frames gets exactly one response
  // (OK, shed, or deadline-exceeded — never silently dropped).
  std::vector<bool> answered(kFrames + 1, false);
  for (int i = 0; i < kFrames; ++i) {
    StatusOr<RpcResponse> response = ReadOneResponse(slow.value());
    ASSERT_TRUE(response.ok()) << "response " << i;
    uint64_t sequence = response.value().sequence;
    ASSERT_GE(sequence, 1u);
    ASSERT_LE(sequence, static_cast<uint64_t>(kFrames));
    ASSERT_FALSE(answered[sequence]) << "duplicate sequence " << sequence;
    answered[sequence] = true;
  }
  writer.join();
  EXPECT_GE(server.stats().backpressure_pauses, 1);
  server.Stop();
}

TEST_F(NetServingTest, EpollPipelinedFleetCompletesAllClients) {
  auto replicas = MakeReplicas(2);
  Router router(2, RouterConfig{});
  EpollServerConfig config;
  config.num_loops = 2;
  EpollRpcServer server(Borrow(replicas), &router, config);
  ASSERT_TRUE(server.Start().ok());

  FleetConfig fleet_config;
  fleet_config.num_clients = 8;
  fleet_config.num_requests = 400;
  fleet_config.pipeline_window = 8;
  fleet_config.deadline_micros = 5'000'000;
  ClientFleet fleet(*world_, fleet_config);
  StatusOr<FleetReport> report = fleet.Run("127.0.0.1", server.port());
  ASSERT_TRUE(report.ok());

  const FleetReport& r = report.value();
  EXPECT_EQ(r.sent, 400);
  EXPECT_EQ(r.ok, 400);
  EXPECT_EQ(r.transport_errors, 0);
  EXPECT_EQ(r.rehomed_users, 0);
  EXPECT_EQ(r.clients_served, 8);
  server.Stop();
}

TEST_F(NetServingTest, EpollKilledReplicaTripsBreakerAndFailsOver) {
  RouterConfig router_config;
  router_config.breaker.failure_threshold = 3;
  router_config.breaker.open_micros = 60'000'000;
  auto replicas = MakeReplicas(3);
  Router router(3, router_config);
  EpollRpcServer server(Borrow(replicas), &router, EpollServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  FleetConfig fleet_config;
  fleet_config.num_clients = 4;
  fleet_config.num_requests = 200;
  fleet_config.pipeline_window = 4;
  ClientFleet fleet(*world_, fleet_config);

  StatusOr<FleetReport> baseline = fleet.Run("127.0.0.1", server.port());
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline.value().ok, 200);
  ASSERT_EQ(baseline.value().rehomed_users, 0);
  ASSERT_GT(baseline.value().per_replica_ok[1], 0)
      << "no traffic on the replica the test is about to kill";

  replicas[1]->Shutdown();

  StatusOr<FleetReport> failover = fleet.Run("127.0.0.1", server.port());
  ASSERT_TRUE(failover.ok());
  const FleetReport& r = failover.value();
  EXPECT_EQ(r.sent, 200);
  EXPECT_GE(r.ok, (r.sent * 99) / 100);
  EXPECT_GT(r.rehomed_users, 0) << "the dead replica's users must re-home";
  if (r.per_replica_ok.size() > 1) {
    EXPECT_EQ(r.per_replica_ok[1], 0) << "dead replica answered a request";
  }
  EXPECT_GE(router.BreakerStats(1).opens, 1);
  EXPECT_GT(server.stats().core.failover_retries, 0);

  // Users homed on survivors never moved (the fleet tracks pins across
  // phases): re-homes are bounded by the dead replica's phase-1 traffic.
  EXPECT_LE(r.rehomed_users, baseline.value().per_replica_ok[1]);
  server.Stop();
}

TEST_F(NetServingTest, EpollServerStopsCleanlyWithConnectedClients) {
  auto replicas = MakeReplicas(1);
  Router router(1, RouterConfig{});
  EpollRpcServer server(Borrow(replicas), &router, EpollServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  StatusOr<RpcClient> client = RpcClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  RpcRequest request;
  request.request.user_id = 1;
  request.request.city = world_->user(1).city;
  ASSERT_TRUE(client.value().Call(request).ok());

  // Stop with the connection open and nothing in flight: the loops join,
  // every connection closes, no callback runs after teardown.
  server.Stop();
  server.Stop();  // idempotent
}

}  // namespace
}  // namespace basm::net
