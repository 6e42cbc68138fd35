#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "autograd/variable.h"
#include "common/blocking_queue.h"
#include "common/thread_pool.h"
#include "data/synth.h"
#include "feature_store/feature_store.h"
#include "gtest/gtest.h"
#include "core/model_zoo.h"
#include "runtime/latency_recorder.h"
#include "runtime/load_generator.h"
#include "runtime/micro_batcher.h"
#include "runtime/serving_engine.h"
#include "feature_store/feature_server.h"
#include "serving/parallel_score.h"
#include "serving/pipeline.h"
#include "serving/recall.h"
#include "tensor/arena.h"

namespace basm::runtime {
namespace {

// ---------------------------------------------------------------- queue --

TEST(BlockingQueueTest, FifoPushPop) {
  BlockingQueue<int> q(8);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_TRUE(q.TryPush(3));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_EQ(q.Pop().value(), 3);
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(BlockingQueueTest, RejectsOnFull) {
  BlockingQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // full: backpressure
  q.Pop();
  EXPECT_TRUE(q.TryPush(3));  // capacity freed
}

TEST(BlockingQueueTest, RejectedMoveOnlyItemSurvives) {
  BlockingQueue<std::unique_ptr<int>> q(1);
  EXPECT_TRUE(q.TryPush(std::make_unique<int>(1)));
  auto item = std::make_unique<int>(2);
  EXPECT_FALSE(q.TryPush(std::move(item)));
  // A rejected push must not consume the item.
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(*item, 2);
}

TEST(BlockingQueueTest, BlockingPopWakesOnPush) {
  BlockingQueue<int> q(4);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.TryPush(42);
  });
  auto item = q.Pop();  // blocks until the producer delivers
  producer.join();
  EXPECT_EQ(item.value(), 42);
}

TEST(BlockingQueueTest, ShutdownDrainsThenEnds) {
  BlockingQueue<int> q(8);
  q.TryPush(1);
  q.TryPush(2);
  q.Shutdown();
  EXPECT_FALSE(q.TryPush(3));  // no pushes after shutdown
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());  // drained: pop no longer blocks
}

TEST(BlockingQueueTest, ShutdownWakesBlockedPop) {
  BlockingQueue<int> q(4);
  std::thread waiter([&] { EXPECT_FALSE(q.Pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Shutdown();
  waiter.join();
}

TEST(BlockingQueueTest, PopForTimesOut) {
  BlockingQueue<int> q(4);
  auto item = q.PopFor(std::chrono::milliseconds(5));
  EXPECT_FALSE(item.has_value());
}

// ----------------------------------------------------------------- pool --

TEST(ThreadPoolTest, RunsAllTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(pool.Submit([&done] { done.fetch_add(1); }));
    }
  }  // destructor drains and joins
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, SurvivesThrowingTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([] { throw std::runtime_error("task boom"); });
      pool.Submit([&done] { done.fetch_add(1); });
    }
  }
  // Every non-throwing task still ran: workers outlive task exceptions.
  EXPECT_EQ(done.load(), 10);
}

TEST(ThreadPoolTest, RejectsAfterShutdown) {
  ThreadPool pool(1);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

// -------------------------------------------------------------- batcher --

TEST(MicroBatcherTest, FlushesOnSize) {
  BlockingQueue<int> q(32);
  for (int i = 0; i < 10; ++i) q.TryPush(std::move(i));
  // Generous wait: the size bound must close the batch, not the clock.
  MicroBatcher<int> batcher(&q, BatchPolicy{4, 1000000});
  EXPECT_EQ(batcher.NextBatch().size(), 4u);
  EXPECT_EQ(batcher.NextBatch().size(), 4u);
}

TEST(MicroBatcherTest, FlushesOnDeadline) {
  BlockingQueue<int> q(32);
  q.TryPush(1);
  q.TryPush(2);
  MicroBatcher<int> batcher(&q, BatchPolicy{8, 2000});
  auto start = std::chrono::steady_clock::now();
  auto batch = batcher.NextBatch();
  auto waited = std::chrono::steady_clock::now() - start;
  // Partial batch released at the deadline instead of waiting for 8 items.
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_GE(waited, std::chrono::microseconds(1000));
}

TEST(MicroBatcherTest, ZeroWaitStillSweepsReadyItems) {
  BlockingQueue<int> q(32);
  for (int i = 0; i < 3; ++i) q.TryPush(std::move(i));
  MicroBatcher<int> batcher(&q, BatchPolicy{8, 0});
  EXPECT_EQ(batcher.NextBatch().size(), 3u);
}

TEST(MicroBatcherTest, EffectiveWaitRampsWithQueueDepth) {
  BatchPolicy fixed{4, 200, 0, 0};
  EXPECT_EQ(fixed.EffectiveWaitMicros(0), 200);
  EXPECT_EQ(fixed.EffectiveWaitMicros(100), 200);  // disabled: never widens

  BatchPolicy adaptive{4, 200, 8, 1000};
  EXPECT_EQ(adaptive.EffectiveWaitMicros(0), 200);   // idle: tight window
  EXPECT_EQ(adaptive.EffectiveWaitMicros(1), 300);   // first step of the ramp
  EXPECT_EQ(adaptive.EffectiveWaitMicros(4), 600);   // halfway up the ramp
  EXPECT_EQ(adaptive.EffectiveWaitMicros(7), 900);   // just below saturation
  EXPECT_EQ(adaptive.EffectiveWaitMicros(8), 1000);  // exactly at pressure depth
  EXPECT_EQ(adaptive.EffectiveWaitMicros(64), 1000);  // clamped
}

TEST(MicroBatcherTest, AdaptiveWidensBatchesUnderPressure) {
  // Nine queued items: the first pop opens the batch with a backlog of 8,
  // which meets pressure_depth, so the zero idle-wait widens enough to
  // also collect the stragglers a producer delivers shortly after.
  BlockingQueue<int> q(64);
  for (int i = 0; i < 9; ++i) q.TryPush(std::move(i));
  MicroBatcher<int> batcher(&q, BatchPolicy{16, 0, 8, 5000000});
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    for (int i = 9; i < 16; ++i) q.TryPush(std::move(i));
  });
  std::vector<int> batch = batcher.NextBatch();
  producer.join();
  EXPECT_EQ(batch.size(), 16u);  // closed by size, not by the widened wait
}

TEST(MicroBatcherTest, AdaptiveKeepsIdleLatencyUnchanged) {
  // Same adaptive policy, but an idle queue: depth 0 keeps the base
  // zero-wait window, so the single request is served immediately instead
  // of stalling for the pressured 5s window.
  BlockingQueue<int> q(64);
  q.TryPush(1);
  MicroBatcher<int> batcher(&q, BatchPolicy{16, 0, 8, 5000000});
  auto start = std::chrono::steady_clock::now();
  std::vector<int> batch = batcher.NextBatch();
  auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_LT(waited, std::chrono::seconds(1));
}

TEST(MicroBatcherTest, EmptyAfterShutdownDrain) {
  BlockingQueue<int> q(32);
  q.TryPush(7);
  q.Shutdown();
  MicroBatcher<int> batcher(&q, BatchPolicy{4, 1000});
  EXPECT_EQ(batcher.NextBatch().size(), 1u);  // drains the backlog
  EXPECT_TRUE(batcher.NextBatch().empty());   // then signals exit
}

// ------------------------------------------------------------- recorder --

TEST(LatencyRecorderTest, BucketsRoundTripSmallValues) {
  // Values below 8 land on exact buckets, so percentiles are exact there.
  for (int64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(LatencyRecorder::BucketValue(LatencyRecorder::BucketOf(v)), v);
  }
  // Larger values stay within the quarter-octave resolution.
  for (int64_t v : {100, 1000, 50000, 2000000}) {
    double mid = LatencyRecorder::BucketValue(LatencyRecorder::BucketOf(v));
    EXPECT_NEAR(mid, static_cast<double>(v), 0.15 * static_cast<double>(v));
  }
}

TEST(LatencyRecorderTest, CountsAndPercentiles) {
  LatencyRecorder rec;
  for (int i = 0; i < 95; ++i) rec.RecordLatency(100);
  for (int i = 0; i < 5; ++i) rec.RecordLatency(10000);
  rec.RecordReject();
  rec.RecordTimeout();
  rec.RecordTimeout();
  rec.RecordBatchSize(4);
  rec.RecordBatchSize(4);
  rec.RecordBatchSize(2);

  LatencySnapshot snap = rec.Snapshot();
  EXPECT_EQ(snap.count, 100);
  EXPECT_EQ(snap.rejects, 1);
  EXPECT_EQ(snap.timeouts, 2);
  EXPECT_NEAR(snap.mean_micros, 595.0, 1.0);
  EXPECT_NEAR(snap.p50_micros, 100.0, 15.0);
  EXPECT_NEAR(snap.p95_micros, 100.0, 15.0);
  EXPECT_NEAR(snap.p99_micros, 10000.0, 1500.0);
  EXPECT_NEAR(snap.mean_batch_size, (4 + 4 + 2) / 3.0, 1e-9);
  ASSERT_EQ(snap.batch_histogram.size(), 2u);
  EXPECT_EQ(snap.batch_histogram[0], (std::pair<int64_t, int64_t>{2, 1}));
  EXPECT_EQ(snap.batch_histogram[1], (std::pair<int64_t, int64_t>{4, 2}));
}

TEST(LatencyRecorderTest, IntervalSnapshotsAreDisjointWindows) {
  LatencyRecorder rec;
  for (int i = 0; i < 10; ++i) rec.RecordLatency(100);
  LatencySnapshot w1 = rec.IntervalSnapshot();
  EXPECT_EQ(w1.count, 10);
  EXPECT_NEAR(w1.mean_micros, 100.0, 1e-9);

  for (int i = 0; i < 5; ++i) rec.RecordLatency(400);
  rec.RecordReject();
  LatencySnapshot w2 = rec.IntervalSnapshot();
  EXPECT_EQ(w2.count, 5);  // only this window's requests
  EXPECT_EQ(w2.rejects, 1);
  EXPECT_NEAR(w2.mean_micros, 400.0, 1e-9);
  EXPECT_NEAR(w2.p50_micros, 400.0, 60.0);

  // The cumulative view is untouched by interval reads.
  LatencySnapshot total = rec.Snapshot();
  EXPECT_EQ(total.count, 15);
  EXPECT_EQ(total.rejects, 1);

  LatencySnapshot w3 = rec.IntervalSnapshot();
  EXPECT_EQ(w3.count, 0);  // nothing recorded since w2
}

TEST(LatencyRecorderTest, JsonExportCarriesTheWindow) {
  LatencyRecorder rec;
  rec.RecordLatency(100);
  rec.RecordLatency(100);
  rec.RecordLatency(100);
  rec.RecordBatchSize(3);
  std::string json = rec.Snapshot().ToJson();
  EXPECT_NE(json.find("\"count\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"qps\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99_micros\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"mean_batch_size\":3.00"), std::string::npos) << json;
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(LatencyRecorderTest, ConcurrentRecordingLosesNothing) {
  LatencyRecorder rec;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&rec] {
      for (int i = 0; i < 1000; ++i) rec.RecordLatency(50);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(rec.Snapshot().count, 8000);
}

// ------------------------------------------------------------ inference --

TEST(InferenceModeTest, ScoresBitIdenticalAndGraphFree) {
  data::SynthConfig c = data::SynthConfig::Eleme();
  c.num_users = 60;
  c.num_items = 50;
  c.num_cities = 2;
  c.seq_len = 4;
  data::World world(c);
  auto model = core::CreateModel(core::ModelKind::kBasm, world.schema(), 5);
  model->SetTraining(false);

  feature_store::FeatureServer fs(world, 4, 1);
  auto uf = fs.GetUserFeatures(0);
  Rng rng(3);
  std::vector<data::Example> examples;
  for (int32_t item : world.CityItems(world.user(0).city)) {
    examples.push_back(world.MakeExample(0, item, 12, 2, 4,
                                         world.user(0).city, 0, 0,
                                         uf.behaviors, rng));
    if (examples.size() == 8) break;
  }
  std::vector<const data::Example*> ptrs;
  for (const auto& e : examples) ptrs.push_back(&e);
  data::Batch batch = data::MakeBatch(ptrs, world.schema());

  autograd::Variable with_graph = model->ForwardLogits(batch);
  EXPECT_GT(autograd::GraphNodeCount(with_graph), 1);

  autograd::NoGradGuard guard;
  EXPECT_FALSE(autograd::GradEnabled());
  autograd::Variable detached = model->ForwardLogits(batch);
  // Inference mode must not change a single bit of the forward values...
  ASSERT_EQ(detached.numel(), with_graph.numel());
  for (int64_t i = 0; i < detached.numel(); ++i) {
    EXPECT_EQ(detached.value()[i], with_graph.value()[i]);
  }
  // ...while building no graph behind the root node.
  EXPECT_EQ(autograd::GraphNodeCount(detached), 1);
  EXPECT_FALSE(detached.requires_grad());
}

// --------------------------------------------------------------- engine --

data::SynthConfig EngineWorldConfig() {
  data::SynthConfig c = data::SynthConfig::Eleme();
  c.num_users = 200;
  c.num_items = 180;
  c.num_cities = 4;
  c.seq_len = 6;
  return c;
}

class ServingEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new data::World(EngineWorldConfig());
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

  static data::World* world_;
  static feature_store::FeatureServer* features_;
  static feature_store::FeatureStore* store_;
  static serving::RecallIndex* recall_;
  static models::CtrModel* model_;
  static serving::Pipeline* pipeline_;
};

data::World* ServingEngineTest::world_ = nullptr;
feature_store::FeatureServer* ServingEngineTest::features_ = nullptr;
feature_store::FeatureStore* ServingEngineTest::store_ = nullptr;
serving::RecallIndex* ServingEngineTest::recall_ = nullptr;
models::CtrModel* ServingEngineTest::model_ = nullptr;
serving::Pipeline* ServingEngineTest::pipeline_ = nullptr;

TEST_F(ServingEngineTest, SlatesBitIdenticalToSerialPipeline) {
  // The concurrency + micro-batching acceptance gate: many requests, scored
  // through 4 workers with request coalescing, must reproduce the serial
  // pipeline's slates exactly — item ids, positions, and float-equal scores.
  EngineConfig config;
  config.num_workers = 4;
  config.max_batch_requests = 4;
  config.max_wait_micros = 500;
  ServingEngine engine(pipeline_, config);

  const int kRequests = 32;
  Rng rng(77);
  std::vector<serving::Request> requests(kRequests);
  std::vector<std::vector<int32_t>> candidates(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    requests[i].user_id = static_cast<int32_t>(rng.UniformInt(0, 199));
    requests[i].hour = static_cast<int32_t>(rng.UniformInt(0, 23));
    requests[i].weekday = i % 7;
    requests[i].city = world_->user(requests[i].user_id).city;
    requests[i].request_id = i;
    candidates[i] = recall_->RecallByCity(requests[i].city, 16, rng);
  }

  std::vector<std::future<SlateResult>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    // Generous deadline: under TSan the backlog drains ~10x slower, and this
    // test is about score identity, not deadline shedding.
    futures.push_back(
        engine.Submit(requests[i], candidates[i], /*deadline_micros=*/
                      60 * 1000 * 1000));
  }
  for (int i = 0; i < kRequests; ++i) {
    SlateResult result = futures[i].get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    auto serial = pipeline_->RankCandidates(requests[i], candidates[i]);
    ASSERT_EQ(result.slate.size(), serial.size());
    for (size_t p = 0; p < serial.size(); ++p) {
      EXPECT_EQ(result.slate[p].item_id, serial[p].item_id);
      EXPECT_EQ(result.slate[p].score, serial[p].score);  // bit-identical
      EXPECT_EQ(result.slate[p].position, serial[p].position);
    }
  }
  LatencySnapshot snap = engine.Stats();
  EXPECT_EQ(snap.count, kRequests);
  EXPECT_EQ(snap.timeouts, 0);
}

TEST_F(ServingEngineTest, EngineRecallMatchesForkedStream) {
  // Submitting without candidates runs recall inside the engine from a
  // deterministic per-request stream: resubmitting yields the same slate.
  EngineConfig config;
  config.num_workers = 2;
  ServingEngine engine(pipeline_, config);

  serving::Request req;
  req.user_id = 7;
  req.hour = 12;
  req.city = world_->user(7).city;
  req.request_id = 123;

  SlateResult first = engine.Submit(req).get();
  SlateResult second = engine.Submit(req).get();
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  ASSERT_EQ(first.slate.size(), second.slate.size());
  for (size_t p = 0; p < first.slate.size(); ++p) {
    EXPECT_EQ(first.slate[p].item_id, second.slate[p].item_id);
    EXPECT_EQ(first.slate[p].score, second.slate[p].score);
  }
}

TEST_F(ServingEngineTest, ExpiredDeadlineIsShedNotScored) {
  EngineConfig config;
  config.num_workers = 1;
  ServingEngine engine(pipeline_, config);

  serving::Request req;
  req.user_id = 3;
  req.city = world_->user(3).city;
  // Deadline of zero has always passed by the time a worker looks at it.
  SlateResult result = engine.Submit(req, {}, /*deadline_micros=*/0).get();
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(result.slate.empty());
  EXPECT_EQ(engine.Stats().timeouts, 1);
}

TEST_F(ServingEngineTest, SubmitAfterShutdownIsCancelled) {
  EngineConfig config;
  config.num_workers = 1;
  ServingEngine engine(pipeline_, config);
  engine.Shutdown();

  serving::Request req;
  req.user_id = 1;
  req.city = world_->user(1).city;
  SlateResult result = engine.Submit(req).get();
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
}

TEST_F(ServingEngineTest, TinyQueueRejectsBurstOverload) {
  // A 1-slot queue with one worker cannot absorb a 64-request burst fired
  // with no think time; the surplus must resolve as UNAVAILABLE rejects
  // rather than queueing without bound. Every future resolves either way.
  EngineConfig config;
  config.num_workers = 1;
  config.queue_capacity = 1;
  config.max_batch_requests = 2;
  config.max_wait_micros = 0;
  ServingEngine engine(pipeline_, config);

  serving::Request req;
  req.user_id = 2;
  req.city = world_->user(2).city;
  std::vector<std::future<SlateResult>> futures;
  for (int i = 0; i < 64; ++i) futures.push_back(engine.Submit(req));

  int64_t ok = 0, rejected = 0;
  for (auto& f : futures) {
    SlateResult result = f.get();
    if (result.status.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(result.status.code(), StatusCode::kUnavailable);
      ++rejected;
    }
  }
  EXPECT_EQ(ok + rejected, 64);
  EXPECT_GT(ok, 0);
  EXPECT_GT(rejected, 0);  // scoring is far slower than submission
  EXPECT_EQ(engine.Stats().rejects, rejected);
}

TEST_F(ServingEngineTest, LoadGeneratorClosedLoopCompletes) {
  EngineConfig config;
  config.num_workers = 2;
  config.max_batch_requests = 4;
  ServingEngine engine(pipeline_, config);

  LoadConfig load;
  load.num_requests = 60;
  load.concurrency = 8;
  LoadGenerator generator(*world_, load);
  LoadReport report = generator.Run(engine);
  // Closed loop with concurrency below queue capacity: nothing rejected.
  EXPECT_EQ(report.ok, 60);
  EXPECT_EQ(report.rejected, 0);
  EXPECT_EQ(report.timed_out, 0);

  LatencySnapshot snap = engine.Stats();
  EXPECT_EQ(snap.count, 60);
  EXPECT_GE(snap.mean_batch_size, 1.0);
  EXPECT_GT(snap.p99_micros, 0.0);
}

// ---------------------------------------------- intra-batch parallelism --

/// Reuses the ServingEngineTest world/model/pipeline (gtest re-runs the
/// static SetUpTestSuite for the derived suite). These are the TSan-covered
/// determinism gates for intra-batch parallel scoring.
class ParallelScoringTest : public ServingEngineTest {
 protected:
  /// A slate of every item in user 0's city, large enough to shard.
  static std::vector<int32_t> BigSlate() {
    return world_->CityItems(world_->user(0).city);
  }
  static serving::Request MakeRequest() {
    serving::Request req;
    req.user_id = 0;
    req.hour = 12;
    req.weekday = 2;
    req.city = world_->user(0).city;
    req.request_id = 900;
    return req;
  }
};

TEST_F(ParallelScoringTest, ShardedScoresBitIdenticalToSerial) {
  const std::vector<int32_t> candidates = BigSlate();
  ASSERT_GE(candidates.size(), 16u);
  std::vector<data::Example> examples =
      pipeline_->BuildExamples(MakeRequest(), candidates);

  autograd::NoGradGuard guard;
  const std::vector<float> serial = serving::ScoreExamples(
      model_, world_->schema(), examples, /*pool=*/nullptr,
      /*min_rows_per_shard=*/8);
  ASSERT_EQ(serial.size(), examples.size());

  ThreadPool pool(3);
  // Several shard granularities, including one per pool thread and shards
  // far smaller than the batch: all must reproduce the serial bits.
  for (int64_t min_shard : {1, 4, 8, 16}) {
    std::vector<float> sharded = serving::ScoreExamples(
        model_, world_->schema(), examples, &pool, min_shard);
    ASSERT_EQ(sharded.size(), serial.size()) << "min_shard=" << min_shard;
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(sharded[i], serial[i])
          << "row " << i << " min_shard=" << min_shard;
    }
  }
  pool.Shutdown();
}

TEST_F(ParallelScoringTest, EngineParallelSlatesBitIdenticalToSerial) {
  // Same acceptance gate as SlatesBitIdenticalToSerialPipeline, but with
  // intra-batch sharding on: 4-request micro-batches of 16 candidates each
  // cross the 2*min_rows_per_shard=16 threshold and split across the
  // scoring pool.
  EngineConfig config;
  config.num_workers = 2;
  config.max_batch_requests = 4;
  config.max_wait_micros = 500;
  config.scoring_threads = 2;
  config.min_rows_per_shard = 8;
  ServingEngine engine(pipeline_, config);

  const int kRequests = 24;
  Rng rng(78);
  std::vector<serving::Request> requests(kRequests);
  std::vector<std::vector<int32_t>> candidates(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    requests[i].user_id = static_cast<int32_t>(rng.UniformInt(0, 199));
    requests[i].hour = static_cast<int32_t>(rng.UniformInt(0, 23));
    requests[i].weekday = i % 7;
    requests[i].city = world_->user(requests[i].user_id).city;
    requests[i].request_id = i;
    candidates[i] = recall_->RecallByCity(requests[i].city, 16, rng);
  }

  std::vector<std::future<SlateResult>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(engine.Submit(requests[i], candidates[i],
                                    /*deadline_micros=*/60 * 1000 * 1000));
  }
  for (int i = 0; i < kRequests; ++i) {
    SlateResult result = futures[i].get();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    auto serial = pipeline_->RankCandidates(requests[i], candidates[i]);
    ASSERT_EQ(result.slate.size(), serial.size());
    for (size_t p = 0; p < serial.size(); ++p) {
      EXPECT_EQ(result.slate[p].item_id, serial[p].item_id);
      EXPECT_EQ(result.slate[p].score, serial[p].score);  // bit-identical
      EXPECT_EQ(result.slate[p].position, serial[p].position);
    }
  }
}

TEST_F(ParallelScoringTest, EngineScoringReusesArenaBlocks) {
  // Steady-state serving must stop allocating: after a warmup batch seeds
  // each worker's freelist, later identical batches should be served almost
  // entirely from recycled blocks.
  EngineConfig config;
  config.num_workers = 1;
  config.max_batch_requests = 1;
  ServingEngine engine(pipeline_, config);

  serving::Request req = MakeRequest();
  std::vector<int32_t> candidates = BigSlate();
  (void)engine.Submit(req, candidates, /*deadline_micros=*/60 * 1000 * 1000)
      .get();  // warmup seeds the worker's freelists

  const int64_t fresh_before = TensorArena::TotalFreshAllocs();
  const int64_t reuse_before = TensorArena::TotalReuses();
  for (int i = 0; i < 4; ++i) {
    SlateResult result =
        engine.Submit(req, candidates, /*deadline_micros=*/60 * 1000 * 1000)
            .get();
    ASSERT_TRUE(result.status.ok());
  }
  const int64_t fresh = TensorArena::TotalFreshAllocs() - fresh_before;
  const int64_t reuses = TensorArena::TotalReuses() - reuse_before;
  // The forward pass allocates dozens of tensors per batch; with the arena
  // warm, reuse must dominate fresh allocation by a wide margin.
  EXPECT_GT(reuses, 4 * fresh) << "fresh=" << fresh << " reuses=" << reuses;
}

}  // namespace
}  // namespace basm::runtime
