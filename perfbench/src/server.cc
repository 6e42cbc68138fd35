// Server process of the serving benchmark: two ServingEngine replicas
// behind net::Router and one epoll IO loop, a FeatureStore with its LRU on,
// the model loaded from a checkpoint, and on click_feedback a journaled
// click stream feeding an OnlineTrainer that hot-swaps models mid-load.
//
// It prints `READY <port>` once the frontend accepts, then answers one-line
// commands on stdin (the generator's control pipe):
//   stats                  -> STATS k=v ...   (counters; engine intervals)
//   clicks <count> <rate> <stream>
//                          -> OK              (stops the running click stream
//                                              and starts `count` clicks of
//                                              seeded stream `stream`)
//   click_probe <count> <rate> <journal_dir>
//                          -> PROBE k=v ...   (one part of a probe of
//                                              journaled clicks on a store of
//                                              its own, between load phases)
//   quit / EOF             -> final STATS, then exit
// Server CPU and peak RSS come from the process itself, so the generator's
// own cost never mixes in.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_core.h"
#include "common/synchronization.h"
#include "common/timer.h"
#include "feature_store/feature_server.h"
#include "feature_store/feature_store.h"
#include "net/epoll_server.h"
#include "net/router.h"
#include "nn/serialize.h"
#include "online/model_registry.h"
#include "online/model_slot.h"
#include "online/online_trainer.h"
#include "serving/pipeline.h"
#include "serving/recall.h"
#include "tensor/arena.h"

namespace basm::perfbench {
namespace {

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

int64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoll(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

/// Seeded click stream: each click goes through FeatureStore::RecordClick
/// (journaled on click_feedback) and, when a trainer is attached, becomes
/// one feedback example. RecordClick's return latency is recorded per
/// click. Each stream is seeded from the run seed and its stream number
/// alone, independent of the served slates and of earlier streams, so every
/// run makes the same clicks.
class ClickStream {
 public:
  ClickStream(const data::World& world, feature_store::FeatureStore* store,
              online::OnlineTrainer* trainer, uint64_t seed)
      : world_(world),
        store_(store),
        trainer_(trainer),
        users_(world.config().num_users, 1.1),
        seed_(seed),
        rng_(Rng(seed).Fork(0xC11C)) {}

  ~ClickStream() { Stop(); }

  ClickStream(const ClickStream&) = delete;
  ClickStream& operator=(const ClickStream&) = delete;

  /// Stops the running stream, then starts `count` clicks of stream
  /// `stream` at `rate`/s on a background thread.
  void Start(int64_t count, double rate, uint64_t stream) {
    Stop();
    stop_.store(false);
    rng_ = Rng(seed_).Fork(0xC11C + stream);
    thread_ = std::thread([this, count, rate] { Run(count, rate, false); });
  }

  /// Ends the running stream after its current click.
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  /// Runs `count` clicks at `rate`/s on the calling thread and adds their
  /// acks to those of the earlier inline runs. The first call starts with
  /// one unrecorded back-to-back chunk that warms the caches.
  void RunInline(int64_t count, double rate) {
    const bool first = !warmed_;
    if (first) Run(kClickChunk, 0.0, /*append=*/false);
    warmed_ = true;
    Run(count, rate, /*append=*/!first);
  }

  /// Clicks done so far by the latest stream, the seconds from its start to
  /// its latest click, and their ack-latency p99: each chunk of kClickChunk
  /// clicks gets its own p99, and the value is the median over the half of
  /// the chunks that lost the least CPU to the host (see
  /// QuietWindowPercentile); 0 before the first chunk completes.
  void Report(int64_t* done, double* seconds, double* p99_us) {
    MutexLock lock(&mu_);
    *done = static_cast<int64_t>(ack_us_.size());
    *seconds = static_cast<double>(last_click_ns_ - start_ns_) / 1e9;
    *p99_us = QuietWindowPercentile(ack_us_, kClickChunk, 0.99, chunk_steal_,
                                    false, 0.5)
                  .value_or(0.0);
  }

 private:
  /// With `append`, the acks join the previous run's; `count` is then a
  /// multiple of kClickChunk so chunks stay aligned.
  void Run(int64_t count, double rate, bool append) {
    const int64_t start = NowNanos();
    if (!append) {
      MutexLock lock(&mu_);
      ack_us_.clear();
      ack_us_.reserve(static_cast<size_t>(std::min<int64_t>(count, 1 << 16)));
      chunk_steal_.clear();
      start_ns_ = last_click_ns_ = start;
    }
    double steal_mark = StolenSeconds();
    for (int64_t i = 0; i < count && !stop_.load(); ++i) {
      if (rate > 0.0) {
        const int64_t due = ScheduledSendNanos(start, rate, i);
        const int64_t wait = due - NowNanos();
        if (wait > 0) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
        }
      }
      Click click = MakeClick(world_, users_, rng_);
      const int64_t t0 = NowNanos();
      store_->RecordClick(click.user_id, click.event);
      const int64_t t1 = NowNanos();
      const double ack_us = static_cast<double>(t1 - t0) / 1e3;
      if (trainer_ != nullptr) {
        const data::World::UserProfile& user = world_.user(click.user_id);
        std::vector<data::BehaviorEvent> window =
            store_->GetFeatures(click.user_id).behaviors;
        trainer_->SubmitFeedback(world_.MakeExample(
            click.user_id, click.event.item_id, click.hour,
            static_cast<int32_t>(i % 7), static_cast<int32_t>(i % kExposeK),
            user.city, /*day=*/0, static_cast<int32_t>(i), window, rng_));
      }
      double chunk_steal = -1.0;
      if ((i + 1) % kClickChunk == 0) {
        const double stolen = StolenSeconds();
        chunk_steal = stolen - steal_mark;
        steal_mark = stolen;
      }
      MutexLock lock(&mu_);
      last_click_ns_ = t1;
      ack_us_.push_back(ack_us);
      if (chunk_steal >= 0.0) chunk_steal_.push_back(chunk_steal);
    }
  }

  const data::World& world_;
  feature_store::FeatureStore* store_;
  online::OnlineTrainer* trainer_;
  ZipfTable users_;
  const uint64_t seed_;
  Rng rng_;
  std::atomic<bool> stop_{false};
  bool warmed_ = false;
  Mutex mu_;
  std::vector<double> ack_us_ BASM_GUARDED_BY(mu_);
  std::vector<double> chunk_steal_ BASM_GUARDED_BY(mu_);
  int64_t start_ns_ BASM_GUARDED_BY(mu_) = 0;
  int64_t last_click_ns_ BASM_GUARDED_BY(mu_) = 0;
  /// Declared last: it reads every member above.
  std::thread thread_;
};

struct Server {
  double replay_ms = 0.0;
  int64_t replay_clicks = 0;
  feature_store::FeatureStore* store = nullptr;
  std::vector<runtime::ServingEngine*> engines;
  net::EpollRpcServer* frontend = nullptr;
  online::OnlineTrainer* trainer = nullptr;
  online::ModelSlot* slot = nullptr;
  ClickStream* clicks = nullptr;
};

std::string ClickFields(ClickStream* clicks) {
  int64_t done = 0;
  double seconds = 0.0;
  double p99 = 0.0;
  clicks->Report(&done, &seconds, &p99);
  std::ostringstream out;
  out.precision(10);
  out << " clicks.done=" << done << " clicks.seconds=" << seconds
      << " clicks.p99_us=" << p99;
  return out.str();
}

std::string StatsLine(const Server& s) {
  std::ostringstream out;
  out.precision(10);
  out << "STATS cpu_s=" << ProcessCpuSeconds()
      << " vmhwm_kb=" << PeakRssKb()
      << " fresh_allocs=" << TensorArena::TotalFreshAllocs();
  const net::EpollServerStats net = s.frontend->stats();
  out << " net.frames=" << net.core.frames_received
      << " net.responses=" << net.core.responses_sent
      << " net.decode_errors=" << net.core.decode_errors
      << " net.shed=" << net.core.shed
      << " net.shed_pipeline=" << net.shed_pipeline
      << " net.backpressure_pauses=" << net.backpressure_pauses
      << " net.unroutable=" << net.core.unroutable
      << " net.failover_retries=" << net.core.failover_retries;
  for (size_t i = 0; i < s.engines.size(); ++i) {
    runtime::LatencySnapshot snap = s.engines[i]->IntervalStats();
    const std::string p = " r" + std::to_string(i) + ".";
    out << p << "count=" << snap.count << p << "rejects=" << snap.rejects
        << p << "timeouts=" << snap.timeouts << p << "p50_us="
        << snap.p50_micros << p << "p99_us=" << snap.p99_micros << p
        << "mean_batch=" << snap.mean_batch_size << p
        << "degraded=" << snap.degraded;
  }
  const feature_store::FeatureStoreStats fs = s.store->stats();
  out << " fs.fresh_fetches=" << fs.fresh_fetches
      << " fs.journal_appends=" << fs.journal_appends
      << " fs.journal_fsyncs=" << fs.journal_fsyncs
      << " fs.journal_write_failures=" << fs.journal_write_failures
      << " fs.replay_ms=" << s.replay_ms
      << " fs.replay_clicks=" << s.replay_clicks;
  if (s.trainer != nullptr) {
    const online::OnlineTrainerStats t = s.trainer->stats();
    out << " online.consumed=" << t.consumed << " online.dropped=" << t.dropped
        << " online.published=" << t.published
        << " online.failed_installs=" << t.failed_installs
        << " online.last_update_ms=" << t.last_update_seconds * 1e3
        << " online.swaps=" << s.slot->swap_count();
  }
  out << ClickFields(s.clicks);
  return out.str();
}

void Reply(const std::string& line) {
  std::fputs(line.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

}  // namespace

int RunServer(const std::string& workload_name, const std::string& checkpoint,
              const std::string& journal_dir, uint64_t seed) {
  const Workload* workload = FindWorkload(workload_name);
  if (workload == nullptr) {
    std::fprintf(stderr, "server: unknown workload %s\n",
                 workload_name.c_str());
    return 2;
  }
  data::World world(WorldConfig());
  feature_store::FeatureServer features(world, world.config().seq_len, 3);
  feature_store::FeatureStore store(
      &features, workload->click_stream ? JournaledStoreConfig(journal_dir)
                                        : feature_store::FeatureStoreConfig{});
  Server s;
  s.store = &store;
  if (workload->click_stream) {
    WallTimer replay_timer;
    feature_store::ReplayReport report;
    Status replayed = store.RecoverFromJournal(nullptr, &report);
    if (!replayed.ok()) {
      std::fprintf(stderr, "server: replay failed: %s\n",
                   replayed.ToString().c_str());
      return 1;
    }
    s.replay_ms = replay_timer.ElapsedMillis();
    s.replay_clicks = report.recovered;
  }
  serving::RecallIndex recall(world);
  std::unique_ptr<models::CtrModel> model =
      core::CreateModel(workload->model, world.schema(), /*seed=*/7);
  Status loaded = nn::LoadParameters(*model, checkpoint);
  if (!loaded.ok()) {
    std::fprintf(stderr, "server: checkpoint load failed: %s\n",
                 loaded.ToString().c_str());
    return 1;
  }
  model->SetTraining(false);

  online::ModelRegistry registry(/*keep_last=*/4);
  online::ModelSlot slot;
  std::unique_ptr<online::OnlineTrainer> trainer;
  std::unique_ptr<serving::Pipeline> pipeline;
  if (workload->click_stream) {
    online::OnlineTrainerConfig trainer_config;
    trainer_config.model_kind = workload->model;
    trainer_config.model_seed = kCheckpointSeed;
    trainer_config.publish_every = kPublishEvery;
    trainer = std::make_unique<online::OnlineTrainer>(
        world.schema(), &registry, &slot, trainer_config);
    Status bootstrap = trainer->PublishModel(*model, "bootstrap");
    if (!bootstrap.ok()) {
      std::fprintf(stderr, "server: bootstrap publish failed: %s\n",
                   bootstrap.ToString().c_str());
      return 1;
    }
    pipeline = std::make_unique<serving::Pipeline>(
        world, &store, &recall, &slot, kRecallSize, kExposeK);
  } else {
    pipeline = std::make_unique<serving::Pipeline>(
        world, &store, &recall, model.get(), kRecallSize, kExposeK);
  }

  std::vector<std::unique_ptr<runtime::ServingEngine>> engines;
  for (int32_t i = 0; i < kReplicas; ++i) {
    engines.push_back(std::make_unique<runtime::ServingEngine>(
        pipeline.get(), EngineConfigFor(i)));
    s.engines.push_back(engines.back().get());
  }
  net::Router router(kReplicas, net::RouterConfig{});
  net::EpollServerConfig frontend_config;
  frontend_config.num_loops = kIoLoops;
  net::EpollRpcServer frontend(s.engines, &router, frontend_config);
  Status started = frontend.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server: frontend start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  if (trainer != nullptr) trainer->Start();
  ClickStream clicks(world, &store, trainer.get(), seed);
  s.frontend = &frontend;
  s.trainer = trainer.get();
  s.slot = &slot;
  s.clicks = &clicks;

  std::unique_ptr<feature_store::FeatureServer> probe_features;
  std::unique_ptr<feature_store::FeatureStore> probe_store;
  std::unique_ptr<ClickStream> probe;
  Reply("READY " + std::to_string(frontend.port()));
  char buf[256];
  while (std::fgets(buf, sizeof(buf), stdin) != nullptr) {
    std::istringstream cmd(buf);
    std::string op;
    cmd >> op;
    if (op == "stats") {
      Reply(StatsLine(s));
    } else if (op == "clicks") {
      int64_t count = 0;
      double rate = 0.0;
      uint64_t stream = 0;
      cmd >> count >> rate >> stream;
      clicks.Start(count, rate, stream);
      Reply("OK");
    } else if (op == "click_probe") {
      // The read-only workloads serve without a journal; their click-ack
      // figure comes from a journaled store of its own, probed in parts
      // while the load pauses.
      int64_t count = 0;
      double rate = 0.0;
      std::string dir;
      cmd >> count >> rate >> dir;
      if (probe == nullptr) {
        probe_features = std::make_unique<feature_store::FeatureServer>(
            world, world.config().seq_len, 3);
        probe_store = std::make_unique<feature_store::FeatureStore>(
            probe_features.get(), JournaledStoreConfig(dir));
        probe = std::make_unique<ClickStream>(world, probe_store.get(), nullptr, seed);
      }
      probe->RunInline(count, rate);
      Reply("PROBE" + ClickFields(probe.get()));
    } else if (op == "quit") {
      break;
    } else {
      Reply("ERROR unknown command");
    }
  }
  clicks.Stop();
  if (trainer != nullptr) trainer->Stop();
  frontend.Stop();
  for (auto& engine : engines) engine->Shutdown();
  Reply(StatsLine(s));
  return 0;
}

}  // namespace basm::perfbench
