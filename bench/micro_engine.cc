// Serving-engine throughput bench: the threads x batch-policy sweep behind
// the runtime/ subsystem. A closed-loop load generator drives the
// ServingEngine over the Ele.me-like world and reports qps, speedup over the
// single-threaded serial pipeline, tail latency, and the realized
// micro-batch distribution, then demonstrates reject-on-full backpressure
// with an undersized queue.
//
// It first times the two eval forwards of BASM and Wide&Deep per candidate
// row — the per-candidate reference, and the request path (BASM's
// graph-free eval forward, Wide&Deep's request path; DESIGN §17) —
// over behavior windows of 12, 48 and 200 events at 1 and 4 requests per
// batch, and one LBS recall of 24 (DESIGN §18), and writes them as the
// "forward" and "recall" sections of BENCH_serving.json.
//
// Intentionally a plain main() (not google-benchmark): each cell of the
// sweep is one long closed-loop run with its own latency recorder, which
// benchmark's stat framework would only obscure.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "bench_json.h"
#include "common/env.h"
#include "common/timer.h"
#include "core/basm_model.h"
#include "tensor/arena.h"
#include "data/synth.h"
#include "core/model_zoo.h"
#include "models/wide_deep.h"
#include "runtime/load_generator.h"
#include "runtime/serving_engine.h"
#include "feature_store/feature_store.h"
#include "feature_store/feature_server.h"
#include "serving/pipeline.h"
#include "serving/recall.h"

namespace {

using namespace basm;

struct Cell {
  int32_t workers;
  int64_t max_batch;
  int64_t wait_micros;
  /// Extra threads sharding each slate's scoring; 0 = serial per request.
  int32_t scoring_threads;
};

void AppendJsonNumber(std::ostringstream& out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  out << buf;
}

data::SynthConfig EngineWorldConfig() {
  data::SynthConfig config = data::SynthConfig::Eleme();
  config.num_users = 2000;
  config.num_items = 1500;
  config.num_cities = 8;
  return config;
}

std::vector<float> Probabilities(const autograd::Variable& logits) {
  std::vector<float> p(logits.numel());
  for (int64_t i = 0; i < logits.numel(); ++i) {
    p[i] = 1.0f / (1.0f + std::exp(-logits.value()[i]));
  }
  return p;
}

/// Appends one model's reference and request-path eval forward cost per
/// candidate row over `batches` to the "forward" section, one cell per
/// path. Each path keeps its fastest of several alternating rounds;
/// max_abs_dp is the largest probability gap to the reference over every
/// timed row. `model_key` tags the cell with a "model" key; BASM's cells
/// carry none, so they keep matching the committed baseline.
template <typename Model>
void AppendForwardCells(Model& model, const char* model_key, int64_t seq_len,
                        int32_t per_batch,
                        const std::vector<data::Batch>& batches,
                        std::ostringstream& json, bool* first) {
  constexpr int kRounds = 5;
  int64_t rows = 0;
  for (const data::Batch& b : batches) rows += b.size;
  double best[2] = {INFINITY, INFINITY};
  for (int round = 0; round <= kRounds; ++round) {
    for (int path = 0; path < 2; ++path) {
      WallTimer timer;
      for (const data::Batch& b : batches) {
        if (path == 0) {
          model.ForwardLogitsReference(b);
        } else {
          model.ForwardLogits(b);
        }
      }
      const double us = timer.ElapsedSeconds() * 1e6 / rows;
      if (round > 0) best[path] = std::min(best[path], us);
    }
  }
  float max_dp = 0.0f;
  for (const data::Batch& b : batches) {
    const std::vector<float> reference =
        Probabilities(model.ForwardLogitsReference(b));
    const std::vector<float> request = Probabilities(model.ForwardLogits(b));
    for (size_t i = 0; i < request.size(); ++i) {
      max_dp = std::max(max_dp, std::abs(request[i] - reference[i]));
    }
  }
  for (int path = 0; path < 2; ++path) {
    const char* name = path == 0 ? "reference" : "request";
    const double dp = path == 0 ? 0.0 : max_dp;
    std::printf("%-10s %-8lld %-9d %-10s %-11.2f %.3g\n",
                model_key[0] != '\0' ? model_key : "basm",
                static_cast<long long>(seq_len), per_batch, name, best[path],
                dp);
    json << (*first ? "" : ",") << "\n    {";
    if (model_key[0] != '\0') json << "\"model\": \"" << model_key << "\", ";
    json << "\"seq_len\": " << seq_len << ", \"requests\": " << per_batch
         << ", \"path\": \"" << name << "\", \"us_per_row\": ";
    AppendJsonNumber(json, best[path]);
    char dp_buf[32];
    std::snprintf(dp_buf, sizeof(dp_buf), "%.3g", dp);
    json << ", \"max_abs_dp\": " << dp_buf << "}";
    *first = false;
  }
}

/// Per-row cost of the reference and request-path eval forwards of BASM
/// and Wide&Deep, one cell per (model, seq_len, requests per batch, path).
std::string ForwardCells() {
  const int32_t num_requests = basm::FastMode() ? 8 : 32;
  std::ostringstream json;
  json << "[";
  std::printf("forward per candidate row (recall 24, %d requests)\n"
              "%-10s %-8s %-9s %-10s %-11s %s\n",
              num_requests, "model", "seq_len", "requests", "path",
              "us_per_row", "max_abs_dp");
  autograd::NoGradGuard no_grad;
  ArenaScope arena;
  bool first = true;
  for (int64_t seq_len : {12, 48, 200}) {
    data::SynthConfig config = EngineWorldConfig();
    config.seq_len = seq_len;
    data::World world(config);
    feature_store::FeatureServer features(world, seq_len, 3);
    feature_store::FeatureStore store(&features);
    serving::RecallIndex recall(world);
    Rng init(42);
    core::Basm basm(world.schema(), core::BasmConfig::Full(), init);
    basm.SetTraining(false);
    Rng wide_init(42);
    models::WideDeep wide_deep(world.schema(), /*embed_dim=*/8, {64, 32},
                               wide_init);
    wide_deep.SetTraining(false);
    serving::Pipeline pipeline(world, &store, &recall, &basm,
                               /*recall_size=*/24, /*expose_k=*/8);
    runtime::LoadConfig load;
    load.num_requests = num_requests;
    runtime::LoadGenerator traffic(world, load);
    std::vector<std::vector<data::Example>> examples;
    for (int32_t i = 0; i < num_requests; ++i) {
      const serving::Request request = traffic.MakeRequest(i);
      Rng rng = Rng(7).Fork(static_cast<uint64_t>(request.request_id));
      examples.push_back(
          pipeline.BuildExamples(request, pipeline.Recall(request, rng)));
    }
    for (int32_t per_batch : {1, 4}) {
      std::vector<data::Batch> batches;
      for (size_t i = 0; i + per_batch <= examples.size(); i += per_batch) {
        std::vector<const data::Example*> ptrs;
        for (size_t j = i; j < i + per_batch; ++j) {
          for (const data::Example& e : examples[j]) ptrs.push_back(&e);
        }
        batches.push_back(data::MakeBatch(ptrs, world.schema()));
      }
      AppendForwardCells(basm, "", seq_len, per_batch, batches, json, &first);
      AppendForwardCells(wide_deep, "wide_deep", seq_len, per_batch, batches,
                         json, &first);
    }
  }
  json << "\n  ]";
  return json.str();
}

/// Cost of one LBS recall of 24 candidates (RecallIndex::RecallByCity, as
/// Pipeline::Recall runs it) over the engine world's traffic, as the
/// one-cell "recall" section: the fastest of several rounds.
std::string RecallCells() {
  constexpr int32_t kRecallSize = 24;
  constexpr int kRounds = 5;
  const int32_t num_requests = basm::FastMode() ? 1000 : 4000;
  data::World world(EngineWorldConfig());
  serving::RecallIndex recall(world);
  runtime::LoadConfig load;
  load.num_requests = num_requests;
  runtime::LoadGenerator traffic(world, load);
  std::vector<serving::Request> requests;
  for (int32_t i = 0; i < num_requests; ++i) {
    requests.push_back(traffic.MakeRequest(i));
  }
  double best = INFINITY;
  int64_t checksum = 0;
  for (int round = 0; round <= kRounds; ++round) {
    WallTimer timer;
    for (const serving::Request& request : requests) {
      Rng rng = Rng(7).Fork(static_cast<uint64_t>(request.request_id));
      checksum += recall.RecallByCity(request.city, kRecallSize, rng).back();
    }
    const double us = timer.ElapsedSeconds() * 1e6 / num_requests;
    if (round > 0) best = std::min(best, us);
  }
  std::printf("recall by city, k %d, %d requests: %.2f us/request "
              "(checksum %lld)\n",
              kRecallSize, num_requests, best,
              static_cast<long long>(checksum));
  std::ostringstream json;
  json << "[\n    {\"k\": " << kRecallSize << ", \"us_per_request\": ";
  AppendJsonNumber(json, best);
  json << "}\n  ]";
  return json.str();
}

}  // namespace

int main() {
  const std::string serving_json_path =
      basm::EnvString("BASM_BENCH_JSON", "BENCH_serving.json");
  for (const auto& [section, cells] :
       {std::pair<const char*, std::string>{"forward", ForwardCells()},
        std::pair<const char*, std::string>{"recall", RecallCells()}}) {
    if (basm::bench::UpdateBenchJsonSection(serving_json_path, section,
                                            cells)) {
      std::printf("wrote \"%s\" section of %s\n\n", section,
                  serving_json_path.c_str());
    } else {
      std::printf("FAILED to write %s\n\n", serving_json_path.c_str());
    }
  }

  data::World world(EngineWorldConfig());

  feature_store::FeatureServer features(world, world.config().seq_len, 3);
  feature_store::FeatureStore store(&features);
  serving::RecallIndex recall(world);
  auto model =
      core::CreateModel(core::ModelKind::kBasm, world.schema(), 42);
  model->SetTraining(false);
  serving::Pipeline pipeline(world, &store, &recall, model.get(),
                             /*recall_size=*/24, /*expose_k=*/8);

  runtime::LoadConfig load;
  load.num_requests = basm::EnvInt("BASM_ENGINE_REQUESTS",
                                   basm::FastMode() ? 200 : 1500);
  load.concurrency = 32;

  std::printf("serving engine sweep: %lld requests/run, recall 24, "
              "model %s, hardware threads %u\n",
              static_cast<long long>(load.num_requests),
              model->name().c_str(), std::thread::hardware_concurrency());

  runtime::LoadGenerator serial_gen(world, load);
  runtime::LoadReport serial = serial_gen.RunSerial(pipeline);
  std::printf("\nserial pipeline baseline: %.1f qps (%.2fs)\n", serial.qps,
              serial.wall_seconds);

  // The last rows turn on intra-batch parallel scoring (scoring_threads > 0,
  // min shard 8 rows) at the large batch sizes where a worker otherwise
  // serializes many 24-row forwards back to back.
  const std::vector<Cell> cells = {
      {1, 1, 0, 0},    {1, 4, 200, 0},  {1, 8, 300, 0},
      {2, 1, 0, 0},    {2, 4, 200, 0},  {2, 8, 300, 0},
      {4, 1, 0, 0},    {4, 4, 200, 0},  {4, 8, 300, 0},
      {2, 8, 300, 2},  {2, 16, 300, 2}, {4, 8, 300, 2},
      {4, 16, 300, 0}, {4, 16, 300, 2},
  };

  std::printf("\n%-8s %-10s %-8s %-8s %-9s %-8s %-9s %-9s %-9s %-9s %-10s "
              "%s\n",
              "workers", "max_batch", "wait_us", "scoring", "qps", "speedup",
              "p50_us", "p95_us", "p99_us", "avg_batch", "allocs/req",
              "rej/to");
  std::ostringstream engine_json;
  engine_json << "[";
  bool first_cell = true;
  for (const Cell& cell : cells) {
    runtime::EngineConfig ec;
    ec.num_workers = cell.workers;
    ec.max_batch_requests = cell.max_batch;
    ec.max_wait_micros = cell.wait_micros;
    ec.queue_capacity = 256;
    ec.scoring_threads = cell.scoring_threads;
    ec.min_rows_per_shard = 8;
    runtime::ServingEngine engine(&pipeline, ec);

    const int64_t fresh_before = TensorArena::TotalFreshAllocs();
    const int64_t reuse_before = TensorArena::TotalReuses();
    runtime::LoadGenerator generator(world, load);
    runtime::LoadReport report = generator.Run(engine);
    runtime::LatencySnapshot snap = engine.Stats();
    // Steady-state allocation cost of one request's forward: the arena keeps
    // this O(1) (a handful of one-off shapes) instead of O(layers).
    const double allocs_per_request =
        static_cast<double>(TensorArena::TotalFreshAllocs() - fresh_before) /
        static_cast<double>(load.num_requests);
    const double reuses_per_request =
        static_cast<double>(TensorArena::TotalReuses() - reuse_before) /
        static_cast<double>(load.num_requests);
    std::printf("%-8d %-10lld %-8lld %-8d %-9.1f %-8.2f %-9.0f %-9.0f "
                "%-9.0f %-9.2f %-10.2f %lld/%lld\n",
                cell.workers, static_cast<long long>(cell.max_batch),
                static_cast<long long>(cell.wait_micros),
                cell.scoring_threads, report.qps, report.qps / serial.qps,
                snap.p50_micros, snap.p95_micros, snap.p99_micros,
                snap.mean_batch_size, allocs_per_request,
                static_cast<long long>(snap.rejects),
                static_cast<long long>(snap.timeouts));

    if (!first_cell) engine_json << ",";
    first_cell = false;
    engine_json << "\n    {\"workers\": " << cell.workers
                << ", \"max_batch\": " << cell.max_batch
                << ", \"wait_micros\": " << cell.wait_micros
                << ", \"scoring_threads\": " << cell.scoring_threads
                << ", \"requests\": " << load.num_requests << ", \"qps\": ";
    AppendJsonNumber(engine_json, report.qps);
    engine_json << ", \"p50_micros\": ";
    AppendJsonNumber(engine_json, snap.p50_micros);
    engine_json << ", \"p95_micros\": ";
    AppendJsonNumber(engine_json, snap.p95_micros);
    engine_json << ", \"p99_micros\": ";
    AppendJsonNumber(engine_json, snap.p99_micros);
    engine_json << ", \"allocs_per_request\": ";
    AppendJsonNumber(engine_json, allocs_per_request);
    engine_json << ", \"reuses_per_request\": ";
    AppendJsonNumber(engine_json, reuses_per_request);
    engine_json << "}";
  }
  engine_json << "\n  ]";
  const std::string json_path =
      basm::EnvString("BASM_BENCH_JSON", "BENCH_kernels.json");
  if (basm::bench::UpdateBenchJsonSection(json_path, "engine",
                                          engine_json.str())) {
    std::printf("\nwrote \"engine\" section of %s\n", json_path.c_str());
  } else {
    std::printf("\nFAILED to write %s\n", json_path.c_str());
  }

  // Full detail for the headline configuration, with per-window JSON
  // stats sampled from the interval recorder while the load runs — the
  // shape of a production node's periodic metrics export.
  {
    runtime::EngineConfig ec;
    ec.num_workers = 4;
    ec.max_batch_requests = 4;
    ec.max_wait_micros = 200;
    runtime::ServingEngine engine(&pipeline, ec);
    runtime::LoadGenerator generator(world, load);
    std::printf("\nheadline config (4 workers, batch<=4, wait 200us)\n");
    runtime::LoadReport report;
    std::thread driver([&] { report = generator.Run(engine); });
    std::atomic<bool> done{false};
    std::thread sampler([&] {
      while (!done.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        runtime::LatencySnapshot window = engine.IntervalStats();
        if (window.count > 0) {
          std::printf("window %s\n", window.ToJson().c_str());
        }
      }
    });
    driver.join();
    done.store(true, std::memory_order_relaxed);
    sampler.join();
    std::printf("%s\n%s", report.ToString().c_str(),
                engine.Stats().ToString().c_str());
  }

  // Backpressure demo: a queue sized far below the offered burst sheds load
  // as immediate UNAVAILABLE rejects instead of queueing without bound.
  {
    runtime::EngineConfig ec;
    ec.num_workers = 2;
    ec.queue_capacity = 8;
    ec.max_batch_requests = 4;
    ec.max_wait_micros = 100;
    runtime::ServingEngine engine(&pipeline, ec);
    runtime::LoadConfig burst = load;
    burst.num_requests = std::min<int64_t>(load.num_requests, 400);
    burst.concurrency = 128;  // >> queue capacity: overload by construction
    runtime::LoadGenerator generator(world, burst);
    runtime::LoadReport report = generator.Run(engine);
    std::printf("\noverload demo (queue 8, concurrency 128)\n%s\n",
                report.ToString().c_str());
  }
  return 0;
}
