#include "replay.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>

#include "autograd/variable.h"
#include "core/basm_model.h"
#include "data/batch.h"
#include "feature_store/feature_server.h"
#include "feature_store/feature_store.h"
#include "net/router.h"
#include "net/wire.h"
#include "nn/serialize.h"
#include "serving/recall.h"
#include "tensor/arena.h"

namespace basm::perfbench {
namespace {

constexpr size_t kReplayRequests = 400;
constexpr size_t kForwardBatches = 48;
constexpr int kForwardRounds = 4;
constexpr int kReplayRounds = 9;

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Spans of one replay pass, kept in memory. A disabled tracer records
/// nothing, so the untraced pass makes exactly the same layer calls.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(kReplayRequests * 12);
  }

  int32_t Begin(const char* name, int32_t parent, int64_t request_id) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, NowNanos(), 0, parent, request_id});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  void End(int32_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNanos();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  const bool enabled_;
  std::vector<Span> spans_;
};

struct ReplayContext {
  const data::World& world;
  feature_store::FeatureStore& store;
  const serving::Pipeline& pipeline;
  models::CtrModel& model;
  const net::Router& router;
  /// Request payloads as the frontend receives them (header stripped).
  std::vector<std::vector<uint8_t>> payloads;
};

/// One serial pass over the sample; returns the pass's thread CPU seconds.
double ReplayPass(const ReplayContext& ctx,
                  const std::vector<serving::Request>& sample,
                  Tracer* tracer) {
  autograd::NoGradGuard no_grad;
  ArenaScope arena;
  const double cpu0 = ThreadCpuSeconds();
  for (size_t i = 0; i < sample.size(); ++i) {
    const int64_t id = sample[i].request_id;
    const int32_t root = tracer->Begin("request", -1, id);

    int32_t s = tracer->Begin("net.decode_request", root, id);
    net::RpcRequest rpc;
    Status decoded = net::DecodeRequestPayload(ctx.payloads[i].data(),
                                               ctx.payloads[i].size(), &rpc);
    tracer->End(s);
    BASM_CHECK(decoded.ok()) << decoded.ToString();
    const serving::Request& request = rpc.request;

    s = tracer->Begin("net.route", root, id);
    const int32_t replica = ctx.router.HomeReplica(request.user_id);
    tracer->End(s);

    s = tracer->Begin("serving.recall", root, id);
    Rng rng = Rng(kEngineSeedBase + static_cast<uint64_t>(replica))
                  .Fork(static_cast<uint64_t>(request.request_id));
    std::vector<int32_t> candidates = ctx.pipeline.Recall(request, rng);
    tracer->End(s);

    s = tracer->Begin("feature_store.fetch", root, id);
    StatusOr<feature_store::FeatureServer::UserFeatures> fetched =
        ctx.store.FetchFeatures(request.user_id);
    tracer->End(s);
    BASM_CHECK(fetched.ok()) << fetched.status().ToString();

    s = tracer->Begin("serving.build_examples", root, id);
    std::vector<data::Example> examples =
        ctx.pipeline.BuildExamples(request, candidates);
    tracer->End(s);

    s = tracer->Begin("data.make_batch", root, id);
    std::vector<const data::Example*> ptrs;
    ptrs.reserve(examples.size());
    for (const data::Example& e : examples) ptrs.push_back(&e);
    data::Batch batch = data::MakeBatch(ptrs, ctx.world.schema());
    tracer->End(s);

    s = tracer->Begin("models.forward", root, id);
    std::vector<float> scores = ctx.model.PredictProbs(batch);
    tracer->End(s);

    s = tracer->Begin("serving.slate", root, id);
    std::vector<serving::RankedItem> slate =
        serving::Pipeline::MakeSlate(candidates, scores, kExposeK);
    tracer->End(s);

    s = tracer->Begin("net.encode_response", root, id);
    net::RpcResponse response;
    response.sequence = rpc.sequence;
    response.replica = static_cast<uint32_t>(replica);
    response.slate = std::move(slate);
    std::vector<uint8_t> frame = net::EncodeResponseFrame(response);
    tracer->End(s);
    tracer->End(root);
    BASM_CHECK(!frame.empty());
  }
  return ThreadCpuSeconds() - cpu0;
}

/// Microseconds per candidate row of each model's forward over `batches`:
/// the models take turns for kForwardRounds rounds after one warm-up round,
/// and each keeps its fastest round, so a burst of host steal or a
/// neighbour's cache pressure in one round does not skew the deltas
/// between models.
std::vector<double> ForwardUsPerRow(const std::vector<models::CtrModel*>& models,
                                    const std::vector<data::Batch>& batches) {
  autograd::NoGradGuard no_grad;
  ArenaScope arena;
  int64_t rows = 0;
  for (const data::Batch& b : batches) rows += b.size;
  std::vector<double> best(models.size(), INFINITY);
  for (int round = 0; round <= kForwardRounds; ++round) {
    for (size_t m = 0; m < models.size(); ++m) {
      const int64_t t0 = NowNanos();
      for (const data::Batch& b : batches) {
        std::vector<float> scores = models[m]->PredictProbs(b);
        BASM_CHECK_EQ(static_cast<int64_t>(scores.size()), b.size);
      }
      const double us_per_row =
          static_cast<double>(NowNanos() - t0) / 1e3 / static_cast<double>(rows);
      if (round > 0) best[m] = std::min(best[m], us_per_row);
    }
  }
  return best;
}

void WriteTrace(const std::string& path, const Workload& workload,
                const std::vector<Span>& spans,
                const std::vector<int64_t>& self) {
  std::ofstream out(path);
  out << "{\"workload\": \"" << workload.name << "\", \"spans\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "" : ",\n") << "{\"id\": " << i << ", \"name\": \""
        << s.name << "\", \"request_id\": " << s.request_id
        << ", \"parent\": " << s.parent << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"self_ns\": " << self[i] << "}";
  }
  out << "\n]}\n";
}

}  // namespace

ReplayMetrics RunTraceReplay(const data::World& world,
                             const Workload& workload,
                             const std::string& checkpoint,
                             const std::vector<serving::Request>& all_requests,
                             const std::string& trace_path) {
  ReplayMetrics m;
  std::vector<serving::Request> sample(
      all_requests.begin(),
      all_requests.begin() +
          static_cast<std::ptrdiff_t>(std::min(kReplayRequests, all_requests.size())));
  if (sample.empty()) return m;

  feature_store::FeatureServer features(world, world.config().seq_len, 3);
  feature_store::FeatureStore store(&features);
  serving::RecallIndex recall(world);
  std::unique_ptr<models::CtrModel> model =
      core::CreateModel(workload.model, world.schema(), /*seed=*/7);
  Status loaded = nn::LoadParameters(*model, checkpoint);
  BASM_CHECK(loaded.ok()) << loaded.ToString();
  model->SetTraining(false);
  serving::Pipeline pipeline(world, &store, &recall, model.get(), kRecallSize,
                             kExposeK);
  net::Router router(kReplicas, net::RouterConfig{});
  ReplayContext ctx{world, store, pipeline, *model, router, {}};
  for (const serving::Request& r : sample) {
    net::RpcRequest rpc;
    rpc.sequence = static_cast<uint64_t>(r.request_id);
    rpc.request = r;
    rpc.deadline_micros = kDeadlineMicros;
    std::vector<uint8_t> frame = net::EncodeRequestFrame(rpc);
    ctx.payloads.emplace_back(frame.begin() + net::kFrameHeaderBytes,
                              frame.end());
  }

  // Warm caches and the arena, then alternate untraced and traced passes;
  // the overhead is the median over the rounds of each round's traced CPU
  // over its untraced CPU, so a pass the host slowed moves one round only.
  Tracer off(false);
  ReplayPass(ctx, sample, &off);
  std::vector<double> ratios;
  std::unique_ptr<Tracer> traced;
  for (int round = 0; round < kReplayRounds; ++round) {
    Tracer untraced(false);
    const double cpu_off = ReplayPass(ctx, sample, &untraced);
    auto tracer = std::make_unique<Tracer>(true);
    const double cpu_on = ReplayPass(ctx, sample, tracer.get());
    ratios.push_back(cpu_on / cpu_off);
    traced = std::move(tracer);
  }
  m.overhead_pct = (Median(ratios) - 1.0) * 100.0;
  {
    ArenaScope arena;
    m.arena_held_mb =
        static_cast<double>(TensorArena::ThreadLocal().stats().held_bytes) /
        (1024.0 * 1024.0);
  }

  const std::vector<Span>& spans = traced->spans();
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, double> total_ns;
  double request_ns = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) {
      request_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    }
    total_ns[spans[i].name] += static_cast<double>(self[i]);
  }
  const double n = static_cast<double>(sample.size());
  for (const auto& [name, ns] : total_ns) m.layer_us[name] = ns / 1e3 / n;
  m.serial_request_us = request_ns / 1e3 / n;
  WriteTrace(trace_path, workload, spans, self);
  std::fprintf(stderr, "traced replay of %zu requests (%s): self time per "
                       "request, share of %.1f us\n",
               sample.size(), trace_path.c_str(), m.serial_request_us);
  for (const auto& [name, us] : m.layer_us) {
    std::fprintf(stderr, "  %-24s %9.2f us  %5.1f%%\n", name.c_str(), us,
                 100.0 * us / m.serial_request_us);
  }

  // Forward cost per row at 1 and 4 requests per batch, and the module
  // split on BASM workloads.
  std::vector<std::vector<data::Example>> per_request;
  for (size_t i = 0; i < sample.size() && i < 4 * kForwardBatches; ++i) {
    Rng rng = Rng(kEngineSeedBase).Fork(static_cast<uint64_t>(sample[i].request_id));
    per_request.push_back(
        pipeline.BuildExamples(sample[i], pipeline.Recall(sample[i], rng)));
  }
  std::vector<data::Batch> r24;
  std::vector<data::Batch> r96;
  for (size_t i = 0; i < per_request.size(); ++i) {
    std::vector<const data::Example*> ptrs;
    for (const data::Example& e : per_request[i]) ptrs.push_back(&e);
    if (i < kForwardBatches) r24.push_back(data::MakeBatch(ptrs, world.schema()));
    if (i % 4 == 3) {
      std::vector<const data::Example*> four;
      for (size_t j = i - 3; j <= i; ++j) {
        for (const data::Example& e : per_request[j]) four.push_back(&e);
      }
      r96.push_back(data::MakeBatch(four, world.schema()));
    }
  }
  m.forward_us_per_row_r24 = ForwardUsPerRow({model.get()}, r24)[0];
  m.forward_us_per_row_r96 = ForwardUsPerRow({model.get()}, r96)[0];
  if (workload.model == core::ModelKind::kBasm) {
    std::unique_ptr<models::CtrModel> din =
        core::CreateModel(core::ModelKind::kDin, world.schema(), kCheckpointSeed);
    std::vector<std::unique_ptr<core::Basm>> variants;
    for (const core::BasmConfig& config :
         {core::BasmConfig::Full(), core::BasmConfig::WithoutStAEL(),
          core::BasmConfig::WithoutStSTL(), core::BasmConfig::WithoutStABT()}) {
      Rng init(kCheckpointSeed);
      variants.push_back(std::make_unique<core::Basm>(world.schema(), config, init));
    }
    std::vector<models::CtrModel*> timed = {din.get()};
    for (auto& v : variants) timed.push_back(v.get());
    for (models::CtrModel* t : timed) t->SetTraining(false);
    const std::vector<double> us = ForwardUsPerRow(timed, r96);
    m.encoder_attention_us_per_row = us[0];
    m.stael_us_per_row = us[1] - us[2];
    m.ststl_us_per_row = us[1] - us[3];
    m.stabt_us_per_row = us[1] - us[4];
  }
  return m;
}

}  // namespace basm::perfbench
