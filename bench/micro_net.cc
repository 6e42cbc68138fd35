// Networked serving tier bench: the loopback sweeps behind src/net/. A
// closed-loop client fleet (Zipf users, meal-time diurnal hours — the
// paper's serving context) drives the epoll binary-RPC frontend over
// ServingEngine replicas behind the consistent-hash router, and reports
// qps, tail latency, shed and degraded counts into the "net" section of
// BENCH_serving.json. Three sweeps plus one demo:
//
//   1. replica sweep (1/2/4) — cells keyed by replica count alone, so they
//      stay comparable with older bench_diff baselines;
//   2. connection-scaling sweep (64/256/1024 concurrent connections on 4
//      IO loops);
//   3. pipelining-depth sweep (window 1/8/32) — the out-of-order
//      completion payoff at a fixed connection count;
//   4. an overload demo (undersized queues, proactive admission control)
//      showing the tier shedding instead of collapsing.
//
// Intentionally a plain main() (not google-benchmark): each cell is one
// long closed-loop run whose whole latency distribution is the result,
// which benchmark's stat framework would only obscure.

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/env.h"
#include "data/synth.h"
#include "core/model_zoo.h"
#include "net/client.h"
#include "net/epoll_server.h"
#include "net/router.h"
#include "runtime/serving_engine.h"
#include "feature_store/feature_store.h"
#include "feature_store/feature_server.h"
#include "serving/pipeline.h"
#include "serving/recall.h"

namespace {

using namespace basm;

void AppendJsonNumber(std::ostringstream& out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  out << buf;
}

struct CellResult {
  int32_t replicas = 0;
  net::FleetReport fleet;
  net::ServerStats server;
};

/// One sweep cell: boot `num_replicas` engines + router + the frontend on
/// an ephemeral loopback port, run the fleet, tear down.
CellResult RunCell(serving::Pipeline* pipeline, int32_t num_replicas,
                   const runtime::EngineConfig& engine_config,
                   const net::EpollServerConfig& server_config,
                   const net::FleetConfig& fleet_config,
                   const data::World& world) {
  CellResult result;
  result.replicas = num_replicas;

  std::vector<std::unique_ptr<runtime::ServingEngine>> replicas;
  runtime::EngineConfig config = engine_config;
  for (int32_t i = 0; i < num_replicas; ++i) {
    config.seed = 0xBE7C + static_cast<uint64_t>(i);
    replicas.push_back(
        std::make_unique<runtime::ServingEngine>(pipeline, config));
  }
  std::vector<runtime::ServingEngine*> borrowed;
  for (const auto& r : replicas) borrowed.push_back(r.get());

  net::Router router(num_replicas, net::RouterConfig{});
  net::EpollRpcServer server(borrowed, &router, server_config);
  Status started = server.Start();
  if (!started.ok()) {
    std::printf("server start failed: %s\n", started.ToString().c_str());
    return result;
  }

  net::ClientFleet fleet(world, fleet_config);
  StatusOr<net::FleetReport> report = fleet.Run("127.0.0.1", server.port());
  if (report.ok()) result.fleet = report.value();
  result.server = server.stats().core;
  server.Stop();
  for (auto& r : replicas) r->Shutdown();
  return result;
}

/// Appends the shared metric tail of one "net" JSON cell.
void AppendCellMetrics(std::ostringstream& out, const CellResult& cell) {
  out << ",\"qps\":";
  AppendJsonNumber(out, cell.fleet.qps);
  out << ",\"p50_micros\":";
  AppendJsonNumber(out, cell.fleet.p50_micros);
  out << ",\"p99_micros\":";
  AppendJsonNumber(out, cell.fleet.p99_micros);
  out << ",\"ok\":" << cell.fleet.ok << ",\"shed\":" << cell.fleet.shed
      << ",\"degraded\":" << cell.fleet.degraded
      << ",\"rehomed_users\":" << cell.fleet.rehomed_users
      << ",\"clients_served\":" << cell.fleet.clients_served << "}";
}

}  // namespace

int main() {
  data::SynthConfig config = data::SynthConfig::Eleme();
  config.num_users = 2000;
  config.num_items = 1500;
  config.num_cities = 8;
  data::World world(config);

  feature_store::FeatureServer features(world, world.config().seq_len, 3);
  feature_store::FeatureStore store(&features);
  serving::RecallIndex recall(world);
  auto model =
      core::CreateModel(core::ModelKind::kBasm, world.schema(), 42);
  model->SetTraining(false);
  serving::Pipeline pipeline(world, &store, &recall, model.get(),
                             /*recall_size=*/24, /*expose_k=*/8);

  const bool fast = basm::FastMode();
  net::FleetConfig fleet;
  fleet.num_requests =
      basm::EnvInt("BASM_NET_REQUESTS", fast ? 300 : 3000);
  fleet.num_clients = static_cast<int32_t>(basm::EnvInt("BASM_NET_CLIENTS", 16));

  runtime::EngineConfig engine_config;
  engine_config.num_workers = 2;
  engine_config.max_batch_requests = 4;
  engine_config.max_wait_micros = 200;

  std::printf("networked tier sweep: %lld requests/run, %d clients, "
              "model %s, hardware threads %u\n\n",
              static_cast<long long>(fleet.num_requests), fleet.num_clients,
              model->name().c_str(), std::thread::hardware_concurrency());

  std::ostringstream net_json;
  net_json << "[";
  bool first = true;

  // --- 1. replica sweep (baseline-compatible keys) ------------------------
  for (int32_t num_replicas : {1, 2, 4}) {
    CellResult cell = RunCell(&pipeline, num_replicas, engine_config,
                              net::EpollServerConfig{}, fleet, world);
    std::printf("replicas=%d\n%s%s\n", num_replicas,
                cell.fleet.ToString().c_str(),
                cell.server.ToString().c_str());
    if (!first) net_json << ",";
    first = false;
    net_json << "\n    {\"replicas\":" << num_replicas << ",\"qps\":";
    AppendJsonNumber(net_json, cell.fleet.qps);
    net_json << ",\"p50_micros\":";
    AppendJsonNumber(net_json, cell.fleet.p50_micros);
    net_json << ",\"p99_micros\":";
    AppendJsonNumber(net_json, cell.fleet.p99_micros);
    net_json << ",\"ok\":" << cell.fleet.ok
             << ",\"shed\":" << cell.fleet.shed
             << ",\"degraded\":" << cell.fleet.degraded
             << ",\"rehomed_users\":" << cell.fleet.rehomed_users << "}";
  }

  // --- 2. connection-scaling sweep ---------------------------------------
  // The offered connection count grows while 4 loop threads serve it.
  // `clients_served` (connections driven to completion) and p99 show
  // whether surplus connections starve or are served.
  const std::vector<int32_t> connection_sweep =
      fast ? std::vector<int32_t>{16, 64}
           : std::vector<int32_t>{64, 256, 1024};
  for (int32_t connections : connection_sweep) {
    net::FleetConfig scaling = fleet;
    scaling.num_clients = connections;
    scaling.num_requests = static_cast<int64_t>(connections) * 16;
    // A starved connection gives up quickly instead of padding the run:
    // abandoned clients are exactly what the cell is measuring.
    scaling.receive_timeout_ms = 1000;
    scaling.max_transport_failures = 2;
    net::EpollServerConfig server_config;
    server_config.num_loops = fast ? 2 : 4;
    CellResult cell = RunCell(&pipeline, /*num_replicas=*/2, engine_config,
                              server_config, scaling, world);
    std::printf("connections=%d\n%s%s\n", connections,
                cell.fleet.ToString().c_str(),
                cell.server.ToString().c_str());
    net_json << ",\n    {\"frontend\":\"epoll\",\"connections\":"
             << connections;
    AppendCellMetrics(net_json, cell);
  }

  // --- 3. pipelining-depth sweep ------------------------------------------
  // Few connections, growing per-connection windows: depth N keeps N frames
  // in flight per connection and demuxes out-of-order completions by
  // sequence number. With only 8 connections, window 1 cannot fill the
  // engine's batches — depth recovers the concurrency a small fleet lacks,
  // which is the point of pipelining (and the acceptance bar: window 8 must
  // out-qps window 1). At 32 the engine, not the wire, is the limit.
  const int32_t pipeline_connections = fast ? 4 : 8;
  for (int32_t window : {1, 8, 32}) {
    net::FleetConfig pipelined = fleet;
    pipelined.num_clients = pipeline_connections;
    pipelined.num_requests = static_cast<int64_t>(pipeline_connections) *
                             (fast ? 50 : 200);
    pipelined.pipeline_window = window;
    net::EpollServerConfig server_config;
    server_config.num_loops = fast ? 2 : 4;
    CellResult cell = RunCell(&pipeline, /*num_replicas=*/2, engine_config,
                              server_config, pipelined, world);
    std::printf("pipelining window=%d (%d connections)\n%s%s\n",
                window, pipeline_connections, cell.fleet.ToString().c_str(),
                cell.server.ToString().c_str());
    net_json << ",\n    {\"frontend\":\"epoll\",\"connections\":"
             << pipeline_connections << ",\"window\":" << window;
    AppendCellMetrics(net_json, cell);
  }
  net_json << "\n  ]";

  const std::string json_path =
      basm::EnvString("BASM_BENCH_JSON", "BENCH_serving.json");
  if (basm::bench::UpdateBenchJsonSection(json_path, "net", net_json.str())) {
    std::printf("wrote \"net\" section of %s\n\n", json_path.c_str());
  } else {
    std::printf("FAILED to write %s\n\n", json_path.c_str());
  }

  // Overload demo: queues sized far below the offered closed-loop demand,
  // plus proactive admission control — the tier sheds with UNAVAILABLE
  // instead of letting the backlog (and thus p99) grow without bound.
  {
    runtime::EngineConfig tiny = engine_config;
    tiny.num_workers = 1;
    tiny.queue_capacity = 4;
    net::EpollServerConfig frontend;
    frontend.shed_queue_fraction = 0.75;
    net::FleetConfig burst = fleet;
    burst.num_requests = std::min<int64_t>(fleet.num_requests, 800);
    burst.num_clients = 32;  // >> queue capacity: overload by construction
    CellResult cell =
        RunCell(&pipeline, /*num_replicas=*/2, tiny, frontend, burst, world);
    std::printf("overload demo (2 replicas, queue 4, 32 clients)\n%s%s\n",
                cell.fleet.ToString().c_str(),
                cell.server.ToString().c_str());
  }
  return 0;
}
