// Networked serving walk-through: the Fig 13 deployment stretched over a
// wire. Three ServingEngine replicas stand behind the epoll TCP frontend
// speaking the length-prefixed binary protocol of net/wire.h, a
// consistent-hash router pins every user to a home replica, and a
// closed-loop client fleet (Zipf users, meal-time diurnal hours) drives it
// over loopback — first lock-step, then pipelining 8 requests per
// connection with out-of-order completion. Then the failure drill: kill one
// replica mid-traffic and watch its breaker trip, its users re-home to
// survivors, and everyone else keep their pins. An overload phase shows
// admission control shedding instead of queueing without bound.
//
// Honors BASM_FAST=1 (CI smoke): smaller world, fewer requests.

#include <cstdio>
#include <memory>
#include <vector>

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

using namespace basm;

int main() {
  const bool fast = basm::FastMode();
  data::SynthConfig config = data::SynthConfig::Eleme();
  config.num_users = fast ? 300 : 1000;
  config.num_items = fast ? 250 : 800;
  config.num_cities = 4;
  data::World world(config);

  feature_store::FeatureServer features(world, world.config().seq_len, 7);
  feature_store::FeatureStore store(&features);
  serving::RecallIndex recall(world);
  auto model =
      core::CreateModel(core::ModelKind::kBasm, world.schema(), 21);
  model->SetTraining(false);
  serving::Pipeline pipeline(world, &store, &recall, model.get(),
                             /*recall_size=*/20, /*expose_k=*/5);

  // Three independent replicas of the same pipeline, one bounded queue each.
  runtime::EngineConfig ec;
  ec.num_workers = 2;
  ec.max_batch_requests = 4;
  ec.max_wait_micros = 200;
  std::vector<std::unique_ptr<runtime::ServingEngine>> replicas;
  for (int i = 0; i < 3; ++i) {
    ec.seed = 0xD1A1 + static_cast<uint64_t>(i);
    replicas.push_back(std::make_unique<runtime::ServingEngine>(&pipeline, ec));
  }
  std::vector<runtime::ServingEngine*> borrowed;
  for (const auto& r : replicas) borrowed.push_back(r.get());

  // Breaker: three consecutive dead-replica submits trip it out of the ring.
  net::RouterConfig rc;
  rc.breaker.failure_threshold = 3;
  rc.breaker.open_micros = 60ll * 1000 * 1000;
  net::Router router(3, rc);

  net::EpollRpcServer server(borrowed, &router, net::EpollServerConfig{});
  if (Status s = server.Start(); !s.ok()) {
    std::printf("server start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("frontend up on 127.0.0.1:%u, 3 replicas\n\n", server.port());

  net::FleetConfig fc;
  fc.num_clients = 8;
  fc.num_requests = fast ? 200 : 1200;
  net::ClientFleet fleet(world, fc);

  // 1) Healthy baseline: every request OK, users pinned to home replicas.
  //    The same tier then serves a pipelined fleet (window of 8 requests in
  //    flight per connection, responses completed out of order and demuxed
  //    by wire sequence number) — same routing, breaker, and shed semantics.
  std::printf("== phase 1: healthy baseline, lock-step then pipelined ==\n");
  StatusOr<net::FleetReport> baseline = fleet.Run("127.0.0.1", server.port());
  if (!baseline.ok()) {
    std::printf("fleet failed: %s\n", baseline.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", baseline.value().ToString().c_str());
  net::FleetConfig piped = fc;
  piped.num_requests = fast ? 320 : 1600;
  piped.pipeline_window = 8;
  net::ClientFleet piped_fleet(world, piped);
  StatusOr<net::FleetReport> piped_report =
      piped_fleet.Run("127.0.0.1", server.port());
  if (!piped_report.ok()) {
    std::printf("pipelined fleet failed: %s\n",
                piped_report.status().ToString().c_str());
    return 1;
  }
  std::printf("pipelined (window 8):\n%s\n",
              piped_report.value().ToString().c_str());

  // 2) Kill replica 1. Its next requests fail as dead-replica submits, the
  //    breaker trips it out of the ring, and only its arc of users re-homes
  //    to the survivors — the consistent-hash failover contract.
  std::printf("== phase 2: replica 1 killed mid-traffic ==\n");
  replicas[1]->Shutdown();
  StatusOr<net::FleetReport> failover = fleet.Run("127.0.0.1", server.port());
  if (failover.ok()) {
    std::printf("%s", failover.value().ToString().c_str());
    std::printf("replica 1 breaker: opens %lld, short-circuits %lld\n\n",
                static_cast<long long>(router.BreakerStats(1).opens),
                static_cast<long long>(router.BreakerStats(1).short_circuits));
  }

  // 3) Administrative recovery: mark the replica down explicitly (it is
  //    gone for good in this process), and show the surviving pair carrying
  //    the full load with stable pins.
  std::printf("== phase 3: steady state on survivors ==\n");
  router.MarkDown(1);
  StatusOr<net::FleetReport> steady = fleet.Run("127.0.0.1", server.port());
  if (steady.ok()) std::printf("%s\n", steady.value().ToString().c_str());

  std::printf("server counters:\n%s\n", server.stats().ToString().c_str());
  server.Stop();

  // 4) Overload: fresh tier with tiny queues and proactive admission
  //    control; a 24-client closed loop over 2 replicas sheds the excess
  //    with UNAVAILABLE instead of letting the backlog grow without bound.
  std::printf("== phase 4: overload sheds, never collapses ==\n");
  runtime::EngineConfig tiny = ec;
  tiny.num_workers = 1;
  tiny.queue_capacity = 4;
  std::vector<std::unique_ptr<runtime::ServingEngine>> small;
  for (int i = 0; i < 2; ++i) {
    tiny.seed = 0xF00D + static_cast<uint64_t>(i);
    small.push_back(std::make_unique<runtime::ServingEngine>(&pipeline, tiny));
  }
  std::vector<runtime::ServingEngine*> small_borrowed;
  for (const auto& r : small) small_borrowed.push_back(r.get());
  net::Router small_router(2, net::RouterConfig{});
  net::EpollServerConfig overload_config;
  overload_config.shed_queue_fraction = 0.75;
  net::EpollRpcServer overload(small_borrowed, &small_router,
                               overload_config);
  if (Status s = overload.Start(); !s.ok()) {
    std::printf("server start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  net::FleetConfig burst = fc;
  burst.num_clients = 24;
  burst.num_requests = fast ? 200 : 600;
  net::ClientFleet storm(world, burst);
  StatusOr<net::FleetReport> shed = storm.Run("127.0.0.1", overload.port());
  if (shed.ok()) std::printf("%s", shed.value().ToString().c_str());
  overload.Stop();
  return 0;
}
