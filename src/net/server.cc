#include "net/server.h"

#include <cstdio>
#include <utility>

#include "common/logging.h"

namespace basm::net {

FrontendCore::FrontendCore(std::vector<runtime::ServingEngine*> replicas,
                           Router* router, FrontendConfig config)
    : replicas_(std::move(replicas)), router_(router), config_(config) {
  BASM_CHECK(!replicas_.empty());
  BASM_CHECK(router_ != nullptr);
  BASM_CHECK_EQ(router_->num_replicas(),
                static_cast<int32_t>(replicas_.size()));
  BASM_CHECK_GE(config_.max_failovers, 0);
  for (runtime::ServingEngine* engine : replicas_) {
    BASM_CHECK(engine != nullptr);
  }
  per_replica_.reserve(replicas_.size());
  for (size_t i = 0; i < replicas_.size(); ++i) {
    per_replica_.push_back(std::make_unique<PerReplica>());
  }
}

void FrontendCore::SubmitAsync(const RpcRequest& request,
                               ResponseCallback done) {
  // One heap copy shared across failover attempts: a retry re-reads the
  // request from whichever thread observed the dead replica.
  Dispatch(std::make_shared<const RpcRequest>(request), config_.max_failovers,
           std::move(done));
}

void FrontendCore::Dispatch(std::shared_ptr<const RpcRequest> request,
                            int32_t failovers_left, ResponseCallback done) {
  RpcResponse response;
  response.sequence = request->sequence;
  response.replica = kNoReplica;

  StatusOr<int32_t> routed = router_->Route(request->request.user_id);
  if (!routed.ok()) {
    unroutable_.fetch_add(1, std::memory_order_relaxed);
    response.code = StatusCode::kUnavailable;
    response.message = routed.status().message();
    done(std::move(response));
    return;
  }
  const int32_t r = routed.value();
  runtime::ServingEngine* engine = replicas_[r];
  response.replica = static_cast<uint32_t>(r);

  // Admission control: shed while the replica's backlog is saturated
  // instead of letting the request join a queue it will time out in.
  // Deliberately no breaker report — overload is backpressure, not
  // death, and must not re-home the user's shard.
  const double capacity = static_cast<double>(engine->queue_capacity());
  if (config_.shed_queue_fraction < 1.0 &&
      static_cast<double>(engine->QueueDepth()) >=
          config_.shed_queue_fraction * capacity) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    response.code = StatusCode::kUnavailable;
    response.message = "replica " + std::to_string(r) + " saturated";
    done(std::move(response));
    return;
  }

  // The wire's deadline 0 means "the replica's default"; the engine itself
  // treats every deadline as a budget from enqueue, so 0 there is expired.
  const int64_t deadline_micros =
      request->deadline_micros > 0 ? request->deadline_micros
                                   : engine->config().default_deadline_micros;
  engine->SubmitWithCallback(
      request->request, request->candidates, deadline_micros,
      [this, request, r, failovers_left,
       done = std::move(done)](runtime::SlateResult result) mutable {
        RpcResponse response;
        response.sequence = request->sequence;
        response.replica = static_cast<uint32_t>(r);

        if (result.status.ok()) {
          router_->ReportSuccess(r);
          per_replica_[r]->ok.fetch_add(1, std::memory_order_relaxed);
          response.code = StatusCode::kOk;
          response.model_version = result.model_version;
          response.degraded = result.degraded;
          response.slate = std::move(result.slate);
          done(std::move(response));
          return;
        }

        if (result.status.code() == StatusCode::kCancelled) {
          // The engine is shut down — this replica is dead. Feed its
          // breaker (consecutive failures open it, removing the replica
          // from the ring walk) and transparently fail the request over to
          // a survivor. A dead engine rejects inline on the submitting
          // thread, so the retry recursion is bounded by the budget.
          router_->ReportFailure(r);
          per_replica_[r]->failed.fetch_add(1, std::memory_order_relaxed);
          if (failovers_left > 0) {
            failover_retries_.fetch_add(1, std::memory_order_relaxed);
            Dispatch(std::move(request), failovers_left - 1, std::move(done));
            return;
          }
        } else if (result.status.code() == StatusCode::kUnavailable) {
          // Queue-full reject from a live replica: counted as shed, breaker
          // untouched (same reasoning as the admission check above).
          shed_.fetch_add(1, std::memory_order_relaxed);
        } else {
          // Deadline-exceeded and other per-request failures: the replica
          // answered, so it is alive; report nothing to the breaker.
          per_replica_[r]->failed.fetch_add(1, std::memory_order_relaxed);
        }
        response.code = result.status.code();
        response.message = result.status.message();
        done(std::move(response));
      });
}

void FrontendCore::FillStats(ServerStats* stats) const {
  stats->shed = shed_.load(std::memory_order_relaxed);
  stats->unroutable = unroutable_.load(std::memory_order_relaxed);
  stats->failover_retries = failover_retries_.load(std::memory_order_relaxed);
  stats->per_replica_ok.reserve(per_replica_.size());
  stats->per_replica_failed.reserve(per_replica_.size());
  for (const auto& pr : per_replica_) {
    stats->per_replica_ok.push_back(pr->ok.load(std::memory_order_relaxed));
    stats->per_replica_failed.push_back(
        pr->failed.load(std::memory_order_relaxed));
  }
}

std::string ServerStats::ToString() const {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line),
                "connections %lld  frames %lld  responses %lld  "
                "decode errors %lld\n",
                static_cast<long long>(connections_accepted),
                static_cast<long long>(frames_received),
                static_cast<long long>(responses_sent),
                static_cast<long long>(decode_errors));
  out += line;
  std::snprintf(line, sizeof(line),
                "shed %lld  unroutable %lld  failover retries %lld\n",
                static_cast<long long>(shed),
                static_cast<long long>(unroutable),
                static_cast<long long>(failover_retries));
  out += line;
  for (size_t r = 0; r < per_replica_ok.size(); ++r) {
    std::snprintf(line, sizeof(line), "replica %zu: ok %lld  failed %lld\n",
                  r, static_cast<long long>(per_replica_ok[r]),
                  static_cast<long long>(per_replica_failed[r]));
    out += line;
  }
  return out;
}

}  // namespace basm::net
