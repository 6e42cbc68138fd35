#ifndef BASM_NET_SERVER_H_
#define BASM_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/router.h"
#include "net/wire.h"
#include "runtime/serving_engine.h"

namespace basm::net {

/// Replica field of a response that never reached any replica.
inline constexpr uint32_t kNoReplica = 0xFFFFFFFFu;

/// Routing/admission knobs of the frontend core.
struct FrontendConfig {
  /// Admission control: a request whose target replica's backlog is at or
  /// above this fraction of its queue capacity is shed with UNAVAILABLE
  /// before submission — the proactive layer on top of the engine's own
  /// reject-on-full. >= 1.0 disables proactive shedding (the engine's
  /// bounded queue still rejects at capacity).
  double shed_queue_fraction = 0.9;
  /// Dead-replica failover budget: a submit that fails because the replica
  /// is gone (CANCELLED) is re-routed (breaker now open or counting) at
  /// most this many extra times before the error goes back to the client.
  int32_t max_failovers = 2;
};

/// Counters of one server since Start() (all monotonic; snapshot is
/// internally consistent only per-counter, like the latency recorder).
struct ServerStats {
  int64_t connections_accepted = 0;
  int64_t frames_received = 0;
  int64_t responses_sent = 0;
  /// Malformed frames (bad magic/version/checksum/bounds): answered with an
  /// error response where possible, and the connection is closed — framing
  /// cannot be trusted after a corrupt frame.
  int64_t decode_errors = 0;
  /// Requests shed by admission control or the replica's full queue.
  int64_t shed = 0;
  /// Requests with no admissible replica (all down / breakers open).
  int64_t unroutable = 0;
  /// Dead-replica submits transparently retried on a survivor.
  int64_t failover_retries = 0;
  std::vector<int64_t> per_replica_ok;
  std::vector<int64_t> per_replica_failed;

  std::string ToString() const;
};

/// The transport-independent core of the serving frontend: route one decoded
/// request (consistent hash + breaker health), admission-shed against the
/// target replica's live queue depth, submit to the engine, and fail dead
/// replicas over — exactly once per request. EpollRpcServer
/// (net/epoll_server.h) owns the sockets and delegates every decoded frame
/// here; the core knows nothing about connections.
///
/// A submit that fails because the replica is dead (engine shut down,
/// CANCELLED) feeds the replica's breaker and fails over to the next ring
/// replica within `max_failovers`; queue-full rejects are shed *without*
/// touching the breaker — overload is not death, and collapsing the two
/// would let a traffic spike evict a healthy replica's shard.
///
/// The engines and router are borrowed and must outlive the core.
class FrontendCore {
 public:
  /// Completion callback: receives the finished response exactly once, on a
  /// scoring worker thread or inline on the submitting thread (shed,
  /// unroutable, or dead-replica reject after the failover budget). Must be
  /// non-blocking: it runs on the engine's scoring workers.
  using ResponseCallback = std::function<void(RpcResponse)>;

  FrontendCore(std::vector<runtime::ServingEngine*> replicas, Router* router,
               FrontendConfig config);

  FrontendCore(const FrontendCore&) = delete;
  FrontendCore& operator=(const FrontendCore&) = delete;

  /// Non-blocking submit: routes, admission-sheds, hands the request to the
  /// replica's engine, and invokes `done` when the slate (or the error) is
  /// ready. Failover re-dispatch happens on whichever thread observed the
  /// dead replica; a dead engine rejects inline, so the recursion depth is
  /// bounded by `max_failovers`.
  void SubmitAsync(const RpcRequest& request, ResponseCallback done);

  /// Adds this core's counters (shed/unroutable/failover/per-replica) into
  /// `stats`; the transport owns the connection/frame counters.
  void FillStats(ServerStats* stats) const;

 private:
  /// One routing attempt with `failovers_left` retries remaining.
  void Dispatch(std::shared_ptr<const RpcRequest> request,
                int32_t failovers_left, ResponseCallback done);

  const std::vector<runtime::ServingEngine*> replicas_;
  Router* router_;
  const FrontendConfig config_;

  struct PerReplica {
    std::atomic<int64_t> ok{0};
    std::atomic<int64_t> failed{0};
  };
  std::vector<std::unique_ptr<PerReplica>> per_replica_;
  std::atomic<int64_t> shed_{0};
  std::atomic<int64_t> unroutable_{0};
  std::atomic<int64_t> failover_retries_{0};
};

}  // namespace basm::net

#endif  // BASM_NET_SERVER_H_
