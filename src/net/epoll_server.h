#ifndef BASM_NET_EPOLL_SERVER_H_
#define BASM_NET_EPOLL_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/synchronization.h"
#include "net/event_loop.h"
#include "net/router.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "runtime/serving_engine.h"

namespace basm::net {

struct EpollServerConfig {
  /// 0 binds an ephemeral port; read it back with port() after Start().
  uint16_t port = 0;
  /// IO loop threads. Each connection is assigned to one loop (round-robin
  /// at accept) and all its state lives on that loop's thread — the whole
  /// frontend serves thousands of connections on this many threads.
  int32_t num_loops = 2;
  /// Pipelining cap: decoded request frames of one connection that are in
  /// flight (submitted, response not yet queued) beyond this are shed with
  /// UNAVAILABLE — the transport-level analog of the engine's bounded
  /// queue, keeping one greedy pipelined client from monopolizing the tier.
  int32_t max_in_flight_per_connection = 64;
  /// Backpressure: when a connection's un-flushed response bytes exceed
  /// this, its reads pause (EPOLLIN dropped) until the backlog drains below
  /// half — a slow reader throttles itself, never the IO loop or the other
  /// connections on it.
  size_t max_output_backlog_bytes = 1u << 20;
  /// See FrontendConfig.
  double shed_queue_fraction = 0.9;
  int32_t max_failovers = 2;
  /// Kernel send buffer of accepted sockets (SO_SNDBUF); 0 keeps the OS
  /// default. The backpressure tests shrink it so the output backlog grows
  /// deterministically against a non-reading peer.
  int32_t send_buffer_bytes = 0;
};

/// ServerStats plus the counters only the pipelined frontend has.
struct EpollServerStats {
  ServerStats core;
  /// Frames shed by the per-connection in-flight cap.
  int64_t shed_pipeline = 0;
  /// Times a connection's reads were paused on output backlog.
  int64_t backpressure_pauses = 0;

  std::string ToString() const;
};

/// TCP frontend of the multi-replica serving tier (DESIGN §12, §16): it
/// speaks the length-prefixed binary protocol of net/wire.h in front of N
/// independent ServingEngine replicas behind a consistent-hash Router. A
/// small pool of IO loop threads (EventLoop over epoll) owns all
/// connections; each connection is a lock-free state machine touched only
/// from its loop thread:
///
///   readable -> accumulate -> decode frames -> FrontendCore::SubmitAsync
///     (many frames in flight, per-connection cap)
///   engine completion (scoring worker) -> PostTask to the owning loop ->
///     encode -> output queue -> flush until EAGAIN -> EPOLLOUT to finish
///
/// Responses complete out of order — the wire sequence number is the
/// correlation id, and the pipelined client demuxes on it; a lock-step
/// client (window 1) is simply the degenerate case. Routing, admission
/// shedding, breaker feeding and failover are FrontendCore: queue
/// saturation sheds without the breaker, and a dead replica fails over
/// within the budget. A corrupt frame gets a best-effort error response and
/// closes the connection (framing cannot be trusted after it).
///
/// The engines and router are borrowed and must outlive Stop().
class EpollRpcServer {
 public:
  EpollRpcServer(std::vector<runtime::ServingEngine*> replicas,
                 Router* router, EpollServerConfig config);
  /// Stops and joins (equivalent to Stop()).
  ~EpollRpcServer();

  EpollRpcServer(const EpollRpcServer&) = delete;
  EpollRpcServer& operator=(const EpollRpcServer&) = delete;

  /// Binds the listener (non-blocking, registered on loop 0) and starts
  /// the IO loops. Call once.
  [[nodiscard]] Status Start() BASM_EXCLUDES(lifecycle_mu_);

  /// Stops accepting, waits for in-flight engine submissions to complete,
  /// stops the loops, closes every connection. Idempotent.
  void Stop() BASM_EXCLUDES(lifecycle_mu_);

  /// Bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }

  EpollServerStats stats() const;

  const EpollServerConfig& config() const { return config_; }

 private:
  struct Connection;  // per-connection state machine (loop-thread-owned)
  struct LoopShard;   // one EventLoop plus the connections it owns

  /// Listener readiness on loop 0: drain TryAccept, assign round-robin.
  void AcceptReady();
  /// Runs on the owning loop's thread; registers the connection for reads.
  void RegisterConnection(LoopShard* shard,
                          std::shared_ptr<TcpConnection> accepted);
  void HandleEvents(LoopShard* shard, const std::shared_ptr<Connection>& c,
                    uint32_t events);
  void HandleReadable(LoopShard* shard, const std::shared_ptr<Connection>& c);
  /// Parses every complete frame in the input buffer; submits or sheds.
  void DrainFrames(LoopShard* shard, const std::shared_ptr<Connection>& c);
  /// Encodes `response`, appends it to the output queue, flushes.
  void QueueResponse(LoopShard* shard, Connection* c,
                     const RpcResponse& response);
  /// Writes until the queue empties or the socket would block; arms or
  /// disarms EPOLLOUT and applies read backpressure accordingly.
  void TryFlush(LoopShard* shard, Connection* c);
  void CloseConnection(LoopShard* shard, Connection* c);
  /// Recomputes and applies the epoll interest mask from the connection
  /// state (reads paused? write pending?).
  void UpdateInterest(LoopShard* shard, Connection* c);
  /// Engine-completion trampoline: may run on any thread; hands the
  /// response to the connection's loop and releases the in-flight slot.
  void OnComplete(LoopShard* shard, std::weak_ptr<Connection> weak,
                  RpcResponse response);

  void IncrementPending() BASM_EXCLUDES(pending_mu_);
  void DecrementPending() BASM_EXCLUDES(pending_mu_);

  FrontendCore core_;
  const EpollServerConfig config_;

  TcpListener listener_;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<LoopShard>> shards_;
  /// Round-robin accept cursor; loop-0 thread only (the accept handler).
  size_t next_shard_ = 0;

  Mutex lifecycle_mu_;
  bool started_ BASM_GUARDED_BY(lifecycle_mu_) = false;
  bool stopped_ BASM_GUARDED_BY(lifecycle_mu_) = false;
  /// Drain flag: accepts stop and newly decoded frames are dropped instead
  /// of submitted, so the pending count can only fall during Stop().
  std::atomic<bool> stop_{false};

  /// Engine submissions whose completion callback has not yet run; Stop
  /// waits for zero so no callback can outlive the server.
  Mutex pending_mu_;
  CondVar pending_zero_;
  int64_t pending_ BASM_GUARDED_BY(pending_mu_) = 0;

  std::atomic<int64_t> connections_accepted_{0};
  std::atomic<int64_t> frames_received_{0};
  std::atomic<int64_t> responses_sent_{0};
  std::atomic<int64_t> decode_errors_{0};
  std::atomic<int64_t> shed_pipeline_{0};
  std::atomic<int64_t> backpressure_pauses_{0};
};

}  // namespace basm::net

#endif  // BASM_NET_EPOLL_SERVER_H_
