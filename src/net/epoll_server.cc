#include "net/epoll_server.h"

#include <sys/epoll.h>

#include <cstdio>
#include <deque>
#include <map>
#include <utility>

#include "common/logging.h"

namespace basm::net {

namespace {

/// Read granularity of the input state machine. Also the fairness unit: one
/// readiness event reads at most kReadBurst of these before yielding the
/// loop to other connections (level-triggered epoll re-reports the rest).
constexpr size_t kReadChunkBytes = 16 * 1024;
constexpr int kReadBurst = 4;

}  // namespace

/// Per-connection state machine. Owned by exactly one LoopShard and only
/// ever touched from that shard's loop thread — no locks anywhere in here.
struct EpollRpcServer::Connection {
  TcpConnection conn;
  /// Cached: survives conn being closed, for the shard-map erase.
  int fd = -1;

  /// Read side: accumulated unparsed bytes (at most one partial frame plus
  /// whatever arrived in the last chunk; bounded by kMaxPayloadBytes).
  std::vector<uint8_t> inbuf;

  /// Write side: encoded response frames not yet fully accepted by the
  /// kernel. `out_offset` is the written prefix of the front frame.
  std::deque<std::vector<uint8_t>> outq;
  size_t out_offset = 0;
  size_t outbuf_bytes = 0;

  /// Decoded frames submitted to the core whose response has not yet been
  /// queued — the pipelining depth of this connection.
  int32_t in_flight = 0;

  bool reads_paused = false;      // output backlog above the cap
  bool want_write = false;        // EPOLLOUT armed (unflushed output)
  bool close_after_flush = false; // corrupt frame: close once the error is out
  bool peer_eof = false;          // peer closed its write side
  bool closed = false;
};

/// One IO loop plus the connections it owns. The map is loop-thread-only.
struct EpollRpcServer::LoopShard {
  EventLoop loop;
  std::map<int, std::shared_ptr<Connection>> connections;
};

EpollRpcServer::EpollRpcServer(std::vector<runtime::ServingEngine*> replicas,
                               Router* router, EpollServerConfig config)
    : core_(std::move(replicas), router,
            FrontendConfig{config.shed_queue_fraction, config.max_failovers}),
      config_(config) {
  BASM_CHECK_GT(config_.num_loops, 0);
  BASM_CHECK_GT(config_.max_in_flight_per_connection, 0);
  BASM_CHECK_GT(config_.max_output_backlog_bytes, 0u);
}

EpollRpcServer::~EpollRpcServer() { Stop(); }

Status EpollRpcServer::Start() {
  MutexLock lock(&lifecycle_mu_);
  BASM_CHECK(!started_) << "EpollRpcServer started twice";
  StatusOr<TcpListener> listener = TcpListener::Bind(config_.port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  BASM_RETURN_IF_ERROR(listener_.SetNonBlocking(true));
  port_ = listener_.port();

  shards_.reserve(config_.num_loops);
  for (int32_t i = 0; i < config_.num_loops; ++i) {
    shards_.push_back(std::make_unique<LoopShard>());
    // Loop startup/teardown under the lifecycle lock: the poll-bounded
    // join hierarchy of DESIGN §10, held so concurrent Start/Stop stay
    // idempotent.
    Status started = shards_.back()->loop.Start();  // basm-analyze: allow(blocking-under-lock)
    if (!started.ok()) {
      for (auto& shard : shards_) {
        shard->loop.Stop();  // basm-analyze: allow(blocking-under-lock)
      }
      shards_.clear();
      return started;
    }
  }
  // Registration is loop-thread-only; hand the listener to loop 0.
  LoopShard* shard0 = shards_[0].get();
  shard0->loop.PostTask([this, shard0] {  // basm-analyze: allow(blocking-under-lock)
    Status added = shard0->loop.AddFd(listener_.fd(), EPOLLIN,
                                      [this](uint32_t) { AcceptReady(); });
    if (!added.ok()) {
      BASM_LOG(Warning) << "listener registration failed: "
                        << added.ToString();
    }
  });
  started_ = true;
  return Status::Ok();
}

void EpollRpcServer::Stop() {
  MutexLock lock(&lifecycle_mu_);
  if (!started_ || stopped_) return;
  stop_.store(true, std::memory_order_relaxed);
  // Every submitted request resolves (the engines answer, shed, or reject
  // on shutdown — all deadline-bounded), and with stop_ set no new ones
  // are submitted, so pending_ can only fall. Waiting here guarantees no
  // engine completion callback can touch the server after this point.
  {
    MutexLock pending_lock(&pending_mu_);
    while (pending_ > 0) {
      pending_zero_.Wait(pending_mu_);  // basm-analyze: allow(blocking-under-lock)
    }
  }
  // Each loop drains its posted completions before exiting, then the
  // connection maps (and their sockets) are torn down loop-free.
  for (auto& shard : shards_) {
    shard->loop.Stop();  // basm-analyze: allow(blocking-under-lock)
  }
  for (auto& shard : shards_) shard->connections.clear();
  stopped_ = true;
}

void EpollRpcServer::AcceptReady() {
  while (!stop_.load(std::memory_order_relaxed)) {
    TcpConnection accepted;
    StatusOr<bool> got = listener_.TryAccept(&accepted);
    if (!got.ok()) {
      BASM_LOG(Warning) << "accept failed: " << got.status().ToString();
      return;
    }
    if (!got.value()) return;  // backlog drained
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    LoopShard* shard = shards_[next_shard_ % shards_.size()].get();
    ++next_shard_;
    // shared_ptr because std::function requires a copyable closure.
    auto holder = std::make_shared<TcpConnection>(std::move(accepted));
    if (shard->loop.InLoopThread()) {
      RegisterConnection(shard, std::move(holder));
    } else {
      shard->loop.PostTask(
          [this, shard, holder] { RegisterConnection(shard, holder); });
    }
  }
}

void EpollRpcServer::RegisterConnection(
    LoopShard* shard, std::shared_ptr<TcpConnection> accepted) {
  auto c = std::make_shared<Connection>();
  c->conn = std::move(*accepted);
  c->fd = c->conn.fd();
  if (config_.send_buffer_bytes > 0) {
    (void)c->conn.SetSendBufferBytes(config_.send_buffer_bytes);
  }
  shard->connections[c->fd] = c;
  Status added = shard->loop.AddFd(
      c->fd, EPOLLIN,
      [this, shard, c](uint32_t events) { HandleEvents(shard, c, events); });
  if (!added.ok()) {
    BASM_LOG(Warning) << "connection registration failed: "
                      << added.ToString();
    shard->connections.erase(c->fd);  // destructor closes the socket
  }
}

void EpollRpcServer::HandleEvents(LoopShard* shard,
                                  const std::shared_ptr<Connection>& c,
                                  uint32_t events) {
  if (c->closed) return;
  if (events & (EPOLLHUP | EPOLLERR)) {
    CloseConnection(shard, c.get());
    return;
  }
  if (events & EPOLLOUT) {
    TryFlush(shard, c.get());
    if (c->closed) return;
  }
  if ((events & EPOLLIN) && !c->reads_paused && !c->close_after_flush &&
      !c->peer_eof) {
    HandleReadable(shard, c);
  }
}

void EpollRpcServer::HandleReadable(LoopShard* shard,
                                    const std::shared_ptr<Connection>& c) {
  uint8_t buf[kReadChunkBytes];
  for (int i = 0; i < kReadBurst; ++i) {
    StatusOr<IoChunk> got = c->conn.ReadChunk(buf, sizeof(buf));
    if (!got.ok()) {
      CloseConnection(shard, c.get());
      return;
    }
    const IoChunk chunk = got.value();
    if (chunk.bytes > 0) {
      c->inbuf.insert(c->inbuf.end(), buf, buf + chunk.bytes);
    }
    if (chunk.eof) {
      c->peer_eof = true;
      break;
    }
    if (chunk.would_block || chunk.bytes < sizeof(buf)) break;
  }
  DrainFrames(shard, c);
  if (c->closed) return;
  if (c->peer_eof) {
    if (c->in_flight == 0 && c->outq.empty()) {
      CloseConnection(shard, c.get());
      return;
    }
    // Still flushing / still scoring: stop watching reads, close when the
    // last response drains (TryFlush / OnComplete check peer_eof).
    UpdateInterest(shard, c.get());
  }
}

void EpollRpcServer::DrainFrames(LoopShard* shard,
                                 const std::shared_ptr<Connection>& c) {
  size_t pos = 0;
  while (!c->closed) {
    const size_t avail = c->inbuf.size() - pos;
    if (avail < kFrameHeaderBytes) break;

    FrameHeader header;
    Status frame_ok = DecodeFrameHeader(c->inbuf.data() + pos, avail, &header);
    RpcRequest request;
    if (frame_ok.ok() && header.type != FrameType::kRequest) {
      frame_ok = Status::InvalidArgument("expected a request frame");
    }
    if (frame_ok.ok()) {
      // Partial frame: wait for more bytes. DecodeFrameHeader already
      // rejected payload sizes above kMaxPayloadBytes, so this bounds the
      // buffer no matter what the length field claims.
      if (avail < kFrameHeaderBytes + header.payload_size) break;
      const uint8_t* payload = c->inbuf.data() + pos + kFrameHeaderBytes;
      frames_received_.fetch_add(1, std::memory_order_relaxed);
      frame_ok = VerifyPayload(header, payload, header.payload_size);
      if (frame_ok.ok()) {
        frame_ok = DecodeRequestPayload(payload, header.payload_size,
                                        &request);
      }
    }

    if (!frame_ok.ok()) {
      // Malformed frame: best-effort error response (the peer may be a
      // buggy client rather than garbage traffic), then close once it
      // flushes — the byte stream can no longer be trusted to be
      // frame-aligned.
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      RpcResponse error;
      error.sequence = request.sequence;  // 0 unless decode got that far
      error.replica = kNoReplica;
      error.code = frame_ok.code();
      error.message = frame_ok.message();
      c->close_after_flush = true;
      c->inbuf.clear();
      pos = 0;
      QueueResponse(shard, c.get(), error);
      if (!c->closed) UpdateInterest(shard, c.get());
      return;
    }

    pos += kFrameHeaderBytes + header.payload_size;

    if (stop_.load(std::memory_order_relaxed)) continue;  // draining: drop

    if (c->in_flight >= config_.max_in_flight_per_connection) {
      // Pipelining cap: the transport-level shed. The connection stays
      // open — this is backpressure to one greedy client, not corruption.
      shed_pipeline_.fetch_add(1, std::memory_order_relaxed);
      RpcResponse shed;
      shed.sequence = request.sequence;
      shed.replica = kNoReplica;
      shed.code = StatusCode::kUnavailable;
      shed.message = "connection pipeline full";
      QueueResponse(shard, c.get(), shed);
      continue;
    }

    ++c->in_flight;
    IncrementPending();
    std::weak_ptr<Connection> weak = c;
    core_.SubmitAsync(request, [this, shard, weak](RpcResponse response) {
      OnComplete(shard, weak, std::move(response));
    });
  }
  if (c->closed) return;
  if (pos > 0) {
    c->inbuf.erase(c->inbuf.begin(),
                   c->inbuf.begin() + static_cast<ptrdiff_t>(pos));
  }
}

void EpollRpcServer::OnComplete(LoopShard* shard,
                                std::weak_ptr<Connection> weak,
                                RpcResponse response) {
  // Runs on a scoring worker (or inline on the loop thread for shed /
  // unroutable): connection state is loop-owned, so hand the response over.
  shard->loop.PostTask(
      [this, shard, weak = std::move(weak),
       response = std::move(response)]() mutable {
        std::shared_ptr<Connection> c = weak.lock();
        if (!c || c->closed) return;  // connection died while scoring
        --c->in_flight;
        QueueResponse(shard, c.get(), response);
        if (!c->closed && c->peer_eof && c->in_flight == 0 &&
            c->outq.empty()) {
          CloseConnection(shard, c.get());
        }
      });
  DecrementPending();
}

void EpollRpcServer::QueueResponse(LoopShard* shard, Connection* c,
                                   const RpcResponse& response) {
  if (c->closed) return;
  std::vector<uint8_t> frame = EncodeResponseFrame(response);
  c->outbuf_bytes += frame.size();
  c->outq.push_back(std::move(frame));
  TryFlush(shard, c);
  if (c->closed) return;
  if (!c->reads_paused &&
      c->outbuf_bytes > config_.max_output_backlog_bytes) {
    // Slow reader: its socket stopped draining while responses pile up.
    // Pause its reads — the cost of its slowness lands on it alone, never
    // on the loop (which stays non-blocking) or its neighbors.
    c->reads_paused = true;
    backpressure_pauses_.fetch_add(1, std::memory_order_relaxed);
    UpdateInterest(shard, c);
  }
}

void EpollRpcServer::TryFlush(LoopShard* shard, Connection* c) {
  if (c->closed) return;
  while (!c->outq.empty()) {
    const std::vector<uint8_t>& front = c->outq.front();
    StatusOr<IoChunk> wrote = c->conn.WriteChunk(
        front.data() + c->out_offset, front.size() - c->out_offset);
    if (!wrote.ok()) {
      CloseConnection(shard, c);
      return;
    }
    const IoChunk chunk = wrote.value();
    c->out_offset += chunk.bytes;
    c->outbuf_bytes -= chunk.bytes;
    if (c->out_offset == front.size()) {
      c->outq.pop_front();
      c->out_offset = 0;
      // The whole frame is in the kernel's hands (TCP_NODELAY pushes it).
      // The count lands just after the write returns, so a client may read
      // the frame a moment before it is counted; after Stop() it covers
      // every response.
      responses_sent_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (chunk.would_block) break;
  }

  const bool drained = c->outq.empty();
  if (drained &&
      (c->close_after_flush || (c->peer_eof && c->in_flight == 0))) {
    CloseConnection(shard, c);
    return;
  }
  bool interest_changed = (c->want_write != !drained);
  c->want_write = !drained;
  if (c->reads_paused &&
      c->outbuf_bytes <= config_.max_output_backlog_bytes / 2) {
    // Hysteresis: resume reads at half the pause threshold so a connection
    // hovering at the cap does not thrash its epoll registration.
    c->reads_paused = false;
    interest_changed = true;
  }
  if (interest_changed) UpdateInterest(shard, c);
}

void EpollRpcServer::UpdateInterest(LoopShard* shard, Connection* c) {
  if (c->closed) return;
  uint32_t events = 0;
  if (!c->reads_paused && !c->close_after_flush && !c->peer_eof) {
    events |= EPOLLIN;
  }
  if (c->want_write) events |= EPOLLOUT;
  Status updated = shard->loop.UpdateFd(c->fd, events);
  if (!updated.ok()) CloseConnection(shard, c);
}

void EpollRpcServer::CloseConnection(LoopShard* shard, Connection* c) {
  if (c->closed) return;
  c->closed = true;
  shard->loop.RemoveFd(c->fd);
  // Callers on every path hold a shared_ptr (the fd handler or the posted
  // completion), so erasing the map entry cannot free `c` mid-call.
  shard->connections.erase(c->fd);
  c->conn = TcpConnection();  // closes the socket
  c->outq.clear();
  c->outbuf_bytes = 0;
  c->inbuf.clear();
}

void EpollRpcServer::IncrementPending() {
  MutexLock lock(&pending_mu_);
  ++pending_;
}

void EpollRpcServer::DecrementPending() {
  MutexLock lock(&pending_mu_);
  if (--pending_ == 0) pending_zero_.SignalAll();
}

EpollServerStats EpollRpcServer::stats() const {
  EpollServerStats s;
  s.core.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.core.frames_received = frames_received_.load(std::memory_order_relaxed);
  s.core.responses_sent = responses_sent_.load(std::memory_order_relaxed);
  s.core.decode_errors = decode_errors_.load(std::memory_order_relaxed);
  core_.FillStats(&s.core);
  s.shed_pipeline = shed_pipeline_.load(std::memory_order_relaxed);
  s.backpressure_pauses =
      backpressure_pauses_.load(std::memory_order_relaxed);
  return s;
}

std::string EpollServerStats::ToString() const {
  std::string out = core.ToString();
  char line[128];
  std::snprintf(line, sizeof(line),
                "pipeline shed %lld  backpressure pauses %lld\n",
                static_cast<long long>(shed_pipeline),
                static_cast<long long>(backpressure_pauses));
  out += line;
  return out;
}

}  // namespace basm::net
