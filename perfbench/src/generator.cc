// Generator process of the serving benchmark: one thread, an open-loop
// schedule over kConnections pipelined connections (responses demuxed by
// the wire sequence number), driving a server process it spawns itself so
// set-up is timed from process start to the first OK response.
//
// A run: untimed prep (checkpoint, and the click journal on
// click_feedback) -> timed server set-ups -> warm-up -> rate ladder ->
// fixed nominal rate -> fixed overload rate -> more timed set-ups -> output
// checks. The read-only workloads' click probe runs in parts between the
// phases. On click_feedback the ladder runs beside an open-ended click
// stream, and the two fixed-rate phases beside a fixed-count one that
// starts with the nominal phase. Every request is timed from its scheduled
// send time. The last stdout line is the JSON result.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_core.h"
#include "feature_store/feature_server.h"
#include "feature_store/feature_store.h"
#include "net/socket.h"
#include "net/wire.h"
#include "nn/serialize.h"
#include "replay.h"
#include "serving/recall.h"

extern char** environ;

namespace basm::perfbench {

namespace {

namespace fs = std::filesystem;

/// Timed set-ups per run, kSetupsBefore of them before the load.
constexpr int kSetups = 9;
constexpr int kSetupsBefore = 5;
constexpr int64_t kCaptureSample = 256;
/// The read-only workloads' click probe, paced like the click_feedback
/// stream on a journaled store of its own: kClickProbeParts parts of
/// kClickProbePart clicks, one before the ladder, one after it and one after
/// the overload phase, so a host that is busy for a few seconds moves one
/// part. A part is a whole number of kClickChunk.
constexpr int64_t kClickProbePart = 4000;
constexpr int kClickProbeParts = 3;
static_assert(kClickProbePart % kClickChunk == 0);
/// The generator is judged unable to hold its schedule (run invalid) when
/// its median send lateness exceeds this. The median, not the tail: on a
/// virtual machine the host deschedules vCPUs for milliseconds at a time,
/// which shows in the tail of every thread, while a generator that cannot
/// keep up falls behind on most sends.
constexpr double kMaxLateP50Us = 500.0;
constexpr double kLadderCoarse = 1.25;
constexpr double kLadderFine = 1.05;
/// Single-trial steps of the staircase that follows the coarse ladder.
constexpr int kStaircaseSteps = 14;
/// Shares of --seconds: warm-up, one ladder step, the two fixed-rate phases.
constexpr double kWarmupShare = 0.04;
constexpr double kStepShare = 0.03;
constexpr double kNominalShare = 0.2;
constexpr double kOverloadShare = 0.2;
/// Seeded click streams of click_feedback: an open-ended one beside the
/// ladder (stopped when the next starts; its acks are not reported) and the
/// fixed-count one beside the two fixed-rate phases.
constexpr int kLadderClickStream = 1;
constexpr int kLoadClickStream = 2;
/// Every phase is cut into windows of kWindowShare * --seconds (at least
/// kMinWindow requests: a p90 then has 20 samples beyond it), and the host's
/// CPU steal is read at each window boundary. A p99 uses windows grouped to
/// at least kMinP99Window OK responses, so it has ten samples beyond it.
constexpr double kWindowShare = 0.0067;
constexpr int64_t kMinWindow = 200;
constexpr int64_t kMinP99Window = 1000;
/// Minimum windows per ladder step.
constexpr int64_t kStepWindows = 9;

// --- server child process ---------------------------------------------------

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] Status Spawn(const std::vector<std::string>& argv) {
    int to_child[2];
    int from_child[2];
    if (pipe2(to_child, O_CLOEXEC) != 0 || pipe2(from_child, O_CLOEXEC) != 0) {
      return Status::Internal("pipe2 failed");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, to_child[0], 0);
    posix_spawn_file_actions_adddup2(&actions, from_child[1], 1);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    const int rc = posix_spawn(&pid_, argv[0].c_str(), &actions, nullptr,
                               args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(to_child[0]);
    close(from_child[1]);
    to_fd_ = to_child[1];
    from_fd_ = from_child[0];
    if (rc != 0) {
      pid_ = -1;
      return Status::Internal("posix_spawn failed: " + std::to_string(rc));
    }
    return Status::Ok();
  }

  /// Next stdout line of the server, or an error after `timeout_ms`.
  [[nodiscard]] StatusOr<std::string> ReadLine(int timeout_ms) {
    const int64_t give_up = NowNanos() + int64_t{timeout_ms} * 1000000;
    while (true) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      const int64_t left_ms = (give_up - NowNanos()) / 1000000;
      if (left_ms <= 0) return Status::DeadlineExceeded("server line timeout");
      pollfd p{from_fd_, POLLIN, 0};
      const int ready = poll(&p, 1, static_cast<int>(left_ms));
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) continue;
      char chunk[4096];
      const ssize_t n = read(from_fd_, chunk, sizeof(chunk));
      if (n <= 0) return Status::Unavailable("server closed its stdout");
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Sends one command line and returns the reply line.
  [[nodiscard]] StatusOr<std::string> Command(const std::string& cmd,
                                              int timeout_ms = 60000) {
    const std::string line = cmd + "\n";
    if (write(to_fd_, line.data(), line.size()) !=
        static_cast<ssize_t>(line.size())) {
      return Status::Unavailable("server control pipe closed");
    }
    return ReadLine(timeout_ms);
  }

  [[nodiscard]] StatusOr<std::map<std::string, double>> Stats() {
    StatusOr<std::string> line = Command("stats");
    if (!line.ok()) return line.status();
    if (line.value().rfind("STATS", 0) != 0) {
      return Status::Internal("unexpected stats reply: " + line.value());
    }
    return ParseKeyValues(line.value());
  }

  /// Asks the server to stop, returns its final STATS, and reaps it.
  [[nodiscard]] StatusOr<std::map<std::string, double>> Quit() {
    StatusOr<std::string> line = Command("quit", 60000);
    int status = 0;
    if (pid_ > 0) waitpid(pid_, &status, 0);
    pid_ = -1;
    CloseFds();
    if (!line.ok()) return line.status();
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      return Status::Internal("server exited abnormally");
    }
    return ParseKeyValues(line.value());
  }

  void Kill() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      int status = 0;
      waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    CloseFds();
  }

 private:
  void CloseFds() {
    if (to_fd_ >= 0) close(to_fd_);
    if (from_fd_ >= 0) close(from_fd_);
    to_fd_ = from_fd_ = -1;
  }

  pid_t pid_ = -1;
  int to_fd_ = -1;
  int from_fd_ = -1;
  std::string buffer_;
};

// --- open-loop client ----------------------------------------------------

struct Connection {
  net::TcpConnection tcp;
  std::vector<uint8_t> in;
  size_t in_off = 0;
  std::vector<uint8_t> out;
  size_t out_off = 0;
  bool want_write = false;
  /// Last model version seen per replica on this connection (responses of
  /// one connection arrive in completion order).
  std::vector<uint64_t> last_version;
};

struct Captured {
  serving::Request request;
  uint32_t replica = 0;
  std::vector<serving::RankedItem> slate;
};

struct PhaseResult {
  double rate = 0.0;
  double seconds = 0.0;
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t ok_in_deadline = 0;
  int64_t shed = 0;
  int64_t deadline_exceeded = 0;
  int64_t missing = 0;
  int64_t other_errors = 0;
  int64_t check_failures = 0;
  std::vector<double> ok_latency_us;
  /// Every sent request; a non-OK or missing one reads as +infinity.
  std::vector<double> all_latency_us;
  std::vector<double> late_us;
  std::vector<int64_t> backlog;
  /// Samples per tail-percentile window, and the CPU seconds the host stole
  /// from the VM during each window's sends.
  int64_t window = 0;
  std::vector<double> window_steal;
  std::vector<Captured> captured;
  std::map<std::string, double> server_before;
  std::map<std::string, double> server_after;
  /// CPU seconds stolen from the VM by its host during the phase.
  double stolen_s = 0.0;
};

class OpenLoopClient {
 public:
  OpenLoopClient(std::vector<Connection>* conns, int32_t num_items)
      : conns_(conns), num_items_(num_items) {
    epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
    for (size_t c = 0; c < conns_->size(); ++c) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = c;
      epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, (*conns_)[c].tcp.fd(), &ev);
    }
  }
  ~OpenLoopClient() { close(epoll_fd_); }
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  /// Offers `requests` at `rate` req/s, waits for every response (or the
  /// drain timeout), and returns the outcome. Responses to requests whose
  /// id is in `capture` keep their slates.
  PhaseResult Run(const std::vector<serving::Request>& requests, double rate,
                  int64_t window,
                  const std::unordered_map<int32_t, int>* capture) {
    PhaseResult result;
    result.rate = rate;
    result.window = window;
    const int64_t n = static_cast<int64_t>(requests.size());
    result.seconds = static_cast<double>(n) / rate;
    if (n == 0) return result;
    std::vector<uint8_t> frames;
    std::vector<size_t> offsets = {0};
    for (const serving::Request& r : requests) {
      net::RpcRequest rpc;
      rpc.sequence = static_cast<uint64_t>(r.request_id);
      rpc.request = r;
      rpc.deadline_micros = kDeadlineMicros;
      std::vector<uint8_t> f = net::EncodeRequestFrame(rpc);
      frames.insert(frames.end(), f.begin(), f.end());
      offsets.push_back(frames.size());
    }
    base_id_ = requests.front().request_id;
    requests_ = &requests;
    capture_ = capture;
    result_ = &result;
    sched_.assign(n, 0);
    done_.assign(n, -1);
    ok_.assign(n, 0);

    const int64_t start = NowNanos() + 1000000;
    const int64_t send_window_ns = ScheduledSendNanos(start, rate, n) - start;
    constexpr int kBacklogSamples = 8;
    int next_sample = 1;
    int64_t next = 0;
    received_ = 0;
    const int64_t drain_end =
        start + send_window_ns + kDeadlineMicros * 1000 + 1000000000LL;
    result.late_us.reserve(static_cast<size_t>(n));
    double steal_mark = StolenSeconds();
    while (true) {
      int64_t now = NowNanos();
      bool sent_any = false;
      while (next < n && (sched_[next] = ScheduledSendNanos(start, rate, next)) <= now) {
        Connection& c = (*conns_)[static_cast<size_t>(next) % conns_->size()];
        c.out.insert(c.out.end(), frames.begin() + offsets[next],
                     frames.begin() + offsets[next + 1]);
        result.late_us.push_back(static_cast<double>(now - sched_[next]) / 1e3);
        ++next;
        sent_any = true;
        if (next % window == 0 || next == n) {
          const double stolen = StolenSeconds();
          result.window_steal.push_back(stolen - steal_mark);
          steal_mark = stolen;
        }
      }
      if (sent_any) {
        for (size_t c = 0; c < conns_->size(); ++c) Flush(c);
      }
      while (next_sample <= kBacklogSamples &&
             now >= start + send_window_ns * next_sample / kBacklogSamples) {
        result.backlog.push_back(next - received_);
        ++next_sample;
      }
      if (next == n && (received_ == n || now >= drain_end)) break;
      int64_t wait_ns = next < n ? sched_[next] - now
                                 : std::min<int64_t>(drain_end - now, 5000000);
      wait_ns = std::max<int64_t>(wait_ns, 0);
      timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                  static_cast<long>(wait_ns % 1000000000)};
      epoll_event events[8];
      const int ready = epoll_pwait2(epoll_fd_, events, 8, &ts, nullptr);
      for (int e = 0; e < ready; ++e) {
        const size_t c = events[e].data.u64;
        if (events[e].events & EPOLLOUT) Flush(c);
        if (events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) Drain(c);
      }
    }
    result.sent = n;
    result.all_latency_us.reserve(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      if (done_[i] < 0) {
        ++result.missing;
        result.all_latency_us.push_back(INFINITY);
      } else if (!ok_[i]) {
        result.all_latency_us.push_back(INFINITY);
      } else {
        const double us = static_cast<double>(done_[i] - sched_[i]) / 1e3;
        result.all_latency_us.push_back(us);
      }
    }
    result_ = nullptr;
    return result;
  }

  int64_t protocol_errors() const { return protocol_errors_; }

 private:
  void Flush(size_t c) {
    Connection& conn = (*conns_)[c];
    while (conn.out_off < conn.out.size()) {
      StatusOr<net::IoChunk> chunk = conn.tcp.WriteChunk(
          conn.out.data() + conn.out_off, conn.out.size() - conn.out_off);
      if (!chunk.ok()) {
        ++protocol_errors_;
        conn.out.clear();
        conn.out_off = 0;
        break;
      }
      if (chunk.value().would_block) break;
      conn.out_off += chunk.value().bytes;
    }
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    }
    const bool want_write = !conn.out.empty();
    if (want_write != conn.want_write) {
      conn.want_write = want_write;
      epoll_event ev{};
      ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
      ev.data.u64 = c;
      epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.tcp.fd(), &ev);
    }
  }

  void Drain(size_t c) {
    Connection& conn = (*conns_)[c];
    uint8_t buf[65536];
    while (true) {
      StatusOr<net::IoChunk> chunk = conn.tcp.ReadChunk(buf, sizeof(buf));
      if (!chunk.ok() || chunk.value().eof) {
        ++protocol_errors_;
        epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.tcp.fd(), nullptr);
        return;
      }
      if (chunk.value().would_block) break;
      conn.in.insert(conn.in.end(), buf, buf + chunk.value().bytes);
    }
    const int64_t now = NowNanos();
    while (conn.in.size() - conn.in_off >= net::kFrameHeaderBytes) {
      net::FrameHeader header;
      const uint8_t* p = conn.in.data() + conn.in_off;
      const size_t avail = conn.in.size() - conn.in_off;
      if (!net::DecodeFrameHeader(p, avail, &header).ok()) {
        ++protocol_errors_;
        conn.in.clear();
        conn.in_off = 0;
        return;
      }
      if (avail < net::kFrameHeaderBytes + header.payload_size) break;
      const uint8_t* payload = p + net::kFrameHeaderBytes;
      net::RpcResponse response;
      if (!net::VerifyPayload(header, payload, header.payload_size).ok() ||
          !net::DecodeResponsePayload(payload, header.payload_size, &response)
               .ok()) {
        ++protocol_errors_;
      } else {
        OnResponse(conn, response, now);
      }
      conn.in_off += net::kFrameHeaderBytes + header.payload_size;
    }
    if (conn.in_off == conn.in.size()) {
      conn.in.clear();
      conn.in_off = 0;
    }
  }

  void OnResponse(Connection& conn, const net::RpcResponse& r, int64_t now) {
    if (result_ == nullptr) return;
    const int64_t idx = static_cast<int64_t>(r.sequence) - base_id_;
    if (idx < 0) return;  // straggler of an earlier phase
    if (idx >= static_cast<int64_t>(done_.size()) || done_[idx] >= 0) {
      ++protocol_errors_;
      return;
    }
    done_[idx] = now;
    ++received_;
    PhaseResult& res = *result_;
    switch (r.code) {
      case StatusCode::kOk:
        break;
      case StatusCode::kUnavailable:
        ++res.shed;
        return;
      case StatusCode::kDeadlineExceeded:
        ++res.deadline_exceeded;
        return;
      default:
        ++res.other_errors;
        return;
    }
    ok_[idx] = 1;
    ++res.ok;
    const double us = static_cast<double>(now - sched_[idx]) / 1e3;
    res.ok_latency_us.push_back(us);
    if (us <= static_cast<double>(kDeadlineMicros)) ++res.ok_in_deadline;
    if (!SlateWellFormed(r.slate) || r.replica >= kReplicas) {
      ++res.check_failures;
    } else {
      // One replica scores batches in order on its worker and the frontend
      // writes a connection's responses in completion order, so per
      // (replica, connection) the model version may only grow.
      if (conn.last_version.size() < kReplicas) conn.last_version.assign(kReplicas, 0);
      if (r.model_version < conn.last_version[r.replica]) ++res.check_failures;
      conn.last_version[r.replica] = r.model_version;
    }
    if (capture_ != nullptr) {
      const int32_t id = static_cast<int32_t>(r.sequence);
      if (capture_->count(id) > 0) {
        res.captured.push_back({(*requests_)[idx], r.replica, r.slate});
      }
    }
  }

  bool SlateWellFormed(const std::vector<serving::RankedItem>& slate) const {
    if (slate.empty() || slate.size() > static_cast<size_t>(kExposeK)) return false;
    for (size_t i = 0; i < slate.size(); ++i) {
      const serving::RankedItem& it = slate[i];
      if (it.item_id < 0 || it.item_id >= num_items_) return false;
      if (it.position != static_cast<int32_t>(i)) return false;
      if (!(it.score >= 0.0f && it.score <= 1.0f)) return false;
      if (i > 0 && it.score > slate[i - 1].score) return false;
      for (size_t j = 0; j < i; ++j) {
        if (slate[j].item_id == it.item_id) return false;
      }
    }
    return true;
  }

  std::vector<Connection>* conns_;
  const int32_t num_items_;
  int epoll_fd_ = -1;
  int64_t base_id_ = 0;
  const std::vector<serving::Request>* requests_ = nullptr;
  const std::unordered_map<int32_t, int>* capture_ = nullptr;
  PhaseResult* result_ = nullptr;
  std::vector<int64_t> sched_;
  std::vector<int64_t> done_;
  std::vector<uint8_t> ok_;
  int64_t received_ = 0;
  int64_t protocol_errors_ = 0;
};

std::vector<serving::Request> NextRequests(TrafficGenerator* traffic,
                                           int64_t n) {
  std::vector<serving::Request> out;
  out.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) out.push_back(traffic->Next());
  return out;
}

int64_t CountFor(double rate, double seconds) {
  return std::max<int64_t>(1, std::llround(rate * seconds));
}

double Get(const std::map<std::string, double>& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

double Delta(const PhaseResult& p, const std::string& key) {
  return Get(p.server_after, key) - Get(p.server_before, key);
}

/// Ladder step verdict. In the quieter half of the step's windows (by CPU
/// the host stole), the p90 over all sent requests (a non-OK request reads
/// as infinitely late) is within the SLO and >= 99.9% of requests are OK;
/// and the backlog does not grow.
/// Returns nullptr on a pass, else which test failed.
const char* StepFailure(const PhaseResult& step) {
  std::optional<double> p90 = QuietWindowPercentile(
      step.all_latency_us, step.window, 0.9, step.window_steal, false, 0.5);
  if (!p90.has_value() || *p90 > static_cast<double>(kSloMicros)) {
    return "p90 over SLO";
  }
  if (QuietWindowShareWithin(step.all_latency_us, step.window,
                             step.window_steal, 0.5, INFINITY) < 0.999) {
    return "under 99.9% OK";
  }
  const int64_t slack = std::max<int64_t>(8, std::llround(step.rate * 0.002));
  if (BacklogGrowing(step.backlog, slack)) return "growing backlog";
  return nullptr;
}

void AppendJsonMetric(std::ostringstream& out, bool* first,
                      const std::string& name, double value,
                      const std::string& unit) {
  if (!*first) out << ", ";
  *first = false;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(value) ? value : -1.0);
  out << "\"" << name << "\": {\"value\": " << buf << ", \"unit\": \"" << unit
      << "\"}";
}

[[nodiscard]] Status WritePrepJournal(const data::World& world,
                                      const std::string& dir, uint64_t seed) {
  feature_store::FeatureServer features(world, world.config().seq_len, 3);
  feature_store::FeatureStore store(&features, JournaledStoreConfig(dir));
  ZipfTable users(world.config().num_users, 1.1);
  Rng rng = Rng(seed).Fork(0x9E9);
  for (int64_t i = 0; i < kPrepClicks; ++i) {
    Click click = MakeClick(world, users, rng);
    store.RecordClick(click.user_id, click.event);
  }
  if (store.stats().journal_appends != kPrepClicks) {
    return Status::Internal("prep journal dropped clicks");
  }
  return Status::Ok();
}

}  // namespace

int RunGenerator(const GeneratorOptions& opt) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const int selftest_failures = RunSelfTests();
  const Workload* workload = FindWorkload(opt.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  const double S = opt.seconds;
  std::error_code ec;
  fs::remove_all(opt.workdir, ec);
  fs::create_directories(opt.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", opt.workdir.c_str());
    return 1;
  }

  // ---- untimed prep --------------------------------------------------------
  data::World world(WorldConfig());
  const std::string checkpoint = opt.workdir + "/model.ckpt";
  {
    std::unique_ptr<models::CtrModel> model =
        core::CreateModel(workload->model, world.schema(), kCheckpointSeed);
    model->SetTraining(false);
    Status saved = nn::SaveParameters(*model, checkpoint);
    if (!saved.ok()) {
      std::fprintf(stderr, "checkpoint: %s\n", saved.ToString().c_str());
      return 1;
    }
  }
  const std::string prep_journal = opt.workdir + "/journal_prep";
  if (workload->click_stream) {
    Status written = WritePrepJournal(world, prep_journal, opt.seed);
    if (!written.ok()) {
      std::fprintf(stderr, "prep journal: %s\n", written.ToString().c_str());
      return 1;
    }
  }

  // ---- timed set-ups: process start -> first OK response -----------------
  // kSetupsBefore set-ups run before the load, and the last of their servers
  // serves it; the rest run after the load. A host that is busy for a few
  // seconds then moves some of the samples, not their median.
  std::vector<double> setup_s;
  auto journal_of = [&](int k) {
    return opt.workdir + "/journal_" + std::to_string(k);
  };
  // Spawns a server, connects kConnections to it (into `out`) and times the
  // first OK response; nullptr on failure.
  auto timed_setup = [&](int k, std::vector<Connection>* out)
      -> std::unique_ptr<ServerProcess> {
    const std::string journal = journal_of(k);
    if (workload->click_stream) {
      fs::copy(prep_journal, journal, fs::copy_options::recursive, ec);
      if (ec) {
        std::fprintf(stderr, "journal copy failed\n");
        return nullptr;
      }
    }
    auto srv = std::make_unique<ServerProcess>();
    out->clear();
    const int64_t t0 = NowNanos();
    Status spawned = srv->Spawn({opt.self_path, "server", workload->name,
                                 checkpoint, journal, std::to_string(opt.seed)});
    StatusOr<std::string> ready =
        spawned.ok() ? srv->ReadLine(120000) : StatusOr<std::string>(spawned);
    if (!ready.ok() || ready.value().rfind("READY ", 0) != 0) {
      std::fprintf(stderr, "server did not start: %s\n",
                   ready.ok() ? ready.value().c_str()
                              : ready.status().ToString().c_str());
      return nullptr;
    }
    const uint16_t port =
        static_cast<uint16_t>(std::stoi(ready.value().substr(6)));
    for (int c = 0; c < kConnections; ++c) {
      StatusOr<net::TcpConnection> tcp =
          net::TcpConnection::Connect("127.0.0.1", port);
      if (!tcp.ok()) {
        std::fprintf(stderr, "connect: %s\n", tcp.status().ToString().c_str());
        return nullptr;
      }
      out->emplace_back();
      out->back().tcp = std::move(tcp).value();
    }
    // First OK response: one probe request, blocking, on connection 0.
    net::RpcRequest probe;
    probe.sequence = 1;
    probe.request.user_id = 1;
    probe.request.city = world.user(1).city;
    probe.request.hour = 12;
    probe.request.request_id = 0;
    probe.deadline_micros = 1000000;
    std::vector<uint8_t> frame = net::EncodeRequestFrame(probe);
    net::TcpConnection& tcp = (*out)[0].tcp;
    bool ok = tcp.WriteAll(frame.data(), frame.size()).ok();
    uint8_t header_bytes[net::kFrameHeaderBytes];
    net::FrameHeader header;
    ok = ok && tcp.ReadAll(header_bytes, sizeof(header_bytes)).ok() &&
         net::DecodeFrameHeader(header_bytes, sizeof(header_bytes), &header).ok();
    std::vector<uint8_t> payload(ok ? header.payload_size : 0);
    net::RpcResponse response;
    ok = ok && tcp.ReadAll(payload.data(), payload.size()).ok() &&
         net::DecodeResponsePayload(payload.data(), payload.size(), &response)
             .ok() &&
         response.code == StatusCode::kOk;
    const int64_t t1 = NowNanos();
    if (!ok) {
      std::fprintf(stderr, "set-up probe failed\n");
      return nullptr;
    }
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    return srv;
  };
  // Stops a set-up's server and removes its journal copy.
  auto end_setup = [&](int k, std::unique_ptr<ServerProcess> srv,
                       std::vector<Connection>* c) {
    c->clear();
    StatusOr<std::map<std::string, double>> bye = srv->Quit();
    if (!bye.ok()) {
      std::fprintf(stderr, "server quit: %s\n", bye.status().ToString().c_str());
      return false;
    }
    fs::remove_all(journal_of(k), ec);
    return true;
  };
  std::unique_ptr<ServerProcess> server;
  std::vector<Connection> conns;
  for (int k = 0; k < kSetupsBefore; ++k) {
    server = timed_setup(k, &conns);
    if (server == nullptr) return 1;
    if (k + 1 < kSetupsBefore && !end_setup(k, std::move(server), &conns)) {
      return 1;
    }
  }
  for (Connection& c : conns) {
    if (!c.tcp.SetNonBlocking(true).ok()) return 1;
  }
  StatusOr<std::map<std::string, double>> setup_stats = server->Stats();
  if (!setup_stats.ok()) return 1;

  // ---- load phases -----------------------------------------------------------
  TrafficGenerator traffic(world, *workload, opt.seed);
  OpenLoopClient client(&conns, static_cast<int32_t>(world.config().num_items));
  // `windows` > 0 cuts the phase into that many windows (of at least
  // kMinWindow requests) instead of windows of kWindowShare * S.
  auto run_phase = [&](double rate, double seconds,
                       const std::unordered_map<int32_t, int>* capture,
                       std::vector<serving::Request>* keep, int64_t windows = 0) {
    const int64_t n = CountFor(rate, seconds);
    std::vector<serving::Request> reqs = NextRequests(&traffic, n);
    const int64_t window = std::max<int64_t>(
        kMinWindow, windows > 0 ? n / windows
                                : std::llround(rate * kWindowShare * S));
    StatusOr<std::map<std::string, double>> before = server->Stats();
    const double stolen0 = StolenSeconds();
    PhaseResult r = client.Run(reqs, rate, window, capture);
    r.stolen_s = StolenSeconds() - stolen0;
    StatusOr<std::map<std::string, double>> after = server->Stats();
    if (before.ok()) r.server_before = before.value();
    if (after.ok()) r.server_after = after.value();
    if (keep != nullptr) *keep = std::move(reqs);
    return r;
  };

  // One part of the read-only workloads' click probe.
  std::map<std::string, double> click_stats;
  auto probe_clicks = [&]() {
    if (workload->click_stream) return true;
    StatusOr<std::string> probed = server->Command(
        "click_probe " + std::to_string(kClickProbePart) + " " +
        std::to_string(kClickRate) + " " + opt.workdir + "/journal_probe");
    if (!probed.ok() || probed.value().rfind("PROBE", 0) != 0) return false;
    click_stats = ParseKeyValues(probed.value());
    return true;
  };

  std::vector<PhaseResult> all_phases;
  all_phases.push_back(
      run_phase(workload->nominal_qps, kWarmupShare * S, nullptr, nullptr));
  if (!probe_clicks()) return 1;

  // Starts click stream `stream` (click_feedback only); returns false when
  // the server did not acknowledge it.
  auto start_clicks = [&](int64_t count, int stream) {
    if (!workload->click_stream) return true;
    StatusOr<std::string> started =
        server->Command("clicks " + std::to_string(count) + " " +
                        std::to_string(kClickRate) + " " + std::to_string(stream));
    return started.ok() && started.value() == "OK";
  };
  // The ladder's length varies from run to run; its stream outlasts any
  // ladder and is stopped when the fixed-count stream starts.
  if (!start_clicks(std::llround(kClickRate * 4 * S), kLadderClickStream)) {
    return 1;
  }

  // Ladder: from the nominal rate, coarse x1.25 steps up until one fails
  // (or down until one passes); then a staircase on the x1.05 grid from the
  // highest coarse pass, one step up after a pass and one down after a
  // failure. Near the knee a step passes or fails by chance (the engine's
  // batches grow once a queue forms), so max_qps_at_slo is the staircase's
  // estimate of the rate that passes half the time (StaircaseEstimate), not
  // the highest rate that happened to pass once.
  double max_qps = 0.0;
  int ladder_steps = 0;
  auto ladder_step = [&](double rate) {
    const double seconds = std::max(kStepShare * S, kStepWindows * kMinWindow / rate);
    PhaseResult step = run_phase(rate, seconds, nullptr, nullptr, kStepWindows);
    const char* failure = StepFailure(step);
    const bool pass = failure == nullptr;
    ++ladder_steps;
    std::vector<double> windows;
    QuietWindowPercentile(step.all_latency_us, step.window, 0.9,
                          step.window_steal, false, 0.5, &windows);
    std::fprintf(stderr, "ladder %8.0f req/s  %s  ok %lld/%lld  window p90 ms:",
                 rate, pass ? "pass" : "FAIL", static_cast<long long>(step.ok),
                 static_cast<long long>(step.sent));
    for (double w : windows) std::fprintf(stderr, " %.2f", w / 1e3);
    std::fprintf(stderr, "  host stole ms:");
    for (double w : step.window_steal) std::fprintf(stderr, " %.0f", w * 1e3);
    std::fprintf(stderr, "  backlog:");
    for (int64_t b : step.backlog) std::fprintf(stderr, " %lld", static_cast<long long>(b));
    std::fprintf(stderr, "%s%s\n", pass ? "" : "  -> ", pass ? "" : failure);
    all_phases.push_back(std::move(step));
    return pass;
  };
  {
    // A coarse rate fails only if its step fails twice in a row: a burst
    // of host steal can fail one step well below the knee.
    auto passes = [&](double r) { return ladder_step(r) || ladder_step(r); };
    double rate = workload->nominal_qps;
    bool found = passes(rate);
    if (found) {
      while (ladder_steps < 32 && passes(rate * kLadderCoarse)) {
        rate *= kLadderCoarse;
      }
    } else {
      while (!found && ladder_steps < 16) {
        rate /= kLadderCoarse;
        found = passes(rate);
      }
    }
    if (found) {
      std::vector<double> rates;
      std::vector<bool> passed;
      int k = 1;
      for (int i = 0; i < kStaircaseSteps; ++i) {
        rates.push_back(rate * std::pow(kLadderFine, k));
        passed.push_back(ladder_step(rates.back()));
        k += passed.back() ? 1 : -1;
      }
      max_qps = StaircaseEstimate(rates, passed);
    }
  }

  if (!probe_clicks()) return 1;

  // Nominal: fixed rate, with a seeded sample of responses captured for the
  // bit-identity check.
  std::vector<serving::Request> nominal_reqs;
  std::unordered_map<int32_t, int> capture;
  {
    // The nominal phase's ids are the next ones the traffic stream hands out;
    // sample them before the phase runs.
    const int64_t n = CountFor(workload->nominal_qps, kNominalShare * S);
    TrafficGenerator peek = traffic;
    const int32_t first_id = peek.Next().request_id;
    Rng pick = Rng(opt.seed).Fork(0x5A4);
    while (static_cast<int64_t>(capture.size()) < std::min(kCaptureSample, n)) {
      capture[first_id + static_cast<int32_t>(pick.NextUint64(n))] = 1;
    }
  }
  // The fixed-count click stream lasts as long as the two fixed-rate
  // phases' send windows, so every run makes the same clicks beside them.
  const int64_t clicks_total =
      std::llround(kClickRate * (kNominalShare + kOverloadShare) * S);
  if (!start_clicks(clicks_total, kLoadClickStream)) return 1;
  const int64_t clicks_start_ns = NowNanos();
  PhaseResult nominal = run_phase(workload->nominal_qps, kNominalShare * S,
                                  &capture, &nominal_reqs);
  PhaseResult overload =
      run_phase(workload->overload_qps, kOverloadShare * S, nullptr, nullptr);
  const double load_s = static_cast<double>(NowNanos() - clicks_start_ns) / 1e9;

  // ---- clicks ------------------------------------------------------------------
  double click_overlap = 0.0;
  if (workload->click_stream) {
    const int64_t give_up = NowNanos() + 120LL * 1000000000;
    while (NowNanos() < give_up) {
      StatusOr<std::map<std::string, double>> st = server->Stats();
      if (!st.ok()) return 1;
      click_stats = st.value();
      if (Get(click_stats, "clicks.done") >= static_cast<double>(clicks_total)) break;
      usleep(100000);
    }
    // Share of the click stream's span that ran beside the two fixed-rate
    // phases (from the nominal phase's start to the overload phase's end).
    const double click_s = Get(click_stats, "clicks.seconds");
    click_overlap = click_s > 0 ? std::min(click_s, load_s) / click_s : 0.0;
  } else if (!probe_clicks()) {
    return 1;
  }
  conns.clear();
  StatusOr<std::map<std::string, double>> final_stats = server->Quit();
  if (!final_stats.ok()) {
    std::fprintf(stderr, "server quit: %s\n",
                 final_stats.status().ToString().c_str());
    return 1;
  }
  server.reset();
  for (int k = kSetupsBefore; k < kSetups; ++k) {
    std::vector<Connection> c;
    std::unique_ptr<ServerProcess> extra = timed_setup(k, &c);
    if (extra == nullptr || !end_setup(k, std::move(extra), &c)) return 1;
  }

  // ---- output checks -----------------------------------------------------------
  all_phases.push_back(nominal);
  all_phases.push_back(overload);
  int64_t attempted = 0;
  int64_t failed = client.protocol_errors();
  int64_t other_errors = 0;
  for (const PhaseResult& p : all_phases) {
    attempted += p.sent;
    failed += p.check_failures + p.other_errors;
    other_errors += p.other_errors;
  }
  int64_t verified = 0;
  int64_t mismatches = 0;
  if (!workload->click_stream) {
    // Serial in-process reference: the same world, store, recall index and
    // checkpoint; recall from Rng(engine seed).Fork(request_id).
    feature_store::FeatureServer features(world, world.config().seq_len, 3);
    feature_store::FeatureStore store(&features);
    serving::RecallIndex recall(world);
    std::unique_ptr<models::CtrModel> model =
        core::CreateModel(workload->model, world.schema(), /*seed=*/7);
    if (!nn::LoadParameters(*model, checkpoint).ok()) return 1;
    model->SetTraining(false);
    serving::Pipeline pipeline(world, &store, &recall, model.get(),
                               kRecallSize, kExposeK);
    for (const Captured& c : nominal.captured) {
      Rng rng = Rng(kEngineSeedBase + c.replica)
                    .Fork(static_cast<uint64_t>(c.request.request_id));
      std::vector<int32_t> candidates = pipeline.Recall(c.request, rng);
      std::vector<serving::RankedItem> ref =
          pipeline.RankCandidates(c.request, candidates);
      bool same = ref.size() == c.slate.size();
      for (size_t i = 0; same && i < ref.size(); ++i) {
        same = ref[i].item_id == c.slate[i].item_id &&
               ref[i].position == c.slate[i].position &&
               std::memcmp(&ref[i].score, &c.slate[i].score, sizeof(float)) == 0;
      }
      ++verified;
      if (!same) ++mismatches;
    }
    failed += mismatches;
  }

  // ---- metrics -----------------------------------------------------------------
  // Latency figures over the windows that lost the least CPU to the host
  // (see QuietWindowPercentile): the nominal p50 over the quietest quarter
  // of the short windows; the nominal p99 and SLO share over the quieter
  // half, and the overload p99 over the quietest quarter, of windows
  // grouped to kMinP99Window OK responses.
  //
  // Group enough windows that each holds kMinP99Window OK responses, with a
  // 20% margin for windows below the phase's OK share.
  auto p99_group = [](const PhaseResult& p) {
    const double ok_share =
        std::max(0.05, static_cast<double>(p.ok) / static_cast<double>(p.sent));
    return static_cast<int64_t>(std::ceil(
        static_cast<double>(kMinP99Window) /
        (0.8 * ok_share * static_cast<double>(p.window))));
  };
  const int64_t nominal_group = p99_group(nominal);
  const int64_t overload_group = p99_group(overload);
  const std::vector<double> nominal_steal99 =
      GroupSteal(nominal.window_steal, nominal_group);
  const std::vector<double> overload_steal99 =
      GroupSteal(overload.window_steal, overload_group);
  std::optional<double> p50 =
      QuietWindowPercentile(nominal.all_latency_us, nominal.window, 0.5,
                            nominal.window_steal, true, 0.25);
  std::vector<double> p99_windows;
  std::optional<double> p99 = QuietWindowPercentile(
      nominal.all_latency_us, nominal.window * nominal_group, 0.99,
      nominal_steal99, true, 0.5, &p99_windows);
  std::vector<double> over_windows;
  std::optional<double> over_p99 = QuietWindowPercentile(
      overload.all_latency_us, overload.window * overload_group, 0.99,
      overload_steal99, true, 0.25, &over_windows);
  std::vector<double> nominal_all = nominal.ok_latency_us;
  std::vector<double> overload_all = overload.ok_latency_us;
  const double whole_p99 = TailPercentile(&nominal_all, 0.99).value_or(-1);
  const double whole_over_p99 = TailPercentile(&overload_all, 0.99).value_or(-1);
  std::vector<double> late;
  late.insert(late.end(), nominal.late_us.begin(), nominal.late_us.end());
  late.insert(late.end(), overload.late_us.begin(), overload.late_us.end());
  std::vector<double> late2 = late;
  std::optional<double> late_p50 = TailPercentile(&late2, 0.5);
  std::optional<double> late_p99 = TailPercentile(&late, 0.99);
  const double nominal_cpu_s = Delta(nominal, "cpu_s");
  const double cpu_ms_per_req =
      nominal.ok > 0 ? nominal_cpu_s * 1e3 / static_cast<double>(nominal.ok) : 0.0;
  // Share of the offered requests answered OK within their deadline, over
  // the quietest quarter of the overload windows, times the offered rate.
  const double goodput =
      overload.rate * QuietWindowShareWithin(overload.all_latency_us,
                                             overload.window,
                                             overload.window_steal, 0.25,
                                             static_cast<double>(kDeadlineMicros));
  const double slo_ok_frac = QuietWindowShareWithin(
      nominal.all_latency_us, nominal.window * nominal_group, nominal_steal99,
      0.5, static_cast<double>(kSloMicros));
  const double click_p99 = Get(click_stats, "clicks.p99_us");
  const double rss_mb = Get(final_stats.value(), "vmhwm_kb") / 1024.0;

  bool valid = true;
  std::string why_invalid;
  if (!late_p50.has_value() || *late_p50 > kMaxLateP50Us) {
    valid = false;
    why_invalid = "generator fell behind its schedule";
  }
  if (max_qps <= 0.0) {
    valid = false;
    why_invalid = "no ladder rate passed";
  }
  if (!p50 || !p99 || !over_p99) {
    valid = false;
    why_invalid = "too few samples for a p99";
  }
  if (selftest_failures > 0) {
    valid = false;
    why_invalid = "self-tests failed";
  }
  if (!workload->click_stream && verified < 100) {
    valid = false;
    why_invalid = "too few slates verified";
  }
  const int64_t clicks_expected =
      workload->click_stream ? clicks_total : kClickProbeParts * kClickProbePart;
  if (click_p99 <= 0.0 ||
      Get(click_stats, "clicks.done") != static_cast<double>(clicks_expected)) {
    valid = false;
    why_invalid = "click stream incomplete";
  }

  auto list = [](const std::vector<double>& v) {
    std::string out;
    char buf[32];
    for (double x : v) {
      std::snprintf(buf, sizeof(buf), " %.2f", x / 1e3);
      out += buf;
    }
    return out;
  };
  std::fprintf(stderr, "workload %s seed %llu: setup %.4f s (median of %d:",
               workload->name, static_cast<unsigned long long>(opt.seed),
               Median(setup_s), kSetups);
  for (double s : setup_s) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr, ")\n");
  std::fprintf(stderr, "  ladder: %d steps, max_qps_at_slo %.0f req/s\n",
               ladder_steps, max_qps);
  std::fprintf(stderr,
               "  nominal %.0f req/s: sent %lld ok %lld shed %lld timeouts %lld "
               "missing %lld; p50 %.3f ms over %zu; window p99 ms:%s "
               "(whole-phase p99 %.3f ms); cpu %.4f ms/req; host stole %.0f ms\n",
               workload->nominal_qps, static_cast<long long>(nominal.sent),
               static_cast<long long>(nominal.ok),
               static_cast<long long>(nominal.shed),
               static_cast<long long>(nominal.deadline_exceeded),
               static_cast<long long>(nominal.missing), p50.value_or(0) / 1e3,
               nominal.ok_latency_us.size(), list(p99_windows).c_str(),
               whole_p99 / 1e3, cpu_ms_per_req, nominal.stolen_s * 1e3);
  std::fprintf(stderr,
               "  overload %.0f req/s: sent %lld ok %lld in-deadline %lld "
               "shed %lld timeouts %lld; admitted window p99 ms:%s "
               "(whole-phase %.3f ms over %zu)\n",
               workload->overload_qps, static_cast<long long>(overload.sent),
               static_cast<long long>(overload.ok),
               static_cast<long long>(overload.ok_in_deadline),
               static_cast<long long>(overload.shed),
               static_cast<long long>(overload.deadline_exceeded),
               list(over_windows).c_str(), whole_over_p99 / 1e3,
               overload.ok_latency_us.size());
  std::fprintf(stderr, "  clicks: ack p99 %.2f us over %.0f clicks", click_p99,
               Get(click_stats, "clicks.done"));
  if (workload->click_stream) {
    std::fprintf(stderr,
                 " in %.2f s, %.1f%% of them beside the %.2f s of fixed-rate load",
                 Get(click_stats, "clicks.seconds"), 100.0 * click_overlap, load_s);
  } else {
    std::fprintf(stderr, " (probe in %d parts)", kClickProbeParts);
  }
  std::fprintf(stderr,
               "; peak rss %.1f MB; generator lateness p50 %.1f us p99 %.1f us\n",
               rss_mb, late_p50.value_or(-1), late_p99.value_or(-1));
  std::fprintf(stderr,
               "  checks: %lld slates bit-identical to the serial pipeline, "
               "%lld mismatches; %lld failed of %lld attempted; %s\n",
               static_cast<long long>(verified - mismatches),
               static_cast<long long>(mismatches), static_cast<long long>(failed),
               static_cast<long long>(attempted),
               valid ? "valid" : why_invalid.c_str());

  std::ostringstream metrics;
  bool first = true;
  if (!opt.trace) {
    AppendJsonMetric(metrics, &first, "setup_s", Median(setup_s), "s");
    AppendJsonMetric(metrics, &first, "max_qps_at_slo", max_qps, "req/s");
    AppendJsonMetric(metrics, &first, "cpu_ms_per_req", cpu_ms_per_req, "ms");
    AppendJsonMetric(metrics, &first, "slo_ok_frac", slo_ok_frac, "ratio");
    AppendJsonMetric(metrics, &first, "goodput_overload_qps", goodput, "req/s");
    AppendJsonMetric(metrics, &first, "overload_admitted_p99_ms",
                     over_p99.value_or(0) / 1e3, "ms");
    AppendJsonMetric(metrics, &first, "peak_rss_mb", rss_mb, "MB");
    AppendJsonMetric(metrics, &first, "click_ack_p99_us", click_p99, "us");
  } else {
    const fs::path trace_path =
        fs::path(opt.workdir).parent_path() /
        ("trace-" + std::string(workload->name) + "-seed" +
         std::to_string(opt.seed) + ".json");
    ReplayMetrics replay = RunTraceReplay(world, *workload, checkpoint,
                                          nominal_reqs, trace_path.string());
    auto add = [&](const std::string& name, double v, const std::string& unit) {
      AppendJsonMetric(metrics, &first, name, v, unit);
    };
    // net: serial replay of the codec and routing calls, counters over the
    // whole run (set-up excluded), frontend share at the nominal rate.
    const std::map<std::string, double>& fin = final_stats.value();
    const std::map<std::string, double>& base = setup_stats.value();
    auto run_delta = [&](const std::string& key) { return Get(fin, key) - Get(base, key); };
    double sojourn_p50 = 0, sojourn_p99 = 0, batch = 0, weight = 0;
    double rejects = 0, timeouts = 0, degraded = 0;
    for (int r = 0; r < kReplicas; ++r) {
      const std::string p = "r" + std::to_string(r) + ".";
      const double w = Get(nominal.server_after, p + "count");
      sojourn_p50 += w * Get(nominal.server_after, p + "p50_us");
      sojourn_p99 = std::max(sojourn_p99, Get(nominal.server_after, p + "p99_us"));
      batch += w * Get(nominal.server_after, p + "mean_batch");
      weight += w;
    }
    for (const PhaseResult& ph : all_phases) {
      for (int r = 0; r < kReplicas; ++r) {
        const std::string p = "r" + std::to_string(r) + ".";
        rejects += Get(ph.server_after, p + "rejects");
        timeouts += Get(ph.server_after, p + "timeouts");
        degraded += Get(ph.server_after, p + "degraded");
      }
    }
    if (weight > 0) {
      sojourn_p50 /= weight;
      batch /= weight;
    }
    add("net.decode_request_us", replay.layer_us["net.decode_request"], "us");
    add("net.encode_response_us", replay.layer_us["net.encode_response"], "us");
    // Client p50 over the whole phase, like the engine's sojourn p50.
    std::vector<double> client = nominal.ok_latency_us;
    add("net.frontend_p50_us",
        TailPercentile(&client, 0.5).value_or(0) - sojourn_p50, "us");
    add("net.route_us", replay.layer_us["net.route"], "us");
    add("net.shed", run_delta("net.shed"), "count");
    add("net.shed_pipeline", run_delta("net.shed_pipeline"), "count");
    add("net.backpressure_pauses", run_delta("net.backpressure_pauses"), "count");
    add("net.unroutable", run_delta("net.unroutable"), "count");
    add("net.failover_retries", run_delta("net.failover_retries"), "count");
    add("runtime.sojourn_p50_us", sojourn_p50, "us");
    add("runtime.sojourn_p99_us", sojourn_p99, "us");
    add("runtime.queue_wait_p50_us", sojourn_p50 - replay.serial_request_us, "us");
    add("runtime.mean_batch_size", batch, "requests");
    add("runtime.rejects", rejects, "count");
    add("runtime.timeouts", timeouts, "count");
    add("serving.recall_us", replay.layer_us["serving.recall"], "us");
    add("serving.build_examples_self_us",
        replay.layer_us["serving.build_examples"] - replay.layer_us["feature_store.fetch"],
        "us");
    add("serving.slate_us", replay.layer_us["serving.slate"], "us");
    add("serving.degraded", degraded, "count");
    add("data.make_batch_us", replay.layer_us["data.make_batch"], "us");
    add("models.forward_us_per_row_r24", replay.forward_us_per_row_r24, "us");
    add("models.forward_us_per_row_r96", replay.forward_us_per_row_r96, "us");
    add("models.encoder_attention_us_per_row", replay.encoder_attention_us_per_row, "us");
    add("core.stael_us_per_row", replay.stael_us_per_row, "us");
    add("core.ststl_us_per_row", replay.ststl_us_per_row, "us");
    add("core.stabt_us_per_row", replay.stabt_us_per_row, "us");
    add("tensor.fresh_allocs_per_req",
        nominal.ok > 0 ? Delta(nominal, "fresh_allocs") / static_cast<double>(nominal.ok) : 0,
        "count");
    add("tensor.arena_held_mb", replay.arena_held_mb, "MB");
    add("feature_store.fetch_us", replay.layer_us["feature_store.fetch"], "us");
    const double appends = Get(fin, "fs.journal_appends");
    const double fsyncs = Get(fin, "fs.journal_fsyncs");
    add("feature_store.journal_appends", appends, "count");
    add("feature_store.appends_per_fsync", fsyncs > 0 ? appends / fsyncs : 0, "ratio");
    add("feature_store.journal_write_failures", Get(fin, "fs.journal_write_failures"), "count");
    add("feature_store.replay_ms", Get(fin, "fs.replay_ms"), "ms");
    add("feature_store.replay_clicks", Get(fin, "fs.replay_clicks"), "count");
    const double consumed = Get(fin, "online.consumed");
    const double dropped = Get(fin, "online.dropped");
    add("online.update_ms", Get(fin, "online.last_update_ms"), "ms");
    add("online.published", Get(fin, "online.published"), "count");
    add("online.accepted_frac",
        consumed + dropped > 0 ? consumed / (consumed + dropped) : 0, "ratio");
    add("online.failed_installs", Get(fin, "online.failed_installs"), "count");
    add("online.swaps", Get(fin, "online.swaps"), "count");
    add("p50_ms", p50.value_or(0) / 1e3, "ms");
    add("p99_ms", p99.value_or(0) / 1e3, "ms");
    add("gen.late_p99_us", late_p99.value_or(0), "us");
    add("trace.overhead_pct", replay.overhead_pct, "%");
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              (valid && failed == 0) ? "true" : "false",
              static_cast<long long>(attempted), static_cast<long long>(failed),
              metrics.str().c_str());
  std::fflush(stdout);
  fs::remove_all(opt.workdir, ec);
  return 0;
}

}  // namespace basm::perfbench
