#ifndef BASM_RUNTIME_SERVING_ENGINE_H_
#define BASM_RUNTIME_SERVING_ENGINE_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "common/blocking_queue.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/synchronization.h"
#include "common/thread_pool.h"
#include "runtime/latency_recorder.h"
#include "runtime/micro_batcher.h"
#include "serving/pipeline.h"

namespace basm::runtime {

struct EngineConfig {
  /// Scoring worker threads pulling micro-batches off the request queue.
  int32_t num_workers = 4;
  /// Bounded request backlog; submissions beyond it are rejected.
  size_t queue_capacity = 256;
  /// Requests coalesced into one model forward (see BatchPolicy).
  int64_t max_batch_requests = 4;
  int64_t max_wait_micros = 200;
  /// Adaptive batching (see BatchPolicy): queue backlog at which the
  /// batching window widens to `adaptive_wait_micros`. 0 keeps the fixed
  /// `max_wait_micros` window regardless of pressure.
  int64_t adaptive_pressure_depth = 0;
  int64_t adaptive_wait_micros = 0;
  /// Deadline applied when Submit is called without one (and by the RPC
  /// frontend to a wire request whose deadline is 0). A request whose
  /// deadline passes before a worker picks it up is dropped with
  /// DEADLINE_EXCEEDED (doomed work is shed, not scored).
  int64_t default_deadline_micros = 100000;
  /// Base seed for per-request recall sampling streams.
  uint64_t seed = 0xE57E;
  /// Extra threads for intra-batch parallel scoring: a micro-batch's
  /// concatenated candidate rows are split into contiguous shards scored on
  /// these threads plus the owning worker. 0 (default) scores each batch on
  /// its worker alone. Shard results land at fixed offsets, so slates stay
  /// bit-identical to serial scoring either way.
  int32_t scoring_threads = 0;
  /// Minimum rows per shard; batches under twice this never split.
  int64_t min_rows_per_shard = 64;
  /// Async feature-prefetch threads: while a worker scores its current
  /// micro-batch, up to `prefetch_window` queued requests get their ABFS
  /// windows fetched into the feature store's cache, so the next batch's
  /// feature stage is a cache hit instead of a round-trip. 0 (default)
  /// disables prefetch. Prefetched windows are version-guarded against
  /// concurrent clicks, so slates stay bit-identical either way.
  int32_t prefetch_threads = 0;
  /// Bound on prefetches in flight at once (per engine).
  int64_t prefetch_window = 8;
};

/// Outcome of one engine request: an OK status with the ranked slate, or a
/// reject/timeout/shutdown status with an empty slate.
struct SlateResult {
  Status status;
  std::vector<serving::RankedItem> slate;
  /// Registry version of the model that scored this slate (0 when the
  /// pipeline serves a static model, or on non-OK results). Under online
  /// learning this is the staleness audit trail of every impression.
  uint64_t model_version = 0;
  /// True when the slate was served degraded (feature fetch failed or was
  /// short-circuited, or recall fell back to the city-head pool) — status
  /// is still OK, the slate still renders.
  bool degraded = false;
  /// How the *feature window* degraded: kStale means the slate was scored
  /// with the user's last-known behavior window from the feature store,
  /// kEmpty with no window at all. kNone covers both the healthy path and
  /// recall-only degradation (candidates fell back, features were fine).
  enum class DegradedMode { kNone, kEmpty, kStale };
  DegradedMode degraded_mode = DegradedMode::kNone;
  /// Age of the stale window served (0 unless degraded_mode == kStale).
  int64_t stale_age_micros = 0;
};

/// Concurrent front door for serving::Pipeline — the RTP tier of the
/// paper's Fig 13 deployment: a bounded request queue with reject-on-full
/// backpressure, N scoring workers, dynamic micro-batching that coalesces
/// concurrent requests into one model forward (PredictProbs is already
/// batch-oriented), and wait-free latency/qps accounting.
///
/// Workers score under autograd inference mode (NoGradGuard), which is both
/// faster and what makes a shared model safe: eval-mode forwards are pure
/// reads, and introspection caches are skipped. Slates are bit-identical to
/// serial Pipeline::RankCandidates on the same candidates.
///
/// Hot-swap: each micro-batch acquires the pipeline's current servable
/// (Pipeline::AcquireServable) once and scores the whole batch on it.
/// When the pipeline is backed by an online::ModelSlot, an OnlineTrainer
/// can therefore publish new versions mid-load: in-flight batches finish
/// on the version they acquired, later batches pick up the new one, and no
/// request is dropped or blocked by the swap.
class ServingEngine {
 public:
  /// The pipeline is borrowed and must outlive the engine; its model must
  /// already be in eval mode (for a slot-backed pipeline, a model must
  /// already be installed).
  ServingEngine(const serving::Pipeline* pipeline, EngineConfig config);

  /// Drains and stops (equivalent to Shutdown()).
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Submits a request; the engine runs recall itself from a per-request
  /// deterministic RNG stream. Never blocks: a full queue resolves the
  /// future immediately with UNAVAILABLE.
  std::future<SlateResult> Submit(const serving::Request& request);

  /// Submits with an explicit candidate list (no recall) — the path the
  /// simulator and the bit-identity tests use.
  std::future<SlateResult> Submit(const serving::Request& request,
                                  std::vector<int32_t> candidates);

  /// Full form: explicit candidates (empty = recall inside) and deadline, a
  /// budget from enqueue (<= 0 is already expired). A thin wrapper that
  /// fulfils a promise from SubmitWithCallback.
  std::future<SlateResult> Submit(const serving::Request& request,
                                  std::vector<int32_t> candidates,
                                  int64_t deadline_micros);

  /// Completion-callback delivery of one SlateResult. Fires exactly once
  /// per submit, from whichever thread resolves the request.
  using SlateCallback = std::function<void(SlateResult)>;

  /// The one submit path — the completion path of the event-loop RPC
  /// frontend: instead of parking a thread on a future, `done` is invoked
  /// exactly once with the SlateResult. It runs on the scoring worker that
  /// picked the request up (scored, or shed because its deadline passed),
  /// or inline on the submitting thread when the request is rejected up
  /// front (queue full / engine shut down). `deadline_micros` is the budget
  /// from enqueue, as in Submit. `done` must be non-blocking and must not
  /// call back into Shutdown(); the IO tier posts the result to its
  /// completion queue and returns.
  void SubmitWithCallback(const serving::Request& request,
                          std::vector<int32_t> candidates,
                          int64_t deadline_micros, SlateCallback done);

  /// Stops accepting requests, lets workers drain the backlog, joins them.
  /// Idempotent and safe under concurrent callers; the destructor calls it.
  void Shutdown() BASM_EXCLUDES(shutdown_mu_);

  /// Live metrics since construction (or the last ResetStatsClock()).
  /// When the pipeline has a feature breaker armed, the snapshot carries
  /// its current state and transition counters (see LatencySnapshot).
  LatencySnapshot Stats() const {
    LatencySnapshot snap = recorder_.Snapshot();
    AttachBreakerStats(&snap);
    AttachFeatureStoreStats(&snap);
    return snap;
  }
  /// Metrics since the previous IntervalStats() call — the per-window
  /// qps/percentile feed for periodic logging alongside hot-swaps.
  LatencySnapshot IntervalStats() {
    LatencySnapshot snap = recorder_.IntervalSnapshot();
    AttachBreakerStats(&snap);
    AttachFeatureStoreStats(&snap);
    return snap;
  }

  /// Pending request backlog right now — the admission-control signal the
  /// networked tier's router reads to shed load before a submit can even
  /// reach the bounded queue's reject path.
  size_t QueueDepth() const { return queue_.size(); }
  size_t queue_capacity() const { return queue_.capacity(); }
  /// Restarts the qps clock after warmup without losing histograms.
  void ResetStatsClock() { recorder_.ResetClock(); }

  const EngineConfig& config() const { return config_; }

 private:
  struct Job {
    serving::Request request;
    std::vector<int32_t> candidates;  // empty = recall inside the worker
    std::chrono::steady_clock::time_point enqueue_time;
    std::chrono::steady_clock::time_point deadline;
    /// Fired exactly once with the job's result.
    SlateCallback callback;
  };

  void WorkerLoop();
  void ProcessBatch(std::vector<std::unique_ptr<Job>> jobs);
  /// Overlap stage: peeks at the next `prefetch_window` queued requests and
  /// schedules their feature fetches on the prefetch pool, bounded by the
  /// in-flight window. Called by workers right before scoring, so the
  /// fetches run concurrently with the forward pass.
  void IssuePrefetches();
  /// Folds the pipeline's feature-breaker state/counters into `snap` (a
  /// no-op when no breaker is armed).
  void AttachBreakerStats(LatencySnapshot* snap) const;
  /// Folds the pipeline's feature-store cache/prefetch counters into
  /// `snap` (hit/miss/stale/eviction/prefetch-overlap telemetry).
  void AttachFeatureStoreStats(LatencySnapshot* snap) const;

  const serving::Pipeline* pipeline_;
  EngineConfig config_;
  BlockingQueue<std::unique_ptr<Job>> queue_;
  MicroBatcher<std::unique_ptr<Job>> batcher_;
  LatencyRecorder recorder_;
  /// Const: workers only Fork() per-request child streams from it, so
  /// concurrent reads are safe without a lock.
  const Rng recall_rng_root_;
  /// Serializes Shutdown so concurrent callers cannot double-join workers.
  Mutex shutdown_mu_;
  bool shut_down_ BASM_GUARDED_BY(shutdown_mu_) = false;
  /// Intra-batch scoring shard pool (null when scoring_threads == 0).
  /// Declared before workers_ so shard threads outlive no worker that
  /// submits to them during destruction.
  std::unique_ptr<ThreadPool> scoring_pool_;
  /// Async feature-prefetch pool (null when prefetch_threads == 0);
  /// declared before workers_ for the same shutdown-ordering reason.
  std::unique_ptr<ThreadPool> prefetch_pool_;
  /// Prefetches currently scheduled or running (bounds the window).
  std::atomic<int64_t> prefetch_in_flight_{0};
  /// Declared last: workers start in the constructor after every other
  /// member is live, and ThreadPool's destructor joins them first.
  ThreadPool workers_;
};

}  // namespace basm::runtime

#endif  // BASM_RUNTIME_SERVING_ENGINE_H_
