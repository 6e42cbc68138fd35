#include "runtime/serving_engine.h"

#include <algorithm>
#include <utility>

#include "autograd/variable.h"
#include "common/logging.h"
#include "data/batch.h"
#include "serving/parallel_score.h"
#include "tensor/arena.h"

namespace basm::runtime {

using Clock = std::chrono::steady_clock;

ServingEngine::ServingEngine(const serving::Pipeline* pipeline,
                             EngineConfig config)
    : pipeline_(pipeline),
      config_(config),
      queue_(config.queue_capacity),
      batcher_(&queue_,
               BatchPolicy{config.max_batch_requests, config.max_wait_micros,
                           config.adaptive_pressure_depth,
                           config.adaptive_wait_micros}),
      recall_rng_root_(config.seed),
      workers_(config.num_workers,
               /*queue_capacity=*/static_cast<size_t>(config.num_workers)) {
  BASM_CHECK(pipeline_ != nullptr);
  BASM_CHECK_GT(config_.num_workers, 0);
  BASM_CHECK_GE(config_.scoring_threads, 0);
  BASM_CHECK(!pipeline_->AcquireServable()->model->training())
      << "ServingEngine requires the model in eval mode";
  BASM_CHECK_GE(config_.prefetch_threads, 0);
  BASM_CHECK_GT(config_.prefetch_window, 0);
  if (config_.scoring_threads > 0) {
    scoring_pool_ = std::make_unique<ThreadPool>(config_.scoring_threads);
  }
  if (config_.prefetch_threads > 0 &&
      pipeline_->feature_store()->cache_enabled()) {
    prefetch_pool_ = std::make_unique<ThreadPool>(config_.prefetch_threads);
  }
  for (int32_t i = 0; i < config_.num_workers; ++i) {
    workers_.Submit([this] { WorkerLoop(); });
  }
}

ServingEngine::~ServingEngine() { Shutdown(); }

void ServingEngine::Shutdown() {
  // Held across the drain: a concurrent caller (e.g. the destructor) blocks
  // until the workers are actually joined instead of returning early.
  MutexLock lock(&shutdown_mu_);
  if (shut_down_) return;
  queue_.Shutdown();   // workers drain the backlog, then NextBatch empties
  workers_.Shutdown();  // basm-analyze: allow(blocking-under-lock)
  // After the workers: no one submits shards or prefetches once every
  // batch has drained. The joins are bounded drains per DESIGN §10.
  if (prefetch_pool_ != nullptr) prefetch_pool_->Shutdown();  // basm-analyze: allow(blocking-under-lock)
  if (scoring_pool_ != nullptr) scoring_pool_->Shutdown();  // basm-analyze: allow(blocking-under-lock)
  shut_down_ = true;
}

std::future<SlateResult> ServingEngine::Submit(
    const serving::Request& request) {
  return Submit(request, {}, config_.default_deadline_micros);
}

std::future<SlateResult> ServingEngine::Submit(
    const serving::Request& request, std::vector<int32_t> candidates) {
  return Submit(request, std::move(candidates),
                config_.default_deadline_micros);
}

std::future<SlateResult> ServingEngine::Submit(
    const serving::Request& request, std::vector<int32_t> candidates,
    int64_t deadline_micros) {
  // shared_ptr because std::function requires a copyable closure.
  auto promise = std::make_shared<std::promise<SlateResult>>();
  std::future<SlateResult> future = promise->get_future();
  SubmitWithCallback(request, std::move(candidates), deadline_micros,
                     [promise](SlateResult result) {
                       promise->set_value(std::move(result));
                     });
  return future;
}

void ServingEngine::SubmitWithCallback(const serving::Request& request,
                                       std::vector<int32_t> candidates,
                                       int64_t deadline_micros,
                                       SlateCallback done) {
  BASM_CHECK(done != nullptr);
  auto job = std::make_unique<Job>();
  job->request = request;
  job->candidates = std::move(candidates);
  job->enqueue_time = Clock::now();
  job->deadline =
      job->enqueue_time + std::chrono::microseconds(deadline_micros);
  job->callback = std::move(done);
  if (!queue_.TryPush(std::move(job))) {
    // A rejected push leaves the job with us (TryPush takes an rvalue
    // reference and only moves on success), so the callback is still live
    // and resolves inline on the submitting thread.
    SlateResult result;
    if (queue_.shut_down()) {
      result.status = Status::Cancelled("serving engine is shut down");
    } else {
      recorder_.RecordReject();
      result.status = Status::Unavailable("request queue full");
    }
    job->callback(std::move(result));
  }
}

void ServingEngine::AttachBreakerStats(LatencySnapshot* snap) const {
  const CircuitBreaker* breaker = pipeline_->feature_breaker();
  if (breaker == nullptr) return;
  CircuitBreaker::Stats stats = breaker->stats();
  snap->has_breaker = true;
  snap->breaker_state = CircuitBreaker::StateName(stats.state);
  snap->breaker_open_count = stats.opens;
  snap->breaker_close_count = stats.closes;
  snap->breaker_short_circuits = stats.short_circuits;
}

void ServingEngine::AttachFeatureStoreStats(LatencySnapshot* snap) const {
  const feature_store::FeatureStore* store = pipeline_->feature_store();
  // Journal telemetry must surface even with the LRU cache off (a
  // journaled thin facade is a supported configuration).
  if (!store->cache_enabled() && !store->journal_enabled()) return;
  feature_store::FeatureStoreStats stats = store->stats();
  snap->has_feature_store = store->cache_enabled();
  snap->fs_fresh_fetches = stats.fresh_fetches;
  snap->fs_fetch_failures = stats.fetch_failures;
  snap->fs_cache_entries = stats.cache_entries;
  snap->fs_stale_hits = stats.stale_hits;
  snap->fs_stale_misses = stats.stale_misses;
  snap->fs_insertions = stats.insertions;
  snap->fs_evictions = stats.evictions;
  snap->fs_prefetch_issued = stats.prefetch_issued;
  snap->fs_prefetch_hits = stats.prefetch_hits;
  snap->fs_prefetch_discarded = stats.prefetch_discarded;
  snap->fs_prefetch_cancelled = stats.prefetch_cancelled;
  snap->fs_stale_expired = stats.stale_expired;
  snap->fs_served_staleness_p50 = stats.served_staleness_p50_micros;
  snap->fs_served_staleness_p99 = stats.served_staleness_p99_micros;
  snap->fs_journal_enabled = stats.journal_enabled;
  snap->fs_journal_appends = stats.journal_appends;
  snap->fs_journal_fsyncs = stats.journal_fsyncs;
  snap->fs_journal_write_failures = stats.journal_write_failures;
  snap->fs_journal_recovered = stats.journal_recovered;
  snap->fs_journal_truncated_tail_bytes = stats.journal_truncated_tail_bytes;
}

void ServingEngine::IssuePrefetches() {
  // Budget = window minus what is already scheduled/running; the fetches
  // themselves run on the prefetch pool, overlapping the caller's forward
  // pass. Peeking is read-only, so a prefetched request may also be popped
  // by another worker meanwhile — its fetch then consumes the parked
  // window (or, version-invalidated, falls through to the server).
  int64_t budget = config_.prefetch_window -
                   prefetch_in_flight_.load(std::memory_order_relaxed);
  if (budget <= 0) return;
  feature_store::FeatureStore* store = pipeline_->feature_store();
  struct Want {
    int32_t user_id;
    Clock::time_point deadline;
  };
  std::vector<Want> wants;
  wants.reserve(static_cast<size_t>(budget));
  queue_.PeekFront(static_cast<size_t>(budget),
                   [&wants](const std::unique_ptr<Job>& job) {
                     wants.push_back(
                         Want{job->request.user_id, job->deadline});
                   });
  for (const Want& want : wants) {
    prefetch_in_flight_.fetch_add(1, std::memory_order_relaxed);
    bool submitted = prefetch_pool_->Submit(
        [this, store, user = want.user_id, deadline = want.deadline] {
          store->Prefetch(user, deadline);
          prefetch_in_flight_.fetch_sub(1, std::memory_order_relaxed);
        });
    if (!submitted) {
      prefetch_in_flight_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

void ServingEngine::WorkerLoop() {
  while (true) {
    std::vector<std::unique_ptr<Job>> jobs = batcher_.NextBatch();
    if (jobs.empty()) return;  // shutdown and drained
    ProcessBatch(std::move(jobs));
  }
}

void ServingEngine::ProcessBatch(std::vector<std::unique_ptr<Job>> jobs) {
  Clock::time_point now = Clock::now();

  // Shed doomed work before paying for the forward pass.
  std::vector<std::unique_ptr<Job>> live;
  live.reserve(jobs.size());
  for (auto& job : jobs) {
    if (job->deadline <= now) {
      recorder_.RecordTimeout();
      SlateResult result;
      result.status =
          Status::DeadlineExceeded("deadline passed before scoring");
      job->callback(std::move(result));
    } else {
      live.push_back(std::move(job));
    }
  }
  if (live.empty()) return;
  recorder_.RecordBatchSize(static_cast<int64_t>(live.size()));

  // Inference mode for the whole scoring section: detached autograd nodes
  // (cache-sized working set) and no introspection-cache writes, which is
  // what makes the shared model safe across workers. The arena scope makes
  // this worker's per-op scratch tensors reuse the freelist built up by its
  // earlier batches, so steady-state scoring stops hitting the allocator.
  autograd::NoGradGuard no_grad;
  ArenaScope arena_scope;

  // Per-request recall where needed; each request gets an independent
  // deterministic RNG stream, so results do not depend on which worker or
  // batch the request landed in. On the fault-tolerant path recall runs
  // through the injector and a failed recall degrades the request (city-
  // head fallback candidates) instead of failing it.
  const bool fault_tolerant = pipeline_->fault_tolerant();
  std::vector<bool> degraded(live.size(), false);
  std::vector<SlateResult::DegradedMode> modes(
      live.size(), SlateResult::DegradedMode::kNone);
  std::vector<int64_t> stale_ages(live.size(), 0);
  for (size_t j = 0; j < live.size(); ++j) {
    auto& job = live[j];
    if (job->candidates.empty()) {
      Rng rng = recall_rng_root_.Fork(
          static_cast<uint64_t>(job->request.request_id));
      if (fault_tolerant) {
        bool recall_degraded = false;
        job->candidates =
            pipeline_->RecallFallible(job->request, rng, &recall_degraded);
        if (recall_degraded) degraded[j] = true;
      } else {
        job->candidates = pipeline_->Recall(job->request, rng);
      }
    }
  }

  // One servable snapshot for the whole micro-batch: every request in it
  // scores on the same model version, and the shared_ptr keeps that
  // version alive even if the online trainer swaps in a newer one
  // mid-forward.
  std::shared_ptr<const online::ServableModel> servable =
      pipeline_->AcquireServable();

  // One model forward over the concatenated candidate lists. Example
  // features and eval-mode scores are row-independent, so each request's
  // scores are bit-identical to a serial RankCandidates call. On the
  // fault-tolerant path the feature fetch runs under the pipeline's retry
  // + breaker policy with the request's own deadline as the budget; a
  // failed fetch degrades the request (empty behavior window) instead of
  // failing it.
  std::vector<data::Example> examples;
  std::vector<size_t> offsets;  // per-job start index into `examples`
  offsets.reserve(live.size() + 1);
  // One example per candidate: reserving up front keeps the concatenation
  // below from reallocating (and copying Examples) as jobs append.
  size_t candidate_total = 0;
  for (const auto& job : live) candidate_total += job->candidates.size();
  examples.reserve(candidate_total);
  for (size_t j = 0; j < live.size(); ++j) {
    auto& job = live[j];
    offsets.push_back(examples.size());
    std::vector<data::Example> ex;
    if (fault_tolerant) {
      serving::FeatureFetchOutcome outcome;
      ex = pipeline_->BuildExamplesFallible(job->request, job->candidates,
                                            job->deadline, &outcome);
      if (outcome.degraded) {
        degraded[j] = true;
        // stale vs empty is a *feature-window* distinction; recall-only
        // degradation (outcome.degraded false) stays kNone.
        modes[j] = outcome.stale ? SlateResult::DegradedMode::kStale
                                 : SlateResult::DegradedMode::kEmpty;
        stale_ages[j] = outcome.stale_age_micros;
      }
      recorder_.RecordRetries(outcome.retries);
      if (outcome.breaker_opened) recorder_.RecordBreakerOpen();
    } else {
      ex = pipeline_->BuildExamples(job->request, job->candidates);
    }
    std::move(ex.begin(), ex.end(), std::back_inserter(examples));
  }
  offsets.push_back(examples.size());

  // Overlap: before this worker disappears into the forward pass, schedule
  // feature prefetches for the requests still queued behind this batch, so
  // their ABFS round-trips run concurrently with the scoring below.
  if (prefetch_pool_ != nullptr) IssuePrefetches();

  // Scores come back in example order whether the batch was scored whole on
  // this worker or sharded across the scoring pool (large slates only).
  std::vector<float> scores = serving::ScoreExamples(
      servable->model, pipeline_->schema(), examples, scoring_pool_.get(),
      config_.min_rows_per_shard);

  Clock::time_point done = Clock::now();
  for (size_t j = 0; j < live.size(); ++j) {
    std::vector<float> slice(scores.begin() + offsets[j],
                             scores.begin() + offsets[j + 1]);
    SlateResult result;
    result.model_version = servable->version;
    result.degraded = degraded[j];
    result.degraded_mode = modes[j];
    result.stale_age_micros = stale_ages[j];
    if (degraded[j]) {
      recorder_.RecordDegraded();
      if (modes[j] == SlateResult::DegradedMode::kStale) {
        recorder_.RecordDegradedStale();
      } else if (modes[j] == SlateResult::DegradedMode::kEmpty) {
        recorder_.RecordDegradedEmpty();
      }
    }
    result.slate = serving::Pipeline::MakeSlate(live[j]->candidates, slice,
                                                pipeline_->expose_k());
    // Record before the callback fires so a caller that joins on the
    // result immediately sees this request in Stats().
    recorder_.RecordLatency(std::chrono::duration_cast<std::chrono::microseconds>(
                                done - live[j]->enqueue_time)
                                .count());
    live[j]->callback(std::move(result));
  }
}

}  // namespace basm::runtime
