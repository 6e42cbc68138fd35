#ifndef BASM_SERVING_PIPELINE_H_
#define BASM_SERVING_PIPELINE_H_

#include <chrono>
#include <memory>
#include <vector>

#include "common/circuit_breaker.h"
#include "common/fault.h"
#include "common/retry.h"
#include "data/batch.h"
#include "feature_store/feature_store.h"
#include "models/ctr_model.h"
#include "online/model_slot.h"
#include "feature_store/feature_server.h"
#include "serving/recall.h"

namespace basm::serving {

/// Fault site name the fallible recall stage evaluates (see FaultInjector):
/// the LBS candidate-recall dependency of Fig 13, which can fail or spike
/// independently of the feature store.
inline constexpr char kRecallFaultSite[] = "pipeline.recall";

/// One ranking request flowing through the TPP pipeline.
struct Request {
  int32_t user_id = 0;
  int32_t hour = 0;
  int32_t weekday = 0;
  int32_t city = 0;
  int32_t day = 0;
  int32_t request_id = 0;
};

/// One exposed slate entry.
struct RankedItem {
  int32_t item_id = 0;
  float score = 0.0f;
  int32_t position = 0;
};

/// Fault-handling policy of the pipeline's feature-fetch stage.
struct FeatureFaultPolicy {
  /// Bounded retries with backoff around FeatureServer::FetchUserFeatures.
  RetryPolicy retry;
  /// Optional breaker guarding the fetch (borrowed; must outlive the
  /// pipeline). When open, fetches are skipped entirely and the request
  /// degrades immediately instead of burning its deadline on retries.
  CircuitBreaker* breaker = nullptr;
  /// Base seed of the per-request jitter streams.
  uint64_t jitter_seed = 0xFA117;
};

/// What happened on one request's feature-fetch stage (feeds the engine's
/// LatencyRecorder counters and SlateResult::degraded).
struct FeatureFetchOutcome {
  /// True when the request is served without a fresh behavior window
  /// because the fetch failed, timed out, or was short-circuited.
  bool degraded = false;
  /// Degraded refinement: the feature store had a last-known window, so
  /// the request serves *stale* features (real but old behavior) instead
  /// of an empty window. Only meaningful when `degraded` is true.
  bool stale = false;
  /// Age of the stale window served (0 unless `stale`).
  int64_t stale_age_micros = 0;
  /// The store *had* a last-known window but refused it: older than the
  /// TTL budget (FeatureStoreConfig::max_stale_age_micros), so the request
  /// degraded all the way to empty. Only meaningful when `degraded`.
  bool stale_expired = false;
  /// Fetch attempts beyond the first.
  int32_t retries = 0;
  /// This request's failure tripped the breaker open.
  bool breaker_opened = false;
  /// The breaker was open: the fetch was skipped without any attempt.
  bool short_circuited = false;
  /// Last fetch error (OK when the fetch succeeded or was skipped).
  Status last_error;
};

/// Analogue of the Personalization Platform (TPP) orchestration in Fig 13:
/// fetch user features (ABFS, through the sharded FeatureStore), recall
/// candidates by location (LBS), score with the model (RTP), and return the
/// top-k slate for exposure.
///
/// Every serve-path method is const and re-entrant: concurrent calls through
/// one Pipeline from runtime::ServingEngine workers are safe — the model is
/// in eval mode and the FeatureStore synchronizes all feature access behind
/// per-shard locks.
class Pipeline {
 public:
  /// The rank slot every candidate is scored at. Positions are unknown
  /// before ranking, so production scores at a default (middle) slot and
  /// assigns real positions after ordering.
  static constexpr int32_t kScoringPosition = 4;

  /// All dependencies are borrowed; the model must outlive the pipeline.
  /// The model is wrapped in a static (version-0, never swapped) servable.
  Pipeline(const data::World& world, feature_store::FeatureStore* features,
           const RecallIndex* recall, models::CtrModel* model,
           int32_t recall_size, int32_t expose_k);

  /// Hot-swap form: the scoring model is whatever ServableModel the slot
  /// currently holds, so an online::OnlineTrainer can publish new versions
  /// while this pipeline serves. The slot is borrowed and must outlive the
  /// pipeline; it must hold a model before the first scoring call.
  Pipeline(const data::World& world, feature_store::FeatureStore* features,
           const RecallIndex* recall, const online::ModelSlot* slot,
           int32_t recall_size, int32_t expose_k);

  /// Runs the full serve path; `rng` drives the recall sampling.
  std::vector<RankedItem> Serve(const Request& request, Rng& rng) const;

  /// Scores a given candidate list without recall (used by the simulator to
  /// feed both A/B arms identical candidates).
  std::vector<RankedItem> RankCandidates(
      const Request& request, const std::vector<int32_t>& candidates) const;

  /// The recall stage alone; `rng` drives the popularity-weighted sampling.
  std::vector<int32_t> Recall(const Request& request, Rng& rng) const;

  /// Fault-tolerant recall — evaluates kRecallFaultSite through the
  /// injector (sleeping injected latency) and, on an injected error, falls
  /// back to the head of the city's item list instead of failing: an
  /// unpersonalized, popularity-free slate still renders (same contract as
  /// the degraded feature path). Sets *degraded on fallback. With no
  /// injector this is Recall plus one pointer test.
  std::vector<int32_t> RecallFallible(const Request& request, Rng& rng,
                                      bool* degraded) const;

  /// Routes RecallFallible through `injector` (borrowed; nullptr restores
  /// the clean path). Defaults to FaultInjector::FromEnv(), so setting
  /// BASM_FAULT_RATE injects recall faults with no code changes.
  void SetFaultInjector(FaultInjector* injector) {
    fault_injector_ = injector;
  }
  FaultInjector* fault_injector() const { return fault_injector_; }

  /// Builds the scoring examples for one request's candidate list. Exposed
  /// so the serving engine can coalesce several requests into one model
  /// batch; scores are independent of batch composition, so engine slates
  /// stay bit-identical to RankCandidates.
  std::vector<data::Example> BuildExamples(
      const Request& request, const std::vector<int32_t>& candidates) const;

  /// Arms the fault-tolerant feature path: BuildExamplesFallible (and the
  /// engine through it) retries fetches under `policy`, consults the
  /// breaker, and degrades instead of failing. Call before serving starts;
  /// serve-path methods stay const and re-entrant afterwards (the breaker
  /// is internally synchronized, the policy immutable).
  void EnableFaultTolerance(FeatureFaultPolicy policy);
  bool fault_tolerant() const { return fault_tolerant_; }
  CircuitBreaker* feature_breaker() const { return fault_policy_.breaker; }

  /// Fault-tolerant example construction — the graceful-degradation stage.
  /// Fetches the user's behavior window through the breaker + retry loop,
  /// never exceeding `deadline`; on failure it falls back to the feature
  /// store's *last-known* window for the user (stale degradation — real
  /// but old behavior beats no behavior) and only serves an empty window
  /// when the user was never cached. Either way the request renders (the
  /// paper's slate must survive ABFS being down). Reports what happened —
  /// including stale vs empty and the staleness age — through `outcome`.
  /// On the happy path the examples are bit-identical to BuildExamples.
  std::vector<data::Example> BuildExamplesFallible(
      const Request& request, const std::vector<int32_t>& candidates,
      std::chrono::steady_clock::time_point deadline,
      FeatureFetchOutcome* outcome) const;

  /// Orders candidates by score (stable, descending) and cuts the top-k
  /// slate. Shared between the serial path and the micro-batched engine so
  /// tie-breaking is identical in both.
  static std::vector<RankedItem> MakeSlate(
      const std::vector<int32_t>& candidates, const std::vector<float>& scores,
      int32_t expose_k);

  /// Snapshot of the model to score with: the slot's current servable when
  /// slot-backed, else the static wrap of the constructor model. Callers
  /// (RankCandidates, the engine's ProcessBatch) acquire once per batch and
  /// hold the shared_ptr across the forward, so a concurrent hot-swap can
  /// never free a model mid-score. CHECK-fails if no model is installed.
  std::shared_ptr<const online::ServableModel> AcquireServable() const;

  /// The feature store this pipeline fetches through (never null) — the
  /// engine reads it for prefetch and for folding cache/prefetch counters
  /// into snapshot exports.
  feature_store::FeatureStore* feature_store() const { return features_; }

  /// The static constructor model; null when the pipeline is slot-backed.
  models::CtrModel* model() const { return model_; }
  /// The hot-swap slot; null when the pipeline serves a static model.
  const online::ModelSlot* slot() const { return slot_; }
  const data::Schema& schema() const { return world_.schema(); }
  int32_t recall_size() const { return recall_size_; }
  int32_t expose_k() const { return expose_k_; }

 private:
  const data::World& world_;
  feature_store::FeatureStore* features_;
  const RecallIndex* recall_;
  models::CtrModel* model_;
  const online::ModelSlot* slot_;
  /// Version-0 wrap of `model_` handed out by AcquireServable.
  std::shared_ptr<const online::ServableModel> static_servable_;
  int32_t recall_size_;
  int32_t expose_k_;
  /// Drives kRecallFaultSite in RecallFallible; seeded from FromEnv().
  FaultInjector* fault_injector_;
  bool fault_tolerant_ = false;
  FeatureFaultPolicy fault_policy_;

  /// Shared example-construction tail of BuildExamples and its fallible
  /// twin: one Example per candidate from the given behavior window.
  std::vector<data::Example> BuildExamplesWithBehaviors(
      const Request& request, const std::vector<int32_t>& candidates,
      const std::vector<data::BehaviorEvent>& behaviors) const;
};

}  // namespace basm::serving

#endif  // BASM_SERVING_PIPELINE_H_
