#include "serving/pipeline.h"

#include <algorithm>
#include <numeric>
#include <thread>
#include <utility>

#include "common/logging.h"

namespace basm::serving {

namespace {
/// Seed of the per-call example RNG. World::MakeExample consumes randomness
/// only for the ground-truth noise and sampled label, neither of which feeds
/// the model's features, so a fixed per-call stream keeps scores
/// deterministic while making the serve path re-entrant (the former
/// `scratch_rng_` member was a latent data race under concurrent scoring).
constexpr uint64_t kExampleRngSeed = 0xFEED;
}  // namespace

Pipeline::Pipeline(const data::World& world,
                   feature_store::FeatureStore* features,
                   const RecallIndex* recall, models::CtrModel* model,
                   int32_t recall_size, int32_t expose_k)
    : world_(world),
      features_(features),
      recall_(recall),
      model_(model),
      slot_(nullptr),
      recall_size_(recall_size),
      expose_k_(expose_k),
      fault_injector_(FaultInjector::FromEnv()) {
  BASM_CHECK(features_ != nullptr);
  BASM_CHECK(recall_ != nullptr);
  BASM_CHECK(model_ != nullptr);
  BASM_CHECK_GE(recall_size_, expose_k_);
  // Wrapped without an eval-mode check: callers may flip train/eval on the
  // static model between serving phases (the A/B simulator's daily loop).
  auto servable = std::make_shared<online::ServableModel>();
  servable->model = model_;
  static_servable_ = std::move(servable);
}

Pipeline::Pipeline(const data::World& world,
                   feature_store::FeatureStore* features,
                   const RecallIndex* recall, const online::ModelSlot* slot,
                   int32_t recall_size, int32_t expose_k)
    : world_(world),
      features_(features),
      recall_(recall),
      model_(nullptr),
      slot_(slot),
      recall_size_(recall_size),
      expose_k_(expose_k),
      fault_injector_(FaultInjector::FromEnv()) {
  BASM_CHECK(features_ != nullptr);
  BASM_CHECK(recall_ != nullptr);
  BASM_CHECK(slot_ != nullptr);
  BASM_CHECK_GE(recall_size_, expose_k_);
}

std::shared_ptr<const online::ServableModel> Pipeline::AcquireServable()
    const {
  if (slot_ == nullptr) return static_servable_;
  std::shared_ptr<const online::ServableModel> servable = slot_->Acquire();
  BASM_CHECK(servable != nullptr)
      << "slot-backed pipeline scored before a model was installed";
  return servable;
}

std::vector<RankedItem> Pipeline::Serve(const Request& request,
                                        Rng& rng) const {
  return RankCandidates(request, Recall(request, rng));
}

std::vector<int32_t> Pipeline::Recall(const Request& request, Rng& rng) const {
  return recall_->RecallByCity(request.city, recall_size_, rng);
}

std::vector<int32_t> Pipeline::RecallFallible(const Request& request,
                                              Rng& rng,
                                              bool* degraded) const {
  if (fault_injector_ != nullptr) {
    FaultDecision decision = fault_injector_->Evaluate(kRecallFaultSite);
    if (decision.delay_micros > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(decision.delay_micros));
    }
    if (!decision.status.ok()) {
      // LBS recall is down: serve the head of the city's item list — no
      // popularity weighting, no sampling, but a slate that renders.
      const std::vector<int32_t>& pool = world_.CityItems(request.city);
      int32_t k = std::min<int32_t>(recall_size_,
                                    static_cast<int32_t>(pool.size()));
      *degraded = true;
      return std::vector<int32_t>(pool.begin(), pool.begin() + k);
    }
  }
  return Recall(request, rng);
}

std::vector<data::Example> Pipeline::BuildExamplesWithBehaviors(
    const Request& request, const std::vector<int32_t>& candidates,
    const std::vector<data::BehaviorEvent>& behaviors) const {
  BASM_CHECK(!candidates.empty());
  // One Example per candidate, all at the scoring slot.
  Rng example_rng(kExampleRngSeed);
  std::vector<data::Example> examples;
  examples.reserve(candidates.size());
  for (int32_t item : candidates) {
    examples.push_back(world_.MakeExample(
        request.user_id, item, request.hour, request.weekday,
        kScoringPosition, request.city, request.day, request.request_id,
        behaviors, example_rng));
  }
  return examples;
}

std::vector<data::Example> Pipeline::BuildExamples(
    const Request& request, const std::vector<int32_t>& candidates) const {
  feature_store::FeatureServer::UserFeatures uf = features_->GetFeatures(request.user_id);
  return BuildExamplesWithBehaviors(request, candidates, uf.behaviors);
}

void Pipeline::EnableFaultTolerance(FeatureFaultPolicy policy) {
  BASM_CHECK_GE(policy.retry.max_attempts, 1);
  fault_policy_ = policy;
  fault_tolerant_ = true;
}

std::vector<data::Example> Pipeline::BuildExamplesFallible(
    const Request& request, const std::vector<int32_t>& candidates,
    std::chrono::steady_clock::time_point deadline,
    FeatureFetchOutcome* outcome) const {
  BASM_CHECK(outcome != nullptr);
  *outcome = FeatureFetchOutcome{};
  if (!fault_tolerant_) {
    // Policy not armed: identical to the infallible path.
    return BuildExamples(request, candidates);
  }

  using Clock = std::chrono::steady_clock;
  CircuitBreaker* breaker = fault_policy_.breaker;
  const RetryPolicy& retry = fault_policy_.retry;
  feature_store::FeatureServer::UserFeatures uf;
  uf.user_id = request.user_id;
  outcome->degraded = true;  // cleared on a successful fetch

  if (breaker != nullptr && !breaker->Allow()) {
    // Dependency is known-dead: fail fast into the degraded slate without
    // spending any of the request's remaining budget.
    outcome->short_circuited = true;
  } else {
    // Jitter stream forked per request: retry timing is deterministic and
    // independent of which worker runs the request.
    Rng jitter_rng = Rng(fault_policy_.jitter_seed)
                         .Fork(static_cast<uint64_t>(request.request_id));
    for (int32_t attempt = 1; attempt <= retry.max_attempts; ++attempt) {
      StatusOr<feature_store::FeatureServer::UserFeatures> fetched =
          features_->FetchFeatures(request.user_id);
      if (fetched.ok()) {
        uf = std::move(fetched).value();
        outcome->degraded = false;
        if (breaker != nullptr) breaker->RecordSuccess();
        break;
      }
      outcome->last_error = fetched.status();
      if (breaker != nullptr) {
        outcome->breaker_opened |= breaker->RecordFailure();
        // The breaker tripping mid-loop means stop probing a dead
        // dependency; later attempts would be short-circuited anyway.
        if (outcome->breaker_opened) break;
      }
      if (attempt == retry.max_attempts) break;
      // Deadline propagation: back off only while the request still has
      // budget for the wait plus another attempt.
      int64_t backoff = retry.BackoffMicros(attempt, jitter_rng);
      if (Clock::now() + std::chrono::microseconds(backoff) >= deadline) {
        break;
      }
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(backoff));
      }
      ++outcome->retries;
    }
  }
  if (outcome->degraded) {
    // Fresh fetch failed (or was short-circuited): fall back to the last
    // window the store successfully fetched for this user. Stale real
    // behavior preserves most of the spatiotemporal signal an empty window
    // throws away — the chaos drill measures the TAUC gap between the two.
    // The store applies its TTL budget here: a window past
    // max_stale_age_micros comes back empty with `expired` set, and the
    // request drops to the bottom rung of the ladder (empty window).
    bool expired = false;
    std::optional<feature_store::StaleFeatures> stale =
        features_->LastKnownFeatures(request.user_id, &expired);
    if (stale.has_value()) {
      outcome->stale = true;
      outcome->stale_age_micros = stale->age_micros;
      uf.behaviors = std::move(stale->behaviors);
    } else {
      outcome->stale_expired = expired;
    }
  }
  return BuildExamplesWithBehaviors(request, candidates, uf.behaviors);
}

std::vector<RankedItem> Pipeline::MakeSlate(
    const std::vector<int32_t>& candidates, const std::vector<float>& scores,
    int32_t expose_k) {
  BASM_CHECK_EQ(candidates.size(), scores.size());
  std::vector<int32_t> order(candidates.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    return scores[a] > scores[b];
  });

  std::vector<RankedItem> slate;
  int32_t k = std::min<int32_t>(expose_k,
                                static_cast<int32_t>(candidates.size()));
  slate.reserve(k);
  for (int32_t pos = 0; pos < k; ++pos) {
    RankedItem ri;
    ri.item_id = candidates[order[pos]];
    ri.score = scores[order[pos]];
    ri.position = pos;
    slate.push_back(ri);
  }
  return slate;
}

std::vector<RankedItem> Pipeline::RankCandidates(
    const Request& request, const std::vector<int32_t>& candidates) const {
  std::vector<data::Example> examples = BuildExamples(request, candidates);
  // Held across the forward so a concurrent hot-swap cannot free the model.
  std::shared_ptr<const online::ServableModel> servable = AcquireServable();
  std::vector<const data::Example*> ptrs;
  ptrs.reserve(examples.size());
  for (const auto& e : examples) ptrs.push_back(&e);
  data::Batch batch = data::MakeBatch(ptrs, world_.schema());
  std::vector<float> scores = servable->model->PredictProbs(batch);
  return MakeSlate(candidates, scores, expose_k_);
}

}  // namespace basm::serving
