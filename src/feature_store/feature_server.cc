#include "feature_store/feature_server.h"

#include <chrono>
#include <thread>

#include "common/logging.h"

namespace basm::feature_store {

FeatureServer::FeatureServer(const data::World& world, int64_t history_len,
                             uint64_t seed)
    : world_(world),
      history_len_(history_len),
      fault_injector_(FaultInjector::FromEnv()) {
  Rng rng(seed);
  int64_t num_users = world.config().num_users;
  histories_.resize(num_users);
  for (int64_t u = 0; u < num_users; ++u) {
    auto events =
        world_.SampleHistory(static_cast<int32_t>(u), history_len_, rng);
    histories_[u].assign(events.begin(), events.end());
  }
}

FeatureServer::UserFeatures FeatureServer::GetUserFeatures(
    int32_t user_id) const {
  BASM_CHECK_GE(user_id, 0);
  BASM_CHECK_LT(user_id, static_cast<int64_t>(histories_.size()));
  UserFeatures out;
  out.user_id = user_id;
  out.behaviors.assign(histories_[user_id].begin(),
                       histories_[user_id].end());
  return out;
}

StatusOr<FeatureServer::UserFeatures> FeatureServer::FetchUserFeatures(
    int32_t user_id) const {
  BASM_RETURN_IF_ERROR(AdmitFetch(user_id));
  return GetUserFeatures(user_id);
}

Status FeatureServer::AdmitFetch(int32_t user_id) const {
  if (fault_injector_ != nullptr) {
    FaultDecision decision =
        fault_injector_->Evaluate(kFeatureFetchFaultSite);
    if (decision.delay_micros > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(decision.delay_micros));
    }
    if (!decision.status.ok()) return decision.status;
  }
  if (user_id < 0 || user_id >= static_cast<int64_t>(histories_.size())) {
    return Status::InvalidArgument("unknown user id " +
                                   std::to_string(user_id));
  }
  return Status::Ok();
}

void FeatureServer::RecordClick(int32_t user_id,
                                const data::BehaviorEvent& event) {
  BASM_CHECK_GE(user_id, 0);
  BASM_CHECK_LT(user_id, static_cast<int64_t>(histories_.size()));
  auto& h = histories_[user_id];
  h.push_front(event);
  while (static_cast<int64_t>(h.size()) > history_len_) h.pop_back();
}

}  // namespace basm::feature_store
