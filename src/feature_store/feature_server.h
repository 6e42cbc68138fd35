#ifndef BASM_FEATURE_STORE_FEATURE_SERVER_H_
#define BASM_FEATURE_STORE_FEATURE_SERVER_H_

#include <deque>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "common/status.h"
#include "data/synth.h"

namespace basm::feature_store {

/// Fault site name the feature fetch path evaluates on every fallible
/// fetch (see FaultInjector).
inline constexpr char kFeatureFetchFaultSite[] = "feature_server.fetch";

/// Analogue of the Alibaba Basic Feature Server (ABFS, Fig 13): when a user
/// opens the app, returns their profile features and recent behavior
/// sequence. Maintains per-user rolling histories that grow as the online
/// loop records new clicks, so the serving stack is closed-loop like the
/// production system.
///
/// Two read paths: GetUserFeatures models the in-process lookup and CHECKs
/// on bad ids (programmer error), while FetchUserFeatures models the *RPC*
/// to ABFS — it returns Status for recoverable failures and routes through
/// an optional FaultInjector, which is where chaos tests make the
/// dependency fail, spike, or go down entirely.
class FeatureServer {
 public:
  /// Histories are bootstrapped from the world's generative process.
  FeatureServer(const data::World& world, int64_t history_len, uint64_t seed);

  struct UserFeatures {
    int32_t user_id = 0;
    /// Most-recent-first behavior window of at most history_len events.
    std::vector<data::BehaviorEvent> behaviors;
  };

  UserFeatures GetUserFeatures(int32_t user_id) const;

  /// The fallible fetch: applies the injector's decision for
  /// kFeatureFetchFaultSite (sleeping injected latency, surfacing injected
  /// errors verbatim), then validates the user id (InvalidArgument instead
  /// of CHECK) and performs the lookup. With no injector configured this
  /// is GetUserFeatures plus one pointer test.
  [[nodiscard]] StatusOr<UserFeatures> FetchUserFeatures(int32_t user_id) const;

  /// The fallible half of FetchUserFeatures without the lookup: the
  /// injector's decision (latency, injected errors) and the id check. Ok
  /// means a GetUserFeatures for `user_id` would succeed. FeatureStore runs
  /// this outside its shard lock and copies the window under it, the lock
  /// that also serializes the user's RecordClick.
  [[nodiscard]] Status AdmitFetch(int32_t user_id) const;

  /// Appends a clicked item to the user's history (most recent first).
  /// Not synchronized: callers serialize each user's reads and clicks.
  void RecordClick(int32_t user_id, const data::BehaviorEvent& event);

  /// Routes FetchUserFeatures through `injector` (borrowed; nullptr
  /// restores the clean path). Defaults to FaultInjector::FromEnv(), so
  /// setting BASM_FAULT_RATE injects faults with no code changes.
  void SetFaultInjector(FaultInjector* injector) {
    fault_injector_ = injector;
  }
  FaultInjector* fault_injector() const { return fault_injector_; }

  int64_t history_len() const { return history_len_; }

 private:
  const data::World& world_;
  int64_t history_len_;
  std::vector<std::deque<data::BehaviorEvent>> histories_;
  FaultInjector* fault_injector_;
};

}  // namespace basm::feature_store

#endif  // BASM_FEATURE_STORE_FEATURE_SERVER_H_
