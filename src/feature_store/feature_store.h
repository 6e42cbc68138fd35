#ifndef BASM_FEATURE_STORE_FEATURE_STORE_H_
#define BASM_FEATURE_STORE_FEATURE_STORE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/synchronization.h"
#include "data/schema.h"
#include "feature_store/journal.h"
#include "feature_store/feature_server.h"

namespace basm::feature_store {

struct FeatureStoreConfig {
  /// User-hash shards; concurrent requests for different users contend only
  /// when they land on the same shard.
  int32_t num_shards = 8;
  /// Per-shard LRU capacity of the last-known-features cache. 0 disables
  /// the cache entirely (and with it prefetch and stale serving) — the
  /// store then degrades to a thin locking facade over the server.
  int64_t capacity_per_shard = 128;
  /// TTL budget for stale serving: LastKnownFeatures refuses windows older
  /// than this many microseconds (they degrade to empty instead, counted
  /// in stale_expired). 0 = unbounded, the pre-TTL behavior.
  int64_t max_stale_age_micros = 0;
  /// Write-ahead click journal. An empty dir disables journaling (the
  /// pre-journal behavior: clicks since boot die with the process).
  JournalConfig journal;
};

/// Lifetime counters, merged across shards by stats(). The serving engine
/// folds these into every LatencySnapshot export.
struct FeatureStoreStats {
  int64_t fresh_fetches = 0;      ///< successful server round-trips
  int64_t fetch_failures = 0;     ///< failed server round-trips
  int64_t cache_entries = 0;      ///< live LRU entries right now
  int64_t stale_hits = 0;         ///< LastKnownFeatures found a window
  int64_t stale_misses = 0;       ///< LastKnownFeatures found nothing
  int64_t insertions = 0;         ///< new users cached
  int64_t evictions = 0;          ///< LRU entries displaced at capacity
  int64_t prefetch_issued = 0;    ///< Prefetch calls that fetched
  int64_t prefetch_hits = 0;      ///< fetches served from a prefetch
  int64_t prefetch_discarded = 0; ///< prefetches invalidated by a click
  int64_t prefetch_cancelled = 0; ///< prefetches skipped past deadline
  int64_t stale_expired = 0;      ///< stale windows refused by the TTL budget
  /// Served-staleness quantiles over every stale window actually handed
  /// out (quarter-free power-of-two histogram, so values are bucket
  /// midpoints). 0 when no stale window was served yet.
  int64_t served_staleness_p50_micros = 0;
  int64_t served_staleness_p99_micros = 0;
  /// Journal counters (all zero when journaling is off).
  bool journal_enabled = false;
  int64_t journal_appends = 0;
  int64_t journal_fsyncs = 0;
  int64_t journal_write_failures = 0;
  int64_t journal_rotations = 0;
  int64_t journal_recovered = 0;
  int64_t journal_truncated_tail_bytes = 0;
};

/// A last-known behavior window plus how old it is — what a degraded
/// request serves instead of an empty window.
struct StaleFeatures {
  std::vector<data::BehaviorEvent> behaviors;
  int64_t age_micros = 0;
};

/// Sharded concurrent facade over the ABFS FeatureServer — the hot-path
/// feature tier. Each user hashes to one shard guarded by its own
/// basm::Mutex; a per-shard LRU keeps the *last known* behavior window of
/// recently served users so the fault-tolerant path can degrade to stale
/// features (real but old behavior) instead of an empty window, and an
/// async prefetch path lets the serving engine overlap the next
/// micro-batch's lookups with scoring of the current one.
///
/// Consistency contract: all click writes must flow through RecordClick on
/// the store (not the raw server), which bumps the user's version and so
/// invalidates any in-flight prefetch of a pre-click window. A consumed
/// prefetch is therefore always bit-identical to a synchronous fetch at
/// consume time — the happy path never serves a window the server would
/// not have returned.
///
/// The raw fallible fetch (FeatureServer::FetchUserFeatures, where the
/// FaultInjector site lives) is reachable only through this facade on the
/// serving path; basm_lint's feature-fetch-outside-store rule enforces it.
/// The store runs the server's fallible half (AdmitFetch) outside the shard
/// lock and copies the window under it: the server does not synchronize
/// its windows, and the shard lock is what orders a user's reads against
/// their clicks.
class FeatureStore {
 public:
  /// The server is borrowed and must outlive the store.
  explicit FeatureStore(feature_store::FeatureServer* server,
                        FeatureStoreConfig config = {});

  FeatureStore(const FeatureStore&) = delete;
  FeatureStore& operator=(const FeatureStore&) = delete;

  /// Infallible in-process lookup (CHECKs on bad ids, like the server's
  /// GetUserFeatures). Consumes a version-valid prefetched window when one
  /// is parked, else round-trips to the server; either way the result is
  /// bit-identical to the server's current window, and the LRU cache is
  /// refreshed with it.
  feature_store::FeatureServer::UserFeatures GetFeatures(int32_t user_id);

  /// The fallible "RPC" fetch the retry/breaker loop calls. Consumes a
  /// version-valid prefetched window without touching the server;
  /// otherwise performs exactly one server fetch (evaluating the
  /// feature_server.fetch fault site). Success refreshes the cache;
  /// failure surfaces the Status verbatim and leaves the last-known
  /// window untouched for LastKnownFeatures.
  [[nodiscard]] StatusOr<feature_store::FeatureServer::UserFeatures> FetchFeatures(
      int32_t user_id);

  /// The degraded fallback: the user's last successfully fetched window
  /// with its staleness age, or nullopt if the user was never cached (or
  /// was evicted). Read-only — does not touch LRU recency, so probing a
  /// dead dependency's fallback never perturbs eviction order.
  ///
  /// TTL: when config().max_stale_age_micros > 0, a window older than the
  /// budget is refused (nullopt, `*expired` set, stale_expired counted) —
  /// the fallback ladder is fresh → stale-within-budget → empty, never
  /// arbitrarily-old. Windows actually served are recorded into the
  /// served-staleness histogram behind the p50/p99 stats.
  std::optional<StaleFeatures> LastKnownFeatures(int32_t user_id,
                                                 bool* expired = nullptr);

  /// Forwards a click to the server under the user's shard lock and bumps
  /// the user's version, invalidating any prefetched pre-click window.
  /// Deliberately does NOT update the cached window: the cache holds what
  /// was last *fetched*, so staleness is honest.
  ///
  /// Write-ahead discipline: with journaling on, the click is appended to
  /// the journal *before* it is applied; if the append fails (real IO or
  /// the feature_store.journal fault site) the click is dropped entirely —
  /// counted in journal_write_failures, never applied half-durably, and
  /// never an error the request sees.
  void RecordClick(int32_t user_id, const data::BehaviorEvent& event);

  /// Startup-only: replays every intact journaled click (sealed segments,
  /// oldest first) back into the server — same shard-lock + version-bump
  /// path as a live RecordClick — truncating a torn tail at the first bad
  /// checksum instead of failing. `republish` (may be null) is invoked for
  /// each recovered click so the caller can refeed the OnlineTrainer
  /// feedback queue; `report` (may be null) receives the replay counts.
  /// A disabled journal is an OK no-op. Never call concurrently with live
  /// RecordClicks: recovery happens before serving starts.
  [[nodiscard]] Status RecoverFromJournal(
      const std::function<void(int32_t, const data::BehaviorEvent&)>&
          republish = nullptr,
      ReplayReport* report = nullptr);

  /// Async-prefetch body (run on the engine's prefetch pool): fetches the
  /// user's window and parks it in the cache entry, tagged with the
  /// user's current version, for the next GetFeatures/FetchFeatures to
  /// consume without a server round-trip. A deadline already in the past
  /// cancels without fetching. Returns true when a window was parked.
  bool Prefetch(int32_t user_id,
                std::chrono::steady_clock::time_point deadline);

  /// Counters merged across shards (cache_entries is the live total).
  FeatureStoreStats stats() const;

  const FeatureStoreConfig& config() const { return config_; }
  feature_store::FeatureServer* server() const { return server_; }
  /// True when the LRU (and so stale serving + prefetch) is enabled.
  bool cache_enabled() const { return config_.capacity_per_shard > 0; }
  /// True when clicks are journaled (config().journal.dir non-empty).
  bool journal_enabled() const { return journal_ != nullptr; }
  /// The underlying journal, or nullptr when journaling is off (exposed
  /// for tests and the fault-injection hookup).
  ClickJournal* journal() const { return journal_.get(); }

  /// Shard index of a user (public for the shard-spread test).
  int32_t ShardOf(int32_t user_id) const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Entry {
    int32_t user_id = 0;
    std::vector<data::BehaviorEvent> behaviors;
    Clock::time_point fetched_at;
    /// A prefetched window is parked here until consumed or invalidated.
    bool prefetch_fresh = false;
    uint64_t prefetch_version = 0;
  };

  static constexpr int kStalenessBuckets = 64;

  /// One shard: LRU list (front = most recently fetched) plus a user
  /// index into it, and the per-user version counters that guard
  /// prefetch consumption. Buffers in evicted Entry slots are reused via
  /// assign(), so a warm shard stops hitting the allocator.
  struct Shard {
    mutable Mutex mu;
    std::list<Entry> lru BASM_GUARDED_BY(mu);
    std::unordered_map<int32_t, std::list<Entry>::iterator> index
        BASM_GUARDED_BY(mu);
    std::unordered_map<int32_t, uint64_t> versions BASM_GUARDED_BY(mu);
    int64_t fresh_fetches BASM_GUARDED_BY(mu) = 0;
    int64_t fetch_failures BASM_GUARDED_BY(mu) = 0;
    int64_t stale_hits BASM_GUARDED_BY(mu) = 0;
    int64_t stale_misses BASM_GUARDED_BY(mu) = 0;
    int64_t insertions BASM_GUARDED_BY(mu) = 0;
    int64_t evictions BASM_GUARDED_BY(mu) = 0;
    int64_t prefetch_issued BASM_GUARDED_BY(mu) = 0;
    int64_t prefetch_hits BASM_GUARDED_BY(mu) = 0;
    int64_t prefetch_discarded BASM_GUARDED_BY(mu) = 0;
    int64_t prefetch_cancelled BASM_GUARDED_BY(mu) = 0;
    int64_t stale_expired BASM_GUARDED_BY(mu) = 0;
    /// Power-of-two histogram of served-staleness ages (bucket = bit width
    /// of the age in micros); merged across shards for the p50/p99 stats.
    std::array<int64_t, kStalenessBuckets> staleness_hist
        BASM_GUARDED_BY(mu) = {};
  };

  /// Histogram bucket of a served-staleness age, and the representative
  /// age of a bucket (its midpoint) — the resolution behind the p50/p99.
  static int StalenessBucket(int64_t age_micros);
  static int64_t StalenessBucketValue(int bucket);

  /// Moves the user's entry to the LRU front with `behaviors` as the new
  /// window (inserting/evicting as needed). Caller holds the shard lock.
  void RefreshLocked(Shard& shard, int32_t user_id,
                     const std::vector<data::BehaviorEvent>& behaviors)
      BASM_REQUIRES(shard.mu);

  /// Consumes a version-valid parked prefetch into *out; false when there
  /// is none (or a click invalidated it, which counts a discard).
  bool ConsumePrefetchLocked(Shard& shard, int32_t user_id,
                             feature_store::FeatureServer::UserFeatures* out)
      BASM_REQUIRES(shard.mu);

  feature_store::FeatureServer* server_;
  FeatureStoreConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Non-null iff config_.journal.dir is non-empty.
  std::unique_ptr<ClickJournal> journal_;
};

}  // namespace basm::feature_store

#endif  // BASM_FEATURE_STORE_FEATURE_STORE_H_
