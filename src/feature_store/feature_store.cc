#include "feature_store/feature_store.h"

#include <bit>
#include <utility>

#include "common/logging.h"

namespace basm::feature_store {

namespace {
/// SplitMix64 finalizer — the same mixer the net router's hash ring uses.
/// Sequential user ids spread uniformly across shards instead of striping.
uint64_t MixUser(int32_t user_id) {
  uint64_t x = static_cast<uint64_t>(static_cast<uint32_t>(user_id)) +
               0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
}  // namespace

FeatureStore::FeatureStore(feature_store::FeatureServer* server,
                           FeatureStoreConfig config)
    : server_(server), config_(config) {
  BASM_CHECK(server_ != nullptr);
  BASM_CHECK_GT(config_.num_shards, 0);
  BASM_CHECK_GE(config_.capacity_per_shard, 0);
  BASM_CHECK_GE(config_.max_stale_age_micros, 0);
  shards_.reserve(config_.num_shards);
  for (int32_t i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (!config_.journal.dir.empty()) {
    journal_ = std::make_unique<ClickJournal>(config_.journal);
  }
}

int FeatureStore::StalenessBucket(int64_t age_micros) {
  if (age_micros <= 0) return 0;
  int bucket = std::bit_width(static_cast<uint64_t>(age_micros));
  return bucket < kStalenessBuckets ? bucket : kStalenessBuckets - 1;
}

int64_t FeatureStore::StalenessBucketValue(int bucket) {
  if (bucket <= 0) return 0;
  // Bucket b holds ages in [2^(b-1), 2^b); report the midpoint.
  const int64_t lo = int64_t{1} << (bucket - 1);
  return lo + lo / 2;
}

int32_t FeatureStore::ShardOf(int32_t user_id) const {
  return static_cast<int32_t>(MixUser(user_id) %
                              static_cast<uint64_t>(config_.num_shards));
}

void FeatureStore::RefreshLocked(
    Shard& shard, int32_t user_id,
    const std::vector<data::BehaviorEvent>& behaviors) {
  if (!cache_enabled()) return;
  auto it = shard.index.find(user_id);
  if (it != shard.index.end()) {
    // Refresh in place and move to the front (most recently fetched).
    it->second->behaviors.assign(behaviors.begin(), behaviors.end());
    it->second->fetched_at = Clock::now();
    it->second->prefetch_fresh = false;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (static_cast<int64_t>(shard.lru.size()) >= config_.capacity_per_shard) {
    // Reuse the victim's node (and its buffer capacity) for the new user.
    auto victim = std::prev(shard.lru.end());
    shard.index.erase(victim->user_id);
    ++shard.evictions;
    victim->user_id = user_id;
    victim->behaviors.assign(behaviors.begin(), behaviors.end());
    victim->fetched_at = Clock::now();
    victim->prefetch_fresh = false;
    shard.lru.splice(shard.lru.begin(), shard.lru, victim);
    shard.index[user_id] = shard.lru.begin();
  } else {
    Entry entry;
    entry.user_id = user_id;
    entry.behaviors = behaviors;
    entry.fetched_at = Clock::now();
    shard.lru.push_front(std::move(entry));
    shard.index[user_id] = shard.lru.begin();
  }
  ++shard.insertions;
}

bool FeatureStore::ConsumePrefetchLocked(
    Shard& shard, int32_t user_id,
    feature_store::FeatureServer::UserFeatures* out) {
  auto it = shard.index.find(user_id);
  if (it == shard.index.end() || !it->second->prefetch_fresh) return false;
  it->second->prefetch_fresh = false;  // one-shot either way
  auto ver = shard.versions.find(user_id);
  uint64_t current = ver == shard.versions.end() ? 0 : ver->second;
  if (it->second->prefetch_version != current) {
    // A click landed after the prefetch: the parked window predates it and
    // must not be served (it would break fetch bit-identity).
    ++shard.prefetch_discarded;
    return false;
  }
  out->user_id = user_id;
  out->behaviors = it->second->behaviors;
  ++shard.prefetch_hits;
  // Consuming counts as a fetch for recency purposes.
  it->second->fetched_at = Clock::now();
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return true;
}

feature_store::FeatureServer::UserFeatures FeatureStore::GetFeatures(
    int32_t user_id) {
  Shard& shard = *shards_[ShardOf(user_id)];
  MutexLock lock(&shard.mu);
  feature_store::FeatureServer::UserFeatures uf;
  if (ConsumePrefetchLocked(shard, user_id, &uf)) return uf;
  uf = server_->GetUserFeatures(user_id);
  ++shard.fresh_fetches;
  RefreshLocked(shard, user_id, uf.behaviors);
  return uf;
}

StatusOr<feature_store::FeatureServer::UserFeatures> FeatureStore::FetchFeatures(
    int32_t user_id) {
  Shard& shard = *shards_[ShardOf(user_id)];
  {
    MutexLock lock(&shard.mu);
    feature_store::FeatureServer::UserFeatures uf;
    if (ConsumePrefetchLocked(shard, user_id, &uf)) return uf;
  }
  // The server round-trip (injected latency and faults) runs outside the
  // shard lock (same discipline as Prefetch) so concurrent fetches and
  // clicks on this shard overlap it. The window itself is copied under the
  // lock, which RecordClick holds while it mutates the server's window, so
  // the copy is current and safe to cache.
  Status admitted = server_->AdmitFetch(user_id);
  MutexLock lock(&shard.mu);
  if (!admitted.ok()) {
    ++shard.fetch_failures;
    return admitted;
  }
  feature_store::FeatureServer::UserFeatures uf =
      server_->GetUserFeatures(user_id);
  ++shard.fresh_fetches;
  RefreshLocked(shard, user_id, uf.behaviors);
  return uf;
}

std::optional<StaleFeatures> FeatureStore::LastKnownFeatures(
    int32_t user_id, bool* expired) {
  if (expired != nullptr) *expired = false;
  Shard& shard = *shards_[ShardOf(user_id)];
  MutexLock lock(&shard.mu);
  auto it = shard.index.find(user_id);
  if (it == shard.index.end()) {
    ++shard.stale_misses;
    return std::nullopt;
  }
  const int64_t age_micros =
      std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now() - it->second->fetched_at)
          .count();
  if (config_.max_stale_age_micros > 0 &&
      age_micros > config_.max_stale_age_micros) {
    // Past the TTL budget: refuse the window so the caller degrades to
    // empty. Counted separately from misses so the export can tell "never
    // had it" from "had it but it rotted".
    ++shard.stale_expired;
    if (expired != nullptr) *expired = true;
    return std::nullopt;
  }
  ++shard.stale_hits;
  ++shard.staleness_hist[StalenessBucket(age_micros)];
  StaleFeatures stale;
  stale.behaviors = it->second->behaviors;
  stale.age_micros = age_micros;
  return stale;
}

void FeatureStore::RecordClick(int32_t user_id,
                               const data::BehaviorEvent& event) {
  if (journal_ != nullptr) {
    // Write-ahead: the click must be durable (in the kernel page cache at
    // minimum) before it mutates any state. A failed append — injected or
    // real — drops the click entirely rather than applying it un-journaled;
    // the journal's write_failures counter carries the loss and the request
    // path never sees an error.
    if (!journal_->AppendRecord(user_id, event).ok()) return;
  }
  Shard& shard = *shards_[ShardOf(user_id)];
  MutexLock lock(&shard.mu);
  ++shard.versions[user_id];
  server_->RecordClick(user_id, event);
}

Status FeatureStore::RecoverFromJournal(
    const std::function<void(int32_t, const data::BehaviorEvent&)>& republish,
    ReplayReport* report) {
  if (journal_ == nullptr) {
    if (report != nullptr) *report = ReplayReport{};
    return Status::Ok();
  }
  return journal_->ReplayInto(
      [this, &republish](const ClickRecord& record) {
        {
          Shard& shard = *shards_[ShardOf(record.user_id)];
          MutexLock lock(&shard.mu);
          ++shard.versions[record.user_id];
          server_->RecordClick(record.user_id, record.event);
        }
        if (republish) republish(record.user_id, record.event);
      },
      report);
}

bool FeatureStore::Prefetch(int32_t user_id,
                            Clock::time_point deadline) {
  if (!cache_enabled()) return false;
  Shard& shard = *shards_[ShardOf(user_id)];
  {
    MutexLock lock(&shard.mu);
    if (Clock::now() >= deadline) {
      // The request this prefetch was for is already doomed; don't spend a
      // server round-trip on it.
      ++shard.prefetch_cancelled;
      return false;
    }
  }
  // The server round-trip runs outside the shard lock so foreground
  // fetches on this shard overlap it. The window is copied and tagged
  // with the user's version under the lock, so a click after this point
  // bumps the version and the parked window is discarded at consumption
  // instead of served.
  Status admitted = server_->AdmitFetch(user_id);
  MutexLock lock(&shard.mu);
  ++shard.prefetch_issued;
  if (!admitted.ok()) {
    ++shard.fetch_failures;
    return false;
  }
  ++shard.fresh_fetches;
  RefreshLocked(shard, user_id, server_->GetUserFeatures(user_id).behaviors);
  auto it = shard.index.find(user_id);
  auto ver = shard.versions.find(user_id);
  it->second->prefetch_fresh = true;
  it->second->prefetch_version = ver == shard.versions.end() ? 0 : ver->second;
  return true;
}

FeatureStoreStats FeatureStore::stats() const {
  FeatureStoreStats totals;
  std::array<int64_t, kStalenessBuckets> hist = {};
  int64_t served = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    totals.fresh_fetches += shard->fresh_fetches;
    totals.fetch_failures += shard->fetch_failures;
    totals.cache_entries += static_cast<int64_t>(shard->lru.size());
    totals.stale_hits += shard->stale_hits;
    totals.stale_misses += shard->stale_misses;
    totals.insertions += shard->insertions;
    totals.evictions += shard->evictions;
    totals.prefetch_issued += shard->prefetch_issued;
    totals.prefetch_hits += shard->prefetch_hits;
    totals.prefetch_discarded += shard->prefetch_discarded;
    totals.prefetch_cancelled += shard->prefetch_cancelled;
    totals.stale_expired += shard->stale_expired;
    for (int b = 0; b < kStalenessBuckets; ++b) {
      hist[b] += shard->staleness_hist[b];
      served += shard->staleness_hist[b];
    }
  }
  if (served > 0) {
    auto percentile = [&hist, served](double q) {
      const int64_t target =
          static_cast<int64_t>(q * static_cast<double>(served - 1));
      int64_t seen = 0;
      for (int b = 0; b < kStalenessBuckets; ++b) {
        seen += hist[b];
        if (seen > target) return StalenessBucketValue(b);
      }
      return StalenessBucketValue(kStalenessBuckets - 1);
    };
    totals.served_staleness_p50_micros = percentile(0.50);
    totals.served_staleness_p99_micros = percentile(0.99);
  }
  if (journal_ != nullptr) {
    const JournalStats js = journal_->stats();
    totals.journal_enabled = true;
    totals.journal_appends = js.appends;
    totals.journal_fsyncs = js.fsyncs;
    totals.journal_write_failures = js.write_failures;
    totals.journal_rotations = js.rotations;
    totals.journal_recovered = js.recovered;
    totals.journal_truncated_tail_bytes = js.truncated_tail_bytes;
  }
  return totals;
}

}  // namespace basm::feature_store
