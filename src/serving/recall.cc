#include "serving/recall.h"

#include <algorithm>

#include "common/logging.h"

namespace basm::serving {

namespace {

/// Appends `cand` unless it was already picked. A linear scan: a recall
/// holds a few dozen items, where a hash set costs more than it saves.
void AppendDistinct(int32_t cand, std::vector<int32_t>* out) {
  if (std::find(out->begin(), out->end(), cand) == out->end()) {
    out->push_back(cand);
  }
}

}  // namespace

RecallIndex::RecallIndex(const data::World& world) {
  int64_t num_cities = world.config().num_cities;
  by_city_.resize(num_cities);
  city_cumulative_.resize(num_cities);
  for (int64_t c = 0; c < num_cities; ++c) {
    // The weights never change after construction, so Rng::Categorical's
    // per-draw checks (every weight >= 0, a positive total) run here once.
    double acc = 0.0;
    for (int32_t item : world.CityItems(static_cast<int32_t>(c))) {
      const double weight = 0.2 + world.item(item).popularity;
      BASM_CHECK_GE(weight, 0.0);
      acc += weight;
      by_city_[c].push_back(item);
      city_cumulative_[c].push_back(acc);
      int64_t key = c * (1LL << 32) + world.item(item).geohash;
      by_cell_[key].push_back(item);
    }
    if (!by_city_[c].empty()) BASM_CHECK_GT(acc, 0.0);
  }
}

int32_t RecallIndex::DrawFromCity(int32_t city, Rng& rng) const {
  const std::vector<double>& cum = city_cumulative_[city];
  BASM_CHECK(!cum.empty()) << "city " << city << " has no items to recall";
  // Categorical's draw: the first i with target < w[0] + ... + w[i], or the
  // last item when rounding leaves the target at or past the total.
  const double target = rng.Uniform() * cum.back();
  const size_t i = static_cast<size_t>(
      std::upper_bound(cum.begin(), cum.end(), target) - cum.begin());
  return by_city_[city][std::min(i, cum.size() - 1)];
}

std::vector<int32_t> RecallIndex::RecallByCity(int32_t city, int32_t k,
                                               Rng& rng) const {
  BASM_CHECK_GE(city, 0);
  BASM_CHECK_LT(city, static_cast<int64_t>(by_city_.size()));
  const auto& pool = by_city_[city];
  std::vector<int32_t> out;
  out.reserve(std::max(k, 0));
  int64_t guard = 0;
  while (static_cast<int32_t>(out.size()) < k &&
         guard < 50LL * k) {
    ++guard;
    AppendDistinct(DrawFromCity(city, rng), &out);
  }
  // Small pools: allow duplicates-free exhaustion to fall short gracefully.
  if (static_cast<int32_t>(out.size()) < k &&
      static_cast<int32_t>(pool.size()) <= k) {
    out.assign(pool.begin(), pool.end());
  }
  return out;
}

std::vector<int32_t> RecallIndex::RecallByGeohash(int32_t city,
                                                  int32_t geohash, int32_t k,
                                                  Rng& rng) const {
  int64_t key = static_cast<int64_t>(city) * (1LL << 32) + geohash;
  auto it = by_cell_.find(key);
  if (it == by_cell_.end() ||
      static_cast<int32_t>(it->second.size()) < k / 2) {
    return RecallByCity(city, k, rng);
  }
  const auto& pool = it->second;
  std::vector<int32_t> out;
  out.reserve(std::max(k, 0));
  int64_t guard = 0;
  while (static_cast<int32_t>(out.size()) < k && guard < 50LL * k) {
    ++guard;
    AppendDistinct(pool[rng.NextUint64(pool.size())], &out);
  }
  if (static_cast<int32_t>(out.size()) < k) {
    auto extra = RecallByCity(city, k, rng);
    for (int32_t cand : extra) {
      if (static_cast<int32_t>(out.size()) >= k) break;
      AppendDistinct(cand, &out);
    }
  }
  return out;
}

}  // namespace basm::serving
