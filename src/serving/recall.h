#ifndef BASM_SERVING_RECALL_H_
#define BASM_SERVING_RECALL_H_

#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "data/synth.h"

namespace basm::serving {

/// Location-based candidate recall (the "recalled based on Location-based
/// Service" stage of Fig 13). Items are indexed by city and by coarse
/// geohash cell; a request recalls a popularity-weighted sample of items
/// near the user.
class RecallIndex {
 public:
  explicit RecallIndex(const data::World& world);

  /// Recalls up to `k` distinct items in `city`, favoring popular items
  /// (a production recall stage is itself popularity-biased). Each pick
  /// draws the same item, and consumes the same RNG stream, as
  /// `rng.Categorical` over the city's popularity weights.
  std::vector<int32_t> RecallByCity(int32_t city, int32_t k, Rng& rng) const;

  /// Recalls items whose geohash cell matches the request's cell, falling
  /// back to the whole city when the cell has too few items.
  std::vector<int32_t> RecallByGeohash(int32_t city, int32_t geohash,
                                       int32_t k, Rng& rng) const;

  /// Number of indexed geohash cells (introspection).
  int64_t NumCells() const { return static_cast<int64_t>(by_cell_.size()); }

 private:
  /// One popularity-weighted pick from city `city`'s pool.
  int32_t DrawFromCity(int32_t city, Rng& rng) const;

  std::vector<std::vector<int32_t>> by_city_;
  /// Per city, the running sums of the popularity weights in pool order:
  /// cum[i] = w[0] + ... + w[i], added left to right as Rng::Categorical
  /// adds them (DESIGN §18).
  std::vector<std::vector<double>> city_cumulative_;
  std::unordered_map<int64_t, std::vector<int32_t>> by_cell_;
};

}  // namespace basm::serving

#endif  // BASM_SERVING_RECALL_H_
