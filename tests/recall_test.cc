// Oracle for RecallIndex's prefix-sum draws (DESIGN §18): every recalled
// list, and the RNG stream position after it, equals what a draw by
// Rng::Categorical over the city's popularity weights produces.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "data/synth.h"
#include "gtest/gtest.h"
#include "serving/recall.h"

namespace basm::serving {
namespace {

/// Recall as a Categorical draw over the weights, one call per pick.
class CategoricalRecall {
 public:
  explicit CategoricalRecall(const data::World& world) : world_(world) {
    for (int64_t c = 0; c < world.config().num_cities; ++c) {
      std::vector<double> weights;
      for (int32_t item : world.CityItems(static_cast<int32_t>(c))) {
        weights.push_back(0.2 + world.item(item).popularity);
      }
      weights_.push_back(std::move(weights));
    }
  }

  std::vector<int32_t> ByCity(int32_t city, int32_t k, Rng& rng) const {
    const std::vector<int32_t>& pool = world_.CityItems(city);
    std::vector<int32_t> out;
    int64_t guard = 0;
    while (static_cast<int32_t>(out.size()) < k && guard < 50LL * k) {
      ++guard;
      Add(pool[rng.Categorical(weights_[city])], &out);
    }
    if (static_cast<int32_t>(out.size()) < k &&
        static_cast<int32_t>(pool.size()) <= k) {
      out.assign(pool.begin(), pool.end());
    }
    return out;
  }

  std::vector<int32_t> ByGeohash(int32_t city, int32_t geohash, int32_t k,
                                 Rng& rng) const {
    std::vector<int32_t> pool;
    for (int32_t item : world_.CityItems(city)) {
      if (world_.item(item).geohash == geohash) pool.push_back(item);
    }
    if (pool.empty() || static_cast<int32_t>(pool.size()) < k / 2) {
      return ByCity(city, k, rng);
    }
    std::vector<int32_t> out;
    int64_t guard = 0;
    while (static_cast<int32_t>(out.size()) < k && guard < 50LL * k) {
      ++guard;
      Add(pool[rng.NextUint64(pool.size())], &out);
    }
    if (static_cast<int32_t>(out.size()) < k) {
      for (int32_t cand : ByCity(city, k, rng)) {
        if (static_cast<int32_t>(out.size()) >= k) break;
        Add(cand, &out);
      }
    }
    return out;
  }

 private:
  static void Add(int32_t cand, std::vector<int32_t>* out) {
    if (std::find(out->begin(), out->end(), cand) == out->end()) {
      out->push_back(cand);
    }
  }

  const data::World& world_;
  std::vector<std::vector<double>> weights_;
};

/// The serving benchmark's world: 2000 users, 1500 items, 8 cities.
data::SynthConfig EngineWorldConfig() {
  data::SynthConfig config = data::SynthConfig::Eleme();
  config.num_users = 2000;
  config.num_items = 1500;
  config.num_cities = 8;
  return config;
}

class RecallIndexTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new data::World(EngineWorldConfig());
  }
  static void TearDownTestSuite() { delete world_; }

  static data::World* world_;
};

data::World* RecallIndexTest::world_ = nullptr;

TEST_F(RecallIndexTest, ByCityMatchesCategoricalDrawsAndStream) {
  const RecallIndex recall(*world_);
  const CategoricalRecall reference(*world_);
  const int32_t num_cities =
      static_cast<int32_t>(world_->config().num_cities);
  int64_t requests = 0;
  for (int32_t k : {8, 12, 24}) {
    for (int32_t r = 0; r < 1400; ++r) {
      const int32_t city = r % num_cities;
      Rng fast(static_cast<uint64_t>(1000 * k + r));
      Rng slow = fast;
      ASSERT_EQ(recall.RecallByCity(city, k, fast),
                reference.ByCity(city, k, slow))
          << "k " << k << " request " << r;
      ASSERT_EQ(fast.NextUint64(), slow.NextUint64())
          << "k " << k << " request " << r;
      ++requests;
    }
  }
  EXPECT_GE(requests, 4000);
}

TEST_F(RecallIndexTest, SmallPoolFallsBackToWholePool) {
  // 20 items over 8 cities: some pools hold fewer items than k, so recall
  // runs out of distinct draws and returns the whole pool.
  data::SynthConfig config = EngineWorldConfig();
  config.num_users = 50;
  config.num_items = 20;
  const data::World world(config);
  const RecallIndex recall(world);
  const CategoricalRecall reference(world);
  int32_t fallbacks = 0;
  for (int32_t city = 0; city < config.num_cities; ++city) {
    for (int32_t k : {8, 12, 24}) {
      Rng fast(static_cast<uint64_t>(31 * city + k));
      Rng slow = fast;
      const std::vector<int32_t> items = recall.RecallByCity(city, k, fast);
      ASSERT_EQ(items, reference.ByCity(city, k, slow))
          << "city " << city << " k " << k;
      ASSERT_EQ(fast.NextUint64(), slow.NextUint64());
      const std::vector<int32_t>& pool = world.CityItems(city);
      if (static_cast<int32_t>(pool.size()) < k) {
        EXPECT_EQ(items, pool);
        ++fallbacks;
      }
    }
  }
  EXPECT_GT(fallbacks, 0);
}

TEST_F(RecallIndexTest, ByGeohashMatchesCategoricalDrawsAndStream) {
  const RecallIndex recall(*world_);
  const CategoricalRecall reference(*world_);
  int32_t populated = 0;
  for (int32_t u = 0; u < 600; ++u) {
    const data::World::UserProfile& user = world_->user(u);
    // Alternate the user's own cell, a populated item cell and an empty one.
    int32_t cell = user.geohash;
    if (u % 3 == 1) {
      const std::vector<int32_t>& pool = world_->CityItems(user.city);
      cell = world_->item(pool[u % pool.size()]).geohash;
      ++populated;
    } else if (u % 3 == 2) {
      cell = (1 << 14) + u;
    }
    for (int32_t k : {2, 8, 24}) {
      Rng fast(static_cast<uint64_t>(7 * u + k));
      Rng slow = fast;
      ASSERT_EQ(recall.RecallByGeohash(user.city, cell, k, fast),
                reference.ByGeohash(user.city, cell, k, slow))
          << "user " << u << " k " << k;
      ASSERT_EQ(fast.NextUint64(), slow.NextUint64());
    }
  }
  EXPECT_GT(populated, 0);
}

}  // namespace
}  // namespace basm::serving
