#include "data/synth.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/logging.h"
#include "data/geohash.h"

namespace basm::data {

namespace {

float SigmoidF(float x) { return 1.0f / (1.0f + std::exp(-x)); }

/// Time-period multiplier in [-1, 1]: positive during the active meal
/// periods (lunch/dinner), negative during breakfast/night, neutral at tea.
float TpSign(TimePeriod tp) {
  switch (tp) {
    case TimePeriod::kLunch:
    case TimePeriod::kDinner:
      return 1.0f;
    case TimePeriod::kBreakfast:
      return -0.7f;
    case TimePeriod::kNight:
      return -1.0f;
    case TimePeriod::kAfternoonTea:
      return 0.1f;
  }
  return 0.0f;
}

}  // namespace

SynthConfig SynthConfig::Eleme() { return SynthConfig{}; }

SynthConfig SynthConfig::Public() {
  SynthConfig c;
  c.name = "public-synth";
  c.seed = 20221131;
  c.num_users = 5000;
  c.num_items = 4000;
  c.num_cities = 8;
  c.num_categories = 24;
  c.num_brands = 60;
  c.requests_per_day = 900;
  c.candidates_per_request = 8;
  c.seq_len = 10;
  // Sparse clicks and weaker planted structure: the public dataset regime
  // (CTR ~1.8%, lower attainable AUC).
  c.base_logit = -5.2f;
  c.affinity_scale = 0.8f;
  c.seq_scale = 0.5f;
  c.price_scale = 0.4f;
  c.pop_scale = 0.45f;
  c.noise_scale = 0.9f;
  c.tp_modulation = 0.5f;
  c.city_modulation = 0.4f;
  return c;
}

SynthConfig SynthConfig::Fast() const {
  SynthConfig c = *this;
  c.requests_per_day = std::max<int64_t>(60, c.requests_per_day / 10);
  c.num_users = std::max<int64_t>(400, c.num_users / 10);
  c.num_items = std::max<int64_t>(300, c.num_items / 5);
  return c;
}

World::World(const SynthConfig& config) : config_(config) {
  Rng root(config_.seed);

  schema_.num_users = config_.num_users;
  schema_.num_items = config_.num_items;
  schema_.num_cities = config_.num_cities;
  schema_.num_categories = config_.num_categories;
  schema_.num_brands = config_.num_brands;
  schema_.seq_len = config_.seq_len;
  schema_.num_cross_spend_price =
      schema_.num_spend_buckets * schema_.num_price_buckets;
  schema_.num_cross_age_category =
      schema_.num_age_buckets * config_.num_categories;

  // -- City layout: activity tiers, exposure shares and CTR biases -------
  Rng city_rng = root.Fork(1);
  city_exposure_.resize(config_.num_cities);
  city_bias_.resize(config_.num_cities);
  city_activity_.resize(config_.num_cities);
  ZipfTable city_zipf(config_.num_cities, 1.0);
  for (int64_t c = 0; c < config_.num_cities; ++c) {
    city_exposure_[c] = city_zipf.Probability(c);
    city_activity_[c] =
        1.0f - static_cast<float>(c) / static_cast<float>(config_.num_cities);
    // CTR bias alternates around 0 so cities genuinely differ (Fig 2b).
    city_bias_[c] = config_.city_bias_scale *
                    static_cast<float>(city_rng.Normal(0.0, 1.0)) * 0.8f;
  }

  // -- Hour curve: meal-time peaked exposure, CTR higher at peaks --------
  for (int h = 0; h < 24; ++h) {
    double w = 0.03;
    if (h >= 7 && h <= 9) w = 0.45;          // breakfast
    else if (h >= 10 && h <= 13) w = 1.0;    // lunch peak
    else if (h >= 14 && h <= 16) w = 0.3;    // afternoon tea
    else if (h >= 17 && h <= 20) w = 0.85;   // dinner peak
    else if (h >= 21 && h <= 23) w = 0.18;   // night
    hour_exposure_[h] = w;
  }
  hour_bias_.resize(24);
  Rng hour_rng = root.Fork(2);
  for (int h = 0; h < 24; ++h) {
    float tp_component = TpSign(TimePeriodOfHour(h));
    hour_bias_[h] = config_.hour_bias_scale *
                    (0.6f * tp_component +
                     0.4f * static_cast<float>(hour_rng.Normal(0.0, 1.0)));
  }

  // -- Position bias (monotone decreasing with rank slot) ----------------
  position_bias_.resize(schema_.num_positions);
  for (int64_t p = 0; p < schema_.num_positions; ++p) {
    position_bias_[p] =
        config_.position_scale * (1.0f - 2.0f * static_cast<float>(p) /
                                            static_cast<float>(
                                                schema_.num_positions - 1));
  }

  // -- Users ---------------------------------------------------------------
  Rng user_rng = root.Fork(3);
  users_.resize(config_.num_users);
  user_sample_weights_.resize(config_.num_users);
  for (int64_t u = 0; u < config_.num_users; ++u) {
    UserProfile& up = users_[u];
    up.city = static_cast<int32_t>(user_rng.Categorical(
        std::vector<double>(city_exposure_.begin(), city_exposure_.end())));
    up.gender = static_cast<int32_t>(user_rng.NextUint64(3));
    up.age_bucket = static_cast<int32_t>(user_rng.NextUint64(8));
    up.spend_bucket = static_cast<int32_t>(user_rng.NextUint64(5));
    up.taste =
        static_cast<int32_t>(user_rng.NextUint64(config_.num_taste_clusters));
    float city_act = city_activity_[up.city];
    up.activity = std::clamp(
        0.55f * city_act + 0.45f * static_cast<float>(user_rng.Uniform()),
        0.02f, 1.0f);
    // City c occupies a 1-degree square around (c, c); entities scatter
    // inside it so geohash cells within a city are coherent.
    up.lat = up.city + user_rng.Uniform(-0.4, 0.4);
    up.lon = up.city + user_rng.Uniform(-0.4, 0.4);
    uint64_t cell = Geohash::Encode(up.lat, up.lon, config_.geohash_bits);
    up.geohash = static_cast<int32_t>(cell % (1 << 14));
    up.ctr_stat =
        SigmoidF(-2.0f + 2.5f * up.activity +
                 0.3f * static_cast<float>(user_rng.Normal(0.0, 1.0)));
    up.orders_stat = std::clamp(
        up.activity + 0.15f * static_cast<float>(user_rng.Normal(0.0, 1.0)),
        0.0f, 1.5f);
    up.clicks_stat = std::clamp(
        0.8f * up.activity +
            0.2f * static_cast<float>(user_rng.Normal(0.0, 1.0)),
        0.0f, 1.5f);
    user_sample_weights_[u] = 0.2 + up.activity;
  }

  // -- Items ---------------------------------------------------------------
  Rng item_rng = root.Fork(4);
  items_.resize(config_.num_items);
  city_items_.assign(config_.num_cities, {});
  ZipfTable pop_zipf(config_.num_items, 0.8);
  for (int64_t i = 0; i < config_.num_items; ++i) {
    ItemProfile& ip = items_[i];
    ip.city = static_cast<int32_t>(item_rng.Categorical(
        std::vector<double>(city_exposure_.begin(), city_exposure_.end())));
    ip.category =
        static_cast<int32_t>(item_rng.NextUint64(config_.num_categories));
    ip.brand = static_cast<int32_t>(item_rng.NextUint64(config_.num_brands));
    ip.price_bucket =
        static_cast<int32_t>(item_rng.NextUint64(schema_.num_price_buckets));
    // Popularity follows a Zipf-like rank with noise.
    double base_pop = pop_zipf.Probability(i % config_.num_items) *
                      static_cast<double>(config_.num_items);
    ip.popularity = std::clamp(
        static_cast<float>(0.3 * base_pop + 0.5 * item_rng.Uniform()), 0.0f,
        1.0f);
    ip.lat = ip.city + item_rng.Uniform(-0.4, 0.4);
    ip.lon = ip.city + item_rng.Uniform(-0.4, 0.4);
    uint64_t cell = Geohash::Encode(ip.lat, ip.lon, config_.geohash_bits);
    ip.geohash = static_cast<int32_t>(cell % (1 << 14));
    ip.ctr_stat =
        SigmoidF(-2.2f + 1.8f * ip.popularity +
                 0.2f * static_cast<float>(item_rng.Normal(0.0, 1.0)));
    ip.shop_score = static_cast<float>(item_rng.Uniform(0.55, 1.0));
    city_items_[ip.city].push_back(static_cast<int32_t>(i));
  }
  // Every city needs a non-empty pool for recall.
  for (int64_t c = 0; c < config_.num_cities; ++c) {
    if (city_items_[c].empty()) {
      city_items_[c].push_back(
          static_cast<int32_t>(item_rng.NextUint64(config_.num_items)));
    }
  }

  schema_.num_geohash = 1 << 14;
}

bool World::IsPreferredCategory(int32_t taste, TimePeriod tp,
                                int32_t category) const {
  // Three preferred categories per (taste, time-period) cell; deterministic
  // so it is a stable learnable structure.
  int32_t tp_i = static_cast<int32_t>(tp);
  for (int32_t k = 0; k < 3; ++k) {
    int32_t pref = static_cast<int32_t>(
        (taste * 7 + tp_i * 3 + k * 11) %
        static_cast<int32_t>(config_.num_categories));
    if (pref == category) return true;
  }
  return false;
}

float World::UserSideWeight(TimePeriod tp, int32_t city) const {
  // User-side effects strengthen in active periods and active cities.
  float tp_term = 1.0f + config_.tp_modulation * TpSign(tp);
  float city_term =
      1.0f + config_.city_modulation * (city_activity_[city] - 0.5f) * 2.0f;
  return tp_term * city_term;
}

float World::ItemSideWeight(TimePeriod tp, int32_t city) const {
  // Item-side (popularity/context) effects move inversely.
  float tp_term = 1.0f - 0.8f * config_.tp_modulation * TpSign(tp);
  float city_term =
      1.0f - 0.8f * config_.city_modulation * (city_activity_[city] - 0.5f) *
                 2.0f;
  return tp_term * city_term;
}

float World::ClickLogit(int32_t user_id, int32_t item_id, int32_t hour,
                        int32_t position, int32_t context_city,
                        const std::vector<BehaviorEvent>& recent_behaviors,
                        float noise) const {
  BASM_CHECK_GE(position, 0);
  BASM_CHECK_LT(position, schema_.num_positions)
      << "position " << position << " has no position-bias slot";
  const UserProfile& u = users_[user_id];
  const ItemProfile& it = items_[item_id];
  TimePeriod tp = TimePeriodOfHour(hour);

  float w_user = UserSideWeight(tp, context_city);
  float w_item = ItemSideWeight(tp, context_city);

  // User-taste affinity with the candidate's category.
  float affinity =
      IsPreferredCategory(u.taste, tp, it.category) ? 1.0f : -0.25f;

  // Sequence match: fraction of recent behaviors sharing the candidate's
  // category (time-period-matching behaviors count double — the structure
  // StSTL's filtered behaviors exploit).
  float seq_match = 0.0f;
  if (!recent_behaviors.empty()) {
    float num = 0.0f, den = 0.0f;
    for (const BehaviorEvent& b : recent_behaviors) {
      float w = (b.time_period == static_cast<int32_t>(tp)) ? 2.0f : 1.0f;
      den += w;
      if (b.category == it.category) num += w;
    }
    seq_match = num / std::max(den, 1.0f);
  }

  // Price fit: distance between the user's spend tier and the item's price
  // tier (both on a [0,1] scale).
  float spend = static_cast<float>(u.spend_bucket) /
                static_cast<float>(schema_.num_spend_buckets - 1);
  float price = static_cast<float>(it.price_bucket) /
                static_cast<float>(schema_.num_price_buckets - 1);
  float price_fit = 1.0f - 2.0f * std::abs(spend - price);

  // Sign-flipping taste drift: at active meal periods users lean toward
  // pricier food, at breakfast/night toward cheaper. The effect averages to
  // ~zero over a day, so a context-blind parameter set cannot exploit it —
  // the cleanest separator between static and adaptive models.
  float tp_price_dir = config_.tp_modulation * TpSign(tp);

  float logit =
      config_.base_logit + hour_bias_[hour] + city_bias_[context_city] +
      w_user * (config_.affinity_scale * affinity +
                config_.seq_scale * seq_match) +
      w_item * (config_.pop_scale * (2.0f * it.popularity - 1.0f) +
                config_.price_scale * price_fit) +
      config_.price_scale * tp_price_dir * (2.0f * price - 1.0f) +
      position_bias_[position] + config_.noise_scale * noise;
  return logit;
}

float World::ClickProbability(int32_t user_id, int32_t item_id, int32_t hour,
                              int32_t position, int32_t context_city,
                              const std::vector<BehaviorEvent>& behaviors,
                              float noise) const {
  return SigmoidF(ClickLogit(user_id, item_id, hour, position, context_city,
                             behaviors, noise));
}

std::vector<BehaviorEvent> World::SampleHistory(int32_t user_id, int64_t len,
                                                Rng& rng) const {
  const UserProfile& u = users_[user_id];
  std::vector<BehaviorEvent> history;
  history.reserve(len);
  const std::vector<int32_t>& pool = city_items_[u.city];
  for (int64_t k = 0; k < len; ++k) {
    int32_t hour = SampleHour(rng);
    TimePeriod tp = TimePeriodOfHour(hour);
    // Users mostly clicked items matching their planted preference.
    int32_t item_id = -1;
    for (int attempt = 0; attempt < 12; ++attempt) {
      int32_t cand = pool[rng.NextUint64(pool.size())];
      if (IsPreferredCategory(u.taste, tp, items_[cand].category) ||
          attempt == 11 || rng.Bernoulli(0.15)) {
        item_id = cand;
        break;
      }
    }
    const ItemProfile& it = items_[item_id];
    BehaviorEvent ev;
    ev.item_id = item_id;
    ev.category = it.category;
    ev.brand = it.brand;
    ev.hour = hour;
    ev.time_period = static_cast<int32_t>(tp);
    ev.city = it.city;
    ev.geohash = it.geohash;
    history.push_back(ev);
  }
  return history;
}

int32_t World::SampleHour(Rng& rng) const {
  return static_cast<int32_t>(rng.Categorical(
      std::vector<double>(hour_exposure_.begin(), hour_exposure_.end())));
}

int32_t World::SampleUser(Rng& rng) const {
  return static_cast<int32_t>(rng.Categorical(user_sample_weights_));
}

std::vector<int32_t> World::SampleCandidates(int32_t user_id, int32_t city,
                                             TimePeriod tp, int32_t k,
                                             Rng& rng) const {
  const UserProfile& u = users_[user_id];
  const std::vector<int32_t>& pool = city_items_[city];
  std::vector<int32_t> out;
  std::unordered_set<int32_t> seen;
  // Recall mimics production: ~half of the slate matches the user's
  // preferred categories when possible, the rest is popularity-random.
  int32_t preferred_quota = k / 2;
  int guard = 0;
  while (static_cast<int32_t>(out.size()) < k &&
         guard < 60 * k) {
    ++guard;
    int32_t cand = pool[rng.NextUint64(pool.size())];
    if (seen.count(cand) > 0) continue;
    bool pref = IsPreferredCategory(u.taste, tp, items_[cand].category);
    if (static_cast<int32_t>(out.size()) < preferred_quota && !pref &&
        guard < 40 * k) {
      continue;
    }
    seen.insert(cand);
    out.push_back(cand);
  }
  // Pad with repeats-allowed picks if the pool was too small.
  while (static_cast<int32_t>(out.size()) < k) {
    out.push_back(pool[rng.NextUint64(pool.size())]);
  }
  return out;
}

Example World::MakeExample(int32_t user_id, int32_t item_id, int32_t hour,
                           int32_t weekday, int32_t position,
                           int32_t context_city, int32_t day,
                           int32_t request_id,
                           const std::vector<BehaviorEvent>& behaviors,
                           Rng& rng) const {
  const UserProfile& u = users_[user_id];
  const ItemProfile& it = items_[item_id];
  TimePeriod tp = TimePeriodOfHour(hour);

  Example e;
  e.user_id = user_id;
  e.gender = u.gender;
  e.age_bucket = u.age_bucket;
  e.spend_bucket = u.spend_bucket;
  e.user_ctr = u.ctr_stat;
  e.user_orders = u.orders_stat;
  e.user_clicks = u.clicks_stat;

  e.item_id = item_id;
  e.category = it.category;
  e.brand = it.brand;
  e.price_bucket = it.price_bucket;
  e.position = position;
  e.item_ctr = it.ctr_stat;
  e.item_pop = it.popularity;
  e.shop_score = it.shop_score;

  e.hour = hour;
  e.time_period = static_cast<int32_t>(tp);
  e.city = context_city;
  e.geohash = u.geohash;
  e.weekday = weekday;

  e.cross_spend_price = static_cast<int32_t>(
      u.spend_bucket * schema_.num_price_buckets + it.price_bucket);
  e.cross_age_category = static_cast<int32_t>(
      u.age_bucket * config_.num_categories + it.category);

  e.behaviors = behaviors;
  if (static_cast<int64_t>(e.behaviors.size()) > config_.seq_len) {
    e.behaviors.resize(config_.seq_len);
  }

  e.day = day;
  e.request_id = request_id;

  float noise = static_cast<float>(rng.Normal(0.0, 1.0));
  e.gt_prob = ClickProbability(user_id, item_id, hour, position, context_city,
                               e.behaviors, noise);
  e.label = rng.Bernoulli(e.gt_prob) ? 1.0f : 0.0f;
  return e;
}

Dataset GenerateDataset(const SynthConfig& config) {
  World world(config);
  Rng rng(config.seed ^ 0xDA7A5E7ULL);

  Dataset ds;
  ds.schema = world.schema();
  ds.test_day = config.test_day;
  ds.name = config.name;
  ds.examples.reserve(config.days * config.requests_per_day *
                      config.candidates_per_request);

  int32_t request_id = 0;
  for (int32_t day = 0; day < config.days; ++day) {
    int32_t weekday = day % 7;
    for (int64_t r = 0; r < config.requests_per_day; ++r) {
      int32_t user_id = world.SampleUser(rng);
      const World::UserProfile& u = world.user(user_id);
      int32_t hour = world.SampleHour(rng);
      TimePeriod tp = TimePeriodOfHour(hour);
      int32_t city = u.city;
      if (rng.Bernoulli(config.travel_prob)) {
        city = static_cast<int32_t>(rng.NextUint64(config.num_cities));
      }
      std::vector<BehaviorEvent> history =
          world.SampleHistory(user_id, config.seq_len, rng);
      std::vector<int32_t> candidates = world.SampleCandidates(
          user_id, city, tp, config.candidates_per_request, rng);
      for (int32_t pos = 0; pos < static_cast<int32_t>(candidates.size());
           ++pos) {
        ds.examples.push_back(world.MakeExample(
            user_id, candidates[pos], hour, weekday, pos, city, day,
            request_id, history, rng));
      }
      ++request_id;
    }
  }
  return ds;
}

}  // namespace basm::data
