#include "models/feature_encoder.h"

#include <algorithm>

namespace basm::models {

namespace ag = ::basm::autograd;

FeatureEncoder::FeatureEncoder(const data::Schema& schema, int64_t embed_dim,
                               Rng& rng)
    : embed_dim_(embed_dim) {
  auto make = [&](const char* name, int64_t vocab) {
    auto emb = std::make_unique<nn::Embedding>(vocab, embed_dim_, rng);
    RegisterModule(name, emb.get());
    return emb;
  };
  user_id_ = make("user_id", schema.num_users);
  gender_ = make("gender", schema.num_genders);
  age_ = make("age", schema.num_age_buckets);
  spend_ = make("spend", schema.num_spend_buckets);

  item_id_ = make("item_id", schema.num_items);
  category_ = make("category", schema.num_categories);
  brand_ = make("brand", schema.num_brands);
  price_ = make("price", schema.num_price_buckets);
  position_ = make("position", schema.num_positions);

  hour_ = make("hour", schema.num_hours);
  time_period_ = make("time_period", schema.num_time_periods);
  city_ = make("city", schema.num_cities);
  geohash_ = make("geohash", schema.num_geohash);
  weekday_ = make("weekday", schema.num_weekdays);

  cross_sp_ = make("cross_spend_price", schema.num_cross_spend_price);
  cross_ac_ = make("cross_age_category", schema.num_cross_age_category);
}

FeatureEncoder::FieldEmbeddings FeatureEncoder::Encode(
    const data::Batch& batch, Extras extras) const {
  FieldEmbeddings out = EncodeRequestSide(batch, extras);
  FieldEmbeddings candidate = EncodeCandidateSide(batch, extras);
  out.item = candidate.item;
  out.combine = candidate.combine;
  out.query = candidate.query;
  return out;
}

FeatureEncoder::FieldEmbeddings FeatureEncoder::EncodeRequestSide(
    const data::Batch& batch, Extras extras) const {
  int64_t b = batch.size;
  int64_t t = batch.seq_len;

  FieldEmbeddings out;
  out.user = ag::ConcatCols({
      user_id_->Forward(batch.user_id),
      gender_->Forward(batch.gender),
      age_->Forward(batch.age_bucket),
      spend_->Forward(batch.spend_bucket),
      ag::Variable::Constant(batch.user_dense),
  });
  out.context = ag::ConcatCols({
      hour_->Forward(batch.hour),
      time_period_->Forward(batch.time_period),
      city_->Forward(batch.city),
      geohash_->Forward(batch.geohash),
      weekday_->Forward(batch.weekday),
  });

  // Sequence: flattened [B*T] lookups concatenated to [B*T, 5D].
  ag::Variable seq_flat = ag::ConcatCols({
      item_id_->Forward(batch.seq_item),
      category_->Forward(batch.seq_category),
      brand_->Forward(batch.seq_brand),
      time_period_->Forward(batch.seq_time_period),
      city_->Forward(batch.seq_city),
  });
  out.seq = ag::Reshape(seq_flat, {b, t, seq_dim()});

  // Masked mean pooling: weights[b, j] = mask / max(1, #valid).
  auto pool_weights = [&](const Tensor& mask) {
    Tensor w({b, 1, t});
    for (int64_t i = 0; i < b; ++i) {
      float count = 0.0f;
      for (int64_t j = 0; j < t; ++j) count += mask[i * t + j];
      float inv = count > 0.0f ? 1.0f / count : 0.0f;
      for (int64_t j = 0; j < t; ++j) w[i * t + j] = mask[i * t + j] * inv;
    }
    return w;
  };
  out.seq_pooled = ag::Reshape(
      ag::BatchedMatMul(ag::Variable::Constant(pool_weights(batch.seq_mask)),
                        out.seq),
      {b, seq_dim()});
  if ((extras & kFilteredPool) != 0) {
    out.seq_filtered_pooled = ag::Reshape(
        ag::BatchedMatMul(
            ag::Variable::Constant(pool_weights(batch.seq_filter_mask)),
            out.seq),
        {b, seq_dim()});
  }
  return out;
}

FeatureEncoder::FieldEmbeddings FeatureEncoder::EncodeCandidateSide(
    const data::Batch& batch, Extras extras) const {
  FieldEmbeddings out;
  out.item = ag::ConcatCols({
      item_id_->Forward(batch.item_id),
      category_->Forward(batch.category),
      brand_->Forward(batch.brand),
      price_->Forward(batch.price_bucket),
      position_->Forward(batch.position),
      ag::Variable::Constant(batch.item_dense),
  });
  out.combine = ag::ConcatCols({
      cross_sp_->Forward(batch.cross_spend_price),
      cross_ac_->Forward(batch.cross_age_category),
  });

  // Candidate-as-query in sequence space: the same tables embed the
  // candidate's item/category/brand and the *current* time-period/city.
  if ((extras & kQuery) != 0) {
    out.query = ag::ConcatCols({
        item_id_->Forward(batch.item_id),
        category_->Forward(batch.category),
        brand_->Forward(batch.brand),
        time_period_->Forward(batch.time_period),
        city_->Forward(batch.city),
    });
  }
  return out;
}

}  // namespace basm::models
