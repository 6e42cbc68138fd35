#include "models/feature_encoder.h"

#include <algorithm>
#include <cstring>

#include "tensor/kernels.h"

namespace basm::models {

namespace ag = ::basm::autograd;

namespace {

/// Masked-mean pooling weights of one window: mask / max(1, #valid).
void PoolWeights(const float* mask, int64_t t, float* w) {
  float count = 0.0f;
  for (int64_t j = 0; j < t; ++j) count += mask[j];
  const float inv = count > 0.0f ? 1.0f / count : 0.0f;
  for (int64_t j = 0; j < t; ++j) w[j] = mask[j] * inv;
}

/// Copies row `id` of `emb`'s table to `dst`; returns the end of the copy.
float* PutRow(const nn::Embedding& emb, int32_t id, float* dst) {
  BASM_CHECK_GE(id, 0);
  BASM_CHECK_LT(id, emb.vocab_size());
  const int64_t d = emb.dim();
  std::memcpy(dst, emb.table().value().data() + id * d, d * sizeof(float));
  return dst + d;
}

}  // namespace

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
      PoolWeights(mask.data() + i * t, t, w.data() + i * t);
    }
    return w;
  };
  if ((extras & kPooled) != 0) {
    out.seq_pooled = ag::Reshape(
        ag::BatchedMatMul(
            ag::Variable::Constant(pool_weights(batch.seq_mask)), out.seq),
        {b, seq_dim()});
  }
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

FeatureEncoder::EvalFields FeatureEncoder::EncodeEval(
    const data::Batch& batch) const {
  const int64_t b = batch.size;
  const int64_t r = batch.num_requests();
  const int64_t t = batch.seq_len;
  BASM_CHECK_EQ(batch.user_dense.cols(), 3);
  BASM_CHECK_EQ(batch.item_dense.cols(), 3);
  EvalFields out;
  out.user = Tensor::Uninitialized({r, user_dim()});
  out.context = Tensor::Uninitialized({r, context_dim()});
  out.seq = Tensor::Uninitialized({r, t, seq_dim()});
  out.seq_mask = Tensor::Uninitialized({r, t});
  out.seq_filtered_pooled = Tensor::Uninitialized({r, seq_dim()});
  Tensor pool = Tensor::Uninitialized({t});
  for (int64_t q = 0; q < r; ++q) {
    const int32_t i = batch.request_row[q];
    float* user = out.user.data() + q * user_dim();
    user = PutRow(*user_id_, batch.user_id[i], user);
    user = PutRow(*gender_, batch.gender[i], user);
    user = PutRow(*age_, batch.age_bucket[i], user);
    user = PutRow(*spend_, batch.spend_bucket[i], user);
    std::memcpy(user, batch.user_dense.data() + i * 3, 3 * sizeof(float));

    float* ctx = out.context.data() + q * context_dim();
    ctx = PutRow(*hour_, batch.hour[i], ctx);
    ctx = PutRow(*time_period_, batch.time_period[i], ctx);
    ctx = PutRow(*city_, batch.city[i], ctx);
    ctx = PutRow(*geohash_, batch.geohash[i], ctx);
    PutRow(*weekday_, batch.weekday[i], ctx);

    float* seq = out.seq.data() + q * t * seq_dim();
    for (int64_t j = i * t; j < (i + 1) * t; ++j) {
      seq = PutRow(*item_id_, batch.seq_item[j], seq);
      seq = PutRow(*category_, batch.seq_category[j], seq);
      seq = PutRow(*brand_, batch.seq_brand[j], seq);
      seq = PutRow(*time_period_, batch.seq_time_period[j], seq);
      seq = PutRow(*city_, batch.seq_city[j], seq);
    }
    std::memcpy(out.seq_mask.data() + q * t, batch.seq_mask.data() + i * t,
                t * sizeof(float));
    // The same [1, T] x [T, seq_dim] product Encode runs per row.
    PoolWeights(batch.seq_filter_mask.data() + i * t, t, pool.data());
    ops::kernels::Gemm(pool.data(), out.seq.data() + q * t * seq_dim(),
                       out.seq_filtered_pooled.data() + q * seq_dim(), 1, t,
                       seq_dim());
  }

  out.item = Tensor::Uninitialized({b, item_dim()});
  out.combine = Tensor::Uninitialized({b, combine_dim()});
  out.query = Tensor::Uninitialized({b, seq_dim()});
  for (int64_t i = 0; i < b; ++i) {
    float* item = out.item.data() + i * item_dim();
    item = PutRow(*item_id_, batch.item_id[i], item);
    item = PutRow(*category_, batch.category[i], item);
    item = PutRow(*brand_, batch.brand[i], item);
    item = PutRow(*price_, batch.price_bucket[i], item);
    item = PutRow(*position_, batch.position[i], item);
    std::memcpy(item, batch.item_dense.data() + i * 3, 3 * sizeof(float));

    float* combine = out.combine.data() + i * combine_dim();
    combine = PutRow(*cross_sp_, batch.cross_spend_price[i], combine);
    PutRow(*cross_ac_, batch.cross_age_category[i], combine);

    float* query = out.query.data() + i * seq_dim();
    query = PutRow(*item_id_, batch.item_id[i], query);
    query = PutRow(*category_, batch.category[i], query);
    query = PutRow(*brand_, batch.brand[i], query);
    query = PutRow(*time_period_, batch.time_period[i], query);
    PutRow(*city_, batch.city[i], query);
  }
  return out;
}

}  // namespace basm::models
