#include "data/batch.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "tensor/tensor_ops.h"

namespace basm::data {
namespace {

/// True when `width` consecutive elements at rows `a` and `b` of a
/// row-major buffer are bitwise equal.
template <typename T>
bool SameRow(const T* data, int64_t width, int64_t a, int64_t b) {
  return std::memcmp(data + a * width, data + b * width,
                     static_cast<size_t>(width) * sizeof(T)) == 0;
}

/// True when rows `a` and `b` agree on every request-side column: the user
/// field, the context field, the behavior sequence and both of its masks.
bool SameRequestSide(const Batch& batch, int64_t a, int64_t b) {
  for (const std::vector<int32_t>* col :
       {&batch.user_id, &batch.gender, &batch.age_bucket, &batch.spend_bucket,
        &batch.hour, &batch.time_period, &batch.city, &batch.geohash,
        &batch.weekday}) {
    if ((*col)[a] != (*col)[b]) return false;
  }
  const int64_t t = batch.seq_len;
  for (const std::vector<int32_t>* col :
       {&batch.seq_item, &batch.seq_category, &batch.seq_brand,
        &batch.seq_time_period, &batch.seq_city}) {
    if (!SameRow(col->data(), t, a, b)) return false;
  }
  return SameRow(batch.user_dense.data(), batch.user_dense.cols(), a, b) &&
         SameRow(batch.seq_mask.data(), t, a, b) &&
         SameRow(batch.seq_filter_mask.data(), t, a, b);
}

}  // namespace

Batch MakeBatch(const std::vector<const Example*>& examples,
                const Schema& schema) {
  BASM_CHECK(!examples.empty());
  int64_t b = static_cast<int64_t>(examples.size());
  int64_t t = schema.seq_len;

  Batch batch;
  batch.size = b;
  batch.seq_len = t;
  batch.user_dense = Tensor({b, schema.user_dense_dim});
  batch.item_dense = Tensor({b, schema.item_dense_dim});
  batch.seq_mask = Tensor({b, t});
  batch.seq_filter_mask = Tensor({b, t});
  batch.labels = Tensor({b});

  auto reserve_all = [&](auto&... vecs) { (vecs.reserve(b), ...); };
  reserve_all(batch.user_id, batch.gender, batch.age_bucket,
              batch.spend_bucket, batch.item_id, batch.category, batch.brand,
              batch.price_bucket, batch.position, batch.hour,
              batch.time_period, batch.city, batch.geohash, batch.weekday,
              batch.cross_spend_price, batch.cross_age_category,
              batch.request_id);
  batch.seq_item.reserve(b * t);
  batch.seq_category.reserve(b * t);
  batch.seq_brand.reserve(b * t);
  batch.seq_time_period.reserve(b * t);
  batch.seq_city.reserve(b * t);
  batch.gt_prob.reserve(b);

  for (int64_t i = 0; i < b; ++i) {
    const Example& e = *examples[i];
    batch.user_id.push_back(e.user_id);
    batch.gender.push_back(e.gender);
    batch.age_bucket.push_back(e.age_bucket);
    batch.spend_bucket.push_back(e.spend_bucket);
    batch.user_dense.at(i, 0) = e.user_ctr;
    batch.user_dense.at(i, 1) = e.user_orders;
    batch.user_dense.at(i, 2) = e.user_clicks;

    batch.item_id.push_back(e.item_id);
    batch.category.push_back(e.category);
    batch.brand.push_back(e.brand);
    batch.price_bucket.push_back(e.price_bucket);
    batch.position.push_back(e.position);
    batch.item_dense.at(i, 0) = e.item_ctr;
    batch.item_dense.at(i, 1) = e.item_pop;
    batch.item_dense.at(i, 2) = e.shop_score;

    batch.hour.push_back(e.hour);
    batch.time_period.push_back(e.time_period);
    batch.city.push_back(e.city);
    batch.geohash.push_back(e.geohash);
    batch.weekday.push_back(e.weekday);

    batch.cross_spend_price.push_back(e.cross_spend_price);
    batch.cross_age_category.push_back(e.cross_age_category);

    int64_t valid = std::min<int64_t>(t, e.behaviors.size());
    for (int64_t j = 0; j < t; ++j) {
      if (j < valid) {
        const BehaviorEvent& ev = e.behaviors[j];
        batch.seq_item.push_back(ev.item_id);
        batch.seq_category.push_back(ev.category);
        batch.seq_brand.push_back(ev.brand);
        batch.seq_time_period.push_back(ev.time_period);
        batch.seq_city.push_back(ev.city);
        batch.seq_mask.at(i, j) = 1.0f;
        bool matches = (ev.time_period == e.time_period) &&
                       (ev.city == e.city);
        batch.seq_filter_mask.at(i, j) = matches ? 1.0f : 0.0f;
      } else {
        // Padding rows point at id 0; the mask removes their effect.
        batch.seq_item.push_back(0);
        batch.seq_category.push_back(0);
        batch.seq_brand.push_back(0);
        batch.seq_time_period.push_back(0);
        batch.seq_city.push_back(0);
      }
    }

    batch.labels[i] = e.label;
    batch.request_id.push_back(e.request_id);
    batch.gt_prob.push_back(e.gt_prob);
  }

  batch.row_request.reserve(b);
  for (int64_t i = 0; i < b; ++i) {
    if (i == 0 || !SameRequestSide(batch, i - 1, i)) {
      batch.request_row.push_back(static_cast<int32_t>(i));
    }
    batch.row_request.push_back(
        static_cast<int32_t>(batch.request_row.size() - 1));
  }
  return batch;
}

Batch RequestBlock(const Batch& batch) {
  const int64_t r = batch.num_requests();
  const int64_t t = batch.seq_len;
  BASM_CHECK_GT(r, 0);
  Batch out;
  out.size = r;
  out.seq_len = t;
  out.user_dense = ops::GatherRows(batch.user_dense, batch.request_row);
  out.seq_mask = ops::GatherRows(batch.seq_mask, batch.request_row);
  out.seq_filter_mask =
      ops::GatherRows(batch.seq_filter_mask, batch.request_row);
  auto take = [&](const std::vector<int32_t>& col, std::vector<int32_t>* dst) {
    dst->reserve(r);
    for (int32_t row : batch.request_row) dst->push_back(col[row]);
  };
  take(batch.user_id, &out.user_id);
  take(batch.gender, &out.gender);
  take(batch.age_bucket, &out.age_bucket);
  take(batch.spend_bucket, &out.spend_bucket);
  take(batch.hour, &out.hour);
  take(batch.time_period, &out.time_period);
  take(batch.city, &out.city);
  take(batch.geohash, &out.geohash);
  take(batch.weekday, &out.weekday);
  auto take_seq = [&](const std::vector<int32_t>& col,
                      std::vector<int32_t>* dst) {
    dst->reserve(r * t);
    for (int32_t row : batch.request_row) {
      dst->insert(dst->end(), col.begin() + row * t,
                  col.begin() + (row + 1) * t);
    }
  };
  take_seq(batch.seq_item, &out.seq_item);
  take_seq(batch.seq_category, &out.seq_category);
  take_seq(batch.seq_brand, &out.seq_brand);
  take_seq(batch.seq_time_period, &out.seq_time_period);
  take_seq(batch.seq_city, &out.seq_city);
  return out;
}

Batcher::Batcher(std::vector<const Example*> examples, const Schema& schema,
                 int64_t batch_size, uint64_t shuffle_seed)
    : examples_(std::move(examples)),
      schema_(schema),
      batch_size_(batch_size),
      rng_(shuffle_seed) {
  BASM_CHECK_GT(batch_size_, 0);
  BASM_CHECK(!examples_.empty());
  Reset();
}

void Batcher::Reset() {
  order_ = rng_.Permutation(static_cast<int64_t>(examples_.size()));
  cursor_ = 0;
}

bool Batcher::Next(Batch* batch) {
  if (cursor_ >= static_cast<int64_t>(examples_.size())) return false;
  int64_t end = std::min<int64_t>(cursor_ + batch_size_,
                                  static_cast<int64_t>(examples_.size()));
  std::vector<const Example*> slice;
  slice.reserve(end - cursor_);
  for (int64_t i = cursor_; i < end; ++i) {
    slice.push_back(examples_[order_[i]]);
  }
  cursor_ = end;
  *batch = MakeBatch(slice, schema_);
  return true;
}

}  // namespace basm::data
