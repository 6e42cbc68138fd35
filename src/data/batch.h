#ifndef BASM_DATA_BATCH_H_
#define BASM_DATA_BATCH_H_

#include <vector>

#include "common/rng.h"
#include "data/schema.h"
#include "tensor/tensor.h"

namespace basm::data {

/// Column-oriented minibatch ready for embedding lookups. Sequence columns
/// are flattened [B*T]; `seq_mask` marks valid positions and
/// `seq_filter_mask` marks positions whose time-period matches the request
/// context (and whose city matches) — the paper's spatiotemporally-filtered
/// behavior u_i consumed by StSTL.
///
/// Every column holds one entry per row (candidate). The request block
/// groups the rows into R requests: rows that share the request side — the
/// user field, the context field, the behavior sequence and both of its
/// masks — belong to one request, so a model can encode that side once per
/// request and broadcast it (DESIGN §17).
struct Batch {
  int64_t size = 0;
  int64_t seq_len = 0;

  // user field
  std::vector<int32_t> user_id, gender, age_bucket, spend_bucket;
  Tensor user_dense;  // [B, 3]
  // candidate item field
  std::vector<int32_t> item_id, category, brand, price_bucket, position;
  Tensor item_dense;  // [B, 3]
  // spatiotemporal context field
  std::vector<int32_t> hour, time_period, city, geohash, weekday;
  // combine field
  std::vector<int32_t> cross_spend_price, cross_age_category;
  // behavior sequence, flattened row-major [B*T]
  std::vector<int32_t> seq_item, seq_category, seq_brand, seq_time_period,
      seq_city;
  Tensor seq_mask;         // [B, T], 1 = valid
  Tensor seq_filter_mask;  // [B, T], 1 = valid AND spatiotemporally matching

  // labels & grouping metadata
  Tensor labels;  // [B]
  std::vector<int32_t> request_id;
  std::vector<float> gt_prob;

  // request block
  std::vector<int32_t> row_request;  // [B], request of each row
  std::vector<int32_t> request_row;  // [R], first row of each request

  int64_t num_requests() const {
    return static_cast<int64_t>(request_row.size());
  }
};

/// Assembles a batch from example pointers. Consecutive examples whose
/// request-side columns are all equal form one request of the request
/// block; `request_id` plays no part, since two wire requests in one
/// serving micro-batch may share it.
Batch MakeBatch(const std::vector<const Example*>& examples,
                const Schema& schema);

/// The request-side columns of each request's first row, as a batch of R
/// rows: the user, context and behavior-sequence columns with both masks.
/// The candidate columns, labels, metadata and request block stay empty.
Batch RequestBlock(const Batch& batch);

/// Shuffling minibatch iterator over a fixed example list.
class Batcher {
 public:
  Batcher(std::vector<const Example*> examples, const Schema& schema,
          int64_t batch_size, uint64_t shuffle_seed);

  /// Starts a new epoch (reshuffles when shuffle was enabled).
  void Reset();

  /// Fills `batch` with the next minibatch; returns false at epoch end.
  /// The final partial batch is emitted.
  bool Next(Batch* batch);

  int64_t num_examples() const {
    return static_cast<int64_t>(examples_.size());
  }
  int64_t batches_per_epoch() const {
    return (num_examples() + batch_size_ - 1) / batch_size_;
  }

 private:
  std::vector<const Example*> examples_;
  const Schema schema_;
  int64_t batch_size_;
  Rng rng_;
  std::vector<int32_t> order_;
  int64_t cursor_ = 0;
};

}  // namespace basm::data

#endif  // BASM_DATA_BATCH_H_
