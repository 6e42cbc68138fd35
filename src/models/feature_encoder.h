#ifndef BASM_MODELS_FEATURE_ENCODER_H_
#define BASM_MODELS_FEATURE_ENCODER_H_

#include <memory>

#include "data/batch.h"
#include "data/schema.h"
#include "nn/embedding.h"
#include "nn/module.h"

namespace basm::models {

/// Embeds a Batch into the five field representations of Table I. Every
/// model in the zoo (baselines and BASM) owns one FeatureEncoder so that
/// offline comparisons differ only in architecture above the embeddings.
///
/// Field layout (D = embed_dim):
///   user:    user_id | gender | age | spend embeddings + 3 dense  (4D+3)
///   item:    item_id | category | brand | price | position + 3 dense (5D+3)
///   context: hour | time_period | city | geohash | weekday       (5D)
///   combine: spendxprice | agexcategory crosses                  (2D)
///   seq:     per position item|category|brand|time_period|city   (5D each)
class FeatureEncoder : public nn::Module {
 public:
  FeatureEncoder(const data::Schema& schema, int64_t embed_dim, Rng& rng);

  struct FieldEmbeddings {
    autograd::Variable user;     // [B, user_dim]
    autograd::Variable item;     // [B, item_dim]
    autograd::Variable context;  // [B, context_dim]
    autograd::Variable combine;  // [B, combine_dim]
    autograd::Variable seq;      // [B, T, seq_dim]
    /// Mask-weighted mean over valid positions: [B, seq_dim].
    autograd::Variable seq_pooled;
    /// Same pooling restricted to the spatiotemporally-filtered positions
    /// (the u_i of StSTL); rows with no matching behavior are zero.
    autograd::Variable seq_filtered_pooled;
    /// The candidate projected into sequence space (the DIN query):
    /// [B, seq_dim], sharing the sequence-side embedding tables.
    autograd::Variable query;
  };

  /// The optional outputs of an encode. A model asks for the pooled
  /// fields it reads and the rest stay undefined: Wide&Deep asks for
  /// kPooled only, BASM for kFilteredPool | kQuery.
  enum Extras : unsigned {
    kFilteredPool = 1u << 0,  // seq_filtered_pooled
    kQuery = 1u << 1,         // query
    kPooled = 1u << 2,        // seq_pooled
    kAllExtras = kPooled | kFilteredPool | kQuery,
  };

  /// Every field for every row of `batch`.
  FieldEmbeddings Encode(const data::Batch& batch,
                         Extras extras = kAllExtras) const;

  /// The request-side fields (user, context, seq and, as asked, seq_pooled
  /// and seq_filtered_pooled) of every row of `batch`; the candidate-side
  /// members stay undefined. Wide&Deep's request path passes
  /// data::RequestBlock(batch), so each request is encoded once.
  FieldEmbeddings EncodeRequestSide(const data::Batch& batch,
                                    Extras extras = kAllExtras) const;

  /// The candidate-side fields (item, combine and, with kQuery, query) of
  /// every row of `batch`; the request-side members stay undefined.
  FieldEmbeddings EncodeCandidateSide(const data::Batch& batch,
                                      Extras extras = kAllExtras) const;

  /// What BASM's graph-free eval forward reads, as raw tensors: the
  /// request side on the R rows of the batch's request block, the
  /// candidate side on its B rows (DESIGN §17).
  struct EvalFields {
    Tensor user;                 // [R, user_dim]
    Tensor context;              // [R, context_dim]
    Tensor seq;                  // [R, T, seq_dim]
    Tensor seq_mask;             // [R, T]
    Tensor seq_filtered_pooled;  // [R, seq_dim]
    Tensor item;                 // [B, item_dim]
    Tensor combine;              // [B, combine_dim]
    Tensor query;                // [B, seq_dim]
  };

  /// Graph-free encode of `batch`: table rows are copied straight into
  /// the field tensors, and each request's side is read at its
  /// `request_row`. Values equal Encode's bit for bit.
  EvalFields EncodeEval(const data::Batch& batch) const;

  int64_t embed_dim() const { return embed_dim_; }
  int64_t user_dim() const { return 4 * embed_dim_ + 3; }
  int64_t item_dim() const { return 5 * embed_dim_ + 3; }
  int64_t context_dim() const { return 5 * embed_dim_; }
  int64_t combine_dim() const { return 2 * embed_dim_; }
  int64_t seq_dim() const { return 5 * embed_dim_; }
  /// Width of [user; seq_pooled; item; context; combine].
  int64_t concat_dim() const {
    return user_dim() + seq_dim() + item_dim() + context_dim() + combine_dim();
  }
  /// Number of feature fields n (Eq. 5's j ranges over these).
  static constexpr int64_t kNumFields = 5;

 private:
  int64_t embed_dim_;
  // user side
  std::unique_ptr<nn::Embedding> user_id_, gender_, age_, spend_;
  // item side
  std::unique_ptr<nn::Embedding> item_id_, category_, brand_, price_,
      position_;
  // context
  std::unique_ptr<nn::Embedding> hour_, time_period_, city_, geohash_,
      weekday_;
  // combine
  std::unique_ptr<nn::Embedding> cross_sp_, cross_ac_;
};

}  // namespace basm::models

#endif  // BASM_MODELS_FEATURE_ENCODER_H_
