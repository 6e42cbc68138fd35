#include "models/wide_deep.h"

#include "common/logging.h"
#include "data/batch.h"

namespace basm::models {

namespace ag = ::basm::autograd;

WideDeep::WideDeep(const data::Schema& schema, int64_t embed_dim,
                   std::vector<int64_t> hidden, Rng& rng) {
  encoder_ = std::make_unique<FeatureEncoder>(schema, embed_dim, rng);
  RegisterModule("encoder", encoder_.get());
  wide_ = std::make_unique<nn::Linear>(encoder_->concat_dim(), 1, rng);
  RegisterModule("wide", wide_.get());
  std::vector<int64_t> dims = {encoder_->concat_dim()};
  dims.insert(dims.end(), hidden.begin(), hidden.end());
  deep_hidden_ =
      std::make_unique<nn::Mlp>(dims, nn::Activation::kLeakyRelu, rng);
  RegisterModule("deep_hidden", deep_hidden_.get());
  deep_out_ = std::make_unique<nn::Linear>(dims.back(), 1, rng);
  RegisterModule("deep_out", deep_out_.get());
}

ag::Variable WideDeep::ConcatInput(const data::Batch& batch,
                                   bool per_candidate) {
  // seq_pooled is the only optional field Wide&Deep reads.
  constexpr FeatureEncoder::Extras kPooled = FeatureEncoder::kPooled;
  if (per_candidate) {
    FeatureEncoder::FieldEmbeddings f = encoder_->Encode(batch, kPooled);
    return ag::ConcatCols(
        {f.user, f.seq_pooled, f.item, f.context, f.combine});
  }
  BASM_CHECK_EQ(static_cast<int64_t>(batch.row_request.size()), batch.size)
      << "the request path needs MakeBatch's request block";
  const std::vector<int32_t>& rows = batch.row_request;
  // Request side on R rows, candidate side on B rows; the gathers copy
  // rows, so the concat is the per-candidate one bit for bit.
  FeatureEncoder::FieldEmbeddings r =
      encoder_->EncodeRequestSide(data::RequestBlock(batch), kPooled);
  FeatureEncoder::FieldEmbeddings c =
      encoder_->EncodeCandidateSide(batch, kPooled);
  return ag::ConcatCols({ag::GatherRows(r.user, rows),
                         ag::GatherRows(r.seq_pooled, rows), c.item,
                         ag::GatherRows(r.context, rows), c.combine});
}

ag::Variable WideDeep::Logits(const data::Batch& batch, bool per_candidate) {
  ag::Variable x = ConcatInput(batch, per_candidate);
  ag::Variable wide = wide_->Forward(x);
  ag::Variable hidden =
      nn::Apply(nn::Activation::kLeakyRelu, deep_hidden_->Forward(x));
  ag::Variable deep = deep_out_->Forward(hidden);
  return ag::Reshape(ag::Add(wide, deep), {batch.size});
}

// Keyed on eval mode, not on GradEnabled(), as in Basm: a server scoring
// under NoGradGuard and a serial oracle scoring with gradients on take the
// same path.
ag::Variable WideDeep::ForwardLogits(const data::Batch& batch) {
  return Logits(batch, /*per_candidate=*/training());
}

ag::Variable WideDeep::ForwardLogitsReference(const data::Batch& batch) {
  return Logits(batch, /*per_candidate=*/true);
}

ag::Variable WideDeep::FinalRepresentation(const data::Batch& batch) {
  return nn::Apply(nn::Activation::kLeakyRelu,
                   deep_hidden_->Forward(ConcatInput(batch, training())));
}

}  // namespace basm::models
