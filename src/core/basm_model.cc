#include "core/basm_model.h"

namespace basm::core {

namespace ag = ::basm::autograd;

Basm::Basm(const data::Schema& schema, const BasmConfig& config, Rng& rng)
    : config_(config) {
  encoder_ =
      std::make_unique<models::FeatureEncoder>(schema, config.embed_dim, rng);
  RegisterModule("encoder", encoder_.get());
  attention_ = std::make_unique<nn::TargetAttention>(encoder_->seq_dim(),
                                                     /*hidden=*/32, rng);
  RegisterModule("attention", attention_.get());

  if (config_.use_stael) {
    std::vector<int64_t> field_dims = {
        encoder_->user_dim(), encoder_->seq_dim(), encoder_->item_dim(),
        encoder_->context_dim(), encoder_->combine_dim()};
    stael_ = std::make_unique<StAEL>(field_dims, encoder_->context_dim(), rng,
                                     config_.gate_scale);
    RegisterModule("stael", stael_.get());
  }

  if (config_.use_ststl) {
    ststl_ = std::make_unique<StSTL>(
        encoder_->concat_dim(), encoder_->context_dim(), encoder_->seq_dim(),
        config_.ststl_out, config_.ststl_rank, rng);
    RegisterModule("ststl", ststl_.get());
  } else {
    static_semantic_ = std::make_unique<nn::Linear>(encoder_->concat_dim(),
                                                    config_.ststl_out, rng);
    RegisterModule("static_semantic", static_semantic_.get());
  }

  tower_ = std::make_unique<StABT>(config_.ststl_out, config_.tower_hidden,
                                   encoder_->context_dim(), rng,
                                   config_.use_stabt);
  RegisterModule("tower", tower_.get());
  out_ = std::make_unique<nn::Linear>(tower_->out_dim(), 1, rng);
  RegisterModule("out", out_.get());
}

std::string Basm::name() const {
  if (config_.use_stael && config_.use_ststl && config_.use_stabt) {
    return "BASM";
  }
  std::string n = "BASM";
  if (!config_.use_stael) n += " w/o StAEL";
  if (!config_.use_ststl) n += " w/o StSTL";
  if (!config_.use_stabt) n += " w/o StABT";
  return n;
}

const std::vector<std::string>& Basm::FieldNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "user", "behavior_seq", "item", "context", "combine"};
  return *names;
}

const Tensor& Basm::last_alphas() const {
  return stael_ != nullptr ? stael_->last_alphas() : empty_alphas_;
}

ag::Variable Basm::Hidden(const data::Batch& batch) {
  // Keyed on eval mode, not on GradEnabled(): a server scoring under
  // NoGradGuard and a serial oracle scoring with gradients on must take
  // the same path to produce the same bits.
  return training() ? ReferenceHidden(batch) : RequestHidden(batch);
}

ag::Variable Basm::ReferenceHidden(const data::Batch& batch) {
  models::FeatureEncoder::FieldEmbeddings f = encoder_->Encode(batch);
  ag::Variable interest = attention_->Forward(f.query, f.seq, batch.seq_mask);

  std::vector<ag::Variable> fields = {f.user, interest, f.item, f.context,
                                      f.combine};
  if (config_.use_stael) {
    fields = stael_->Forward(fields, f.context);
  }
  ag::Variable h_hat = ag::ConcatCols(fields);

  ag::Variable semantic;
  if (config_.use_ststl) {
    semantic = ststl_->Forward(h_hat, f.context, f.seq_filtered_pooled);
  } else {
    semantic = static_semantic_->Forward(h_hat);
  }
  semantic = ag::LeakyRelu(semantic, 0.01f);

  return tower_->Forward(semantic, f.context);
}

ag::Variable Basm::RequestHidden(const data::Batch& batch) {
  BASM_CHECK_EQ(static_cast<int64_t>(batch.row_request.size()), batch.size)
      << "the request path needs MakeBatch's request block";
  const std::vector<int32_t>& rows = batch.row_request;
  const data::Batch requests = data::RequestBlock(batch);
  // Request side on R rows, candidate side on B rows.
  models::FeatureEncoder::FieldEmbeddings r =
      encoder_->EncodeRequestSide(requests);
  models::FeatureEncoder::FieldEmbeddings c =
      encoder_->EncodeCandidateSide(batch);
  ag::Variable interest =
      attention_->ForwardRequests(c.query, r.seq, requests.seq_mask, rows);

  std::vector<ag::Variable> fields;
  if (config_.use_stael) {
    fields = stael_->ForwardRequests(
        {r.user, interest, c.item, r.context, c.combine}, r.context, rows);
  } else {
    fields = {ag::GatherRows(r.user, rows), interest, c.item,
              ag::GatherRows(r.context, rows), c.combine};
  }
  ag::Variable h_hat = ag::ConcatCols(fields);

  ag::Variable semantic;
  if (config_.use_ststl) {
    semantic = ststl_->ForwardRequests(h_hat, r.context,
                                       r.seq_filtered_pooled, rows);
  } else {
    semantic = static_semantic_->Forward(h_hat);
  }
  semantic = ag::LeakyRelu(semantic, 0.01f);

  return tower_->ForwardRequests(semantic, r.context, rows);
}

ag::Variable Basm::ForwardLogits(const data::Batch& batch) {
  return ag::Reshape(out_->Forward(Hidden(batch)), {batch.size});
}

ag::Variable Basm::ForwardLogitsReference(const data::Batch& batch) {
  return ag::Reshape(out_->Forward(ReferenceHidden(batch)), {batch.size});
}

ag::Variable Basm::FinalRepresentation(const data::Batch& batch) {
  return Hidden(batch);
}

}  // namespace basm::core
