#include "core/basm_model.h"

#include <algorithm>

#include "tensor/tensor_ops.h"

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

ag::Variable Basm::ReferenceHidden(const data::Batch& batch) {
  models::FeatureEncoder::FieldEmbeddings f = encoder_->Encode(
      batch, models::FeatureEncoder::Extras(
                 models::FeatureEncoder::kFilteredPool |
                 models::FeatureEncoder::kQuery));
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

Tensor Basm::EvalHidden(const data::Batch& batch) {
  BASM_CHECK_EQ(static_cast<int64_t>(batch.row_request.size()), batch.size)
      << "the eval forward needs MakeBatch's request block";
  const std::vector<int32_t>& rows = batch.row_request;
  for (int32_t r : rows) {
    BASM_CHECK(r >= 0 && r < batch.num_requests()) << "row request " << r;
  }
  // Request side on R rows, candidate side on B rows.
  const models::FeatureEncoder::EvalFields f = encoder_->EncodeEval(batch);
  const Tensor interest =
      attention_->ForwardEval(f.query, f.seq, f.seq_mask, rows);

  // h_hat = [user; interest; item; context; combine], gated by StAEL.
  const std::vector<const Tensor*> fields = {&f.user, &interest, &f.item,
                                             &f.context, &f.combine};
  Tensor h_hat = Tensor::Uninitialized({batch.size, encoder_->concat_dim()});
  if (config_.use_stael) {
    stael_->ForwardEval(fields, f.context, rows, &h_hat);
  } else {
    int64_t col = 0;
    for (const Tensor* x : fields) {
      const int64_t d = x->cols();
      for (int64_t b = 0; b < batch.size; ++b) {
        const int64_t s = x->rows() == batch.num_requests() ? rows[b] : b;
        std::copy_n(x->data() + s * d, d,
                    h_hat.data() + b * h_hat.cols() + col);
      }
      col += d;
    }
  }

  const Tensor semantic =
      config_.use_ststl
          ? ststl_->ForwardEval(h_hat, f.context, f.seq_filtered_pooled, rows)
          : ops::MatMulBiasAct(h_hat, static_semantic_->weight().value(),
                               &static_semantic_->bias().value(),
                               ops::Act::kLeakyRelu);
  return tower_->ForwardEval(semantic, f.context, rows);
}

// Both entry points key on eval mode, not on GradEnabled(): a server
// scoring under NoGradGuard and a serial oracle scoring with gradients on
// must take the same path to produce the same bits.
ag::Variable Basm::ForwardLogits(const data::Batch& batch) {
  if (training()) return ForwardLogitsReference(batch);
  // The output layer's [B, 1] product, reshaped to [B] as the reference's.
  const Tensor logits = ops::MatMulBias(EvalHidden(batch),
                                        out_->weight().value(),
                                        &out_->bias().value());
  return ag::Reshape(ag::Variable::Constant(logits), {batch.size});
}

ag::Variable Basm::ForwardLogitsReference(const data::Batch& batch) {
  return ag::Reshape(out_->Forward(ReferenceHidden(batch)), {batch.size});
}

ag::Variable Basm::FinalRepresentation(const data::Batch& batch) {
  return training() ? ReferenceHidden(batch)
                    : ag::Variable::Constant(EvalHidden(batch));
}

}  // namespace basm::core
