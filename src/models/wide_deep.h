#ifndef BASM_MODELS_WIDE_DEEP_H_
#define BASM_MODELS_WIDE_DEEP_H_

#include <memory>

#include "models/ctr_model.h"
#include "models/feature_encoder.h"
#include "nn/linear.h"
#include "nn/mlp.h"

namespace basm::models {

/// Wide&Deep (Cheng et al. 2016): a wide linear memorization path over the
/// concatenated embeddings (including the hand-crossed combine field) plus a
/// deep MLP generalization path; logit = wide + deep.
///
/// Training mode encodes every row on its own. Eval mode takes the request
/// path: the user, context and pooled behavior fields are encoded once per
/// request of the batch's request block and broadcast to the candidate
/// rows (DESIGN §17). The wide and deep layers see the same input rows
/// either way, so both paths produce the same bits.
class WideDeep : public CtrModel {
 public:
  WideDeep(const data::Schema& schema, int64_t embed_dim,
           std::vector<int64_t> hidden, Rng& rng);

  /// Request path in eval mode, per-candidate forward in training mode.
  autograd::Variable ForwardLogits(const data::Batch& batch) override;
  autograd::Variable FinalRepresentation(const data::Batch& batch) override;
  /// The per-candidate forward in either mode: the request path's oracle.
  autograd::Variable ForwardLogitsReference(const data::Batch& batch);
  std::string name() const override { return "Wide&Deep"; }

 private:
  /// [user; seq_pooled; item; context; combine] per row, encoded per row
  /// or, on the request path, per request.
  autograd::Variable ConcatInput(const data::Batch& batch,
                                 bool per_candidate);
  autograd::Variable Logits(const data::Batch& batch, bool per_candidate);

  std::unique_ptr<FeatureEncoder> encoder_;
  std::unique_ptr<nn::Linear> wide_;
  std::unique_ptr<nn::Mlp> deep_hidden_;  // concat -> last hidden
  std::unique_ptr<nn::Linear> deep_out_;  // last hidden -> 1
};

}  // namespace basm::models

#endif  // BASM_MODELS_WIDE_DEEP_H_
