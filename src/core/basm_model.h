#ifndef BASM_CORE_BASM_MODEL_H_
#define BASM_CORE_BASM_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/stabt.h"
#include "core/stael.h"
#include "core/ststl.h"
#include "models/ctr_model.h"
#include "models/feature_encoder.h"
#include "nn/attention.h"
#include "nn/linear.h"

namespace basm::core {

/// Configuration of the full BASM model; the use_* switches produce the
/// ablation rows of Table V, and gate_scale the 2*sigmoid ablation of the
/// extension benches.
struct BasmConfig {
  int64_t embed_dim = 8;
  std::vector<int64_t> tower_hidden = {64, 32};
  int64_t ststl_out = 64;
  int64_t ststl_rank = 8;
  float gate_scale = 2.0f;
  bool use_stael = true;
  bool use_ststl = true;
  bool use_stabt = true;

  static BasmConfig Full() { return BasmConfig{}; }
  static BasmConfig WithoutStAEL() {
    BasmConfig c;
    c.use_stael = false;
    return c;
  }
  static BasmConfig WithoutStSTL() {
    BasmConfig c;
    c.use_ststl = false;
    return c;
  }
  static BasmConfig WithoutStABT() {
    BasmConfig c;
    c.use_stabt = false;
    return c;
  }
};

/// Bottom-up Adaptive Spatiotemporal Model (Fig 3): DIN-style target
/// attention pools the behavior sequence, StAEL gates the five field
/// embeddings by spatiotemporal context, StSTL transforms the concatenated
/// raw semantic into spatiotemporal semantic via meta-generated parameters,
/// and StABT classifies through spatiotemporally modulated FC+BN layers.
///
/// Two forwards compute the same function. Training mode runs the
/// per-candidate autograd graph: every row is encoded and conditioned on
/// its own. Eval mode runs one graph-free pass per module over raw
/// tensors: the user, context and behavior side is encoded, attended over
/// and turned into StAEL/StSTL/StABT conditioning once per request of the
/// batch's request block, and only the candidate side runs per row
/// (DESIGN §17).
class Basm : public models::CtrModel {
 public:
  Basm(const data::Schema& schema, const BasmConfig& config, Rng& rng);

  /// The graph-free eval forward in eval mode, the per-candidate graph in
  /// training mode. The eval forward is inference only: its logits are a
  /// constant, so no gradient reaches a parameter through them. Trainers
  /// switch to training mode before they run Backward.
  autograd::Variable ForwardLogits(const data::Batch& batch) override;
  autograd::Variable FinalRepresentation(const data::Batch& batch) override;

  /// The per-candidate graph in either mode: the eval forward's oracle.
  /// The two agree up to float reassociation.
  autograd::Variable ForwardLogitsReference(const data::Batch& batch);

  std::string name() const override;

  const BasmConfig& config() const { return config_; }

  /// StAEL gate values of the last forward pass run with gradients
  /// enabled, in either mode: [B, 5] ordered as
  /// user | behavior-seq | item | context | combine. Empty when StAEL is
  /// ablated away.
  const Tensor& last_alphas() const;

  /// Field names matching last_alphas columns (Fig 8/9 axes).
  static const std::vector<std::string>& FieldNames();

 private:
  autograd::Variable ReferenceHidden(const data::Batch& batch);
  /// The eval forward's last hidden layer: [B, tower out_dim].
  Tensor EvalHidden(const data::Batch& batch);

  BasmConfig config_;
  std::unique_ptr<models::FeatureEncoder> encoder_;
  std::unique_ptr<nn::TargetAttention> attention_;
  std::unique_ptr<StAEL> stael_;
  std::unique_ptr<StSTL> ststl_;
  std::unique_ptr<nn::Linear> static_semantic_;  // replaces StSTL if ablated
  std::unique_ptr<StABT> tower_;
  std::unique_ptr<nn::Linear> out_;
  Tensor empty_alphas_;
};

}  // namespace basm::core

#endif  // BASM_CORE_BASM_MODEL_H_
