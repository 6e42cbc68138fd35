#ifndef BASM_CORE_STAEL_H_
#define BASM_CORE_STAEL_H_

#include <memory>
#include <vector>

#include "nn/linear.h"
#include "nn/module.h"

namespace basm::core {

/// Spatiotemporal-Aware Embedding Layer (Section II-B). For each feature
/// field j, a gate attention computes
///     alpha_j = gate_scale * sigmoid(W_p [x_j ; x_c] + b_p)      (Eq. 6)
/// and the field embedding is rescaled h_j = alpha_j * x_j (Eq. 5). The
/// default gate_scale of 2 lets the gate strengthen (>1) or weaken (<1)
/// fields per spatiotemporal context; the last computed alphas are exposed
/// for the Fig 8/9 heatmaps.
class StAEL : public nn::Module {
 public:
  /// `field_dims[j]` is the width of field j; `ctx_dim` the width of the
  /// spatiotemporal context embedding x_c.
  StAEL(std::vector<int64_t> field_dims, int64_t ctx_dim, Rng& rng,
        float gate_scale = 2.0f);

  /// Rescales each field by its context-dependent gate. `fields.size()` must
  /// match the configured field count; `ctx` is [B, ctx_dim].
  std::vector<autograd::Variable> Forward(
      const std::vector<autograd::Variable>& fields,
      const autograd::Variable& ctx);

  /// Graph-free eval forward (DESIGN §17): `ctx` [R, ctx_dim] holds one
  /// context per request and `row_request` [B] names each candidate row's
  /// request. A field with R rows is request-level and is gated once per
  /// request; a field with B rows is gated per row against its request's
  /// context. alpha_j * x_j goes straight into field j's columns of
  /// `concat` [B, sum of field widths]. Each value equals Forward's on the
  /// broadcast inputs bit for bit. With gradients enabled it records
  /// last_alphas().
  void ForwardEval(const std::vector<const Tensor*>& fields, const Tensor& ctx,
                   const std::vector<int32_t>& row_request,
                   Tensor* concat);

  /// Gate values of the most recent forward: [B, num_fields].
  const Tensor& last_alphas() const { return last_alphas_; }

  int64_t num_fields() const {
    return static_cast<int64_t>(gates_.size());
  }
  float gate_scale() const { return gate_scale_; }

 private:
  float gate_scale_;
  std::vector<std::unique_ptr<nn::Linear>> gates_;
  Tensor last_alphas_;
};

}  // namespace basm::core

#endif  // BASM_CORE_STAEL_H_
