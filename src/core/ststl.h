#ifndef BASM_CORE_STSTL_H_
#define BASM_CORE_STSTL_H_

#include <memory>
#include <vector>

#include "nn/dynamic.h"
#include "nn/module.h"

namespace basm::core {

/// Spatiotemporal Semantic Transformation Layer (Section II-C). A meta
/// network consumes [h_c ; h_ui] — the spatiotemporal context embedding and
/// the spatiotemporally-filtered behavior embedding — and emits per-sample
/// dynamic parameters (W_stl, b_stl) that map the raw concatenated semantic
/// h_hat into the spatiotemporal semantic h* (Eq. 7-9).
///
/// The dynamic weight W_stl is decomposed as a full-width static base plus
/// a low-rank spatiotemporal correction, W_stl = W_base + U S(cond) V (the
/// "matrix decomposition method" the paper credits for BASM's lower cost vs
/// other dynamic-parameter models in Table VI). The static base keeps the
/// raw semantic intact at initialization; the generated core S adapts the
/// mapping per spatiotemporal context.
class StSTL : public nn::Module {
 public:
  StSTL(int64_t input_dim, int64_t ctx_dim, int64_t behavior_dim,
        int64_t out_dim, int64_t rank, Rng& rng);

  /// h_hat: [B, input_dim]; h_c: [B, ctx_dim]; h_ui: [B, behavior_dim].
  autograd::Variable Forward(const autograd::Variable& h_hat,
                             const autograd::Variable& h_c,
                             const autograd::Variable& h_ui) const;

  /// Graph-free eval forward (DESIGN §17): h_hat [B, input_dim] holds one
  /// row per candidate, h_c [R, ctx_dim] and h_ui [R, behavior_dim] one row
  /// per request, and `row_request` [B] names each row's request, so the
  /// meta network runs once per request. Returns LeakyReLU(h*), the
  /// activation BASM applies to the semantic fused into the bias pass:
  /// [B, out_dim]. Values equal those of Forward on the broadcast
  /// conditions bit for bit.
  Tensor ForwardEval(const Tensor& h_hat, const Tensor& h_c,
                     const Tensor& h_ui,
                     const std::vector<int32_t>& row_request) const;

  int64_t out_dim() const { return out_dim_; }

 private:
  int64_t out_dim_;
  std::unique_ptr<nn::Linear> base_;
  std::unique_ptr<nn::LowRankMetaLinear> dynamic_;
};

}  // namespace basm::core

#endif  // BASM_CORE_STSTL_H_
