#ifndef BASM_NN_ATTENTION_H_
#define BASM_NN_ATTENTION_H_

#include <memory>
#include <vector>

#include "nn/linear.h"
#include "nn/mlp.h"
#include "nn/module.h"

namespace basm::nn {

/// DIN-style target attention (activation unit): scores each behavior
/// position against the candidate item with an MLP over
/// [query; key; query-key; query*key] and pools the sequence with the
/// masked-softmax weights.
class TargetAttention : public Module {
 public:
  /// `dim` is the per-position embedding width; `hidden` the activation-unit
  /// hidden width.
  TargetAttention(int64_t dim, int64_t hidden, Rng& rng);

  /// query: [B, dim]; keys: [B, T, dim]; mask: [B, T] with 1 = valid.
  /// Returns the attention-pooled sequence representation [B, dim].
  autograd::Variable Forward(const autograd::Variable& query,
                             const autograd::Variable& keys,
                             const Tensor& mask);

  /// Graph-free eval forward (DESIGN §17): `keys` [R, T, dim] and `mask`
  /// [R, T] hold one behavior window per request, `query` [B, dim] one
  /// candidate per row, and `row_request` [B] names each row's request.
  /// The first score layer is split by input block,
  ///     W[q; k; q-k; q*k] + b = ((W_q+W_d) q + b) + (W_k-W_d) k + W_m (q*k),
  /// so the key term runs once per request x position and only q*k once per
  /// candidate x position; score, mask, softmax and pooling then run in one
  /// pass per candidate. Equal to Forward up to float reassociation. Returns
  /// the pooled rows [B, dim]; last_weights() is left alone.
  Tensor ForwardEval(const Tensor& query, const Tensor& keys,
                     const Tensor& mask,
                     const std::vector<int32_t>& row_request) const;

  /// Attention weights [B, T] of the last Forward (value only, for
  /// inspection).
  const Tensor& last_weights() const { return last_weights_; }

 private:
  int64_t dim_;
  std::unique_ptr<Mlp> score_net_;
  Tensor last_weights_;
};

/// Multi-head self-attention over feature fields as used by AutoInt: input
/// is [B, F, D] with F field tokens; the interacting layer computes
/// per-head scaled dot-product attention, concatenates heads, adds a
/// residual projection and applies ReLU.
class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(int64_t dim, int64_t num_heads, int64_t head_dim,
                         Rng& rng);

  /// x: [B, F, dim] -> [B, F, num_heads*head_dim].
  autograd::Variable Forward(const autograd::Variable& x);

  int64_t out_dim() const { return num_heads_ * head_dim_; }

 private:
  int64_t dim_;
  int64_t num_heads_;
  int64_t head_dim_;
  std::vector<std::unique_ptr<Linear>> q_proj_;
  std::vector<std::unique_ptr<Linear>> k_proj_;
  std::vector<std::unique_ptr<Linear>> v_proj_;
  std::unique_ptr<Linear> res_proj_;
};

}  // namespace basm::nn

#endif  // BASM_NN_ATTENTION_H_
