#ifndef BASM_NN_DYNAMIC_H_
#define BASM_NN_DYNAMIC_H_

#include <memory>
#include <vector>

#include "nn/linear.h"
#include "nn/module.h"

namespace basm::nn {

/// Per-sample dynamic fully-connected layer driven by a meta network
/// (Eq. 7-9 of the paper, also the M2M meta-unit). For each sample b, a
/// weight matrix W[b] (out x in) and bias b[b] are generated from a
/// condition vector z[b], then y[b] = W[b] x[b] + b[b].
class MetaLinear : public Module {
 public:
  /// cond_dim: width of the condition z; in/out: the dynamic layer shape.
  MetaLinear(int64_t cond_dim, int64_t in, int64_t out, Rng& rng);

  /// x: [B, in], cond: [B, cond_dim] -> [B, out].
  autograd::Variable Forward(const autograd::Variable& x,
                             const autograd::Variable& cond) const;

  int64_t in_features() const { return in_; }
  int64_t out_features() const { return out_; }

 private:
  int64_t in_;
  int64_t out_;
  std::unique_ptr<Linear> weight_gen_;  // cond -> out*in
  std::unique_ptr<Linear> bias_gen_;    // cond -> out
};

/// APG-style low-rank dynamic linear: W[b] = U S[b] V with static
/// U (out x r), V (r x in) and a generated core S[b] (r x r). This is the
/// matrix-decomposition trick APG uses to keep generated-parameter cost low;
/// BASM's Table VI efficiency claim contrasts against the full version.
class LowRankMetaLinear : public Module {
 public:
  LowRankMetaLinear(int64_t cond_dim, int64_t in, int64_t out, int64_t rank,
                    Rng& rng);

  /// x: [B, in], cond: [B, cond_dim] -> [B, out].
  autograd::Variable Forward(const autograd::Variable& x,
                             const autograd::Variable& cond) const;

  /// Graph-free eval forward: cond [R, cond_dim] holds one condition per
  /// request and `row_request` [B] names each x row's request, so the core
  /// and bias generators run once per request. Each row then runs
  /// Forward's products on its request's S and bias, so values equal
  /// Forward on the broadcast condition bit for bit: [B, out].
  Tensor ForwardEval(const Tensor& x, const Tensor& cond,
                     const std::vector<int32_t>& row_request) const;

  int64_t rank() const { return rank_; }

 private:
  int64_t in_;
  int64_t out_;
  int64_t rank_;
  autograd::Variable u_;  // [r, out]: applied as h V then S then U
  autograd::Variable v_;  // [in, r]
  std::unique_ptr<Linear> core_gen_;  // cond -> r*r
  std::unique_ptr<Linear> bias_gen_;  // cond -> out
};

}  // namespace basm::nn

#endif  // BASM_NN_DYNAMIC_H_
