#include "nn/attention.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.h"
#include "tensor/tensor_ops.h"

namespace basm::nn {

namespace ag = ::basm::autograd;

TargetAttention::TargetAttention(int64_t dim, int64_t hidden, Rng& rng)
    : dim_(dim) {
  score_net_ = std::make_unique<Mlp>(
      std::vector<int64_t>{4 * dim, hidden, 1}, Activation::kLeakyRelu, rng);
  RegisterModule("score_net", score_net_.get());
}

ag::Variable TargetAttention::Forward(const ag::Variable& query,
                                      const ag::Variable& keys,
                                      const Tensor& mask) {
  BASM_CHECK_EQ(query.value().rank(), 2);
  BASM_CHECK_EQ(keys.value().rank(), 3);
  int64_t batch = query.value().rows();
  int64_t t = keys.value().dim(1);
  BASM_CHECK_EQ(keys.value().dim(0), batch);
  BASM_CHECK_EQ(keys.value().dim(2), dim_);
  BASM_CHECK_EQ(mask.rank(), 2);
  BASM_CHECK_EQ(mask.dim(0), batch);
  BASM_CHECK_EQ(mask.dim(1), t);

  // Flatten keys to [B*T, D] and repeat the query per position.
  ag::Variable keys_flat = ag::Reshape(keys, {batch * t, dim_});
  ag::Variable q_rep = ag::RepeatInterleaveRows(query, t);
  ag::Variable feats = ag::ConcatCols(
      {q_rep, keys_flat, ag::Sub(q_rep, keys_flat), ag::Mul(q_rep, keys_flat)});
  ag::Variable scores = score_net_->Forward(feats);     // [B*T, 1]
  ag::Variable logits = ag::Reshape(scores, {batch, t});  // [B, T]

  // Mask invalid positions with a large negative bias before softmax.
  Tensor mask_bias({batch, t});
  for (int64_t i = 0; i < batch * t; ++i) {
    mask_bias[i] = mask[i] > 0.5f ? 0.0f : -1e9f;
  }
  logits = ag::Add(logits, ag::Variable::Constant(mask_bias));
  ag::Variable weights = ag::RowSoftmax(logits);  // [B, T]
  // Introspection cache; skipped in inference mode so concurrent scoring
  // through a shared model stays write-free.
  if (ag::GradEnabled()) last_weights_ = weights.value();

  // Weighted pooling: [B,1,T] x [B,T,D] -> [B,1,D] -> [B,D].
  ag::Variable w3 = ag::Reshape(weights, {batch, 1, t});
  ag::Variable pooled = ag::BatchedMatMul(w3, keys);
  return ag::Reshape(pooled, {batch, dim_});
}

ag::Variable TargetAttention::ForwardRequests(
    const ag::Variable& query, const ag::Variable& keys, const Tensor& mask,
    const std::vector<int32_t>& row_request) const {
  const Tensor& q = query.value();
  const Tensor& k = keys.value();
  BASM_CHECK_EQ(q.rank(), 2);
  BASM_CHECK_EQ(k.rank(), 3);
  const int64_t batch = q.rows();
  const int64_t requests = k.dim(0);
  const int64_t t = k.dim(1);
  BASM_CHECK_EQ(q.cols(), dim_);
  BASM_CHECK_EQ(k.dim(2), dim_);
  BASM_CHECK_EQ(static_cast<int64_t>(row_request.size()), batch);
  BASM_CHECK_EQ(mask.rank(), 2);
  BASM_CHECK_EQ(mask.dim(0), requests);
  BASM_CHECK_EQ(mask.dim(1), t);
  BASM_CHECK_EQ(score_net_->num_layers(), 2);
  BASM_CHECK(score_net_->activation() == Activation::kLeakyRelu);
  BASM_CHECK_EQ(score_net_->layer(1).out_features(), 1);

  // Split score layer 0's [4D, H] weight into its q, k and q*k blocks. The
  // blocks are derived per call (3*D*H floats) rather than cached, so the
  // shared eval model stays write-free.
  const Linear& first = score_net_->layer(0);
  const Tensor& w = first.weight().value();
  const int64_t h = w.cols();
  Tensor w_q = Tensor::Uninitialized({dim_, h});
  Tensor w_k = Tensor::Uninitialized({dim_, h});
  Tensor w_m = Tensor::Uninitialized({dim_, h});
  for (int64_t i = 0; i < dim_ * h; ++i) {
    const float w_diff = w[2 * dim_ * h + i];
    w_q[i] = w[i] + w_diff;
    w_k[i] = w[dim_ * h + i] - w_diff;
    w_m[i] = w[3 * dim_ * h + i];
  }
  const Tensor q_term = ops::MatMulBias(q, w_q, &first.bias().value());
  const Tensor k_term = ops::MatMul(k.Reshape({requests * t, dim_}), w_k);

  // Per candidate x position: W_m (q*k) + q-term + k-term, then the rest of
  // the score net.
  Tensor qk = Tensor::Uninitialized({batch * t, dim_});
  for (int64_t b = 0; b < batch; ++b) {
    const float* qb = q.data() + b * dim_;
    const float* kr = k.data() + row_request[b] * t * dim_;
    float* out = qk.data() + b * t * dim_;
    for (int64_t j = 0; j < t; ++j) {
      for (int64_t d = 0; d < dim_; ++d) {
        out[j * dim_ + d] = qb[d] * kr[j * dim_ + d];
      }
    }
  }
  const Tensor m_term = ops::MatMul(qk, w_m);  // [B*T, H]

  // One pass per candidate x position: the three terms, the LeakyReLU
  // (max(v, 0.01 v) is the same function, without a branch), score layer 1
  // and the mask bias Forward adds before its softmax.
  const Linear& second = score_net_->layer(1);
  const float* w1 = second.weight().value().data();  // [H, 1]
  const float b1 = second.bias().value()[0];
  Tensor logits = Tensor::Uninitialized({batch, t});
  for (int64_t b = 0; b < batch; ++b) {
    const float* qb = q_term.data() + b * h;
    const float* mb = mask.data() + row_request[b] * t;
    for (int64_t j = 0; j < t; ++j) {
      const float* kj = k_term.data() + (row_request[b] * t + j) * h;
      const float* mj = m_term.data() + (b * t + j) * h;
      float score = 0.0f;
      for (int64_t c = 0; c < h; ++c) {
        const float v = mj[c] + (qb[c] + kj[c]);
        score += std::max(v, 0.01f * v) * w1[c];
      }
      logits[b * t + j] = (score + b1) + (mb[j] > 0.5f ? 0.0f : -1e9f);
    }
  }
  const Tensor weights = ops::RowSoftmax(logits);

  // Weighted pooling of each row's request window: [1,T] x [T,D].
  Tensor pooled = Tensor::Uninitialized({batch, dim_});
  for (int64_t b = 0; b < batch; ++b) {
    ops::kernels::Gemm(weights.data() + b * t,
                       k.data() + row_request[b] * t * dim_,
                       pooled.data() + b * dim_, 1, t, dim_);
  }
  return ag::Variable::Constant(std::move(pooled));
}

MultiHeadSelfAttention::MultiHeadSelfAttention(int64_t dim, int64_t num_heads,
                                               int64_t head_dim, Rng& rng)
    : dim_(dim), num_heads_(num_heads), head_dim_(head_dim) {
  for (int64_t h = 0; h < num_heads_; ++h) {
    q_proj_.push_back(std::make_unique<Linear>(dim, head_dim, rng, false));
    k_proj_.push_back(std::make_unique<Linear>(dim, head_dim, rng, false));
    v_proj_.push_back(std::make_unique<Linear>(dim, head_dim, rng, false));
    RegisterModule("q" + std::to_string(h), q_proj_.back().get());
    RegisterModule("k" + std::to_string(h), k_proj_.back().get());
    RegisterModule("v" + std::to_string(h), v_proj_.back().get());
  }
  res_proj_ =
      std::make_unique<Linear>(dim, num_heads * head_dim, rng, false);
  RegisterModule("res", res_proj_.get());
}

ag::Variable MultiHeadSelfAttention::Forward(const ag::Variable& x) {
  BASM_CHECK_EQ(x.value().rank(), 3);
  int64_t batch = x.value().dim(0);
  int64_t f = x.value().dim(1);
  BASM_CHECK_EQ(x.value().dim(2), dim_);

  ag::Variable x_flat = ag::Reshape(x, {batch * f, dim_});
  float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  std::vector<ag::Variable> head_outputs;  // each [B*F, head_dim]
  for (int64_t h = 0; h < num_heads_; ++h) {
    ag::Variable q =
        ag::Reshape(q_proj_[h]->Forward(x_flat), {batch, f, head_dim_});
    ag::Variable k =
        ag::Reshape(k_proj_[h]->Forward(x_flat), {batch, f, head_dim_});
    ag::Variable v =
        ag::Reshape(v_proj_[h]->Forward(x_flat), {batch, f, head_dim_});

    // scores[b] = Q K^T / sqrt(d): [B,F,F].
    ag::Variable scores = ag::Scale(ag::BatchedMatMulTransB(q, k), scale);
    ag::Variable attn = ag::Reshape(
        ag::RowSoftmax(ag::Reshape(scores, {batch * f, f})), {batch, f, f});
    ag::Variable pooled = ag::BatchedMatMul(attn, v);  // [B,F,hd]
    head_outputs.push_back(ag::Reshape(pooled, {batch * f, head_dim_}));
  }

  ag::Variable heads = ag::ConcatCols(head_outputs);  // [B*F, H*hd]
  ag::Variable residual = res_proj_->Forward(x_flat);
  ag::Variable out = ag::Relu(ag::Add(heads, residual));
  return ag::Reshape(out, {batch, f, num_heads_ * head_dim_});
}

}  // namespace basm::nn
