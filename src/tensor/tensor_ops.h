#ifndef BASM_TENSOR_TENSOR_OPS_H_
#define BASM_TENSOR_TENSOR_OPS_H_

#include <functional>

#include "tensor/tensor.h"

namespace basm::ops {

/// -- Matrix products ----------------------------------------------------
///
/// All matmuls dispatch through ops::kernels (blocked SIMD-friendly loops,
/// or AVX2 intrinsics when compiled in and the CPU supports them). The old
/// naive loops live on in ops::reference as the equivalence-test oracle.

/// C = A(m,k) * B(k,n).
Tensor MatMul(const Tensor& a, const Tensor& b);
/// C = A^T(m,k) * B(m,n) -> (k,n). Used by autograd for weight gradients.
Tensor MatMulTransA(const Tensor& a, const Tensor& b);
/// C = A(m,k) * B^T(n,k) -> (m,n). Used by autograd for input gradients.
Tensor MatMulTransB(const Tensor& a, const Tensor& b);

/// Batched C[b] = A[b](m,k) * B[b](k,n) over rank-3 tensors [B,m,k]x[B,k,n].
Tensor BatchedMatMul(const Tensor& a, const Tensor& b);
/// Batched C[b] = A[b]^T * B[b]; a is [B,m,k], b is [B,m,n] -> [B,k,n].
Tensor BatchedMatMulTransA(const Tensor& a, const Tensor& b);
/// Batched C[b] = A[b] * B[b]^T; a is [B,m,k], b is [B,n,k] -> [B,m,n].
Tensor BatchedMatMulTransB(const Tensor& a, const Tensor& b);

/// -- Fused inference ops ---------------------------------------------------
///
/// Single-pass forms of the op chains the eval-mode layers run. They are
/// arithmetic-order-identical to the chains they replace (same per-element
/// operation sequence, and tensor_ops.cc is built with -ffp-contract=off so
/// the compiler cannot re-fuse mul+add), which keeps guarded inference
/// forwards bit-identical to the unguarded ones — a property the runtime
/// tests assert.

/// Elementwise activations the fused ops can apply in the output pass.
enum class Act { kNone, kRelu, kLeakyRelu, kSigmoid, kTanh };

/// C = A * B (+ bias row, when bias != nullptr). bias is [n] or [1,n].
Tensor MatMulBias(const Tensor& a, const Tensor& b, const Tensor* bias);
/// C = act(A * B + bias); bias may be null.
Tensor MatMulBiasAct(const Tensor& a, const Tensor& b, const Tensor* bias,
                     Act act, float leaky_alpha = 0.01f);

/// a[i,:] += b / a[i,:] *= b, in place; b is [n] or [1,n].
void AddRowBroadcastInPlace(Tensor& a, const Tensor& b);
void MulRowBroadcastInPlace(Tensor& a, const Tensor& b);
/// t = act(t) elementwise, in place.
void ActivateInPlace(Tensor& t, Act act, float leaky_alpha = 0.01f);

/// ((x + neg_mean) * inv) * gamma + beta — the full eval-mode BatchNorm
/// forward in one pass.
Tensor BatchNormInference(const Tensor& x, const Tensor& neg_mean,
                          const Tensor& inv, const Tensor& gamma,
                          const Tensor& beta);

/// -- Elementwise (same shape) --------------------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);
Tensor Scale(const Tensor& a, float s);
Tensor AddScalar(const Tensor& a, float s);
Tensor Map(const Tensor& a, const std::function<float(float)>& fn);

/// -- Broadcast over rows: a is [m,n], b is [1,n] or [n] -------------------

Tensor AddRowBroadcast(const Tensor& a, const Tensor& b);
Tensor MulRowBroadcast(const Tensor& a, const Tensor& b);
/// Broadcast over cols: a is [m,n], b is [m,1] or [m].
Tensor AddColBroadcast(const Tensor& a, const Tensor& b);
Tensor MulColBroadcast(const Tensor& a, const Tensor& b);

/// -- Nonlinearities --------------------------------------------------------

Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor LeakyRelu(const Tensor& a, float alpha);
Tensor Exp(const Tensor& a);
/// Natural log; inputs are clamped to >= `floor` to keep logs finite.
Tensor Log(const Tensor& a, float floor = 1e-12f);
Tensor Sqrt(const Tensor& a);

/// -- Reductions -------------------------------------------------------------

/// Sum over all elements -> [1].
Tensor SumAll(const Tensor& a);
/// Per-row sums of [m,n] -> [m,1].
Tensor RowSum(const Tensor& a);
/// Per-column sums of [m,n] -> [1,n].
Tensor ColSum(const Tensor& a);
/// Per-column means of [m,n] -> [1,n].
Tensor ColMean(const Tensor& a);

/// -- Structure ---------------------------------------------------------------

/// Concatenates rank-2 tensors along columns; all must share row count.
Tensor ConcatCols(const std::vector<Tensor>& parts);
/// Extracts columns [start, start+len) of a rank-2 tensor.
Tensor SliceCols(const Tensor& a, int64_t start, int64_t len);
/// Transpose of a rank-2 tensor.
Tensor Transpose(const Tensor& a);
/// Rows `index[i]` of a rank-2 [m,n] tensor -> [index.size(), n].
Tensor GatherRows(const Tensor& a, const std::vector<int32_t>& index);

/// Row-wise softmax of [m,n].
Tensor RowSoftmax(const Tensor& a);

/// -- Comparisons (testing helpers) --------------------------------------------

/// Max |a-b| over elements; shapes must match.
float MaxAbsDiff(const Tensor& a, const Tensor& b);
/// True when all elements differ by <= atol + rtol*|b|.
bool AllClose(const Tensor& a, const Tensor& b, float rtol = 1e-5f,
              float atol = 1e-6f);

}  // namespace basm::ops

#endif  // BASM_TENSOR_TENSOR_OPS_H_
