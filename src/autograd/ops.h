#ifndef BASM_AUTOGRAD_OPS_H_
#define BASM_AUTOGRAD_OPS_H_

#include <cstdint>
#include <vector>

#include "autograd/variable.h"

namespace basm::autograd {

/// Differentiable operations. Each builds a new graph node whose backward_fn
/// accumulates into the parents. All ops accept any-rank tensors unless a
/// specific rank is documented; broadcast variants state their contract.

/// -- Linear algebra --------------------------------------------------------

/// [m,k] x [k,n] -> [m,n].
Variable MatMul(const Variable& a, const Variable& b);
/// Batched [B,m,k] x [B,k,n] -> [B,m,n]; used by attention and per-sample
/// dynamic ("instance") linear layers.
Variable BatchedMatMul(const Variable& a, const Variable& b);
/// Batched A B^T: [B,m,k] x [B,n,k] -> [B,m,n]; the Q K^T step of
/// scaled-dot-product attention without materializing a transpose.
Variable BatchedMatMulTransB(const Variable& a, const Variable& b);

/// -- Elementwise -------------------------------------------------------------

Variable Add(const Variable& a, const Variable& b);      // same shape
Variable Sub(const Variable& a, const Variable& b);      // same shape
Variable Mul(const Variable& a, const Variable& b);      // same shape
Variable Div(const Variable& a, const Variable& b);      // same shape
Variable Scale(const Variable& a, float s);
Variable AddScalar(const Variable& a, float s);
Variable Neg(const Variable& a);

/// a:[m,n], b:[1,n] (or [n]) broadcast across rows.
Variable AddRowBroadcast(const Variable& a, const Variable& b);
Variable MulRowBroadcast(const Variable& a, const Variable& b);
/// a:[m,n], b:[m,1] (or [m]) broadcast across columns.
Variable AddColBroadcast(const Variable& a, const Variable& b);
Variable MulColBroadcast(const Variable& a, const Variable& b);

/// -- Nonlinearities -----------------------------------------------------------

Variable Sigmoid(const Variable& a);
Variable Tanh(const Variable& a);
Variable Relu(const Variable& a);
Variable LeakyRelu(const Variable& a, float alpha = 0.01f);
Variable Exp(const Variable& a);
/// log(max(a, floor)); gradient is 1/max(a, floor).
Variable Log(const Variable& a, float floor = 1e-12f);
/// 1/sqrt(a + eps); used by batch normalization.
Variable Rsqrt(const Variable& a, float eps = 1e-5f);

/// -- Reductions -----------------------------------------------------------------

/// Sum of all elements -> [1].
Variable SumAll(const Variable& a);
/// Mean of all elements -> [1].
Variable MeanAll(const Variable& a);
/// [m,n] -> [m,1] row sums.
Variable RowSum(const Variable& a);
/// [m,n] -> [1,n] column means (batch statistics).
Variable ColMean(const Variable& a);

/// -- Structure ----------------------------------------------------------------------

/// Concatenate rank-2 variables along columns.
Variable ConcatCols(const std::vector<Variable>& parts);
/// Columns [start, start+len) of a rank-2 variable.
Variable SliceCols(const Variable& a, int64_t start, int64_t len);
/// Shape change with identical numel (copies).
Variable Reshape(const Variable& a, std::vector<int64_t> new_shape);

/// Row-wise softmax of [m,n].
Variable RowSoftmax(const Variable& a);

/// Repeats each row of a rank-2 [m,n] tensor `times` times consecutively,
/// producing [m*times, n]. Used to align a query against every position of a
/// sequence in attention blocks.
Variable RepeatInterleaveRows(const Variable& a, int64_t times);

/// -- Gather / scatter ------------------------------------------------------------------

/// Rows `index[i]` of a rank-2 `a` ([m,n]): result is [index.size(), n].
/// Broadcasts request-level rows to the candidate rows of a batch; backward
/// scatter-adds each row's gradient into its source row.
Variable GatherRows(const Variable& a, const std::vector<int32_t>& index);

/// Gathers rows of `table` ([N,D]): result is [indices.size(), D]. Backward
/// scatter-adds into the table gradient; the touched-row set is recorded on
/// the table node's side through the dense gradient.
Variable EmbeddingLookup(const Variable& table,
                         const std::vector<int32_t>& indices);

/// -- Losses ------------------------------------------------------------------------------

/// Mean binary cross-entropy with logits. `logits` is [B] or [B,1]; `labels`
/// is a plain tensor of the same numel with values in {0,1} (soft labels in
/// [0,1] also work). Numerically stable log-sum-exp formulation.
Variable BceWithLogits(const Variable& logits, const Tensor& labels);

/// Mean squared error against a constant target of the same shape.
Variable MseLoss(const Variable& pred, const Tensor& target);

}  // namespace basm::autograd

#endif  // BASM_AUTOGRAD_OPS_H_
