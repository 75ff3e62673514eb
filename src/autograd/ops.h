// Differentiable operations over ag::Variable.
//
// Each op computes its forward value with the eager kernels in tensor/ops.h
// and, when gradient mode is on and any input needs gradients, installs a
// backward closure on the output. Gradients for broadcast inputs are reduced
// back to the input shape automatically by Variable::AccumulateGrad.
#ifndef RTGCN_AUTOGRAD_OPS_H_
#define RTGCN_AUTOGRAD_OPS_H_

#include <vector>

#include "autograd/variable.h"
#include "common/random.h"

namespace rtgcn::ag {

/// True when gradients must flow to or through `v`.
inline bool NeedsGrad(const VarPtr& v) {
  return v->requires_grad || !v->is_leaf();
}

/// Records one differentiable op: builds the output node for `value`,
/// names it `op` (a static string, so the finite-check mode can blame it),
/// runs the forward finite check, and attaches `backward_fn` and the
/// parents when grad mode is on and any parent needs a gradient. Every op
/// below goes through here; ops defined elsewhere (core/loss.cc) use it too.
VarPtr MakeOp(const char* op, Tensor value, std::vector<VarPtr> parents,
              std::function<void(const Tensor&)> backward_fn);

// Elementwise binary (broadcasting).
VarPtr Add(const VarPtr& a, const VarPtr& b);
VarPtr Sub(const VarPtr& a, const VarPtr& b);
VarPtr Mul(const VarPtr& a, const VarPtr& b);
VarPtr Div(const VarPtr& a, const VarPtr& b);

// Scalar variants.
VarPtr AddScalar(const VarPtr& a, float s);
VarPtr MulScalar(const VarPtr& a, float s);

// Elementwise unary.
VarPtr Neg(const VarPtr& a);
VarPtr Relu(const VarPtr& a);
VarPtr LeakyRelu(const VarPtr& a, float slope);
VarPtr Sigmoid(const VarPtr& a);
VarPtr Tanh(const VarPtr& a);
VarPtr Exp(const VarPtr& a);
VarPtr Log(const VarPtr& a);
VarPtr Sqrt(const VarPtr& a);
VarPtr Square(const VarPtr& a);
VarPtr Abs(const VarPtr& a);

// Matrix products.
VarPtr MatMul(const VarPtr& a, const VarPtr& b);
/// a: [B,m,k]; b: [B,k,n] or [k,n] (shared across the batch).
VarPtr BatchMatMul(const VarPtr& a, const VarPtr& b);
VarPtr Transpose(const VarPtr& a);
VarPtr Permute(const VarPtr& a, const std::vector<int64_t>& perm);

// Reductions.
VarPtr Sum(const VarPtr& a, int64_t axis, bool keepdims = false);
VarPtr Mean(const VarPtr& a, int64_t axis, bool keepdims = false);
VarPtr SumAll(const VarPtr& a);
VarPtr MeanAll(const VarPtr& a);

/// Numerically stable softmax along `axis`.
VarPtr Softmax(const VarPtr& a, int64_t axis);

// Shape surgery.
VarPtr Reshape(const VarPtr& a, Shape shape);
VarPtr SliceOp(const VarPtr& a, int64_t axis, int64_t start, int64_t end);
VarPtr ConcatOp(const std::vector<VarPtr>& parts, int64_t axis);

/// Gathers `count` rows of `a` along axis 0, row k from first + k*step;
/// rows before 0 read as zeros (a causal left pad). Returns them flattened
/// to [count * a.dim(1) * ... , a.dim(-1)], the shape a MatMul consumes.
/// Backward adds each row into its source row of a's gradient in place:
/// O(count) rows, never a full-size scatter. Used for the strided causal
/// convolution's taps.
VarPtr GatherRows(const VarPtr& a, int64_t first, int64_t step,
                  int64_t count);

/// Identity that shares a's value. The gradients of its consumers sum in
/// its own buffer and reach `a` as one contribution, so they group the
/// same way whatever else reads `a`.
VarPtr Alias(const VarPtr& a);

/// Training-time inverted dropout; identity when `training` is false or
/// `p == 0`. `spatial_axis >= 0` drops entire slices along that axis
/// (spatial dropout, §IV-C of the paper).
VarPtr Dropout(const VarPtr& a, float p, bool training, Rng* rng,
               int64_t spatial_axis = -1);

/// Sum of squares of all entries (L2 regularizer building block).
VarPtr SquaredNorm(const VarPtr& a);

}  // namespace rtgcn::ag

#endif  // RTGCN_AUTOGRAD_OPS_H_
