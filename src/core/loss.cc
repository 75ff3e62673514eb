#include "core/loss.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/thread_pool.h"

namespace rtgcn::core {

using ag::VarPtr;

namespace {

// Rows (or columns) per backward chunk and per accumulator block: the
// accumulators stay in L1 and the inner loop vectorises across them.
constexpr int64_t kHingeBlock = 64;

// 1.0f when x > 0, else 0.0f (NaN included), as the composition's Relu
// mask. Decided on the bit pattern (positive finite or +inf), because the
// compiler will not vectorise a float compare-and-select under the default
// trapping-math rules.
inline float ActiveMask(float x) {
  const uint32_t active = std::bit_cast<uint32_t>(x) - 1u < 0x7f800000u;
  return std::bit_cast<float>((0u - active) & std::bit_cast<uint32_t>(1.0f));
}

// Σ_ij ReLU(-(ŷ_i - ŷ_j)(y_i - y_j)) over all ordered pairs, accumulated in
// double in row-major (i, j) order, as SumAll does. Every term is formed
// with the same float operations as the broadcast composition
// Sub -> Mul -> Neg -> Relu -> SumAll it replaces, so the result is
// bit-identical to that composition. Each row's terms are formed
// vectorised first; only the double sum is serial.
float HingeSum(const float* s, const float* y, int64_t n) {
  std::vector<float> terms(static_cast<size_t>(n));
  double acc = 0;
  for (int64_t i = 0; i < n; ++i) {
    const float si = s[i];
    const float yi = y[i];
    for (int64_t j = 0; j < n; ++j) {
      const float neg = -((si - s[j]) * (yi - y[j]));
      terms[j] = neg > 0 ? neg : 0.0f;
    }
    for (int64_t j = 0; j < n; ++j) acc += terms[j];
  }
  return static_cast<float>(acc);
}

// The two halves of d(g * HingeSum)/dŷ, for a block [a0, a1) of outputs.
// Per pair, the composition's gradient wrt d̂_ij = ŷ_i - ŷ_j is
//   gd_ij = -(g * m_ij) * (y_i - y_j),  m_ij = 1 if the pair's hinge is
//   active, else 0.
// kColumns = false: out[i] = Σ_j gd_ij, summed in float from 0 in j order
//   (the composition's keepdims Sum over axis 1, the ŷ_i side).
// kColumns = true: out[j] = Σ_i -gd_ij, summed in float from 0 in i order
//   (its Sum over axis 0 of Neg(gd), the ŷ_j side).
// The summation index runs outermost and the block's outputs innermost, so
// each output keeps its serial order while the compiler vectorises across
// outputs.
template <bool kColumns>
void HingeGradBlock(const float* s, const float* y, int64_t n, float g,
                    int64_t a0, int64_t a1, float* out) {
  float acc[kHingeBlock] = {};
  const int64_t width = a1 - a0;
  const float* sa = s + a0;
  const float* ya = y + a0;
  for (int64_t b = 0; b < n; ++b) {
    const float sb = s[b];
    const float yb = y[b];
    for (int64_t k = 0; k < width; ++k) {
      // Pair (i, j) = (b, a) for columns, (a, b) for rows.
      const float pred_diff = kColumns ? sb - sa[k] : sa[k] - sb;
      const float label_diff = kColumns ? yb - ya[k] : ya[k] - yb;
      const float neg = -(pred_diff * label_diff);
      const float gd = -(g * ActiveMask(neg)) * label_diff;
      acc[k] += kColumns ? -gd : gd;
    }
  }
  std::copy(acc, acc + width, out + a0);
}

}  // namespace

ag::VarPtr RegressionLoss(const VarPtr& scores, const Tensor& labels) {
  RTGCN_CHECK(scores->shape() == labels.shape());
  VarPtr diff = ag::Sub(scores, ag::Constant(labels));
  return ag::MeanAll(ag::Square(diff));
}

ag::VarPtr PairwiseRankingLoss(const VarPtr& scores, const Tensor& labels) {
  const int64_t n = scores->numel();
  RTGCN_CHECK_EQ(labels.numel(), n);
  // One fused op in O(N) memory: no [N, N] temporaries in either pass.
  const Tensor sum =
      Tensor::Scalar(HingeSum(scores->value.data(), labels.data(), n));
  VarPtr hinge = ag::MakeOp(
      "PairwiseHinge", sum, {scores}, [scores, labels, n](const Tensor& g) {
        const float* s = scores->value.data();
        const float* y = labels.data();
        const float gv = g.item();
        Tensor rows(scores->shape());
        Tensor cols(scores->shape());
        const int64_t blocks = (n + kHingeBlock - 1) / kHingeBlock;
        // Chunks 0..blocks-1 own row blocks, the rest own column blocks;
        // each output is written by one chunk in its serial order, so the
        // split does not depend on the thread count.
        ParallelFor(0, 2 * blocks, 1, [&](int64_t lo, int64_t hi) {
          for (int64_t c = lo; c < hi; ++c) {
            const bool columns = c >= blocks;
            const int64_t a0 = (columns ? c - blocks : c) * kHingeBlock;
            const int64_t a1 = std::min(n, a0 + kHingeBlock);
            if (columns) {
              HingeGradBlock<true>(s, y, n, gv, a0, a1, cols.data());
            } else {
              HingeGradBlock<false>(s, y, n, gv, a0, a1, rows.data());
            }
          }
        });
        // The composition reached ŷ through two Reshape nodes, the ŷ_j side
        // first; keep that accumulation order.
        scores->AccumulateGrad(std::move(cols));
        scores->AccumulateGrad(std::move(rows));
      });
  return ag::MulScalar(hinge, 1.0f / static_cast<float>(n * n));
}

ag::VarPtr CombinedLoss(const VarPtr& scores, const Tensor& labels,
                        float alpha) {
  VarPtr loss = RegressionLoss(scores, labels);
  if (alpha > 0) {
    loss = ag::Add(loss,
                   ag::MulScalar(PairwiseRankingLoss(scores, labels), alpha));
  }
  return loss;
}

}  // namespace rtgcn::core
