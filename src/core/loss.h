// Combined regression + pairwise ranking loss (paper Eq. 7–9).
#ifndef RTGCN_CORE_LOSS_H_
#define RTGCN_CORE_LOSS_H_

#include "autograd/ops.h"

namespace rtgcn::core {

/// τ_reg: mean squared error between predicted scores and return ratios.
ag::VarPtr RegressionLoss(const ag::VarPtr& scores, const Tensor& labels);

/// τ_rank: pairwise hinge  Σ_ij ReLU(-(ŷ_i - ŷ_j)(y_i - y_j)), averaged over
/// the N² pairs so the α balance is independent of universe size. One fused
/// op ("PairwiseHinge") with no [N, N] temporaries; its value and gradient
/// are bit-identical to the broadcast Sub/Mul/Neg/Relu/MeanAll composition
/// (kept as the oracle in tests/core_test.cc).
ag::VarPtr PairwiseRankingLoss(const ag::VarPtr& scores, const Tensor& labels);

/// τ = τ_reg + α τ_rank (Eq. 9). The λ‖β‖² term is applied as optimizer
/// weight decay (equivalent gradient; see DESIGN.md).
ag::VarPtr CombinedLoss(const ag::VarPtr& scores, const Tensor& labels,
                        float alpha);

}  // namespace rtgcn::core

#endif  // RTGCN_CORE_LOSS_H_
