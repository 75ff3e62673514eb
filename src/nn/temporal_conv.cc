#include "nn/temporal_conv.h"

#include "autograd/ops.h"
#include "tensor/init.h"

namespace rtgcn::nn {

CausalConv1d::CausalConv1d(int64_t in_channels, int64_t out_channels,
                           int64_t kernel_size, Rng* rng, int64_t dilation,
                           int64_t stride, bool weight_norm)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      dilation_(dilation),
      stride_(stride),
      weight_norm_(weight_norm) {
  RTGCN_CHECK_GE(kernel_size, 1);
  RTGCN_CHECK_GE(dilation, 1);
  RTGCN_CHECK_GE(stride, 1);
  const int64_t fan_in = kernel_size * in_channels;
  v_ = RegisterParameter(
      "v", KaimingUniform({kernel_size, in_channels, out_channels}, fan_in,
                          rng));
  if (weight_norm_) {
    // Initialize the gain to the initial per-channel norm so the effective
    // weight starts equal to v (standard weight-norm initialization).
    Tensor norms = rtgcn::Sqrt(rtgcn::Sum(
        rtgcn::Sum(rtgcn::Square(v_->value), 0, true), 1, true));
    gain_ = RegisterParameter("gain", norms);
  }
  bias_ = RegisterParameter("bias", Tensor::Zeros({out_channels}));
}

ag::VarPtr CausalConv1d::EffectiveWeight() const {
  if (!weight_norm_) return v_;
  // w = g * v / ||v||, per output channel over (k, in).
  VarPtr sq = ag::Square(v_);
  VarPtr norm = ag::Sqrt(
      ag::AddScalar(ag::Sum(ag::Sum(sq, 0, true), 1, true), 1e-8f));
  return ag::Mul(ag::Div(v_, norm), gain_);
}

ag::VarPtr CausalConv1d::Forward(const VarPtr& x) const {
  RTGCN_CHECK_EQ(x->value.ndim(), 3);
  RTGCN_CHECK_EQ(x->value.dim(2), in_channels_);
  const int64_t t_len = x->value.dim(0);
  const int64_t n = x->value.dim(1);
  const int64_t pad = (kernel_size_ - 1) * dilation_;
  const int64_t count = out_length(t_len);
  // Keep the last sample of each stride window so the final output sees the
  // most recent time step; only these `count` positions are computed.
  const int64_t start = (t_len - 1) % stride_;
  VarPtr w = EffectiveWeight();

  // The taps' input gradients sum in one buffer that reaches x as a single
  // contribution, as they did through the old zero-padded concat; a lone
  // tap needs no buffer.
  const VarPtr src = kernel_size_ > 1 ? ag::Alias(x) : x;
  // y[t] = sum_i x[t + i*dilation - pad] @ w[i] for the kept t; tap i = 0 is
  // the oldest input and rows before 0 read the causal zero pad.
  VarPtr acc;
  for (int64_t i = 0; i < kernel_size_; ++i) {
    VarPtr xi = ag::GatherRows(src, start + i * dilation_ - pad, stride_,
                               count);
    VarPtr yi = ag::MatMul(xi, ag::GatherRows(w, i, 1, 1));
    acc = acc ? ag::Add(acc, yi) : yi;
  }
  return ag::Reshape(ag::Add(acc, bias_), {count, n, out_channels_});
}

TemporalConvBlock::TemporalConvBlock(int64_t in_channels, int64_t out_channels,
                                     int64_t kernel_size, Rng* rng,
                                     int64_t dilation, int64_t stride,
                                     float dropout)
    : conv1_(in_channels, out_channels, kernel_size, rng, /*dilation=*/1,
             stride),
      conv2_(out_channels, out_channels, kernel_size, rng, dilation, stride),
      dropout_(dropout) {
  RegisterModule(&conv1_);
  RegisterModule(&conv2_);
  if (in_channels != out_channels || stride > 1) {
    // A unit kernel at the block's total stride reads only the positions the
    // block keeps: ceil(ceil(T/s)/s) == ceil(T/s²), last-sample aligned.
    downsample_ = std::make_unique<CausalConv1d>(
        in_channels, out_channels, /*kernel_size=*/1, rng, /*dilation=*/1,
        /*stride=*/stride * stride, /*weight_norm=*/false);
    RegisterModule(downsample_.get());
  }
}

ag::VarPtr TemporalConvBlock::Forward(const VarPtr& x, Rng* rng) const {
  VarPtr h = ag::Relu(conv1_.Forward(x));
  h = ag::Dropout(h, dropout_, training(), rng, /*spatial_axis=*/2);
  h = ag::Relu(conv2_.Forward(h));
  h = ag::Dropout(h, dropout_, training(), rng, /*spatial_axis=*/2);

  VarPtr res = downsample_ ? downsample_->Forward(x) : x;
  return ag::Relu(ag::Add(h, res));
}

}  // namespace rtgcn::nn
