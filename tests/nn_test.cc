#include <gtest/gtest.h>

#include <cstring>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "nn/attention.h"
#include "nn/linear.h"
#include "nn/rnn.h"
#include "nn/temporal_conv.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace rtgcn::nn {
namespace {

TEST(ModuleTest, ParameterCollectionRecurses) {
  Rng rng(1);
  struct Outer : Module {
    Outer(Rng* rng) : a(3, 4, rng), b(4, 2, rng) {
      RegisterModule(&a);
      RegisterModule(&b);
    }
    Linear a, b;
  } outer(&rng);
  // a: weight 12 + bias 4; b: weight 8 + bias 2.
  EXPECT_EQ(outer.Parameters().size(), 4u);
  EXPECT_EQ(outer.NumParameters(), 26);
}

TEST(ModuleTest, TrainingModePropagates) {
  Rng rng(1);
  struct Outer : Module {
    Outer(Rng* rng) : a(2, 2, rng) { RegisterModule(&a); }
    Linear a;
  } outer(&rng);
  EXPECT_TRUE(outer.training());
  outer.SetTraining(false);
  EXPECT_FALSE(outer.a.training());
}

TEST(LinearTest, MatchesManualAffine) {
  Rng rng(2);
  Linear lin(3, 2, &rng);
  auto x = ag::Constant(RandomGaussian({4, 3}, 0, 1, &rng));
  auto y = lin.Forward(x);
  Tensor expected =
      Add(MatMul(x->value, lin.weight()->value), lin.bias()->value);
  EXPECT_TRUE(AllClose(y->value, expected));
}

TEST(LinearTest, HandlesHigherRankInput) {
  Rng rng(3);
  Linear lin(3, 5, &rng);
  auto x = ag::Constant(RandomGaussian({2, 4, 3}, 0, 1, &rng));
  auto y = lin.Forward(x);
  EXPECT_EQ(y->shape(), (Shape{2, 4, 5}));
}

TEST(LinearTest, GradientsFlowToWeights) {
  Rng rng(4);
  Linear lin(3, 2, &rng);
  auto x = ag::Constant(RandomGaussian({4, 3}, 0, 1, &rng));
  ag::Backward(ag::SumAll(ag::Square(lin.Forward(x))));
  EXPECT_TRUE(lin.weight()->grad.defined());
  EXPECT_TRUE(lin.bias()->grad.defined());
}

// ---------------------------------------------------------------------------
// Causal convolution
// ---------------------------------------------------------------------------

TEST(CausalConvTest, OutputShape) {
  Rng rng(5);
  CausalConv1d conv(4, 8, 3, &rng);
  auto x = ag::Constant(RandomGaussian({10, 6, 4}, 0, 1, &rng));
  auto y = conv.Forward(x);
  EXPECT_EQ(y->shape(), (Shape{10, 6, 8}));
}

TEST(CausalConvTest, StrideCompressesKeepingLastSample) {
  Rng rng(6);
  CausalConv1d conv(2, 2, 3, &rng, /*dilation=*/1, /*stride=*/4);
  auto x = ag::Constant(RandomGaussian({15, 3, 2}, 0, 1, &rng));
  auto y = conv.Forward(x);
  EXPECT_EQ(y->value.dim(0), 4);  // ceil(15/4)
}

TEST(CausalConvTest, CausalityNoFutureLeakage) {
  // Changing inputs after time t must not change output at time t.
  Rng rng(7);
  CausalConv1d conv(2, 3, 3, &rng, /*dilation=*/2);
  Tensor base = RandomGaussian({8, 2, 2}, 0, 1, &rng);
  ag::NoGradGuard no_grad;
  Tensor y1 = conv.Forward(ag::Constant(base))->value;
  Tensor modified = base.Clone();
  // Perturb the last two time-steps.
  for (int64_t i = 6 * 2 * 2; i < 8 * 2 * 2; ++i) modified.data()[i] += 10.0f;
  Tensor y2 = conv.Forward(ag::Constant(modified))->value;
  // Outputs at times 0..5 must agree exactly.
  EXPECT_TRUE(AllClose(Slice(y1, 0, 0, 6), Slice(y2, 0, 0, 6)));
  // And the perturbed region must differ.
  EXPECT_FALSE(AllClose(Slice(y1, 0, 6, 8), Slice(y2, 0, 6, 8)));
}

TEST(CausalConvTest, KernelOneIsPointwiseLinear) {
  Rng rng(8);
  CausalConv1d conv(3, 2, 1, &rng, 1, 1, /*weight_norm=*/false);
  Tensor x = RandomGaussian({4, 2, 3}, 0, 1, &rng);
  ag::NoGradGuard no_grad;
  Tensor y = conv.Forward(ag::Constant(x))->value;
  EXPECT_EQ(y.shape(), (Shape{4, 2, 2}));
  // Time-step independence: same input row -> same output row.
  Tensor x2 = x.Clone();
  std::fill(x2.data(), x2.data() + 2 * 3, 0.0f);  // zero time 0 only
  Tensor y2 = conv.Forward(ag::Constant(x2))->value;
  EXPECT_TRUE(AllClose(Slice(y, 0, 1, 4), Slice(y2, 0, 1, 4)));
}

TEST(CausalConvTest, WeightNormGradCheck) {
  Rng rng(9);
  CausalConv1d conv(2, 2, 2, &rng);
  auto x = ag::Constant(RandomGaussian({5, 2, 2}, 0, 1, &rng));
  auto params = conv.Parameters();
  std::vector<ag::VarPtr> inputs(params.begin(), params.end());
  EXPECT_TRUE(ag::GradCheck(
      [&](const std::vector<ag::VarPtr>&) {
        return ag::SumAll(ag::Square(conv.Forward(x)));
      },
      inputs));
}

TEST(TemporalConvBlockTest, ShapeAndResidualAlignment) {
  Rng rng(10);
  TemporalConvBlock block(4, 8, 3, &rng, 1, /*stride=*/2, 0.0f);
  block.SetTraining(false);
  auto x = ag::Constant(RandomGaussian({15, 3, 4}, 0, 1, &rng));
  auto y = block.Forward(x, &rng);
  EXPECT_EQ(y->value.dim(0), block.out_length(15));
  EXPECT_EQ(y->value.dim(0), 4);  // ceil(15/4)
  EXPECT_EQ(y->value.dim(2), 8);
}

TEST(TemporalConvBlockTest, OutputsAreNonNegativeAfterFinalRelu) {
  Rng rng(11);
  TemporalConvBlock block(2, 2, 3, &rng, 1, 1, 0.0f);
  block.SetTraining(false);
  auto x = ag::Constant(RandomGaussian({6, 2, 2}, 0, 1, &rng));
  auto y = block.Forward(x, &rng);
  EXPECT_GE(MinAll(y->value), 0.0f);
}

// ---------------------------------------------------------------------------
// Recurrent cells
// ---------------------------------------------------------------------------

TEST(LstmTest, ShapesAndStatePropagation) {
  Rng rng(12);
  Lstm lstm(3, 8, &rng);
  auto x = ag::Constant(RandomGaussian({5, 4, 3}, 0, 1, &rng));
  auto last = lstm.ForwardLast(x);
  EXPECT_EQ(last->shape(), (Shape{4, 8}));
  auto all = lstm.ForwardAll(x);
  EXPECT_EQ(all->shape(), (Shape{5, 4, 8}));
  // Last slice of ForwardAll equals ForwardLast.
  Tensor last_of_all = Slice(all->value, 0, 4, 5).Reshape({4, 8});
  EXPECT_TRUE(AllClose(last_of_all, last->value));
}

TEST(LstmTest, HiddenBounded) {
  Rng rng(13);
  Lstm lstm(2, 4, &rng);
  auto x = ag::Constant(RandomGaussian({20, 3, 2}, 0, 5, &rng));
  Tensor h = lstm.ForwardLast(x)->value;
  EXPECT_LE(MaxAll(h), 1.0f);   // o * tanh(c) ∈ (-1, 1)
  EXPECT_GE(MinAll(h), -1.0f);
}

TEST(LstmTest, LearnsSimpleTemporalTask) {
  // Predict the mean of the last two inputs: a task requiring memory.
  Rng rng(14);
  Lstm lstm(1, 8, &rng);
  Linear head(8, 1, &rng);
  std::vector<ag::VarPtr> params = lstm.Parameters();
  for (auto& p : head.Parameters()) params.push_back(p);
  ag::Adam opt(params, 0.02f);
  float final_loss = 1.0f;
  for (int step = 0; step < 300; ++step) {
    Tensor x = RandomGaussian({4, 8, 1}, 0, 1, &rng);
    Tensor target({8, 1});
    for (int64_t b = 0; b < 8; ++b) {
      target.data()[b] = 0.5f * (x.at({2, b, 0}) + x.at({3, b, 0}));
    }
    opt.ZeroGrad();
    auto pred = head.Forward(lstm.ForwardLast(ag::Constant(x)));
    auto loss = ag::MeanAll(ag::Square(ag::Sub(pred, ag::Constant(target))));
    ag::Backward(loss);
    opt.Step();
    final_loss = loss->value.item();
  }
  EXPECT_LT(final_loss, 0.2f);  // variance of target is 0.5
}

TEST(GruTest, ShapesAndBoundedState) {
  Rng rng(15);
  Gru gru(3, 6, &rng);
  auto x = ag::Constant(RandomGaussian({7, 5, 3}, 0, 1, &rng));
  auto h = gru.ForwardLast(x);
  EXPECT_EQ(h->shape(), (Shape{5, 6}));
  EXPECT_LE(MaxAll(h->value), 1.0f);
  EXPECT_GE(MinAll(h->value), -1.0f);
}

// ---------------------------------------------------------------------------
// Attention
// ---------------------------------------------------------------------------

TEST(AttentionTest, ScoresAreScaledGram) {
  Rng rng(16);
  Tensor x = RandomGaussian({4, 9}, 0, 1, &rng);
  auto scores = ScaledDotProductScores(ag::Constant(x));
  Tensor expected = MulScalar(MatMul(x, Transpose(x)), 1.0f / 3.0f);
  EXPECT_TRUE(AllClose(scores->value, expected));
}

TEST(AttentionTest, AttentionRowsAreConvexCombinations) {
  Rng rng(17);
  auto q = ag::Constant(RandomGaussian({2, 4}, 0, 1, &rng));
  auto k = ag::Constant(RandomGaussian({5, 4}, 0, 1, &rng));
  auto v = ag::Constant(Tensor::Ones({5, 3}));
  auto out = ScaledDotProductAttention(q, k, v);
  // Convex combination of all-ones rows is all ones.
  EXPECT_TRUE(AllClose(out->value, Tensor::Ones({2, 3}), 1e-4f, 1e-4f));
}

// ---------------------------------------------------------------------------
// SliceOp / ConcatOp backward vs the zero-scatter formula they replaced
// ---------------------------------------------------------------------------

// The old accumulation: a fresh copy on the first contribution, an
// out-of-place Add after that.
void OldAccumulate(const VarPtr& v, const Tensor& g) {
  v->grad = v->grad.defined() ? rtgcn::Add(v->grad, g) : g.Clone();
}

// The old SliceOp backward: scatter g into a zero tensor of the input's
// full shape, then accumulate that whole tensor.
VarPtr OracleSlice(const VarPtr& a, int64_t axis, int64_t start,
                   int64_t end) {
  const Shape in_shape = a->shape();
  return ag::MakeOp(
      "OracleSlice", rtgcn::Slice(a->value, axis, start, end), {a},
      [a, axis, start, in_shape](const Tensor& g) {
        Tensor full = Tensor::Zeros(in_shape);
        int64_t outer = 1, inner = 1;
        for (int64_t i = 0; i < axis; ++i) outer *= in_shape[i];
        for (size_t i = axis + 1; i < in_shape.size(); ++i) {
          inner *= in_shape[i];
        }
        const int64_t len = in_shape[axis];
        const int64_t glen = g.dim(axis);
        for (int64_t o = 0; o < outer; ++o) {
          std::memcpy(full.data() + (o * len + start) * inner,
                      g.data() + o * glen * inner,
                      glen * inner * sizeof(float));
        }
        OldAccumulate(a, full);
      });
}

// The old ConcatOp backward: slice each part's range out of g and
// accumulate it.
VarPtr OracleConcat(const std::vector<VarPtr>& parts, int64_t axis) {
  std::vector<Tensor> values;
  std::vector<int64_t> sizes;
  for (const auto& p : parts) {
    values.push_back(p->value);
    sizes.push_back(p->value.dim(axis));
  }
  return ag::MakeOp("OracleConcat", rtgcn::Concat(values, axis), parts,
                    [parts, sizes, axis](const Tensor& g) {
                      int64_t offset = 0;
                      for (size_t i = 0; i < parts.size(); ++i) {
                        if (ag::NeedsGrad(parts[i])) {
                          OldAccumulate(parts[i],
                                        rtgcn::Slice(g, axis, offset,
                                                     offset + sizes[i]));
                        }
                        offset += sizes[i];
                      }
                    });
}

// The old Downsample along axis 0: keeps rows start, start + step, ... and
// scatters g back into a zero tensor of the input's full shape.
VarPtr OracleDownsample(const VarPtr& a, int64_t step, int64_t start) {
  const Shape in_shape = a->shape();
  const int64_t len = in_shape[0];
  const int64_t row = a->numel() / len;
  const int64_t out_len = (len - start + step - 1) / step;
  Shape out_shape = in_shape;
  out_shape[0] = out_len;
  Tensor out(out_shape);
  for (int64_t t = 0; t < out_len; ++t) {
    std::memcpy(out.data() + t * row, a->value.data() + (start + t * step) * row,
                row * sizeof(float));
  }
  return ag::MakeOp(
      "OracleDownsample", out, {a},
      [a, in_shape, step, start, out_len, row](const Tensor& g) {
        Tensor full = Tensor::Zeros(in_shape);
        for (int64_t t = 0; t < out_len; ++t) {
          std::memcpy(full.data() + (start + t * step) * row,
                      g.data() + t * row, row * sizeof(float));
        }
        OldAccumulate(a, full);
      });
}

// The old CausalConv1d::Forward through the oracle ops: every position of
// the zero-padded input through per-tap slices, then a Downsample of the
// full-length output. `p` is the conv's parameters: v, [gain,] bias.
VarPtr OracleConv(const VarPtr& x, const std::vector<VarPtr>& p, int64_t k,
                  int64_t dilation, int64_t stride) {
  const int64_t t_len = x->value.dim(0), n = x->value.dim(1);
  const int64_t in = x->value.dim(2);
  const VarPtr& v = p[0];
  const int64_t out = v->value.dim(2);
  VarPtr w = v;
  if (p.size() == 3) {  // weight norm
    VarPtr norm = ag::Sqrt(ag::AddScalar(
        ag::Sum(ag::Sum(ag::Square(v), 0, true), 1, true), 1e-8f));
    w = ag::Mul(ag::Div(v, norm), p[1]);
  }
  const int64_t pad = (k - 1) * dilation;
  VarPtr xp = x;
  if (pad > 0) {
    xp = OracleConcat({ag::Constant(Tensor::Zeros({pad, n, in})), x}, 0);
  }
  VarPtr acc;
  for (int64_t i = 0; i < k; ++i) {
    VarPtr xi = OracleSlice(xp, 0, i * dilation, i * dilation + t_len);
    VarPtr flat = ag::Reshape(xi, {t_len * n, in});
    VarPtr wi = ag::Reshape(OracleSlice(w, 0, i, i + 1), {in, out});
    VarPtr yi = ag::MatMul(flat, wi);
    acc = acc ? ag::Add(acc, yi) : yi;
  }
  VarPtr y = ag::Reshape(ag::Add(acc, p.back()), {t_len, n, out});
  if (stride > 1) y = OracleDownsample(y, stride, (t_len - 1) % stride);
  return y;
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.defined() && b.defined() && a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

// Backpropagates a random projection of `out`, returns the gradients of
// `x` and `params`, and clears them for the next run.
std::vector<Tensor> GradsOf(const VarPtr& out, const VarPtr& x,
                            const std::vector<VarPtr>& params) {
  Rng rng(99);
  const Tensor proj = RandomGaussian(out->shape(), 0, 1, &rng);
  ag::Backward(ag::SumAll(ag::Mul(out, ag::Constant(proj))));
  std::vector<Tensor> grads{x->grad};
  x->ZeroGrad();
  for (const auto& p : params) {
    grads.push_back(p->grad);
    p->ZeroGrad();
  }
  return grads;
}

void ExpectSameGrads(const std::vector<Tensor>& got,
                     const std::vector<Tensor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(BitEqual(got[i], want[i])) << "gradient " << i;
  }
}

TEST(SliceBackwardTest, LstmTimeLoopMatchesZeroScatterBitwise) {
  Rng rng(21);
  const int64_t t_len = 7, batch = 5, d = 3, hidden = 4;
  Lstm lstm(d, hidden, &rng);
  auto x = ag::MakeVariable(RandomGaussian({t_len, batch, d}, 0, 1, &rng),
                            /*requires_grad=*/true);
  const std::vector<VarPtr> params = lstm.Parameters();  // w_ih, w_hh, bias
  const std::vector<Tensor> got = GradsOf(lstm.ForwardAll(x), x, params);

  // LstmCell::Forward and Lstm::ForwardAll, through the oracle ops.
  auto gate = [&](const VarPtr& z, int64_t k) {
    return OracleSlice(z, 1, k * hidden, (k + 1) * hidden);
  };
  VarPtr h = ag::Constant(Tensor::Zeros({batch, hidden}));
  VarPtr c = ag::Constant(Tensor::Zeros({batch, hidden}));
  std::vector<VarPtr> hs;
  for (int64_t t = 0; t < t_len; ++t) {
    VarPtr xt = ag::Reshape(OracleSlice(x, 0, t, t + 1), {batch, d});
    VarPtr z = ag::Add(
        ag::Add(ag::MatMul(xt, params[0]), ag::MatMul(h, params[1])),
        params[2]);
    VarPtr i = ag::Sigmoid(gate(z, 0));
    VarPtr f = ag::Sigmoid(gate(z, 1));
    VarPtr g = ag::Tanh(gate(z, 2));
    VarPtr o = ag::Sigmoid(gate(z, 3));
    c = ag::Add(ag::Mul(f, c), ag::Mul(i, g));
    h = ag::Mul(o, ag::Tanh(c));
    hs.push_back(ag::Reshape(h, {1, batch, hidden}));
  }
  ExpectSameGrads(got, GradsOf(OracleConcat(hs, 0), x, params));
}

TEST(SliceBackwardTest, CausalConvTapsMatchZeroScatterBitwise) {
  Rng rng(22);
  const int64_t t_len = 9, n = 6, in = 3, out = 4, k = 3, dilation = 2;
  CausalConv1d conv(in, out, k, &rng, dilation, /*stride=*/1,
                    /*weight_norm=*/true);
  auto x = ag::MakeVariable(RandomGaussian({t_len, n, in}, 0, 1, &rng),
                            /*requires_grad=*/true);
  const std::vector<VarPtr> params = conv.Parameters();  // v, gain, bias
  const std::vector<Tensor> got = GradsOf(conv.Forward(x), x, params);
  ExpectSameGrads(got,
                  GradsOf(OracleConv(x, params, k, dilation, 1), x, params));
}

// Every (T, stride, kernel, dilation) the benches use, including kept taps
// that read the causal pad (T = 5 or 10 at stride 4).
struct ConvShape {
  int64_t t_len, stride, kernel, dilation;
};
std::vector<ConvShape> BenchConvShapes() {
  std::vector<ConvShape> shapes;
  for (int64_t t_len : {5, 8, 10, 15, 20}) {
    for (int64_t stride : {1, 2, 4}) {
      for (int64_t kernel : {1, 2, 3}) {
        for (int64_t dilation : {1, 2}) {
          shapes.push_back({t_len, stride, kernel, dilation});
        }
      }
    }
  }
  return shapes;
}

::testing::Message Describe(const ConvShape& s) {
  return ::testing::Message() << "T " << s.t_len << " stride " << s.stride
                              << " kernel " << s.kernel << " dilation "
                              << s.dilation;
}

void ExpectBitEqualRun(const VarPtr& got_out, const VarPtr& want_out,
                       const VarPtr& x, const std::vector<VarPtr>& params) {
  ASSERT_TRUE(BitEqual(got_out->value, want_out->value)) << "output";
  const std::vector<Tensor> got = GradsOf(got_out, x, params);
  const std::vector<Tensor> want = GradsOf(want_out, x, params);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(BitEqual(got[i], want[i])) << "gradient " << i;
  }
}

TEST(StridedConvOracleTest, CausalConvMatchesFullLengthDownsampleBitwise) {
  const int64_t n = 3, in = 2, out = 3;
  for (const ConvShape& s : BenchConvShapes()) {
    for (bool weight_norm : {true, false}) {
      Rng rng(31 + s.t_len);
      CausalConv1d conv(in, out, s.kernel, &rng, s.dilation, s.stride,
                        weight_norm);
      auto x = ag::MakeVariable(RandomGaussian({s.t_len, n, in}, 0, 1, &rng),
                                /*requires_grad=*/true);
      const std::vector<VarPtr> params = conv.Parameters();
      SCOPED_TRACE(Describe(s) << " weight norm " << weight_norm);
      VarPtr got = conv.Forward(x);
      EXPECT_EQ(got->value.dim(0), conv.out_length(s.t_len));
      ExpectBitEqualRun(
          got, OracleConv(x, params, s.kernel, s.dilation, s.stride), x,
          params);
    }
  }
}

TEST(StridedConvOracleTest, TemporalBlockMatchesFullLengthDownsampleBitwise) {
  const int64_t n = 3, out = 3;
  const float dropout = 0.3f;
  for (const ConvShape& s : BenchConvShapes()) {
    // in == out at stride 1 has no residual projection.
    for (int64_t in : {2, 3}) {
      Rng rng(41 + s.t_len);
      TemporalConvBlock block(in, out, s.kernel, &rng, s.dilation, s.stride,
                              dropout);
      auto x = ag::MakeVariable(RandomGaussian({s.t_len, n, in}, 0, 1, &rng),
                                /*requires_grad=*/true);
      // conv1 (v, gain, bias), conv2 (v, gain, bias), then the projection
      // (v, bias) when the block has one.
      const std::vector<VarPtr> params = block.Parameters();
      const std::vector<VarPtr> p1(params.begin(), params.begin() + 3);
      const std::vector<VarPtr> p2(params.begin() + 3, params.begin() + 6);
      const std::vector<VarPtr> proj(params.begin() + 6, params.end());

      SCOPED_TRACE(Describe(s) << " in " << in);
      Rng drop_got(7), drop_want(7);
      VarPtr got = block.Forward(x, &drop_got);

      // The old TemporalConvBlock::Forward: the residual projection over
      // every position, then a stride² Downsample.
      VarPtr h = ag::Relu(OracleConv(x, p1, s.kernel, 1, s.stride));
      h = ag::Dropout(h, dropout, true, &drop_want, /*spatial_axis=*/2);
      h = ag::Relu(OracleConv(h, p2, s.kernel, s.dilation, s.stride));
      h = ag::Dropout(h, dropout, true, &drop_want, /*spatial_axis=*/2);
      VarPtr res = proj.empty() ? x : OracleConv(x, proj, 1, 1, 1);
      if (s.stride > 1) {
        const int64_t step = s.stride * s.stride;
        res = OracleDownsample(res, step, (s.t_len - 1) % step);
      }
      VarPtr want = ag::Relu(ag::Add(h, res));
      EXPECT_EQ(got->value.dim(0), block.out_length(s.t_len));
      ExpectBitEqualRun(got, want, x, params);
    }
  }
}

}  // namespace
}  // namespace rtgcn::nn
