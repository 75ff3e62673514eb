#include "autograd/ops.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "autograd/finite_check.h"

namespace rtgcn::ag {

VarPtr MakeOp(const char* op, Tensor value, std::vector<VarPtr> parents,
              std::function<void(const Tensor&)> backward_fn) {
  bool track = GradMode::enabled();
  if (track) {
    track = false;
    for (const auto& p : parents) {
      if (NeedsGrad(p)) {
        track = true;
        break;
      }
    }
  }
  auto out = std::make_shared<Variable>(std::move(value));
  out->op_name = op;
  FiniteChecks::Observe(op, "forward", out->value);
  if (track) {
    out->parents = std::move(parents);
    out->backward_fn = std::move(backward_fn);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Elementwise binary
// ---------------------------------------------------------------------------

VarPtr Add(const VarPtr& a, const VarPtr& b) {
  return MakeOp("Add", rtgcn::Add(a->value, b->value), {a, b},
                [a, b](const Tensor& g) {
                  if (NeedsGrad(a)) a->AccumulateGrad(g);
                  if (NeedsGrad(b)) b->AccumulateGrad(g);
                });
}

VarPtr Sub(const VarPtr& a, const VarPtr& b) {
  return MakeOp("Sub", rtgcn::Sub(a->value, b->value), {a, b},
                [a, b](const Tensor& g) {
                  if (NeedsGrad(a)) a->AccumulateGrad(g);
                  if (NeedsGrad(b)) b->AccumulateGrad(rtgcn::Neg(g));
                });
}

VarPtr Mul(const VarPtr& a, const VarPtr& b) {
  return MakeOp("Mul", rtgcn::Mul(a->value, b->value), {a, b},
                [a, b](const Tensor& g) {
                  if (NeedsGrad(a)) a->AccumulateGrad(rtgcn::Mul(g, b->value));
                  if (NeedsGrad(b)) b->AccumulateGrad(rtgcn::Mul(g, a->value));
                });
}

VarPtr Div(const VarPtr& a, const VarPtr& b) {
  return MakeOp("Div", 
      rtgcn::Div(a->value, b->value), {a, b}, [a, b](const Tensor& g) {
        if (NeedsGrad(a)) a->AccumulateGrad(rtgcn::Div(g, b->value));
        if (NeedsGrad(b)) {
          // d(a/b)/db = -a / b^2
          Tensor gb = rtgcn::Neg(rtgcn::Div(rtgcn::Mul(g, a->value),
                                            rtgcn::Square(b->value)));
          b->AccumulateGrad(std::move(gb));
        }
      });
}

VarPtr AddScalar(const VarPtr& a, float s) {
  return MakeOp("AddScalar", rtgcn::AddScalar(a->value, s), {a},
                [a](const Tensor& g) { a->AccumulateGrad(g); });
}

VarPtr MulScalar(const VarPtr& a, float s) {
  return MakeOp("MulScalar", rtgcn::MulScalar(a->value, s), {a},
                [a, s](const Tensor& g) {
                  a->AccumulateGrad(rtgcn::MulScalar(g, s));
                });
}

// ---------------------------------------------------------------------------
// Elementwise unary
// ---------------------------------------------------------------------------

VarPtr Neg(const VarPtr& a) {
  return MakeOp("Neg", rtgcn::Neg(a->value), {a}, [a](const Tensor& g) {
    a->AccumulateGrad(rtgcn::Neg(g));
  });
}

VarPtr Relu(const VarPtr& a) {
  return MakeOp("Relu", rtgcn::Relu(a->value), {a}, [a](const Tensor& g) {
    a->AccumulateGrad(rtgcn::LeakyReluGrad(g, a->value, 0.0f));
  });
}

VarPtr LeakyRelu(const VarPtr& a, float slope) {
  return MakeOp("LeakyRelu", rtgcn::LeakyRelu(a->value, slope), {a},
                [a, slope](const Tensor& g) {
                  a->AccumulateGrad(rtgcn::LeakyReluGrad(g, a->value, slope));
                });
}

VarPtr Sigmoid(const VarPtr& a) {
  Tensor y = rtgcn::Sigmoid(a->value);
  return MakeOp("Sigmoid", y, {a}, [a, y](const Tensor& g) {
    // y' = y (1 - y)
    Tensor dy = rtgcn::Mul(y, rtgcn::Map(y, [](float v) { return 1.0f - v; }));
    a->AccumulateGrad(rtgcn::Mul(g, dy));
  });
}

VarPtr Tanh(const VarPtr& a) {
  Tensor y = rtgcn::Tanh(a->value);
  return MakeOp("Tanh", y, {a}, [a, y](const Tensor& g) {
    Tensor dy = rtgcn::Map(y, [](float v) { return 1.0f - v * v; });
    a->AccumulateGrad(rtgcn::Mul(g, dy));
  });
}

VarPtr Exp(const VarPtr& a) {
  Tensor y = rtgcn::Exp(a->value);
  return MakeOp("Exp", y, {a}, [a, y](const Tensor& g) {
    a->AccumulateGrad(rtgcn::Mul(g, y));
  });
}

VarPtr Log(const VarPtr& a) {
  return MakeOp("Log", rtgcn::Log(a->value), {a}, [a](const Tensor& g) {
    a->AccumulateGrad(rtgcn::Div(g, a->value));
  });
}

VarPtr Sqrt(const VarPtr& a) {
  Tensor y = rtgcn::Sqrt(a->value);
  return MakeOp("Sqrt", y, {a}, [a, y](const Tensor& g) {
    Tensor dy = rtgcn::Map(y, [](float v) { return 0.5f / v; });
    a->AccumulateGrad(rtgcn::Mul(g, dy));
  });
}

VarPtr Square(const VarPtr& a) {
  return MakeOp("Square", rtgcn::Square(a->value), {a}, [a](const Tensor& g) {
    a->AccumulateGrad(rtgcn::Mul(g, rtgcn::MulScalar(a->value, 2.0f)));
  });
}

VarPtr Abs(const VarPtr& a) {
  return MakeOp("Abs", rtgcn::Abs(a->value), {a}, [a](const Tensor& g) {
    a->AccumulateGrad(rtgcn::Mul(g, rtgcn::Sign(a->value)));
  });
}

// ---------------------------------------------------------------------------
// Matrix products
// ---------------------------------------------------------------------------

VarPtr MatMul(const VarPtr& a, const VarPtr& b) {
  return MakeOp("MatMul", rtgcn::MatMul(a->value, b->value), {a, b},
                [a, b](const Tensor& g) {
                  if (NeedsGrad(a)) {
                    a->AccumulateGrad(rtgcn::MatMul(g, rtgcn::Transpose(b->value)));
                  }
                  if (NeedsGrad(b)) {
                    b->AccumulateGrad(rtgcn::MatMul(rtgcn::Transpose(a->value), g));
                  }
                });
}

VarPtr BatchMatMul(const VarPtr& a, const VarPtr& b) {
  return MakeOp("BatchMatMul", 
      rtgcn::BatchMatMul(a->value, b->value), {a, b}, [a, b](const Tensor& g) {
        const int64_t batch = a->value.dim(0);
        const int64_t m = a->value.dim(1);
        const int64_t k = a->value.dim(2);
        const bool shared_b = b->value.ndim() == 2;
        const int64_t n = shared_b ? b->value.dim(1) : b->value.dim(2);
        if (NeedsGrad(a)) {
          // gA[i] = g[i] @ B(i)^T
          Tensor ga = Tensor::Zeros({batch, m, k});
          for (int64_t i = 0; i < batch; ++i) {
            Tensor gi({m, n}, std::vector<float>(g.data() + i * m * n,
                                                 g.data() + (i + 1) * m * n));
            Tensor bi = shared_b
                            ? b->value
                            : Tensor({k, n}, std::vector<float>(
                                                 b->value.data() + i * k * n,
                                                 b->value.data() + (i + 1) * k * n));
            Tensor gai = rtgcn::MatMul(gi, rtgcn::Transpose(bi));
            std::memcpy(ga.data() + i * m * k, gai.data(),
                        m * k * sizeof(float));
          }
          a->AccumulateGrad(std::move(ga));
        }
        if (NeedsGrad(b)) {
          if (shared_b) {
            Tensor gb = Tensor::Zeros({k, n});
            for (int64_t i = 0; i < batch; ++i) {
              Tensor ai({m, k}, std::vector<float>(
                                    a->value.data() + i * m * k,
                                    a->value.data() + (i + 1) * m * k));
              Tensor gi({m, n}, std::vector<float>(g.data() + i * m * n,
                                                   g.data() + (i + 1) * m * n));
              gb = rtgcn::Add(gb, rtgcn::MatMul(rtgcn::Transpose(ai), gi));
            }
            b->AccumulateGrad(std::move(gb));
          } else {
            Tensor gb = Tensor::Zeros({batch, k, n});
            for (int64_t i = 0; i < batch; ++i) {
              Tensor ai({m, k}, std::vector<float>(
                                    a->value.data() + i * m * k,
                                    a->value.data() + (i + 1) * m * k));
              Tensor gi({m, n}, std::vector<float>(g.data() + i * m * n,
                                                   g.data() + (i + 1) * m * n));
              Tensor gbi = rtgcn::MatMul(rtgcn::Transpose(ai), gi);
              std::memcpy(gb.data() + i * k * n, gbi.data(),
                          k * n * sizeof(float));
            }
            b->AccumulateGrad(std::move(gb));
          }
        }
      });
}

VarPtr Transpose(const VarPtr& a) {
  return MakeOp("Transpose", rtgcn::Transpose(a->value), {a}, [a](const Tensor& g) {
    a->AccumulateGrad(rtgcn::Transpose(g));
  });
}

VarPtr Permute(const VarPtr& a, const std::vector<int64_t>& perm) {
  std::vector<int64_t> inverse(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) inverse[perm[i]] = static_cast<int64_t>(i);
  return MakeOp("Permute", rtgcn::Permute(a->value, perm), {a},
                [a, inverse](const Tensor& g) {
                  a->AccumulateGrad(rtgcn::Permute(g, inverse));
                });
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

VarPtr Sum(const VarPtr& a, int64_t axis, bool keepdims) {
  const int64_t norm_axis = NormalizeAxis(axis, a->value.ndim());
  Shape in_shape = a->shape();
  return MakeOp("Sum", rtgcn::Sum(a->value, norm_axis, keepdims), {a},
                [a, norm_axis, keepdims, in_shape](const Tensor& g) {
                  Tensor gg = g;
                  if (!keepdims) gg = rtgcn::Unsqueeze(gg, norm_axis);
                  a->AccumulateGrad(rtgcn::BroadcastTo(gg, in_shape));
                });
}

VarPtr Mean(const VarPtr& a, int64_t axis, bool keepdims) {
  const int64_t norm_axis = NormalizeAxis(axis, a->value.ndim());
  const float inv = 1.0f / static_cast<float>(a->value.dim(norm_axis));
  return MulScalar(Sum(a, norm_axis, keepdims), inv);
}

VarPtr SumAll(const VarPtr& a) {
  Shape in_shape = a->shape();
  return MakeOp("SumAll", rtgcn::SumAll(a->value), {a},
                [a, in_shape](const Tensor& g) {
                  a->AccumulateGrad(Tensor::Full(in_shape, g.item()));
                });
}

VarPtr MeanAll(const VarPtr& a) {
  return MulScalar(SumAll(a), 1.0f / static_cast<float>(a->numel()));
}

VarPtr Softmax(const VarPtr& a, int64_t axis) {
  const int64_t norm_axis = NormalizeAxis(axis, a->value.ndim());
  Tensor y = rtgcn::Softmax(a->value, norm_axis);
  return MakeOp("Softmax", y, {a}, [a, y, norm_axis](const Tensor& g) {
    // dx = y * (g - sum(g * y, axis, keepdims))
    Tensor gy = rtgcn::Mul(g, y);
    Tensor s = rtgcn::Sum(gy, norm_axis, /*keepdims=*/true);
    a->AccumulateGrad(rtgcn::Mul(y, rtgcn::Sub(g, s)));
  });
}

// ---------------------------------------------------------------------------
// Shape surgery
// ---------------------------------------------------------------------------

VarPtr Reshape(const VarPtr& a, Shape shape) {
  Shape in_shape = a->shape();
  return MakeOp("Reshape", a->value.Reshape(std::move(shape)).Clone(), {a},
                [a, in_shape](const Tensor& g) {
                  a->AccumulateGrad(g.Reshape(in_shape));
                });
}

VarPtr SliceOp(const VarPtr& a, int64_t axis, int64_t start, int64_t end) {
  const int64_t norm_axis = NormalizeAxis(axis, a->value.ndim());
  // Backward adds g into its range of a's gradient in place: O(slice), not
  // a full-size zero scatter per slice (the RNN and conv-tap loops take T
  // slices of one input).
  return MakeOp("SliceOp", rtgcn::Slice(a->value, norm_axis, start, end),
                {a}, [a, norm_axis, start](const Tensor& g) {
                  a->AccumulateGradSlice(g, norm_axis, start);
                });
}

VarPtr ConcatOp(const std::vector<VarPtr>& parts, int64_t axis) {
  RTGCN_CHECK(!parts.empty());
  const int64_t norm_axis = NormalizeAxis(axis, parts[0]->value.ndim());
  std::vector<Tensor> values;
  values.reserve(parts.size());
  std::vector<int64_t> sizes;
  for (const auto& p : parts) {
    values.push_back(p->value);
    sizes.push_back(p->value.dim(norm_axis));
  }
  return MakeOp("ConcatOp", rtgcn::Concat(values, norm_axis), parts,
                [parts, sizes, norm_axis](const Tensor& g) {
                  // One copy of each part's range, which AccumulateGrad
                  // adopts as the part's gradient or adds in place.
                  int64_t offset = 0;
                  for (size_t i = 0; i < parts.size(); ++i) {
                    if (NeedsGrad(parts[i])) {
                      parts[i]->AccumulateGrad(rtgcn::Slice(
                          g, norm_axis, offset, offset + sizes[i]));
                    }
                    offset += sizes[i];
                  }
                });
}

VarPtr GatherRows(const VarPtr& a, int64_t first, int64_t step,
                  int64_t count) {
  RTGCN_CHECK_GE(a->value.ndim(), 2);
  const int64_t cols = a->value.dim(a->value.ndim() - 1);
  return MakeOp("GatherRows",
                rtgcn::GatherRows(a->value, first, step, count)
                    .Reshape({-1, cols}),
                {a}, [a, first, step](const Tensor& g) {
                  a->AccumulateGradRows(g, first, step);
                });
}

VarPtr Alias(const VarPtr& a) {
  return MakeOp("Alias", a->value, {a},
                [a](const Tensor& g) { a->AccumulateGrad(g); });
}

// ---------------------------------------------------------------------------
// Regularization helpers
// ---------------------------------------------------------------------------

VarPtr Dropout(const VarPtr& a, float p, bool training, Rng* rng,
               int64_t spatial_axis) {
  if (!training || p <= 0.0f) return a;
  RTGCN_CHECK_LT(p, 1.0f);
  const float scale = 1.0f / (1.0f - p);
  Tensor mask;
  if (spatial_axis < 0) {
    mask = Tensor(a->shape());
    float* pm = mask.data();
    for (int64_t i = 0; i < mask.numel(); ++i) {
      pm[i] = rng->Bernoulli(p) ? 0.0f : scale;
    }
  } else {
    // Spatial dropout: one Bernoulli draw per index of `spatial_axis`,
    // broadcast over all other axes (drops whole channels).
    const int64_t axis = NormalizeAxis(spatial_axis, a->value.ndim());
    Shape mask_shape(a->value.ndim(), 1);
    mask_shape[axis] = a->value.dim(axis);
    mask = Tensor(mask_shape);
    float* pm = mask.data();
    for (int64_t i = 0; i < mask.numel(); ++i) {
      pm[i] = rng->Bernoulli(p) ? 0.0f : scale;
    }
  }
  return Mul(a, Constant(mask));
}

VarPtr SquaredNorm(const VarPtr& a) { return SumAll(Square(a)); }

}  // namespace rtgcn::ag
