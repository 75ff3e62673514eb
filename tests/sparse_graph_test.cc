// Sparse CSR graph backend: construction invariants, dense-vs-sparse
// equivalence (forward + gradients) for all propagation strategies, edge
// cases, and --graph_backend / RTGCN_GRAPH_BACKEND dispatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "baselines/rsr.h"
#include "common/thread_pool.h"
#include "core/rtgcn.h"
#include "graph/adjacency.h"
#include "graph/gat.h"
#include "graph/sparse.h"
#include "graph_checker.h"
#include "kernel_checker.h"
#include "obs/registry.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace rtgcn {
namespace {

// 4 stocks: triangle 0-1-2 with multi-hot types, stock 3 isolated.
graph::RelationTensor MakeTriangle() {
  graph::RelationTensor rel(4, 3);
  rel.AddRelation(0, 1, 0).Abort();
  rel.AddRelation(0, 1, 2).Abort();
  rel.AddRelation(1, 2, 1).Abort();
  rel.AddRelation(0, 2, 0).Abort();
  return rel;
}

graph::RelationTensor RandomRelations(int64_t n, int64_t k, int64_t edges,
                                      Rng* rng) {
  graph::RelationTensor rel(n, k);
  for (int64_t e = 0; e < edges; ++e) {
    const int64_t i = static_cast<int64_t>(rng->UniformInt(n));
    const int64_t j = static_cast<int64_t>(rng->UniformInt(n));
    if (i == j) continue;
    rel.AddRelation(i, j, static_cast<int64_t>(rng->UniformInt(k))).Abort();
  }
  return rel;
}

int64_t EntryIndex(const graph::CsrGraph& g, int64_t i, int64_t j) {
  for (int64_t e = g.row_ptr()[i]; e < g.row_ptr()[i + 1]; ++e) {
    if (g.col()[e] == j) return e;
  }
  return -1;
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.defined() && b.defined() && a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0;
}

std::vector<int32_t> EntryTypes(const graph::CsrGraph& g, int64_t e) {
  return std::vector<int32_t>(g.types().begin() + g.type_ptr()[e],
                              g.types().begin() + g.type_ptr()[e + 1]);
}

// ---------------------------------------------------------------------------
// CSR construction
// ---------------------------------------------------------------------------

TEST(CsrGraphTest, NormalizedAdjacencyLayout) {
  const graph::RelationTensor rel = MakeTriangle();
  graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  EXPECT_EQ(g->num_nodes(), 4);
  EXPECT_EQ(g->num_relation_types(), 3);
  EXPECT_EQ(g->num_undirected_edges(), 3);
  EXPECT_TRUE(g->has_self_loops());
  // Rows 0..2 hold {self, 2 neighbors}; the isolated row 3 only its self
  // loop: 3 + 3 + 3 + 1 directed entries.
  EXPECT_EQ(g->num_entries(), 10);
  EXPECT_EQ(g->row_ptr(), (std::vector<int64_t>{0, 3, 6, 9, 10}));
  EXPECT_EQ(g->col(), (std::vector<int32_t>{0, 1, 2, 0, 1, 2, 0, 1, 2, 3}));
  // deg~ (incl. self loop) is 3 for the triangle nodes, 1 for the isolated
  // node, so every triangle coefficient is 1/3 and the isolated self loop 1.
  for (int64_t e = 0; e < 9; ++e) {
    EXPECT_FLOAT_EQ(g->coeff()[e], 1.0f / 3.0f) << "entry " << e;
  }
  EXPECT_FLOAT_EQ(g->coeff()[9], 1.0f);
  EXPECT_GT(g->ApproxBytes(), 0u);
}

TEST(CsrGraphTest, ReverseEntryIsAnInvolution) {
  Rng rng(3);
  const graph::RelationTensor rel = RandomRelations(30, 4, 120, &rng);
  graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  for (int64_t e = 0; e < g->num_entries(); ++e) {
    const int64_t r = g->reverse_entry()[e];
    EXPECT_EQ(g->reverse_entry()[r], e);
    EXPECT_EQ(g->col()[r], g->row_of()[e]);
    EXPECT_EQ(g->row_of()[r], g->col()[e]);
    if (g->IsSelf(e)) {
      EXPECT_EQ(r, e);  // self loops map to themselves
    }
  }
}

TEST(CsrGraphTest, TypeListsMatchRelationTensor) {
  const graph::RelationTensor rel = MakeTriangle();
  graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  EXPECT_EQ(EntryTypes(*g, EntryIndex(*g, 0, 1)),
            (std::vector<int32_t>{0, 2}));
  EXPECT_EQ(EntryTypes(*g, EntryIndex(*g, 1, 0)),
            (std::vector<int32_t>{0, 2}));
  EXPECT_EQ(EntryTypes(*g, EntryIndex(*g, 1, 2)), (std::vector<int32_t>{1}));
  EXPECT_EQ(EntryTypes(*g, EntryIndex(*g, 0, 2)), (std::vector<int32_t>{0}));
  // Self loops carry no relation types.
  EXPECT_TRUE(EntryTypes(*g, EntryIndex(*g, 3, 3)).empty());
  EXPECT_TRUE(EntryTypes(*g, EntryIndex(*g, 0, 0)).empty());
}

TEST(CsrGraphTest, DensifyCoeffMatchesDenseNormalizedAdjacency) {
  Rng rng(4);
  const graph::RelationTensor rel = RandomRelations(25, 3, 80, &rng);
  graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  GraphChecker checker;
  checker.ExpectClose(graph::NormalizedAdjacency(rel), g->DensifyCoeff(),
                      "DensifyCoeff vs dense Â");
}

TEST(CsrGraphTest, RowNormalizedAveragesNeighbors) {
  const graph::RelationTensor rel = MakeTriangle();
  graph::CsrPtr g = graph::CsrGraph::RowNormalized(rel);
  EXPECT_FALSE(g->has_self_loops());
  EXPECT_EQ(g->num_entries(), 6);  // triangle only; row 3 is empty
  EXPECT_EQ(g->row_ptr(), (std::vector<int64_t>{0, 2, 4, 6, 6}));
  for (int64_t e = 0; e < g->num_entries(); ++e) {
    EXPECT_FLOAT_EQ(g->coeff()[e], 0.5f);  // every triangle node has deg 2
  }
}

TEST(CsrGraphTest, UniformMaskHasUnitCoefficients) {
  const graph::RelationTensor rel = MakeTriangle();
  graph::CsrPtr g = graph::CsrGraph::UniformMask(rel, /*add_self_loops=*/true);
  EXPECT_EQ(g->num_entries(), 10);
  for (int64_t e = 0; e < g->num_entries(); ++e) {
    EXPECT_FLOAT_EQ(g->coeff()[e], 1.0f);
  }
}

TEST(CsrGraphTest, EmptyAndSingleStockGraphs) {
  graph::RelationTensor empty(3, 2);
  graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(empty);
  EXPECT_EQ(g->num_entries(), 3);  // self loops only
  for (int64_t e = 0; e < 3; ++e) EXPECT_FLOAT_EQ(g->coeff()[e], 1.0f);
  EXPECT_EQ(graph::CsrGraph::RowNormalized(empty)->num_entries(), 0);

  graph::RelationTensor one(1, 1);
  graph::CsrPtr g1 = graph::CsrGraph::NormalizedAdjacency(one);
  EXPECT_EQ(g1->num_entries(), 1);
  EXPECT_FLOAT_EQ(g1->coeff()[0], 1.0f);
}

TEST(CsrGraphTest, CsrFootprintIsOrderEdgesNotNSquared) {
  Rng rng(5);
  const int64_t n = 400;
  const graph::RelationTensor rel = RandomRelations(n, 4, 800, &rng);
  graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  const size_t dense_mask_bytes = static_cast<size_t>(n) * n * sizeof(float);
  EXPECT_LT(g->ApproxBytes(), dense_mask_bytes / 4);
}

// ---------------------------------------------------------------------------
// Dense-vs-sparse op equivalence (forward + gradients)
// ---------------------------------------------------------------------------

TEST(SparseOpsTest, PropagateMatchesDense) {
  GraphChecker checker;
  Rng rng(11);
  const graph::RelationTensor rel = RandomRelations(40, 4, 160, &rng);
  const Tensor x0 = checker.Gaussian({40, 7});
  const Tensor cot = checker.Gaussian({40, 7});

  ag::VarPtr xd = ag::MakeVariable(x0.Clone(), /*requires_grad=*/true);
  ag::VarPtr yd =
      ag::MatMul(ag::Constant(graph::NormalizedAdjacency(rel)), xd);
  ag::Backward(ag::SumAll(ag::Mul(yd, ag::Constant(cot))));

  graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  ag::VarPtr xs = ag::MakeVariable(x0.Clone(), /*requires_grad=*/true);
  ag::VarPtr ys = graph::SparsePropagate(g, xs);
  ag::Backward(ag::SumAll(ag::Mul(ys, ag::Constant(cot))));

  checker.ExpectClose(yd->value, ys->value, "SparsePropagate forward");
  checker.ExpectClose(xd->grad, xs->grad, "SparsePropagate dx");
}

TEST(SparseOpsTest, PropagateOnEmptyGraphIsIdentity) {
  graph::RelationTensor rel(6, 2);  // no edges: Â = I
  graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  Rng rng(12);
  const Tensor x0 = RandomGaussian({6, 3}, 0, 1, &rng);
  ag::VarPtr y = graph::SparsePropagate(g, ag::Constant(x0));
  EXPECT_EQ(std::memcmp(y->value.data(), x0.data(),
                        sizeof(float) * x0.numel()),
            0);
}

TEST(SparseOpsTest, EdgeWeightPropagateMatchesDense) {
  GraphChecker checker;
  Rng rng(13);
  const graph::RelationTensor rel = RandomRelations(35, 5, 150, &rng);
  const Tensor x0 = checker.Gaussian({35, 6});
  const Tensor cot = checker.Gaussian({35, 6});
  const Tensor w0 = checker.Gaussian({5}, 1.0f, 0.1f);
  const Tensor b0 = checker.Gaussian({1}, 0.0f, 0.1f);

  ag::VarPtr wd = ag::MakeVariable(w0.Clone(), true);
  ag::VarPtr bd = ag::MakeVariable(b0.Clone(), true);
  ag::VarPtr xd = ag::MakeVariable(x0.Clone(), true);
  ag::VarPtr s = graph::RelationEdgeWeights(rel, wd, bd);
  ag::VarPtr pd =
      ag::Mul(ag::Constant(graph::NormalizedAdjacency(rel)), s);
  ag::VarPtr yd = ag::MatMul(pd, xd);
  ag::Backward(ag::SumAll(ag::Mul(yd, ag::Constant(cot))));

  graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  ag::VarPtr ws = ag::MakeVariable(w0.Clone(), true);
  ag::VarPtr bs = ag::MakeVariable(b0.Clone(), true);
  ag::VarPtr xs = ag::MakeVariable(x0.Clone(), true);
  Tensor edge_values;
  ag::VarPtr ys =
      graph::SparseEdgeWeightPropagate(g, ws, bs, xs, &edge_values);
  ag::Backward(ag::SumAll(ag::Mul(ys, ag::Constant(cot))));

  checker.ExpectClose(yd->value, ys->value, "EdgeWeight forward");
  checker.ExpectClose(wd->grad, ws->grad, "EdgeWeight dw");
  checker.ExpectClose(bd->grad, bs->grad, "EdgeWeight db");
  checker.ExpectClose(xd->grad, xs->grad, "EdgeWeight dx");
  // The saved per-entry values densify to the dense propagation matrix.
  ASSERT_EQ(edge_values.numel(), g->num_entries());
  checker.ExpectClose(pd->value, g->Densify(edge_values.data()),
                      "EdgeWeight saved P");
}

TEST(SparseOpsTest, RowNormalizedEdgeWeightMatchesDenseRsrAggregation) {
  GraphChecker checker;
  Rng rng(14);
  const graph::RelationTensor rel = RandomRelations(30, 4, 90, &rng);
  const int64_t n = rel.num_stocks();
  const Tensor e0 = checker.Gaussian({n, 8});
  const Tensor cot = checker.Gaussian({n, 8});
  const Tensor w0 = checker.Gaussian({4}, 1.0f, 0.1f);
  const Tensor b0 = checker.Gaussian({1}, 0.0f, 0.1f);

  // Dense reference: ē = D^{-1} (S ⊙ M) e exactly as rsr.cc's dense path.
  const Tensor mask = rel.DenseMask();
  Tensor degree_inv({n, 1});
  for (int64_t i = 0; i < n; ++i) {
    double deg = 0;
    for (int64_t j = 0; j < n; ++j) deg += mask.data()[i * n + j];
    degree_inv.data()[i] = deg > 0 ? static_cast<float>(1.0 / deg) : 0.0f;
  }
  ag::VarPtr wd = ag::MakeVariable(w0.Clone(), true);
  ag::VarPtr bd = ag::MakeVariable(b0.Clone(), true);
  ag::VarPtr ed = ag::MakeVariable(e0.Clone(), true);
  ag::VarPtr s = graph::RelationEdgeWeights(rel, wd, bd);
  ag::VarPtr masked = ag::Mul(s, ag::Constant(mask));
  ag::VarPtr yd =
      ag::Mul(ag::MatMul(masked, ed), ag::Constant(degree_inv));
  ag::Backward(ag::SumAll(ag::Mul(yd, ag::Constant(cot))));

  graph::CsrPtr g = graph::CsrGraph::RowNormalized(rel);
  ag::VarPtr ws = ag::MakeVariable(w0.Clone(), true);
  ag::VarPtr bs = ag::MakeVariable(b0.Clone(), true);
  ag::VarPtr es = ag::MakeVariable(e0.Clone(), true);
  ag::VarPtr ys = graph::SparseEdgeWeightPropagate(g, ws, bs, es);
  ag::Backward(ag::SumAll(ag::Mul(ys, ag::Constant(cot))));

  checker.ExpectClose(yd->value, ys->value, "RSR aggregation forward");
  checker.ExpectClose(wd->grad, ws->grad, "RSR aggregation dw");
  checker.ExpectClose(bd->grad, bs->grad, "RSR aggregation db");
  checker.ExpectClose(ed->grad, es->grad, "RSR aggregation de");
}

TEST(SparseOpsTest, TimeSensitivePropagateMatchesDense) {
  GraphChecker checker;
  checker.set_rtol(1e-4f).set_atol(1e-5f);
  Rng rng(15);
  const graph::RelationTensor rel = RandomRelations(25, 4, 100, &rng);
  const int64_t n = rel.num_stocks();
  const int64_t t_len = 5, d = 6;
  const Tensor x0 = checker.Uniform({t_len, n, d}, 0.9f, 1.1f);
  const Tensor cot = checker.Gaussian({t_len, n, d});
  const Tensor w0 = checker.Gaussian({4}, 1.0f, 0.1f);
  const Tensor b0 = checker.Gaussian({1}, 0.0f, 0.1f);

  // Dense reference: P(t) = Â ⊙ (X(t) X(t)ᵀ / √d) ⊙ S (rtgcn.cc Eq. 5).
  ag::VarPtr wd = ag::MakeVariable(w0.Clone(), true);
  ag::VarPtr bd = ag::MakeVariable(b0.Clone(), true);
  ag::VarPtr xd = ag::MakeVariable(x0.Clone(), true);
  ag::VarPtr s = graph::RelationEdgeWeights(rel, wd, bd);
  ag::VarPtr base = ag::Mul(ag::Constant(graph::NormalizedAdjacency(rel)), s);
  ag::VarPtr corr = ag::MulScalar(
      ag::BatchMatMul(xd, ag::Permute(xd, {0, 2, 1})),
      1.0f / std::sqrt(static_cast<float>(d)));
  ag::VarPtr pd = ag::Mul(corr, base);
  ag::VarPtr yd = ag::BatchMatMul(pd, xd);
  ag::Backward(ag::SumAll(ag::Mul(yd, ag::Constant(cot))));

  graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  ag::VarPtr ws = ag::MakeVariable(w0.Clone(), true);
  ag::VarPtr bs = ag::MakeVariable(b0.Clone(), true);
  ag::VarPtr xs = ag::MakeVariable(x0.Clone(), true);
  Tensor edge_values;
  ag::VarPtr ys =
      graph::SparseTimeSensitivePropagate(g, ws, bs, xs, &edge_values);
  ag::Backward(ag::SumAll(ag::Mul(ys, ag::Constant(cot))));

  checker.ExpectClose(yd->value, ys->value, "TimeSensitive forward");
  checker.ExpectClose(wd->grad, ws->grad, "TimeSensitive dw");
  checker.ExpectClose(bd->grad, bs->grad, "TimeSensitive db");
  checker.ExpectClose(xd->grad, xs->grad, "TimeSensitive dx");
  // Saved per-(t, entry) values densify to each dense P(t).
  ASSERT_EQ(edge_values.ndim(), 2);
  ASSERT_EQ(edge_values.dim(0), t_len);
  ASSERT_EQ(edge_values.dim(1), g->num_entries());
  for (int64_t t = 0; t < t_len; ++t) {
    Tensor pt({n, n});
    std::memcpy(pt.data(), pd->value.data() + t * n * n,
                sizeof(float) * n * n);
    checker.ExpectClose(
        pt, g->Densify(edge_values.data() + t * g->num_entries()),
        "TimeSensitive saved P(t=" + std::to_string(t) + ")");
  }
}

// Taped and untaped calls share one loop: the output and the saved edge
// values are bitwise equal with grad on and off, at 1/2/4 threads, for
// widths 3, 4 and 16, under every kernel backend.
TEST(SparseOpsTest, TimeSensitiveTapedAndUntapedAreBitIdentical) {
  Rng rng(24);
  const graph::RelationTensor rel = RandomRelations(80, 4, 400, &rng);
  const graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  const Tensor w0 = RandomGaussian({4}, 1.0f, 0.1f, &rng);
  const Tensor b0 = RandomGaussian({1}, 0.0f, 0.1f, &rng);
  std::vector<kernels::Backend> backends = {kernels::Backend::kReference};
  if (kernels::Avx2().supported()) backends.push_back(kernels::Backend::kAvx2);
  const int saved_threads = NumThreads();
  for (const int64_t d : {3, 4, 16}) {
    const Tensor x0 = RandomUniform({6, 80, d}, 0.5f, 1.5f, &rng);
    // grad: 1 tapes, 0 runs under NoGradGuard, -1 also skips the save.
    auto run = [&](int grad, Tensor* edge_values) {
      auto w = ag::MakeVariable(w0.Clone(), true);
      auto b = ag::MakeVariable(b0.Clone(), true);
      auto x = ag::MakeVariable(x0.Clone(), true);
      std::optional<ag::NoGradGuard> no_grad;
      if (grad <= 0) no_grad.emplace();
      ag::VarPtr y = graph::SparseTimeSensitivePropagate(
          g, w, b, x, grad >= 0 ? edge_values : nullptr);
      EXPECT_EQ(y->backward_fn != nullptr, grad > 0);
      return y->value;
    };
    Tensor ref_y, ref_p;
    for (const kernels::Backend backend : backends) {
      ScopedKernelBackend kernel_scope(backend);
      for (const int threads : {1, 2, 4}) {
        SetNumThreads(threads);
        for (const int grad : {1, 0, -1}) {
          const std::string what =
              "d=" + std::to_string(d) + " backend=" +
              kernels::Active().name + " threads=" + std::to_string(threads) +
              " grad=" + std::to_string(grad);
          Tensor p;
          const Tensor y = run(grad, &p);
          if (!ref_y.defined()) {
            ref_y = y;
            ref_p = p;
            continue;
          }
          EXPECT_TRUE(BitwiseEqual(ref_y, y)) << what << " output";
          if (grad >= 0) {
            EXPECT_TRUE(BitwiseEqual(ref_p, p)) << what << " edge values";
          }
        }
      }
    }
    ASSERT_EQ(ref_p.ndim(), 2);
    EXPECT_EQ(ref_p.dim(1), g->num_entries());
  }
  SetNumThreads(saved_threads);
}

// ---------------------------------------------------------------------------
// Bitwise oracle for the node-major time-sensitive kernels: the per-(t, i)
// row loop and its backward in their step-major form, run serially, with
// the dw/db fold over the same 64-row chunks that ParallelReduce uses.
// ---------------------------------------------------------------------------

float OracleDot(const float* a, const float* b, int64_t f) {
  float acc = 0.0f;
  for (int64_t c = 0; c < f; ++c) acc += a[c] * b[c];
  return acc;
}

struct OracleRowArgs {
  const int64_t* rp;
  const int32_t* col;
  const float* as;  // coeff_e · s_e
  const float* x;   // [T, N, D]
  int64_t n, d, nnz;
  float c;
  float* p;         // [T, nnz]
  float* y;         // [T, N, D], zeroed
};

// kD > 0 sums in registers, kD == 0 in place in y; both in entry order.
template <int64_t kD>
void OracleRow(const OracleRowArgs& a, int64_t i, int64_t t) {
  const int64_t d = kD > 0 ? kD : a.d;
  const float* xt = a.x + t * a.n * d;
  const float* xi = xt + i * d;
  float* yi = a.y + (t * a.n + i) * d;
  float local[kD > 0 ? kD : 1] = {};
  float* acc = kD > 0 ? local : yi;
  float* p = a.p + t * a.nnz;
  for (int64_t e = a.rp[i]; e < a.rp[i + 1]; ++e) {
    const float* xj = xt + static_cast<int64_t>(a.col[e]) * d;
    const float cv = a.c * OracleDot(xi, xj, d);
    const float pv = a.as[e] * cv;
    p[e] = pv;
    for (int64_t k = 0; k < d; ++k) acc[k] += pv * xj[k];
  }
  if constexpr (kD > 0) {
    for (int64_t k = 0; k < kD; ++k) yi[k] = local[k];
  }
}

struct TimeSensitiveOracle {
  Tensor y, p, dw, db, dx;
};

TimeSensitiveOracle RunTimeSensitiveOracle(const graph::CsrGraph& g,
                                           const Tensor& w, const Tensor& b,
                                           const Tensor& x,
                                           const Tensor& grad) {
  const int64_t t_steps = x.dim(0), n = x.dim(1), d = x.dim(2);
  const int64_t nnz = g.num_entries();
  const int64_t k = w.numel();
  const float c = 1.0f / std::sqrt(static_cast<float>(d));
  const int64_t* rp = g.row_ptr().data();
  const int32_t* col = g.col().data();
  const int32_t* rev = g.reverse_entry().data();
  const float* coeff = g.coeff().data();
  const int64_t* tp = g.type_ptr().data();
  const int32_t* types = g.types().data();
  std::vector<float> s(static_cast<size_t>(nnz)), as(s.size());
  for (int64_t e = 0; e < nnz; ++e) {
    float weight = 1.0f;
    if (!g.IsSelf(e)) {
      weight = b.data()[0];
      for (int64_t t = tp[e]; t < tp[e + 1]; ++t) weight += w.data()[types[t]];
    }
    s[e] = weight;
    as[e] = coeff[e] * weight;
  }

  TimeSensitiveOracle o{Tensor::Zeros(x.shape()),
                        Tensor::Zeros({t_steps, nnz}), Tensor(), Tensor(),
                        Tensor::Zeros(x.shape())};
  const OracleRowArgs args{rp,  col, as.data(), x.data(), n, d, nnz, c,
                           o.p.data(), o.y.data()};
  void (*row)(const OracleRowArgs&, int64_t, int64_t) =
      d == 4 ? OracleRow<4> : d == 16 ? OracleRow<16> : OracleRow<0>;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t t = 0; t < t_steps; ++t) row(args, i, t);
  }
  // corr[t, e] recomputed exactly as the forward formed it.
  std::vector<float> corr(static_cast<size_t>(t_steps * nnz));
  for (int64_t t = 0; t < t_steps; ++t) {
    const float* xt = x.data() + t * n * d;
    for (int64_t e = 0; e < nnz; ++e) {
      corr[t * nnz + e] =
          c * OracleDot(xt + g.row_of()[e] * d, xt + col[e] * d, d);
    }
  }

  const float* pg = grad.data();
  const float* px = x.data();
  const float* pp = o.p.data();
  std::vector<float> acc(static_cast<size_t>(k + 1), 0.0f);
  for (int64_t lo = 0; lo < n; lo += 64) {
    std::vector<float> partial(static_cast<size_t>(k + 1), 0.0f);
    for (int64_t i = lo; i < std::min(n, lo + 64); ++i) {
      for (int64_t e = rp[i]; e < rp[i + 1]; ++e) {
        if (col[e] == i) continue;
        float ds = 0.0f;
        for (int64_t t = 0; t < t_steps; ++t) {
          ds += corr[t * nnz + e] * OracleDot(pg + (t * n + i) * d,
                                              px + (t * n + col[e]) * d, d);
        }
        ds *= coeff[e];
        for (int64_t t = tp[e]; t < tp[e + 1]; ++t) partial[types[t]] += ds;
        partial[k] += ds;
      }
    }
    for (int64_t t = 0; t <= k; ++t) acc[t] += partial[t];
  }
  o.dw = Tensor({k}, std::vector<float>(acc.begin(), acc.begin() + k));
  o.db = Tensor({1}, std::vector<float>(1, acc[k]));

  float* pdx = o.dx.data();
  for (int64_t m = 0; m < n; ++m) {
    for (int64_t t = 0; t < t_steps; ++t) {
      const float* gt = pg + t * n * d;
      const float* xt = px + t * n * d;
      const float* gm = gt + m * d;
      const float* xm = xt + m * d;
      float* dm = pdx + (t * n + m) * d;
      for (int64_t e = rp[m]; e < rp[m + 1]; ++e) {
        const int64_t j = col[e];
        const float* gj = gt + j * d;
        const float* xj = xt + j * d;
        const float p_rev = pp[t * nnz + rev[e]];
        const float coef2 = as[e] * c * OracleDot(gm, xj, d);
        const float coef3 = coeff[rev[e]] * s[e] * c * OracleDot(gj, xm, d);
        for (int64_t kk = 0; kk < d; ++kk) {
          dm[kk] += p_rev * gj[kk] + (coef2 + coef3) * xj[kk];
        }
      }
    }
  }
  return o;
}

// The node-major kernels against the row-loop oracle, bit for bit: output,
// saved edge values and all three gradients, for widths and window lengths
// on and off the time tile, on graphs with rows that hold only a self loop,
// rows with no entries at all and multi-type edges, at 1/2/4 threads, taped
// and untaped.
TEST(SparseOpsTest, TimeSensitiveMatchesRowLoopOracleBitwise) {
  Rng rng(25);
  graph::RelationTensor rel(40, 4);
  for (int64_t e = 0; e < 150; ++e) {
    // Stocks 30..39 stay isolated.
    const int64_t i = static_cast<int64_t>(rng.UniformInt(30));
    const int64_t j = static_cast<int64_t>(rng.UniformInt(30));
    if (i == j) continue;
    rel.AddRelation(i, j, static_cast<int64_t>(rng.UniformInt(4))).Abort();
  }
  for (int64_t type : {0, 1, 3}) rel.AddRelation(0, 1, type).Abort();
  const std::vector<std::pair<std::string, graph::CsrPtr>> graphs = {
      {"normalized", graph::CsrGraph::NormalizedAdjacency(rel)},
      {"row-mean (empty rows)", graph::CsrGraph::RowNormalized(rel)},
      {"self loops only",
       graph::CsrGraph::NormalizedAdjacency(graph::RelationTensor(12, 2))},
  };
  ASSERT_GT(EntryTypes(*graphs[0].second,
                       EntryIndex(*graphs[0].second, 0, 1)).size(), 1u);
  const int saved_threads = NumThreads();
  for (const auto& [name, g] : graphs) {
    const int64_t n = g->num_nodes();
    const int64_t k = g->num_relation_types();
    for (const int64_t d : {1, 2, 3, 4, 16}) {
      for (const int64_t t_len : {1, 5, 8, 15, 16, 17, 20}) {
        const Tensor w0 = RandomGaussian({k}, 1.0f, 0.1f, &rng);
        const Tensor b0 = RandomGaussian({1}, 0.0f, 0.1f, &rng);
        const Tensor x0 = RandomUniform({t_len, n, d}, 0.5f, 1.5f, &rng);
        const Tensor cot = RandomGaussian({t_len, n, d}, 0.0f, 1.0f, &rng);
        const TimeSensitiveOracle want =
            RunTimeSensitiveOracle(*g, w0, b0, x0, cot);
        for (const int threads : {1, 2, 4}) {
          SetNumThreads(threads);
          const std::string what = name + " d=" + std::to_string(d) +
                                   " T=" + std::to_string(t_len) +
                                   " threads=" + std::to_string(threads);
          auto w = ag::MakeVariable(w0.Clone(), true);
          auto b = ag::MakeVariable(b0.Clone(), true);
          auto x = ag::MakeVariable(x0.Clone(), true);
          Tensor p;
          ag::VarPtr y = graph::SparseTimeSensitivePropagate(g, w, b, x, &p);
          ag::Backward(ag::SumAll(ag::Mul(y, ag::Constant(cot))));
          EXPECT_TRUE(BitwiseEqual(want.y, y->value)) << what << " y";
          EXPECT_TRUE(BitwiseEqual(want.p, p)) << what << " edge values";
          EXPECT_TRUE(BitwiseEqual(want.dw, w->grad)) << what << " dw";
          EXPECT_TRUE(BitwiseEqual(want.db, b->grad)) << what << " db";
          EXPECT_TRUE(BitwiseEqual(want.dx, x->grad)) << what << " dx";

          ag::NoGradGuard no_grad;
          Tensor p_untaped;
          ag::VarPtr y_untaped =
              graph::SparseTimeSensitivePropagate(g, w, b, x, &p_untaped);
          EXPECT_TRUE(BitwiseEqual(want.y, y_untaped->value))
              << what << " untaped y";
          EXPECT_TRUE(BitwiseEqual(want.p, p_untaped))
              << what << " untaped edge values";
        }
      }
    }
  }
  SetNumThreads(saved_threads);
}

TEST(SparseOpsTest, GatAttentionMatchesDense) {
  GraphChecker checker;
  checker.set_rtol(1e-4f).set_atol(1e-5f);
  Rng rng(16);
  const graph::RelationTensor rel = RandomRelations(30, 3, 110, &rng);
  const int64_t n = rel.num_stocks(), f = 5;
  const Tensor src0 = checker.Gaussian({n, 1});
  const Tensor dst0 = checker.Gaussian({n, 1});
  const Tensor h0 = checker.Gaussian({n, f});
  const Tensor cot = checker.Gaussian({n, f});
  const float slope = 0.2f;

  // Dense reference: the gat.cc mask path with self loops.
  Tensor mask = rel.DenseMask();
  for (int64_t i = 0; i < n; ++i) mask.data()[i * n + i] = 1.0f;
  ag::VarPtr srcd = ag::MakeVariable(src0.Clone(), true);
  ag::VarPtr dstd = ag::MakeVariable(dst0.Clone(), true);
  ag::VarPtr hd = ag::MakeVariable(h0.Clone(), true);
  ag::VarPtr e = ag::LeakyRelu(ag::Add(srcd, ag::Transpose(dstd)), slope);
  ag::VarPtr alpha = graph::MaskedRowSoftmax(e, mask);
  ag::VarPtr yd = ag::MatMul(alpha, hd);
  ag::Backward(ag::SumAll(ag::Mul(yd, ag::Constant(cot))));

  graph::CsrPtr g = graph::CsrGraph::UniformMask(rel, /*add_self_loops=*/true);
  ag::VarPtr srcs = ag::MakeVariable(src0.Clone(), true);
  ag::VarPtr dsts = ag::MakeVariable(dst0.Clone(), true);
  ag::VarPtr hs = ag::MakeVariable(h0.Clone(), true);
  Tensor alpha_entries;
  ag::VarPtr ys =
      graph::SparseGatAttention(g, srcs, dsts, hs, slope, &alpha_entries);
  ag::Backward(ag::SumAll(ag::Mul(ys, ag::Constant(cot))));

  checker.ExpectClose(yd->value, ys->value, "GAT forward");
  checker.ExpectClose(srcd->grad, srcs->grad, "GAT dsrc");
  checker.ExpectClose(dstd->grad, dsts->grad, "GAT ddst");
  checker.ExpectClose(hd->grad, hs->grad, "GAT dh");
  ASSERT_EQ(alpha_entries.numel(), g->num_entries());
  checker.ExpectClose(alpha->value, g->Densify(alpha_entries.data()),
                      "GAT attention weights");
}

TEST(SparseOpsTest, GatEmptyRowsProduceZerosLikeDenseAllMasked) {
  GraphChecker checker;
  checker.set_rtol(1e-4f).set_atol(1e-5f);
  const graph::RelationTensor rel = MakeTriangle();  // stock 3 isolated
  const int64_t n = 4, f = 3;
  Rng rng(17);
  const Tensor src0 = RandomGaussian({n, 1}, 0, 1, &rng);
  const Tensor dst0 = RandomGaussian({n, 1}, 0, 1, &rng);
  const Tensor h0 = RandomGaussian({n, f}, 0, 1, &rng);

  // No self loops: row 3 has no unmasked entry at all.
  ag::VarPtr e = ag::LeakyRelu(
      ag::Add(ag::Constant(src0), ag::Transpose(ag::Constant(dst0))), 0.2f);
  ag::VarPtr alpha = graph::MaskedRowSoftmax(e, rel.DenseMask());
  ag::VarPtr yd = ag::MatMul(alpha, ag::Constant(h0));

  graph::CsrPtr g =
      graph::CsrGraph::UniformMask(rel, /*add_self_loops=*/false);
  ag::VarPtr ys = graph::SparseGatAttention(g, ag::Constant(src0),
                                            ag::Constant(dst0),
                                            ag::Constant(h0), 0.2f);
  checker.ExpectClose(yd->value, ys->value, "GAT empty-row forward");
  for (int64_t c = 0; c < f; ++c) {
    EXPECT_FLOAT_EQ(ys->value.data()[3 * f + c], 0.0f);
  }
}

// ---------------------------------------------------------------------------
// Numeric gradient checks on the sparse ops
// ---------------------------------------------------------------------------

TEST(SparseOpsTest, GradCheckEdgeWeightPropagate) {
  Rng rng(21);
  const graph::RelationTensor rel = RandomRelations(6, 3, 10, &rng);
  graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  auto w = ag::MakeVariable(RandomGaussian({3}, 1.0f, 0.1f, &rng), true);
  auto b = ag::MakeVariable(Tensor::Zeros({1}), true);
  auto x = ag::MakeVariable(RandomUniform({6, 4}, 0.9f, 1.1f, &rng), true);
  EXPECT_TRUE(ag::GradCheck(
      [&](const std::vector<ag::VarPtr>&) {
        return ag::SumAll(
            ag::Square(graph::SparseEdgeWeightPropagate(g, w, b, x)));
      },
      {w, b, x}));
}

TEST(SparseOpsTest, GradCheckTimeSensitivePropagate) {
  Rng rng(22);
  const graph::RelationTensor rel = RandomRelations(5, 3, 8, &rng);
  graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  auto w = ag::MakeVariable(RandomGaussian({3}, 1.0f, 0.1f, &rng), true);
  auto b = ag::MakeVariable(Tensor::Zeros({1}), true);
  auto x = ag::MakeVariable(RandomUniform({4, 5, 3}, 0.9f, 1.1f, &rng), true);
  EXPECT_TRUE(ag::GradCheck(
      [&](const std::vector<ag::VarPtr>&) {
        return ag::SumAll(
            ag::Square(graph::SparseTimeSensitivePropagate(g, w, b, x)));
      },
      {w, b, x}));
}

TEST(SparseOpsTest, GradCheckGatAttention) {
  Rng rng(23);
  const graph::RelationTensor rel = RandomRelations(6, 2, 10, &rng);
  graph::CsrPtr g = graph::CsrGraph::UniformMask(rel, /*add_self_loops=*/true);
  auto src = ag::MakeVariable(RandomGaussian({6, 1}, 0, 0.5f, &rng), true);
  auto dst = ag::MakeVariable(RandomGaussian({6, 1}, 0, 0.5f, &rng), true);
  auto h = ag::MakeVariable(RandomGaussian({6, 4}, 0, 1, &rng), true);
  EXPECT_TRUE(ag::GradCheck(
      [&](const std::vector<ag::VarPtr>&) {
        return ag::SumAll(
            ag::Square(graph::SparseGatAttention(g, src, dst, h, 0.2f)));
      },
      {src, dst, h}));
}

// ---------------------------------------------------------------------------
// Backend equivalence through the real model surfaces
// ---------------------------------------------------------------------------

TEST(GraphBackendEquivalenceTest, RtGcnModelAllStrategies) {
  GraphChecker checker;
  checker.set_rtol(2e-3f).set_atol(2e-4f);
  Rng rng(31);
  const graph::RelationTensor rel = RandomRelations(28, 5, 120, &rng);
  const Tensor x0 = checker.Uniform({8, 28, 4}, 0.9f, 1.1f);
  const Tensor cot = checker.Gaussian({28});
  for (core::Strategy strat :
       {core::Strategy::kUniform, core::Strategy::kWeight,
        core::Strategy::kTimeSensitive}) {
    checker.Check("RT-GCN (" + core::StrategyName(strat) + ")", [&]() {
      Rng mrng(77);
      core::RtGcnConfig cfg;
      cfg.strategy = strat;
      cfg.window = 8;
      cfg.num_features = 4;
      cfg.relational_filters = 6;
      cfg.temporal_stride = 2;
      cfg.dropout = 0.0f;
      core::RtGcnModel model(rel, cfg, &mrng);
      model.SetTraining(false);
      Rng fwd(7);
      ag::VarPtr scores = model.Forward(ag::Constant(x0), &fwd);
      ag::Backward(ag::SumAll(ag::Mul(scores, ag::Constant(cot))));
      std::vector<Tensor> out{scores->value,
                              model.last_propagation().Clone()};
      for (const auto& p : model.Parameters()) out.push_back(p->grad);
      return out;
    });
  }
}

// Serving's forward: taping off. Scores and the propagation diagnostic
// still match across graph backends, and within each backend the scores
// are bitwise those of the taped forward.
TEST(GraphBackendEquivalenceTest, RtGcnModelAllStrategiesUnderNoGrad) {
  GraphChecker checker;
  checker.set_rtol(2e-3f).set_atol(2e-4f);
  Rng rng(34);
  const graph::RelationTensor rel = RandomRelations(28, 5, 120, &rng);
  const Tensor x0 = checker.Uniform({8, 28, 4}, 0.9f, 1.1f);
  for (core::Strategy strat :
       {core::Strategy::kUniform, core::Strategy::kWeight,
        core::Strategy::kTimeSensitive}) {
    checker.Check("RT-GCN no-grad (" + core::StrategyName(strat) + ")", [&]() {
      Rng mrng(77);
      core::RtGcnConfig cfg;
      cfg.strategy = strat;
      cfg.window = 8;
      cfg.num_features = 4;
      cfg.relational_filters = 6;
      cfg.temporal_stride = 2;
      cfg.dropout = 0.0f;
      core::RtGcnModel model(rel, cfg, &mrng);
      model.SetTraining(false);
      Rng fwd(7);
      const Tensor taped = model.Forward(ag::Constant(x0), &fwd)->value;
      ag::NoGradGuard no_grad;
      ag::VarPtr scores = model.Forward(ag::Constant(x0), &fwd);
      EXPECT_TRUE(BitwiseEqual(taped, scores->value))
          << core::StrategyName(strat) << " on "
          << graph::GraphBackendName(graph::ActiveGraphBackend());
      return std::vector<Tensor>{scores->value,
                                 model.last_propagation().Clone()};
    });
  }
}

TEST(GraphBackendEquivalenceTest, GatLayerForwardBackwardAndAttention) {
  GraphChecker checker;
  checker.set_rtol(1e-3f).set_atol(1e-4f);
  Rng rng(32);
  const graph::RelationTensor rel = RandomRelations(26, 3, 90, &rng);
  const Tensor x0 = checker.Gaussian({26, 5});
  const Tensor cot = checker.Gaussian({26, 4});
  checker.Check("GatLayer", [&]() {
    Rng lrng(9);
    graph::GatLayer layer(rel, 5, 4, &lrng);
    ag::VarPtr xv = ag::MakeVariable(x0.Clone(), true);
    ag::VarPtr y = layer.Forward(xv);
    ag::Backward(ag::SumAll(ag::Mul(y, ag::Constant(cot))));
    std::vector<Tensor> out{y->value, xv->grad,
                            layer.last_attention().Clone()};
    for (const auto& p : layer.Parameters()) out.push_back(p->grad);
    return out;
  });
}

TEST(GraphBackendEquivalenceTest, RsrExplicitPredictorScores) {
  GraphChecker checker;
  checker.set_rtol(2e-3f).set_atol(2e-4f);
  Rng rng(33);
  const graph::RelationTensor rel = RandomRelations(20, 4, 70, &rng);
  const Tensor x0 = checker.Uniform({6, 20, 4}, 0.9f, 1.1f);
  checker.Check("RSR_E", [&]() {
    baselines::RsrPredictor pred(rel, baselines::RsrVariant::kExplicit,
                                 /*num_features=*/4, /*hidden=*/8,
                                 /*alpha=*/0.1f, /*seed=*/123);
    return std::vector<Tensor>{pred.Score(x0)};
  });
}

TEST(GraphBackendEquivalenceTest, DegenerateUniversesRunOnBothBackends) {
  GraphChecker checker;
  checker.set_rtol(2e-3f).set_atol(2e-4f);
  // No relations at all: propagation degenerates to the identity.
  graph::RelationTensor empty(5, 2);
  const Tensor xe = checker.Uniform({6, 5, 3}, 0.9f, 1.1f);
  // Single-stock universe (the market-generator regression case).
  graph::RelationTensor one(1, 1);
  const Tensor x1 = checker.Uniform({6, 1, 3}, 0.9f, 1.1f);
  struct Case {
    const graph::RelationTensor* rel;
    const Tensor* x;
    const char* name;
  } cases[] = {{&empty, &xe, "empty relations"}, {&one, &x1, "single stock"}};
  for (const Case& c : cases) {
    for (core::Strategy strat :
         {core::Strategy::kUniform, core::Strategy::kWeight,
          core::Strategy::kTimeSensitive}) {
      checker.Check(std::string(c.name) + " " + core::StrategyName(strat),
                    [&]() {
                      Rng mrng(41);
                      core::RtGcnConfig cfg;
                      cfg.strategy = strat;
                      cfg.window = 6;
                      cfg.num_features = 3;
                      cfg.relational_filters = 4;
                      cfg.temporal_stride = 2;
                      cfg.dropout = 0.0f;
                      core::RtGcnModel model(*c.rel, cfg, &mrng);
                      model.SetTraining(false);
                      Rng fwd(7);
                      ag::VarPtr scores =
                          model.Forward(ag::Constant(*c.x), &fwd);
                      for (int64_t i = 0; i < scores->value.numel(); ++i) {
                        EXPECT_TRUE(std::isfinite(scores->value.data()[i]))
                            << c.name;
                      }
                      return std::vector<Tensor>{scores->value};
                    });
    }
  }
}

// ---------------------------------------------------------------------------
// Backend dispatch (mirror of kernel_dispatch_test)
// ---------------------------------------------------------------------------

// Restores RTGCN_GRAPH_BACKEND and the selection after each test so
// ordering does not leak between cases.
class GraphDispatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* env = std::getenv("RTGCN_GRAPH_BACKEND");
    had_env_ = env != nullptr;
    if (had_env_) saved_env_ = env;
    prev_ = graph::ActiveGraphBackend();
  }
  void TearDown() override {
    if (had_env_) {
      ::setenv("RTGCN_GRAPH_BACKEND", saved_env_.c_str(), 1);
    } else {
      ::unsetenv("RTGCN_GRAPH_BACKEND");
    }
    graph::SetGraphBackend(prev_);
  }

  bool had_env_ = false;
  std::string saved_env_;
  graph::GraphBackend prev_ = graph::GraphBackend::kSparse;
};

TEST_F(GraphDispatchTest, ResolveBackendKnownNames) {
  ASSERT_TRUE(graph::ResolveGraphBackend("dense").ok());
  EXPECT_EQ(graph::ResolveGraphBackend("dense").ValueOrDie(),
            graph::GraphBackend::kDense);
  ASSERT_TRUE(graph::ResolveGraphBackend("sparse").ok());
  EXPECT_EQ(graph::ResolveGraphBackend("sparse").ValueOrDie(),
            graph::GraphBackend::kSparse);
  // auto (and empty) resolve to the O(E) sparse path.
  EXPECT_EQ(graph::ResolveGraphBackend("auto").ValueOrDie(),
            graph::GraphBackend::kSparse);
  EXPECT_EQ(graph::ResolveGraphBackend("").ValueOrDie(),
            graph::GraphBackend::kSparse);
}

TEST_F(GraphDispatchTest, ResolveBackendRejectsUnknown) {
  for (const char* bad : {"csr", "DENSE", "Sparse", "fastest"}) {
    Result<graph::GraphBackend> r = graph::ResolveGraphBackend(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_NE(r.status().message().find("unknown graph backend"),
              std::string::npos)
        << r.status().message();
  }
}

TEST_F(GraphDispatchTest, SetBackendByName) {
  ASSERT_TRUE(graph::SetGraphBackendByName("dense").ok());
  EXPECT_EQ(graph::ActiveGraphBackend(), graph::GraphBackend::kDense);
  ASSERT_TRUE(graph::SetGraphBackendByName("sparse").ok());
  EXPECT_EQ(graph::ActiveGraphBackend(), graph::GraphBackend::kSparse);
  ASSERT_FALSE(graph::SetGraphBackendByName("not-a-backend").ok());
  // Failed resolution leaves the selection untouched.
  EXPECT_EQ(graph::ActiveGraphBackend(), graph::GraphBackend::kSparse);
}

TEST_F(GraphDispatchTest, EnvVarForcesDense) {
  ::setenv("RTGCN_GRAPH_BACKEND", "dense", 1);
  graph::ReinitGraphBackendFromEnvForTest();
  EXPECT_EQ(graph::ActiveGraphBackend(), graph::GraphBackend::kDense);
}

TEST_F(GraphDispatchTest, InvalidEnvVarFallsBackToAuto) {
  ::setenv("RTGCN_GRAPH_BACKEND", "warp-drive", 1);
  graph::ReinitGraphBackendFromEnvForTest();
  // Must not abort; auto resolves to sparse.
  EXPECT_EQ(graph::ActiveGraphBackend(), graph::GraphBackend::kSparse);
}

TEST_F(GraphDispatchTest, UnsetEnvDefaultsToSparse) {
  ::unsetenv("RTGCN_GRAPH_BACKEND");
  graph::ReinitGraphBackendFromEnvForTest();
  EXPECT_EQ(graph::ActiveGraphBackend(), graph::GraphBackend::kSparse);
}

TEST_F(GraphDispatchTest, SelectionPublishedToRegistry) {
  auto& reg = obs::Registry::Global();
  graph::SetGraphBackend(graph::GraphBackend::kDense);
  EXPECT_EQ(reg.GetGauge("graph.backend")->Value(),
            static_cast<double>(graph::GraphBackend::kDense));
  const uint64_t before =
      reg.GetCounter("graph.backend.selected.sparse")->Value();
  graph::SetGraphBackend(graph::GraphBackend::kSparse);
  EXPECT_EQ(reg.GetGauge("graph.backend")->Value(),
            static_cast<double>(graph::GraphBackend::kSparse));
  EXPECT_EQ(reg.GetCounter("graph.backend.selected.sparse")->Value(),
            before + 1);
}

TEST_F(GraphDispatchTest, BuildMetricsPublished) {
  auto& reg = obs::Registry::Global();
  const uint64_t before = reg.GetCounter("graph.sparse.builds")->Value();
  graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(MakeTriangle());
  EXPECT_EQ(reg.GetCounter("graph.sparse.builds")->Value(), before + 1);
  EXPECT_EQ(reg.GetGauge("graph.sparse.last_build_entries")->Value(),
            static_cast<double>(g->num_entries()));
  EXPECT_EQ(reg.GetGauge("graph.sparse.last_build_bytes")->Value(),
            static_cast<double>(g->ApproxBytes()));
}

TEST_F(GraphDispatchTest, ScopedGraphBackendRestores) {
  graph::SetGraphBackend(graph::GraphBackend::kSparse);
  {
    ScopedGraphBackend scope(graph::GraphBackend::kDense);
    EXPECT_EQ(graph::ActiveGraphBackend(), graph::GraphBackend::kDense);
  }
  EXPECT_EQ(graph::ActiveGraphBackend(), graph::GraphBackend::kSparse);
}

}  // namespace
}  // namespace rtgcn
