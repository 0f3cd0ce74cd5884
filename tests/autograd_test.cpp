#include "autograd/tape.h"

#include <cstring>
#include <set>

#include "autograd/ops.h"
#include "core/layer_refined_propagation.h"
#include "gtest/gtest.h"
#include "sparse/csr_matrix.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace layergcn::ag {
namespace {

namespace t = layergcn::tensor;

TEST(TapeTest, ParameterLeafExposesExternalValue) {
  Matrix value = Matrix::FromRows({{1, 2}});
  Matrix grad(1, 2);
  Tape tape;
  Var x = tape.Parameter(&value, &grad);
  EXPECT_TRUE(tape.value(x).Equals(value));
  EXPECT_TRUE(tape.requires_grad(x));
}

TEST(TapeTest, ConstantHasNoGrad) {
  Tape tape;
  Var c = tape.Constant(Matrix::FromRows({{3}}));
  EXPECT_FALSE(tape.requires_grad(c));
  EXPECT_EQ(tape.value(c).scalar(), 3.f);
}

TEST(TapeTest, BackwardAccumulatesIntoSink) {
  Matrix value = Matrix::FromRows({{1, 2}});
  Matrix grad(1, 2);
  Tape tape;
  Var x = tape.Parameter(&value, &grad);
  Var loss = Sum(Scale(x, 3.f));
  tape.Backward(loss);
  EXPECT_TRUE(grad.Equals(Matrix::FromRows({{3, 3}})));
}

TEST(TapeTest, SinkAccumulatesAcrossTapes) {
  Matrix value = Matrix::FromRows({{1, 2}});
  Matrix grad(1, 2);
  for (int step = 0; step < 2; ++step) {
    Tape tape;
    Var x = tape.Parameter(&value, &grad);
    tape.Backward(Sum(x));
  }
  EXPECT_TRUE(grad.Equals(Matrix::FromRows({{2, 2}})));
}

TEST(TapeTest, RequiresGradPropagatesThroughOps) {
  Matrix value(1, 2, 1.f);
  Matrix grad(1, 2);
  Tape tape;
  Var p = tape.Parameter(&value, &grad);
  Var c = tape.Constant(Matrix(1, 2, 2.f));
  EXPECT_TRUE(tape.requires_grad(Add(p, c)));
  EXPECT_FALSE(tape.requires_grad(Add(c, c)));
  EXPECT_TRUE(tape.requires_grad(Hadamard(c, p)));
}

TEST(TapeTest, UnreachedBranchGetsNoGradient) {
  Matrix v1(1, 1, 1.f), g1(1, 1);
  Matrix v2(1, 1, 1.f), g2(1, 1);
  Tape tape;
  Var a = tape.Parameter(&v1, &g1);
  Var b = tape.Parameter(&v2, &g2);
  Var unused = Scale(b, 5.f);  // recorded but not part of the loss
  (void)unused;
  tape.Backward(Sum(a));
  EXPECT_EQ(g1(0, 0), 1.f);
  EXPECT_EQ(g2(0, 0), 0.f);
  EXPECT_TRUE(tape.grad(unused).empty());
}

TEST(TapeTest, DiamondGraphAccumulatesBothPaths) {
  // loss = sum(x + x) => dL/dx = 2.
  Matrix value(1, 3, 1.f);
  Matrix grad(1, 3);
  Tape tape;
  Var x = tape.Parameter(&value, &grad);
  tape.Backward(Sum(Add(x, x)));
  EXPECT_TRUE(grad.Equals(Matrix(1, 3, 2.f)));
}

TEST(TapeDeathTest, BackwardTwiceAborts) {
  Matrix value(1, 1, 1.f), grad(1, 1);
  Tape tape;
  Var x = tape.Parameter(&value, &grad);
  Var loss = Sum(x);
  tape.Backward(loss);
  EXPECT_DEATH(tape.Backward(loss), "once per tape");
}

TEST(TapeDeathTest, NonScalarLossAborts) {
  Matrix value(2, 2, 1.f), grad(2, 2);
  Tape tape;
  Var x = tape.Parameter(&value, &grad);
  EXPECT_DEATH(tape.Backward(x), "scalar");
}

TEST(TapeDeathTest, CrossTapeVarAborts) {
  Matrix value(1, 1, 1.f), grad(1, 1);
  Tape t1, t2;
  Var x = t1.Parameter(&value, &grad);
  EXPECT_DEATH((void)t2.value(x), "different tape");
}

TEST(TapeDeathTest, ParameterShapeMismatchAborts) {
  Matrix value(2, 2), grad(2, 3);
  Tape tape;
  EXPECT_DEATH((void)tape.Parameter(&value, &grad), "shape mismatch");
}

TEST(OpsValueTest, ForwardValuesMatchTensorKernels) {
  Matrix a = Matrix::FromRows({{1, -2}, {0.5f, 3}});
  Matrix b = Matrix::FromRows({{2, 2}, {-1, 1}});
  Tape tape;
  Var va = tape.Constant(a);
  Var vb = tape.Constant(b);
  EXPECT_TRUE(tape.value(Add(va, vb)).Equals(t::Add(a, b)));
  EXPECT_TRUE(tape.value(Sub(va, vb)).Equals(t::Sub(a, b)));
  EXPECT_TRUE(tape.value(Hadamard(va, vb)).Equals(t::Hadamard(a, b)));
  EXPECT_TRUE(tape.value(Sigmoid(va)).Equals(t::Sigmoid(a)));
  EXPECT_TRUE(tape.value(Softplus(va)).Equals(t::Softplus(a)));
  EXPECT_TRUE(tape.value(Relu(va)).Equals(t::Relu(a)));
  EXPECT_TRUE(
      tape.value(MatMul(va, vb)).Equals(t::MatMul(a, b, false, false)));
  EXPECT_NEAR(tape.value(Sum(va)).scalar(), t::SumAll(a), 1e-6);
  EXPECT_NEAR(tape.value(Mean(va)).scalar(), t::MeanAll(a), 1e-6);
  EXPECT_NEAR(tape.value(SumSquares(va)).scalar(), t::SumSquares(a), 1e-5);
}

TEST(OpsValueTest, SpMMValueMatchesCsr) {
  sparse::CooMatrix coo;
  coo.rows = 2;
  coo.cols = 3;
  coo.entries = {{0, 1, 2.f}, {1, 2, -1.f}};
  sparse::CsrMatrix m = sparse::CsrMatrix::FromCoo(coo);
  Matrix x = Matrix::FromRows({{1, 1}, {2, 2}, {3, 3}});
  Tape tape;
  Var vx = tape.Constant(x);
  Var y = SpMM(&m, &m /*unused for value*/, vx);
  EXPECT_TRUE(tape.value(y).Equals(m.Multiply(x)));
}

TEST(OpsValueTest, AddNAndLinComb) {
  Matrix a(2, 2, 1.f), b(2, 2, 2.f), c(2, 2, 3.f);
  Tape tape;
  Var va = tape.Constant(a), vb = tape.Constant(b), vc = tape.Constant(c);
  EXPECT_TRUE(tape.value(AddN({va, vb, vc})).Equals(Matrix(2, 2, 6.f)));
  Var w = tape.Constant(Matrix::FromRows({{1}, {0.5f}, {2}}));
  EXPECT_TRUE(tape.value(LinComb({va, vb, vc}, w))
                  .Equals(Matrix(2, 2, 1.f + 1.f + 6.f)));
}

TEST(OpsValueTest, GatherAndConcat) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  Tape tape;
  Var va = tape.Constant(a);
  EXPECT_TRUE(tape.value(GatherRows(va, {2, 0}))
                  .Equals(Matrix::FromRows({{5, 6}, {1, 2}})));
  Var cat = ConcatCols({va, va});
  EXPECT_EQ(tape.value(cat).cols(), 4);
  EXPECT_EQ(tape.value(cat)(1, 3), 4.f);
}

TEST(OpsValueTest, DropoutAppliesMask) {
  Matrix x(2, 2, 3.f);
  Matrix mask = Matrix::FromRows({{2, 0}, {0, 2}});
  Tape tape;
  Var vx = tape.Constant(x);
  Var y = Dropout(vx, mask);
  EXPECT_TRUE(tape.value(y).Equals(Matrix::FromRows({{6, 0}, {0, 6}})));
}

TEST(OpsValueTest, TransposeValue) {
  Matrix a = Matrix::FromRows({{1, 2, 3}});
  Tape tape;
  Var v = Transpose(tape.Constant(a));
  EXPECT_EQ(tape.value(v).rows(), 3);
  EXPECT_EQ(tape.value(v)(2, 0), 3.f);
}

// --- Tape reuse: Reset(), NewMatrix(), GradBuffer() ---

TEST(TapeReuseTest, GradBufferIsNullForConstantAndSinkForParameter) {
  Matrix value(2, 2, 1.f), grad(2, 2);
  Tape tape;
  Var c = tape.Constant(Matrix(2, 2, 3.f));
  Var x = tape.Parameter(&value, &grad);
  EXPECT_EQ(tape.GradBuffer(c), nullptr);
  EXPECT_EQ(tape.GradBuffer(x), &grad);
  EXPECT_EQ(tape.GradBuffer(Add(c, c)), nullptr);
}

TEST(TapeReuseTest, ParameterLeafAddsIntoNonZeroSink) {
  Matrix value = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix grad(2, 2, 1.f);
  Tape tape;
  Var x = tape.Parameter(&value, &grad);
  // Two paths into the leaf: 3 from the scale, 1 per gathered copy of row 1.
  tape.Backward(Add(Sum(Scale(x, 3.f)), Sum(GatherRows(x, {1, 1}))));
  EXPECT_TRUE(grad.Equals(Matrix::FromRows({{4, 4}, {6, 6}})));
  EXPECT_TRUE(tape.grad(x).empty());
}

TEST(TapeReuseTest, GatherRowsDuplicatesIntoLeaf) {
  Matrix value = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  Matrix grad(3, 2);
  Tape tape;
  Var x = tape.Parameter(&value, &grad);
  Var w = tape.Constant(Matrix::FromRows({{1, 2}, {4, 8}, {16, 32}, {64, 128}}));
  tape.Backward(Sum(Hadamard(GatherRows(x, {1, 0, 1, 1}), w)));
  // Row 1 collects weight rows 0, 2, 3; row 0 weight row 1; row 2 nothing.
  EXPECT_TRUE(grad.Equals(Matrix::FromRows({{4, 8}, {81, 162}, {0, 0}})));
}

TEST(TapeReuseTest, GatherRowsDuplicatesIntoInteriorNode) {
  // The final_emb path of BatchLoss: three gathers, with repeated rows, out
  // of one interior node share its gradient buffer.
  Matrix value = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  Matrix grad(3, 2);
  Tape tape;
  Var x = tape.Parameter(&value, &grad);
  Var y = Scale(x, 2.f);
  Var a = GatherRows(y, {2, 2});
  Var b = GatherRows(y, {0, 2});
  Var c = GatherRows(y, {2});
  tape.Backward(AddN({Sum(a), Sum(b), Sum(Scale(c, 4.f))}));
  EXPECT_TRUE(tape.grad(y).Equals(Matrix::FromRows({{1, 1}, {0, 0}, {7, 7}})));
  EXPECT_TRUE(grad.Equals(Matrix::FromRows({{2, 2}, {0, 0}, {14, 14}})));
}

TEST(TapeReuseTest, RecycledAccumulatorComesBackZeroed) {
  Matrix value = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix grad(2, 2);
  Tape tape;
  Var x = tape.Parameter(&value, &grad);
  Var y = GatherRows(x, {1, 0, 1});
  tape.Backward(Sum(Scale(GatherRows(y, {0, 2}), 5.f)));
  // y's value and gradient are both 3x2 and hold non-zero entries.
  const std::set<const float*> step1{tape.value(y).data(),
                                     tape.grad(y).data()};
  ASSERT_FALSE(tape.grad(y).Equals(Matrix(3, 2)));

  tape.Reset();
  EXPECT_EQ(tape.num_nodes(), 0);
  x = tape.Parameter(&value, &grad);
  y = GatherRows(x, {1, 0, 1});
  Matrix* acc = tape.GradBuffer(y);
  ASSERT_NE(acc, nullptr);
  EXPECT_TRUE(step1.count(acc->data()) == 1) << "storage was not recycled";
  EXPECT_TRUE(acc->Equals(Matrix(3, 2)));
}

// An 8-node symmetric adjacency with one isolated node (7).
sparse::CsrMatrix EightNodeAdjacency() {
  sparse::CooMatrix coo;
  coo.rows = 8;
  coo.cols = 8;
  const int32_t edges[][2] = {{0, 4}, {0, 5}, {1, 5}, {1, 6},
                              {2, 4}, {3, 6}, {2, 6}};
  for (const auto& e : edges) {
    coo.entries.push_back({e[0], e[1], 0.4f});
    coo.entries.push_back({e[1], e[0], 0.4f});
  }
  return sparse::CsrMatrix::FromCoo(coo);
}

// BatchLoss in miniature: BPR over gathers of a propagated table (fused
// refinement plus a plain SpMM) and an L2 term over gathers of x0.
Var MiniBatchLoss(const sparse::CsrMatrix* adj, Var x0,
                  const std::vector<int32_t>& u, const std::vector<int32_t>& i,
                  const std::vector<int32_t>& j) {
  Var final_emb = Add(core::LayerRefinedPropagation(adj, x0, 2, 1e-8f),
                      SpMMSymmetric(adj, x0));
  Var eu = GatherRows(final_emb, u);
  Var bpr = Mean(Softplus(Sub(RowDots(eu, GatherRows(final_emb, j)),
                              RowDots(eu, GatherRows(final_emb, i)))));
  Var reg = AddN({SumSquares(GatherRows(x0, u)), SumSquares(GatherRows(x0, i)),
                  SumSquares(GatherRows(x0, j))});
  return Add(bpr, Scale(reg, 0.01f));
}

TEST(TapeReuseTest, ResetTapeMatchesFreshTapesBitwise) {
  const sparse::CsrMatrix adj = EightNodeAdjacency();
  util::Rng rng(4242);
  Matrix init(8, 5);
  init.UniformInit(&rng, -1.f, 1.f);
  Matrix value_fresh = init, grad_fresh(8, 5);
  Matrix value_reused = init, grad_reused(8, 5);

  Tape reused;
  // The batch size changes after the first step, so B×T shapes change; the
  // third step then draws the second step's B×T storage back.
  for (int64_t batch : {6, 4, 4}) {
    SCOPED_TRACE(batch);
    std::vector<int32_t> u, i, j;
    for (int64_t k = 0; k < batch; ++k) {
      u.push_back(static_cast<int32_t>(rng.NextInt(0, 4)));
      i.push_back(static_cast<int32_t>(rng.NextInt(4, 8)));
      j.push_back(static_cast<int32_t>(rng.NextInt(4, 8)));
    }
    float loss_fresh = 0.f, loss_reused = 0.f;
    {
      Tape fresh;
      Var x0 = fresh.Parameter(&value_fresh, &grad_fresh);
      Var loss = MiniBatchLoss(&adj, x0, u, i, j);
      fresh.Backward(loss);
      loss_fresh = fresh.value(loss).scalar();
    }
    reused.Reset();
    Var x0 = reused.Parameter(&value_reused, &grad_reused);
    Var loss = MiniBatchLoss(&adj, x0, u, i, j);
    reused.Backward(loss);
    loss_reused = reused.value(loss).scalar();

    EXPECT_EQ(std::memcmp(&loss_fresh, &loss_reused, sizeof(float)), 0);
    ASSERT_EQ(std::memcmp(grad_fresh.data(), grad_reused.data(),
                          sizeof(float) * static_cast<size_t>(grad_fresh.size())),
              0);
    // A plain SGD step so later steps see new values (and stale buffers).
    t::AxpyInPlace(&value_fresh, -0.5f, grad_fresh);
    t::AxpyInPlace(&value_reused, -0.5f, grad_reused);
    grad_fresh.Zero();
    grad_reused.Zero();
  }
}

}  // namespace
}  // namespace layergcn::ag
