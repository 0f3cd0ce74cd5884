// Differentiable operations over Tape variables.
//
// Each op computes its value eagerly with the tensor:: kernels and records a
// backward closure on the tape. Ops whose backward pass needs an *input*
// value capture the input Var and read it back from the tape (values persist
// for the tape's lifetime — no copy); ops whose backward needs their *output*
// (sigmoid, tanh, softmax) capture a copy of the output. The hot training
// ops (SpMM, GatherRows, RowDots, SumSquares) draw their outputs from the
// tape's recycled storage and add their input gradients in place into
// Tape::GradBuffer().
//
// Gradient correctness for every op is verified against central differences
// in tests/autograd_gradcheck_test.cpp.

#ifndef LAYERGCN_AUTOGRAD_OPS_H_
#define LAYERGCN_AUTOGRAD_OPS_H_

#include <vector>

#include "autograd/tape.h"
#include "sparse/csr_matrix.h"

namespace layergcn::ag {

// --- Elementwise arithmetic ---

/// a + b (same shape).
Var Add(Var a, Var b);
/// a - b (same shape).
Var Sub(Var a, Var b);
/// alpha * a.
Var Scale(Var a, float alpha);
/// a + c (entrywise).
Var AddScalar(Var a, float c);
/// -a.
Var Negate(Var a);
/// a ⊙ b (same shape).
Var Hadamard(Var a, Var b);

// --- Linear algebra ---

/// op(a) * op(b) with optional transposes.
Var MatMul(Var a, Var b, bool trans_a = false, bool trans_b = false);

/// aᵀ.
Var Transpose(Var a);

/// m * x where `m` is a constant sparse matrix. `m_transpose` is used by the
/// backward pass (dX = mᵀ·G); both pointers must outlive the tape.
Var SpMM(const sparse::CsrMatrix* m, const sparse::CsrMatrix* m_transpose,
         Var x);

/// SpMM for symmetric m (the normalized bipartite adjacency Â): backward
/// reuses `m` itself.
Var SpMMSymmetric(const sparse::CsrMatrix* m, Var x);

// --- Row-structured ops ---

/// Gathers rows of x (embedding lookup). Backward scatter-adds the B
/// gathered rows into x's gradient buffer: O(B·T), whatever x's height.
Var GatherRows(Var x, std::vector<int32_t> rows);

/// Multiplies row r of x by s(r, 0); s must be Nx1. This is the layer
/// refinement application X^{l+1} = (a + ε) ⊙_rows H of paper Eq. 6.
Var ScaleRows(Var x, Var s);

/// Nx1 of row dot products <a_r, b_r> (the scoring op, paper Eq. 10).
Var RowDots(Var a, Var b);

/// Nx1 of row cosine similarities with eps-guarded denominator (paper
/// Eq. 8).
Var RowwiseCosine(Var a, Var b, float eps);

/// x + broadcast 1xC bias row.
Var AddRowVector(Var x, Var bias);

/// Row-wise L2 normalization y_r = x_r / max(‖x_r‖, eps) (used by NGCF
/// layer outputs and by contrastive objectives).
Var NormalizeRows(Var x, float eps = 1e-12f);

// --- Activations ---

Var Sigmoid(Var a);
Var Tanh(Var a);
Var Relu(Var a);
Var LeakyRelu(Var a, float slope);
/// Numerically stable log(1 + exp(a)); softplus(-x) is the BPR building
/// block: -log σ(x) = softplus(-x).
Var Softplus(Var a);
Var Exp(Var a);
/// Natural log (positive inputs).
Var Log(Var a);
Var Square(Var a);

/// Inverted-dropout application: y = x ⊙ mask where the caller built `mask`
/// with entries 0 or 1/(1-p). The mask is treated as a constant.
Var Dropout(Var x, const Matrix& mask);

// --- Reductions ---

/// Sum of all entries (1x1).
Var Sum(Var a);
/// Mean of all entries (1x1).
Var Mean(Var a);
/// Squared Frobenius norm (1x1) — the L2 penalty ‖X⁰‖² of paper Eq. 12.
Var SumSquares(Var a);

// --- Aggregation ---

/// Elementwise sum of xs (the sum Readout of paper Eq. 9). Requires >= 1
/// input, all same shape.
Var AddN(const std::vector<Var>& xs);

/// Σ_k w(k,0) * xs[k] with learnable Kx1 weights (used by the LightGCN
/// learnable-layer-weight variant behind paper Fig. 1).
Var LinComb(const std::vector<Var>& xs, Var w);

/// Horizontal concatenation (the LR-GCCF / NGCF readout).
Var ConcatCols(const std::vector<Var>& xs);

// --- Row-wise softmax ---

Var SoftmaxRows(Var a);
Var LogSoftmaxRows(Var a);

}  // namespace layergcn::ag

#endif  // LAYERGCN_AUTOGRAD_OPS_H_
