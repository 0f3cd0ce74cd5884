// Tape-based reverse-mode automatic differentiation over tensor::Matrix.
//
// Usage pattern (one tape per training epoch, reset at every batch):
//
//   ag::Tape tape;
//   for (each batch) {
//     tape.Reset();                                          // recycle
//     ag::Var x0 = tape.Parameter(&emb.value, &emb.grad);   // leaf
//     ag::Var h  = ag::SpMMSymmetric(&adj, x0);             // ops build graph
//     ag::Var l  = ag::Mean(ag::Softplus(...));
//     tape.Backward(l);                                     // adds into emb.grad
//   }
//
// Leaves created with Parameter() reference external value storage, and
// their gradient accumulator *is* the external sink: backward passes add
// into emb.grad directly, so grad(leaf) stays empty and parameters persist
// across steps while the tape's nodes do not.
//
// Buffer lifetime: every matrix a step leaves on the tape (node values,
// gradient accumulators, storage registered with Keep()) stays valid until
// the next Reset(). Reset() drops the nodes but keeps that storage in a free
// list, and NewMatrix() hands it back out by exact shape, so a steady
// training loop re-faults no N×T page from batch to batch. Storage no step
// drew from between two resets is released at the second one.
//
// Backward closures add into GradBuffer(input) in place; gradient buffers
// are allocated (zeroed) on first use, and backward functions only run for
// nodes whose gradient is actually reached from the loss, so untouched
// subgraphs cost nothing in the backward pass. Ops are free functions in
// autograd/ops.h.

#ifndef LAYERGCN_AUTOGRAD_TAPE_H_
#define LAYERGCN_AUTOGRAD_TAPE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "tensor/matrix.h"

namespace layergcn::ag {

using tensor::Matrix;

class Tape;

/// Lightweight handle to a node on a tape.
struct Var {
  Tape* tape = nullptr;
  int32_t id = -1;

  bool valid() const { return tape != nullptr && id >= 0; }
};

/// The autodiff tape: owns node values, gradients, and backward closures.
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Registers a differentiable leaf whose value lives in *value (not
  /// copied; must outlive the step). Backward() adds the leaf's gradient
  /// into *grad_sink, which must have the same shape; the sink's existing
  /// contents are kept.
  Var Parameter(const Matrix* value, Matrix* grad_sink);

  /// Registers a non-differentiable leaf holding `value`.
  Var Constant(Matrix value);

  /// Value of a node.
  const Matrix& value(Var v) const;

  /// True if gradients flow through this node.
  bool requires_grad(Var v) const;

  /// Gradient buffer of an interior node after Backward(); empty Matrix if
  /// no gradient reached it. Always empty for a Parameter leaf, whose
  /// gradient lands in its sink.
  const Matrix& grad(Var v) const;

  /// Runs reverse-mode accumulation from `loss`, which must be 1x1. May be
  /// called once per step (between resets).
  void Backward(Var loss);

  /// Ends a step: drops every node and Var (they must not be used again)
  /// and keeps their storage for NewMatrix().
  void Reset();

  /// Number of nodes recorded (for tests / introspection).
  int64_t num_nodes() const { return static_cast<int64_t>(nodes_.size()); }

  // --- Internal API used by the op library (autograd/ops.cpp). ---

  /// A rows x cols matrix from the free list (exact shape), or a fresh one.
  /// Its contents are unspecified: callers must overwrite every entry or
  /// zero it themselves.
  Matrix NewMatrix(int64_t rows, int64_t cols);

  /// Moves `m` into tape storage whose address is stable until Reset(), for
  /// buffers a backward closure reads or reuses (saved activations,
  /// scratch). The storage is recycled like node values.
  Matrix* Keep(Matrix m);

  /// Gradient accumulator of `v`: the sink of a Parameter leaf, otherwise
  /// the node's own buffer, allocated zeroed on first use. nullptr if `v`
  /// needs no gradient. Backward closures add into it in place. The pointer
  /// stays valid until the next Emit() or Reset().
  Matrix* GradBuffer(Var v);

  /// Backward closure: receives the node's output gradient and must
  /// accumulate into the inputs via GradBuffer() / AccumulateGrad().
  using BackwardFn = std::function<void(Tape*, const Matrix&)>;

  /// Records an interior node. `requires_grad` should be true iff any input
  /// requires grad; `backward` may be empty in that case. `op_name`, when
  /// given, must be a string literal (stored by pointer); it labels the
  /// node's backward closure in trace spans and per-op timing counters.
  Var Emit(Matrix value, bool requires_grad, BackwardFn backward,
           const char* op_name = nullptr);

  /// Adds `g` into GradBuffer(v). No-op if `v` does not require grad.
  void AccumulateGrad(Var v, const Matrix& g);

  /// Move-friendly overload: installs `g` as the buffer of an interior node
  /// that has none yet.
  void AccumulateGrad(Var v, Matrix&& g);

 private:
  struct Node {
    Matrix owned_value;              // storage unless external
    const Matrix* external = nullptr;  // set for Parameter leaves
    Matrix* grad_sink = nullptr;       // set for Parameter leaves
    Matrix grad;                       // lazily allocated (interior nodes)
    bool requires_grad = false;
    BackwardFn backward;
    const char* op_name = nullptr;     // string literal; labels trace spans
  };

  const Node& node(Var v) const;
  Node& node(Var v);
  // Checks g's shape against v's value; returns nullptr if v needs no grad.
  Node* GradTarget(Var v, const Matrix& g);

  std::vector<Node> nodes_;
  std::deque<Matrix> kept_;    // Keep() storage, stable addresses
  std::vector<Matrix> free_;   // recycled storage, drawn by NewMatrix()
  bool backward_done_ = false;
};

}  // namespace layergcn::ag

#endif  // LAYERGCN_AUTOGRAD_TAPE_H_
