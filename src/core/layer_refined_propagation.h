// Layer-refined propagation (paper §III-B, Eqs. 6-9) as one tape node.
//
//   H^l     = Â X^l
//   s^l     = cos(H^l, X⁰) + ε              (row-wise, Eqs. 6 and 8)
//   X^{l+1} = s^l ⊙_rows H^l
//   out     = Σ_{l=1..L} X^l                 (sum readout, Eq. 9)
//
// The forward runs, per layer, one SpMM and one row pass that computes the
// cosine, writes X^{l+1} into a reused scratch buffer and adds it into the
// readout. The backward runs, per layer from the top, one row pass (the
// gradients of the row scale and of the cosine) and one SpMM that carries
// the gradient to the layer below. Only H^l and s^l are saved for the
// backward pass; the forward's scratch buffer becomes the backward's G_H
// buffer. All of these, the output and the backward's G_X buffer are drawn
// from the tape's recycled storage (Tape::NewMatrix) and kept on the tape
// (Tape::Keep), and X⁰'s gradient is added in place into
// Tape::GradBuffer(x0), so a reused tape allocates no N×T matrix here.
//
// The forward is element-wise equal to the composite chain SpMMSymmetric →
// RowwiseCosine → AddScalar → ScaleRows per layer followed by AddN: the row
// pass uses the same arithmetic (double dot/norm accumulators, the float
// cosine plus ε, a float row scale). The backward evaluates the same
// derivatives, including the constant-denominator branch |H||X⁰| ≤ ε that
// rows isolated by DegreeDrop reach, but sums each row in interleaved float
// lanes so the loop vectorizes. Its X⁰ gradient therefore agrees with the
// composite's to float rounding, and is bit-identical at any thread count.
//
// Trace spans: the SpMMs sit under fw.spmm / bw.spmm and the row passes
// under fw.rowwise_cosine / bw.rowwise_cosine, as siblings.

#ifndef LAYERGCN_CORE_LAYER_REFINED_PROPAGATION_H_
#define LAYERGCN_CORE_LAYER_REFINED_PROPAGATION_H_

#include <vector>

#include "autograd/tape.h"
#include "sparse/csr_matrix.h"

namespace layergcn::core {

/// Propagates x0 (N×d) through `num_layers` (≥ 1) refined layers over the
/// symmetric adjacency `adj` (which must outlive the tape) and returns the
/// sum readout. When `mean_similarities` is non-null, appends each layer's
/// mean cos(H^l, X⁰) (the a^{l+1} of Fig. 5) in layer order.
ag::Var LayerRefinedPropagation(const sparse::CsrMatrix* adj, ag::Var x0,
                                int num_layers, float eps,
                                std::vector<double>* mean_similarities =
                                    nullptr);

}  // namespace layergcn::core

#endif  // LAYERGCN_CORE_LAYER_REFINED_PROPAGATION_H_
