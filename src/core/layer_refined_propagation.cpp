#include "core/layer_refined_propagation.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace layergcn::core {

namespace par = layergcn::util::parallel;
using tensor::Matrix;

namespace {

// The four row sums the backward row pass needs: <g,h>, <h,x⁰>, |h|², |x⁰|².
struct BackwardSums {
  double gh, hb, hh, bb;
};

// Accumulates in kLanes interleaved float partial sums (so the loop
// vectorizes), combined in a fixed order: the result depends on the row
// only, never on the thread count.
BackwardSums RowSums(const float* g, const float* h, const float* b,
                     int64_t d) {
  constexpr int kLanes = 8;
  float gh[kLanes] = {}, hb[kLanes] = {}, hh[kLanes] = {}, bb[kLanes] = {};
  int64_t c = 0;
  for (; c + kLanes <= d; c += kLanes) {
    for (int k = 0; k < kLanes; ++k) {
      gh[k] += g[c + k] * h[c + k];
      hb[k] += h[c + k] * b[c + k];
      hh[k] += h[c + k] * h[c + k];
      bb[k] += b[c + k] * b[c + k];
    }
  }
  for (; c < d; ++c) {
    gh[0] += g[c] * h[c];
    hb[0] += h[c] * b[c];
    hh[0] += h[c] * h[c];
    bb[0] += b[c] * b[c];
  }
  BackwardSums sums{0.0, 0.0, 0.0, 0.0};
  for (int k = 0; k < kLanes; ++k) {
    sums.gh += gh[k];
    sums.hb += hb[k];
    sums.hh += hh[k];
    sums.bb += bb[k];
  }
  return sums;
}

}  // namespace

ag::Var LayerRefinedPropagation(const sparse::CsrMatrix* adj, ag::Var x0,
                                int num_layers, float eps,
                                std::vector<double>* mean_similarities) {
  LAYERGCN_CHECK(adj != nullptr && x0.valid());
  LAYERGCN_CHECK_GE(num_layers, 1);
  ag::Tape* tape = x0.tape;
  const Matrix& x0v = tape->value(x0);
  const int64_t n = x0v.rows();
  const int64_t d = x0v.cols();
  const int64_t grain = par::RowGrain(d);

  // Every buffer comes from the tape's recycled storage and is overwritten
  // in full before it is read, so none is zeroed. The ones the backward
  // needs (H^l, s^l and the X^{l+1} scratch, which becomes its G_H buffer)
  // are kept on the tape until its next Reset().
  std::vector<const Matrix*> hs;  // H^l
  hs.reserve(static_cast<size_t>(num_layers));
  Matrix* scales = tape->Keep(tape->NewMatrix(num_layers, n));  // row l: s^l
  Matrix* x_next = tape->Keep(tape->NewMatrix(n, d));  // X^{l+1}, per layer
  Matrix out = tape->NewMatrix(n, d);
  Matrix cosines(mean_similarities != nullptr ? n : 0, 1);
  for (int l = 0; l < num_layers; ++l) {
    Matrix* hl = tape->Keep(tape->NewMatrix(n, d));
    {
      OBS_SPAN("fw.spmm");
      adj->Multiply(l == 0 ? x0v : *x_next, hl);
    }
    hs.push_back(hl);
    const Matrix& h = *hl;
    float* s = scales->row(l);
    {
      OBS_SPAN("fw.rowwise_cosine");
      par::For(n, [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          const float* ph = h.row(r);
          const float* pb = x0v.row(r);
          double dot = 0.0, na = 0.0, nb = 0.0;
          for (int64_t c = 0; c < d; ++c) {
            dot += ph[c] * pb[c];
            na += ph[c] * ph[c];
            nb += pb[c] * pb[c];
          }
          const double denom = std::max(std::sqrt(na) * std::sqrt(nb),
                                        static_cast<double>(eps));
          const float a = static_cast<float>(dot / denom);
          if (mean_similarities != nullptr) cosines(r, 0) = a;
          const float f = a + eps;
          s[r] = f;
          float* px = x_next->row(r);
          float* po = out.row(r);
          for (int64_t c = 0; c < d; ++c) px[c] = f * ph[c];
          if (l == 0) {
            std::copy(px, px + d, po);
          } else {
            for (int64_t c = 0; c < d; ++c) po[c] += px[c];
          }
        }
      }, grain);
    }
    if (mean_similarities != nullptr) {
      mean_similarities->push_back(tensor::MeanAll(cosines));
    }
  }

  return tape->Emit(
      std::move(out), tape->requires_grad(x0),
      [adj, x0, eps, grain, hs = std::move(hs), scales,
       gh = x_next](ag::Tape* tape, const Matrix& g) {
        const Matrix& x0v = tape->value(x0);
        const int64_t n = x0v.rows();
        const int64_t d = x0v.cols();
        const int num_layers = static_cast<int>(hs.size());
        // dX⁰ lands straight in X⁰'s accumulator (its sink for a leaf).
        Matrix* dx0 = tape->GradBuffer(x0);
        // Gradient of X^l for 0 < l < L, reused across layers.
        Matrix* gx =
            num_layers > 1 ? tape->Keep(tape->NewMatrix(n, d)) : nullptr;
        for (int l = num_layers - 1; l >= 0; --l) {
          // Gradient of X^{l+1}: the readout's g, plus Â·G_H^{l+1} below
          // the top layer.
          const Matrix& gxl = l == num_layers - 1 ? g : *gx;
          const Matrix& h = *hs[static_cast<size_t>(l)];
          const float* s = scales->row(l);
          {
            OBS_SPAN("bw.rowwise_cosine");
            par::For(n, [&](int64_t lo, int64_t hi) {
              for (int64_t r = lo; r < hi; ++r) {
                const float* pg = gxl.row(r);
                const float* ph = h.row(r);
                const float* pb = x0v.row(r);
                float* pgh = gh->row(r);
                const BackwardSums sums = RowSums(pg, ph, pb, d);
                const float gs = static_cast<float>(sums.gh);  // ∂L/∂s
                const float sr = s[r];
                if (gs == 0.f) {
                  for (int64_t c = 0; c < d; ++c) pgh[c] = sr * pg[c];
                  continue;
                }
                // With m = max(|h||x⁰|, eps): gs·∂cos/∂h = u·x⁰ − vh·h and
                // gs·∂cos/∂x⁰ = u·h − vb·x⁰, where u = gs/m, and above eps
                // vh = gs·cos/|h|², vb = gs·cos/|x⁰|². At or below eps, m is
                // the constant eps and vh = vb = 0.
                const double prod = std::sqrt(sums.hh) * std::sqrt(sums.bb);
                float u = static_cast<float>(gs / static_cast<double>(eps));
                float vh = 0.f, vb = 0.f;
                if (prod > eps) {
                  const double cval = sums.hb / prod;
                  u = static_cast<float>(gs / prod);
                  vh = static_cast<float>(gs * cval / sums.hh);
                  vb = static_cast<float>(gs * cval / sums.bb);
                }
                float* pdx0 = dx0->row(r);
                for (int64_t c = 0; c < d; ++c) {
                  pgh[c] = sr * pg[c] + (u * pb[c] - vh * ph[c]);
                  pdx0[c] += u * ph[c] - vb * pb[c];
                }
              }
            }, grain);
          }
          OBS_SPAN("bw.spmm");
          if (l > 0) {
            std::copy(g.data(), g.data() + g.size(), gx->data());
            adj->MultiplyAdd(*gh, gx);
          } else {
            adj->MultiplyAdd(*gh, dx0);
          }
        }
      },
      "bw.layer_refined");
}

}  // namespace layergcn::core
