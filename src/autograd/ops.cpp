#include "autograd/ops.h"

#include <cmath>
#include <utility>

#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace layergcn::ag {

namespace t = layergcn::tensor;
namespace par = layergcn::util::parallel;

namespace {

Tape* TapeOf(Var v) {
  LAYERGCN_CHECK(v.valid()) << "invalid Var";
  return v.tape;
}

Tape* SameTape(Var a, Var b) {
  Tape* tp = TapeOf(a);
  LAYERGCN_CHECK(TapeOf(b) == tp) << "Vars from different tapes";
  return tp;
}

}  // namespace

Var Add(Var a, Var b) {
  Tape* tp = SameTape(a, b);
  Matrix out = t::Add(tp->value(a), tp->value(b));
  const bool rg = tp->requires_grad(a) || tp->requires_grad(b);
  return tp->Emit(std::move(out), rg, [a, b](Tape* tape, const Matrix& g) {
    tape->AccumulateGrad(a, g);
    tape->AccumulateGrad(b, g);
  }, "bw.add");
}

Var Sub(Var a, Var b) {
  Tape* tp = SameTape(a, b);
  Matrix out = t::Sub(tp->value(a), tp->value(b));
  const bool rg = tp->requires_grad(a) || tp->requires_grad(b);
  return tp->Emit(std::move(out), rg, [a, b](Tape* tape, const Matrix& g) {
    tape->AccumulateGrad(a, g);
    tape->AccumulateGrad(b, t::Negate(g));
  }, "bw.sub");
}

Var Scale(Var a, float alpha) {
  Tape* tp = TapeOf(a);
  Matrix out = t::Scale(tp->value(a), alpha);
  return tp->Emit(std::move(out), tp->requires_grad(a),
                  [a, alpha](Tape* tape, const Matrix& g) {
                    tape->AccumulateGrad(a, t::Scale(g, alpha));
                  }, "bw.scale");
}

Var AddScalar(Var a, float c) {
  Tape* tp = TapeOf(a);
  Matrix out = t::AddScalar(tp->value(a), c);
  return tp->Emit(std::move(out), tp->requires_grad(a),
                  [a](Tape* tape, const Matrix& g) {
                    tape->AccumulateGrad(a, g);
                  }, "bw.add_scalar");
}

Var Negate(Var a) { return Scale(a, -1.f); }

Var Hadamard(Var a, Var b) {
  Tape* tp = SameTape(a, b);
  Matrix out = t::Hadamard(tp->value(a), tp->value(b));
  const bool rg = tp->requires_grad(a) || tp->requires_grad(b);
  return tp->Emit(std::move(out), rg, [a, b](Tape* tape, const Matrix& g) {
    tape->AccumulateGrad(a, t::Hadamard(g, tape->value(b)));
    tape->AccumulateGrad(b, t::Hadamard(g, tape->value(a)));
  }, "bw.hadamard");
}

Var MatMul(Var a, Var b, bool trans_a, bool trans_b) {
  Tape* tp = SameTape(a, b);
  OBS_SPAN("fw.matmul");
  Matrix out = t::MatMul(tp->value(a), tp->value(b), trans_a, trans_b);
  const bool rg = tp->requires_grad(a) || tp->requires_grad(b);
  return tp->Emit(
      std::move(out), rg,
      [a, b, trans_a, trans_b](Tape* tape, const Matrix& g) {
        const Matrix& av = tape->value(a);
        const Matrix& bv = tape->value(b);
        if (tape->requires_grad(a)) {
          Matrix da;
          if (!trans_a && !trans_b) {
            da = t::MatMul(g, bv, false, true);  // G·Bᵀ
          } else if (!trans_a && trans_b) {
            da = t::MatMul(g, bv, false, false);  // G·B
          } else if (trans_a && !trans_b) {
            da = t::MatMul(bv, g, false, true);  // B·Gᵀ
          } else {
            da = t::MatMul(bv, g, true, true);  // Bᵀ·Gᵀ
          }
          tape->AccumulateGrad(a, std::move(da));
        }
        if (tape->requires_grad(b)) {
          Matrix db;
          if (!trans_a && !trans_b) {
            db = t::MatMul(av, g, true, false);  // Aᵀ·G
          } else if (!trans_a && trans_b) {
            db = t::MatMul(g, av, true, false);  // Gᵀ·A
          } else if (trans_a && !trans_b) {
            db = t::MatMul(av, g, false, false);  // A·G
          } else {
            db = t::MatMul(g, av, true, true);  // Gᵀ·Aᵀ
          }
          tape->AccumulateGrad(b, std::move(db));
        }
      },
      "bw.matmul");
}

Var Transpose(Var a) {
  Tape* tp = TapeOf(a);
  Matrix out = t::Transpose(tp->value(a));
  return tp->Emit(std::move(out), tp->requires_grad(a),
                  [a](Tape* tape, const Matrix& g) {
                    tape->AccumulateGrad(a, t::Transpose(g));
                  }, "bw.transpose");
}

Var SpMM(const sparse::CsrMatrix* m, const sparse::CsrMatrix* m_transpose,
         Var x) {
  LAYERGCN_CHECK(m != nullptr && m_transpose != nullptr);
  Tape* tp = TapeOf(x);
  OBS_SPAN("fw.spmm");
  const Matrix& xv = tp->value(x);
  Matrix out = tp->NewMatrix(m->rows(), xv.cols());
  m->Multiply(xv, &out);
  return tp->Emit(std::move(out), tp->requires_grad(x),
                  [m_transpose, x](Tape* tape, const Matrix& g) {
                    m_transpose->MultiplyAdd(g, tape->GradBuffer(x));
                  }, "bw.spmm");
}

Var SpMMSymmetric(const sparse::CsrMatrix* m, Var x) {
  return SpMM(m, m, x);
}

Var GatherRows(Var x, std::vector<int32_t> rows) {
  Tape* tp = TapeOf(x);
  OBS_SPAN("fw.gather_rows");
  const Matrix& xv = tp->value(x);
  Matrix out = tp->NewMatrix(static_cast<int64_t>(rows.size()), xv.cols());
  t::GatherRows(xv, rows, &out);
  return tp->Emit(
      std::move(out), tp->requires_grad(x),
      [x, rows = std::move(rows)](Tape* tape, const Matrix& g) {
        // Row-sparse: only the gathered rows of x's gradient are touched.
        t::ScatterAddRows(tape->GradBuffer(x), rows, g);
      },
      "bw.gather_rows");
}

Var ScaleRows(Var x, Var s) {
  Tape* tp = SameTape(x, s);
  Matrix out = t::ScaleRows(tp->value(x), tp->value(s));
  const bool rg = tp->requires_grad(x) || tp->requires_grad(s);
  return tp->Emit(std::move(out), rg, [x, s](Tape* tape, const Matrix& g) {
    if (tape->requires_grad(x)) {
      tape->AccumulateGrad(x, t::ScaleRows(g, tape->value(s)));
    }
    if (tape->requires_grad(s)) {
      tape->AccumulateGrad(s, t::RowDots(g, tape->value(x)));
    }
  }, "bw.scale_rows");
}

Var RowDots(Var a, Var b) {
  Tape* tp = SameTape(a, b);
  OBS_SPAN("fw.row_dots");
  Matrix out = t::RowDots(tp->value(a), tp->value(b));
  const bool rg = tp->requires_grad(a) || tp->requires_grad(b);
  return tp->Emit(std::move(out), rg, [a, b](Tape* tape, const Matrix& g) {
    // g is Nx1; d a_r += g_r * b_r and d b_r += g_r * a_r, in place.
    const Matrix& av = tape->value(a);
    const Matrix& bv = tape->value(b);
    Matrix* da = tape->GradBuffer(a);
    Matrix* db = tape->GradBuffer(b);
    const int64_t cols = av.cols();
    par::For(av.rows(), [&](int64_t row_lo, int64_t row_hi) {
      for (int64_t r = row_lo; r < row_hi; ++r) {
        const float gr = g(r, 0);
        if (da != nullptr) {
          const float* pb = bv.row(r);
          float* pd = da->row(r);
          for (int64_t c = 0; c < cols; ++c) pd[c] += pb[c] * gr;
        }
        if (db != nullptr) {
          const float* pa = av.row(r);
          float* pd = db->row(r);
          for (int64_t c = 0; c < cols; ++c) pd[c] += pa[c] * gr;
        }
      }
    }, par::RowGrain(cols));
  }, "bw.row_dots");
}

Var RowwiseCosine(Var a, Var b, float eps) {
  Tape* tp = SameTape(a, b);
  OBS_SPAN("fw.rowwise_cosine");
  Matrix out = t::RowwiseCosine(tp->value(a), tp->value(b), eps);
  const bool rg = tp->requires_grad(a) || tp->requires_grad(b);
  return tp->Emit(
      std::move(out), rg, [a, b, eps](Tape* tape, const Matrix& g) {
        // Per row: c = d / m with d = <a,b>, m = max(|a||b|, eps).
        // If |a||b| > eps:  dc/da = b/m − c·a/|a|²,  dc/db symmetric.
        // Else m is the constant eps: dc/da = b/eps, dc/db = a/eps.
        const Matrix& av = tape->value(a);
        const Matrix& bv = tape->value(b);
        const bool need_a = tape->requires_grad(a);
        const bool need_b = tape->requires_grad(b);
        Matrix da(need_a ? av.rows() : 0, need_a ? av.cols() : 0);
        Matrix db(need_b ? bv.rows() : 0, need_b ? bv.cols() : 0);
        const int64_t cols = av.cols();
        par::For(av.rows(), [&](int64_t row_lo, int64_t row_hi) {
        for (int64_t r = row_lo; r < row_hi; ++r) {
          const float gr = g(r, 0);
          if (gr == 0.f) continue;
          const float* pa = av.row(r);
          const float* pb = bv.row(r);
          double dot = 0.0, na2 = 0.0, nb2 = 0.0;
          for (int64_t c = 0; c < cols; ++c) {
            dot += pa[c] * pb[c];
            na2 += pa[c] * pa[c];
            nb2 += pb[c] * pb[c];
          }
          const double na = std::sqrt(na2);
          const double nb = std::sqrt(nb2);
          const double prod = na * nb;
          if (prod > eps) {
            const double cval = dot / prod;
            if (need_a) {
              const double inv_m = 1.0 / prod;
              const double coef = cval / na2;
              float* pda = da.row(r);
              for (int64_t c = 0; c < cols; ++c) {
                pda[c] += gr * static_cast<float>(pb[c] * inv_m -
                                                  coef * pa[c]);
              }
            }
            if (need_b) {
              const double inv_m = 1.0 / prod;
              const double coef = cval / nb2;
              float* pdb = db.row(r);
              for (int64_t c = 0; c < cols; ++c) {
                pdb[c] += gr * static_cast<float>(pa[c] * inv_m -
                                                  coef * pb[c]);
              }
            }
          } else {
            const double inv_eps = 1.0 / eps;
            if (need_a) {
              float* pda = da.row(r);
              for (int64_t c = 0; c < cols; ++c) {
                pda[c] += gr * static_cast<float>(pb[c] * inv_eps);
              }
            }
            if (need_b) {
              float* pdb = db.row(r);
              for (int64_t c = 0; c < cols; ++c) {
                pdb[c] += gr * static_cast<float>(pa[c] * inv_eps);
              }
            }
          }
        }
        }, par::RowGrain(cols));
        if (need_a) tape->AccumulateGrad(a, std::move(da));
        if (need_b) tape->AccumulateGrad(b, std::move(db));
      },
      "bw.rowwise_cosine");
}

Var AddRowVector(Var x, Var bias) {
  Tape* tp = SameTape(x, bias);
  Matrix out = t::AddRowVector(tp->value(x), tp->value(bias));
  const bool rg = tp->requires_grad(x) || tp->requires_grad(bias);
  return tp->Emit(std::move(out), rg, [x, bias](Tape* tape, const Matrix& g) {
    tape->AccumulateGrad(x, g);
    if (tape->requires_grad(bias)) {
      tape->AccumulateGrad(bias, t::ColSums(g));
    }
  }, "bw.add_row_vector");
}

Var NormalizeRows(Var x, float eps) {
  Tape* tp = TapeOf(x);
  Matrix out = t::NormalizeRowsL2(tp->value(x), eps);
  Matrix saved = out;  // y = x/‖x‖; backward uses y
  return tp->Emit(
      std::move(out), tp->requires_grad(x),
      [x, saved = std::move(saved), eps](Tape* tape, const Matrix& g) {
        // dy/dx: dL/dx_r = (g_r − y_r·<g_r, y_r>) / max(‖x_r‖, eps).
        const Matrix& xv = tape->value(x);
        Matrix dx(xv.rows(), xv.cols());
        const int64_t cols = xv.cols();
        par::For(xv.rows(), [&](int64_t row_lo, int64_t row_hi) {
          for (int64_t r = row_lo; r < row_hi; ++r) {
            const float* px = xv.row(r);
            const float* py = saved.row(r);
            const float* pg = g.row(r);
            double norm2 = 0.0, gy = 0.0;
            for (int64_t c = 0; c < cols; ++c) {
              norm2 += static_cast<double>(px[c]) * px[c];
              gy += static_cast<double>(pg[c]) * py[c];
            }
            const double norm =
                std::max(std::sqrt(norm2), static_cast<double>(eps));
            float* pd = dx.row(r);
            for (int64_t c = 0; c < cols; ++c) {
              pd[c] = static_cast<float>((pg[c] - py[c] * gy) / norm);
            }
          }
        }, par::RowGrain(cols));
        tape->AccumulateGrad(x, std::move(dx));
      },
      "bw.normalize_rows");
}

Var Sigmoid(Var a) {
  Tape* tp = TapeOf(a);
  Matrix out = t::Sigmoid(tp->value(a));
  Matrix saved = out;  // backward needs σ(x)
  return tp->Emit(std::move(out), tp->requires_grad(a),
                  [a, saved = std::move(saved)](Tape* tape, const Matrix& g) {
                    Matrix dx(g.rows(), g.cols());
                    par::For(g.size(), [&](int64_t lo, int64_t hi) {
                      for (int64_t i = lo; i < hi; ++i) {
                        const float s = saved.data()[i];
                        dx.data()[i] = g.data()[i] * s * (1.f - s);
                      }
                    });
                    tape->AccumulateGrad(a, std::move(dx));
                  }, "bw.sigmoid");
}

Var Tanh(Var a) {
  Tape* tp = TapeOf(a);
  Matrix out = t::Tanh(tp->value(a));
  Matrix saved = out;
  return tp->Emit(std::move(out), tp->requires_grad(a),
                  [a, saved = std::move(saved)](Tape* tape, const Matrix& g) {
                    Matrix dx(g.rows(), g.cols());
                    par::For(g.size(), [&](int64_t lo, int64_t hi) {
                      for (int64_t i = lo; i < hi; ++i) {
                        const float th = saved.data()[i];
                        dx.data()[i] = g.data()[i] * (1.f - th * th);
                      }
                    });
                    tape->AccumulateGrad(a, std::move(dx));
                  }, "bw.tanh");
}

Var Relu(Var a) {
  Tape* tp = TapeOf(a);
  Matrix out = t::Relu(tp->value(a));
  return tp->Emit(std::move(out), tp->requires_grad(a),
                  [a](Tape* tape, const Matrix& g) {
                    const Matrix& x = tape->value(a);
                    Matrix dx(g.rows(), g.cols());
                    par::For(g.size(), [&](int64_t lo, int64_t hi) {
                      for (int64_t i = lo; i < hi; ++i) {
                        dx.data()[i] = x.data()[i] > 0.f ? g.data()[i] : 0.f;
                      }
                    });
                    tape->AccumulateGrad(a, std::move(dx));
                  }, "bw.relu");
}

Var LeakyRelu(Var a, float slope) {
  Tape* tp = TapeOf(a);
  Matrix out = t::LeakyRelu(tp->value(a), slope);
  return tp->Emit(std::move(out), tp->requires_grad(a),
                  [a, slope](Tape* tape, const Matrix& g) {
                    const Matrix& x = tape->value(a);
                    Matrix dx(g.rows(), g.cols());
                    par::For(g.size(), [&](int64_t lo, int64_t hi) {
                      for (int64_t i = lo; i < hi; ++i) {
                        dx.data()[i] = x.data()[i] > 0.f ? g.data()[i]
                                                         : slope * g.data()[i];
                      }
                    });
                    tape->AccumulateGrad(a, std::move(dx));
                  }, "bw.leaky_relu");
}

Var Softplus(Var a) {
  Tape* tp = TapeOf(a);
  OBS_SPAN("fw.softplus");
  Matrix out = t::Softplus(tp->value(a));
  return tp->Emit(std::move(out), tp->requires_grad(a),
                  [a](Tape* tape, const Matrix& g) {
                    // d softplus(x) = σ(x).
                    Matrix dx = t::Sigmoid(tape->value(a));
                    t::HadamardInPlace(&dx, g);
                    tape->AccumulateGrad(a, std::move(dx));
                  }, "bw.softplus");
}

Var Exp(Var a) {
  Tape* tp = TapeOf(a);
  Matrix out = t::Exp(tp->value(a));
  Matrix saved = out;
  return tp->Emit(std::move(out), tp->requires_grad(a),
                  [a, saved = std::move(saved)](Tape* tape, const Matrix& g) {
                    Matrix dx = t::Hadamard(g, saved);
                    tape->AccumulateGrad(a, std::move(dx));
                  }, "bw.exp");
}

Var Log(Var a) {
  Tape* tp = TapeOf(a);
  Matrix out = t::Log(tp->value(a));
  return tp->Emit(std::move(out), tp->requires_grad(a),
                  [a](Tape* tape, const Matrix& g) {
                    const Matrix& x = tape->value(a);
                    Matrix dx(g.rows(), g.cols());
                    par::For(g.size(), [&](int64_t lo, int64_t hi) {
                      for (int64_t i = lo; i < hi; ++i) {
                        dx.data()[i] = g.data()[i] / x.data()[i];
                      }
                    });
                    tape->AccumulateGrad(a, std::move(dx));
                  }, "bw.log");
}

Var Square(Var a) {
  Tape* tp = TapeOf(a);
  Matrix out = t::Square(tp->value(a));
  return tp->Emit(std::move(out), tp->requires_grad(a),
                  [a](Tape* tape, const Matrix& g) {
                    Matrix dx = t::Hadamard(g, tape->value(a));
                    t::ScaleInPlace(&dx, 2.f);
                    tape->AccumulateGrad(a, std::move(dx));
                  }, "bw.square");
}

Var Dropout(Var x, const Matrix& mask) {
  Tape* tp = TapeOf(x);
  Var m = tp->Constant(mask);
  return Hadamard(x, m);
}

Var Sum(Var a) {
  Tape* tp = TapeOf(a);
  Matrix out = Matrix::Scalar(static_cast<float>(t::SumAll(tp->value(a))));
  return tp->Emit(std::move(out), tp->requires_grad(a),
                  [a](Tape* tape, const Matrix& g) {
                    const Matrix& x = tape->value(a);
                    Matrix dx(x.rows(), x.cols(), g.scalar());
                    tape->AccumulateGrad(a, std::move(dx));
                  }, "bw.sum");
}

Var Mean(Var a) {
  Tape* tp = TapeOf(a);
  const Matrix& x = tp->value(a);
  LAYERGCN_CHECK_GT(x.size(), 0) << "Mean of empty matrix";
  Matrix out = Matrix::Scalar(static_cast<float>(t::MeanAll(x)));
  return tp->Emit(std::move(out), tp->requires_grad(a),
                  [a](Tape* tape, const Matrix& g) {
                    const Matrix& x = tape->value(a);
                    const float v = g.scalar() / static_cast<float>(x.size());
                    Matrix dx(x.rows(), x.cols(), v);
                    tape->AccumulateGrad(a, std::move(dx));
                  }, "bw.mean");
}

Var SumSquares(Var a) {
  Tape* tp = TapeOf(a);
  Matrix out = Matrix::Scalar(static_cast<float>(t::SumSquares(tp->value(a))));
  return tp->Emit(std::move(out), tp->requires_grad(a),
                  [a](Tape* tape, const Matrix& g) {
                    t::AxpyInPlace(tape->GradBuffer(a), 2.f * g.scalar(),
                                   tape->value(a));
                  }, "bw.sum_squares");
}

Var AddN(const std::vector<Var>& xs) {
  LAYERGCN_CHECK(!xs.empty()) << "AddN needs at least one input";
  Tape* tp = TapeOf(xs[0]);
  OBS_SPAN("fw.add_n");
  Matrix out = tp->value(xs[0]);
  bool rg = tp->requires_grad(xs[0]);
  for (size_t i = 1; i < xs.size(); ++i) {
    LAYERGCN_CHECK(xs[i].tape == tp);
    t::AddInPlace(&out, tp->value(xs[i]));
    rg = rg || tp->requires_grad(xs[i]);
  }
  return tp->Emit(std::move(out), rg,
                  [xs](Tape* tape, const Matrix& g) {
                    for (Var x : xs) tape->AccumulateGrad(x, g);
                  }, "bw.add_n");
}

Var LinComb(const std::vector<Var>& xs, Var w) {
  LAYERGCN_CHECK(!xs.empty());
  Tape* tp = TapeOf(w);
  const Matrix& wv = tp->value(w);
  LAYERGCN_CHECK(wv.rows() == static_cast<int64_t>(xs.size()) &&
                 wv.cols() == 1)
      << "LinComb weights must be Kx1 with K = |xs|";
  Matrix out(tp->value(xs[0]).rows(), tp->value(xs[0]).cols());
  bool rg = tp->requires_grad(w);
  for (size_t k = 0; k < xs.size(); ++k) {
    LAYERGCN_CHECK(xs[k].tape == tp);
    t::AxpyInPlace(&out, wv(static_cast<int64_t>(k), 0), tp->value(xs[k]));
    rg = rg || tp->requires_grad(xs[k]);
  }
  return tp->Emit(
      std::move(out), rg, [xs, w](Tape* tape, const Matrix& g) {
        const Matrix& wv = tape->value(w);
        Matrix dw(wv.rows(), 1);
        bool need_dw = tape->requires_grad(w);
        for (size_t k = 0; k < xs.size(); ++k) {
          if (tape->requires_grad(xs[k])) {
            tape->AccumulateGrad(
                xs[k], t::Scale(g, wv(static_cast<int64_t>(k), 0)));
          }
          if (need_dw) {
            dw(static_cast<int64_t>(k), 0) = static_cast<float>(
                t::SumAll(t::Hadamard(g, tape->value(xs[k]))));
          }
        }
        if (need_dw) tape->AccumulateGrad(w, std::move(dw));
      },
      "bw.lin_comb");
}

Var ConcatCols(const std::vector<Var>& xs) {
  LAYERGCN_CHECK(!xs.empty());
  Tape* tp = TapeOf(xs[0]);
  std::vector<const Matrix*> parts;
  parts.reserve(xs.size());
  bool rg = false;
  for (Var x : xs) {
    LAYERGCN_CHECK(x.tape == tp);
    parts.push_back(&tp->value(x));
    rg = rg || tp->requires_grad(x);
  }
  Matrix out = t::ConcatCols(parts);
  return tp->Emit(std::move(out), rg, [xs](Tape* tape, const Matrix& g) {
    int64_t offset = 0;
    for (Var x : xs) {
      const int64_t w = tape->value(x).cols();
      if (tape->requires_grad(x)) {
        tape->AccumulateGrad(x, t::SliceCols(g, offset, offset + w));
      }
      offset += w;
    }
  }, "bw.concat_cols");
}

Var SoftmaxRows(Var a) {
  Tape* tp = TapeOf(a);
  Matrix out = t::SoftmaxRows(tp->value(a));
  Matrix saved = out;
  return tp->Emit(
      std::move(out), tp->requires_grad(a),
      [a, saved = std::move(saved)](Tape* tape, const Matrix& g) {
        // dx = y ⊙ (g − rowsum(g ⊙ y)).
        Matrix gy = t::Hadamard(g, saved);
        Matrix row_sums = t::RowSums(gy);
        Matrix dx(g.rows(), g.cols());
        const int64_t cols = g.cols();
        par::For(g.rows(), [&](int64_t row_lo, int64_t row_hi) {
          for (int64_t r = row_lo; r < row_hi; ++r) {
            const float rs = row_sums(r, 0);
            const float* pg = g.row(r);
            const float* py = saved.row(r);
            float* pd = dx.row(r);
            for (int64_t c = 0; c < cols; ++c) {
              pd[c] = py[c] * (pg[c] - rs);
            }
          }
        }, par::RowGrain(cols));
        tape->AccumulateGrad(a, std::move(dx));
      },
      "bw.softmax_rows");
}

Var LogSoftmaxRows(Var a) {
  Tape* tp = TapeOf(a);
  Matrix out = t::LogSoftmaxRows(tp->value(a));
  Matrix softmax = t::Exp(out);
  return tp->Emit(
      std::move(out), tp->requires_grad(a),
      [a, softmax = std::move(softmax)](Tape* tape, const Matrix& g) {
        // dx = g − softmax ⊙ broadcast(rowsum(g)).
        Matrix row_sums = t::RowSums(g);
        Matrix dx(g.rows(), g.cols());
        const int64_t cols = g.cols();
        par::For(g.rows(), [&](int64_t row_lo, int64_t row_hi) {
          for (int64_t r = row_lo; r < row_hi; ++r) {
            const float rs = row_sums(r, 0);
            const float* pg = g.row(r);
            const float* ps = softmax.row(r);
            float* pd = dx.row(r);
            for (int64_t c = 0; c < cols; ++c) {
              pd[c] = pg[c] - ps[c] * rs;
            }
          }
        }, par::RowGrain(cols));
        tape->AccumulateGrad(a, std::move(dx));
      },
      "bw.log_softmax_rows");
}

}  // namespace layergcn::ag
