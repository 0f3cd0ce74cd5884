#include "eval/quant_kernel.h"

#include <algorithm>

#include "eval/rank_heap.h"
#include "obs/metrics.h"
#include "tensor/gemm.h"
#include "util/logging.h"

namespace layergcn::eval {

const char* ScoreEncodingName(ScoreEncoding encoding) {
  switch (encoding) {
    case ScoreEncoding::kF32: return "f32";
    case ScoreEncoding::kInt8: return "int8";
    case ScoreEncoding::kBf16: return "bf16";
  }
  return "?";
}

bool ParseScoreEncoding(const std::string& name, ScoreEncoding* out) {
  if (name == "f32") { *out = ScoreEncoding::kF32; return true; }
  if (name == "int8") { *out = ScoreEncoding::kInt8; return true; }
  if (name == "bf16") { *out = ScoreEncoding::kBf16; return true; }
  return false;
}

void F32Codec::Block(const int32_t* user_ids, int64_t m, int64_t j0,
                     int64_t jn, float* out) const {
  LAYERGCN_CHECK(item_panel != nullptr) << "f32 full scan needs the panel";
  // GemmMicroPanel takes row pointers; one tile's worth per thread.
  thread_local std::vector<const float*> rows;
  rows.resize(static_cast<size_t>(m));
  for (int64_t r = 0; r < m; ++r) {
    rows[static_cast<size_t>(r)] = users.row(user_ids[r]);
  }
  std::fill(out, out + m * jn, 0.f);
  tensor::GemmMicroPanel(rows.data(), m, users.cols(), *item_panel, j0, jn,
                         out, jn);
  // The micro-kernel itself is not instrumented (it is the innermost hot
  // loop); account for its work here.
  OBS_COUNT("gemm.calls", 1);
  OBS_COUNT("gemm.flops", 2 * m * jn * users.cols());
}

float F32Codec::Pair(int32_t user, int32_t item) const {
  const float* urow = users.row(user);
  const float* irow = items.row(item);
  float acc = 0.f;
  for (int64_t p = 0; p < users.cols(); ++p) acc += urow[p] * irow[p];
  return acc;
}

void Int8Codec::Block(const int32_t* user_ids, int64_t m, int64_t j0,
                      int64_t jn, float* out) const {
  // Per-thread int32 accumulator run; each call is single-threaded within
  // one worker, so thread_local scratch is race-free and allocation-free on
  // the hot path.
  thread_local std::vector<int32_t> acc;
  acc.resize(static_cast<size_t>(jn));
  int32_t* a = acc.data();
  const float* si = item_panel.scales.data() + j0;
  for (int64_t r = 0; r < m; ++r) {
    std::fill(a, a + jn, 0);
    const int8_t* urow = users.row(user_ids[r]);
    for (int64_t p = 0; p < users.cols; ++p) {
      const int32_t uq = urow[p];
      if (uq == 0) continue;
      const int8_t* prow = item_panel.depth_row(p) + j0;
#pragma omp simd
      for (int64_t j = 0; j < jn; ++j) {
        a[j] += uq * static_cast<int32_t>(prow[j]);
      }
    }
    const float su = users.scales[static_cast<size_t>(user_ids[r])];
    float* orow = out + r * jn;
#pragma omp simd
    for (int64_t j = 0; j < jn; ++j) {
      orow[j] = su * si[j] * static_cast<float>(a[j]);
    }
  }
}

float Int8Codec::Pair(int32_t user, int32_t item) const {
  // Exact int32 accumulation — the same integer sum Block computes, just
  // gathered column-wise from the depth-major panel.
  const int8_t* urow = users.row(user);
  const int8_t* col = item_panel.data.data() + item;
  int32_t acc = 0;
  for (int64_t p = 0; p < users.cols; ++p) {
    acc += static_cast<int32_t>(urow[p]) *
           static_cast<int32_t>(col[p * item_panel.count]);
  }
  return users.scales[static_cast<size_t>(user)] *
         item_panel.scales[static_cast<size_t>(item)] *
         static_cast<float>(acc);
}

void Bf16Codec::Block(const int32_t* user_ids, int64_t m, int64_t j0,
                      int64_t jn, float* out) const {
  // The user row widens to f32 once per block; items widen in-register in
  // the inner loop (a 16-bit shift, vectorizable).
  thread_local std::vector<float> urow_f32;
  urow_f32.resize(static_cast<size_t>(users.cols));
  for (int64_t r = 0; r < m; ++r) {
    const uint16_t* urow = users.row(user_ids[r]);
    for (int64_t p = 0; p < users.cols; ++p) {
      urow_f32[static_cast<size_t>(p)] = tensor::Bf16ToF32(urow[p]);
    }
    float* orow = out + r * jn;
    std::fill(orow, orow + jn, 0.f);
    for (int64_t p = 0; p < users.cols; ++p) {
      const float up = urow_f32[static_cast<size_t>(p)];
      const uint16_t* prow = item_panel.depth_row(p) + j0;
#pragma omp simd
      for (int64_t j = 0; j < jn; ++j) {
        orow[j] += up * tensor::Bf16ToF32(prow[j]);
      }
    }
  }
}

float Bf16Codec::Pair(int32_t user, int32_t item) const {
  // Ascending-depth f32 accumulation of widened products — the exact
  // per-element order of Block.
  const uint16_t* urow = users.row(user);
  const uint16_t* col = item_panel.data.data() + item;
  float acc = 0.f;
  for (int64_t p = 0; p < users.cols; ++p) {
    acc += tensor::Bf16ToF32(urow[p]) *
           tensor::Bf16ToF32(col[p * item_panel.count]);
  }
  return acc;
}

namespace {

int64_t UserDepth(const F32Codec& c) { return c.users.cols(); }
int64_t UserDepth(const Int8Codec& c) { return c.users.cols; }
int64_t UserDepth(const Bf16Codec& c) { return c.users.cols; }
int64_t ItemDepth(const F32Codec& c) { return c.items.cols(); }
int64_t ItemDepth(const Int8Codec& c) { return c.item_panel.depth; }
int64_t ItemDepth(const Bf16Codec& c) { return c.item_panel.depth; }

}  // namespace

std::vector<std::vector<int32_t>> RankTopK(
    const RowCodec& codec, const std::vector<int32_t>& user_ids,
    const std::vector<int32_t>* candidates, int k,
    const std::vector<std::vector<int32_t>>* exclude,
    const FusedRankConfig& config, RankDeadline* deadline,
    std::vector<std::vector<float>>* scores_out) {
  return std::visit(
      [&](const auto& c) {
        LAYERGCN_CHECK_EQ(UserDepth(c), ItemDepth(c))
            << "user/item embedding width mismatch";
        const internal::ItemSource source =
            candidates != nullptr
                ? internal::ItemSource{candidates->data(),
                                       static_cast<int64_t>(candidates->size())}
                : internal::ItemSource{nullptr, c.num_items()};
        return internal::TiledTopK(c, user_ids, source, k, exclude, config,
                                   deadline, scores_out);
      },
      codec);
}

std::vector<std::vector<int32_t>> QuantScoreTopKInt8(
    const tensor::Int8Rows& user_q, const std::vector<int32_t>& user_ids,
    const tensor::Int8Panel& item_panel, int k,
    const std::vector<std::vector<int32_t>>* exclude,
    const FusedRankConfig& config, RankDeadline* deadline,
    std::vector<std::vector<float>>* scores_out) {
  return RankTopK(Int8Codec{user_q, item_panel}, user_ids, nullptr, k,
                  exclude, config, deadline, scores_out);
}

std::vector<std::vector<int32_t>> QuantScoreTopKBf16(
    const tensor::Bf16Rows& user_q, const std::vector<int32_t>& user_ids,
    const tensor::Bf16Panel& item_panel, int k,
    const std::vector<std::vector<int32_t>>* exclude,
    const FusedRankConfig& config, RankDeadline* deadline,
    std::vector<std::vector<float>>* scores_out) {
  return RankTopK(Bf16Codec{user_q, item_panel}, user_ids, nullptr, k,
                  exclude, config, deadline, scores_out);
}

std::vector<std::vector<int32_t>> QuantScoreTopKInt8Subset(
    const tensor::Int8Rows& user_q, const std::vector<int32_t>& user_ids,
    const tensor::Int8Panel& item_panel,
    const std::vector<int32_t>& candidates, int k,
    const std::vector<std::vector<int32_t>>* exclude,
    const FusedRankConfig& config, RankDeadline* deadline,
    std::vector<std::vector<float>>* scores_out) {
  return RankTopK(Int8Codec{user_q, item_panel}, user_ids, &candidates, k,
                  exclude, config, deadline, scores_out);
}

std::vector<std::vector<int32_t>> QuantScoreTopKBf16Subset(
    const tensor::Bf16Rows& user_q, const std::vector<int32_t>& user_ids,
    const tensor::Bf16Panel& item_panel,
    const std::vector<int32_t>& candidates, int k,
    const std::vector<std::vector<int32_t>>* exclude,
    const FusedRankConfig& config, RankDeadline* deadline,
    std::vector<std::vector<float>>* scores_out) {
  return RankTopK(Bf16Codec{user_q, item_panel}, user_ids, &candidates, k,
                  exclude, config, deadline, scores_out);
}

}  // namespace layergcn::eval
