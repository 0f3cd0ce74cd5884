#include "eval/fused_rank.h"

#include "eval/metrics.h"
#include "eval/quant_kernel.h"
#include "eval/rank_heap.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/thread_pool.h"

namespace layergcn::eval {
namespace {

using internal::DeadlineExpired;
using internal::MaybeSlowScore;

// Exact-reference fallback: materialize one score row per user with the
// ascending-depth scalar dot, mark exclusions in a fresh flag vector, rank
// with TopKIndices — the seed pipeline, kept as the bit-level oracle.
void ReferenceTopK(const tensor::Matrix& user_emb,
                   const std::vector<int32_t>& user_ids,
                   const tensor::Matrix& item_emb, int k,
                   const std::vector<std::vector<int32_t>>* exclude,
                   int64_t lo, int64_t hi,
                   std::vector<std::vector<int32_t>>* out,
                   RankDeadline* deadline,
                   std::vector<std::vector<float>>* scores_out) {
  const int64_t num_items = item_emb.rows();
  const int64_t depth = item_emb.cols();
  for (int64_t r = lo; r < hi; ++r) {
    MaybeSlowScore(deadline);
    if (DeadlineExpired(deadline)) return;  // remaining users stay empty
    const int32_t u = user_ids[static_cast<size_t>(r)];
    const float* urow = user_emb.row(u);
    std::vector<float> scores(static_cast<size_t>(num_items), 0.f);
    for (int64_t i = 0; i < num_items; ++i) {
      const float* irow = item_emb.row(i);
      float acc = 0.f;
      for (int64_t p = 0; p < depth; ++p) acc += urow[p] * irow[p];
      scores[static_cast<size_t>(i)] = acc;
    }
    std::vector<bool> flags(static_cast<size_t>(num_items), false);
    if (exclude != nullptr) {
      for (int32_t i : (*exclude)[static_cast<size_t>(u)]) {
        flags[static_cast<size_t>(i)] = true;
      }
    }
    std::vector<int32_t>& ranked = (*out)[static_cast<size_t>(r)];
    ranked = TopKIndices(scores.data(), num_items, k, &flags);
    if (scores_out != nullptr) {
      std::vector<float>& sc = (*scores_out)[static_cast<size_t>(r)];
      sc.resize(ranked.size());
      for (size_t i = 0; i < ranked.size(); ++i) {
        sc[i] = scores[static_cast<size_t>(ranked[i])];
      }
    }
  }
}

}  // namespace

std::vector<std::vector<int32_t>> FusedScoreTopK(
    const tensor::Matrix& user_emb, const std::vector<int32_t>& user_ids,
    const tensor::Matrix& item_emb, int k,
    const std::vector<std::vector<int32_t>>* exclude,
    const FusedRankConfig& config, RankDeadline* deadline,
    std::vector<std::vector<float>>* scores_out) {
  if (config.enabled) {
    // The panel is built per call here; serving reads the one
    // ModelSnapshot::Load built instead.
    const tensor::Matrix item_panel = tensor::Transpose(item_emb);
    return RankTopK(F32Codec{user_emb, item_emb, &item_panel}, user_ids,
                    nullptr, k, exclude, config, deadline, scores_out);
  }
  LAYERGCN_CHECK_GT(k, 0);
  LAYERGCN_CHECK_EQ(user_emb.cols(), item_emb.cols())
      << "user/item embedding width mismatch";
  std::vector<std::vector<int32_t>> out(user_ids.size());
  if (scores_out != nullptr) scores_out->assign(user_ids.size(), {});
  if (item_emb.rows() == 0) return out;
  util::ParallelForRanges(
      util::parallel::ComputePool(), 0, static_cast<int64_t>(user_ids.size()),
      [&](int64_t lo, int64_t hi) {
        ReferenceTopK(user_emb, user_ids, item_emb, k, exclude, lo, hi, &out,
                      deadline, scores_out);
      });
  return out;
}

std::vector<std::vector<int32_t>> FusedScoreTopKSubset(
    const tensor::Matrix& user_emb, const std::vector<int32_t>& user_ids,
    const tensor::Matrix& item_emb, const std::vector<int32_t>& candidates,
    int k, const std::vector<std::vector<int32_t>>* exclude,
    const FusedRankConfig& config, RankDeadline* deadline,
    std::vector<std::vector<float>>* scores_out) {
  return RankTopK(F32Codec{user_emb, item_emb, nullptr}, user_ids,
                  &candidates, k, exclude, config, deadline, scores_out);
}

}  // namespace layergcn::eval
