// Fused blocked score-and-rank for all-ranking evaluation (f32).
//
// The all-ranking protocol scores every item for every evaluated user and
// keeps the top-K. The materialize-then-rank pipeline builds a
// |chunk| x |items| score matrix first and ranks each row afterwards;
// FusedScoreTopK fuses the two through the one tiled traversal every
// encoding shares (eval/rank_heap.h): for each user tile x item run it
// computes a small score block with the register-blocked GEMM
// micro-kernel (tensor/gemm.h), drops training items inline by walking
// the user's sorted adjacency list (no per-user vector<bool>), and streams
// the surviving scores into a bounded per-user top-K heap. The full score
// matrix is never materialized; per-worker scratch (score block + heaps)
// is allocated once per row range, sized by the users in the call.
//
// The Matrix entry points take row-major item embeddings, so
// FusedScoreTopK transposes them to a depth-major panel once per call —
// right for the Evaluator (one call per evaluation). Serving ranks the
// panel ModelSnapshot::Load built instead, through eval::RankTopK
// (eval/quant_kernel.h), and transposes nothing per request.
//
// Ranking order matches eval::TopKIndices exactly: items ordered by
// (score desc, index asc). That total order makes the top-K set unique, so
// the result is deterministic for any tile size or worker count.

#ifndef LAYERGCN_EVAL_FUSED_RANK_H_
#define LAYERGCN_EVAL_FUSED_RANK_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "tensor/matrix.h"

namespace layergcn::eval {

/// Cooperative per-call deadline for the rank traversal (serving requests
/// carry one; offline evaluation passes none). The traversal checks the
/// clock before each user tile and at every item-run boundary after the
/// first — never inside a score block — whether it scans every item or a
/// candidate list. On expiry it stops scanning: users whose tiles already
/// streamed keep their (possibly truncated) top-K, untouched users come
/// back empty (all of them when the deadline had passed before the call),
/// and `expired` is set so the caller can flag the result partial. Which
/// items were scanned before expiry is timing-dependent, so partial
/// results are NOT deterministic — complete results (expired == false)
/// remain bit-identical to an undeadlined call.
struct RankDeadline {
  /// Absolute deadline on the obs::NowMicros() clock; 0 disarms the check.
  uint64_t deadline_us = 0;
  /// Set by the traversal when the deadline tripped (workers share it).
  std::atomic<bool> expired{false};
};

/// Tuning knobs for the rank traversal. Work runs on the shared compute
/// pool (util::parallel::ComputePool(), so ScopedComputePool overrides
/// apply); a call with a single user tile runs inline on the caller.
struct FusedRankConfig {
  /// When false, ranking uses the exact-reference materialize-then-rank
  /// fallback (naive dot products + TopKIndices) — the bit-level oracle the
  /// fused path is tested against.
  bool enabled = true;
  /// Users scored per tile (heaps live in the scratch of one worker).
  int64_t user_tile = 64;
  /// Items scored per run (score block is user_tile x item_tile floats).
  int64_t item_tile = 1024;
};

/// Top-K item rankings (best first) for each requested user.
///
/// `user_emb` holds one row per *node or user* — `user_ids[r]` indexes into
/// it — and `item_emb` one row per item; both must share the same width.
/// The score of (user u, item i) is the inner product of their rows.
/// `exclude` (optional) maps each user id to its sorted-ascending list of
/// excluded items (training interactions); excluded items never appear in
/// the ranking. Returns one ranked list per entry of `user_ids`, each of
/// length min(k, num_items - |excluded|).
///
/// `deadline` (optional) bounds the call's wall clock (see RankDeadline).
/// `scores_out` (optional) receives the score of every returned item,
/// aligned with the returned index lists.
std::vector<std::vector<int32_t>> FusedScoreTopK(
    const tensor::Matrix& user_emb, const std::vector<int32_t>& user_ids,
    const tensor::Matrix& item_emb, int k,
    const std::vector<std::vector<int32_t>>* exclude,
    const FusedRankConfig& config = {}, RankDeadline* deadline = nullptr,
    std::vector<std::vector<float>>* scores_out = nullptr);

/// Exact top-K restricted to a candidate subset (the two-stage retrieval
/// re-rank). `candidates` is a sorted-ascending, duplicate-free list of
/// item ids; every other argument keeps FusedScoreTopK's contract. Each
/// (user, candidate) score is the ascending-depth scalar inner product —
/// bit-identical to what FusedScoreTopK computes for the same pair — so
/// the result equals FusedScoreTopK's ranking filtered to the candidate
/// set; with `candidates` = all items it is bit-identical outright.
/// Candidates are walked in runs of config.item_tile under the same
/// deadline rule as the full scan. No item panel is built.
std::vector<std::vector<int32_t>> FusedScoreTopKSubset(
    const tensor::Matrix& user_emb, const std::vector<int32_t>& user_ids,
    const tensor::Matrix& item_emb, const std::vector<int32_t>& candidates,
    int k, const std::vector<std::vector<int32_t>>* exclude,
    const FusedRankConfig& config = {}, RankDeadline* deadline = nullptr,
    std::vector<std::vector<float>>* scores_out = nullptr);

}  // namespace layergcn::eval

#endif  // LAYERGCN_EVAL_FUSED_RANK_H_
