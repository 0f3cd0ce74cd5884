// Scoring encodings (f32 / int8 / bf16) and their row codecs.
//
// Every ranking call — offline evaluation and serving, every encoding,
// full scan or candidate list — runs the one tiled top-K traversal in
// eval/rank_heap.h. A row codec is what differs per encoding: it names the
// embeddings the traversal reads (user rows, one gathered per ranked user,
// and the depth-major item panel built once per snapshot load) and
// supplies the score computation, as a block over a contiguous run of the
// panel and as a single (user, item) pair for candidate lists:
//
//   f32    score(u, i) = Σ_p u[p] * i[p] accumulated in ascending-depth
//          order. Blocks run the register-blocked GEMM micro-kernel
//          (tensor/gemm.h) over the user tile; pairs read the row-major
//          item table. Both orders are the scalar reference's, so pair and
//          block scores are bit-identical.
//   int8   score(u, i) = s_u * s_i * Σ_p qu[p] * qi[p], with the integer
//          dot accumulated exactly in int32. Integer addition commutes, so
//          the int8 ranking is bit-deterministic at any thread count or
//          tile size by construction.
//   bf16   score(u, i) = Σ_p bf16(u[p]) * bf16(i[p]) accumulated in f32 in
//          ascending-depth order — the same per-element order as the f32
//          kernel, hence equally deterministic.
//
// No per-request transpose happens on the serving path: ModelSnapshot
// builds all three item panels at load. Rankings are deterministic
// *within* an encoding; across encodings they differ by quantization error
// (measured in bench_serve_latency's quantization pass and gated in
// tools/check.sh).

#ifndef LAYERGCN_EVAL_QUANT_KERNEL_H_
#define LAYERGCN_EVAL_QUANT_KERNEL_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "eval/fused_rank.h"
#include "tensor/matrix.h"
#include "tensor/quant.h"

namespace layergcn::eval {

/// Which embedding encoding a scoring path reads. kF32 is the bit-exact
/// reference (FusedScoreTopK); the quantized encodings trade bounded score
/// error for smaller embedding streams.
enum class ScoreEncoding { kF32, kInt8, kBf16 };

const char* ScoreEncodingName(ScoreEncoding encoding);

/// Parses "f32" / "int8" / "bf16". Returns false on anything else.
bool ParseScoreEncoding(const std::string& name, ScoreEncoding* out);

/// f32 embeddings. `item_panel` is the depth-major transpose of `items`
/// (depth x num_items); it may be null when only candidate lists are
/// ranked, since pair scores read the row-major `items`.
struct F32Codec {
  const tensor::Matrix& users;
  const tensor::Matrix& items;
  const tensor::Matrix* item_panel;

  int64_t num_items() const { return items.rows(); }
  /// out[r * jn + j] = score(users[r], item j0 + j), r < m, j < jn.
  void Block(const int32_t* user_ids, int64_t m, int64_t j0, int64_t jn,
             float* out) const;
  float Pair(int32_t user, int32_t item) const;
};

/// int8 embeddings: per-row-scaled user rows and the item panel.
struct Int8Codec {
  const tensor::Int8Rows& users;
  const tensor::Int8Panel& item_panel;

  int64_t num_items() const { return item_panel.count; }
  void Block(const int32_t* user_ids, int64_t m, int64_t j0, int64_t jn,
             float* out) const;
  float Pair(int32_t user, int32_t item) const;
};

/// bf16 embeddings: user rows and the item panel.
struct Bf16Codec {
  const tensor::Bf16Rows& users;
  const tensor::Bf16Panel& item_panel;

  int64_t num_items() const { return item_panel.count; }
  void Block(const int32_t* user_ids, int64_t m, int64_t j0, int64_t jn,
             float* out) const;
  float Pair(int32_t user, int32_t item) const;
};

using RowCodec = std::variant<F32Codec, Int8Codec, Bf16Codec>;

/// Top-K ranking (best first) through the one tiled traversal, for any
/// encoding and candidate source: every item when `candidates` is null,
/// else the sorted-ascending, duplicate-free candidate list — whose
/// ranking is the full ranking filtered to the candidates, with the same
/// score bits. The remaining arguments keep FusedScoreTopK's contract;
/// `config.enabled` is ignored (the materialized reference is f32-only and
/// lives behind FusedScoreTopK).
std::vector<std::vector<int32_t>> RankTopK(
    const RowCodec& codec, const std::vector<int32_t>& user_ids,
    const std::vector<int32_t>* candidates, int k,
    const std::vector<std::vector<int32_t>>* exclude,
    const FusedRankConfig& config = {}, RankDeadline* deadline = nullptr,
    std::vector<std::vector<float>>* scores_out = nullptr);

/// Top-K ranking over int8-quantized embeddings: RankTopK over every item.
std::vector<std::vector<int32_t>> QuantScoreTopKInt8(
    const tensor::Int8Rows& user_q, const std::vector<int32_t>& user_ids,
    const tensor::Int8Panel& item_panel, int k,
    const std::vector<std::vector<int32_t>>* exclude,
    const FusedRankConfig& config = {}, RankDeadline* deadline = nullptr,
    std::vector<std::vector<float>>* scores_out = nullptr);

/// Top-K ranking over bf16 embeddings. Same contract as the int8 kernel.
std::vector<std::vector<int32_t>> QuantScoreTopKBf16(
    const tensor::Bf16Rows& user_q, const std::vector<int32_t>& user_ids,
    const tensor::Bf16Panel& item_panel, int k,
    const std::vector<std::vector<int32_t>>* exclude,
    const FusedRankConfig& config = {}, RankDeadline* deadline = nullptr,
    std::vector<std::vector<float>>* scores_out = nullptr);

/// Candidate-subset variants for the two-stage retrieval re-rank: RankTopK
/// over the sorted-ascending, duplicate-free `candidates`.
std::vector<std::vector<int32_t>> QuantScoreTopKInt8Subset(
    const tensor::Int8Rows& user_q, const std::vector<int32_t>& user_ids,
    const tensor::Int8Panel& item_panel,
    const std::vector<int32_t>& candidates, int k,
    const std::vector<std::vector<int32_t>>* exclude,
    const FusedRankConfig& config = {}, RankDeadline* deadline = nullptr,
    std::vector<std::vector<float>>* scores_out = nullptr);

std::vector<std::vector<int32_t>> QuantScoreTopKBf16Subset(
    const tensor::Bf16Rows& user_q, const std::vector<int32_t>& user_ids,
    const tensor::Bf16Panel& item_panel,
    const std::vector<int32_t>& candidates, int k,
    const std::vector<std::vector<int32_t>>* exclude,
    const FusedRankConfig& config = {}, RankDeadline* deadline = nullptr,
    std::vector<std::vector<float>>* scores_out = nullptr);

}  // namespace layergcn::eval

#endif  // LAYERGCN_EVAL_QUANT_KERNEL_H_
