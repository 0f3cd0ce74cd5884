// The one score-and-rank traversal behind every ranking entry point
// (eval::FusedScoreTopK{,Subset}, eval::QuantScoreTopK{Int8,Bf16}{,Subset}
// and eval::RankTopK), plus its pieces: the bounded top-K heap with the
// (score desc, index asc) total order and the cooperative deadline /
// slow-score fault helpers.
//
// TiledTopK owns everything that does not depend on the encoding: user
// tiles, item runs, the sorted-exclusion cursor, the heaps, the deadline
// checks and the result extraction. Two inputs vary:
//
//   codec   the score computation of one encoding. Block() scores a user
//           tile against a contiguous run of the depth-major item panel;
//           Pair() scores one (user, item) pair and must return exactly
//           what Block() would for it. See quant_kernel.cpp.
//   source  which items are ranked: the whole panel, or a sorted candidate
//           list (two-stage retrieval re-rank), scored pair by pair.
//
// Because both sources walk the same loop, the candidate-list ranking is
// literally the full ranking restricted to the candidates, and both obey
// one deadline rule.

#ifndef LAYERGCN_EVAL_RANK_HEAP_H_
#define LAYERGCN_EVAL_RANK_HEAP_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "eval/fused_rank.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "tensor/gemm.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/thread_pool.h"

namespace layergcn::eval::internal {

// True when the deadline is armed and has passed. The first worker to see
// the clock run out latches `expired` so later checks (and the caller) skip
// the clock read.
inline bool DeadlineExpired(RankDeadline* deadline) {
  if (deadline == nullptr || deadline->deadline_us == 0) return false;
  if (deadline->expired.load(std::memory_order_relaxed)) return true;
  if (obs::NowMicros() < deadline->deadline_us) return false;
  if (!deadline->expired.exchange(true, std::memory_order_relaxed)) {
    OBS_COUNT("fused_rank.deadline_expired", 1);
  }
  return true;
}

// Fault point `serve.slow_score`: stall scoring until just past the armed
// deadline so the next boundary check trips mid-request. Only meaningful
// when a deadline is set (otherwise there is nothing to overrun).
inline void MaybeSlowScore(const RankDeadline* deadline) {
  if (deadline == nullptr || deadline->deadline_us == 0) return;
  if (!util::fault::Fire("serve.slow_score")) return;
  const uint64_t until = deadline->deadline_us + 1000;
  while (obs::NowMicros() < until) {
  }
}

// Heap entry ordered by (score desc, index asc) — the TopKIndices order.
struct HeapEntry {
  float score;
  int32_t idx;
};

// True when `a` ranks strictly below `b`.
inline bool Worse(const HeapEntry& a, const HeapEntry& b) {
  return a.score != b.score ? a.score < b.score : a.idx > b.idx;
}

// Bounded min-heap over a flat array: the root is the worst kept entry.
inline void HeapPush(HeapEntry* h, int64_t* size, int64_t cap, HeapEntry e) {
  if (*size < cap) {
    int64_t i = (*size)++;
    h[i] = e;
    while (i > 0) {
      const int64_t parent = (i - 1) / 2;
      if (!Worse(h[i], h[parent])) break;
      std::swap(h[i], h[parent]);
      i = parent;
    }
    return;
  }
  if (!Worse(h[0], e)) return;
  h[0] = e;
  int64_t i = 0;
  for (;;) {
    const int64_t l = 2 * i + 1;
    const int64_t r = 2 * i + 2;
    int64_t worst = i;
    if (l < cap && Worse(h[l], h[worst])) worst = l;
    if (r < cap && Worse(h[r], h[worst])) worst = r;
    if (worst == i) break;
    std::swap(h[i], h[worst]);
    i = worst;
  }
}

// The items a call ranks: panel items [0, n) when `ids` is null, else the
// sorted-ascending, duplicate-free item ids ids[0, n).
struct ItemSource {
  const int32_t* ids = nullptr;
  int64_t n = 0;
};

// Top-K (best first) of every user in `user_ids` over `source`, scored by
// `codec`. Users are ranked in tiles of config.user_tile (tiles spread over
// the compute pool; the result does not depend on how), items in runs of
// config.item_tile. The deadline is checked before each user tile and at
// every item-run boundary after the first: an already-expired deadline
// leaves every user empty, a deadline that expires mid-scan leaves the
// current tile with the prefix it scored and later tiles empty.
template <typename Codec>
std::vector<std::vector<int32_t>> TiledTopK(
    const Codec& codec, const std::vector<int32_t>& user_ids,
    ItemSource source, int k,
    const std::vector<std::vector<int32_t>>* exclude,
    const FusedRankConfig& config, RankDeadline* deadline,
    std::vector<std::vector<float>>* scores_out) {
  LAYERGCN_CHECK_GT(k, 0);
  const int64_t num_users = static_cast<int64_t>(user_ids.size());
  std::vector<std::vector<int32_t>> out(user_ids.size());
  if (scores_out != nullptr) scores_out->assign(user_ids.size(), {});
  if (num_users == 0 || source.n == 0) return out;
  OBS_SPAN("eval.rank");
  OBS_COUNT("rank.calls", 1);
  OBS_COUNT("rank.users_ranked", num_users);

  // Scratch is sized by what the call can use: a one-user request gets a
  // one-row score block and k-entry heap, not a full tile's worth.
  const int64_t user_tile =
      std::min(std::max<int64_t>(1, config.user_tile), num_users);
  const int64_t item_tile = std::min(
      std::max<int64_t>(tensor::kGemmTileN, config.item_tile), source.n);
  const int64_t cap = std::min<int64_t>(k, source.n);
  const int64_t num_tiles = (num_users + user_tile - 1) / user_tile;

  util::ParallelForRanges(
      util::parallel::ComputePool(), 0, num_tiles,
      [&](int64_t tile_lo, int64_t tile_hi) {
        // Per-range scratch, allocated once and reused across tiles.
        std::vector<float> scores(static_cast<size_t>(user_tile * item_tile));
        std::vector<HeapEntry> heaps(static_cast<size_t>(user_tile * cap));
        std::vector<int64_t> heap_sizes(static_cast<size_t>(user_tile));
        std::vector<size_t> cursors(static_cast<size_t>(user_tile));

        for (int64_t tile = tile_lo; tile < tile_hi; ++tile) {
          if (DeadlineExpired(deadline)) break;  // untouched users stay empty
          const int64_t base = tile * user_tile;
          const int64_t m = std::min(user_tile, num_users - base);
          const int32_t* users = user_ids.data() + base;
          std::fill_n(heap_sizes.begin(), m, 0);
          std::fill_n(cursors.begin(), m, 0);

          for (int64_t j0 = 0; j0 < source.n; j0 += item_tile) {
            // Deadline is enforced at item-run boundaries: cheap enough to
            // check here, and a run bounds how late expiry is noticed.
            MaybeSlowScore(deadline);
            if (j0 > 0 && DeadlineExpired(deadline)) break;
            const int64_t jn = std::min(item_tile, source.n - j0);
            const int32_t* ids =
                source.ids != nullptr ? source.ids + j0 : nullptr;
            if (ids == nullptr) {
              codec.Block(users, m, j0, jn, scores.data());
            } else {
              for (int64_t r = 0; r < m; ++r) {
                for (int64_t j = 0; j < jn; ++j) {
                  scores[static_cast<size_t>(r * jn + j)] =
                      codec.Pair(users[r], ids[j]);
                }
              }
            }

            // Stream the block into the heaps; items arrive in ascending
            // order, so each user's sorted exclusion list is walked by a
            // single monotone cursor instead of a per-user flag vector.
            for (int64_t r = 0; r < m; ++r) {
              const std::vector<int32_t>* exc =
                  exclude != nullptr
                      ? &(*exclude)[static_cast<size_t>(users[r])]
                      : nullptr;
              size_t& cur = cursors[static_cast<size_t>(r)];
              const float* srow = scores.data() + r * jn;
              HeapEntry* heap = heaps.data() + r * cap;
              int64_t* hs = &heap_sizes[static_cast<size_t>(r)];
              for (int64_t j = 0; j < jn; ++j) {
                const int32_t item =
                    ids != nullptr ? ids[j] : static_cast<int32_t>(j0 + j);
                if (exc != nullptr) {
                  while (cur < exc->size() && (*exc)[cur] < item) ++cur;
                  if (cur < exc->size() && (*exc)[cur] == item) {
                    ++cur;
                    continue;
                  }
                }
                HeapPush(heap, hs, cap, HeapEntry{srow[j], item});
              }
            }
          }

          // Extract whatever the heaps hold — the full top-K normally, a
          // truncated prefix scan when the deadline cut the run loop short.
          for (int64_t r = 0; r < m; ++r) {
            HeapEntry* heap = heaps.data() + r * cap;
            const int64_t hs = heap_sizes[static_cast<size_t>(r)];
            std::sort(heap, heap + hs,
                      [](const HeapEntry& a, const HeapEntry& b) {
                        return Worse(b, a);
                      });
            std::vector<int32_t>& ranked = out[static_cast<size_t>(base + r)];
            ranked.resize(static_cast<size_t>(hs));
            for (int64_t i = 0; i < hs; ++i) {
              ranked[static_cast<size_t>(i)] = heap[i].idx;
            }
            if (scores_out != nullptr) {
              std::vector<float>& sc =
                  (*scores_out)[static_cast<size_t>(base + r)];
              sc.resize(static_cast<size_t>(hs));
              for (int64_t i = 0; i < hs; ++i) {
                sc[static_cast<size_t>(i)] = heap[i].score;
              }
            }
          }
        }
      });
  return out;
}

}  // namespace layergcn::eval::internal

#endif  // LAYERGCN_EVAL_RANK_HEAP_H_
