#include "model/batch_eval.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"
#include "util/units.hpp"

namespace phonoc {

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define PHONOC_RESTRICT __restrict__
#else
#define PHONOC_RESTRICT
#endif

/// What a loss-only pass stores in the fields it does not score.
constexpr double kUnscored = std::numeric_limits<double>::quiet_NaN();

/// The vectorized sieve (single-mask-word fast path, tiles <= 64):
/// intersect the victim's tile mask with every attacker's. A zero word
/// means the two paths share no tile, so every per-hop term of the pair
/// is exactly +0.0 and the whole attacker is skipped. Kept as its own
/// function over restrict-qualified pointers so the loop carries no
/// aliasing barrier — CI compiles this TU with -fopt-info-vec and
/// fails if the loop stops vectorizing.
void sieve_row(const std::uint64_t* PHONOC_RESTRICT masks,
               std::uint64_t victim_mask,
               std::uint64_t* PHONOC_RESTRICT inter, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) inter[i] = masks[i] & victim_mask;
}

/// Generic multi-word sieve (tiles > 64): OR-fold the per-word
/// intersections into one nonzero/zero word per attacker.
void sieve_row_wide(const std::uint64_t* PHONOC_RESTRICT masks,
                    const std::uint64_t* PHONOC_RESTRICT victim_mask,
                    std::uint64_t* PHONOC_RESTRICT inter, std::size_t n,
                    std::size_t words) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t acc = 0;
    for (std::size_t w = 0; w < words; ++w)
      acc |= masks[i * words + w] & victim_mask[w];
    inter[i] = acc;
  }
}

}  // namespace

BatchEvalPlan::BatchEvalPlan(const NetworkModel& net, const CommGraph& cg)
    : net_(&net), tasks_(cg.task_count()) {
  require(tasks_ <= net.tile_count(),
          "BatchEvalPlan: more tasks than tiles (violates Eq. 2)");
  const auto edges = cg.edges();
  edge_src_.reserve(edges.size());
  edge_dst_.reserve(edges.size());
  for (const auto& edge : edges) {
    edge_src_.push_back(edge.src);
    edge_dst_.push_back(edge.dst);
  }
}

BatchEvaluator::BatchEvaluator(const NetworkModel& net, const CommGraph& cg)
    : BatchEvaluator(std::make_shared<const BatchEvalPlan>(net, cg)) {}

BatchEvaluator::BatchEvaluator(std::shared_ptr<const BatchEvalPlan> plan)
    : plan_(std::move(plan)),
      rows_(plan_ != nullptr ? plan_->edge_count() : 0,
            plan_ != nullptr ? plan_->tile_count() : 0) {
  require(plan_ != nullptr, "BatchEvaluator: null plan");
  const std::size_t edges = plan_->edge_count();
  path_of_edge_.resize(edges);
  edge_mask_.resize(edges * plan_->network().store().mask_words);
  sieve_.resize(edges);
  survivors_.resize(edges);
  tile_used_.resize(plan_->tile_count());
}

void BatchEvaluator::evaluate(std::span<const TileId> assignments,
                              std::size_t batch, std::span<BatchPoint> out,
                              std::span<EdgeMetrics> edges_out, bool noise) {
  run(assignments, batch, out, edges_out, /*validate=*/true, noise);
}

void BatchEvaluator::evaluate_trusted(std::span<const TileId> assignments,
                                      std::size_t batch,
                                      std::span<BatchPoint> out,
                                      std::span<EdgeMetrics> edges_out,
                                      bool noise) {
  run(assignments, batch, out, edges_out, /*validate=*/false, noise);
}

void BatchEvaluator::validate_assignment(std::span<const TileId> assignment) {
  std::fill(tile_used_.begin(), tile_used_.end(), std::uint8_t{0});
  for (const auto tile : assignment) {
    require(tile < tile_used_.size(),
            "BatchEvaluator: assignment targets a tile out of range");
    require(!tile_used_[tile],
            "BatchEvaluator: two tasks mapped to the same tile");
    tile_used_[tile] = 1;
  }
}

void BatchEvaluator::run(std::span<const TileId> assignments,
                         std::size_t batch, std::span<BatchPoint> out,
                         std::span<EdgeMetrics> edges_out, bool validate,
                         bool noise) {
  const BatchEvalPlan& plan = *plan_;
  const PathStore& store = plan.network().store();
  const std::size_t tasks = plan.task_count();
  const std::size_t edges = plan.edge_count();
  require(assignments.size() == batch * tasks,
          "BatchEvaluator: assignments size != batch * task_count");
  require(out.size() == batch, "BatchEvaluator: out size != batch");
  require(edges_out.empty() || edges_out.size() == batch * edges,
          "BatchEvaluator: edges_out size != batch * edge_count");

  const std::size_t words = store.mask_words;
  const double ceiling_db = plan.snr_ceiling_db();

  for (std::size_t b = 0; b < batch; ++b) {
    const std::span<const TileId> assignment =
        assignments.subspan(b * tasks, tasks);
    if (validate) validate_assignment(assignment);

    BatchPoint point;
    point.worst_snr_db = noise ? ceiling_db : kUnscored;
    if (edges == 0) {
      out[b] = point;
      continue;
    }

    // Resolve this mapping's edges to path ids once and, when scoring
    // noise, gather their tile masks into contiguous scratch (the
    // sieve's operands) and fill their hop rows (cleared below).
    for (std::size_t e = 0; e < edges; ++e) {
      const std::size_t pid = plan.edge_path(assignment, e);
      path_of_edge_[e] = static_cast<std::uint32_t>(pid);
      if (!noise) continue;
      for (std::size_t w = 0; w < words; ++w)
        edge_mask_[e * words + w] = store.tile_mask[pid * words + w];
      rows_.set(store, e, pid);
    }

    EdgeMetrics* detail =
        edges_out.empty() ? nullptr : edges_out.data() + b * edges;

    for (std::size_t v = 0; v < edges; ++v) {
      const std::size_t pv = path_of_edge_[v];
      double victim_noise = kUnscored;
      double snr = kUnscored;

      if (noise) {
        if (words == 1)
          sieve_row(edge_mask_.data(), store.tile_mask[pv], sieve_.data(),
                    edges);
        else
          sieve_row_wide(edge_mask_.data(), &store.tile_mask[pv * words],
                         sieve_.data(), edges, words);
        sieve_[v] = 0;  // a == v contributes nothing (self-pair)

        // Compact the survivors without a branch: the sieve words are
        // data, and a branch on each mispredicts.
        std::size_t survivors = 0;
        for (std::size_t a = 0; a < edges; ++a) {
          survivors_[survivors] = static_cast<std::uint32_t>(a);
          survivors += sieve_[a] != 0;
        }

        // Ascending attacker order with per-attacker subtotals — the
        // exact addition sequence of evaluate_mapping's nested
        // noise_contribution calls (skipped pairs add exact +0.0, the
        // identity on this non-negative accumulator).
        const PairPath victim{pv, rows_.row(v)};
        victim_noise = 0.0;
        for (std::size_t i = 0; i < survivors; ++i) {
          const std::uint32_t a = survivors_[i];
          victim_noise += pair_noise(
              store, victim, {path_of_edge_[a], rows_.row(a)}, sieve_[a]);
        }
        snr = std::min(snr_db(store.total_gain[pv], victim_noise),
                       ceiling_db);
        point.worst_snr_db = std::min(point.worst_snr_db, snr);
      }

      point.worst_loss_db =
          std::min(point.worst_loss_db, store.total_loss_db[pv]);
      if (detail != nullptr) {
        detail[v] = EdgeMetrics{static_cast<EdgeId>(v),
                                assignment[plan.edge_src(v)],
                                assignment[plan.edge_dst(v)],
                                store.total_loss_db[pv],
                                store.total_gain[pv],
                                victim_noise,
                                snr};
      }
    }
    if (noise)
      for (std::size_t e = 0; e < edges; ++e)
        rows_.clear(store, e, path_of_edge_[e]);
    out[b] = point;
  }
}

}  // namespace phonoc
