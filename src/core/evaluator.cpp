#include "core/evaluator.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace phonoc {

namespace {

EvaluationResult materialize(const EvaluationView& view) {
  return EvaluationResult{view.worst_loss_db, view.worst_snr_db,
                          {view.edges.begin(), view.edges.end()}};
}

/// The batched entries score through the kernel's trusted pass, which
/// skips its per-row scan on the strength of the `Mapping` invariant.
/// That invariant bounds tiles by the mapping's own tile count, so a
/// mapping built for a larger grid must be rejected here, in O(1).
void check_batched(const MappingProblem& problem, const Mapping& mapping) {
  require(mapping.task_count() == problem.task_count(),
          "Evaluator: batched mapping has the wrong task count");
  require(mapping.tile_count() <= problem.tile_count(),
          "Evaluator: assignment targets a tile out of range");
}

}  // namespace

Evaluator::Evaluator(const MappingProblem& problem, EvaluatorOptions options)
    : problem_(problem),
      options_(options),
      needs_noise_(problem.objective().needs_noise()),
      batch_(problem.network(), problem.cg()) {}

EvaluationView Evaluator::score(const Mapping& mapping, bool detailed,
                                bool noise) const {
  edge_scratch_.resize(detailed ? batch_.plan().edge_count() : 0);
  BatchPoint point;
  batch_.evaluate(mapping.assignment(), 1, {&point, 1}, edge_scratch_,
                  noise);
  return EvaluationView{point.worst_loss_db, point.worst_snr_db,
                        edge_scratch_};
}

const double* Evaluator::cache_lookup(const Mapping& mapping,
                                      std::uint64_t hash) {
  const auto it = cache_index_.find(hash);
  if (it == cache_index_.end()) return nullptr;
  const auto assignment = mapping.assignment();
  for (const auto& node : it->second) {
    if (!std::equal(node->key.begin(), node->key.end(), assignment.begin(),
                    assignment.end()))
      continue;
    ++cache_hits_;
    cache_order_.splice(cache_order_.begin(), cache_order_, node);
    return &node->fitness;
  }
  return nullptr;
}

void Evaluator::cache_insert(std::vector<TileId> assignment,
                             std::uint64_t hash, double fitness) {
  cache_order_.emplace_front(CacheNode{hash, std::move(assignment), fitness});
  cache_index_[hash].push_back(cache_order_.begin());
  if (cache_order_.size() <= options_.cache_capacity) return;
  const auto victim = std::prev(cache_order_.end());
  auto& bucket = cache_index_[victim->hash];
  bucket.erase(std::find(bucket.begin(), bucket.end(), victim));
  if (bucket.empty()) cache_index_.erase(victim->hash);
  cache_order_.pop_back();
  ++cache_evictions_;
}

bool Evaluator::cache_contains(std::span<const TileId> assignment,
                               std::uint64_t hash) const {
  const auto it = cache_index_.find(hash);
  if (it == cache_index_.end()) return false;
  for (const auto& node : it->second)
    if (std::equal(node->key.begin(), node->key.end(), assignment.begin(),
                   assignment.end()))
      return true;
  return false;
}

EvaluatorMemo Evaluator::export_memo() const {
  EvaluatorMemo memo;
  memo.entries.reserve(cache_order_.size());
  for (const auto& node : cache_order_)
    memo.entries.push_back(EvaluatorMemo::Entry{node.key, node.fitness});
  return memo;
}

double Evaluator::evaluate(const Mapping& mapping) {
  ++count_;
  const bool memoize = options_.cache_capacity > 0;
  const std::uint64_t hash = memoize ? mapping.hash() : 0;
  if (memoize) {
    if (const double* cached = cache_lookup(mapping, hash)) return *cached;
    ++cache_misses_;
  }
  const double fitness = problem_.objective().fitness(
      score(mapping, /*detailed=*/false, needs_noise_));
  ++physical_count_;
  if (memoize) {
    const auto assignment = mapping.assignment();
    cache_insert(std::vector<TileId>(assignment.begin(), assignment.end()),
                 hash, fitness);
  }
  return fitness;
}

double Evaluator::propose_swap(const Mapping& after, TileId /*a*/,
                               TileId /*b*/) {
  ++count_;
  return problem_.objective().fitness(
      score(after, /*detailed=*/false, needs_noise_));
}

EvaluationResult Evaluator::evaluate_detailed(const Mapping& mapping) const {
  return materialize(score(mapping, /*detailed=*/true, /*noise=*/true));
}

EvaluationResult Evaluator::evaluate_raw(const Mapping& mapping) const {
  return materialize(score(mapping, /*detailed=*/false, /*noise=*/true));
}

std::span<const TileId> Evaluator::flatten(
    std::span<const Mapping> mappings) const {
  const std::size_t tasks = problem_.cg().task_count();
  batch_scratch_.clear();
  batch_scratch_.reserve(mappings.size() * tasks);
  for (const auto& mapping : mappings) {
    check_batched(problem_, mapping);
    const auto assignment = mapping.assignment();
    batch_scratch_.insert(batch_scratch_.end(), assignment.begin(),
                          assignment.end());
  }
  return batch_scratch_;
}

void Evaluator::evaluate_raw_batch(std::span<const Mapping> mappings,
                                   std::span<BatchPoint> out) const {
  require(out.size() == mappings.size(),
          "Evaluator::evaluate_raw_batch: out size != mapping count");
  if (mappings.empty()) return;
  batch_.evaluate_trusted(flatten(mappings), mappings.size(), out);
}

void Evaluator::evaluate_batch(std::span<const Mapping> mappings,
                               std::span<double> out) {
  require(out.size() == mappings.size(),
          "Evaluator::evaluate_batch: out size != mapping count");
  const std::size_t n = mappings.size();
  if (n == 0) return;
  const bool memoize = options_.cache_capacity > 0;

  // Pass 1 — peek: pick the rows the kernel must score physically. A
  // row is skipped when the memo already holds it or an earlier batch
  // row carries the same assignment (the replay below will have
  // inserted it by then). Peeking never touches the LRU order or any
  // counter, so the replay's lookups see exactly the state a
  // sequential loop would.
  std::vector<std::uint64_t> hashes(n, 0);
  std::vector<std::int64_t> row_of(n, -1);
  std::vector<std::size_t> scored;
  batch_scratch_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    check_batched(problem_, mappings[i]);
    const auto assignment = mappings[i].assignment();
    if (memoize) {
      hashes[i] = mappings[i].hash();
      if (cache_contains(assignment, hashes[i])) continue;
      bool duplicate = false;
      for (const std::size_t j : scored) {
        if (hashes[j] != hashes[i]) continue;
        const auto earlier = mappings[j].assignment();
        if (std::equal(earlier.begin(), earlier.end(), assignment.begin(),
                       assignment.end())) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
    }
    row_of[i] = static_cast<std::int64_t>(scored.size());
    scored.push_back(i);
    batch_scratch_.insert(batch_scratch_.end(), assignment.begin(),
                          assignment.end());
  }

  // Kernel pass: one vectorized sweep over every row that needs it
  // (without noise when the objective reads none).
  std::vector<BatchPoint> points(scored.size());
  batch_.evaluate_trusted(batch_scratch_, scored.size(), points, {},
                          needs_noise_);

  // Pass 2 — sequential replay: real lookups, counters and inserts in
  // index order, so memo contents, recency and every counter match a
  // sequential loop of `evaluate` calls exactly.
  for (std::size_t i = 0; i < n; ++i) {
    ++count_;
    if (memoize) {
      if (const double* cached = cache_lookup(mappings[i], hashes[i])) {
        out[i] = *cached;
        continue;
      }
      ++cache_misses_;
    }
    double fitness;
    if (row_of[i] >= 0) {
      const auto& point = points[static_cast<std::size_t>(row_of[i])];
      fitness = problem_.objective().fitness(
          EvaluationView{point.worst_loss_db, point.worst_snr_db, {}});
    } else {
      // Peek promised a hit (memo entry or earlier duplicate) that was
      // evicted before this row's replay turn: score it alone.
      fitness = problem_.objective().fitness(
          score(mappings[i], /*detailed=*/false, needs_noise_));
    }
    ++physical_count_;
    if (memoize) {
      const auto assignment = mappings[i].assignment();
      cache_insert(std::vector<TileId>(assignment.begin(), assignment.end()),
                   hashes[i], fitness);
    }
    out[i] = fitness;
  }
}

}  // namespace phonoc
