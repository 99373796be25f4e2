#include "core/evaluator.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace phonoc {

namespace {

EvaluationResult materialize(const EvaluationView& view) {
  return EvaluationResult{view.worst_loss_db, view.worst_snr_db,
                          {view.edges.begin(), view.edges.end()}};
}

}  // namespace

Evaluator::Evaluator(const MappingProblem& problem, EvaluatorOptions options)
    : problem_(problem),
      options_(options),
      needs_noise_(problem.objective().needs_noise()),
      kernel_(problem.network(), problem.cg()) {}

EvaluationView Evaluator::score(const Mapping& mapping, bool detailed,
                                bool noise) const {
  edge_scratch_.resize(detailed ? kernel_.plan().edge_count() : 0);
  const BatchPoint point =
      kernel_.evaluate(mapping.assignment(), edge_scratch_, noise);
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

void Evaluator::evaluate_raw_batch(std::span<const Mapping> mappings,
                                   std::span<BatchPoint> out) const {
  require(out.size() == mappings.size(),
          "Evaluator::evaluate_raw_batch: out size != mapping count");
  for (std::size_t i = 0; i < mappings.size(); ++i)
    out[i] = kernel_.evaluate(mappings[i].assignment());
}

}  // namespace phonoc
