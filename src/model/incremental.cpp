#include "model/incremental.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/units.hpp"

namespace phonoc {

IncrementalEvaluation::IncrementalEvaluation(const NetworkModel& net,
                                             const CommGraph& cg)
    : plan_(net, cg),
      store_(net.store()),
      rows_(plan_.edge_count(), net.tile_count()) {
  const auto count = plan_.edge_count();
  paths_.resize(count, 0);
  contrib_.assign(count * count, 0.0);
  partners_.resize(count);
  metrics_.resize(count);
  touched_mark_.assign(count, 0);
  changed_mark_.assign(count, 0);
  partners_saved_.assign(count, 0);
}

double IncrementalEvaluation::pair(std::uint32_t victim,
                                   std::uint32_t attacker) const {
  // Paths whose tile masks do not intersect contribute exactly 0.0.
  const std::size_t words = store_.mask_words;
  const std::uint64_t* v = &store_.tile_mask[paths_[victim] * words];
  const std::uint64_t* a = &store_.tile_mask[paths_[attacker] * words];
  std::uint64_t shared = 0;
  for (std::size_t w = 0; w < words; ++w) shared |= v[w] & a[w];
  if (shared == 0) return 0.0;
  return pair_noise(store_, {paths_[victim], rows_.row(victim)},
                    {paths_[attacker], rows_.row(attacker)}, shared);
}

void IncrementalEvaluation::set_path(std::uint32_t e, std::uint32_t path) {
  rows_.clear(store_, e, paths_[e]);
  paths_[e] = path;
  rows_.set(store_, e, path);
}

void IncrementalEvaluation::reset(std::span<const TileId> assignment) {
  require(!pending_,
          "IncrementalEvaluation::reset: a proposal is outstanding");
  require(assignment.size() == plan_.task_count(),
          "IncrementalEvaluation: assignment size != task count");
  std::vector<int> tile_to_task(plan_.tile_count(), -1);
  for (std::size_t task = 0; task < assignment.size(); ++task) {
    const auto tile = assignment[task];
    require(tile < plan_.tile_count(),
            "IncrementalEvaluation: assignment targets a tile out of range");
    require(tile_to_task[tile] < 0,
            "IncrementalEvaluation: two tasks mapped to the same tile");
    tile_to_task[tile] = static_cast<int>(task);
  }
  assignment_.assign(assignment.begin(), assignment.end());
  tile_to_task_ = std::move(tile_to_task);

  const auto count = static_cast<std::uint32_t>(plan_.edge_count());
  for (std::uint32_t e = 0; e < count; ++e)
    set_path(e, static_cast<std::uint32_t>(plan_.edge_path(assignment_, e)));
  for (std::uint32_t v = 0; v < count; ++v) {
    auto& partner_list = partners_[v];
    partner_list.clear();
    for (std::uint32_t a = 0; a < count; ++a) {
      const double k = a == v ? 0.0 : pair(v, a);
      cell(v, a) = k;
      if (k != 0.0) partner_list.push_back(a);
    }
  }
  for (std::uint32_t v = 0; v < count; ++v) {
    metrics_[v].edge = v;
    metrics_[v].src_tile = assignment_[plan_.edge_src(v)];
    metrics_[v].dst_tile = assignment_[plan_.edge_dst(v)];
    metrics_[v].loss_db = store_.total_loss_db[paths_[v]];
    metrics_[v].signal_gain = store_.total_gain[paths_[v]];
    resum_victim(v);
  }
  worst_loss_ = fold_loss();
  worst_snr_ = fold_snr();
  has_state_ = true;
  ++rebuilds_;
}

void IncrementalEvaluation::mark_changed(std::uint32_t victim) {
  if (changed_mark_[victim]) return;
  changed_mark_[victim] = 1;
  changed_.push_back(victim);
  undo_.metrics.emplace_back(victim, metrics_[victim]);
}

/// Re-derive `victim`'s noise sum and SNR from the cached contributions,
/// in ascending partner order (see the bit-identity contract: skipping
/// the exact-zero terms of the full ascending sum is the identity, so
/// this reproduces it bitwise).
void IncrementalEvaluation::resum_victim(std::uint32_t victim) {
  double noise = 0.0;
  for (const auto attacker : partners_[victim])
    noise += cell(victim, attacker);
  metrics_[victim].noise_gain = noise;
  metrics_[victim].snr_db = std::min(
      snr_db(store_.total_gain[paths_[victim]], noise),
      plan_.snr_ceiling_db());
}

IncrementalEvaluation::MinFold IncrementalEvaluation::fold_loss() const {
  MinFold fold{0.0, kNoArg};
  for (std::uint32_t v = 0; v < metrics_.size(); ++v) {
    if (metrics_[v].loss_db < fold.value) {
      fold.value = metrics_[v].loss_db;
      fold.arg = v;
    }
  }
  return fold;
}

IncrementalEvaluation::MinFold IncrementalEvaluation::fold_snr() const {
  MinFold fold{plan_.snr_ceiling_db(), kNoArg};
  for (std::uint32_t v = 0; v < metrics_.size(); ++v) {
    if (metrics_[v].snr_db < fold.value) {
      fold.value = metrics_[v].snr_db;
      fold.arg = v;
    }
  }
  return fold;
}

void IncrementalEvaluation::apply_tile_swap(TileId a, TileId b) {
  const int task_a = tile_to_task_[a];
  const int task_b = tile_to_task_[b];
  if (task_a >= 0) assignment_[static_cast<std::size_t>(task_a)] = b;
  if (task_b >= 0) assignment_[static_cast<std::size_t>(task_b)] = a;
  std::swap(tile_to_task_[a], tile_to_task_[b]);
}

void IncrementalEvaluation::propose_swap(TileId a, TileId b) {
  require(has_state_, "IncrementalEvaluation::propose_swap: no base state");
  require(!pending_,
          "IncrementalEvaluation::propose_swap: proposal already pending");
  require(a < plan_.tile_count() && b < plan_.tile_count(),
          "IncrementalEvaluation::propose_swap: tile out of range");

  undo_.tile_a = a;
  undo_.tile_b = b;
  undo_.paths.clear();
  undo_.metrics.clear();
  undo_.cells.clear();
  undo_.partners.clear();
  undo_.worst_loss = worst_loss_;
  undo_.worst_snr = worst_snr_;
  touched_.clear();
  changed_.clear();
  pending_ = true;
  ++proposals_;

  const int task_a = a == b ? -1 : tile_to_task_[a];
  const int task_b = a == b ? -1 : tile_to_task_[b];
  undo_.swapped = task_a >= 0 || task_b >= 0;
  if (!undo_.swapped) return;  // no mapped task moved: no-op
  apply_tile_swap(a, b);

  // Edges whose path changed: those incident to a moved task.
  for (const int task : {task_a, task_b}) {
    if (task < 0) continue;
    for (const auto e : plan_.task_edges(static_cast<NodeId>(task))) {
      if (touched_mark_[e]) continue;
      touched_mark_[e] = 1;
      touched_.push_back(e);
    }
  }
  for (const auto e : touched_) {
    mark_changed(e);
    undo_.paths.emplace_back(e, paths_[e]);
    set_path(e, static_cast<std::uint32_t>(plan_.edge_path(assignment_, e)));
    metrics_[e].src_tile = assignment_[plan_.edge_src(e)];
    metrics_[e].dst_tile = assignment_[plan_.edge_dst(e)];
    metrics_[e].loss_db = store_.total_loss_db[paths_[e]];
    metrics_[e].signal_gain = store_.total_gain[paths_[e]];
  }

  const auto count = static_cast<std::uint32_t>(plan_.edge_count());
  for (const auto t : touched_) {
    // Row t: edge t as victim against every attacker's (new) path. The
    // partner list is rebuilt wholesale while the row is recomputed.
    undo_.partners.emplace_back(t, std::move(partners_[t]));
    partners_saved_[t] = 1;
    auto& partner_list = partners_[t];
    partner_list.clear();
    for (std::uint32_t att = 0; att < count; ++att) {
      if (att == t) continue;
      const double k = pair(t, att);
      double& slot = cell(t, att);
      if (k != slot) {
        undo_.cells.emplace_back(t, att, slot);
        slot = k;
      }
      if (k != 0.0) partner_list.push_back(att);
    }
    // Column t: edge t as attacker onto every untouched victim (touched
    // victims were fully re-rowed above).
    for (std::uint32_t v = 0; v < count; ++v) {
      if (v == t || touched_mark_[v]) continue;
      double& slot = cell(v, t);
      const double k = pair(v, t);
      if (k == slot) continue;
      mark_changed(v);
      undo_.cells.emplace_back(v, t, slot);
      const bool was_partner = slot != 0.0;
      const bool is_partner = k != 0.0;
      slot = k;
      if (was_partner != is_partner) {
        if (!partners_saved_[v]) {
          partners_saved_[v] = 1;
          undo_.partners.emplace_back(v, partners_[v]);
        }
        auto& partner_list = partners_[v];
        const auto pos =
            std::lower_bound(partner_list.begin(), partner_list.end(), t);
        if (is_partner)
          partner_list.insert(pos, t);
        else
          partner_list.erase(pos);
      }
    }
  }

  for (const auto v : changed_) resum_victim(v);

  // The folds are selections; they only need a replay when a changed
  // edge could displace the minimum or the current argmin was changed.
  bool rescan_loss = false;
  bool rescan_snr = false;
  for (const auto v : changed_) {
    if (v == worst_loss_.arg || metrics_[v].loss_db < worst_loss_.value)
      rescan_loss = true;
    if (v == worst_snr_.arg || metrics_[v].snr_db < worst_snr_.value)
      rescan_snr = true;
  }
  if (rescan_loss) worst_loss_ = fold_loss();
  if (rescan_snr) worst_snr_ = fold_snr();

  for (const auto e : touched_) touched_mark_[e] = 0;
  for (const auto v : changed_) changed_mark_[v] = 0;
  for (const auto& entry : undo_.partners) partners_saved_[entry.first] = 0;
}

void IncrementalEvaluation::commit() {
  require(pending_, "IncrementalEvaluation::commit: nothing proposed");
  pending_ = false;
}

void IncrementalEvaluation::revert() {
  require(pending_, "IncrementalEvaluation::revert: nothing proposed");
  worst_loss_ = undo_.worst_loss;
  worst_snr_ = undo_.worst_snr;
  for (auto& [v, list] : undo_.partners) partners_[v] = std::move(list);
  for (const auto& [v, att, value] : undo_.cells) cell(v, att) = value;
  for (const auto& [e, metrics] : undo_.metrics) metrics_[e] = metrics;
  for (const auto& [e, path] : undo_.paths) set_path(e, path);
  // Re-swapping the same tile pair is its own inverse.
  if (undo_.swapped) apply_tile_swap(undo_.tile_a, undo_.tile_b);
  pending_ = false;
}

EvaluationView IncrementalEvaluation::view() const noexcept {
  return EvaluationView{worst_loss_.value, worst_snr_.value, metrics_};
}

EvaluationResult IncrementalEvaluation::result(bool detailed) const {
  require(has_state_, "IncrementalEvaluation::result: no base state");
  EvaluationResult out;
  out.worst_loss_db = worst_loss_.value;
  out.worst_snr_db = worst_snr_.value;
  if (detailed) out.edges = metrics_;
  return out;
}

}  // namespace phonoc
