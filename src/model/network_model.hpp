#pragma once
/// \file network_model.hpp
/// \brief Composition of topology + router microarchitecture + routing
/// into a fully precomputed photonic network model.
///
/// Every ordered tile pair's route is stored once, structure-of-arrays,
/// in the model's `PathStore`, with the per-hop quantities the analyses
/// need in O(1): the connection index at each router, the
/// attacker-side prefix gain and the victim-side suffix gain. The
/// analyses read a path through `path()`, a non-owning view; the
/// scoring kernels (model/batch_eval.hpp) read the arrays directly.
/// Building the model validates that the routing algorithm only
/// requests connections the router actually supports.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "router/router_model.hpp"
#include "routing/route.hpp"
#include "topology/topology.hpp"

namespace phonoc {

/// How the crosstalk analysis treats connection pairs that cannot be
/// simultaneously active in one router (see PairAnalysis::conflict).
enum class ConflictPolicy {
  /// Skip conflicting pairs' contribution at that router (default;
  /// matches the feasibility constraints of circuit-switched photonic
  /// NoCs).
  Exclude,
  /// Sum every pair regardless (naive worst case; ablation A2).
  Ignore,
};

struct NetworkModelOptions {
  ModelFidelity fidelity = ModelFidelity::Simplified;
  ConflictPolicy conflict_policy = ConflictPolicy::Exclude;
  /// SNR reported for a communication with zero accumulated noise, dB.
  double snr_ceiling_db = 200.0;
};

/// Non-owning view of one ordered tile pair's path in the model's path
/// store; valid as long as the NetworkModel lives.
struct PathView {
  std::span<const Hop> hops;
  /// Router connection index per hop (into the shared RouterModel).
  std::span<const std::uint16_t> conn;
  /// Linear gain from injected power to the input of hop i's router.
  std::span<const double> arrive_gain;
  /// Linear gain from hop i's router output to the destination detector.
  std::span<const double> exit_suffix;
  /// End-to-end linear gain and the same in dB.
  double total_gain = 1.0;
  double total_loss_db = 0.0;
  /// Total waveguide length over links, cm.
  double link_length_cm = 0.0;

  /// Hop index at `tile`, or -1 when the path does not visit it.
  [[nodiscard]] int hop_index_at(TileId tile) const noexcept {
    for (std::size_t i = 0; i < hops.size(); ++i)
      if (hops[i].tile == tile) return static_cast<int>(i);
    return -1;
  }
};

/// Every path of a NetworkModel, stored once as flat arrays. Path id =
/// src * tiles + dst; diagonal rows are empty and never referenced.
struct PathStore {
  // --- per path ---------------------------------------------------------------
  /// Path p's hops are [hop_begin[p], hop_begin[p + 1]) in the per-hop
  /// arrays.
  std::vector<std::uint32_t> hop_begin;
  std::vector<double> total_gain;
  std::vector<double> total_loss_db;
  std::vector<double> link_length_cm;
  /// Tile-occupancy bitmask, `mask_words` uint64 words per path.
  std::size_t mask_words = 0;
  std::vector<std::uint64_t> tile_mask;

  // --- per hop (all paths back to back) ---------------------------------------
  std::vector<Hop> hops;
  std::vector<std::uint16_t> conn;
  std::vector<double> arrive_gain;
  std::vector<double> exit_suffix;

  // --- per (victim conn, attacker conn) ---------------------------------------
  /// Router connection count (the pair table's row stride).
  std::size_t conns = 0;
  /// Dense pair gain, conns x conns: `NetworkModel::pair_noise_gain`
  /// with the conflict policy and fidelity baked in; conflicting or
  /// non-positive pairs hold exactly 0.0, so the kernels need no branch.
  std::vector<double> pair_gain;
};

class NetworkModel {
 public:
  /// Largest tile count a model accepts: the kernels' per-edge tile ->
  /// hop rows (`HopRows`) hold a path's hop index as int16. Parsers
  /// that read a grid side reject anything larger before a network is
  /// built.
  static constexpr std::size_t kMaxTiles = 32768;

  /// Builds and verifies all tile-pair paths. Throws ModelError when the
  /// routing algorithm emits a connection the router lacks.
  NetworkModel(Topology topology, RouterModelPtr router,
               std::shared_ptr<const RoutingAlgorithm> routing,
               NetworkModelOptions options = {});

  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] const RouterModel& router() const noexcept { return *router_; }
  [[nodiscard]] const RoutingAlgorithm& routing() const noexcept {
    return *routing_;
  }
  [[nodiscard]] const NetworkModelOptions& options() const noexcept {
    return options_;
  }

  [[nodiscard]] std::size_t tile_count() const noexcept {
    return topology_.tile_count();
  }

  /// Path for src != dst (both in range).
  [[nodiscard]] PathView path(TileId src, TileId dst) const;

  /// Row of the (src, dst) path in the store's per-path arrays.
  [[nodiscard]] std::size_t path_id(TileId src, TileId dst) const noexcept {
    return static_cast<std::size_t>(src) * tile_count() + dst;
  }
  [[nodiscard]] const PathStore& store() const noexcept { return store_; }

  /// Insertion loss of the (src, dst) communication, dB (<= 0).
  [[nodiscard]] double path_loss_db(TileId src, TileId dst) const {
    return path(src, dst).total_loss_db;
  }

  /// Crosstalk coefficient used by the analyses: linear noise gain for
  /// the (victim conn, attacker conn) pair at one router under this
  /// model's fidelity and conflict policy.
  [[nodiscard]] double pair_noise_gain(std::uint16_t victim_conn,
                                       std::uint16_t attacker_conn) const {
    if (options_.conflict_policy == ConflictPolicy::Exclude &&
        router_->conflicts(victim_conn, attacker_conn))
      return 0.0;
    return router_->crosstalk_gain(victim_conn, attacker_conn,
                                   options_.fidelity);
  }

  /// Worst path loss over all ordered tile pairs (network property,
  /// independent of any mapping), dB.
  [[nodiscard]] double worst_case_path_loss_db() const;

 private:
  Topology topology_;
  RouterModelPtr router_;
  std::shared_ptr<const RoutingAlgorithm> routing_;
  NetworkModelOptions options_;
  PathStore store_;
};

}  // namespace phonoc
