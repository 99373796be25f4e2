#pragma once
/// \file mapping.hpp
/// \brief The mapping function Omega: C -> T (paper Eq. 5/6): every task
/// on exactly one tile, every tile hosting at most one task.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "topology/topology.hpp"
#include "util/rng.hpp"

namespace phonoc {

/// SplitMix64-mixed hash of a task->tile assignment. Position-sensitive
/// (the same tile set in a different task order hashes differently).
/// Collisions are possible — memoization callers must confirm with a
/// full-assignment equality check before trusting a bucket.
[[nodiscard]] std::uint64_t assignment_hash(
    std::span<const TileId> assignment) noexcept;

class Mapping {
 public:
  Mapping() = default;

  /// Identity-ish mapping: task i on tile i. Requires tasks <= tiles.
  static Mapping identity(std::size_t tasks, std::size_t tiles);

  /// Uniform random injective mapping.
  static Mapping random(std::size_t tasks, std::size_t tiles, Rng& rng);

  /// Adopt an explicit assignment (validated: injective, in range).
  static Mapping from_assignment(std::vector<TileId> assignment,
                                 std::size_t tiles);

  [[nodiscard]] std::size_t task_count() const noexcept {
    return assignment_.size();
  }
  [[nodiscard]] std::size_t tile_count() const noexcept {
    return tile_to_task_.size();
  }

  [[nodiscard]] TileId tile_of(NodeId task) const;
  /// Task on `tile`, or -1 when the tile is empty.
  [[nodiscard]] int task_at(TileId tile) const;

  [[nodiscard]] std::span<const TileId> assignment() const noexcept {
    return assignment_;
  }

  /// Swap the contents of two tiles (task<->task, task<->empty or
  /// no-op for empty<->empty). This is the R-PBLA move.
  void swap_tiles(TileId a, TileId b);

  [[nodiscard]] bool operator==(const Mapping& other) const noexcept {
    return assignment_ == other.assignment_ &&
           tile_count() == other.tile_count();
  }

  /// 64-bit hash of the assignment (see assignment_hash); the key the
  /// evaluation memoization layer buckets by.
  [[nodiscard]] std::uint64_t hash() const noexcept;

 private:
  Mapping(std::vector<TileId> assignment, std::size_t tiles);

  std::vector<TileId> assignment_;   ///< task -> tile
  std::vector<int> tile_to_task_;    ///< tile -> task or -1
};

}  // namespace phonoc
