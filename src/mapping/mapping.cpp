#include "mapping/mapping.hpp"

#include <numeric>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace phonoc {

std::uint64_t assignment_hash(std::span<const TileId> assignment) noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL + assignment.size();
  for (const auto tile : assignment) {
    std::uint64_t state = h ^ (static_cast<std::uint64_t>(tile) +
                               0xbf58476d1ce4e5b9ULL);
    h = splitmix64(state);
  }
  return h;
}

Mapping::Mapping(std::vector<TileId> assignment, std::size_t tiles)
    : assignment_(std::move(assignment)), tile_to_task_(tiles, -1) {
  require(assignment_.size() <= tiles,
          "Mapping: more tasks than tiles (violates Eq. 2)");
  for (std::size_t task = 0; task < assignment_.size(); ++task) {
    const auto tile = assignment_[task];
    require(tile < tiles, "Mapping: tile out of range");
    require(tile_to_task_[tile] < 0,
            "Mapping: two tasks on one tile (violates Eq. 6)");
    tile_to_task_[tile] = static_cast<int>(task);
  }
}

Mapping Mapping::identity(std::size_t tasks, std::size_t tiles) {
  std::vector<TileId> assignment(tasks);
  std::iota(assignment.begin(), assignment.end(), TileId{0});
  return Mapping(std::move(assignment), tiles);
}

Mapping Mapping::random(std::size_t tasks, std::size_t tiles, Rng& rng) {
  require(tasks <= tiles, "Mapping::random: more tasks than tiles");
  std::vector<TileId> tile_order(tiles);
  std::iota(tile_order.begin(), tile_order.end(), TileId{0});
  rng.shuffle(tile_order);
  tile_order.resize(tasks);
  return Mapping(std::move(tile_order), tiles);
}

Mapping Mapping::from_assignment(std::vector<TileId> assignment,
                                 std::size_t tiles) {
  return Mapping(std::move(assignment), tiles);
}

TileId Mapping::tile_of(NodeId task) const {
  require(task < assignment_.size(), "Mapping::tile_of: task out of range");
  return assignment_[task];
}

int Mapping::task_at(TileId tile) const {
  require(tile < tile_to_task_.size(), "Mapping::task_at: tile out of range");
  return tile_to_task_[tile];
}

std::uint64_t Mapping::hash() const noexcept {
  return assignment_hash(assignment_);
}

void Mapping::swap_tiles(TileId a, TileId b) {
  require(a < tile_to_task_.size() && b < tile_to_task_.size(),
          "Mapping::swap_tiles: tile out of range");
  if (a == b) return;
  const int task_a = tile_to_task_[a];
  const int task_b = tile_to_task_[b];
  if (task_a >= 0) assignment_[static_cast<std::size_t>(task_a)] = b;
  if (task_b >= 0) assignment_[static_cast<std::size_t>(task_b)] = a;
  std::swap(tile_to_task_[a], tile_to_task_[b]);
}

}  // namespace phonoc
