#pragma once
/// \file scheduler.hpp
/// \brief Weighted-fair admission scheduling of the phonocd broker.
///
/// FairScheduler replaces the broker's single FIFO deque: queued
/// requests live in per-client sub-queues inside two priority lanes,
/// and broker workers pick the next job with a deficit-round-robin
/// (DRR) walk keyed by request cost (expanded grid cells).
///
///  * **Lanes** — `Interactive` is always drained before `Bulk`, so
///    cheap requests (single evaluations, small grids under the
///    broker's cell threshold) overtake long sweeps instead of
///    head-of-line-blocking behind them. Starvation of the bulk lane is
///    bounded by construction: interactive requests are small by the
///    routing rule, so the lane empties between bulk picks.
///  * **DRR within a lane** — each backlogged client holds a deficit
///    counter. A visit tops the deficit up by `quantum_cells` once,
///    then serves that client's FIFO sub-queue while the deficit covers
///    the front job's cost; when it no longer does, the cursor moves on
///    and the remaining deficit is kept. Over any backlog interval every
///    client therefore receives ~quantum cells of service per round
///    regardless of how it slices its work — one client queueing eight
///    sweeps cannot crowd out a client queueing one. A job costing more
///    than the quantum accumulates deficit across rounds and is served
///    eventually (no starvation: every full round grows each deficit by
///    the quantum). A client whose sub-queue empties forfeits its
///    deficit, so idleness earns no credit.
///
/// The scheduler is a plain data structure: NOT thread-safe, the broker
/// calls it under its own mutex. It is a template so the DRR mechanics
/// can be unit-tested deterministically with trivial payloads
/// (tests/test_service.cpp) while the broker instantiates it with its
/// internal Job type.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/problem_cache.hpp"  // ServiceLane

namespace phonoc {

template <typename JobT>
class FairScheduler {
 public:
  /// `quantum_cells` is the per-visit deficit top-up: the amount of
  /// work (in cells) one client may consume before the round-robin
  /// cursor moves to the next backlogged client.
  explicit FairScheduler(std::size_t quantum_cells = 32)
      : quantum_(quantum_cells == 0 ? 1 : quantum_cells) {}

  /// Enqueue one job of `cost` cells for `client` into `lane`. The new
  /// client (if it was idle) joins the ring just behind the cursor, so
  /// it is served after every currently backlogged client finishes its
  /// in-progress visit — arrival cannot jump an ongoing round.
  void push(ServiceLane lane, const std::string& client, std::size_t cost,
            JobT job) {
    LaneState& state = lane_state(lane);
    auto it = state.index.find(client);
    if (it == state.index.end()) {
      // Insert before the cursor: last position of the current round.
      const auto ring_it =
          state.ring.emplace(state.cursor_valid ? state.cursor
                                                : state.ring.end());
      ring_it->client = client;
      if (!state.cursor_valid) {
        state.cursor = ring_it;
        state.cursor_valid = true;
      }
      it = state.index.emplace(client, ring_it).first;
    }
    it->second->jobs.emplace_back(cost, std::move(job));
    ++state.count;
    ++depth_[client];
  }

  /// Dequeue the next job: the interactive lane strictly first, DRR
  /// within the lane. Returns nullopt when both lanes are empty.
  [[nodiscard]] std::optional<JobT> pop() {
    if (auto job = pop_lane(interactive_)) return job;
    return pop_lane(bulk_);
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return interactive_.count + bulk_.count;
  }
  [[nodiscard]] std::size_t size(ServiceLane lane) const noexcept {
    return lane == ServiceLane::Interactive ? interactive_.count
                                            : bulk_.count;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Queued jobs of one client, summed across both lanes (the broker's
  /// per-client admission cap).
  [[nodiscard]] std::size_t client_depth(const std::string& client) const {
    const auto it = depth_.find(client);
    return it == depth_.end() ? 0 : it->second;
  }

  /// Remove and return every queued job, interactive lane first, each
  /// client's jobs in FIFO order (the shutdown drain: every job still
  /// gets its structured rejection).
  [[nodiscard]] std::vector<JobT> drain() {
    std::vector<JobT> all;
    all.reserve(size());
    for (LaneState* state : {&interactive_, &bulk_}) {
      for (auto& queue : state->ring)
        for (auto& [cost, job] : queue.jobs) all.push_back(std::move(job));
      state->ring.clear();
      state->index.clear();
      state->count = 0;
      state->cursor_valid = false;
    }
    depth_.clear();
    return all;
  }

 private:
  struct ClientQueue {
    std::string client;
    std::deque<std::pair<std::size_t, JobT>> jobs;  ///< {cost, job} FIFO
    std::size_t deficit = 0;
    bool visited = false;  ///< quantum already granted this visit
  };
  using Ring = std::list<ClientQueue>;

  struct LaneState {
    Ring ring;  ///< backlogged clients in round-robin order
    typename Ring::iterator cursor;
    bool cursor_valid = false;
    std::map<std::string, typename Ring::iterator> index;
    std::size_t count = 0;  ///< jobs across the ring
  };

  LaneState& lane_state(ServiceLane lane) noexcept {
    return lane == ServiceLane::Interactive ? interactive_ : bulk_;
  }

  void advance(LaneState& state) {
    if (++state.cursor == state.ring.end()) state.cursor = state.ring.begin();
  }

  std::optional<JobT> pop_lane(LaneState& state) {
    if (state.count == 0) return std::nullopt;
    // Terminates: every full pass over the ring grows each backlogged
    // client's deficit by the quantum, so some front job becomes
    // affordable after at most ceil(max_cost / quantum) passes.
    for (;;) {
      ClientQueue& queue = *state.cursor;
      if (!queue.visited) {
        queue.deficit += quantum_;
        queue.visited = true;
      }
      const std::size_t cost = queue.jobs.front().first;
      if (queue.deficit >= cost) {
        queue.deficit -= cost;
        JobT job = std::move(queue.jobs.front().second);
        queue.jobs.pop_front();
        --state.count;
        if (--depth_[queue.client] == 0) depth_.erase(queue.client);
        if (queue.jobs.empty()) {
          // An emptied client leaves the ring and forfeits its deficit.
          state.index.erase(queue.client);
          const auto dead = state.cursor;
          advance(state);
          state.ring.erase(dead);
          if (state.ring.empty()) state.cursor_valid = false;
        }
        // Cursor stays (visited still set): the next pop continues this
        // client's burst while its deficit covers the next job.
        return job;
      }
      queue.visited = false;  // deficit kept for the next round
      advance(state);
    }
  }

  std::size_t quantum_;
  LaneState interactive_;
  LaneState bulk_;
  std::map<std::string, std::size_t> depth_;  ///< per client, both lanes
};

}  // namespace phonoc
