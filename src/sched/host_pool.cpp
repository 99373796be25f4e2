#include "sched/host_pool.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace phonoc {

namespace {
/// How often a blocked acquire() re-examines the straggler clocks.
constexpr auto kAcquirePollInterval = std::chrono::milliseconds(20);

obs::Counter& units_counter(const char* path) {
  static obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  return registry.counter("phonoc_sched_units_total",
                          "Work units acquired, by acquire path.",
                          {{"path", path}});
}
}  // namespace

HostPool::HostPool(std::vector<std::size_t> capacities, std::size_t cells,
                   std::size_t cells_per_unit, std::size_t max_attempts,
                   double speculate_after_seconds, bool allow_steal)
    : queues_(capacities.size()),
      in_flight_(capacities.size()),
      counters_(capacities.size()),
      settled_(cells, 0),
      max_attempts_(std::max<std::size_t>(max_attempts, 1)),
      speculate_after_seconds_(speculate_after_seconds),
      allow_steal_(allow_steal),
      epoch_(std::chrono::steady_clock::now()) {
  const std::size_t hosts = capacities.size();
  require(hosts > 0, "HostPool: need at least one host");
  // The deal multiplies a capacity by the unit count; a 32-bit bound
  // keeps that product from wrapping.
  for (const auto capacity : capacities)
    require(capacity <= std::numeric_limits<std::uint32_t>::max(),
            "HostPool: a host capacity exceeds 2^32 - 1");
  const std::size_t unit = std::max<std::size_t>(cells_per_unit, 1);
  const std::size_t units = (cells + unit - 1) / unit;
  // An all-zero fleet (say, no host survived its handshake) degrades
  // to an equal split: the units land somewhere well-formed and the
  // scheduler's unsettled-cell sweep fails them loudly.
  std::size_t total = 0;
  for (const auto capacity : capacities) total += capacity;
  if (total == 0) {
    capacities.assign(hosts, 1);
    total = hosts;
  }
  // Largest-remainder apportionment of whole units: floor every
  // host's proportional share, then hand the leftover units to the
  // largest fractional remainders (ties toward the lower host index —
  // stable_sort keeps the iota order). A capacity-0 host always has
  // remainder 0 and can never win a leftover unit.
  std::vector<std::size_t> share(hosts);
  std::size_t dealt = 0;
  for (std::size_t h = 0; h < hosts; ++h) {
    share[h] = units * capacities[h] / total;
    dealt += share[h];
  }
  std::vector<std::size_t> order(hosts);
  for (std::size_t h = 0; h < hosts; ++h) order[h] = h;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return units * capacities[a] % total >
                            units * capacities[b] % total;
                   });
  for (std::size_t i = 0; i < units - dealt; ++i) ++share[order[i]];
  // Host h owns one contiguous block: neighbouring ranges share
  // problems worker-side, so locality survives the weighting.
  std::size_t begin = 0;
  for (std::size_t h = 0; h < hosts; ++h)
    for (std::size_t u = 0; u < share[h]; ++u, begin += unit)
      queues_[h].push_back(
          WorkUnit{begin, std::min(begin + unit, cells), 0});
}

double HostPool::now_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::size_t HostPool::first_unsettled(const WorkUnit& unit) const {
  std::size_t i = unit.begin;
  while (i < unit.end && settled_[i]) ++i;
  return i;
}

void HostPool::settle_locked(std::size_t index) {
  if (settled_[index]) return;
  settled_[index] = 1;
  ++settled_count_;
  if (settled_count_ == settled_.size()) work_cv_.notify_all();
}

std::optional<WorkUnit> HostPool::try_acquire_locked(std::size_t host) {
  const auto dispatch = [&](WorkUnit unit) -> std::optional<WorkUnit> {
    // Skip any prefix settled in the meantime (e.g. by a clone); a
    // fully settled unit simply dissolves.
    unit.begin = first_unsettled(unit);
    if (unit.begin >= unit.end) return std::nullopt;
    in_flight_[host] = InFlight{unit, now_seconds(), false};
    return unit;
  };

  // 1. Own queue.
  while (!queues_[host].empty()) {
    WorkUnit unit = queues_[host].front();
    queues_[host].pop_front();
    if (auto dispatched = dispatch(unit)) {
      obs::trace_instant("sched", "deal", {"host", std::uint64_t(host)},
                         {"begin", std::uint64_t(dispatched->begin)},
                         {"end", std::uint64_t(dispatched->end)});
      units_counter("own").inc();
      return dispatched;
    }
  }
  // 2. Units bounced off a failed host.
  while (!retry_.empty()) {
    WorkUnit unit = retry_.front();
    retry_.pop_front();
    if (auto dispatched = dispatch(unit)) {
      ++counters_[host].retried_units;
      obs::trace_instant("sched", "retry", {"host", std::uint64_t(host)},
                         {"begin", std::uint64_t(dispatched->begin)},
                         {"end", std::uint64_t(dispatched->end)});
      units_counter("retry").inc();
      return dispatched;
    }
  }
  // 3. Steal from the richest queue (from the back: the thief takes the
  // work its owner would reach last).
  if (allow_steal_) {
    std::size_t richest = host;
    std::size_t depth = 0;
    for (std::size_t h = 0; h < queues_.size(); ++h)
      if (h != host && queues_[h].size() > depth) {
        depth = queues_[h].size();
        richest = h;
      }
    while (depth > 0 && !queues_[richest].empty()) {
      WorkUnit unit = queues_[richest].back();
      queues_[richest].pop_back();
      if (auto dispatched = dispatch(unit)) {
        ++counters_[host].stolen_units;
        obs::trace_instant("sched", "steal", {"host", std::uint64_t(host)},
                           {"begin", std::uint64_t(dispatched->begin)},
                           {"end", std::uint64_t(dispatched->end)});
        units_counter("steal").inc();
        return dispatched;
      }
    }
  }
  // 4. Straggler speculation: clone a long-in-flight unit of another
  // host. First answer wins; the loser's cells are deduplicated.
  if (speculate_after_seconds_ >= 0.0) {
    const double now = now_seconds();
    for (std::size_t h = 0; h < in_flight_.size(); ++h) {
      if (h == host || !in_flight_[h] || in_flight_[h]->cloned) continue;
      auto& flight = *in_flight_[h];
      if (now - flight.dispatched_at < speculate_after_seconds_) continue;
      if (flight.unit.attempt + 1 >= max_attempts_) continue;
      WorkUnit clone{first_unsettled(flight.unit), flight.unit.end,
                     flight.unit.attempt + 1};
      if (clone.begin >= clone.end) continue;
      flight.cloned = true;
      ++stats_.speculations;
      ++counters_[host].speculated_units;
      obs::trace_instant("sched", "speculate", {"host", std::uint64_t(host)},
                         {"begin", std::uint64_t(clone.begin)},
                         {"end", std::uint64_t(clone.end)});
      units_counter("speculate").inc();
      in_flight_[host] = InFlight{clone, now, false};
      return clone;
    }
  }
  return std::nullopt;
}

std::size_t HostPool::add_host() {
  const std::lock_guard<std::mutex> lock(mutex_);
  queues_.emplace_back();
  in_flight_.emplace_back();
  counters_.emplace_back();
  work_cv_.notify_all();
  return queues_.size() - 1;
}

std::optional<WorkUnit> HostPool::acquire(std::size_t host) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (settled_count_ == settled_.size()) return std::nullopt;
    if (auto unit = try_acquire_locked(host)) return unit;
    // Waiting on three things at once — new retry units, full
    // settlement, and straggler clocks crossing the speculation
    // threshold. The first two notify; the clocks need a poll.
    work_cv_.wait_for(lock, kAcquirePollInterval);
  }
}

bool HostPool::complete_cell(std::size_t index) {
  const std::lock_guard<std::mutex> lock(mutex_);
  require(index < settled_.size(), "HostPool: cell index out of range");
  if (settled_[index]) {
    ++stats_.duplicates;
    obs::trace_instant("sched", "dedup_drop", {"index", std::uint64_t(index)});
    static obs::Counter& dropped = obs::MetricsRegistry::global().counter(
        "phonoc_sched_dedup_drops_total",
        "Duplicate cell answers dropped (first answer won).");
    dropped.inc();
    return false;
  }
  settle_locked(index);
  obs::trace_instant("sched", "settle", {"index", std::uint64_t(index)});
  return true;
}

void HostPool::finish_unit(std::size_t host) {
  const std::lock_guard<std::mutex> lock(mutex_);
  in_flight_[host].reset();
}

std::vector<std::size_t> HostPool::fail_unit(std::size_t host) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::size_t> abandoned;
  if (!in_flight_[host]) return abandoned;
  const WorkUnit unit = in_flight_[host]->unit;
  in_flight_[host].reset();
  const std::size_t begin = first_unsettled(unit);
  if (begin >= unit.end) return abandoned;  // nothing left to recover
  if (unit.attempt + 1 < max_attempts_) {
    // Quarantine: a worker that runs one cell at a time died on the
    // first unsettled cell, so that cell retries alone and pays the
    // attempt; the rest was never reached and retries free of charge.
    retry_.push_back(WorkUnit{begin, begin + 1, unit.attempt + 1});
    ++stats_.retries;
    if (begin + 1 < unit.end) {
      retry_.push_back(WorkUnit{begin + 1, unit.end, unit.attempt});
      ++stats_.retries;
    }
    work_cv_.notify_all();
    return abandoned;
  }
  // Attempts exhausted: these cells will never be answered.
  for (std::size_t i = begin; i < unit.end; ++i)
    if (!settled_[i]) {
      settle_locked(i);
      abandoned.push_back(i);
      ++stats_.abandoned;
    }
  return abandoned;
}

void HostPool::retire_host(std::size_t host) {
  const std::lock_guard<std::mutex> lock(mutex_);
  while (!queues_[host].empty()) {
    retry_.push_back(queues_[host].front());
    queues_[host].pop_front();
  }
  work_cv_.notify_all();
}

bool HostPool::all_settled() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return settled_count_ == settled_.size();
}

std::vector<std::size_t> HostPool::unsettled_cells() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::size_t> unsettled;
  for (std::size_t i = 0; i < settled_.size(); ++i)
    if (!settled_[i]) unsettled.push_back(i);
  return unsettled;
}

HostPoolStats HostPool::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

HostCounters HostPool::host_counters(std::size_t host) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  require(host < counters_.size(), "HostPool: host index out of range");
  return counters_[host];
}

}  // namespace phonoc
