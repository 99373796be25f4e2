#pragma once
/// \file host_pool.hpp
/// \brief Thread-safe work ledger of the distributed sweep scheduler.
///
/// The grid is cut into contiguous WorkUnits and dealt as one
/// contiguous block per host, sized proportionally to the host's
/// advertised capacity (largest-remainder apportionment of whole
/// units; equal capacities degenerate to an even split). Each
/// host-driver thread pulls its next unit with acquire(), which
/// implements the fleet policies in one place:
///
///  - own queue first (locality: contiguous ranges share problems),
///  - then the retry queue (units bounced off a dead or timed-out host),
///  - then work stealing from the richest other queue,
///  - then straggler speculation: clone a unit that has been in flight
///    on another host for at least `speculate_after_seconds` (at most
///    one live clone per dispatch, attempts still bounded).
///
/// Completion is first-wins per cell: complete_cell() returns false for
/// a late duplicate (a straggler that answered after its clone), so a
/// retried cell can never double-count. A unit whose host dies is
/// quarantined: its first unsettled cell — the one a one-cell-at-a-time
/// worker died on — is re-queued alone with attempt+1, the rest with
/// the unit's attempt; a unit with no attempts left abandons its
/// unsettled cells (the scheduler marks them Failed).
/// Every cell ends settled — answered or abandoned — which is the
/// pool's termination condition.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

namespace phonoc {

/// A contiguous slice [begin, end) of grid indices plus its dispatch
/// attempt (0 = first try).
struct WorkUnit {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t attempt = 0;
};

struct HostPoolStats {
  std::size_t retries = 0;       ///< units re-queued after a host failure
  std::size_t speculations = 0;  ///< straggler units cloned to idle hosts
  std::size_t abandoned = 0;     ///< cells that exhausted every attempt
  std::size_t duplicates = 0;    ///< late answers dropped by dedup
};

/// What one host pulled through acquire()'s non-own-queue paths —
/// the per-host view of the fleet's load-balancing activity, surfaced
/// in HostReport (and the remote sweep summary).
struct HostCounters {
  std::size_t stolen_units = 0;     ///< taken from another host's queue
  std::size_t retried_units = 0;    ///< picked up off the retry queue
  std::size_t speculated_units = 0; ///< straggler clones this host ran
};

class HostPool {
 public:
  /// Capacity-weighted deal: host `h` initially owns a contiguous
  /// block of whole units sized by `capacities[h]` relative to the
  /// fleet total (largest remainder, ties broken toward the lower host
  /// index). A capacity-0 host starts with nothing and only reaches
  /// work through retry, stealing or speculation; an all-zero fleet
  /// falls back to an equal split so the ledger stays well-formed even
  /// when nobody will drive it. A capacity above 2^32 - 1 throws
  /// InvalidArgument. `max_attempts` >= 1 is the total
  /// number of dispatches a unit may consume (1 = no retries). A
  /// negative `speculate_after_seconds` disables straggler speculation
  /// (0 makes every in-flight unit immediately cloneable —
  /// deterministic tests use that); `allow_steal` gates queue stealing.
  HostPool(std::vector<std::size_t> capacities, std::size_t cells,
           std::size_t cells_per_unit, std::size_t max_attempts,
           double speculate_after_seconds, bool allow_steal = true);

  /// Admit a host after construction (a late `--join` daemon): appends
  /// an empty queue — the newcomer reaches work through the retry
  /// queue, stealing and speculation, exactly like a capacity-0 host
  /// from the initial deal — and returns its host index. Wakes blocked
  /// acquirers so nobody waits on a fleet that just grew.
  [[nodiscard]] std::size_t add_host();

  /// Block until a unit is available for `host` or every cell is
  /// settled (nullopt — the driver is done). Marks the unit in flight.
  [[nodiscard]] std::optional<WorkUnit> acquire(std::size_t host);

  /// First-wins dedup: true = this answer settles the cell (store the
  /// result), false = already settled (late duplicate, drop it).
  [[nodiscard]] bool complete_cell(std::size_t index);

  /// The host's in-flight unit ended cleanly (its "done" frame arrived).
  void finish_unit(std::size_t host);

  /// The host died or timed out mid-unit: re-queue the first unsettled
  /// cell alone at attempt+1 and the rest at the unit's attempt, or —
  /// attempts exhausted — abandon the unsettled cells. Returns the
  /// newly abandoned cell indices so the caller can mark them Failed.
  [[nodiscard]] std::vector<std::size_t> fail_unit(std::size_t host);

  /// The host is gone for good: spill its queued units into the retry
  /// queue (fail_unit handles the in-flight one).
  void retire_host(std::size_t host);

  [[nodiscard]] bool all_settled() const;
  /// Cells neither answered nor abandoned (only meaningful once every
  /// driver has exited; the scheduler fails them as unroutable).
  [[nodiscard]] std::vector<std::size_t> unsettled_cells() const;
  [[nodiscard]] HostPoolStats stats() const;
  /// Per-host acquire-path counters (valid host index required).
  [[nodiscard]] HostCounters host_counters(std::size_t host) const;

 private:
  struct InFlight {
    WorkUnit unit;
    double dispatched_at = 0.0;  ///< seconds on the pool's own clock
    bool cloned = false;         ///< a speculation clone already exists
  };

  [[nodiscard]] double now_seconds() const;
  [[nodiscard]] std::size_t first_unsettled(const WorkUnit& unit) const;
  [[nodiscard]] std::optional<WorkUnit> try_acquire_locked(std::size_t host);
  void settle_locked(std::size_t index);

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::vector<std::deque<WorkUnit>> queues_;      // per-host
  std::deque<WorkUnit> retry_;                    // bounced units
  std::vector<std::optional<InFlight>> in_flight_;  // one per host
  std::vector<HostCounters> counters_;            // one per host
  std::vector<char> settled_;                     // per-cell
  std::size_t settled_count_ = 0;
  std::size_t max_attempts_;
  double speculate_after_seconds_;
  bool allow_steal_;
  HostPoolStats stats_;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace phonoc
