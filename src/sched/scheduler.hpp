#pragma once
/// \file scheduler.hpp
/// \brief Distributed sweep scheduler: ship shards to a worker fleet,
/// retry stragglers, merge per-host reports.
///
/// The Scheduler splits a SweepSpec's grid into contiguous WorkUnits,
/// dials every host of the fleet through a pluggable Transport, streams
/// framed SweepShards out and CellResult blocks back, and survives the
/// real fleet failure modes: a host that refuses the dial, a host that
/// dies mid-shard, a straggler that answers after its work was cloned
/// elsewhere (first answer wins, the late one is deduplicated), and a
/// fleet that loses every host (the unroutable cells come back as
/// CellStatus::Failed, never silently dropped). A `spawn:PATH` host (a
/// local worker process) that dies is respawned, and the cell it died
/// on is quarantined (HostPool::fail_unit). The *scheduler's* own
/// death is covered by the settled-cell journal (journal_path replays
/// on restart, see sched/journal.hpp), and a shrinking fleet by dynamic
/// admission (admit_port lets `phonoc_workerd --join` daemons enter a
/// sweep already in flight and absorb queued, stolen or speculated
/// units).
///
/// Determinism: cells execute through the same ProblemCache +
/// run_cells() + run_sweep_cell() path as BatchEngine and the wire
/// format round-trips doubles bit-exactly, so — for evaluation-count
/// budgets — the per-cell results are bit-identical to an in-process
/// BatchEngine run whatever the fleet size, failure pattern or retry
/// schedule (tests/test_sched.cpp asserts this on a 64-cell grid with
/// an injected mid-sweep worker death).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/batch_engine.hpp"
#include "sched/host_pool.hpp"
#include "sched/transport.hpp"

namespace phonoc {

/// ScheduleResult::cell_host sentinels (real hosts are >= 0).
inline constexpr int kCellHostUnanswered = -1;  ///< no host answered
inline constexpr int kCellHostJournal = -2;     ///< settled by journal replay

struct SchedulerOptions {
  /// Worker endpoints, one per fleet host ("host:port" TCP daemons,
  /// "spawn:PATH" local worker processes, or "loopback" for in-process
  /// served connections). At least one.
  std::vector<std::string> hosts;
  /// Connection factory; null uses make_transport() (spawn + TCP +
  /// loopback dispatch). Failure-path tests inject fakes here.
  std::shared_ptr<Transport> transport;
  /// Cells per dispatched shard. Small units spread load and shrink
  /// the retry blast radius; larger ones amortize worker-side problem
  /// construction across neighbouring cells.
  std::size_t cells_per_shard = 4;
  /// Total dispatch attempts per unit across the fleet (1 = never
  /// retry). Cells still unanswered after the last attempt fail.
  std::size_t max_attempts = 3;
  /// Handshake deadline per host.
  double handshake_timeout_seconds = 30.0;
  /// Hard per-frame deadline while a shard is in flight: a host that
  /// stays silent this long is declared dead and its remainder is
  /// re-queued. <= 0 waits forever.
  double cell_timeout_seconds = 600.0;
  /// Idle hosts clone a unit in flight elsewhere for this long
  /// (straggler speculation; first answer wins). Negative disables.
  double speculate_after_seconds = 30.0;
  /// Allow idle hosts to steal queued units from busier ones.
  bool allow_steal = true;
  /// Settled-cell journal path (see sched/journal.hpp); empty disables.
  /// Every accepted cell answer is appended as a checksummed record, and
  /// an existing journal for the same spec is replayed before any work
  /// is dealt — a killed scheduler resumes instead of restarting.
  /// Replay errors (corruption, truncation, wrong sweep) throw from
  /// run() rather than silently reusing partial state.
  std::string journal_path;
  /// Dynamic admission: listen on this TCP port for late-joining
  /// workers (`phonoc_workerd --join`) and hand them work mid-sweep.
  /// 0 picks an ephemeral port (read back via on_admit_port); negative
  /// disables. With admission on, a fleet whose every driver has exited
  /// holds the sweep open 30 s for a joiner before failing the
  /// unsettled cells.
  int admit_port = -1;
  /// Called once with the bound admission port (useful with
  /// admit_port = 0); runs on the scheduling thread before any thread
  /// of the sweep starts.
  std::function<void(std::uint16_t)> on_admit_port;
};

/// What one host contributed to a sweep.
struct HostReport {
  std::string endpoint;
  bool connected = false;    ///< dial + handshake succeeded
  /// Lost mid-sweep for good (a spawn host that was respawned, or whose
  /// last death settled the sweep, is not).
  bool died = false;
  std::string error;  ///< diagnostic when !connected or died, else the
                      ///< last death of a respawned spawn host
  /// Worker-advertised capacity (hardware threads) from the hello
  /// reply's optional `capacity N` field; peers predating the field
  /// send a bare hello and count as 1. The scheduler handshakes the
  /// whole fleet before dealing any work, then sizes each host's
  /// initial contiguous unit block proportionally to this value
  /// (hosts that fail the handshake weigh nothing).
  std::size_t capacity = 1;
  /// Joined mid-sweep through the admission port rather than the
  /// configured fleet (endpoint reads "admitted#N").
  bool admitted_late = false;
  std::size_t shards = 0;    ///< work units served to completion
  std::size_t cells_ok = 0;  ///< accepted Ok results
  std::size_t cells_failed = 0;  ///< accepted worker-reported failures
  std::size_t duplicates = 0;    ///< late answers dropped by dedup
  /// Ledger activity (from HostPool::host_counters): units this host
  /// pulled through the non-own-queue acquire paths.
  std::size_t steals = 0;        ///< units taken from another host's queue
  std::size_t retries = 0;       ///< units picked up off the retry queue
  std::size_t speculations = 0;  ///< straggler clones this host ran
  /// Host-observed clocks: wall from dial to drain; cpu = sum of the
  /// accepted *Ok* cells' per-cell seconds (failed cells are excluded,
  /// matching SweepReport::build).
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
};

/// Outcome of one distributed sweep.
struct ScheduleResult {
  /// Grid-ordered per-cell results, exactly like BatchEngine::run.
  std::vector<CellResult> results;
  /// Which host's answer settled each cell (index into hosts;
  /// kCellHostUnanswered for a cell no host answered, kCellHostJournal
  /// for a cell replayed from the journal).
  std::vector<int> cell_host;
  /// Configured fleet first (in SchedulerOptions::hosts order), then
  /// any late-admitted hosts in admission order.
  std::vector<HostReport> hosts;
  HostPoolStats pool;          ///< retries / speculations / dedup counts
  std::size_t journaled = 0;   ///< cells settled by journal replay
  double wall_seconds = 0.0;   ///< scheduler-observed elapsed time
};

/// Receives one settled cell of a distributed sweep (see Scheduler::run).
using SettledCell = std::function<void(const CellResult& result)>;

class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions options);

  /// Execute the grid on the fleet. Throws ExecError, before any thread
  /// or process starts, when a spawn binary is not executable or the
  /// admission port cannot be bound; per-host failures are reported.
  /// `on_cell`, when set, is called once per cell as it settles, never
  /// concurrently: an accepted live answer, a journal replay, or a cell
  /// abandoned after its last attempt or left unrouted by a dead fleet.
  /// It runs on a host driver (or the calling) thread while the sweep
  /// is still in flight, so a caller can stream cells as they land.
  [[nodiscard]] ScheduleResult run(const SweepSpec& spec,
                                   const SettledCell& on_cell = {}) const;

 private:
  SchedulerOptions options_;
};

/// Render every HostReport of a fleet outcome as RFC-4180 CSV
/// (CsvWriter: header row + one row per host, configured fleet first
/// then late joiners) — the body behind
/// `parallel_sweep --host-report-csv=FILE`.
[[nodiscard]] std::string host_report_csv(const ScheduleResult& outcome);

}  // namespace phonoc
