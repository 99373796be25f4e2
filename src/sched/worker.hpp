#pragma once
/// \file worker.hpp
/// \brief Worker-side serving loop of the distributed sweep scheduler.
///
/// serve_connection() is the body shared by every worker surface: the
/// `phonoc_workerd` TCP daemon runs it on each accepted socket, a
/// spawned `phonoc_workerd --stdio` on its fd 0, and LoopbackTransport
/// on an in-process thread. It speaks the
/// framed scheduler protocol (see src/sched/README.md): handshake,
/// then shard frames in / cell-result frames out until "quit" or the
/// peer disconnects. Cells execute through run_cells() and
/// run_sweep_cell() on a fresh Evaluator each, over problems from a
/// per-connection ProblemCache — the exact path of the in-process
/// backend, which is what keeps remote results bit-identical.
///
/// Each shard's cells run on an internal exec ThreadPool of
/// `WorkerOptions::threads` (the advertised capacity), built on the
/// first shard wide enough to use it, with result frames streamed as
/// cells settle. Frames may therefore leave out of slice order; the
/// scheduler matches answers by cell index and dedups first-wins, so
/// the merged results stay bit-identical to a serial worker (each
/// cell's outcome depends only on (spec, cell), never on the thread
/// that ran it).

#include <cstddef>

#include "sched/transport.hpp"

namespace phonoc {

struct WorkerOptions {
  /// Exec threads of the internal pool a shard's cells run on, also
  /// advertised in the hello reply ("hello ... capacity N") as how many
  /// cells this worker can usefully run at once. 0 = the hardware
  /// thread count; 1 executes each slice inline on the serving thread.
  /// Schedulers parse the capacity into HostReport::capacity (it drives
  /// capacity-weighted dealing); peers predating the field send a bare
  /// hello and are taken as capacity 1.
  std::size_t threads = 0;
  /// Test/CI hook: abort() the process on reaching the cell with this
  /// grid index (the injected poison cell); < 0 disables. Only
  /// `phonoc_workerd` arms it, from PHONOC_WORKER_CRASH_INDEX, so an
  /// in-process server (and the test running it) never aborts.
  long crash_index = -1;
};

/// Serve one scheduler connection to completion; returns the number of
/// cell results emitted. A peer that dials but never says hello is
/// dropped after 30 s; between shards the loop waits for the peer as
/// long as it stays connected (schedulers say "quit"). Never throws:
/// protocol errors are answered with an "error <message>" frame (when
/// the peer is still reachable) and end the connection.
std::size_t serve_connection(Connection& conn,
                             const WorkerOptions& options = {});

}  // namespace phonoc
