#pragma once
/// \file service.hpp
/// \brief Worker-side serving loop of the distributed sweep scheduler.
///
/// serve_connection() is the body shared by every worker surface: the
/// `phonoc_workerd` TCP daemon runs it on each accepted socket, a
/// spawned `phonoc_workerd --stdio` on its fd 0, and LoopbackTransport
/// on an in-process thread. It speaks the
/// framed scheduler protocol (see src/sched/README.md): handshake,
/// then shard frames in / cell-result frames out until "quit" or the
/// peer disconnects. Cells execute through the exact
/// build_sweep_problems() + run_sweep_cell() path of the in-process
/// backend, which is what keeps remote results bit-identical.
///
/// Each shard's cells run on an internal exec ThreadPool sized by the
/// advertised capacity (`ServiceOptions::exec_threads` overrides), with
/// result frames streamed as cells settle under a mutex-serialized
/// writer. Frames may therefore leave out of slice order; the scheduler
/// matches answers by cell index and dedups first-wins, so the merged
/// results stay bit-identical to a serial worker (each cell's outcome
/// depends only on (spec, cell), never on the thread that ran it).

#include <cstddef>

#include "sched/transport.hpp"

namespace phonoc {

struct ServiceOptions {
  /// Handshake deadline; a peer that dials but never says hello is
  /// dropped after this long.
  double handshake_timeout_seconds = 30.0;
  /// How long to wait for the next shard before giving up on the peer;
  /// <= 0 waits forever (the daemon default — schedulers say "quit").
  double idle_timeout_seconds = 0.0;
  /// Test/CI hook: abort() the process on reaching the cell with this
  /// grid index (the injected poison cell); < 0 disables. Only
  /// `phonoc_workerd` arms it, from PHONOC_WORKER_CRASH_INDEX, so an
  /// in-process server (and the test running it) never aborts.
  long crash_index = -1;
  /// Worker capacity advertised in the hello reply ("hello ... capacity
  /// N"): how many cells this worker could usefully run at once. 0 =
  /// the hardware thread count. Schedulers parse it into
  /// HostReport::capacity (it drives capacity-weighted dealing); peers
  /// predating the field send a bare hello and are taken as capacity 1.
  std::size_t advertised_capacity = 0;
  /// Exec threads of the internal pool a shard's cells run on. 0 sizes
  /// the pool by the (resolved) advertised capacity; 1 executes the
  /// slice inline on the serving thread (the pre-pool serial path).
  std::size_t exec_threads = 0;
};

/// Serve one scheduler connection to completion; returns the number of
/// cell results emitted. Never throws: protocol errors are answered
/// with an "error <message>" frame (when the peer is still reachable)
/// and end the connection.
std::size_t serve_connection(Connection& conn,
                             const ServiceOptions& options = {});

}  // namespace phonoc
