#include "sched/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "exec/serialize.hpp"
#include "io/csv.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/journal.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace phonoc {
namespace {

/// A blocked recv re-checks "is the sweep already settled elsewhere?"
/// this often, so one wedged straggler cannot stall an otherwise
/// finished sweep for its whole hard timeout.
constexpr double kRecvTickSeconds = 0.25;
/// With admission on, a fleet whose every driver has exited waits this
/// long for a late joiner before failing the unsettled cells.
constexpr double kAdmitGraceSeconds = 30.0;

/// Hands each settled cell to the caller's Scheduler::run callback, one
/// at a time: host drivers settle cells concurrently.
class SettleStream {
 public:
  explicit SettleStream(const SettledCell& on_cell) : on_cell_(on_cell) {}

  void operator()(const CellResult& result) {
    if (!on_cell_) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    on_cell_(result);
  }

 private:
  const SettledCell& on_cell_;
  std::mutex mutex_;
};

/// Everything one host-driver thread needs to touch. `results` and
/// `cell_host` slots are written only after HostPool::complete_cell
/// accepted the cell (first-wins), so writers never overlap.
struct DriverContext {
  const SweepSpec& spec;
  const SchedulerOptions& options;
  const std::vector<SweepCell>& cells;
  /// Slice-independent serialized shard text (magic + spec), computed
  /// once per sweep; complete_shard() finishes it per unit.
  const std::string& shard_prefix;
  HostPool& pool;
  Transport& transport;  ///< redials spawn hosts that died
  std::vector<CellResult>& results;
  std::vector<int>& cell_host;
  /// Settled-cell journal, null when journaling is off. Appends happen
  /// only for *accepted* answers (post-dedup), so replaying the journal
  /// reproduces exactly the first-wins outcome.
  JournalWriter* journal = nullptr;
  SettleStream& settled;
};

/// Abandon everything fail_unit() says is beyond retry.
void abandon(DriverContext& ctx, std::size_t host,
             const std::string& reason) {
  for (const auto index : ctx.pool.fail_unit(host)) {
    ctx.results[index] = make_failed_cell(
        ctx.spec, ctx.cells[index],
        "abandoned after " + std::to_string(ctx.options.max_attempts) +
            " attempt(s); last host error: " + reason);
    ctx.settled(ctx.results[index]);
  }
}

/// Parse the worker's hello reply. Accepted shapes: the bare
/// `kSchedHello` (a peer predating optional fields ⇒ capacity 1) or
/// `kSchedHello key value ...` with unknown keys ignored (forward
/// compatibility). A capacity must be a positive 32-bit count, so the
/// HostPool's deal cannot overflow. Returns false on a version mismatch.
bool parse_hello_reply(const std::string& payload, std::size_t& capacity) {
  capacity = 1;
  if (payload == kSchedHello) return true;
  const std::string prefix = std::string(kSchedHello) + " ";
  if (!starts_with(payload, prefix)) return false;
  const auto fields = split_ws(payload.substr(prefix.size()));
  for (std::size_t i = 0; i + 1 < fields.size(); i += 2) {
    if (fields[i] != "capacity") continue;
    try {
      const auto value = parse_uint<std::uint32_t>(fields[i + 1]);
      if (value > 0) capacity = value;
    } catch (const ParseError&) {
      // A garbled or out-of-range field is not worth killing the host
      // over: keep 1.
    }
  }
  return true;
}

enum class UnitOutcome { Done, HostDead, SweepSettled };

/// Drain one in-flight unit: cell frames (first answer wins) until the
/// worker's "done" marker. Returns HostDead on close/corruption/hard
/// timeout, SweepSettled when every cell settled elsewhere while this
/// host was still talking. A "done" that arrives before `expected`
/// cell frames is itself a host failure — trusting it would strand the
/// missing cells outside every queue and hang the sweep.
UnitOutcome receive_unit(DriverContext& ctx, std::size_t host,
                         std::size_t expected, Connection& conn,
                         HostReport& report, std::string& death) {
  obs::TraceSpan span("sched", "receive_unit");
  span.arg({"host", std::uint64_t(host)});
  span.arg({"expected", std::uint64_t(expected)});
  std::size_t received = 0;
  Timer silence;  // restarted on every frame: a hard *silence* deadline
  for (;;) {
    Connection::RecvResult frame;
    try {
      frame = conn.recv(kRecvTickSeconds);
    } catch (const std::exception& e) {
      death = std::string("corrupt frame: ") + e.what();
      return UnitOutcome::HostDead;
    }
    switch (frame.status) {
      case Connection::RecvStatus::Timeout: {
        if (ctx.pool.all_settled()) return UnitOutcome::SweepSettled;
        const double limit = ctx.options.cell_timeout_seconds;
        if (limit > 0.0 && silence.elapsed_seconds() >= limit) {
          death = "no frame for " + format_fixed(silence.elapsed_seconds(), 1) +
                  " s (cell timeout)";
          return UnitOutcome::HostDead;
        }
        continue;
      }
      case Connection::RecvStatus::Closed:
        death = "connection closed mid-shard";
        return UnitOutcome::HostDead;
      case Connection::RecvStatus::Ok:
        break;
    }
    silence.restart();

    if (starts_with(frame.payload, kSchedDonePrefix)) {
      if (received < expected) {
        death = "worker reported done after " + std::to_string(received) +
                " of " + std::to_string(expected) + " cells";
        return UnitOutcome::HostDead;
      }
      return UnitOutcome::Done;
    }
    if (starts_with(frame.payload, kSchedErrorPrefix)) {
      death = "worker reported: " + frame.payload;
      return UnitOutcome::HostDead;
    }
    CellResult result;
    try {
      std::istringstream in(frame.payload);
      auto parsed = read_cell_result(in);
      if (!parsed) {
        death = "empty cell frame";
        return UnitOutcome::HostDead;
      }
      result = std::move(*parsed);
    } catch (const std::exception& e) {
      death = std::string("unreadable cell frame: ") + e.what();
      return UnitOutcome::HostDead;
    }
    if (result.cell.index >= ctx.results.size()) {
      death = "cell index " + std::to_string(result.cell.index) +
              " out of range";
      return UnitOutcome::HostDead;
    }
    ++received;
    if (!ctx.pool.complete_cell(result.cell.index)) {
      // A retried straggler answered after its clone (or the cell came
      // back from the journal): drop, don't double-count.
      ++report.duplicates;
      continue;
    }
    // Journal the accepted frame verbatim — no re-serialization, so a
    // replayed cell is bit-identical to the live one by construction.
    // An append failure throws out to the driver's catch: the host is
    // reported lost and its work abandoned, never silently un-journaled.
    if (ctx.journal) ctx.journal->append(frame.payload);
    if (result.status == CellStatus::Ok) {
      ++report.cells_ok;
      // Ok cells only, matching SweepReport::build's cpu_seconds rule,
      // so the merged report's cpu equals the sum of the host clocks.
      report.cpu_seconds += result.seconds;
    } else {
      ++report.cells_failed;
    }
    const std::size_t index = result.cell.index;
    ctx.cell_host[index] = static_cast<int>(host);
    ctx.results[index] = std::move(result);
    ctx.settled(ctx.results[index]);
  }
}

/// Run the version handshake on an already-open connection (a dialed
/// fleet host or an admitted joiner — the scheduler speaks first on
/// both), filling `report.connected` / `report.capacity` / the failure
/// diagnostics. Does not close the connection; the caller decides what
/// a failed peer costs.
bool handshake(const SchedulerOptions& options, Connection& conn,
               HostReport& report) {
  obs::TraceSpan span("sched", "handshake");
  span.arg({"endpoint", std::string_view(report.endpoint)});
  if (!conn.send(kSchedHello)) {
    report.error = "connection closed before the handshake";
    return false;
  }
  Connection::RecvResult hello;
  try {
    hello = conn.recv(options.handshake_timeout_seconds);
  } catch (const std::exception& e) {
    hello = {Connection::RecvStatus::Closed, {}};
    report.error = e.what();
  }
  if (hello.status != Connection::RecvStatus::Ok ||
      !parse_hello_reply(hello.payload, report.capacity)) {
    report.error =
        hello.status == Connection::RecvStatus::Ok
            ? "handshake mismatch: got '" + hello.payload + "'"
            : "no handshake within " +
                  format_fixed(options.handshake_timeout_seconds, 1) +
                  " s" + (report.error.empty() ? "" : ": " + report.error);
    return false;
  }
  report.connected = true;
  return true;
}

/// Phase 1 of a sweep: dial one host and run the version handshake,
/// filling `report.connected` / `report.capacity`. Returns the live
/// connection, or null with the failure recorded in the report. Runs
/// before the HostPool exists — a host that fails here simply gets
/// capacity 0 in the deal, so there is nothing to retire.
std::unique_ptr<Connection> connect_and_handshake(
    const SchedulerOptions& options, Transport& transport,
    HostReport& report) {
  std::unique_ptr<Connection> conn;
  try {
    conn = transport.connect(report.endpoint);
  } catch (const std::exception& e) {
    report.error = e.what();
    log_warning("sched") << "sched: host '" << report.endpoint
                         << "' unreachable: " << report.error;
    return nullptr;
  }
  if (!handshake(options, *conn, report)) {
    report.died = true;
    conn->close();
    if (const auto exit = conn->exit_status(); !exit.empty())
      report.error += " (worker " + exit + ")";
    log_warning("sched") << "sched: host '" << report.endpoint
                         << "' lost: " << report.error;
    return nullptr;
  }
  return conn;
}

/// Phase 2: pull units off the pool and stream them down an
/// already-handshaken connection until the sweep settles or the host
/// is lost. A spawn host that dies is respawned while cells remain; any
/// other host, or a failed respawn, retires.
void drive_host(DriverContext ctx, std::size_t host,
                std::unique_ptr<Connection>& conn, HostReport& report) {
  const auto recover = [&](std::string reason) {  // true: respawned
    conn->close();  // reaps a spawned worker, so its exit status is known
    if (const auto exit = conn->exit_status(); !exit.empty())
      reason += " (worker " + exit + ")";
    report.error = reason;
    obs::trace_instant("sched", "host_lost", {"host", std::uint64_t(host)});
    static obs::Counter& lost = obs::MetricsRegistry::global().counter(
        "phonoc_sched_hosts_lost_total",
        "Hosts that died mid-sweep (their work was recovered or abandoned).");
    lost.inc();
    abandon(ctx, host, reason);
    log_warning("sched") << "sched: host '" << report.endpoint
                         << "' lost: " << reason;
    if (is_spawn_endpoint(report.endpoint)) {
      if (ctx.pool.all_settled()) return false;  // nothing left to serve
      conn = connect_and_handshake(ctx.options, ctx.transport, report);
      if (conn) return true;
    }
    report.died = true;
    ctx.pool.retire_host(host);
    return false;
  };

  while (auto unit = ctx.pool.acquire(host)) {
    obs::TraceSpan unit_span("sched", "unit");
    unit_span.arg({"host", std::uint64_t(host)});
    unit_span.arg({"begin", std::uint64_t(unit->begin)});
    unit_span.arg({"end", std::uint64_t(unit->end)});
    if (!conn->send(
            complete_shard(ctx.shard_prefix, unit->begin, unit->end))) {
      if (recover("connection closed while sending a shard")) continue;
      break;
    }
    std::string death;
    const auto outcome = receive_unit(ctx, host, unit->end - unit->begin,
                                      *conn, report, death);
    if (outcome == UnitOutcome::HostDead) {
      if (recover(death)) continue;
      break;
    }
    if (outcome == UnitOutcome::SweepSettled) break;
    ctx.pool.finish_unit(host);
    ++report.shards;
  }
  if (!report.died) {
    (void)conn->send(kSchedQuit);  // let a daemon go back to accepting
    conn->close();
  }
}

}  // namespace

Scheduler::Scheduler(SchedulerOptions options) : options_(std::move(options)) {
  require(!options_.hosts.empty(),
          "Scheduler: at least one host endpoint is required");
}

ScheduleResult Scheduler::run(const SweepSpec& spec,
                             const SettledCell& on_cell) const {
  Timer wall;
  ScheduleResult outcome;
  SettleStream settled(on_cell);

  const auto cells = expand(spec);
  obs::TraceSpan sweep_span("sched", "sweep");
  sweep_span.arg({"cells", std::uint64_t(cells.size())});
  sweep_span.arg({"hosts", std::uint64_t(options_.hosts.size())});
  static obs::Counter& sweeps = obs::MetricsRegistry::global().counter(
      "phonoc_exec_sweeps_total", "Batch sweeps run, by backend.",
      {{"backend", "remote"}});
  sweeps.inc();
  outcome.results.resize(cells.size());
  outcome.cell_host.assign(cells.size(), kCellHostUnanswered);

  // One slot per host, configured fleet first, late-admitted joiners
  // appended; a std::deque keeps every reference stable while the
  // admission thread grows it mid-sweep.
  struct HostSlot {
    HostReport report;
    std::unique_ptr<Connection> conn;
    Timer clock;
    std::thread driver;
    bool driver_started = false;
    bool joined = false;
  };
  std::deque<HostSlot> slots;
  std::mutex slots_mutex;
  const std::size_t host_count = options_.hosts.size();
  for (std::size_t h = 0; h < host_count; ++h) {
    slots.emplace_back();
    slots[h].report.endpoint = options_.hosts[h];
  }
  if (cells.empty()) {
    for (const auto& slot : slots) outcome.hosts.push_back(slot.report);
    return outcome;
  }
  // A mistyped worker binary fails the sweep here, before any process
  // is spawned, instead of failing every cell.
  for (const auto& host : options_.hosts) check_spawn_endpoint(host);

  // The admission listener binds before any thread starts, so a port
  // that is taken throws out of run() with nothing left to join.
  std::unique_ptr<TcpListener> listener;
  if (options_.admit_port >= 0) {
    if (options_.admit_port > 65535)
      throw ExecError("sched: admit_port " +
                      std::to_string(options_.admit_port) +
                      " is not a TCP port (0-65535)");
    listener = std::make_unique<TcpListener>(
        static_cast<std::uint16_t>(options_.admit_port));
    if (options_.on_admit_port) options_.on_admit_port(listener->port());
  }

  auto transport = options_.transport ? options_.transport : make_transport();
  // The spec (with its embedded workloads) dwarfs the two slice lines;
  // serialize it once instead of once per dispatched unit.
  const std::string prefix = shard_prefix(spec);

  // Settled-cell journal: replay an existing log *before* any work is
  // dealt (replay errors throw — never silent partial reuse), then open
  // the writer the drivers append accepted answers to.
  std::unique_ptr<JournalWriter> journal;
  JournalReplay replayed;
  if (!options_.journal_path.empty()) {
    obs::TraceSpan replay_span("sched", "journal_replay");
    const std::uint64_t spec_hash = fnv1a64(prefix);
    replayed = replay_journal(options_.journal_path, spec_hash, cells.size());
    replay_span.arg({"cells", std::uint64_t(replayed.cells.size())});
    journal = std::make_unique<JournalWriter>(options_.journal_path,
                                              spec_hash);
  }

  // Phase 1: dial and handshake the whole fleet in parallel, so every
  // host's advertised capacity is known before any work is dealt.
  {
    std::vector<std::thread> dialers;
    dialers.reserve(host_count);
    for (std::size_t h = 0; h < host_count; ++h)
      dialers.emplace_back([&, h] {
        HostSlot& slot = slots[h];
        slot.clock.restart();
        try {
          slot.conn =
              connect_and_handshake(options_, *transport, slot.report);
        } catch (const std::exception& e) {
          slot.report.died = true;
          slot.report.error = std::string("handshake failed: ") + e.what();
        }
        if (!slot.conn)
          slot.report.wall_seconds = slot.clock.elapsed_seconds();
      });
    for (auto& dialer : dialers) dialer.join();
  }

  // Phase 2: deal contiguous unit blocks weighted by capacity (a host
  // that never handshook weighs nothing) and drive the survivors.
  std::vector<std::size_t> capacities(host_count, 0);
  for (std::size_t h = 0; h < host_count; ++h)
    if (slots[h].report.connected)
      capacities[h] = std::max<std::size_t>(slots[h].report.capacity, 1);
  HostPool pool(capacities, cells.size(), options_.cells_per_shard,
                options_.max_attempts, options_.speculate_after_seconds,
                options_.allow_steal);

  // Journaled cells settle now, before any dispatch: drivers skip them
  // (first_unsettled), and a live re-answer from a mid-unit overlap is
  // deduplicated exactly like a straggler's.
  for (auto& cell : replayed.cells) {
    const std::size_t index = cell.cell.index;
    (void)pool.complete_cell(index);
    outcome.cell_host[index] = kCellHostJournal;
    outcome.results[index] = std::move(cell);
    settled(outcome.results[index]);
  }
  outcome.journaled = replayed.cells.size();

  const auto run_driver = [&](std::size_t h, HostSlot& slot) {
    DriverContext ctx{spec,
                      options_,
                      cells,
                      prefix,
                      pool,
                      *transport,
                      outcome.results,
                      outcome.cell_host,
                      journal.get(),
                      settled};
    try {
      drive_host(ctx, h, slot.conn, slot.report);
    } catch (const std::exception& e) {
      // A driver must never take the process down or wedge the pool:
      // give its work back and record the host as lost.
      slot.report.died = true;
      slot.report.error = std::string("driver failed: ") + e.what();
      abandon(ctx, h, slot.report.error);
      pool.retire_host(h);
    }
    // Dial-to-drain on this host's clock (includes the fleet
    // handshake barrier the host actually waited out).
    slot.report.wall_seconds = slot.clock.elapsed_seconds();
  };

  for (std::size_t h = 0; h < host_count; ++h) {
    HostSlot& slot = slots[h];
    if (!slot.conn) continue;
    slot.driver = std::thread([&run_driver, h, &slot] { run_driver(h, slot); });
    slot.driver_started = true;
  }

  // Dynamic admission: accept late `phonoc_workerd --join` daemons and
  // hand each a fresh pool slot — the joiner reaches work through the
  // retry queue, stealing and speculation, like any idle host.
  std::atomic<bool> admitting{false};
  std::thread admitter;
  if (listener) {
    admitting.store(true);
    admitter = std::thread([&] {
      while (admitting.load()) {
        try {
          auto conn = listener->accept_for(0.1);
          if (!conn) continue;  // timeout tick: re-check the stop flag
          if (pool.all_settled()) {
            conn->close();
            continue;
          }
          HostReport probe;
          probe.endpoint = "admitted";
          if (!handshake(options_, *conn, probe)) {
            log_warning("sched") << "sched: rejected a late joiner: "
                                 << probe.error;
            conn->close();
            continue;
          }
          const std::lock_guard<std::mutex> lock(slots_mutex);
          // The pool and slot indices stay aligned: both grow by one
          // under this mutex.
          const std::size_t h = pool.add_host();
          slots.emplace_back();
          HostSlot& slot = slots.back();
          slot.report = probe;
          slot.report.endpoint =
              "admitted#" + std::to_string(h - host_count);
          slot.report.admitted_late = true;
          slot.clock.restart();
          slot.conn = std::move(conn);
          obs::trace_instant("sched", "admit_host",
                             {"host", std::uint64_t(h)},
                             {"capacity",
                              std::uint64_t(slot.report.capacity)});
          static obs::Counter& admitted =
              obs::MetricsRegistry::global().counter(
                  "phonoc_sched_hosts_admitted_total",
                  "Late workers admitted mid-sweep.");
          admitted.inc();
          slot.driver =
              std::thread([&run_driver, h, &slot] { run_driver(h, slot); });
          slot.driver_started = true;
        } catch (const std::exception& e) {
          log_warning("sched") << "sched: admission loop failed: "
                               << e.what();
          break;
        }
      }
    });
  }

  // Join every driver, including ones admitted while joining. Without
  // admission this is the plain "wait for the fleet" barrier; with it,
  // an all-drivers-exited fleet holds the sweep open kAdmitGraceSeconds
  // for a joiner before giving up on the unsettled cells.
  const auto join_pass = [&]() {
    std::size_t joined = 0;
    for (;;) {
      std::thread* driver = nullptr;
      {
        const std::lock_guard<std::mutex> lock(slots_mutex);
        for (auto& slot : slots)
          if (slot.driver_started && !slot.joined) {
            slot.joined = true;
            driver = &slot.driver;
            break;
          }
      }
      if (!driver) return joined;
      driver->join();
      ++joined;
    }
  };
  if (admitter.joinable()) {
    Timer idle;
    for (;;) {
      if (join_pass() > 0) idle.restart();
      if (pool.all_settled()) break;
      if (idle.elapsed_seconds() >= kAdmitGraceSeconds) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    admitting.store(false);
    admitter.join();
    // A joiner admitted in the shutdown race window still gets joined
    // (and its cells counted) — the admitter is dead, so this is final.
    (void)join_pass();
  } else {
    (void)join_pass();
  }

  // Cells no surviving host could take (e.g. the whole fleet died with
  // work still queued) must fail loudly, not vanish.
  for (const auto index : pool.unsettled_cells()) {
    outcome.results[index] = make_failed_cell(
        spec, cells[index], "no live host was available to run this cell");
    settled(outcome.results[index]);
  }

  for (std::size_t h = 0; h < slots.size(); ++h) {
    HostReport report = slots[h].report;
    const auto counters = pool.host_counters(h);
    report.steals = counters.stolen_units;
    report.retries = counters.retried_units;
    report.speculations = counters.speculated_units;
    outcome.hosts.push_back(std::move(report));
  }
  outcome.pool = pool.stats();
  outcome.wall_seconds = wall.elapsed_seconds();
  return outcome;
}

std::string host_report_csv(const ScheduleResult& outcome) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"endpoint", "connected", "died", "admitted_late", "capacity",
              "shards", "cells_ok", "cells_failed", "duplicates", "steals",
              "retries", "speculations", "cpu_seconds", "wall_seconds",
              "error"});
  const auto flag = [](bool value) { return std::string(value ? "1" : "0"); };
  for (const auto& host : outcome.hosts)
    csv.row({host.endpoint, flag(host.connected), flag(host.died),
             flag(host.admitted_late), std::to_string(host.capacity),
             std::to_string(host.shards), std::to_string(host.cells_ok),
             std::to_string(host.cells_failed),
             std::to_string(host.duplicates), std::to_string(host.steals),
             std::to_string(host.retries), std::to_string(host.speculations),
             format_double(host.cpu_seconds),
             format_double(host.wall_seconds), host.error});
  return out.str();
}

}  // namespace phonoc
