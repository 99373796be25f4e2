/// \file service_load.cpp
/// \brief svc_interactive / svc_mixed: closed-loop traffic to a real
/// phonocd over TCP, driven through the library's client surface
/// (TcpTransport, write_request, parse_reply).

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "exec/batch_engine.hpp"
#include "sched/transport.hpp"
#include "service/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace phonoc;

namespace {

constexpr double kReplyTimeoutSeconds = 30.0;
constexpr std::uint64_t kInteractiveEvals = 200;
constexpr std::uint64_t kBulkEvals = 1000;
constexpr std::size_t kBulkPool = 8;

/// One request as the client saw it. Phase times are client-side.
struct TimedRequest {
  std::string id;
  std::size_t pool_index = 0;
  bool bulk = false;
  bool ok = false;
  double latency_ms = 0.0;     ///< send -> done
  double accept_ms = 0.0;      ///< send -> accepted
  double first_cell_ms = 0.0;  ///< accepted -> first cell
  double done_ms = 0.0;        ///< last cell -> done
  double encode_us = 0.0;      ///< write_request
  double decode_us = 0.0;      ///< parse_reply, mean per reply
  std::vector<CellResult> cells;
  std::string error;
};

/// One framed service connection with per-phase request timing.
class ServiceClient {
 public:
  ServiceClient(const std::string& endpoint, const std::string& name) {
    TcpTransport transport(5.0);
    conn_ = transport.connect(endpoint);
    if (!conn_->send(std::string(kServiceHello) + " client " + name))
      throw std::runtime_error("service handshake send failed");
    const auto hello = conn_->recv(kReplyTimeoutSeconds);
    if (hello.status != Connection::RecvStatus::Ok ||
        parse_reply(hello.payload).kind != ServiceReply::Kind::Hello)
      throw std::runtime_error("no service handshake");
  }

  TimedRequest run(const ServiceRequest& request) {
    TimedRequest out;
    out.id = request.id;
    if (broken_) {
      out.error = "connection already broken";
      return out;
    }
    const double start = now_seconds();
    const std::string payload = write_request(request);
    out.encode_us = (now_seconds() - start) * 1e6;
    if (!conn_->send(payload)) return fail(out, "send failed");
    double accepted = -1.0;
    double first_cell = -1.0;
    double last_cell = -1.0;
    double decode_seconds = 0.0;
    std::size_t replies = 0;
    std::vector<bool> seen;
    for (;;) {
      Connection::RecvResult received;
      try {
        received = conn_->recv(kReplyTimeoutSeconds);
      } catch (const std::exception& e) {
        return fail(out, e.what());
      }
      const double arrived = now_seconds();
      if (received.status != Connection::RecvStatus::Ok)
        return fail(out, received.status == Connection::RecvStatus::Timeout
                             ? "reply timed out"
                             : "daemon closed the connection");
      ServiceReply reply;
      try {
        reply = parse_reply(received.payload);
      } catch (const std::exception& e) {
        return fail(out, e.what());
      }
      decode_seconds += now_seconds() - arrived;
      ++replies;
      if (reply.id != request.id) return fail(out, "reply for another id");
      switch (reply.kind) {
        case ServiceReply::Kind::Accepted:
          accepted = arrived;
          out.cells.resize(reply.cells);
          seen.assign(reply.cells, false);
          break;
        case ServiceReply::Kind::Cell: {
          const auto index = reply.result.cell.index;
          if (index >= out.cells.size()) return fail(out, "cell out of range");
          if (first_cell < 0.0) first_cell = arrived;
          last_cell = arrived;
          out.cells[index] = std::move(reply.result);
          seen[index] = true;
          break;
        }
        case ServiceReply::Kind::Done:
          out.latency_ms = (arrived - start) * 1e3;
          out.accept_ms = accepted < 0.0 ? 0.0 : (accepted - start) * 1e3;
          if (first_cell >= 0.0) {
            out.first_cell_ms = (first_cell - accepted) * 1e3;
            out.done_ms = (arrived - last_cell) * 1e3;
          }
          out.decode_us = decode_seconds * 1e6 / static_cast<double>(replies);
          out.ok = reply.failed == 0 && !seen.empty() &&
                   std::all_of(seen.begin(), seen.end(),
                               [](bool s) { return s; });
          if (!out.ok) out.error = "done with failed or missing cells";
          return out;
        case ServiceReply::Kind::Rejected:
          out.error = "rejected (" +
                      std::string(reject_kind_token(reply.reject)) + ") " +
                      reply.reason;
          return out;
        default:
          return fail(out, "unexpected reply");
      }
    }
  }

  /// The daemon's `stats` snapshot as name -> value; empty on failure.
  std::map<std::string, double> stats() {
    std::map<std::string, double> values;
    if (broken_ || !conn_->send(kServiceStats)) return values;
    try {
      const auto received = conn_->recv(kReplyTimeoutSeconds);
      if (received.status != Connection::RecvStatus::Ok) return values;
      const auto reply = parse_reply(received.payload);
      std::istringstream body(reply.body);
      std::string name;
      double value = 0.0;
      while (body >> name >> value) values[name] = value;
    } catch (const std::exception&) {
      broken_ = true;
    }
    return values;
  }

  void quit() {
    if (!broken_) (void)conn_->send(kServiceQuit);
    conn_->close();
  }

  [[nodiscard]] bool broken() const noexcept { return broken_; }

 private:
  TimedRequest& fail(TimedRequest& out, const std::string& error) {
    broken_ = true;
    out.error = error;
    return out;
  }

  std::unique_ptr<Connection> conn_;
  bool broken_ = false;
};

/// What one phase sends.
struct ServiceSetup {
  std::vector<ServiceRequest> pool;  ///< distinct interactive requests
  std::vector<ServiceRequest> bulk;  ///< distinct bulk requests (may be empty)
  std::size_t connections = 2;       ///< interactive connections
  /// Stop after this many interactive requests (0 = run to the deadline).
  std::size_t max_interactive = 0;
};

struct ServicePhase {
  std::vector<double> setup_s;
  std::vector<TimedRequest> warmup;
  std::vector<TimedRequest> interactive;
  std::vector<TimedRequest> bulk;
  double phase_s = 0.0;       ///< interactive stream duration
  double bulk_phase_s = 0.0;  ///< bulk stream duration
  std::map<std::string, double> before;
  std::map<std::string, double> after;
  double rss_mb = 0.0;
  bool clean_exit = true;  ///< phonocd exited on its own after the phase
  std::string trace_path;
};

/// A seeded permutation of [0, n).
std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[mix_seed(seed, i) % i]);
  return order;
}

/// Start phonocd (`setups` times; all but the last are torn down right
/// after their warm-up, so setup time is a median), then run the closed
/// loops for `seconds`, snapshot `stats` around the measured phase, read
/// the daemon's peak RSS and shut it down.
ServicePhase run_service_phase(const RunConfig& config,
                               const ServiceSetup& setup, double seconds,
                               int setups, bool traced,
                               const std::string& tag) {
  ServicePhase phase;
  const std::size_t conns = setup.connections + (setup.bulk.empty() ? 0 : 1);
  for (int s = 0; s < setups; ++s) {
    const bool last = s + 1 == setups;
    std::vector<std::string> args = {
        "--port=0", "--workers=2", "--request-concurrency=2",
        "--max-conns=" + std::to_string(conns + 1)};
    if (traced && last) {
      phase.trace_path = work_file(config, tag + "-phonocd-trace.json");
      args.push_back("--trace=" + phase.trace_path);
    }
    const double t0 = now_seconds();
    auto daemon = std::make_unique<Daemon>(
        PERFBENCH_PHONOCD, args, work_file(config, tag + "-phonocd.log"));
    (void)daemon->wait_port(10.0);
    const auto endpoint = daemon->endpoint();
    ServiceClient control(endpoint, "control");
    std::vector<std::unique_ptr<ServiceClient>> clients;
    for (std::size_t c = 0; c < setup.connections; ++c)
      clients.push_back(std::make_unique<ServiceClient>(
          endpoint, "interactive" + std::to_string(c)));
    std::optional<ServiceClient> bulk_client;
    if (!setup.bulk.empty()) bulk_client.emplace(endpoint, "bulk");

    // Warm-up: every pool request once, split across the interactive
    // connections (fills the problem cache and the memo bank).
    std::vector<std::vector<TimedRequest>> warm(setup.connections);
    {
      std::vector<std::jthread> threads;
      for (std::size_t c = 0; c < setup.connections; ++c)
        threads.emplace_back([&, c] {
          for (std::size_t i = c; i < setup.pool.size();
               i += setup.connections) {
            ServiceRequest request = setup.pool[i];
            request.id = "w" + std::to_string(c) + "-" + std::to_string(i);
            warm[c].push_back(clients[c]->run(request));
            warm[c].back().pool_index = i;
          }
        });
    }
    phase.setup_s.push_back(now_seconds() - t0);
    if (!last) continue;  // tears down clients, then kills the daemon
    for (auto& per_conn : warm)
      for (auto& request : per_conn) phase.warmup.push_back(std::move(request));

    phase.before = control.stats();
    const double start = now_seconds();
    const double deadline = start + seconds;
    const std::size_t per_conn_cap =
        setup.max_interactive == 0
            ? SIZE_MAX
            : (setup.max_interactive + setup.connections - 1) /
                  setup.connections;
    std::vector<std::vector<TimedRequest>> done(setup.connections);
    std::vector<double> ended(setup.connections, start);
    {
      std::vector<std::jthread> threads;
      for (std::size_t c = 0; c < setup.connections; ++c)
        threads.emplace_back([&, c] {
          const auto order =
              seeded_order(setup.pool.size(), mix_seed(config.seed, 100 + c));
          for (std::size_t k = 0; k < per_conn_cap && now_seconds() < deadline;
               ++k) {
            const std::size_t index = order[k % order.size()];
            ServiceRequest request = setup.pool[index];
            request.id = "i" + std::to_string(c) + "-" + std::to_string(k);
            done[c].push_back(clients[c]->run(request));
            done[c].back().pool_index = index;
            if (clients[c]->broken()) break;
          }
          ended[c] = now_seconds();
        });
      if (bulk_client)
        threads.emplace_back([&] {
          for (std::size_t k = 0; now_seconds() < deadline; ++k) {
            const std::size_t index = k % setup.bulk.size();
            ServiceRequest request = setup.bulk[index];
            request.id = "b-" + std::to_string(k);
            phase.bulk.push_back(bulk_client->run(request));
            phase.bulk.back().pool_index = index;
            phase.bulk.back().bulk = true;
            if (bulk_client->broken()) break;
          }
          phase.bulk_phase_s = now_seconds() - start;
        });
    }
    phase.phase_s = max_of(ended) - start;
    for (auto& per_conn : done)
      for (auto& request : per_conn)
        phase.interactive.push_back(std::move(request));
    phase.after = control.stats();
    phase.rss_mb = daemon->peak_rss_mb();
    for (auto& client : clients) client->quit();
    if (bulk_client) bulk_client->quit();
    control.quit();
    phase.clean_exit = daemon->wait_exit(15.0);
  }
  return phase;
}

/// Count and check every request of a phase against in-process
/// BatchEngine references (computed here, outside the timed phase, only
/// for the distinct requests the phase actually sent).
void verify_service_phase(const ServicePhase& phase, const ServiceSetup& setup,
                          const RunConfig& config, Report& report) {
  BatchOptions options;
  options.workers = 4;
  const BatchEngine engine(options);
  std::vector<std::optional<std::vector<CellResult>>> pool_ref(
      setup.pool.size());
  std::vector<std::optional<std::vector<CellResult>>> bulk_ref(
      setup.bulk.size());
  const auto check = [&](const TimedRequest& request) {
    auto& slot = (request.bulk ? bulk_ref : pool_ref)[request.pool_index];
    if (!slot) {
      slot = engine.run(
          (request.bulk ? setup.bulk : setup.pool)[request.pool_index].spec);
      if (config.inject_wrong_reference)
        for (auto& cell : *slot) corrupt(cell);
    }
    bool correct = true;
    if (request.ok) {
      correct = request.cells.size() == slot->size();
      for (std::size_t i = 0; correct && i < slot->size(); ++i)
        correct = identical_cells(request.cells[i], (*slot)[i]);
    } else {
      report.notes.push_back("request " + request.id + ": " + request.error);
    }
    report.count(request.ok, correct);
  };
  if (!phase.clean_exit) {
    report.notes.push_back("phonocd hung after its last client; killed");
    report.count(false);
  }
  for (const auto& request : phase.warmup) check(request);
  for (const auto& request : phase.interactive) check(request);
  for (const auto& request : phase.bulk) check(request);
}

double stat_delta(const ServicePhase& phase, const std::string& name) {
  const auto before = phase.before.find(name);
  const auto after = phase.after.find(name);
  if (before == phase.before.end() || after == phase.after.end()) return 0.0;
  return after->second - before->second;
}

std::vector<double> interactive_field(const ServicePhase& phase,
                                      double TimedRequest::*field) {
  std::vector<double> values;
  for (const auto& request : phase.interactive)
    if (request.ok) values.push_back(request.*field);
  return values;
}

/// The service.* per-layer metrics of a traced phase (the client-side
/// phase split, the stats diffs, and the trace input for the span-derived
/// metrics computed by run.py).
void report_service_layers(const ServicePhase& phase, Report& report) {
  const auto set_median = [&](const std::string& name, const char* unit,
                              double TimedRequest::*field) {
    const auto values = interactive_field(phase, field);
    report.set(name, median(values), unit, values.size());
  };
  set_median("service.encode_us", "us", &TimedRequest::encode_us);
  set_median("service.decode_us", "us", &TimedRequest::decode_us);
  set_median("service.accept_ms", "ms", &TimedRequest::accept_ms);
  set_median("service.first_cell_ms", "ms", &TimedRequest::first_cell_ms);
  set_median("service.done_ms", "ms", &TimedRequest::done_ms);

  const double problem_hits = stat_delta(phase, "problem_cache_hits");
  const double problem_all =
      problem_hits + stat_delta(phase, "problem_cache_misses");
  report.set("service.problem_hit_frac",
             problem_all > 0 ? problem_hits / problem_all : 0.0, "ratio",
             static_cast<std::size_t>(problem_all));
  const double memo_hits = stat_delta(phase, "evaluator_cache_hits");
  const double memo_all = memo_hits + stat_delta(phase, "evaluator_cache_misses");
  report.set("service.memo_hit_frac", memo_all > 0 ? memo_hits / memo_all : 0.0,
             "ratio", static_cast<std::size_t>(memo_all));
  const double requests = stat_delta(phase, "requests_accepted");
  report.set("service.overtakes", stat_delta(phase, "interactive_overtakes"),
             "count", static_cast<std::size_t>(requests));
  double shed = 0.0;
  for (const char* kind : {"shed_overloaded", "shed_budget", "shed_deadline",
                           "shed_shutdown", "shed_per_client"})
    shed += stat_delta(phase, kind);
  report.set("service.shed", shed, "count",
             static_cast<std::size_t>(requests + shed));

  ServiceTraceInput input;
  input.trace_path = phase.trace_path;
  for (const auto& request : phase.interactive)
    if (request.ok)
      input.request_latency_ms.emplace_back(request.id, request.latency_ms);
  report.service_traces.push_back(std::move(input));
}

std::uint64_t draw_seed(std::uint64_t seed, std::uint64_t salt) {
  return 1 + mix_seed(seed, salt) % 1000000;
}

/// 8 apps x mesh x SNR x {rs, sa} x 200 evaluations x 2 seeds: the
/// interactive request pool, one request per cell.
SweepSpec interactive_grid(std::uint64_t seed) {
  SweepSpec spec;
  spec.add_all_benchmarks()
      .add_topology(TopologyKind::Mesh)
      .add_goal(OptimizationGoal::Snr)
      .add_optimizers({"rs", "sa"})
      .add_budget(kInteractiveEvals)
      .add_seed(draw_seed(seed, 1))
      .add_seed(draw_seed(seed, 2));
  return spec;
}

/// One 16-cell bulk request: 8 apps x {mesh, torus} x SNR x GA.
SweepSpec bulk_grid(std::uint64_t seed, std::size_t k) {
  SweepSpec spec;
  spec.add_all_benchmarks()
      .add_topology(TopologyKind::Mesh)
      .add_topology(TopologyKind::Torus)
      .add_goal(OptimizationGoal::Snr)
      .add_optimizer("ga")
      .add_budget(kBulkEvals)
      .add_seed(draw_seed(seed, 10 + k));
  return spec;
}

}  // namespace

ServiceRequest single_cell_request(const SweepSpec& spec,
                                   const SweepCell& cell,
                                   const std::string& id) {
  ServiceRequest request;
  request.id = id;
  request.spec = spec;
  request.spec.workloads = {spec.workloads[cell.workload]};
  request.spec.topologies = {spec.topologies[cell.topology]};
  request.spec.goals = {spec.goals[cell.goal]};
  request.spec.optimizers = {spec.optimizers[cell.optimizer]};
  request.spec.budgets = {spec.budgets[cell.budget]};
  request.spec.seeds = {spec.seeds[cell.seed]};
  return request;
}

void service_probe(const RunConfig& config,
                   const std::vector<ServiceRequest>& requests,
                   Report& report) {
  ServiceSetup setup;
  setup.pool = requests;
  setup.connections = 1;
  setup.max_interactive = requests.size();
  const auto phase =
      run_service_phase(config, setup, 60.0, 1, true, "service-probe");
  verify_service_phase(phase, setup, config, report);
  report_service_layers(phase, report);
}

void run_service_workload(const RunConfig& config, bool mixed,
                          Report& report) {
  const SweepSpec grid = interactive_grid(config.seed);
  ServiceSetup setup;
  for (const auto& cell : expand(grid))
    setup.pool.push_back(single_cell_request(grid, cell, "pool"));
  if (mixed)
    for (std::size_t k = 0; k < kBulkPool; ++k) {
      ServiceRequest request;
      request.spec = bulk_grid(config.seed, k);
      setup.bulk.push_back(std::move(request));
    }

  const auto latencies = [](const ServicePhase& phase) {
    return interactive_field(phase, &TimedRequest::latency_ms);
  };
  if (!config.trace) {
    const auto phase =
        run_service_phase(config, setup, config.seconds, 3, false, "svc");
    verify_service_phase(phase, setup, config, report);
    const auto lat = latencies(phase);
    const auto evaluations = [](const TimedRequest& request) {
      double sum = 0.0;
      for (const auto& cell : request.cells)
        sum += static_cast<double>(cell.run.search.evaluations);
      return sum;
    };
    report.set("setup_s", median(phase.setup_s), "s", phase.setup_s.size());
    report.set("req_p50_ms", quantile(lat, 0.50), "ms", lat.size());
    report.set("req_p99_ms", quantile(lat, 0.99), "ms", lat.size());
    report.set("req_per_s", static_cast<double>(lat.size()) / phase.phase_s,
               "1/s", lat.size());
    if (mixed) {
      // The throughput stream is the bulk connection: per-request rates,
      // reported at kRateQuantile like every CPU-bound throughput.
      std::vector<double> cell_rates, eval_rates;
      for (const auto& request : phase.bulk)
        if (request.ok) {
          const double seconds = request.latency_ms / 1e3;
          cell_rates.push_back(static_cast<double>(request.cells.size()) /
                               seconds);
          eval_rates.push_back(evaluations(request) / seconds);
        }
      report.set("cells_per_s", quantile(cell_rates, kRateQuantile), "1/s",
                 cell_rates.size());
      report.set("evals_per_s", quantile(eval_rates, kRateQuantile), "1/s",
                 eval_rates.size());
    } else {
      double evals = 0.0;
      for (const auto& request : phase.interactive)
        if (request.ok) evals += evaluations(request);
      report.set("cells_per_s", static_cast<double>(lat.size()) / phase.phase_s,
                 "1/s", lat.size());
      report.set("evals_per_s", evals / phase.phase_s, "1/s", lat.size());
    }
    report.set("peak_rss_mb", phase.rss_mb, "MB", 1);
    return;
  }

  // Traced run: an untraced half and a traced half of the same phase
  // (their ratio is the tracing overhead), then the probes.
  const auto plain =
      run_service_phase(config, setup, config.seconds / 2, 1, false, "svc");
  const auto traced = run_service_phase(config, setup, config.seconds / 2, 1,
                                        true, "svc-traced");
  verify_service_phase(plain, setup, config, report);
  verify_service_phase(traced, setup, config, report);
  report_service_layers(traced, report);
  std::vector<double> cell_ms;
  for (const auto* stream : {&traced.interactive, &traced.bulk})
    for (const auto& request : *stream)
      for (const auto& cell : request.cells)
        if (request.ok) cell_ms.push_back(cell.seconds * 1e3);
  report.set("exec.cell_ms_p50", median(cell_ms), "ms", cell_ms.size());
  report.set("exec.cell_ms_max", max_of(cell_ms), "ms", cell_ms.size());
  const double base = median(latencies(plain));
  report.set("obs.trace_overhead_frac",
             base > 0 ? median(latencies(traced)) / base - 1.0 : 0.0, "ratio",
             latencies(traced).size());

  sched_probe(config, grid, report);

  std::vector<ProbeCell> cells;
  const auto add_cells = [&](const SweepSpec& spec, std::size_t limit) {
    const auto problems = build_sweep_problems(spec, expand(spec));
    for (const auto& cell : expand(spec)) {
      if (cells.size() >= limit) break;
      if (cell.seed != 0) continue;
      cells.push_back(ProbeCell{
          problems.at({cell.workload, cell.topology, cell.goal}),
          spec.optimizers[cell.optimizer],
          spec.topologies[cell.topology].kind,
          resolved_side(spec, cell.workload, cell.topology),
          spec.budgets[cell.budget].max_evaluations, spec.seeds[cell.seed]});
    }
  };
  add_cells(grid, 16);
  if (mixed) add_cells(bulk_grid(config.seed, 0), 20);
  layer_probe(cells, report);
}

}  // namespace perfbench
