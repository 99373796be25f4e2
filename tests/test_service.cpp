// Tests of the phonocd mapping service (src/service/): protocol
// round-trips and structured rejections, FrameDecoder behavior on
// adversarial byte streams (truncated prefixes, corrupt checksums,
// hostile declared lengths, interleaved partial feeds), RequestBroker
// admission control made deterministic through the pause()/resume()
// hook, FairScheduler lane + deficit-round-robin mechanics, broker
// scheduling (per-client fairness, lane routing, per-client caps,
// per-job in-flight accounting, bit-identity under a concurrent
// request pool), fleet requests streamed from a loopback fleet, one
// bad cell failing alone on every backend, the problem cache (warm
// Evaluators reused across requests: search affinity, one pool per
// lane, eviction with their slot; one network shared by the problems
// of an architecture and freed with the last of them), latency
// quantiles that never exceed the slowest request, and serve_client()
// end to end over real socketpairs: concurrent Optimize + Sample clients
// bit-identical to an in-process BatchEngine run, and a vanished client
// canceling its job instead of hanging the connection handler.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.hpp"
#include "exec/batch_engine.hpp"
#include "exec/problem_cache.hpp"
#include "exec/serialize.hpp"
#include "exec/sweep.hpp"
#include "mapping/mapping.hpp"
#include "obs/metrics.hpp"
#include "sched/scheduler.hpp"
#include "sched/transport.hpp"
#include "service/broker.hpp"
#include "service/protocol.hpp"
#include "service/scheduler.hpp"
#include "service/server.hpp"
#include "util/error.hpp"
#include "workloads/generator.hpp"

namespace phonoc {
namespace {

constexpr auto kWaitLimit = std::chrono::seconds(60);

/// 1 workload x 1 topology x 1 goal x 2 optimizers x 1 budget x 2
/// seeds = 4 Optimize cells, evaluation-count budget (the determinism
/// contract).
SweepSpec opt_spec() {
  SweepSpec spec;
  spec.add_workload("p5", pipeline_cg(5))
      .add_topology(TopologyKind::Mesh)
      .add_goal(OptimizationGoal::Snr)
      .add_optimizers({"rs", "rpbla"})
      .add_budget(30)
      .add_seed_range(1, 2);
  return spec;
}

/// 2 Sample cells over the same problem as opt_spec (seeds differ).
SweepSpec sample_spec() {
  SweepSpec spec;
  spec.add_workload("p5", pipeline_cg(5))
      .add_topology(TopologyKind::Mesh)
      .add_goal(OptimizationGoal::Snr)
      .add_seed_range(3, 2)
      .use_sampling({.samples_per_cell = 50});
  return spec;
}

/// Bit-exact comparison of the determinism-contract fields (timing
/// fields excluded, exactly like the sched and exec suites).
void expect_identical_cell(const CellResult& got, const CellResult& want,
                           SweepTaskKind kind) {
  ASSERT_EQ(got.status, CellStatus::Ok) << got.error;
  ASSERT_EQ(want.status, CellStatus::Ok) << want.error;
  EXPECT_EQ(got.cell.index, want.cell.index);
  EXPECT_EQ(got.seed, want.seed);
  if (kind == SweepTaskKind::Sample) {
    EXPECT_TRUE(identical_distributions(got.distribution, want.distribution));
    return;
  }
  EXPECT_EQ(got.run.algorithm, want.run.algorithm);
  EXPECT_TRUE(got.run.search.best == want.run.search.best);
  EXPECT_EQ(got.run.search.best_fitness, want.run.search.best_fitness);
  EXPECT_EQ(got.run.search.evaluations, want.run.search.evaluations);
  EXPECT_EQ(got.run.search.iterations, want.run.search.iterations);
  EXPECT_EQ(got.run.best_evaluation.worst_loss_db,
            want.run.best_evaluation.worst_loss_db);
  EXPECT_EQ(got.run.best_evaluation.worst_snr_db,
            want.run.best_evaluation.worst_snr_db);
}

// --- protocol round-trips ---------------------------------------------------

TEST(ServiceProtocol, RequestRoundTripsThroughWriteAndParse) {
  ServiceRequest request;
  request.id = "job-42";
  request.deadline_seconds = 2.5;
  request.max_cells = 16;
  request.spec = opt_spec();
  const auto parsed = parse_request(write_request(request));
  EXPECT_EQ(parsed.id, "job-42");
  EXPECT_EQ(parsed.deadline_seconds, 2.5);
  EXPECT_EQ(parsed.max_cells, 16u);
  EXPECT_EQ(cell_count(parsed.spec), cell_count(request.spec));
  EXPECT_EQ(parsed.spec.task_kind, SweepTaskKind::Optimize);
}

TEST(ServiceProtocol, EvaluateRoundTripsWithItsAssignment) {
  EvaluateRequest request;
  request.id = "probe";
  request.assignment = {4, 2, 0, 8, 6};
  request.spec = opt_spec();
  const auto parsed = parse_evaluate(write_evaluate(request));
  EXPECT_EQ(parsed.id, "probe");
  EXPECT_EQ(parsed.assignment, (std::vector<TileId>{4, 2, 0, 8, 6}));
  EXPECT_EQ(cell_count(parsed.spec), cell_count(request.spec));
}

TEST(ServiceProtocol, EvaluateTilesBeyond32BitsAreRejectedNotNarrowed) {
  // Narrowed to a 32-bit TileId, tile 2^32 would read as tile 0: the
  // service would score a mapping the client never sent.
  EvaluateRequest request;
  request.id = "wide";
  request.assignment = {4, 2, 0, 8, 6};
  request.spec = opt_spec();
  const std::string wire = write_evaluate(request);
  const std::string head = "evaluate wide tiles 4 ";
  ASSERT_EQ(wire.rfind(head, 0), 0u);
  const auto with_first_tile = [&](const std::string& tile) {
    return parse_evaluate("evaluate wide tiles " + tile + " " +
                          wire.substr(head.size()));
  };
  EXPECT_THROW((void)with_first_tile("4294967296"), ParseError);
  EXPECT_THROW((void)with_first_tile("-4"), ParseError);
  EXPECT_EQ(with_first_tile("4294967295").assignment[0], 4294967295u);
}

TEST(ServiceProtocol, RepliesRoundTripThroughParseReply) {
  const auto accepted = parse_reply(accepted_reply("a1", 8));
  EXPECT_EQ(accepted.kind, ServiceReply::Kind::Accepted);
  EXPECT_EQ(accepted.id, "a1");
  EXPECT_EQ(accepted.cells, 8u);

  const auto spec = opt_spec();
  const auto failed =
      make_failed_cell(spec, expand(spec)[1], "deliberate test failure");
  const auto cell = parse_reply(cell_reply("a1", failed));
  EXPECT_EQ(cell.kind, ServiceReply::Kind::Cell);
  EXPECT_EQ(cell.result.cell.index, 1u);
  EXPECT_EQ(cell.result.status, CellStatus::Failed);
  EXPECT_EQ(cell.result.error, "deliberate test failure");

  const auto done = parse_reply(done_reply("a1", 3, 1));
  EXPECT_EQ(done.kind, ServiceReply::Kind::Done);
  EXPECT_EQ(done.ok, 3u);
  EXPECT_EQ(done.failed, 1u);

  const auto rejected = parse_reply(
      rejected_reply("a1", RejectKind::Overloaded, "queue is full today"));
  EXPECT_EQ(rejected.kind, ServiceReply::Kind::Rejected);
  EXPECT_EQ(rejected.reject, RejectKind::Overloaded);
  EXPECT_EQ(rejected.reason, "queue is full today");

  const auto evaluation =
      parse_reply(evaluation_reply("a1", -3.25, 18.5, 2.125));
  EXPECT_EQ(evaluation.kind, ServiceReply::Kind::Evaluation);
  EXPECT_EQ(evaluation.fitness, -3.25);
  EXPECT_EQ(evaluation.snr_db, 18.5);
  EXPECT_EQ(evaluation.loss_db, 2.125);

  const auto stats = parse_reply(stats_reply("queue_depth 0\ncells_ok 7"));
  EXPECT_EQ(stats.kind, ServiceReply::Kind::Stats);
  EXPECT_EQ(stats.body, "queue_depth 0\ncells_ok 7");

  const auto error = parse_reply(error_reply("unknown request"));
  EXPECT_EQ(error.kind, ServiceReply::Kind::Error);
  EXPECT_EQ(error.body, "unknown request");
}

TEST(ServiceProtocol, RejectKindTokensRoundTrip) {
  for (const auto kind :
       {RejectKind::Overloaded, RejectKind::Budget, RejectKind::Deadline,
        RejectKind::Malformed, RejectKind::Shutdown,
        RejectKind::PerClientLimit, RejectKind::Internal})
    EXPECT_EQ(parse_reject_kind(reject_kind_token(kind)), kind);
  EXPECT_THROW((void)parse_reject_kind("nonsense"), ParseError);
}

TEST(ServiceProtocol, PriorityFieldIsOptionalOnTheWire) {
  ServiceRequest request;
  request.id = "lane";
  request.spec = opt_spec();

  // The default (Auto) priority writes the pre-lane byte format: no
  // `priority` token anywhere, so old servers parse it unchanged.
  const auto wire = write_request(request);
  EXPECT_EQ(wire.find("priority"), std::string::npos);
  EXPECT_EQ(parse_request(wire).priority, RequestPriority::Auto);

  // Explicit lanes round-trip through the optional header field.
  for (const auto priority :
       {RequestPriority::Interactive, RequestPriority::Bulk}) {
    request.priority = priority;
    const auto explicit_wire = write_request(request);
    EXPECT_NE(explicit_wire.find(
                  " priority " + std::string(priority_token(priority))),
              std::string::npos);
    EXPECT_EQ(parse_request(explicit_wire).priority, priority);
  }
  EXPECT_THROW((void)parse_priority("urgent"), ParseError);
  EXPECT_THROW(
      (void)parse_request("request j deadline 0 max_cells 0 priority "
                          "urgent\nx"),
      ParseError);
}

TEST(ServiceProtocol, BadRequestIdsAreRejected) {
  EXPECT_THROW(validate_request_id(""), ParseError);
  EXPECT_THROW(validate_request_id("has space"), ParseError);
  EXPECT_THROW(validate_request_id("has\ttab"), ParseError);
  EXPECT_THROW(validate_request_id(std::string(65, 'x')), ParseError);
  EXPECT_NO_THROW(validate_request_id(std::string(64, 'x')));

  ServiceRequest request;
  request.id = "bad id";
  request.spec = opt_spec();
  EXPECT_THROW((void)write_request(request), ParseError);
}

TEST(ServiceProtocol, MalformedPayloadsThrowStructuredErrors) {
  EXPECT_THROW((void)parse_request("request only-an-id"), ParseError);
  EXPECT_THROW((void)parse_request(
                   "request j deadline 0 max_cells 0\nnot a spec"),
               ParseError);
  // A header without any spec body at all.
  EXPECT_THROW((void)parse_request("request j deadline 0 max_cells 0"),
               ParseError);
  EXPECT_THROW((void)parse_evaluate("evaluate j tiles not-a-number\nx"),
               ParseError);
  EXPECT_THROW((void)parse_reply("gibberish frame"), ParseError);
  EXPECT_THROW((void)parse_reply(""), ParseError);
}

TEST(ServiceProtocol, RequestSidesBeyondTheTileLimitAreRejected) {
  // The spec body parses through read_spec: a side whose grid exceeds
  // NetworkModel's 32768 tiles is a parse error before anything is
  // built, never a wrapped index or an unbounded network build.
  ServiceRequest request;
  request.id = "side";
  request.spec = opt_spec();
  request.spec.add_topology(TopologyKind::Torus, 3);
  const auto with_side = [&](const std::string& side) {
    std::string wire = write_request(request);
    const std::string line = "topology torus 3\n";
    const auto at = wire.find(line);
    EXPECT_NE(at, std::string::npos);
    return wire.replace(at, line.size(), "topology torus " + side + "\n");
  };
  EXPECT_THROW((void)parse_request(with_side("4294967300")), ParseError);
  EXPECT_THROW((void)parse_request(with_side("182")), ParseError);
  EXPECT_EQ(parse_request(with_side("181")).spec.topologies[1].side, 181u);
}

// --- FrameDecoder on adversarial input --------------------------------------

TEST(ServiceFraming, TruncatedLengthPrefixStaysPendingThenFailsLoudly) {
  FrameDecoder decoder;
  // A length prefix cut mid-number is indistinguishable from a slow
  // sender: the decoder must wait, not guess.
  decoder.feed("frame 10");
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.has_partial());
  // But a "header" that keeps growing without a newline can only be
  // garbage; the decoder gives a diagnostic instead of buffering it
  // forever.
  decoder.feed(std::string(80, '7'));
  EXPECT_THROW((void)decoder.next(), ParseError);
}

TEST(ServiceFraming, ChecksumCorruptFrameThrows) {
  std::string frame = encode_frame("service payload under test");
  frame[frame.find("payload")] = 'q';  // flip one payload byte
  FrameDecoder decoder;
  decoder.feed(frame);
  EXPECT_THROW((void)decoder.next(), ParseError);
}

TEST(ServiceFraming, OversizedDeclaredLengthIsRejectedBeforeBuffering) {
  // A hostile header declaring a >1 GiB payload must fail immediately —
  // long before any attempt to buffer or allocate that much.
  FrameDecoder decoder;
  decoder.feed("frame 1073741825 0123456789abcdef\n");
  EXPECT_THROW((void)decoder.next(), ParseError);

  FrameDecoder absurd;
  absurd.feed("frame 99999999999999999999 0123456789abcdef\n");
  EXPECT_THROW((void)absurd.next(), ParseError);
}

TEST(ServiceFraming, InterleavedPartialFeedsYieldFramesInOrder) {
  const std::string payloads[] = {"first reply", "",
                                  "third\nwith embedded newline"};
  std::string stream;
  for (const auto& payload : payloads) stream += encode_frame(payload);

  // Deliberately evil split points: inside the length digits, between
  // header and payload, inside the payload, and across frame borders.
  FrameDecoder decoder;
  std::vector<std::string> decoded;
  const std::size_t cuts[] = {3, 8, 14, 20, 27, 41, 55};
  std::size_t begin = 0;
  for (const auto cut : cuts) {
    if (cut <= begin || cut > stream.size()) continue;
    decoder.feed(std::string_view(stream).substr(begin, cut - begin));
    begin = cut;
    while (auto frame = decoder.next()) decoded.push_back(*frame);
  }
  decoder.feed(std::string_view(stream).substr(begin));
  while (auto frame = decoder.next()) decoded.push_back(*frame);

  ASSERT_EQ(decoded.size(), std::size(payloads));
  for (std::size_t i = 0; i < decoded.size(); ++i)
    EXPECT_EQ(decoded[i], payloads[i]);
  EXPECT_FALSE(decoder.has_partial());
}

// --- broker admission control -----------------------------------------------

/// Collects one request's event stream and signals its terminal event.
struct Collected {
  std::mutex mutex;
  std::vector<CellResult> cells;
  std::size_t accepted_cells = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  bool done = false;
  bool rejected = false;
  RejectKind kind = RejectKind::Internal;
  std::string reason;
  std::promise<void> terminal;

  JobEvents events() {
    JobEvents events;
    events.on_accepted = [this](std::size_t cells) {
      const std::lock_guard<std::mutex> lock(mutex);
      accepted_cells = cells;
    };
    events.on_cell = [this](const CellResult& result) {
      const std::lock_guard<std::mutex> lock(mutex);
      cells.push_back(result);
      return true;
    };
    events.on_done = [this](std::size_t ok_count, std::size_t failed_count) {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        ok = ok_count;
        failed = failed_count;
        done = true;
      }
      terminal.set_value();
    };
    events.on_reject = [this](RejectKind reject_kind,
                              const std::string& why) {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        rejected = true;
        kind = reject_kind;
        reason = why;
      }
      terminal.set_value();
    };
    return events;
  }

  void wait() {
    ASSERT_EQ(terminal.get_future().wait_for(kWaitLimit),
              std::future_status::ready)
        << "request never reached a terminal event";
  }
};

ServiceRequest make_request(std::string id, SweepSpec spec) {
  ServiceRequest request;
  request.id = std::move(id);
  request.spec = std::move(spec);
  return request;
}

TEST(RequestBroker, FullQueueShedsOverloadedImmediately) {
  BrokerOptions options;
  options.workers = 1;
  options.max_queue_depth = 1;
  options.start_paused = true;  // the first job stays queued
  RequestBroker broker(options);

  Collected first;
  const auto a = broker.submit(make_request("a", opt_spec()), first.events());
  ASSERT_TRUE(a.accepted);
  EXPECT_EQ(first.accepted_cells, 4u);  // fired synchronously in submit

  Collected second;
  const auto b = broker.submit(make_request("b", opt_spec()),
                               second.events());
  EXPECT_FALSE(b.accepted);
  EXPECT_EQ(b.kind, RejectKind::Overloaded);
  EXPECT_NE(b.reason.find("queue is full"), std::string::npos);

  EXPECT_EQ(broker.stat("requests_accepted"), 1);
  EXPECT_EQ(broker.stat("shed_overloaded"), 1);
  EXPECT_EQ(broker.stat("queue_depth"), 1);

  broker.resume();
  first.wait();
  EXPECT_TRUE(first.done);
  EXPECT_EQ(first.ok, 4u);
}

TEST(RequestBroker, OutstandingCellCapShedsBeforeQueueDepthDoes) {
  BrokerOptions options;
  options.workers = 1;
  options.max_queue_depth = 8;
  options.max_outstanding_cells = 6;  // one 4-cell grid fits, two don't
  options.start_paused = true;
  RequestBroker broker(options);

  Collected first;
  ASSERT_TRUE(
      broker.submit(make_request("a", opt_spec()), first.events()).accepted);
  Collected second;
  const auto b = broker.submit(make_request("b", opt_spec()),
                               second.events());
  EXPECT_FALSE(b.accepted);
  EXPECT_EQ(b.kind, RejectKind::Overloaded);
  EXPECT_NE(b.reason.find("exceed the cap"), std::string::npos);

  broker.resume();
  first.wait();
}

TEST(RequestBroker, CellBudgetsRejectOversizedGridsAsBudget) {
  BrokerOptions options;
  options.workers = 1;
  RequestBroker broker(options);

  // The client's own cap.
  auto request = make_request("tight", opt_spec());
  request.max_cells = 2;  // the grid has 4
  const auto client_capped = broker.submit(std::move(request), {});
  EXPECT_FALSE(client_capped.accepted);
  EXPECT_EQ(client_capped.kind, RejectKind::Budget);

  // The server-side cap, independent of what the client asked for.
  BrokerOptions capped_options;
  capped_options.workers = 1;
  capped_options.max_cells_per_request = 2;
  RequestBroker capped(capped_options);
  const auto server_capped =
      capped.submit(make_request("big", opt_spec()), {});
  EXPECT_FALSE(server_capped.accepted);
  EXPECT_EQ(server_capped.kind, RejectKind::Budget);
  EXPECT_EQ(capped.stat("shed_budget"), 1);
}

TEST(RequestBroker, EmptyGridIsMalformedNotAccepted) {
  BrokerOptions options;
  options.workers = 1;
  RequestBroker broker(options);
  SweepSpec empty;  // no dimensions at all: cell_count == 0
  const auto outcome = broker.submit(make_request("empty", empty), {});
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(outcome.kind, RejectKind::Malformed);
  EXPECT_EQ(broker.stat("requests_malformed"), 1);
}

TEST(RequestBroker, ExpiredDeadlineShedsTheQueuedJob) {
  BrokerOptions options;
  options.workers = 1;
  options.start_paused = true;
  RequestBroker broker(options);

  auto request = make_request("stale", opt_spec());
  request.deadline_seconds = 0.02;
  Collected collected;
  ASSERT_TRUE(broker.submit(std::move(request), collected.events()).accepted);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  broker.resume();
  collected.wait();
  EXPECT_TRUE(collected.rejected);
  EXPECT_EQ(collected.kind, RejectKind::Deadline);
  EXPECT_EQ(broker.stat("shed_deadline"), 1);
  EXPECT_TRUE(collected.cells.empty());  // shed means never run
}

TEST(RequestBroker, RequestLevelFailureRejectsInternalAndCountsFailed) {
  BrokerOptions options;
  options.workers = 1;
  RequestBroker broker(options);

  // A 2x2 mesh cannot host the 5-task pipeline: admission passes, then
  // problem construction throws on the broker worker.
  SweepSpec spec;
  spec.add_workload("p5", pipeline_cg(5))
      .add_topology(TopologyKind::Mesh, 2)
      .add_goal(OptimizationGoal::Snr)
      .add_optimizer("rs")
      .add_budget(30)
      .add_seed(1);
  Collected collected;
  ASSERT_TRUE(
      broker.submit(make_request("unfit", spec), collected.events()).accepted);
  collected.wait();
  EXPECT_TRUE(collected.rejected);
  EXPECT_EQ(collected.kind, RejectKind::Internal);
  EXPECT_EQ(broker.stat("requests_failed"), 1);
  EXPECT_EQ(broker.stat("requests_completed"), 0);
}

TEST(RequestBroker, StreamsBitIdenticalCellsAndReusesTheMemoBank) {
  const auto spec = opt_spec();
  const auto reference = BatchEngine(BatchOptions{}).run(spec);

  BrokerOptions options;
  options.workers = 2;
  RequestBroker broker(options);

  for (int round = 0; round < 2; ++round) {
    Collected collected;
    ASSERT_TRUE(
        broker.submit(make_request("r" + std::to_string(round), spec),
                      collected.events())
            .accepted);
    collected.wait();
    ASSERT_TRUE(collected.done);
    EXPECT_EQ(collected.ok, reference.size());
    EXPECT_EQ(collected.failed, 0u);
    // Cells stream in completion order; restore grid order to compare.
    ASSERT_EQ(collected.cells.size(), reference.size());
    std::vector<CellResult> ordered(reference.size());
    for (auto& cell : collected.cells)
      ordered[cell.cell.index] = std::move(cell);
    for (std::size_t i = 0; i < reference.size(); ++i)
      expect_identical_cell(ordered[i], reference[i], spec.task_kind);
  }

  // The identical repeat request hit the cross-request reuse state:
  // same problems (cache hits), and its evaluations were answered from
  // the memos of the problem's warm Evaluators.
  EXPECT_EQ(broker.stat("requests_completed"), 2);
  EXPECT_GT(broker.stat("problem_cache_hits"), 0);
  EXPECT_GT(broker.stat("evaluator_cache_hits"), 0);
  EXPECT_GT(broker.stat("cells_ok"), 0);
  EXPECT_GT(broker.stat("wall_max_seconds"), 0.0);
}

TEST(RequestBroker, RemoteBackendStreamsBitIdenticalCells) {
  // A broker with a fleet streams each cell as the fleet settles it,
  // through the same callback as the in-process path.
  BrokerOptions options;
  options.fleet = {"loopback", "loopback"};
  RequestBroker broker(options);

  std::size_t cells = 0;
  for (const auto& spec : {opt_spec(), sample_spec()}) {
    const auto reference = BatchEngine(BatchOptions{}).run(spec);
    Collected collected;
    ASSERT_TRUE(
        broker.submit(make_request("remote", spec), collected.events())
            .accepted);
    collected.wait();
    ASSERT_TRUE(collected.done);
    EXPECT_EQ(collected.ok, reference.size());
    EXPECT_EQ(collected.failed, 0u);
    ASSERT_EQ(collected.cells.size(), reference.size());
    std::vector<CellResult> ordered(reference.size());
    for (auto& cell : collected.cells)
      ordered[cell.cell.index] = std::move(cell);
    for (std::size_t i = 0; i < reference.size(); ++i)
      expect_identical_cell(ordered[i], reference[i], spec.task_kind);
    cells += reference.size();
  }
  EXPECT_EQ(broker.stat("requests_completed"), 2);
  EXPECT_EQ(broker.stat("cells_ok"), static_cast<double>(cells));
  EXPECT_EQ(broker.stat("cells_failed"), 0);
}

TEST(CellExecutors, OneBadCellFailsAloneOnEveryBackend) {
  // Cell 1 names an optimizer the registry does not know. Every
  // executor must fail that cell alone, with the registry's message,
  // and run cell 0 to the same bits.
  SweepSpec spec;
  spec.add_benchmark("pip")
      .add_topology(TopologyKind::Mesh)
      .add_goal(OptimizationGoal::Snr)
      .add_optimizers({"rs", "quantum"})
      .add_budget(200)
      .add_seed(1);
  ASSERT_EQ(cell_count(spec), 2u);

  std::vector<std::pair<std::string, std::vector<CellResult>>> runs;
  for (const std::size_t workers : {1, 4})
    runs.emplace_back("BatchEngine workers=" + std::to_string(workers),
                      BatchEngine({.workers = workers}).run(spec));
  const std::vector<std::string> fleet = {"loopback", "loopback"};
  SchedulerOptions scheduler;
  scheduler.hosts = fleet;
  runs.emplace_back("Scheduler", Scheduler(scheduler).run(spec).results);
  for (const auto& [name, broker_fleet] :
       {std::pair{std::string("broker in process"),
                  std::vector<std::string>{}},
        std::pair{std::string("broker fleet"), fleet}}) {
    BrokerOptions options;
    options.workers = 2;
    options.fleet = broker_fleet;
    RequestBroker broker(options);
    Collected collected;
    ASSERT_TRUE(broker.submit(make_request("bad", spec), collected.events())
                    .accepted);
    collected.wait();
    ASSERT_TRUE(collected.done) << name << ": " << collected.reason;
    EXPECT_EQ(collected.ok, 1u) << name;
    EXPECT_EQ(collected.failed, 1u) << name;
    ASSERT_EQ(collected.cells.size(), 2u) << name;
    std::vector<CellResult> ordered(2);
    for (auto& cell : collected.cells)
      ordered[cell.cell.index] = std::move(cell);
    runs.emplace_back(name, std::move(ordered));
  }

  const auto& want = runs.front().second[0];
  for (const auto& [name, results] : runs) {
    ASSERT_EQ(results.size(), 2u) << name;
    EXPECT_EQ(results[1].status, CellStatus::Failed) << name;
    EXPECT_EQ(results[1].cell.index, 1u) << name;
    EXPECT_NE(results[1].error.find("unknown optimizer 'quantum'"),
              std::string::npos)
        << name << ": " << results[1].error;
    SCOPED_TRACE(name);
    expect_identical_cell(results[0], want, spec.task_kind);
  }
}

TEST(RequestBroker, EvaluateScoresAMappingThroughTheSharedCache) {
  const auto spec = opt_spec();
  BrokerOptions options;
  options.workers = 1;
  RequestBroker broker(options);

  EvaluateRequest request;
  request.id = "probe";
  request.spec = spec;
  request.assignment = {0, 1, 2, 3, 4};
  const auto answer = broker.evaluate(request);

  // Reference: the same mapping scored directly on a freshly built
  // problem. Bitwise equal — the service cache only shifts cost.
  const SweepCell cell{};
  const auto problem =
      make_problem(spec, cell, make_cell_network(spec, 0, 0));
  Evaluator evaluator(problem, options.evaluator);
  const auto mapping =
      Mapping::from_assignment({0, 1, 2, 3, 4}, problem.tile_count());
  EXPECT_EQ(answer.fitness, evaluator.evaluate(mapping));
  const auto raw = evaluator.evaluate_raw(mapping);
  EXPECT_EQ(answer.snr_db, raw.worst_snr_db);
  EXPECT_EQ(answer.loss_db, raw.worst_loss_db);

  // The repeat evaluation is answered from the warm Evaluator's memo.
  const auto repeat = broker.evaluate(request);
  EXPECT_EQ(repeat.fitness, answer.fitness);
  EXPECT_EQ(broker.stat("single_evaluations"), 2);
  EXPECT_GT(broker.stat("evaluator_cache_hits"), 0);

  EvaluateRequest wrong = request;
  wrong.assignment = {0, 1};  // workload has 5 tasks
  EXPECT_THROW((void)broker.evaluate(wrong), Error);
}

// --- warm Evaluators ---------------------------------------------------------

TEST(ProblemCache, CheckoutPrefersAnEvaluatorThatRanTheSameSearch) {
  const auto lane = ServiceLane::Interactive;
  obs::MetricsRegistry registry;
  ProblemCache cache({}, EvaluatorOptions{}, registry);
  const auto spec = opt_spec();
  const SweepCell cell{};
  const auto key = ProblemCache::key_of(spec, cell);
  const auto problem = cache.problem(spec, cell, key);

  auto a = cache.checkout(key, lane, *problem, 1);
  auto b = cache.checkout(key, lane, *problem, 2);
  const Evaluator* first = a.evaluator.get();
  const Evaluator* second = b.evaluator.get();
  ASSERT_NE(first, second);  // both busy: the second one is fresh
  cache.checkin(key, lane, std::move(a), 1);
  a = cache.checkout(key, lane, *problem, 3);  // no match: the most recent
  EXPECT_EQ(a.evaluator.get(), first);
  cache.checkin(key, lane, std::move(a), 3);
  cache.checkin(key, lane, std::move(b), 2);
  // `first` ran searches 1 and 3: it is preferred for both, though
  // `second` came back later.
  auto again = cache.checkout(key, lane, *problem, 1);
  EXPECT_EQ(again.evaluator.get(), first);
  EXPECT_EQ(again.searches, (std::vector<std::uint64_t>{1, 3}));
  auto other = cache.checkout(key, lane, *problem, 1);
  EXPECT_EQ(other.evaluator.get(), second);
  auto fresh = cache.checkout(key, lane, *problem, 1);  // the slot is empty
  EXPECT_TRUE(fresh.searches.empty());
  EXPECT_EQ(&fresh.evaluator->problem(), problem.get());
}

TEST(ProblemCache, IdleEvaluatorsGoWithTheirEvictedSlot) {
  const auto lane = ServiceLane::Interactive;
  obs::MetricsRegistry registry;
  ProblemCache cache({.max_problems = 1}, EvaluatorOptions{}, registry);
  const auto spec_a = opt_spec();
  auto spec_b = opt_spec();
  spec_b.workloads[0] = {"p6", pipeline_cg(6)};
  const SweepCell cell{};
  const auto key_a = ProblemCache::key_of(spec_a, cell);
  const auto key_b = ProblemCache::key_of(spec_b, cell);
  const auto problem_a = cache.problem(spec_a, cell, key_a);

  auto warm = cache.checkout(key_a, lane, *problem_a, 1);
  (void)warm.evaluator->evaluate(
      Mapping::from_assignment({0, 1, 2, 3, 4}, problem_a->tile_count()));
  cache.checkin(key_a, lane, std::move(warm), 1);
  // B evicts A's slot, and A's idle Evaluator with it.
  (void)cache.problem(spec_b, cell, key_b);
  const auto rebuilt = cache.problem(spec_a, cell, key_a);
  ASSERT_NE(rebuilt.get(), problem_a.get());
  auto next = cache.checkout(key_a, lane, *rebuilt, 1);
  EXPECT_EQ(&next.evaluator->problem(), rebuilt.get());
  EXPECT_TRUE(next.evaluator->export_memo().entries.empty());

  // A caller still holding the evicted problem gets a fresh Evaluator
  // of it, which the rebuilt slot refuses at check-in.
  auto stale = cache.checkout(key_a, lane, *problem_a, 1);
  EXPECT_EQ(&stale.evaluator->problem(), problem_a.get());
  cache.checkin(key_a, lane, std::move(next), 1);
  cache.checkin(key_a, lane, std::move(stale), 1);
  std::vector<ProblemCache::Lease> held;  // only `next` was kept
  for (int i = 0; i < 2; ++i) {
    held.push_back(cache.checkout(key_a, lane, *rebuilt, 1));
    EXPECT_EQ(&held.back().evaluator->problem(), rebuilt.get());
  }
}

TEST(ProblemCache, EachLaneKeepsItsOwnIdleEvaluators) {
  obs::MetricsRegistry registry;
  ProblemCache cache({}, EvaluatorOptions{}, registry);
  const auto spec = opt_spec();
  const SweepCell cell{};
  const auto key = ProblemCache::key_of(spec, cell);
  const auto problem = cache.problem(spec, cell, key);

  auto lease = cache.checkout(key, ServiceLane::Interactive, *problem, 1);
  const Evaluator* interactive = lease.evaluator.get();
  cache.checkin(key, ServiceLane::Interactive, std::move(lease), 1);
  // The bulk lane never borrows the interactive lane's idle Evaluator,
  // not even for the search it ran.
  auto bulk = cache.checkout(key, ServiceLane::Bulk, *problem, 1);
  EXPECT_NE(bulk.evaluator.get(), interactive);
  EXPECT_TRUE(bulk.searches.empty());
  cache.checkin(key, ServiceLane::Bulk, std::move(bulk), 2);
  auto again = cache.checkout(key, ServiceLane::Interactive, *problem, 2);
  EXPECT_EQ(again.evaluator.get(), interactive);
}

TEST(ProblemCache, GoalsShareOneNetworkThatDiesWithItsLastProblem) {
  obs::MetricsRegistry registry;
  ProblemCache cache({.max_problems = 2}, EvaluatorOptions{}, registry);
  auto spec = opt_spec();
  spec.add_goal(OptimizationGoal::InsertionLoss);
  const SweepCell snr_cell{};
  const SweepCell loss_cell{.goal = 1};
  auto snr = cache.problem(spec, snr_cell,
                           ProblemCache::key_of(spec, snr_cell));
  auto loss = cache.problem(spec, loss_cell,
                            ProblemCache::key_of(spec, loss_cell));
  ASSERT_NE(snr.get(), loss.get());
  EXPECT_EQ(snr->network_ptr(), loss->network_ptr());
  const std::weak_ptr<const NetworkModel> network = snr->network_ptr();
  snr.reset();
  loss.reset();
  EXPECT_FALSE(network.expired());  // both slots still hold it

  // Two problems on another side (4x4) evict both slots, and with them
  // the last holders of the 3x3 network.
  SweepSpec other = spec;
  other.workloads[0] = {"p10", pipeline_cg(10)};
  ASSERT_NE(resolved_side(other, 0, 0), resolved_side(spec, 0, 0));
  const auto first = cache.problem(other, snr_cell,
                                   ProblemCache::key_of(other, snr_cell));
  EXPECT_FALSE(network.expired());
  const auto second = cache.problem(other, loss_cell,
                                    ProblemCache::key_of(other, loss_cell));
  EXPECT_TRUE(network.expired());
  EXPECT_EQ(first->network_ptr(), second->network_ptr());
  EXPECT_EQ(registry.counter("phonocd_problem_cache_evictions", "").value(),
            2u);
}

TEST(RequestBroker, BulkSearchesLeaveTheInteractiveMemoWarm) {
  // A 64-entry memo: the bulk search's 400 random mappings would flush
  // it. The interactive repeat must still answer every evaluation from
  // its warm Evaluator, and every request streams BatchEngine's bits.
  SweepSpec small;
  small.add_workload("p5", pipeline_cg(5))
      .add_topology(TopologyKind::Mesh)
      .add_goal(OptimizationGoal::Snr)
      .add_optimizer("rs")
      .add_budget(30)
      .add_seed(1);
  auto large = small;
  large.budgets[0].max_evaluations = 400;
  const auto reference_small = BatchEngine(BatchOptions{}).run(small);
  const auto reference_large = BatchEngine(BatchOptions{}).run(large);

  BrokerOptions options;
  options.workers = 1;
  options.evaluator.cache_capacity = 64;
  RequestBroker broker(options);
  const auto run = [&](const std::string& id, const SweepSpec& spec,
                       RequestPriority priority,
                       const std::vector<CellResult>& reference) {
    auto request = make_request(id, spec);
    request.priority = priority;
    Collected collected;
    ASSERT_TRUE(broker.submit(std::move(request), collected.events())
                    .accepted);
    collected.wait();
    ASSERT_TRUE(collected.done);
    ASSERT_EQ(collected.cells.size(), 1u);
    expect_identical_cell(collected.cells[0], reference[0], spec.task_kind);
  };
  run("warm", small, RequestPriority::Interactive, reference_small);
  run("bulk", large, RequestPriority::Bulk, reference_large);
  EXPECT_EQ(broker.stat("requests_bulk"), 1);
  const double hits = broker.stat("evaluator_cache_hits");
  const double misses = broker.stat("evaluator_cache_misses");
  run("repeat", small, RequestPriority::Interactive, reference_small);
  EXPECT_GT(broker.stat("evaluator_cache_hits"), hits);
  EXPECT_EQ(broker.stat("evaluator_cache_misses"), misses);
}

TEST(RequestBroker, AlternatingProblemsInOneSlotStayBitIdentical) {
  // max_problems = 1: every switch evicts the other problem with its
  // warm Evaluators. Each request still streams BatchEngine's bits, and
  // a repeat on a kept slot answers from its warm memo.
  const auto spec_a = opt_spec();
  auto spec_b = opt_spec();
  spec_b.workloads[0] = {"p6", pipeline_cg(6)};
  const auto reference_a = BatchEngine(BatchOptions{}).run(spec_a);
  const auto reference_b = BatchEngine(BatchOptions{}).run(spec_b);

  BrokerOptions options;
  options.workers = 2;
  options.cache.max_problems = 1;
  RequestBroker broker(options);
  int requests = 0;
  const auto run = [&](const SweepSpec& spec,
                       const std::vector<CellResult>& reference) {
    Collected collected;
    ASSERT_TRUE(broker
                    .submit(make_request("r" + std::to_string(requests++),
                                         spec),
                            collected.events())
                    .accepted);
    collected.wait();
    ASSERT_TRUE(collected.done);
    ASSERT_EQ(collected.cells.size(), reference.size());
    std::vector<CellResult> ordered(reference.size());
    for (auto& cell : collected.cells)
      ordered[cell.cell.index] = std::move(cell);
    for (std::size_t i = 0; i < reference.size(); ++i)
      expect_identical_cell(ordered[i], reference[i], spec.task_kind);
  };
  for (int round = 0; round < 3; ++round) {
    run(spec_a, reference_a);
    run(spec_b, reference_b);
  }
  EXPECT_EQ(broker.stat("problem_cache_misses"), 6);
  EXPECT_EQ(broker.stat("problem_cache_evictions"), 5);
  const double hits = broker.stat("evaluator_cache_hits");
  run(spec_b, reference_b);
  EXPECT_GT(broker.stat("evaluator_cache_hits"), hits);
  EXPECT_EQ(broker.stat("problem_cache_hits"), 1);
}

TEST(RequestBroker, WallQuantilesNeverExceedTheSlowestRequest) {
  // Warm 1-cell requests take about a millisecond: the reported
  // quantiles must resolve that and stay at or below the slowest request
  // actually served.
  SweepSpec spec;
  spec.add_workload("p5", pipeline_cg(5))
      .add_topology(TopologyKind::Mesh)
      .add_goal(OptimizationGoal::Snr)
      .add_optimizers({"rs"})
      .add_budget(30)
      .add_seed_range(1, 1);
  BrokerOptions options;
  options.workers = 1;
  RequestBroker broker(options);
  for (int i = 0; i < 25; ++i) {
    Collected collected;
    ASSERT_TRUE(broker
                    .submit(make_request("w" + std::to_string(i), spec),
                            collected.events())
                    .accepted);
    collected.wait();
    ASSERT_TRUE(collected.done);
  }
  ASSERT_EQ(broker.stat("requests_completed"), 25);
  const double max = broker.stat("wall_max_seconds");
  EXPECT_GT(max, 0.0);
  EXPECT_LE(broker.stat("wall_p50_seconds"), max);
  EXPECT_LE(broker.stat("wall_p90_seconds"), max);
  EXPECT_LE(broker.stat("wall_p99_seconds"), max);
  EXPECT_LE(broker.stat("wall_mean_seconds"), max);
}

// --- serve_client over real socketpairs -------------------------------------

/// Both ends of a framed AF_UNIX socketpair connection.
struct ConnectionPair {
  std::unique_ptr<Connection> client;
  std::unique_ptr<Connection> server;
};

ConnectionPair make_connection_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
    throw ExecError("socketpair failed");
  return {make_fd_connection(fds[1]), make_fd_connection(fds[0])};
}

/// Client-side handshake; fails the test on a mismatch.
void shake_hands(Connection& conn) {
  ASSERT_TRUE(conn.send(kServiceHello));
  const auto hello = conn.recv(30.0);
  ASSERT_EQ(hello.status, Connection::RecvStatus::Ok);
  EXPECT_EQ(parse_reply(hello.payload).kind, ServiceReply::Kind::Hello);
}

/// Drive one request to its terminal reply, collecting streamed cells
/// into grid order.
struct WireOutcome {
  std::vector<CellResult> cells;
  std::size_t ok = 0;
  std::size_t failed = 0;
  bool done = false;
  bool rejected = false;
  RejectKind kind = RejectKind::Internal;
  std::string reason;
};

WireOutcome run_request_over(Connection& conn, const ServiceRequest& request) {
  WireOutcome outcome;
  EXPECT_TRUE(conn.send(write_request(request)));
  for (;;) {
    const auto received = conn.recv(60.0);
    if (received.status != Connection::RecvStatus::Ok) {
      ADD_FAILURE() << "connection ended mid-request";
      return outcome;
    }
    const auto reply = parse_reply(received.payload);
    switch (reply.kind) {
      case ServiceReply::Kind::Accepted:
        outcome.cells.resize(reply.cells);
        break;
      case ServiceReply::Kind::Cell: {
        const auto index = reply.result.cell.index;
        if (index >= outcome.cells.size()) {
          ADD_FAILURE() << "cell index out of range";
          return outcome;
        }
        outcome.cells[index] = reply.result;
        break;
      }
      case ServiceReply::Kind::Done:
        outcome.done = true;
        outcome.ok = reply.ok;
        outcome.failed = reply.failed;
        return outcome;
      case ServiceReply::Kind::Rejected:
        outcome.rejected = true;
        outcome.kind = reply.reject;
        outcome.reason = reply.reason;
        return outcome;
      default:
        ADD_FAILURE() << "unexpected reply kind";
        return outcome;
    }
  }
}

TEST(ServeClient, ConcurrentMixedKindClientsAreBitIdenticalToInProcess) {
  const auto optimize = opt_spec();
  const auto sample = sample_spec();
  const auto optimize_reference = BatchEngine(BatchOptions{}).run(optimize);
  const auto sample_reference = BatchEngine(BatchOptions{}).run(sample);

  BrokerOptions options;
  options.workers = 2;
  RequestBroker broker(options);

  // Two concurrent clients down one broker: one Optimize (submitted
  // twice — the repeat must come from the warm memos, bit-identically),
  // one Sample.
  auto pair_a = make_connection_pair();
  auto pair_b = make_connection_pair();
  std::thread server_a(
      [&] { (void)serve_client(*pair_a.server, broker); });
  std::thread server_b(
      [&] { (void)serve_client(*pair_b.server, broker); });

  std::thread client_a([&] {
    shake_hands(*pair_a.client);
    for (int round = 0; round < 2; ++round) {
      const auto outcome = run_request_over(
          *pair_a.client, make_request("opt" + std::to_string(round),
                                       optimize));
      ASSERT_TRUE(outcome.done);
      EXPECT_EQ(outcome.ok, optimize_reference.size());
      ASSERT_EQ(outcome.cells.size(), optimize_reference.size());
      for (std::size_t i = 0; i < outcome.cells.size(); ++i)
        expect_identical_cell(outcome.cells[i], optimize_reference[i],
                              optimize.task_kind);
    }
    (void)pair_a.client->send(kServiceQuit);
  });
  std::thread client_b([&] {
    shake_hands(*pair_b.client);
    const auto outcome =
        run_request_over(*pair_b.client, make_request("smp", sample));
    ASSERT_TRUE(outcome.done);
    ASSERT_EQ(outcome.cells.size(), sample_reference.size());
    for (std::size_t i = 0; i < outcome.cells.size(); ++i)
      expect_identical_cell(outcome.cells[i], sample_reference[i],
                            sample.task_kind);
    // The same connection also serves stats and single evaluations.
    ASSERT_TRUE(pair_b.client->send(kServiceStats));
    const auto stats_frame = pair_b.client->recv(30.0);
    ASSERT_EQ(stats_frame.status, Connection::RecvStatus::Ok);
    const auto stats = parse_reply(stats_frame.payload);
    EXPECT_EQ(stats.kind, ServiceReply::Kind::Stats);
    EXPECT_NE(stats.body.find("uptime_seconds"), std::string::npos);
    EXPECT_NE(stats.body.find("requests_accepted"), std::string::npos);

    EvaluateRequest probe;
    probe.id = "probe";
    probe.spec = optimize;
    probe.assignment = {0, 1, 2, 3, 4};
    ASSERT_TRUE(pair_b.client->send(write_evaluate(probe)));
    const auto eval_frame = pair_b.client->recv(30.0);
    ASSERT_EQ(eval_frame.status, Connection::RecvStatus::Ok);
    EXPECT_EQ(parse_reply(eval_frame.payload).kind,
              ServiceReply::Kind::Evaluation);
    (void)pair_b.client->send(kServiceQuit);
  });

  client_a.join();
  client_b.join();
  server_a.join();
  server_b.join();

  EXPECT_EQ(broker.stat("connections"), 2);
  EXPECT_EQ(broker.stat("requests_accepted"), 3);
  EXPECT_EQ(broker.stat("requests_completed"), 3);
  EXPECT_EQ(broker.stat("stats_requests"), 1);
  EXPECT_EQ(broker.stat("single_evaluations"), 1);
  // The repeated Optimize request reused the warm Evaluators' memos.
  EXPECT_GT(broker.stat("evaluator_cache_hits"), 0);
  EXPECT_GT(broker.stat("problem_cache_hits"), 0);
}

TEST(ServeClient, VanishedClientCancelsItsJobWithoutHanging) {
  BrokerOptions options;
  options.workers = 1;
  options.start_paused = true;  // the job is still queued when we vanish
  RequestBroker broker(options);

  auto pair = make_connection_pair();
  std::thread server([&] { (void)serve_client(*pair.server, broker); });

  {
    auto client = std::move(pair.client);
    shake_hands(*client);
    ASSERT_TRUE(client->send(write_request(make_request("gone", opt_spec()))));
    const auto accepted = client->recv(30.0);
    ASSERT_EQ(accepted.status, Connection::RecvStatus::Ok);
    EXPECT_EQ(parse_reply(accepted.payload).kind,
              ServiceReply::Kind::Accepted);
    client->close();  // the client vanishes with its job still queued
  }

  // Give the handler a moment to observe the hangup and latch its
  // writer shut, so the broker's liveness probe sees a dead client
  // before the queue unfreezes.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  broker.resume();
  server.join();  // must not hang: the alive() probe skips the job

  EXPECT_EQ(broker.stat("requests_canceled"), 1);
  EXPECT_EQ(broker.stat("requests_completed"), 0);
  EXPECT_EQ(broker.stat("cells_ok"), 0);  // canceled before any cell ran
}

TEST(ServeClient, MalformedAndUnknownFramesGetStructuredAnswers) {
  BrokerOptions options;
  options.workers = 1;
  RequestBroker broker(options);

  auto pair = make_connection_pair();
  // Like ServiceServer's handler threads: closing the connection after
  // serve_client returns is the caller's job.
  std::thread server([&] {
    (void)serve_client(*pair.server, broker);
    pair.server->close();
  });
  shake_hands(*pair.client);

  // A request whose header parses but whose body is junk: a structured
  // malformed rejection naming the salvaged id, connection stays up.
  ASSERT_TRUE(pair.client->send(
      "request broken deadline 0 max_cells 0\nnot a spec at all"));
  const auto rejected = pair.client->recv(30.0);
  ASSERT_EQ(rejected.status, Connection::RecvStatus::Ok);
  const auto reply = parse_reply(rejected.payload);
  EXPECT_EQ(reply.kind, ServiceReply::Kind::Rejected);
  EXPECT_EQ(reply.id, "broken");
  EXPECT_EQ(reply.reject, RejectKind::Malformed);

  // An unknown frame kind: an error reply, then the connection ends.
  ASSERT_TRUE(pair.client->send("telemetry subscribe"));
  const auto error = pair.client->recv(30.0);
  ASSERT_EQ(error.status, Connection::RecvStatus::Ok);
  EXPECT_EQ(parse_reply(error.payload).kind, ServiceReply::Kind::Error);
  const auto closed = pair.client->recv(30.0);
  EXPECT_EQ(closed.status, Connection::RecvStatus::Closed);

  server.join();
  EXPECT_EQ(broker.stat("requests_malformed"), 1);
}

TEST(ServeClient, HandshakeMismatchIsAnsweredAndDropped) {
  BrokerOptions options;
  options.workers = 1;
  RequestBroker broker(options);

  auto pair = make_connection_pair();
  std::thread server([&] { (void)serve_client(*pair.server, broker); });
  ASSERT_TRUE(pair.client->send("hello some-other-protocol v9"));
  const auto reply = pair.client->recv(30.0);
  ASSERT_EQ(reply.status, Connection::RecvStatus::Ok);
  EXPECT_EQ(parse_reply(reply.payload).kind, ServiceReply::Kind::Error);
  server.join();
  EXPECT_EQ(broker.stat("connections"), 0);
}

// --- the TCP daemon surface (ServiceServer) ---------------------------------

TEST(ServiceServer, ServesARealTcpClientOnAnEphemeralPort) {
  BrokerOptions options;
  options.workers = 2;
  ServiceServer server(0, options);
  ASSERT_NE(server.port(), 0);
  std::thread accept_thread([&] { server.run(/*max_connections=*/1); });

  const auto spec = opt_spec();
  const auto reference = BatchEngine(BatchOptions{}).run(spec);
  TcpTransport transport(10.0);
  auto conn =
      transport.connect("127.0.0.1:" + std::to_string(server.port()));
  shake_hands(*conn);
  const auto outcome = run_request_over(*conn, make_request("tcp", spec));
  ASSERT_TRUE(outcome.done);
  ASSERT_EQ(outcome.cells.size(), reference.size());
  for (std::size_t i = 0; i < outcome.cells.size(); ++i)
    expect_identical_cell(outcome.cells[i], reference[i], spec.task_kind);
  (void)conn->send(kServiceQuit);
  conn->close();
  accept_thread.join();
  EXPECT_EQ(server.broker().stat("requests_completed"), 1);
}

// --- FairScheduler: lanes + deficit round robin -----------------------------

TEST(FairScheduler, InteractiveLaneAlwaysDrainsFirst) {
  FairScheduler<std::string> sched(32);
  sched.push(ServiceLane::Bulk, "a", 8, "bulk-1");
  sched.push(ServiceLane::Bulk, "a", 8, "bulk-2");
  sched.push(ServiceLane::Interactive, "b", 1, "fast-1");
  sched.push(ServiceLane::Interactive, "c", 1, "fast-2");
  EXPECT_EQ(sched.size(), 4u);
  EXPECT_EQ(sched.size(ServiceLane::Interactive), 2u);
  EXPECT_EQ(*sched.pop(), "fast-1");
  EXPECT_EQ(*sched.pop(), "fast-2");
  EXPECT_EQ(*sched.pop(), "bulk-1");
  // A late interactive arrival still jumps the queued bulk work.
  sched.push(ServiceLane::Interactive, "b", 1, "fast-3");
  EXPECT_EQ(*sched.pop(), "fast-3");
  EXPECT_EQ(*sched.pop(), "bulk-2");
  EXPECT_FALSE(sched.pop().has_value());
  EXPECT_TRUE(sched.empty());
}

TEST(FairScheduler, LightClientIsServedWithinTheFirstRound) {
  // The satellite scenario: heavy client a queues 8 jobs of cost 4,
  // light client b queues 1. With quantum 16, a's burst is cut after
  // exactly quantum/cost = 4 jobs and b runs — within the first round,
  // not after a's whole backlog.
  FairScheduler<std::string> sched(16);
  for (int i = 0; i < 8; ++i)
    sched.push(ServiceLane::Bulk, "a", 4, "a" + std::to_string(i));
  sched.push(ServiceLane::Bulk, "b", 4, "b0");
  std::vector<std::string> order;
  while (auto job = sched.pop()) order.push_back(*job);
  ASSERT_EQ(order.size(), 9u);
  const std::vector<std::string> want{"a0", "a1", "a2", "a3", "b0",
                                      "a4", "a5", "a6", "a7"};
  EXPECT_EQ(order, want);
}

TEST(FairScheduler, ExpensiveJobAccumulatesDeficitAcrossRounds) {
  // a's front job costs 10 with quantum 4: unaffordable for two rounds,
  // served on the third visit (deficit 4 -> 8 -> 12), while b's cheap
  // jobs keep flowing — backlog never starves, big jobs still run.
  FairScheduler<std::string> sched(4);
  sched.push(ServiceLane::Bulk, "a", 10, "a-big");
  for (int i = 0; i < 6; ++i)
    sched.push(ServiceLane::Bulk, "b", 2, "b" + std::to_string(i));
  std::vector<std::string> order;
  while (auto job = sched.pop()) order.push_back(*job);
  const std::vector<std::string> want{"b0", "b1", "b2", "b3", "a-big",
                                      "b4", "b5"};
  EXPECT_EQ(order, want);
}

TEST(FairScheduler, EmptiedClientForfeitsItsDeficit) {
  FairScheduler<std::string> sched(10);
  sched.push(ServiceLane::Bulk, "a", 1, "a0");
  EXPECT_EQ(*sched.pop(), "a0");  // leaves 9 deficit on the table
  // Re-joining starts from zero: a cost-11 job needs two fresh visits
  // (10, then 20), not the forfeited credit from the earlier burst.
  sched.push(ServiceLane::Bulk, "a", 11, "a-big");
  sched.push(ServiceLane::Bulk, "b", 1, "b0");
  EXPECT_EQ(*sched.pop(), "b0");
  EXPECT_EQ(*sched.pop(), "a-big");
  EXPECT_EQ(sched.client_depth("a"), 0u);
}

TEST(FairScheduler, DrainReturnsEverythingInteractiveFirst) {
  FairScheduler<int> sched(8);
  sched.push(ServiceLane::Bulk, "a", 4, 1);
  sched.push(ServiceLane::Interactive, "a", 1, 2);
  sched.push(ServiceLane::Bulk, "b", 4, 3);
  sched.push(ServiceLane::Interactive, "b", 1, 4);
  EXPECT_EQ(sched.client_depth("a"), 2u);
  const auto all = sched.drain();
  ASSERT_EQ(all.size(), 4u);
  // Interactive lane first; cross-client order within a lane is ring
  // order, which drain does not pin.
  EXPECT_TRUE((all[0] == 2 && all[1] == 4) || (all[0] == 4 && all[1] == 2));
  EXPECT_TRUE((all[2] == 1 && all[3] == 3) || (all[2] == 3 && all[3] == 1));
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.client_depth("a"), 0u);
  EXPECT_FALSE(sched.pop().has_value());
}

// --- broker scheduling: fairness, lanes, caps, concurrency ------------------

TEST(RequestBroker, PausedBrokerServesLightClientWithinFirstDrrRound) {
  BrokerOptions options;
  options.workers = 1;
  options.request_concurrency = 1;  // completion order == pop order
  options.interactive_cell_threshold = 0;  // everything rides bulk: DRR only
  options.drr_quantum_cells = 16;
  options.max_queue_depth = 16;
  options.max_outstanding_cells = 0;
  options.start_paused = true;  // admission order is deterministic
  RequestBroker broker(options);

  std::mutex order_mutex;
  std::vector<std::string> completion_order;
  std::vector<std::unique_ptr<Collected>> jobs;
  const auto submit = [&](const std::string& id, const std::string& client) {
    auto collected = std::make_unique<Collected>();
    auto events = collected->events();
    const auto base_done = events.on_done;
    events.on_done = [&, id, base_done](std::size_t ok, std::size_t failed) {
      {
        const std::lock_guard<std::mutex> lock(order_mutex);
        completion_order.push_back(id);
      }
      base_done(ok, failed);
    };
    ASSERT_TRUE(broker
                    .submit(make_request(id, opt_spec()), std::move(events),
                            client)
                    .accepted);
    jobs.push_back(std::move(collected));
  };

  // Heavy client a queues 8 four-cell sweeps, light client b one.
  for (int i = 0; i < 8; ++i) submit("a" + std::to_string(i), "a");
  submit("b0", "b");
  broker.resume();
  for (auto& job : jobs) job->wait();

  // Quantum 16 over cost-4 jobs: a0..a3, then b0 — the light client is
  // served within the first DRR round, not behind a's whole backlog.
  ASSERT_EQ(completion_order.size(), 9u);
  const std::vector<std::string> want{"a0", "a1", "a2", "a3", "b0",
                                      "a4", "a5", "a6", "a7"};
  EXPECT_EQ(completion_order, want);
}

TEST(RequestBroker, ConcurrencyOnePreservesAnonymousSubmissionOrder) {
  // The pre-pool pin: one worker and one (anonymous) sub-queue is plain
  // FIFO — admission order is execution order, exactly the old
  // single-thread run_loop.
  BrokerOptions options;
  options.workers = 1;
  options.request_concurrency = 1;
  options.interactive_cell_threshold = 0;
  options.start_paused = true;
  RequestBroker broker(options);

  std::mutex order_mutex;
  std::vector<std::string> completion_order;
  std::vector<std::unique_ptr<Collected>> jobs;
  for (const auto* id : {"first", "second", "third"}) {
    auto collected = std::make_unique<Collected>();
    auto events = collected->events();
    const auto base_done = events.on_done;
    const std::string name = id;
    events.on_done = [&, name, base_done](std::size_t ok,
                                          std::size_t failed) {
      {
        const std::lock_guard<std::mutex> lock(order_mutex);
        completion_order.push_back(name);
      }
      base_done(ok, failed);
    };
    ASSERT_TRUE(
        broker.submit(make_request(name, opt_spec()), std::move(events))
            .accepted);
    jobs.push_back(std::move(collected));
  }
  broker.resume();
  for (auto& job : jobs) job->wait();
  EXPECT_EQ(completion_order,
            (std::vector<std::string>{"first", "second", "third"}));
}

TEST(RequestBroker, LaneRoutingByThresholdAndExplicitPriority) {
  BrokerOptions options;
  options.workers = 1;
  options.request_concurrency = 1;
  options.interactive_cell_threshold = 4;  // opt_spec's 4 cells qualify
  options.max_outstanding_cells = 0;
  options.start_paused = true;
  RequestBroker broker(options);

  // An 8-cell sweep routes bulk by size.
  auto big = opt_spec();
  big.add_seed_range(11, 2);  // 2 optimizers x 1 budget x 4 seeds = 8
  std::mutex order_mutex;
  std::vector<std::string> completion_order;
  std::vector<std::unique_ptr<Collected>> jobs;
  const auto submit = [&](ServiceRequest request) {
    auto collected = std::make_unique<Collected>();
    auto events = collected->events();
    const auto base_done = events.on_done;
    const std::string id = request.id;
    events.on_done = [&, id, base_done](std::size_t ok, std::size_t failed) {
      {
        const std::lock_guard<std::mutex> lock(order_mutex);
        completion_order.push_back(id);
      }
      base_done(ok, failed);
    };
    ASSERT_TRUE(broker.submit(std::move(request), std::move(events), "c")
                    .accepted);
    jobs.push_back(std::move(collected));
  };

  submit(make_request("bulk-by-size", big));
  auto pinned = make_request("bulk-by-priority", opt_spec());
  pinned.priority = RequestPriority::Bulk;  // small grid, explicit lane
  submit(std::move(pinned));
  submit(make_request("fast-by-size", opt_spec()));

  EXPECT_EQ(broker.stat("queue_depth"), 3);
  EXPECT_EQ(broker.stat("queue_depth_interactive"), 1);
  EXPECT_EQ(broker.stat("queue_depth_bulk"), 2);
  EXPECT_EQ(broker.stat("requests_interactive"), 1);
  EXPECT_EQ(broker.stat("requests_bulk"), 2);

  broker.resume();
  for (auto& job : jobs) job->wait();
  // The interactive request overtook both queued bulk requests even
  // though it was submitted last.
  ASSERT_EQ(completion_order.size(), 3u);
  EXPECT_EQ(completion_order[0], "fast-by-size");
  EXPECT_EQ(broker.stat("interactive_overtakes"), 1);
  EXPECT_EQ(broker.stat("queue_depth"), 0);
  EXPECT_GE(broker.stat("wait_bulk_p99_seconds"), 0.0);
}

TEST(RequestBroker, PerClientCapShedsTheHogAndAdmitsOthers) {
  BrokerOptions options;
  options.workers = 1;
  options.request_concurrency = 1;
  options.max_queue_depth = 16;
  options.max_queue_per_client = 2;
  options.max_outstanding_cells = 0;
  options.start_paused = true;
  RequestBroker broker(options);

  Collected h0, h1, h2, other;
  ASSERT_TRUE(broker.submit(make_request("h0", opt_spec()), h0.events(),
                            "hog")
                  .accepted);
  ASSERT_TRUE(broker.submit(make_request("h1", opt_spec()), h1.events(),
                            "hog")
                  .accepted);
  const auto shed = broker.submit(make_request("h2", opt_spec()),
                                  h2.events(), "hog");
  EXPECT_FALSE(shed.accepted);
  EXPECT_EQ(shed.kind, RejectKind::PerClientLimit);
  EXPECT_NE(shed.reason.find("per-client cap"), std::string::npos);
  // The cap is per client, not global: another client still gets in.
  ASSERT_TRUE(broker.submit(make_request("o0", opt_spec()), other.events(),
                            "polite")
                  .accepted);

  EXPECT_EQ(broker.stat("shed_per_client"), 1);
  EXPECT_EQ(broker.stat("requests_accepted"), 3);
  EXPECT_EQ(broker.stat("queue_depth"), 3);

  broker.resume();
  h0.wait();
  h1.wait();
  other.wait();
}

TEST(RequestBroker, InFlightCellsAreAPerJobSumUnderConcurrency) {
  // The satellite regression: with two requests executing, the
  // in-flight gauge must be the *sum* of both jobs' unfinished cells
  // (the old scalar was overwritten by whichever job started last).
  BrokerOptions options;
  options.workers = 1;  // cells run serially inside each request
  options.request_concurrency = 2;
  options.max_outstanding_cells = 0;
  options.start_paused = true;
  RequestBroker broker(options);

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  std::size_t cells_entered = 0;
  bool release = false;
  std::promise<void> done_a, done_b;
  const auto events_for = [&](std::promise<void>& done) {
    JobEvents events;
    events.on_cell = [&](const CellResult&) {
      std::unique_lock<std::mutex> lock(gate_mutex);
      ++cells_entered;
      gate_cv.notify_all();
      gate_cv.wait(lock, [&] { return release; });
      return true;
    };
    events.on_done = [&done](std::size_t, std::size_t) { done.set_value(); };
    events.on_reject = [&done](RejectKind, const std::string&) {
      done.set_value();
    };
    return events;
  };
  ASSERT_TRUE(broker.submit(make_request("a", opt_spec()),
                            events_for(done_a))
                  .accepted);
  ASSERT_TRUE(broker.submit(make_request("b", opt_spec()),
                            events_for(done_b))
                  .accepted);
  broker.resume();
  {
    // Both workers are now blocked streaming their first cell: two
    // 4-cell jobs are executing and no cell has finished yet.
    std::unique_lock<std::mutex> lock(gate_mutex);
    ASSERT_TRUE(gate_cv.wait_for(lock, kWaitLimit,
                                 [&] { return cells_entered >= 2; }));
  }
  EXPECT_EQ(broker.stat("in_flight_requests"), 2);
  EXPECT_EQ(broker.stat("in_flight_cells"), 8);  // 4 + 4, not last-writer-wins
  EXPECT_EQ(broker.stat("queue_depth"), 0);
  {
    const std::lock_guard<std::mutex> lock(gate_mutex);
    release = true;
  }
  gate_cv.notify_all();
  ASSERT_EQ(done_a.get_future().wait_for(kWaitLimit),
            std::future_status::ready);
  ASSERT_EQ(done_b.get_future().wait_for(kWaitLimit),
            std::future_status::ready);
  // on_done fires from inside execute(); the worker releases its
  // in-flight accounting just after, so poll briefly for the settle.
  const auto deadline = std::chrono::steady_clock::now() + kWaitLimit;
  while (broker.stat("in_flight_requests") != 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  EXPECT_EQ(broker.stat("in_flight_requests"), 0);
  EXPECT_EQ(broker.stat("in_flight_cells"), 0);
  EXPECT_EQ(broker.stat("requests_completed"), 2);
}

TEST(RequestBroker, ThreeConcurrentBusyClientsStayBitIdenticalToSolo) {
  const auto optimize = opt_spec();
  const auto sample = sample_spec();
  const auto optimize_reference = BatchEngine(BatchOptions{}).run(optimize);
  const auto sample_reference = BatchEngine(BatchOptions{}).run(sample);

  BrokerOptions options;
  options.workers = 1;
  options.request_concurrency = 3;  // three requests genuinely in flight
  options.max_outstanding_cells = 0;
  RequestBroker broker(options);
  ASSERT_EQ(broker.worker_count(), 3u);

  // Three clients hammer the broker at once: two Optimize streams (the
  // second also exercises the warm Evaluators) and one Sample stream.
  // Every result must match the solo in-process run bit for bit — the
  // shared problem cache and warm memos shift cost only, never results.
  struct ClientRun {
    std::string client;
    const SweepSpec* spec;
    const std::vector<CellResult>* reference;
    Collected collected;
  };
  std::vector<std::unique_ptr<ClientRun>> runs;
  runs.push_back(std::unique_ptr<ClientRun>(
      new ClientRun{"alice", &optimize, &optimize_reference, {}}));
  runs.push_back(std::unique_ptr<ClientRun>(
      new ClientRun{"bob", &optimize, &optimize_reference, {}}));
  runs.push_back(std::unique_ptr<ClientRun>(
      new ClientRun{"carol", &sample, &sample_reference, {}}));
  for (auto& run : runs)
    ASSERT_TRUE(broker
                    .submit(make_request(run->client, *run->spec),
                            run->collected.events(), run->client)
                    .accepted);
  for (auto& run : runs) {
    run->collected.wait();
    ASSERT_TRUE(run->collected.done) << run->client;
    ASSERT_EQ(run->collected.cells.size(), run->reference->size())
        << run->client;
    std::vector<CellResult> ordered(run->reference->size());
    for (auto& cell : run->collected.cells)
      ordered[cell.cell.index] = std::move(cell);
    for (std::size_t i = 0; i < ordered.size(); ++i)
      expect_identical_cell(ordered[i], (*run->reference)[i],
                            run->spec->task_kind);
  }
  // The in-flight gauges settle just after each on_done (see the
  // accounting test above): poll briefly.
  const auto deadline = std::chrono::steady_clock::now() + kWaitLimit;
  while (broker.stat("in_flight_requests") != 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  EXPECT_EQ(broker.stat("requests_completed"), 3);
  EXPECT_EQ(broker.stat("in_flight_cells"), 0);
  EXPECT_EQ(broker.stat("in_flight_requests"), 0);
}

}  // namespace
}  // namespace phonoc
