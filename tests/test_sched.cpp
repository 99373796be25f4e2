// Tests of the distributed sweep scheduler (src/sched/): frame
// encoding/corruption detection, the HostPool work ledger (stealing,
// poison-cell quarantine, straggler speculation, first-wins dedup), the
// loopback transport end to end — bit-identity with the in-process
// backend on a 64-cell grid, with per-host cpu clocks that sum to the
// report's — and the fleet failure paths driven through a scripted
// in-memory Transport: dead-host failover, spawn-host respawn,
// straggler retry with late-answer dedup, timeouts accounted into
// failed_count, an admission port that cannot be bound, and settled
// cells streamed while another host still holds its answers. The TCP
// listener's accepted sockets disable Nagle, and running out of
// descriptors makes it wait rather than fail.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "exec/aggregate.hpp"
#include "exec/batch_engine.hpp"
#include "exec/serialize.hpp"
#include "exec/sweep.hpp"
#include "sched/host_pool.hpp"
#include "sched/journal.hpp"
#include "sched/scheduler.hpp"
#include "sched/transport.hpp"
#include "sched/worker.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"
#include "workloads/generator.hpp"

namespace phonoc {
namespace {

// --- framing ---------------------------------------------------------------

TEST(Framing, EncodeDecodeRoundTripInArbitraryChunks) {
  const std::string payloads[] = {"", "x", "line one\nline two\n",
                                  std::string(10000, 'q'),
                                  "frame 3 deadbeef\nnested fake header"};
  std::string stream;
  for (const auto& payload : payloads) stream += encode_frame(payload);

  FrameDecoder decoder;
  std::vector<std::string> decoded;
  // Feed in awkward 7-byte chunks so every header/payload boundary is
  // crossed mid-chunk at least once.
  for (std::size_t i = 0; i < stream.size(); i += 7) {
    decoder.feed(std::string_view(stream).substr(i, 7));
    while (auto frame = decoder.next()) decoded.push_back(*frame);
  }
  ASSERT_EQ(decoded.size(), std::size(payloads));
  for (std::size_t i = 0; i < decoded.size(); ++i)
    EXPECT_EQ(decoded[i], payloads[i]);
  EXPECT_FALSE(decoder.has_partial());
}

TEST(Framing, CorruptionAndTruncationAreExplicitErrors) {
  std::string frame = encode_frame("the payload under test");
  // Flip one payload byte: checksum mismatch.
  std::string corrupt = frame;
  corrupt[frame.find("payload")] = 'P';
  FrameDecoder decoder;
  decoder.feed(corrupt);
  EXPECT_THROW((void)decoder.next(), ParseError);

  // A stream that is not framed at all fails on the header.
  FrameDecoder junk;
  junk.feed("phonoc-shard v1\nrouter crux\n");
  EXPECT_THROW((void)junk.next(), ParseError);

  // Truncation: a stream that ends mid-payload leaves a partial frame.
  FrameDecoder truncated;
  truncated.feed(frame.substr(0, frame.size() - 5));
  EXPECT_FALSE(truncated.next().has_value());
  EXPECT_TRUE(truncated.has_partial());

  // A stream that ends before any header holds nothing, not an error.
  FrameDecoder empty;
  EXPECT_FALSE(empty.next().has_value());
  EXPECT_FALSE(empty.has_partial());

  // And the round trip works.
  FrameDecoder stream;
  stream.feed(encode_frame("alpha") + encode_frame("beta\nwith newline"));
  EXPECT_EQ(stream.next().value(), "alpha");
  EXPECT_EQ(stream.next().value(), "beta\nwith newline");
  EXPECT_FALSE(stream.next().has_value());
  EXPECT_FALSE(stream.has_partial());
}

// --- the HostPool work ledger ----------------------------------------------

TEST(HostPool, DealsContiguousBlocksAndOwnQueueFirst) {
  // Equal weights, 4 units of 2 over 2 hosts: host 0 owns the first
  // block {0,2},{2,4}, host 1 the second {4,6},{6,8}.
  HostPool pool({1, 1}, 8, 2, 1, -1.0);
  const auto u0 = pool.acquire(0);
  const auto u1 = pool.acquire(1);
  ASSERT_TRUE(u0 && u1);
  EXPECT_EQ(u0->begin, 0u);
  EXPECT_EQ(u0->end, 2u);
  EXPECT_EQ(u1->begin, 4u);
  EXPECT_EQ(u1->end, 6u);
}

TEST(HostPool, CapacityWeightedDealIsProportional) {
  // The satellite acceptance fleet: capacities 1 vs 8, 18 cells in 9
  // units of 2. Largest remainder gives the small host exactly one
  // unit and the big host the remaining eight, both contiguous.
  HostPool pool(std::vector<std::size_t>{1, 8}, 18, 2, 1, -1.0,
                /*allow_steal=*/false);
  const auto small = pool.acquire(0);
  ASSERT_TRUE(small);
  EXPECT_EQ(small->begin, 0u);
  EXPECT_EQ(small->end, 2u);
  for (std::size_t u = 0; u < 8; ++u) {
    const auto unit = pool.acquire(1);
    ASSERT_TRUE(unit);
    EXPECT_EQ(unit->begin, 2 + 2 * u);
    EXPECT_EQ(unit->end, 4 + 2 * u);
    for (std::size_t i = unit->begin; i < unit->end; ++i)
      EXPECT_TRUE(pool.complete_cell(i));
    pool.finish_unit(1);
  }
  for (std::size_t i = small->begin; i < small->end; ++i)
    EXPECT_TRUE(pool.complete_cell(i));
  pool.finish_unit(0);
  EXPECT_TRUE(pool.all_settled());
  EXPECT_FALSE(pool.acquire(1).has_value());
}

TEST(HostPool, ZeroCapacityHostStartsEmptyButCanStillSteal) {
  // A host that never handshook weighs nothing in the deal; with
  // stealing on it can still help out once it (somehow) has a driver.
  HostPool pool(std::vector<std::size_t>{0, 1}, 4, 2, 1, -1.0);
  const auto own = pool.acquire(1);
  ASSERT_TRUE(own);
  EXPECT_EQ(own->begin, 0u);  // host 1 owns the whole grid
  const auto stolen = pool.acquire(0);
  ASSERT_TRUE(stolen);
  EXPECT_EQ(stolen->begin, 2u);  // host 0 only reaches work by stealing
}

TEST(HostPool, AllZeroCapacitiesFallBackToAnEqualSplit) {
  // A fleet where nobody handshook still deals a well-formed ledger —
  // the scheduler fails the cells as unroutable, nothing asserts.
  HostPool pool(std::vector<std::size_t>{0, 0}, 4, 2, 1, -1.0);
  const auto u0 = pool.acquire(0);
  const auto u1 = pool.acquire(1);
  ASSERT_TRUE(u0 && u1);
  EXPECT_EQ(u0->begin, 0u);
  EXPECT_EQ(u1->begin, 2u);
}

TEST(HostPool, CapacitiesBeyond32BitsAreRejected) {
  // The deal multiplies each capacity by the unit count in size_t; a
  // capacity past 32 bits could wrap that product and under-deal.
  EXPECT_THROW(HostPool(std::vector<std::size_t>{std::size_t{1} << 32, 1}, 8,
                        2, 1, -1.0),
               InvalidArgument);
  EXPECT_NO_THROW(HostPool(std::vector<std::size_t>{0xFFFFFFFFu, 1}, 8, 2, 1,
                           -1.0));
}

TEST(HostPool, CompleteCellIsFirstWins) {
  HostPool pool({1}, 4, 4, 1, -1.0);
  (void)pool.acquire(0);
  EXPECT_TRUE(pool.complete_cell(1));
  EXPECT_FALSE(pool.complete_cell(1));  // late duplicate
  EXPECT_EQ(pool.stats().duplicates, 1u);
  EXPECT_FALSE(pool.all_settled());
  for (const std::size_t i : {0u, 2u, 3u}) EXPECT_TRUE(pool.complete_cell(i));
  EXPECT_TRUE(pool.all_settled());
  EXPECT_FALSE(pool.acquire(0).has_value());  // settled pool: drivers exit
}

TEST(HostPool, FailUnitQuarantinesThePoisonCellUntilMaxAttempts) {
  HostPool pool({1, 1}, 4, 4, 2, -1.0, /*allow_steal=*/false);
  // One unit only: the leftover goes to host 0 (lower index wins the
  // remainder tie), host 1 starts idle.
  auto unit = pool.acquire(0);
  ASSERT_TRUE(unit);
  EXPECT_EQ(unit->attempt, 0u);
  EXPECT_TRUE(pool.complete_cell(0));  // one cell answered before death
  // Attempts left: the unit splits at its first unsettled cell.
  EXPECT_TRUE(pool.fail_unit(0).empty());
  EXPECT_EQ(pool.stats().retries, 2u);  // the suspect cell + the rest

  // The cell the worker died on comes back alone at attempt+1 (stealing
  // is off, so this is the retry path, not a steal)...
  auto suspect = pool.acquire(1);
  ASSERT_TRUE(suspect);
  EXPECT_EQ(suspect->begin, 1u);  // the settled prefix is skipped
  EXPECT_EQ(suspect->end, 2u);
  EXPECT_EQ(suspect->attempt, 1u);
  // ...and the cells it never reached come back at the same attempt.
  auto rest = pool.acquire(0);  // the respawned host
  ASSERT_TRUE(rest);
  EXPECT_EQ(rest->begin, 2u);
  EXPECT_EQ(rest->end, 4u);
  EXPECT_EQ(rest->attempt, 0u);
  for (std::size_t i = rest->begin; i < rest->end; ++i)
    EXPECT_TRUE(pool.complete_cell(i));
  pool.finish_unit(0);

  // The poison cell kills its host again: attempts exhausted, it alone
  // is abandoned.
  EXPECT_EQ(pool.fail_unit(1), (std::vector<std::size_t>{1}));
  EXPECT_EQ(pool.stats().abandoned, 1u);
  EXPECT_EQ(pool.stats().retries, 2u);
  EXPECT_TRUE(pool.all_settled());

  // max_attempts = 1 still means no retry: a death abandons the whole
  // unsettled remainder at once.
  HostPool once({1, 1}, 4, 4, 1, -1.0, /*allow_steal=*/false);
  ASSERT_TRUE(once.acquire(0));
  EXPECT_TRUE(once.complete_cell(0));
  EXPECT_EQ(once.fail_unit(0), (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(once.stats().retries, 0u);
  EXPECT_EQ(once.stats().abandoned, 3u);
  EXPECT_TRUE(once.all_settled());
}

TEST(HostPool, IdleHostStealsFromTheRichestQueue) {
  // 3 units, 2 hosts, equal weights: the remainder tie goes to host 0,
  // so host 0 owns {0,2},{2,4} and host 1 owns {4,6}. After finishing
  // its own unit host 1 steals host 0's *back* unit.
  HostPool pool({1, 1}, 6, 2, 1, -1.0);
  const auto own = pool.acquire(1);
  ASSERT_TRUE(own);
  EXPECT_EQ(own->begin, 4u);
  for (std::size_t i = own->begin; i < own->end; ++i)
    EXPECT_TRUE(pool.complete_cell(i));
  pool.finish_unit(1);
  const auto stolen = pool.acquire(1);
  ASSERT_TRUE(stolen);
  EXPECT_EQ(stolen->begin, 2u);
  EXPECT_EQ(stolen->end, 4u);
}

TEST(HostPool, RetiredHostsWorkMovesToTheRetryQueue) {
  HostPool pool({1, 1}, 4, 2, 3, -1.0, /*allow_steal=*/false);
  pool.retire_host(0);  // host 0 never even connected
  // With stealing off, host 1 still reaches host 0's unit via retry.
  const auto own = pool.acquire(1);
  ASSERT_TRUE(own);
  EXPECT_EQ(own->begin, 2u);
  pool.finish_unit(1);
  const auto orphan = pool.acquire(1);
  ASSERT_TRUE(orphan);
  EXPECT_EQ(orphan->begin, 0u);
  EXPECT_EQ(orphan->attempt, 0u);  // moved, not failed: attempt intact
}

TEST(HostPool, StragglerSpeculationClonesAndDedups) {
  // speculate_after = 0: any in-flight unit is immediately cloneable.
  HostPool pool({1, 1}, 4, 4, 3, 0.0);
  const auto original = pool.acquire(0);
  ASSERT_TRUE(original);
  const auto clone = pool.acquire(1);
  ASSERT_TRUE(clone);
  EXPECT_EQ(clone->begin, original->begin);
  EXPECT_EQ(clone->end, original->end);
  EXPECT_EQ(clone->attempt, original->attempt + 1);
  EXPECT_EQ(pool.stats().speculations, 1u);

  // The clone wins every cell; the straggler's late answers are
  // dropped and nothing is double-counted.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_TRUE(pool.complete_cell(i));
  pool.finish_unit(1);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FALSE(pool.complete_cell(i));
  pool.finish_unit(0);
  EXPECT_EQ(pool.stats().duplicates, 4u);
  EXPECT_TRUE(pool.all_settled());
  // One live clone per dispatch: the cloned flag blocks a second one.
  EXPECT_EQ(pool.stats().speculations, 1u);
}

// --- shared spec + identity helpers ----------------------------------------

/// 2 workloads x 2 topologies x 2 goals x 2 optimizers x 2 budgets x 2
/// seeds = 64 cells, evaluation-count budgets only (the determinism
/// contract excludes wall-clock caps).
SweepSpec spec64() {
  SweepSpec spec;
  spec.add_workload("p4", pipeline_cg(4))
      .add_workload("r6", random_cg({.tasks = 6,
                                     .avg_out_degree = 1.5,
                                     .min_bandwidth = 8,
                                     .max_bandwidth = 128,
                                     .seed = 11,
                                     .acyclic = false}))
      .add_topology(TopologyKind::Mesh)
      .add_topology(TopologyKind::Torus, 3)
      .add_goal(OptimizationGoal::Snr)
      .add_goal(OptimizationGoal::InsertionLoss)
      .add_optimizers({"rs", "rpbla"})
      .add_budget(40)
      .add_budget(60)
      .add_seed(3)
      .add_seed(21);
  return spec;
}

/// 1 x 1 x 1 x 2 optimizers x 1 x 4 seeds = 8 cells.
SweepSpec spec8() {
  SweepSpec spec;
  spec.add_workload("p5", pipeline_cg(5))
      .add_topology(TopologyKind::Mesh)
      .add_goal(OptimizationGoal::Snr)
      .add_optimizers({"rs", "rpbla"})
      .add_budget(30)
      .add_seed_range(1, 4);
  return spec;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_TRUE(a.search.best == b.search.best);
  EXPECT_EQ(a.search.best_fitness, b.search.best_fitness);  // bitwise
  EXPECT_EQ(a.search.evaluations, b.search.evaluations);
  EXPECT_EQ(a.search.iterations, b.search.iterations);
  EXPECT_EQ(a.best_evaluation.worst_loss_db, b.best_evaluation.worst_loss_db);
  EXPECT_EQ(a.best_evaluation.worst_snr_db, b.best_evaluation.worst_snr_db);
}

void expect_all_identical(const SweepSpec& spec,
                          const std::vector<CellResult>& got,
                          const std::vector<CellResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].status, CellStatus::Ok)
        << "cell " << i << " (" << cell_label(spec, got[i].cell)
        << "): " << got[i].error;
    EXPECT_EQ(got[i].cell.index, i);
    EXPECT_EQ(got[i].seed, want[i].seed);
    expect_identical(got[i].run, want[i].run);
  }
}

// --- a scripted in-memory transport for the failure paths -------------------

struct FakeBehavior {
  /// Transport::connect throws (the host is down before the sweep).
  bool refuse_connect = false;
  /// The "worker" dies after emitting this many cell results: queued
  /// frames still drain, then the connection reads Closed and further
  /// sends fail.
  std::size_t die_after_cells = static_cast<std::size_t>(-1);
  /// Every shard's answers become visible only this long after the
  /// shard arrived (a straggler host).
  double answer_delay_seconds = 0.0;
  /// Accept shards, never answer anything (a wedged host).
  bool black_hole = false;
  /// Advertise `capacity N` in the hello reply; 0 sends the bare
  /// legacy hello (which the scheduler must read as capacity 1).
  std::size_t advertise_capacity = 0;
  /// Hold every answer until this flag is set, or for at most
  /// kHoldLimitSeconds, so a test waiting on it fails instead of
  /// hanging.
  std::shared_ptr<std::atomic<bool>> hold_until;
};

constexpr double kHoldLimitSeconds = 10.0;

/// In-memory worker connection: send() executes the shard through the
/// real run_sweep_cell path immediately and queues the reply frames
/// with their visibility time; recv() replays them like a socket would.
/// Single-threaded per connection, like every scheduler driver.
class FakeConnection final : public Connection {
 public:
  explicit FakeConnection(FakeBehavior behavior) : behavior_(behavior) {}

  bool send(const std::string& payload) override {
    if (closed_ || dead_) return false;
    if (payload == kSchedHello) {
      outbox_.push_back(
          {0.0, behavior_.advertise_capacity > 0
                    ? std::string(kSchedHello) + " capacity " +
                          std::to_string(behavior_.advertise_capacity)
                    : std::string(kSchedHello),
           false});
      return true;
    }
    if (payload == kSchedQuit) return true;
    if (behavior_.black_hole) return true;
    std::istringstream in(payload);
    const SweepShard shard = read_shard(in);
    const auto cells = expand(shard.spec);
    const std::vector<SweepCell> slice(cells.begin() + shard.begin,
                                       cells.begin() + shard.end);
    const auto problems = build_sweep_problems(shard.spec, slice);
    const double at =
        clock_.elapsed_seconds() + behavior_.answer_delay_seconds;
    for (const auto& cell : slice) {
      if (cells_emitted_ >= behavior_.die_after_cells) {
        dead_ = true;  // queued frames drain, then recv reads Closed
        return true;
      }
      const auto& problem = *problems.at(
          SweepProblemKey{cell.workload, cell.topology, cell.goal});
      std::ostringstream block;
      write_cell_result(block, run_sweep_cell(shard.spec, cell, problem));
      outbox_.push_back({at, block.str()});
      ++cells_emitted_;
    }
    outbox_.push_back({at, std::string(kSchedDonePrefix) + " " +
                               std::to_string(slice.size())});
    return true;
  }

  RecvResult recv(double timeout_seconds) override {
    Timer waited;
    for (;;) {
      if (closed_) return {RecvStatus::Closed, {}};
      if (!outbox_.empty() &&
          outbox_.front().visible_at <= clock_.elapsed_seconds() &&
          !(outbox_.front().answer && held())) {
        auto payload = std::move(outbox_.front().payload);
        outbox_.pop_front();
        return {RecvStatus::Ok, std::move(payload)};
      }
      if (outbox_.empty() && dead_) return {RecvStatus::Closed, {}};
      if (timeout_seconds > 0.0 &&
          waited.elapsed_seconds() >= timeout_seconds)
        return {RecvStatus::Timeout, {}};
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  void close() override { closed_ = true; }

 private:
  [[nodiscard]] bool held() const {
    return behavior_.hold_until && !behavior_.hold_until->load() &&
           clock_.elapsed_seconds() < kHoldLimitSeconds;
  }

  struct Pending {
    double visible_at = 0.0;
    std::string payload;
    bool answer = true;  ///< false for the hello reply
  };
  FakeBehavior behavior_;
  Timer clock_;
  std::deque<Pending> outbox_;
  std::size_t cells_emitted_ = 0;
  bool dead_ = false;
  bool closed_ = false;
};

class FakeTransport final : public Transport {
 public:
  explicit FakeTransport(std::map<std::string, FakeBehavior> behaviors)
      : behaviors_(std::move(behaviors)) {}

  std::unique_ptr<Connection> connect(const std::string& endpoint) override {
    FakeBehavior behavior;
    if (const auto it = behaviors_.find(endpoint); it != behaviors_.end())
      behavior = it->second;
    if (behavior.refuse_connect)
      throw ExecError("fake: connection refused to '" + endpoint + "'");
    return std::make_unique<FakeConnection>(behavior);
  }

 private:
  const std::map<std::string, FakeBehavior> behaviors_;  // read-only
};

// --- the acceptance property: loopback fleet == in-process ------------------

TEST(Scheduler, LoopbackFleetMatchesInProcessBitForBitOn64Cells) {
  const auto spec = spec64();
  ASSERT_EQ(cell_count(spec), 64u);
  const auto reference = BatchEngine({.workers = 2}).run(spec);

  SchedulerOptions options;
  options.hosts = {"loopback", "loopback"};
  const auto outcome = Scheduler(options).run(spec);
  expect_all_identical(spec, outcome.results, reference);

  // Both hosts really served work and every cell is attributed.
  ASSERT_EQ(outcome.hosts.size(), 2u);
  for (const auto& host : outcome.hosts) {
    EXPECT_TRUE(host.connected);
    EXPECT_FALSE(host.died);
    EXPECT_GT(host.shards, 0u);
  }
  for (const auto owner : outcome.cell_host) EXPECT_GE(owner, 0);

  // Aggregate stats agree with the in-process report on every
  // non-timing statistic.
  const auto want = SweepReport::build(spec, reference);
  const auto report = SweepReport::build(spec, outcome.results);
  EXPECT_EQ(report.run_count, want.run_count);
  EXPECT_EQ(report.failed_count, 0u);
  ASSERT_EQ(report.cells.size(), want.cells.size());
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    EXPECT_EQ(report.cells[i].best_fitness.mean(),
              want.cells[i].best_fitness.mean());  // bitwise
    EXPECT_EQ(report.cells[i].worst_snr_db.max(),
              want.cells[i].worst_snr_db.max());
    EXPECT_EQ(report.cells[i].evaluations.mean(),
              want.cells[i].evaluations.mean());
  }

  // Each host's cpu is the sum of what it accepted, so the hosts
  // together account for every cell's cpu.
  double cpu_sum = 0.0;
  for (const auto& host : outcome.hosts) cpu_sum += host.cpu_seconds;
  EXPECT_NEAR(report.cpu_seconds, cpu_sum, 1e-9);
}

TEST(Scheduler, LoopbackFleetRunsSampleKindBitIdenticalToInProcess) {
  // The Sample task kind through the full remote path: framed sampling
  // shards out, constant-size DistributionResult blocks back, merged
  // sub-cells bit-identical to the in-process backend whatever the
  // fleet size. 2 apps x 4 sub-cells (seeds).
  SweepSpec spec;
  spec.add_workload("p5", pipeline_cg(5))
      .add_workload("p6", pipeline_cg(6))
      .add_topology(TopologyKind::Mesh)
      .add_goal(OptimizationGoal::Snr)
      .add_seed_range(5, 4)
      .use_sampling({.samples_per_cell = 40});
  const auto reference = BatchEngine({.workers = 1}).run(spec);

  for (const std::size_t hosts : {1u, 2u}) {
    SchedulerOptions options;
    options.hosts.assign(hosts, "loopback");
    options.cells_per_shard = 2;
    const auto outcome = Scheduler(options).run(spec);
    ASSERT_EQ(outcome.results.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const auto& got = outcome.results[i];
      const auto& want = reference[i];
      ASSERT_EQ(got.status, CellStatus::Ok) << got.error;
      EXPECT_EQ(got.seed, want.seed);
      EXPECT_EQ(got.distribution.samples, want.distribution.samples);
      ASSERT_EQ(got.distribution.metrics.size(),
                want.distribution.metrics.size());
      for (std::size_t m = 0; m < want.distribution.metrics.size(); ++m) {
        const auto& g = got.distribution.metrics[m];
        const auto& w = want.distribution.metrics[m];
        EXPECT_EQ(g.metric, w.metric);
        ASSERT_EQ(g.histogram.bins(), w.histogram.bins());
        EXPECT_EQ(g.histogram.underflow(), w.histogram.underflow());
        EXPECT_EQ(g.histogram.overflow(), w.histogram.overflow());
        for (std::size_t b = 0; b < g.histogram.bins(); ++b)
          EXPECT_EQ(g.histogram.count(b), w.histogram.count(b));
        EXPECT_EQ(g.stats.count(), w.stats.count());
        EXPECT_EQ(g.stats.mean(), w.stats.mean());  // bitwise
        EXPECT_EQ(g.stats.sum_squared_deviations(),
                  w.stats.sum_squared_deviations());
        EXPECT_EQ(g.stats.min(), w.stats.min());
        EXPECT_EQ(g.stats.max(), w.stats.max());
      }
    }
    // Merged per app (seeds are the innermost dimension: contiguous),
    // compared with the library's bit-identity comparator.
    for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
      const auto merged_got = merge_cell_distributions(
          outcome.results, w * spec.seeds.size(), spec.seeds.size());
      const auto merged_want = merge_cell_distributions(
          reference, w * spec.seeds.size(), spec.seeds.size());
      EXPECT_EQ(merged_got.samples,
                spec.sampling.samples_per_cell * spec.seeds.size());
      EXPECT_TRUE(identical_distributions(merged_got, merged_want));
    }
  }
}

// --- streaming settled cells -------------------------------------------------

TEST(Scheduler, OnCellStreamsWhileAnotherHostStillHoldsItsAnswers) {
  // "held" answers nothing until on_cell has seen a cell, which only
  // "prompt" can settle first: a scheduler that buffered its cells
  // until the sweep ended would reach on_cell after the hold limit.
  const auto spec = spec8();
  const auto reference = BatchEngine({.workers = 1}).run(spec);
  const auto seen = std::make_shared<std::atomic<bool>>(false);

  SchedulerOptions options;
  options.hosts = {"held", "prompt"};
  options.transport = std::make_shared<FakeTransport>(
      std::map<std::string, FakeBehavior>{{"held", {.hold_until = seen}}});
  options.cells_per_shard = 2;
  options.allow_steal = false;  // each host serves its own block
  options.speculate_after_seconds = -1.0;
  std::vector<CellResult> streamed;
  std::atomic<int> inside{0};
  bool overlapped = false;
  double first_at = -1.0;
  const Timer clock;
  const auto outcome =
      Scheduler(options).run(spec, [&](const CellResult& result) {
        if (inside.fetch_add(1) != 0) overlapped = true;
        if (streamed.empty()) first_at = clock.elapsed_seconds();
        streamed.push_back(result);
        seen->store(true);
        inside.fetch_sub(1);
      });

  EXPECT_FALSE(overlapped);
  ASSERT_EQ(streamed.size(), cell_count(spec));
  EXPECT_EQ(outcome.cell_host[streamed.front().cell.index], 1);
  EXPECT_LT(first_at, kHoldLimitSeconds);
  EXPECT_EQ(outcome.hosts[0].cells_ok, cell_count(spec) / 2);
  expect_all_identical(spec, outcome.results, reference);
  std::vector<CellResult> ordered(streamed.size());
  std::vector<int> times(streamed.size(), 0);
  for (auto& cell : streamed) {
    ASSERT_LT(cell.cell.index, ordered.size());
    ++times[cell.cell.index];
    ordered[cell.cell.index] = std::move(cell);
  }
  EXPECT_EQ(times, std::vector<int>(times.size(), 1));
  expect_all_identical(spec, ordered, reference);
}

// --- the capacity handshake -------------------------------------------------

TEST(Scheduler, LoopbackWorkersAdvertiseHardwareCapacity) {
  // serve_connection's hello reply carries `capacity N` (hardware
  // threads by default); the scheduler parses it into HostReport.
  const auto spec = spec8();
  SchedulerOptions options;
  options.hosts = {"loopback", "loopback"};
  const auto outcome = Scheduler(options).run(spec);
  const unsigned hardware = std::thread::hardware_concurrency();
  const std::size_t expected = hardware > 0 ? hardware : 1;
  for (const auto& host : outcome.hosts) {
    ASSERT_TRUE(host.connected);
    EXPECT_EQ(host.capacity, expected);
  }
}

TEST(Scheduler, BareHelloPeersCountAsCapacityOne) {
  // FakeConnection answers with the bare pre-capacity hello: the
  // missing field must parse as capacity 1, not kill the host — the
  // old/new interop rule.
  const auto spec = spec8();
  SchedulerOptions options;
  options.hosts = {"legacy"};
  options.transport = std::make_shared<FakeTransport>(
      std::map<std::string, FakeBehavior>{});
  const auto outcome = Scheduler(options).run(spec);
  ASSERT_TRUE(outcome.hosts[0].connected);
  EXPECT_FALSE(outcome.hosts[0].died);
  EXPECT_EQ(outcome.hosts[0].capacity, 1u);
  for (const auto& result : outcome.results)
    EXPECT_EQ(result.status, CellStatus::Ok);
}

TEST(Scheduler, OversizedHelloCapacityCountsAsOne) {
  // A hello advertising 2^62 slots. Times this sweep's 4 units, that
  // wraps size_t to 0 in the HostPool's deal, which would then leave
  // units unqueued. Out of the 32-bit range, the field keeps capacity 1,
  // and the sweep finishes bit-identical.
  const auto spec = spec8();
  const auto reference = BatchEngine({.workers = 1}).run(spec);
  SchedulerOptions options;
  options.hosts = {"huge", "plain"};
  options.transport = std::make_shared<FakeTransport>(
      std::map<std::string, FakeBehavior>{
          {"huge", {.advertise_capacity = std::size_t{1} << 62}}});
  options.cells_per_shard = 2;
  const auto outcome = Scheduler(options).run(spec);
  expect_all_identical(spec, outcome.results, reference);
  EXPECT_EQ(outcome.hosts[0].capacity, 1u);
  EXPECT_EQ(outcome.hosts[1].capacity, 1u);
}

TEST(Scheduler, CapacityWeightedFleetDealsProportionallyAndStaysIdentical) {
  // A 1-vs-8 fake fleet over 16 cells in 8 units of 2. With stealing
  // and speculation off, each host serves exactly its dealt block:
  // largest remainder hands the small host 1 unit (2 cells) and the
  // big host 7 units (14 cells) — and the merged results are still
  // bit-identical to the in-process run.
  auto spec = spec8();
  spec.seeds.clear();
  spec.add_seed_range(1, 8);
  ASSERT_EQ(cell_count(spec), 16u);
  const auto reference = BatchEngine({.workers = 1}).run(spec);

  SchedulerOptions options;
  options.hosts = {"small", "big"};
  options.transport = std::make_shared<FakeTransport>(
      std::map<std::string, FakeBehavior>{
          {"small", {.advertise_capacity = 1}},
          {"big", {.advertise_capacity = 8}}});
  options.cells_per_shard = 2;
  options.allow_steal = false;
  options.speculate_after_seconds = -1.0;
  const auto outcome = Scheduler(options).run(spec);

  expect_all_identical(spec, outcome.results, reference);
  EXPECT_EQ(outcome.hosts[0].capacity, 1u);
  EXPECT_EQ(outcome.hosts[1].capacity, 8u);
  std::size_t small_cells = 0;
  std::size_t big_cells = 0;
  for (const auto owner : outcome.cell_host)
    (owner == 0 ? small_cells : big_cells) += 1;
  EXPECT_EQ(small_cells, 2u);
  EXPECT_EQ(big_cells, 14u);
  // The small host's block is the grid prefix (contiguous dealing).
  EXPECT_EQ(outcome.cell_host[0], 0);
  EXPECT_EQ(outcome.cell_host[1], 0);
}

TEST(Service, HelloWithUnknownFieldsStillHandshakes) {
  // A future scheduler may append fields to its hello; today's worker
  // must prefix-match instead of exact-match. Drive serve_connection
  // directly over a socketpair.
  auto transport = make_transport();
  auto conn = transport->connect("loopback");
  ASSERT_TRUE(conn->send(std::string(kSchedHello) + " future-field 7"));
  const auto reply = conn->recv(10.0);
  ASSERT_EQ(reply.status, Connection::RecvStatus::Ok);
  EXPECT_TRUE(reply.payload.rfind(kSchedHello, 0) == 0);
  EXPECT_NE(reply.payload.find("capacity"), std::string::npos);
  ASSERT_TRUE(conn->send(kSchedQuit));
  conn->close();
}

TEST(Scheduler, EmptyFleetThrows) {
  EXPECT_THROW((void)Scheduler(SchedulerOptions{}), InvalidArgument);
}

TEST(Fleet, FromCliReadsBackendAndHosts) {
  const auto fleet = [](std::vector<const char*> args) {
    args.insert(args.begin(), "tools/prog");
    const CliOptions cli(static_cast<int>(args.size()), args.data());
    return fleet_from_cli(cli, "tools/prog", 3);
  };
  using Hosts = std::vector<std::string>;
  // thread, the default, is no fleet: the cells run in process.
  EXPECT_EQ(fleet({}), Hosts{});
  EXPECT_EQ(fleet({"--backend=thread", "--hosts=a:1"}), Hosts{});
  EXPECT_EQ(fleet({"--backend=fork"}),
            Hosts(3, "spawn:tools/phonoc_workerd"));
  EXPECT_EQ(fleet({"--backend=remote"}), (Hosts{"loopback", "loopback"}));
  EXPECT_EQ(fleet({"--backend=remote", "--hosts=a:1, b:2,"}),
            (Hosts{"a:1", "b:2"}));
  EXPECT_THROW((void)fleet({"--backend=frok"}), InvalidArgument);
  EXPECT_THROW((void)fleet({"--backend=remote", "--hosts="}),
               InvalidArgument);
  EXPECT_THROW((void)fleet({"--backend=remote", "--hosts= , "}),
               InvalidArgument);
}

/// A strict RFC-4180 reader: newline-terminated records of fields, where
/// a quoted field may hold commas, newlines and doubled quotes.
std::vector<std::vector<std::string>> read_csv_records(
    const std::string& text) {
  std::vector<std::vector<std::string>> records(1);
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted && c == '"' && i + 1 < text.size() && text[i + 1] == '"') {
      field += '"';
      ++i;
    } else if (c == '"') {
      quoted = !quoted;
    } else if (!quoted && (c == ',' || c == '\n')) {
      records.back().push_back(std::move(field));
      field.clear();
      if (c == '\n') records.emplace_back();
    } else {
      field += c;
    }
  }
  EXPECT_FALSE(quoted) << "unterminated quoted field";
  EXPECT_TRUE(records.back().empty() && field.empty())
      << "last record not newline-terminated";
  records.pop_back();
  return records;
}

TEST(HostReport, CsvKeepsFreeFormTextIntactAsOneRecordPerHost) {
  ScheduleResult outcome;
  HostReport host;
  host.endpoint = "spawn:dir,one/phonoc_workerd";
  host.error = "worker said \"bye\", then\nexited";
  outcome.hosts.push_back(host);
  outcome.hosts.emplace_back().endpoint = "127.0.0.1:7";
  const auto records = read_csv_records(host_report_csv(outcome));
  ASSERT_EQ(records.size(), 3u);  // header + one record per host
  ASSERT_EQ(records[0].back(), "error");
  for (const auto& record : records)
    ASSERT_EQ(record.size(), records[0].size());
  EXPECT_EQ(records[1].front(), host.endpoint);
  EXPECT_EQ(records[1].back(), host.error);
  EXPECT_EQ(records[2].front(), "127.0.0.1:7");
  EXPECT_EQ(records[2].back(), "");
}

// --- fleet failure paths (scripted transport) -------------------------------

TEST(Scheduler, InjectedWorkerDeathFailsOverToTheSurvivor) {
  const auto spec = spec64();
  const auto reference = BatchEngine({.workers = 2}).run(spec);

  SchedulerOptions options;
  options.hosts = {"dying", "healthy"};
  options.transport = std::make_shared<FakeTransport>(
      std::map<std::string, FakeBehavior>{{"dying", {.die_after_cells = 5}}});
  options.allow_steal = false;  // the dying host must meet its fate
  options.speculate_after_seconds = -1.0;
  const auto outcome = Scheduler(options).run(spec);

  // The mid-sweep death loses nothing: the in-flight cell is recovered
  // by retry on the surviving host, bit-identically.
  expect_all_identical(spec, outcome.results, reference);
  EXPECT_TRUE(outcome.hosts[0].died);
  EXPECT_FALSE(outcome.hosts[1].died);
  EXPECT_GE(outcome.pool.retries, 1u);
  EXPECT_EQ(SweepReport::build(spec, outcome.results).failed_count, 0u);
  // The dead host settled exactly what it emitted before dying.
  EXPECT_EQ(outcome.hosts[0].cells_ok + outcome.hosts[0].cells_failed, 5u);
}

TEST(Scheduler, DeadSpawnHostIsRespawnedAndFinishesTheSweep) {
  // A spawn endpoint (here served by the scripted transport: every
  // connection dies after 5 cells) is redialed after each death instead
  // of retired. The lone host therefore finishes the whole grid:
  // the first death splits its 8-cell unit into the suspect cell and
  // the rest, and the respawned connections serve both.
  const auto spec = spec8();
  const auto reference = BatchEngine({.workers = 1}).run(spec);

  SchedulerOptions options;
  options.hosts = {"spawn:fake"};
  options.transport = std::make_shared<FakeTransport>(
      std::map<std::string, FakeBehavior>{
          {"spawn:fake", {.die_after_cells = 5}}});
  options.cells_per_shard = 8;
  options.speculate_after_seconds = -1.0;
  const auto outcome = Scheduler(options).run(spec);

  expect_all_identical(spec, outcome.results, reference);
  ASSERT_EQ(outcome.hosts.size(), 1u);
  EXPECT_FALSE(outcome.hosts[0].died);
  EXPECT_NE(outcome.hosts[0].error.find("closed mid-shard"),
            std::string::npos)
      << outcome.hosts[0].error;
  EXPECT_EQ(outcome.pool.retries, 2u);
  EXPECT_EQ(outcome.pool.abandoned, 0u);
  EXPECT_EQ(outcome.hosts[0].cells_ok, cell_count(spec));
}

TEST(Scheduler, TakenAdmissionPortThrowsBeforeAnyThreadStarts) {
  // Another listener holds the port: run() must throw ExecError from
  // the scheduling thread, before any driver thread exists to unwind.
  TcpListener held(0);
  SchedulerOptions options;
  options.hosts = {"healthy"};
  options.transport = std::make_shared<FakeTransport>(
      std::map<std::string, FakeBehavior>{});
  options.admit_port = held.port();
  bool announced = false;
  options.on_admit_port = [&](std::uint16_t) { announced = true; };
  EXPECT_THROW((void)Scheduler(options).run(spec8()), ExecError);
  EXPECT_FALSE(announced);
}

TEST(Scheduler, OutOfRangeAdmissionPortThrowsBeforeAnyThreadStarts) {
  // Narrowed unchecked, 70000 would bind port 4464 and run the sweep.
  SchedulerOptions options;
  options.hosts = {"healthy"};
  options.transport = std::make_shared<FakeTransport>(
      std::map<std::string, FakeBehavior>{});
  options.admit_port = 70000;
  bool announced = false;
  options.on_admit_port = [&](std::uint16_t) { announced = true; };
  EXPECT_THROW((void)Scheduler(options).run(spec8()), ExecError);
  EXPECT_FALSE(announced);
}

TEST(Scheduler, UnreachableHostIsRetiredAndTheFleetCarriesOn) {
  const auto spec = spec8();
  const auto reference = BatchEngine({.workers = 1}).run(spec);

  SchedulerOptions options;
  options.hosts = {"refused", "healthy"};
  options.transport = std::make_shared<FakeTransport>(
      std::map<std::string, FakeBehavior>{{"refused",
                                           {.refuse_connect = true}}});
  const auto outcome = Scheduler(options).run(spec);
  expect_all_identical(spec, outcome.results, reference);
  EXPECT_FALSE(outcome.hosts[0].connected);
  EXPECT_FALSE(outcome.hosts[0].error.empty());
  for (const auto owner : outcome.cell_host) EXPECT_EQ(owner, 1);
}

TEST(Scheduler, StragglerIsRetriedAndItsLateAnswersAreDeduplicated) {
  // 16 cells in 4 units, equal weights: the straggler owns the first
  // two units, so when its delayed unit-0 answers finally arrive the
  // sweep is still open (its second unit is queued behind them) and
  // the late frames must flow through the dedup path rather than the
  // settled-sweep early exit.
  auto spec = spec8();
  spec.seeds.clear();
  spec.add_seed_range(1, 8);
  ASSERT_EQ(cell_count(spec), 16u);
  const auto reference = BatchEngine({.workers = 1}).run(spec);

  SchedulerOptions options;
  options.hosts = {"straggler", "fast"};
  options.transport = std::make_shared<FakeTransport>(
      std::map<std::string, FakeBehavior>{
          {"straggler", {.answer_delay_seconds = 0.5}}});
  options.cells_per_shard = 4;
  options.allow_steal = false;
  options.speculate_after_seconds = 0.05;  // clone the straggler quickly
  const auto outcome = Scheduler(options).run(spec);

  // No cell is lost or double-counted: the clone's answers win, the
  // straggler's arrive later and are dropped.
  expect_all_identical(spec, outcome.results, reference);
  EXPECT_GE(outcome.pool.speculations, 1u);
  EXPECT_GE(outcome.pool.duplicates, 1u);
  EXPECT_FALSE(outcome.hosts[0].died);  // slow, not dead
  const auto report = SweepReport::build(spec, outcome.results);
  EXPECT_EQ(report.run_count, outcome.results.size());
  EXPECT_EQ(report.failed_count, 0u);
}

TEST(Scheduler, WedgedFleetTimesOutIntoFailedCount) {
  const auto spec = spec8();
  SchedulerOptions options;
  options.hosts = {"wedged"};
  options.transport = std::make_shared<FakeTransport>(
      std::map<std::string, FakeBehavior>{{"wedged", {.black_hole = true}}});
  options.max_attempts = 1;
  options.cell_timeout_seconds = 0.3;
  options.speculate_after_seconds = -1.0;
  const auto outcome = Scheduler(options).run(spec);

  // Every cell failed loudly; the in-flight unit's cells carry the
  // abandonment diagnostic, the never-dispatched unit's cells the
  // no-live-host one. Nothing vanishes.
  std::size_t abandoned = 0;
  std::size_t unrouted = 0;
  for (const auto& result : outcome.results) {
    EXPECT_EQ(result.status, CellStatus::Failed);
    if (result.error.find("abandoned") != std::string::npos) ++abandoned;
    if (result.error.find("no live host") != std::string::npos) ++unrouted;
  }
  EXPECT_EQ(abandoned, 4u);  // the unit in flight when the host wedged
  EXPECT_EQ(unrouted, 4u);   // the unit still queued behind it
  EXPECT_TRUE(outcome.hosts[0].died);
  EXPECT_NE(outcome.hosts[0].error.find("timeout"), std::string::npos)
      << outcome.hosts[0].error;
  const auto report = SweepReport::build(spec, outcome.results);
  EXPECT_EQ(report.failed_count, outcome.results.size());
  EXPECT_EQ(report.run_count, 0u);
}

TEST(Scheduler, WholeFleetDeadFailsEveryCellNotSilently) {
  const auto spec = spec8();
  SchedulerOptions options;
  options.hosts = {"down-a", "down-b"};
  options.transport = std::make_shared<FakeTransport>(
      std::map<std::string, FakeBehavior>{
          {"down-a", {.refuse_connect = true}},
          {"down-b", {.refuse_connect = true}}});
  const auto outcome = Scheduler(options).run(spec);
  ASSERT_EQ(outcome.results.size(), cell_count(spec));
  for (const auto& result : outcome.results) {
    EXPECT_EQ(result.status, CellStatus::Failed);
    EXPECT_NE(result.error.find("no live host"), std::string::npos);
  }
  EXPECT_EQ(SweepReport::build(spec, outcome.results).failed_count,
            outcome.results.size());
}

// --- the worker's internal exec pool ----------------------------------------

TEST(Scheduler, WorkerInternalPoolStaysBitIdenticalForBothTaskKinds) {
  // A worker whose shard cells run 8-at-a-time on its internal exec
  // pool streams frames in settle order, not slice order; the
  // scheduler's index-matching and first-wins dedup must still produce
  // results bit-identical to the serial in-process backend.
  const auto pooled = std::make_shared<LoopbackTransport>([](Connection& conn) {
    return serve_connection(conn, {.threads = 8});
  });

  // Optimize kind, 64 cells in 16-cell slices (wide enough that the
  // pool genuinely interleaves).
  const auto spec = spec64();
  const auto reference = BatchEngine({.workers = 2}).run(spec);
  SchedulerOptions options;
  options.hosts = {"loopback"};
  options.transport = pooled;
  options.cells_per_shard = 16;
  const auto outcome = Scheduler(options).run(spec);
  ASSERT_EQ(outcome.hosts.size(), 1u);
  EXPECT_EQ(outcome.hosts[0].capacity, 8u);
  EXPECT_EQ(outcome.hosts[0].cells_ok, cell_count(spec));
  expect_all_identical(spec, outcome.results, reference);

  // Sample kind through the same pooled worker: merged distributions
  // bit-identical to in-process.
  SweepSpec sampling;
  sampling.add_workload("p5", pipeline_cg(5))
      .add_topology(TopologyKind::Mesh)
      .add_goal(OptimizationGoal::Snr)
      .add_seed_range(5, 4)
      .use_sampling({.samples_per_cell = 40});
  const auto sample_reference = BatchEngine({.workers = 1}).run(sampling);
  SchedulerOptions sample_options;
  sample_options.hosts = {"loopback"};
  sample_options.transport = pooled;
  sample_options.cells_per_shard = 4;
  const auto sampled = Scheduler(sample_options).run(sampling);
  ASSERT_EQ(sampled.results.size(), sample_reference.size());
  for (const auto& result : sampled.results)
    ASSERT_EQ(result.status, CellStatus::Ok) << result.error;
  EXPECT_TRUE(identical_distributions(
      merge_cell_distributions(sampled.results, 0, sampled.results.size()),
      merge_cell_distributions(sample_reference, 0,
                               sample_reference.size())));
}

// --- the settled-cell journal ------------------------------------------------

std::string temp_journal(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

/// The key the scheduler stamps on a sweep's journal: FNV-1a 64 of the
/// slice-independent shard prefix every dispatched unit shares.
std::uint64_t journal_key(const SweepSpec& spec) {
  return fnv1a64(shard_prefix(spec));
}

TEST(Journal, MissingEmptyAndHeaderOnlyFilesReplayToNothing) {
  const std::string path = temp_journal("journal_fresh");
  EXPECT_TRUE(replay_journal(path, 0x1234u, 8).cells.empty());

  // An empty file (created, never written) is the same fresh start.
  { std::ofstream touch(path); }
  EXPECT_TRUE(replay_journal(path, 0x1234u, 8).cells.empty());

  // The writer stamps the header; a header-only journal holds no cells.
  { JournalWriter writer(path, 0x1234u); }
  const auto replay = replay_journal(path, 0x1234u, 8);
  EXPECT_TRUE(replay.cells.empty());
}

TEST(Journal, AdversarialReplaysAreExplicitErrorsNeverSilentReuse) {
  const auto spec = spec8();
  const auto cells = expand(spec);
  const std::uint64_t hash = journal_key(spec);
  const std::string path = temp_journal("journal_adversarial");

  const auto write_journal = [&](const std::vector<std::size_t>& indices) {
    std::remove(path.c_str());
    JournalWriter writer(path, hash);
    for (const auto index : indices) {
      std::ostringstream block;
      write_cell_result(block,
                        make_failed_cell(spec, cells[index], "seeded"));
      writer.append(block.str());
    }
  };
  const auto mutate_file = [&](const auto& mutation) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream slurp;
    slurp << in.rdbuf();
    std::string bytes = slurp.str();
    mutation(bytes);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  };

  // Truncated final record: the writer died mid-append.
  write_journal({0, 1});
  mutate_file([](std::string& bytes) { bytes.resize(bytes.size() - 7); });
  EXPECT_THROW((void)replay_journal(path, hash, cells.size()), JournalError);

  // Checksum corruption inside a record's payload.
  write_journal({0});
  mutate_file([](std::string& bytes) { bytes[bytes.size() - 3] ^= 0x20; });
  EXPECT_THROW((void)replay_journal(path, hash, cells.size()), JournalError);

  // A journal keyed to a different sweep must never replay.
  write_journal({0});
  EXPECT_THROW((void)replay_journal(path, hash + 1, cells.size()),
               JournalError);

  // A record that settles a cell outside this sweep's grid.
  write_journal({5});
  EXPECT_THROW((void)replay_journal(path, hash, 3), JournalError);

  // Duplicate records replay first-wins, exactly like the live stream.
  write_journal({2, 2, 3});
  const auto replay = replay_journal(path, hash, cells.size());
  EXPECT_EQ(replay.cells.size(), 2u);
  EXPECT_EQ(replay.cells[0].cell.index, 2u);
  EXPECT_EQ(replay.cells[1].cell.index, 3u);
}

TEST(Scheduler, JournalResumeSkipsSettledCellsAndStaysIdentical) {
  const auto spec = spec8();
  const auto reference = BatchEngine({.workers = 1}).run(spec);
  const std::string path = temp_journal("journal_resume");

  // Run 1: the lone host dies after 5 cells with retries off — the 5
  // answered cells are journaled, the stranded tail fails.
  SchedulerOptions first;
  first.hosts = {"dying"};
  first.transport = std::make_shared<FakeTransport>(
      std::map<std::string, FakeBehavior>{{"dying", {.die_after_cells = 5}}});
  first.max_attempts = 1;
  first.cells_per_shard = 8;  // one unit, so the death strands the tail
  first.journal_path = path;
  const auto crashed = Scheduler(first).run(spec);
  std::size_t ok = 0;
  for (const auto& result : crashed.results)
    ok += result.status == CellStatus::Ok;
  ASSERT_EQ(ok, 5u);
  EXPECT_EQ(crashed.journaled, 0u);  // nothing pre-existed

  // Run 2: healthy host, same journal. The 5 settled cells replay
  // (scheduler-side failures were NOT journaled, so the healthier
  // fleet retries them) and the merged outcome is bit-identical.
  SchedulerOptions second;
  second.hosts = {"healthy"};
  second.transport = std::make_shared<FakeTransport>(
      std::map<std::string, FakeBehavior>{});
  second.journal_path = path;
  const auto resumed = Scheduler(second).run(spec);
  EXPECT_EQ(resumed.journaled, 5u);
  expect_all_identical(spec, resumed.results, reference);
  std::size_t replayed = 0;
  for (const auto owner : resumed.cell_host)
    replayed += owner == kCellHostJournal;
  EXPECT_EQ(replayed, 5u);
  // Only the unsettled remainder re-executed.
  EXPECT_EQ(resumed.hosts[0].cells_ok, cell_count(spec) - 5);

  const auto report = SweepReport::build(spec, resumed.results);
  EXPECT_EQ(report.run_count, cell_count(spec));
  EXPECT_EQ(report.failed_count, 0u);

  // Run 3: everything journaled now — a pure replay executes nothing.
  const auto pure = Scheduler(second).run(spec);
  EXPECT_EQ(pure.journaled, cell_count(spec));
  EXPECT_EQ(pure.hosts[0].cells_ok, 0u);
  expect_all_identical(spec, pure.results, reference);
}

TEST(Scheduler, ReplayOverlapDuplicatesAreCountedExactlyOnce) {
  const auto spec = spec8();
  const auto reference = BatchEngine({.workers = 1}).run(spec);
  const std::string path = temp_journal("journal_overlap");

  // Journal exactly one mid-unit cell (index 1). The live unit [0,4)
  // only trims its settled *prefix*, so the worker re-executes cell 1
  // and its wire answer collides with the replay — first-wins must
  // count it exactly once.
  {
    JournalWriter writer(path, journal_key(spec));
    std::ostringstream block;
    write_cell_result(block, reference[1]);
    writer.append(block.str());
  }
  SchedulerOptions options;
  options.hosts = {"healthy"};
  options.transport = std::make_shared<FakeTransport>(
      std::map<std::string, FakeBehavior>{});
  options.journal_path = path;
  const auto outcome = Scheduler(options).run(spec);
  EXPECT_EQ(outcome.journaled, 1u);
  EXPECT_EQ(outcome.cell_host[1], kCellHostJournal);
  EXPECT_EQ(outcome.hosts[0].duplicates, 1u);
  expect_all_identical(spec, outcome.results, reference);

  const auto report = SweepReport::build(spec, outcome.results);
  EXPECT_EQ(report.run_count, cell_count(spec));  // counted once, not twice
  EXPECT_EQ(report.failed_count, 0u);
}

TEST(Scheduler, AllHostsDeadStillKeepsJournaledCells) {
  const auto spec = spec8();
  const auto reference = BatchEngine({.workers = 1}).run(spec);
  const std::string path = temp_journal("journal_dead_fleet");
  {
    JournalWriter writer(path, journal_key(spec));
    for (const auto index : {2u, 6u}) {
      std::ostringstream block;
      write_cell_result(block, reference[index]);
      writer.append(block.str());
    }
  }
  SchedulerOptions options;
  options.hosts = {"down"};
  options.transport = std::make_shared<FakeTransport>(
      std::map<std::string, FakeBehavior>{{"down", {.refuse_connect = true}}});
  options.journal_path = path;
  const auto outcome = Scheduler(options).run(spec);
  EXPECT_EQ(outcome.journaled, 2u);
  for (std::size_t i = 0; i < outcome.results.size(); ++i) {
    if (i == 2 || i == 6) {
      EXPECT_EQ(outcome.results[i].status, CellStatus::Ok);
      EXPECT_EQ(outcome.cell_host[i], kCellHostJournal);
    } else {
      EXPECT_EQ(outcome.results[i].status, CellStatus::Failed);
      EXPECT_NE(outcome.results[i].error.find("no live host"),
                std::string::npos);
    }
  }
  const auto report = SweepReport::build(spec, outcome.results);
  EXPECT_EQ(report.run_count, 2u);
  EXPECT_EQ(report.failed_count, cell_count(spec) - 2);
  EXPECT_EQ(report.run_count + report.failed_count, cell_count(spec));
}

TEST(Scheduler, JournalForADifferentSweepRefusesToRun) {
  const auto spec = spec8();
  const std::string path = temp_journal("journal_wrong_sweep");
  {
    JournalWriter writer(path, journal_key(spec));
  }
  SchedulerOptions options;
  options.hosts = {"healthy"};
  options.transport = std::make_shared<FakeTransport>(
      std::map<std::string, FakeBehavior>{});
  options.journal_path = path;
  // Same journal, different sweep: a structured error, not partial reuse.
  EXPECT_THROW((void)Scheduler(options).run(spec64()), ExecError);
}

// --- dynamic admission -------------------------------------------------------

TEST(HostPool, AddHostJoinsTheLedgerAndPullsWorkThroughEveryPath) {
  // 1 initial host, 8 cells in units of 2, immediate speculation.
  HostPool pool({1}, 8, 2, 3, 0.0);
  const auto straggler = pool.acquire(0);  // [0,2) in flight, never done
  ASSERT_TRUE(straggler);

  const auto h = pool.add_host();
  EXPECT_EQ(h, 1u);
  // The joiner starts with nothing of its own and steals the tail...
  for (const auto expected_begin : {6u, 4u, 2u}) {
    const auto unit = pool.acquire(1);
    ASSERT_TRUE(unit);
    EXPECT_EQ(unit->begin, expected_begin);
    for (std::size_t i = unit->begin; i < unit->end; ++i)
      EXPECT_TRUE(pool.complete_cell(i));
    pool.finish_unit(1);
  }
  EXPECT_EQ(pool.host_counters(1).stolen_units, 3u);
  // ...then clones the straggler's in-flight unit.
  const auto clone = pool.acquire(1);
  ASSERT_TRUE(clone);
  EXPECT_EQ(clone->begin, 0u);
  EXPECT_EQ(clone->attempt, 1u);
  EXPECT_EQ(pool.host_counters(1).speculated_units, 1u);
  for (std::size_t i = clone->begin; i < clone->end; ++i)
    EXPECT_TRUE(pool.complete_cell(i));
  pool.finish_unit(1);
  EXPECT_TRUE(pool.all_settled());
  EXPECT_FALSE(pool.acquire(0));
  EXPECT_EQ(pool.host_counters(0).stolen_units, 0u);
}

TEST(Scheduler, LateAdmittedWorkerAbsorbsAWedgedSweep) {
  // The configured fleet is one wedged host (accepts shards, never
  // answers). A worker joining through the admission port mid-sweep
  // must steal the queued work, speculate on the wedged unit, and
  // settle every cell — bit-identical to in-process — while the wedged
  // host exits via sweep-settled, not via its (long) cell timeout.
  const auto spec = spec8();
  const auto reference = BatchEngine({.workers = 1}).run(spec);

  SchedulerOptions options;
  options.hosts = {"wedged"};
  options.transport = std::make_shared<FakeTransport>(
      std::map<std::string, FakeBehavior>{{"wedged", {.black_hole = true}}});
  options.cell_timeout_seconds = 120.0;  // only sweep-settled can end it
  options.speculate_after_seconds = 0.0;
  options.max_attempts = 3;
  options.admit_port = 0;  // ephemeral; read back through the callback
  std::promise<std::uint16_t> admit_port;
  options.on_admit_port = [&](std::uint16_t port) {
    admit_port.set_value(port);
  };

  ScheduleResult outcome;
  std::thread sweep([&] { outcome = Scheduler(options).run(spec); });
  const auto port = admit_port.get_future().get();

  // The late worker: what `phonoc_workerd --join=127.0.0.1:PORT` does.
  TcpTransport dialer;
  auto conn = dialer.connect("127.0.0.1:" + std::to_string(port));
  ASSERT_TRUE(conn);
  const auto served = serve_connection(*conn, {.threads = 2});
  conn->close();
  sweep.join();

  EXPECT_EQ(served, cell_count(spec));
  expect_all_identical(spec, outcome.results, reference);
  ASSERT_EQ(outcome.hosts.size(), 2u);
  EXPECT_FALSE(outcome.hosts[0].admitted_late);
  EXPECT_EQ(outcome.hosts[0].cells_ok, 0u);
  const auto& joiner = outcome.hosts[1];
  EXPECT_TRUE(joiner.admitted_late);
  EXPECT_TRUE(joiner.connected);
  EXPECT_EQ(joiner.endpoint, "admitted#0");
  EXPECT_EQ(joiner.capacity, 2u);
  EXPECT_EQ(joiner.cells_ok, cell_count(spec));
  // It reached the work through the ledger, not an initial deal.
  EXPECT_GT(joiner.steals + joiner.speculations + joiner.retries, 0u);
  for (const auto owner : outcome.cell_host) EXPECT_EQ(owner, 1);
}

// --- TcpListener --------------------------------------------------------------

/// A blocking loopback dial with no framing: the peer of raw-socket checks.
int dial_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// The port of `fd`'s own end (`peer` false) or of its peer's.
int port_of(int fd, bool peer) {
  struct sockaddr_in addr {};
  socklen_t len = sizeof addr;
  auto* raw = reinterpret_cast<struct sockaddr*>(&addr);
  if ((peer ? ::getpeername(fd, raw, &len) : ::getsockname(fd, raw, &len)) !=
          0 ||
      addr.sin_family != AF_INET)
    return -1;
  return ntohs(addr.sin_port);
}

int nodelay_of(int fd) {
  int value = -1;
  socklen_t len = sizeof value;
  if (::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len) != 0) return -1;
  return value;
}

TEST(TcpListener, AcceptedSocketsHaveNagleDisabled) {
  TcpListener listener(0);
  // A timeout of decades is clamped, not overflowed; a queued dial
  // returns at once.
  const int client = dial_loopback(listener.port());
  ASSERT_GE(client, 0);
  const int fd = listener.accept_fd_for(1e9);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(nodelay_of(fd), 1);
  ::close(fd);
  ::close(client);

  // accept_for wraps its descriptor in a Connection: find the socket
  // among this process's descriptors by the dialing end's port.
  const int second = dial_loopback(listener.port());
  ASSERT_GE(second, 0);
  const auto conn = listener.accept_for(5.0);
  ASSERT_NE(conn, nullptr);
  const int client_port = port_of(second, /*peer=*/false);
  int accepted = -1;
  for (int candidate = 0; candidate < 4096 && accepted < 0; ++candidate)
    if (candidate != second && port_of(candidate, /*peer=*/true) ==
                                   client_port &&
        port_of(candidate, /*peer=*/false) == listener.port())
      accepted = candidate;
  ASSERT_GE(accepted, 0) << "the accepted socket was not found";
  EXPECT_EQ(nodelay_of(accepted), 1);
  ::close(second);
}

/// The forked child of the descriptor-exhaustion test. Returns 0 when
/// every step held, else the number of the first step that failed.
int accept_through_descriptor_exhaustion() {
  TcpListener listener(0);
  const int client = dial_loopback(listener.port());  // waits in the backlog
  if (client < 0) return 1;
  struct rlimit limit {};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return 2;
  limit.rlim_cur = std::min<rlim_t>(limit.rlim_cur, 64);
  if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) return 2;
  std::vector<int> filler;
  for (int fd; (fd = ::dup(client)) >= 0;) filler.push_back(fd);
  if (errno != EMFILE) return 3;
  // accept4 now fails with EMFILE. The listener must keep waiting for
  // its timeout instead of reporting a dead listener at once.
  const Timer waited;
  const int none = listener.accept_fd_for(0.2);
  if (none >= 0) return 4;
  if (waited.elapsed_seconds() < 0.15) return 5;
  for (const int fd : filler) ::close(fd);
  const int accepted = listener.accept_fd_for(5.0);  // the queued dial
  if (accepted < 0) return 6;
  return 0;
}

TEST(TcpListener, RunningOutOfDescriptorsWaitsInsteadOfFailing) {
  // Forked, so the lowered descriptor limit cannot leak into the suite.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) ::_exit(accept_through_descriptor_exhaustion());
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "step " << WEXITSTATUS(status) << " failed";
}

}  // namespace
}  // namespace phonoc
