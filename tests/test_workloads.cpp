// Tests for the benchmark applications and synthetic generators.

#include <gtest/gtest.h>

#include <map>

#include "graph/algorithms.hpp"
#include "util/error.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/generator.hpp"

namespace phonoc {
namespace {

TEST(Benchmarks, PaperTaskCounts) {
  // Task counts exactly as printed in the paper's §III.
  const std::map<std::string, std::size_t> expected{
      {"263dec_mp3dec", 14}, {"263enc_mp3enc", 12}, {"dvopd", 32},
      {"mpeg4", 12},         {"mwd", 12},           {"pip", 8},
      {"vopd", 16},          {"wavelet", 22}};
  for (const auto& [name, tasks] : expected) {
    const auto cg = make_benchmark(name);
    EXPECT_EQ(cg.task_count(), tasks) << name;
    EXPECT_NO_THROW(cg.validate());
  }
}

TEST(Benchmarks, PaperEdgeCounts) {
  // Edge counts the paper states explicitly.
  EXPECT_EQ(make_benchmark("mpeg4").communication_count(), 26u);
  EXPECT_EQ(make_benchmark("mwd").communication_count(), 12u);
  EXPECT_EQ(make_benchmark("263enc_mp3enc").communication_count(), 12u);
  EXPECT_EQ(make_benchmark("pip").communication_count(), 8u);
}

TEST(Benchmarks, DvopdIsTwoCoupledVopdPlanes) {
  const auto vopd = make_benchmark("vopd");
  const auto dvopd = make_benchmark("dvopd");
  EXPECT_EQ(dvopd.task_count(), 2 * vopd.task_count());
  EXPECT_EQ(dvopd.communication_count(),
            2 * vopd.communication_count() + 2);  // + arm coupling pair
  EXPECT_NE(dvopd.find_task("vld_0"), kInvalidNode);
  EXPECT_NE(dvopd.find_task("vld_1"), kInvalidNode);
  EXPECT_TRUE(is_weakly_connected(dvopd.graph()));
}

TEST(Benchmarks, Mpeg4HasSdramHub) {
  const auto cg = make_benchmark("mpeg4");
  const auto sdram = cg.find_task("sdram");
  ASSERT_NE(sdram, kInvalidNode);
  EXPECT_EQ(cg.graph().in_degree(sdram) + cg.graph().out_degree(sdram), 16u);
  EXPECT_TRUE(is_weakly_connected(cg.graph()));
}

TEST(Benchmarks, CombinedAppsMayBeDisconnected) {
  // 263dec_mp3dec is two independent decoders sharing the chip — its CG
  // has two weakly-connected components by design.
  const auto cg = make_benchmark("263dec_mp3dec");
  EXPECT_FALSE(is_weakly_connected(cg.graph()));
}

TEST(Benchmarks, NamesRoundTripThroughFactory) {
  for (const auto& name : benchmark_names())
    EXPECT_EQ(make_benchmark(name).name(), name);
  EXPECT_EQ(benchmark_names().size(), 8u);
}

TEST(Benchmarks, CaseInsensitiveAndAlias) {
  EXPECT_EQ(make_benchmark("VOPD").task_count(), 16u);
  EXPECT_EQ(make_benchmark("MPEG-4").task_count(), 12u);
  EXPECT_THROW(make_benchmark("doom"), InvalidArgument);
}

TEST(Benchmarks, AllBandwidthsPositive) {
  for (const auto& name : benchmark_names())
    for (const auto& e : make_benchmark(name).edges())
      EXPECT_GT(e.bandwidth_mbps, 0.0) << name;
}

// --- generators -----------------------------------------------------------------

TEST(Generator, PipelineStructure) {
  const auto cg = pipeline_cg(5, 100.0);
  EXPECT_EQ(cg.task_count(), 5u);
  EXPECT_EQ(cg.communication_count(), 4u);
  const auto order = topological_order(cg.graph());
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(cg.graph().out_degree(0), 1u);
  EXPECT_EQ(cg.graph().in_degree(4), 1u);
}

TEST(Generator, RandomDeterministicPerSeed) {
  RandomCgOptions options;
  options.tasks = 20;
  options.seed = 77;
  const auto a = random_cg(options);
  const auto b = random_cg(options);
  ASSERT_EQ(a.communication_count(), b.communication_count());
  const auto ea = a.edges();
  const auto eb = b.edges();
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].src, eb[i].src);
    EXPECT_EQ(ea[i].dst, eb[i].dst);
    EXPECT_DOUBLE_EQ(ea[i].bandwidth_mbps, eb[i].bandwidth_mbps);
  }
  options.seed = 78;
  const auto c = random_cg(options);
  EXPECT_TRUE(c.communication_count() != a.communication_count() ||
              c.edges()[0].src != a.edges()[0].src ||
              c.edges()[0].bandwidth_mbps != a.edges()[0].bandwidth_mbps);
}

TEST(Generator, RandomAcyclicFlagHonoured) {
  RandomCgOptions options;
  options.tasks = 24;
  options.avg_out_degree = 3.0;
  options.acyclic = true;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    options.seed = seed;
    EXPECT_FALSE(has_cycle(random_cg(options).graph()));
  }
}

TEST(Generator, RandomAlwaysHasAtLeastOneEdge) {
  RandomCgOptions options;
  options.tasks = 2;
  options.avg_out_degree = 1e-9;  // edge probability ~ 0
  const auto cg = random_cg(options);
  EXPECT_GE(cg.communication_count(), 1u);
}

TEST(Generator, RandomBandwidthsInRange) {
  RandomCgOptions options;
  options.tasks = 30;
  options.min_bandwidth = 10.0;
  options.max_bandwidth = 20.0;
  options.avg_out_degree = 4.0;
  const auto cg = random_cg(options);
  for (const auto& e : cg.edges()) {
    EXPECT_GE(e.bandwidth_mbps, 10.0);
    EXPECT_LE(e.bandwidth_mbps, 20.0);
  }
}

TEST(Generator, RejectsBadOptions) {
  EXPECT_THROW(pipeline_cg(1), InvalidArgument);
  RandomCgOptions bad;
  bad.avg_out_degree = 0.0;
  EXPECT_THROW(random_cg(bad), InvalidArgument);
  RandomCgOptions bw;
  bw.min_bandwidth = 10;
  bw.max_bandwidth = 5;
  EXPECT_THROW(random_cg(bw), InvalidArgument);
}

/// Generator sweep: graphs stay simple (CommGraph invariants hold) for a
/// spread of sizes and densities.
class GeneratorSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(GeneratorSweep, ProducesValidSimpleGraphs) {
  RandomCgOptions options;
  options.tasks = std::get<0>(GetParam());
  options.avg_out_degree = std::get<1>(GetParam());
  options.seed = 13;
  options.acyclic = false;
  const auto cg = random_cg(options);
  EXPECT_EQ(cg.task_count(), options.tasks);
  EXPECT_NO_THROW(cg.validate());
  // Density sanity: cannot exceed the simple-digraph bound.
  EXPECT_LE(cg.communication_count(),
            options.tasks * (options.tasks - 1));
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndDensities, GeneratorSweep,
    ::testing::Combine(::testing::Values<std::size_t>(4, 9, 16, 36),
                       ::testing::Values(0.5, 1.5, 4.0)));

}  // namespace
}  // namespace phonoc
