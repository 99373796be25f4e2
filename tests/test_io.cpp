// Tests for the IO layer: CG text format, architecture descriptions,
// CSV writer, table writer.

#include <gtest/gtest.h>

#include <sstream>

#include "io/arch_io.hpp"
#include "io/cg_io.hpp"
#include "io/csv.hpp"
#include "io/table_writer.hpp"
#include "util/error.hpp"
#include "workloads/benchmarks.hpp"

namespace phonoc {
namespace {

// --- CG format -------------------------------------------------------------------

TEST(CgIo, ParsesWellFormedInput) {
  std::istringstream in(R"(# a comment
cg demo
task a
task b
task c
edge a b 64      # trailing comment
edge b c 32.5
)");
  const auto cg = read_cg(in);
  EXPECT_EQ(cg.name(), "demo");
  EXPECT_EQ(cg.task_count(), 3u);
  EXPECT_EQ(cg.communication_count(), 2u);
  EXPECT_DOUBLE_EQ(cg.edges()[1].bandwidth_mbps, 32.5);
}

TEST(CgIo, RoundTripsEveryBenchmark) {
  for (const auto& name : benchmark_names()) {
    const auto original = make_benchmark(name);
    std::ostringstream out;
    write_cg(out, original);
    std::istringstream in(out.str());
    const auto parsed = read_cg(in);
    EXPECT_EQ(parsed.name(), original.name());
    ASSERT_EQ(parsed.task_count(), original.task_count());
    ASSERT_EQ(parsed.communication_count(), original.communication_count());
    const auto ea = original.edges();
    const auto eb = parsed.edges();
    for (std::size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(original.task_name(ea[i].src), parsed.task_name(eb[i].src));
      EXPECT_EQ(original.task_name(ea[i].dst), parsed.task_name(eb[i].dst));
      EXPECT_DOUBLE_EQ(ea[i].bandwidth_mbps, eb[i].bandwidth_mbps);
    }
  }
}

TEST(CgIo, ReportsErrorsWithLineNumbers) {
  const auto expect_parse_error = [](const std::string& text, int line) {
    std::istringstream in(text);
    try {
      (void)read_cg(in);
      FAIL() << "expected ParseError for: " << text;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), line) << e.what();
    }
  };
  expect_parse_error("task a\nfrobnicate b\n", 2);        // unknown directive
  expect_parse_error("task a\ntask a\n", 2);              // duplicate task
  expect_parse_error("task a\nedge a zz 1\n", 2);         // unknown endpoint
  expect_parse_error("task a\ntask b\nedge a b xx\n", 3); // bad number
  expect_parse_error("edge a\n", 1);                      // arity
  expect_parse_error("cg one\ncg two\n", 2);              // duplicate name
}

TEST(CgIo, EmptyInputFailsValidation) {
  std::istringstream in("# nothing\n");
  EXPECT_THROW((void)read_cg(in), InvalidArgument);
}

TEST(CgIo, FileRoundTrip) {
  const auto path = testing::TempDir() + "/phonoc_cg_test.cg";
  write_cg_file(path, make_benchmark("pip"));
  const auto parsed = read_cg_file(path);
  EXPECT_EQ(parsed.task_count(), 8u);
  EXPECT_THROW(read_cg_file("/nonexistent/nowhere.cg"), ParseError);
}

// --- architecture format ------------------------------------------------------------

TEST(ArchIo, ParsesFullDescription) {
  std::istringstream in(R"(
topology = torus
rows = 5
cols = 5
tile_pitch_mm = 3.0
router = crossbar
routing = torus_dor
fidelity = full
conflict_policy = ignore
snr_ceiling_db = 150
param.crossing_loss_db = -0.08
)");
  const auto spec = read_architecture(in);
  EXPECT_EQ(spec.topology, "torus");
  EXPECT_EQ(spec.rows, 5u);
  EXPECT_DOUBLE_EQ(spec.tile_pitch_mm, 3.0);
  EXPECT_EQ(spec.router, "crossbar");
  EXPECT_EQ(spec.model_options.fidelity, ModelFidelity::Full);
  EXPECT_EQ(spec.model_options.conflict_policy, ConflictPolicy::Ignore);
  EXPECT_DOUBLE_EQ(spec.model_options.snr_ceiling_db, 150.0);
  EXPECT_DOUBLE_EQ(spec.parameters.crossing_loss_db, -0.08);
  // Untouched parameters keep Table I defaults.
  EXPECT_DOUBLE_EQ(spec.parameters.pse_off_crosstalk_db, -20.0);
}

TEST(ArchIo, RejectsUnknownKeysAndValues) {
  const auto expect_error = [](const std::string& text) {
    std::istringstream in(text);
    EXPECT_THROW((void)read_architecture(in), ParseError) << text;
  };
  expect_error("warp = 9\n");
  expect_error("fidelity = medium\n");
  expect_error("conflict_policy = maybe\n");
  expect_error("param.flux_capacitor_db = -1\n");
  expect_error("rows 4\n");   // missing '='
  expect_error("rows =\n");   // empty value
  // Grid sizes are 32-bit: never wrapped to 2 or 4294967295.
  expect_error("rows = 4294967298\n");
  expect_error("cols = -1\n");
}

TEST(ArchIo, BuildNetworkHonoursSpec) {
  ArchitectureSpec spec;  // defaults: 4x4 mesh, crux, xy
  const auto net = build_network(spec);
  EXPECT_EQ(net->tile_count(), 16u);
  EXPECT_EQ(net->router().name(), "crux");
  EXPECT_EQ(net->routing().name(), "xy");
}

TEST(ArchIo, ParameterOverrideChangesTheModel) {
  ArchitectureSpec base;
  ArchitectureSpec lossy = base;
  lossy.parameters.cpse_off_loss_db = -0.5;  // 10x worse OFF loss
  const auto net_base = build_network(base);
  const auto net_lossy = build_network(lossy);
  EXPECT_LT(net_lossy->worst_case_path_loss_db(),
            net_base->worst_case_path_loss_db());
}

TEST(ArchIo, YxOnCruxFailsAtBuildTime) {
  ArchitectureSpec spec;
  spec.routing = "yx";  // Crux lacks Y->X turns
  EXPECT_THROW((void)build_network(spec), ModelError);
  spec.router = "crossbar";  // full crossbar serves YX fine
  EXPECT_NO_THROW((void)build_network(spec));
}

// --- shipped sample files ------------------------------------------------------------

TEST(SampleData, ShippedCgParsesAndMaps) {
  const auto cg =
      read_cg_file(std::string(PHONOC_REPO_DIR) +
                   "/examples/data/sample_app.cg");
  EXPECT_EQ(cg.name(), "sample_pipeline");
  EXPECT_EQ(cg.task_count(), 8u);
  EXPECT_EQ(cg.communication_count(), 10u);
  EXPECT_NE(cg.find_task("mem_ctrl"), kInvalidNode);
}

TEST(SampleData, ShippedArchBuildsItsNetwork) {
  const auto spec = read_architecture_file(
      std::string(PHONOC_REPO_DIR) + "/examples/data/sample_arch.txt");
  EXPECT_EQ(spec.topology, "torus");
  EXPECT_EQ(spec.routing, "torus_dor");
  EXPECT_DOUBLE_EQ(spec.parameters.crossing_loss_db, -0.05);
  const auto net = build_network(spec);
  EXPECT_EQ(net->tile_count(), 9u);
  EXPECT_EQ(net->router().name(), "crux");
}

// --- CSV ------------------------------------------------------------------------------

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesRows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"app", "snr_db"});
  csv.row({"pip", "38.58"});
  csv.row({"has,comma", "1"});
  EXPECT_EQ(out.str(), "app,snr_db\npip,38.58\n\"has,comma\",1\n");
}

// --- table writer ----------------------------------------------------------------------

TEST(TableWriter, AsciiAlignment) {
  TableWriter table({"app", "snr"});
  table.add_row({"pip", "38.6"});
  table.add_row({"wavelet", "32.5"});
  const auto text = table.to_ascii();
  EXPECT_NE(text.find("app      snr"), std::string::npos);
  EXPECT_NE(text.find("wavelet  32.5"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TableWriter, RejectsBadRows) {
  TableWriter table({"a", "b"});
  EXPECT_THROW(table.add_row({"only_one"}), InvalidArgument);
  EXPECT_THROW(TableWriter({}), InvalidArgument);
}

}  // namespace
}  // namespace phonoc
