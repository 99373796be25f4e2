// The golden cell digest: recompute the 320-cell set of tests/golden.hpp
// and compare it with the committed tests/golden/ files. Every other
// bit-identity test compares two paths inside one build (backend against
// backend, kernel against the oracle, tracing on against off); this one
// compares the build with the commit that recorded the set, so a change
// that moves both sides of an in-build comparison together still fails
// here. Only an intended model change may update the files
// (golden_regen, tests/golden/README.md).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "golden.hpp"

namespace phonoc {
namespace {

/// The set runs once per process; both tests read it.
const std::vector<golden::Cell>& recomputed() {
  static const auto cells = golden::run_cells(4);
  return cells;
}

TEST(Golden, EveryCellMatchesItsCommittedDigest) {
  const auto want =
      golden::read_lines(golden::directory() + '/' + golden::kCellsFile);
  const auto& cells = recomputed();
  ASSERT_EQ(cells.size(), 320u);
  ASSERT_EQ(want.size(), cells.size())
      << "tests/golden/" << golden::kCellsFile << " holds " << want.size()
      << " digest lines";
  for (std::size_t n = 0; n < cells.size(); ++n) {
    const auto got = golden::digest_line(n, cells[n]);
    if (got != want[n]) FAIL() << golden::describe_mismatch(got, want[n]);
  }
}

TEST(Golden, BestFitnessTableMatches) {
  std::ifstream in(golden::directory() + '/' + golden::kTableFile);
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(golden::best_fitness_table(recomputed()), want.str());
}

TEST(Golden, MismatchNamesTheFirstFieldThatMoved) {
  const std::string want =
      "7 fleet 7 pip mesh snr rs 2 00000000000000aa cell=1 search=2 t=3";
  EXPECT_EQ(golden::describe_mismatch(
                "7 fleet 7 pip mesh snr rs 2 00000000000000ab cell=1 "
                "search=9 t=4",
                want),
            "cell 7 fleet 7 pip mesh snr rs 2: field 'search' differs "
            "(got search=9, want search=2)");
  EXPECT_NE(golden::describe_mismatch(
                "7 fleet 8 pip mesh snr rs 2 00000000000000aa", want)
                .find("the coordinates differ"),
            std::string::npos);
}

}  // namespace
}  // namespace phonoc
