// Unit tests for the util layer: units, rng, stats, strings, cli.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <new>
#include <numeric>
#include <set>
#include <sstream>
#include <tuple>
#include <vector>

#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"
#include "util/units.hpp"

// Every global `operator new` of this binary counts itself, so a test
// can assert that a code path allocates nothing.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }

namespace phonoc {
namespace {

// --- units ----------------------------------------------------------------

TEST(Units, DbToLinearKnownValues) {
  EXPECT_NEAR(db_to_linear(0.0), 1.0, 1e-12);
  EXPECT_NEAR(db_to_linear(-3.0103), 0.5, 1e-4);
  EXPECT_NEAR(db_to_linear(-10.0), 0.1, 1e-12);
  EXPECT_NEAR(db_to_linear(-20.0), 0.01, 1e-12);
  EXPECT_NEAR(db_to_linear(-40.0), 1e-4, 1e-15);
}

TEST(Units, LinearToDbRoundTrip) {
  for (const double db : {-0.005, -0.04, -0.5, -3.0, -20.0, -40.0}) {
    EXPECT_NEAR(linear_to_db(db_to_linear(db)), db, 1e-9);
  }
}

TEST(Units, LinearToDbNonPositiveIsMinusInfinity) {
  EXPECT_EQ(linear_to_db(0.0), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(linear_to_db(-1.0), -std::numeric_limits<double>::infinity());
}

TEST(Units, SnrDb) {
  EXPECT_NEAR(snr_db(1.0, 0.01), 20.0, 1e-9);
  EXPECT_NEAR(snr_db(0.5, 0.5), 0.0, 1e-9);
  EXPECT_EQ(snr_db(1.0, 0.0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(snr_db(0.0, 0.1), -std::numeric_limits<double>::infinity());
}

TEST(Units, MmToCm) {
  EXPECT_DOUBLE_EQ(mm_to_cm(25.0), 2.5);
  EXPECT_DOUBLE_EQ(mm_to_cm(0.0), 0.0);
}

// --- rng --------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1000000007ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);  // LLN sanity
}

TEST(Rng, NextBoolEdgeCases) {
  Rng rng(5);
  EXPECT_FALSE(rng.next_bool(0.0));
  EXPECT_TRUE(rng.next_bool(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.next_bool(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(v);
  std::set<int> unique(v.begin(), v.end());
  EXPECT_EQ(unique.size(), 50u);
  EXPECT_EQ(*unique.begin(), 0);
  EXPECT_EQ(*unique.rbegin(), 49);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(42);
  Rng child = parent.fork();
  // The child must not replay the parent's sequence.
  Rng parent_copy(42);
  (void)parent_copy();  // advance past the fork draw
  int same = 0;
  for (int i = 0; i < 32; ++i)
    if (child() == parent_copy()) ++same;
  EXPECT_LT(same, 4);
}

TEST(Rng, SplitMixNonZero) {
  std::uint64_t s = 0;
  EXPECT_NE(splitmix64(s), 0u);
}

// --- stats -------------------------------------------------------------------

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats stats;
  for (const auto x : xs) stats.add(x);
  EXPECT_EQ(stats.count(), xs.size());
  const double mean = std::accumulate(xs.begin(), xs.end(), 0.0) / 5.0;
  EXPECT_NEAR(stats.mean(), mean, 1e-12);
  double var = 0;
  for (const auto x : xs) var += (x - mean) * (x - mean);
  var /= 4.0;
  EXPECT_NEAR(stats.variance(), var, 1e-12);
  EXPECT_NEAR(stats.stddev(), std::sqrt(var), 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 16.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats all, left, right;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10;
    all.add(x);
    (i < 37 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  stats.add(5.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, MergeEmptyIntoEmptyStaysEmpty) {
  RunningStats a, b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(RunningStats, OneSidedMergesAreExact) {
  RunningStats filled;
  filled.add(-3.0);
  filled.add(7.5);
  filled.add(1.25);

  // empty.merge(filled) adopts the filled side bit-for-bit.
  RunningStats empty_into;
  empty_into.merge(filled);
  EXPECT_EQ(empty_into.count(), filled.count());
  EXPECT_EQ(empty_into.mean(), filled.mean());
  EXPECT_EQ(empty_into.variance(), filled.variance());
  EXPECT_EQ(empty_into.min(), filled.min());
  EXPECT_EQ(empty_into.max(), filled.max());

  // filled.merge(empty) is a no-op — in particular the sentinel 0s of
  // the empty side must not leak into min/max or the mean.
  RunningStats into_filled = filled;
  into_filled.merge(RunningStats{});
  EXPECT_EQ(into_filled.count(), filled.count());
  EXPECT_EQ(into_filled.mean(), filled.mean());
  EXPECT_EQ(into_filled.variance(), filled.variance());
  EXPECT_EQ(into_filled.min(), -3.0);
  EXPECT_EQ(into_filled.max(), 7.5);
}

TEST(Histogram, BinningAndProbability) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  EXPECT_EQ(h.total(), 10u);
  for (std::size_t b = 0; b < 10; ++b) {
    EXPECT_EQ(h.count(b), 1u);
    EXPECT_NEAR(h.probability(b), 0.1, 1e-12);
  }
}

TEST(Histogram, UnderOverflow) {
  Histogram h(0.0, 1.0, 4);
  h.add(-1.0);
  h.add(2.0);
  h.add(1.0);  // hi edge counts as overflow (half-open range)
  h.add(0.0);  // lo edge is inside
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, HiBoundaryIsExclusiveEvenForNonRepresentableWidths) {
  // 0.3 and 0.1 are not exactly representable: exactly the situation
  // where value >= hi_ and the bin arithmetic can disagree.
  Histogram h(0.0, 0.3, 3);
  h.add(0.3);  // == hi: overflow, never bin 2
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(2), 0u);
  h.add(std::nextafter(0.3, 0.0));  // just below hi: last bin
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(2), 1u);
}

TEST(Histogram, FpEdgeGuardClampsIndexIntoTheLastBin) {
  // For values just below hi, (value - lo) / bin_width can round up to
  // exactly `bins`; the guard must clamp the index instead of writing
  // one past the counts array. Sweep many awkward ranges so at least
  // some hit the rounding case; all must land in the last bin.
  for (const auto [lo, hi, bins] : {std::tuple{0.0, 0.7, std::size_t{7}},
                                    std::tuple{-1.1, 1.3, std::size_t{49}},
                                    std::tuple{0.0, 1.0, std::size_t{3}},
                                    std::tuple{2.5, 9.1, std::size_t{11}}}) {
    Histogram h(lo, hi, bins);
    const double below = std::nextafter(hi, lo);
    h.add(below);
    EXPECT_EQ(h.overflow(), 0u) << lo << ' ' << hi << ' ' << bins;
    EXPECT_EQ(h.count(bins - 1), 1u) << lo << ' ' << hi << ' ' << bins;
    EXPECT_EQ(h.total(), 1u);
  }
}

TEST(Histogram, BinEdges) {
  Histogram h(-4.0, 0.0, 8);
  EXPECT_DOUBLE_EQ(h.bin_low(0), -4.0);
  EXPECT_DOUBLE_EQ(h.bin_high(7), 0.0);
}

TEST(Histogram, RejectsDegenerateConfig) {
  EXPECT_THROW(Histogram(0.0, 0.0, 4), InvalidArgument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), InvalidArgument);
}

TEST(Histogram, MergeRejectsMismatchedBinnings) {
  Histogram base(0.0, 10.0, 10);
  EXPECT_THROW(base.merge(Histogram(0.0, 10.0, 20)), InvalidArgument);
  EXPECT_THROW(base.merge(Histogram(0.0, 9.0, 10)), InvalidArgument);
  EXPECT_THROW(base.merge(Histogram(-1.0, 10.0, 10)), InvalidArgument);
  // A failed merge must leave the target untouched.
  EXPECT_EQ(base.total(), 0u);
}

TEST(Histogram, MergeOfSplitsEqualsSinglePassBitExactly) {
  // The same value stream, accumulated in one pass and in three
  // interleaved shards, must agree bin for bin — including the
  // underflow/overflow counters the shards hit at different rates.
  Histogram whole(-2.0, 2.0, 16);
  Histogram shards[3]{{-2.0, 2.0, 16}, {-2.0, 2.0, 16}, {-2.0, 2.0, 16}};
  std::uint64_t state = 99;
  for (int i = 0; i < 3000; ++i) {
    // Cheap deterministic values spanning [-3, 3): both tails overflow.
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double value =
        static_cast<double>(state >> 11) /
            static_cast<double>(1ull << 53) * 6.0 - 3.0;
    whole.add(value);
    shards[i % 3].add(value);
  }
  Histogram merged = shards[0];
  merged.merge(shards[1]);
  merged.merge(shards[2]);
  EXPECT_EQ(merged.total(), whole.total());
  EXPECT_EQ(merged.underflow(), whole.underflow());
  EXPECT_EQ(merged.overflow(), whole.overflow());
  EXPECT_GT(whole.underflow(), 0u);  // the tails were really exercised
  EXPECT_GT(whole.overflow(), 0u);
  for (std::size_t b = 0; b < whole.bins(); ++b)
    EXPECT_EQ(merged.count(b), whole.count(b)) << "bin " << b;
}

TEST(Histogram, FromPartsRoundTripsAccumulatedState) {
  Histogram h(0.0, 4.0, 4);
  for (const double v : {-1.0, 0.5, 1.5, 1.6, 3.9, 7.0, 9.0}) h.add(v);
  std::vector<std::size_t> counts;
  for (std::size_t b = 0; b < h.bins(); ++b) counts.push_back(h.count(b));
  const auto restored = Histogram::from_parts(h.lo(), h.hi(), counts,
                                              h.underflow(), h.overflow());
  EXPECT_EQ(restored.total(), h.total());
  EXPECT_EQ(restored.underflow(), h.underflow());
  EXPECT_EQ(restored.overflow(), h.overflow());
  for (std::size_t b = 0; b < h.bins(); ++b)
    EXPECT_EQ(restored.count(b), h.count(b));
  EXPECT_THROW((void)Histogram::from_parts(0.0, 1.0, {}, 0, 0),
               InvalidArgument);
}

TEST(Histogram, QuantileInterpolatesWithinTheCrossingBin) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);  // one count per bin
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);   // crosses at the bin-5 boundary
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 2.5);  // halfway into bin 2
  EXPECT_DOUBLE_EQ(h.quantile(0.05), 0.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
  // Mass outside the range resolves to the range edges (the histogram
  // cannot know those sample values).
  Histogram tails(0.0, 1.0, 2);
  tails.add(-5.0);
  tails.add(0.25);
  tails.add(9.0);
  EXPECT_DOUBLE_EQ(tails.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(tails.quantile(1.0), 1.0);
  // Empty histogram: a defined 0, not UB.
  EXPECT_DOUBLE_EQ(Histogram(0.0, 1.0, 4).quantile(0.5), 0.0);
}

TEST(RunningStats, FromPartsRoundTripsTheAccumulator) {
  RunningStats original;
  for (const double v : {3.25, -1.5, 0.75, 12.0, -0.125}) original.add(v);
  const auto restored = RunningStats::from_parts(
      original.count(), original.mean(), original.sum_squared_deviations(),
      original.min(), original.max());
  EXPECT_EQ(restored.count(), original.count());
  EXPECT_EQ(restored.mean(), original.mean());  // bitwise
  EXPECT_EQ(restored.variance(), original.variance());
  EXPECT_EQ(restored.min(), original.min());
  EXPECT_EQ(restored.max(), original.max());
  // Merging a restored shard behaves exactly like merging the original.
  RunningStats base_a, base_b;
  base_a.add(7.0);
  base_b.add(7.0);
  base_a.merge(original);
  base_b.merge(restored);
  EXPECT_EQ(base_a.mean(), base_b.mean());
  EXPECT_EQ(base_a.sum_squared_deviations(), base_b.sum_squared_deviations());
}

TEST(Histogram, AsciiChartHasOneRowPerBin) {
  Histogram h(0.0, 3.0, 3);
  h.add(0.5);
  h.add(1.5);
  const auto chart = h.ascii_chart(10);
  EXPECT_EQ(std::count(chart.begin(), chart.end(), '\n'), 3);
}

TEST(Quantile, InterpolatesSorted) {
  std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

// --- strings -----------------------------------------------------------------

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\nx\r "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(Strings, SplitWs) {
  const auto parts = split_ws("  alpha\tbeta  gamma\n");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "alpha");
  EXPECT_EQ(parts[2], "gamma");
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Strings, StartsWithAndLower) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_EQ(to_lower("MiXeD"), "mixed");
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("-0.274"), -0.274);
  EXPECT_DOUBLE_EQ(parse_double("  42 "), 42.0);
  EXPECT_THROW((void)parse_double("abc"), ParseError);
  EXPECT_THROW((void)parse_double("1.5x"), ParseError);
  EXPECT_THROW((void)parse_double(""), ParseError);
}

TEST(Strings, ParseLong) {
  EXPECT_EQ(parse_long("123"), 123);
  EXPECT_EQ(parse_long("-7"), -7);
  EXPECT_THROW((void)parse_long("1.5"), ParseError);
}

TEST(Strings, ParseUintRangeChecksIntoItsType) {
  EXPECT_EQ(parse_uint<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_uint<std::uint32_t>(" 4294967295 "), 4294967295u);
  EXPECT_THROW((void)parse_uint<std::uint64_t>("18446744073709551616"),
               ParseError);
  EXPECT_THROW((void)parse_uint<std::uint32_t>("4294967296"), ParseError);
  for (const char* bad : {"-1", "+1", "12x", "", "1.0"})
    EXPECT_THROW((void)parse_uint<std::uint32_t>(bad), ParseError) << bad;
  try {
    (void)parse_uint<std::uint32_t>("4294967296", 7);
    ADD_FAILURE() << "2^32 fit in 32 bits";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 7);
  }
}

TEST(Strings, FormatFixed) {
  EXPECT_EQ(format_fixed(-1.525, 2), "-1.52");
  EXPECT_EQ(format_fixed(3.0, 1), "3.0");
}

TEST(Strings, FormatDoubleMatchesTheOstreamRenderingByteForByte) {
  // Every wire, journal, CSV and cache-key double goes through
  // format_double; its bytes must stay those of an ostream at
  // max_digits10, the rendering it replaced.
  const auto ostream_rendering = [](double value) {
    std::ostringstream out;
    out.precision(std::numeric_limits<double>::max_digits10);
    out << value;
    return out.str();
  };
  using limits = std::numeric_limits<double>;
  std::vector<double> values = {0.0,
                                -0.0,
                                1.0,
                                -1.0,
                                0.1,
                                1.0 / 3.0,
                                limits::denorm_min(),
                                -limits::denorm_min(),
                                limits::min(),
                                limits::max(),
                                limits::lowest(),
                                limits::epsilon()};
  for (int e = -1074; e <= 1023; ++e) values.push_back(std::ldexp(1.0, e));
  for (int e = -300; e <= 300; ++e) values.push_back(std::pow(10.0, e));
  Rng rng(2024);
  for (int i = 0; i < 100000; ++i) {
    const double value = std::bit_cast<double>(rng());
    if (std::isfinite(value)) values.push_back(value);
    values.push_back(-200.0 + 400.0 * rng.next_double());
  }
  for (const double value : values)
    ASSERT_EQ(format_double(value), ostream_rendering(value))
        << "bits " << std::hex << std::bit_cast<std::uint64_t>(value);
  // Non-finite values keep their canonical from_chars tokens.
  EXPECT_EQ(format_double(limits::quiet_NaN()), "nan");
  EXPECT_EQ(format_double(-limits::quiet_NaN()), "-nan");
  EXPECT_EQ(format_double(limits::infinity()), "inf");
  EXPECT_EQ(format_double(-limits::infinity()), "-inf");
}

// --- cli ----------------------------------------------------------------------

TEST(Cli, ParsesAllForms) {
  // Note: a bare `--flag` followed by a non-option token consumes that
  // token as its value, so positional args must precede bare flags.
  const char* argv[] = {"prog",   "--alpha=1", "--beta", "two",
                        "pos1",   "--flag",    "--gamma=x=y"};
  CliOptions cli(7, argv);
  EXPECT_EQ(cli.get_or("alpha", ""), "1");
  EXPECT_EQ(cli.get_or("beta", ""), "two");
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_EQ(cli.get_or("gamma", ""), "x=y");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, PortReaderRejectsValuesOutsideTheTcpRange) {
  // An unchecked narrowing cast would wrap these onto other ports:
  // 70000 onto 4464, -1 onto 65535.
  const char* argv[] = {"prog", "--a=0", "--b=65535", "--c=70000", "--d=-1"};
  CliOptions cli(5, argv);
  EXPECT_EQ(cli.get_port("a", 1), 0);
  EXPECT_EQ(cli.get_port("b", 1), 65535);
  EXPECT_EQ(cli.get_port("missing", 7401), 7401);
  EXPECT_THROW((void)cli.get_port("c", 1), InvalidArgument);
  EXPECT_THROW((void)cli.get_port("d", 1), InvalidArgument);
}

TEST(Cli, UintReaderRejectsNegativeAndOverflowingCounts) {
  // A cast from get_int would wrap -1 into SIZE_MAX (lifting a bound)
  // and 2^32 into 0 for a 32-bit count.
  const char* argv[] = {"prog",
                        "--a=0",
                        "--b=4096",
                        "--c=-1",
                        "--d=4294967296",
                        "--e=18446744073709551616",
                        "--f=12x"};
  CliOptions cli(7, argv);
  EXPECT_EQ(cli.get_uint<std::size_t>("a", 7), 0u);
  EXPECT_EQ(cli.get_uint<std::size_t>("b", 7), 4096u);
  EXPECT_EQ(cli.get_uint<std::uint64_t>("d", 7), 4294967296u);
  EXPECT_EQ(cli.get_uint<std::size_t>("missing", 7), 7u);
  EXPECT_THROW((void)cli.get_uint<std::size_t>("c", 7), InvalidArgument);
  EXPECT_THROW((void)cli.get_uint<std::uint32_t>("d", 7), InvalidArgument);
  EXPECT_THROW((void)cli.get_uint<std::uint64_t>("e", 7), InvalidArgument);
  EXPECT_THROW((void)cli.get_uint<std::size_t>("f", 7), InvalidArgument);
  try {
    (void)cli.get_uint<std::size_t>("c", 7);
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--c"), std::string::npos)
        << e.what();
  }
}

TEST(Cli, EnvUintRejectsNegativeOverflowingAndGarbledValues) {
  // A signed read and a cast would wrap -1 into a near-2^64 budget, and
  // a fallback on garbage would run silently with another budget.
  const char* name = "PHONOC_TEST_ENV_UINT";
  const auto read = [&](const char* value) {
    ::setenv(name, value, 1);
    return env_uint<std::uint32_t>(name, 7);
  };
  ::unsetenv(name);
  EXPECT_EQ(env_uint<std::uint32_t>(name, 7), 7u);
  EXPECT_EQ(read(""), 7u);  // set but empty reads as unset
  EXPECT_EQ(read("0"), 0u);
  EXPECT_EQ(read("4000"), 4000u);
  EXPECT_EQ(read("4294967295"), 4294967295u);
  for (const char* bad : {"-1", "4294967296", "18446744073709551616", "abc",
                          "12x", " "}) {
    SCOPED_TRACE(bad);
    try {
      (void)read(bad);
      ADD_FAILURE() << "expected InvalidArgument";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  }
  ::unsetenv(name);
}

TEST(Cli, TypedAccessorsAndFallbacks) {
  const char* argv[] = {"prog", "--n=42", "--x=2.5", "--no=false"};
  CliOptions cli(4, argv);
  EXPECT_EQ(cli.get_int("n", 0), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 0.0), 2.5);
  EXPECT_FALSE(cli.get_bool("no", true));
  EXPECT_EQ(cli.get_int("missing", 7), 7);
  EXPECT_FALSE(cli.has("missing"));
}

// --- timer / error -------------------------------------------------------------

TEST(Timer, Monotonic) {
  Timer t;
  const double a = t.elapsed_seconds();
  const double b = t.elapsed_seconds();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(Error, RequireThrowsWithMessage) {
  EXPECT_NO_THROW(require(true, "ok"));
  try {
    require(false, "the message");
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "the message");
  }
  EXPECT_THROW(require_model(false, "m"), ModelError);
}

TEST(Error, PassingChecksAllocateNothing) {
  // Both messages are longer than any small-string buffer, so building
  // a std::string from either would allocate.
  constexpr const char* kLong =
      "Mapping: a precondition message longer than fifteen bytes";
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 100; ++i) {
    require(i >= 0, kLong);
    require_model(i >= 0, kLong);
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
  try {
    require(false, kLong);
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), kLong);
  }
}

TEST(Error, ParseErrorCarriesLine) {
  const ParseError e("bad", 12);
  EXPECT_EQ(e.line(), 12);
  EXPECT_NE(std::string(e.what()).find("line 12"), std::string::npos);
}

TEST(Log, LineShapeIsPinned) {
  // Operators grep daemon stderr by these bytes: level tag padded to
  // five characters, then the optional subsystem tag.
  std::ostringstream captured;
  struct Restore {
    std::streambuf* saved;
    ~Restore() { std::cerr.rdbuf(saved); }
  } restore{std::cerr.rdbuf(captured.rdbuf())};
  log_warning("sched") << "x";
  log_warning() << "x";
  log_error("sched") << "x";
  EXPECT_EQ(captured.str(),
            "[phonoc WARN  sched] x\n"
            "[phonoc WARN ] x\n"
            "[phonoc ERROR sched] x\n");
}

}  // namespace
}  // namespace phonoc
