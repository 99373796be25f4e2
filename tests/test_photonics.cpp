// Unit tests for the photonic element model: Table I parameters and the
// Eq. (1a)-(1j) transfer behaviour.

#include <gtest/gtest.h>

#include "photonics/elements.hpp"
#include "photonics/parameters.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace phonoc {
namespace {

LinearParameters paper_linear() {
  return LinearParameters::from(PhysicalParameters::paper_defaults());
}

TEST(Parameters, PaperDefaultsMatchTableI) {
  const auto p = PhysicalParameters::paper_defaults();
  EXPECT_DOUBLE_EQ(p.crossing_loss_db, -0.04);
  EXPECT_DOUBLE_EQ(p.propagation_loss_db_per_cm, -0.274);
  EXPECT_DOUBLE_EQ(p.ppse_off_loss_db, -0.005);
  EXPECT_DOUBLE_EQ(p.ppse_on_loss_db, -0.5);
  EXPECT_DOUBLE_EQ(p.cpse_off_loss_db, -0.045);
  EXPECT_DOUBLE_EQ(p.cpse_on_loss_db, -0.5);
  EXPECT_DOUBLE_EQ(p.crossing_crosstalk_db, -40.0);
  EXPECT_DOUBLE_EQ(p.pse_off_crosstalk_db, -20.0);
  EXPECT_DOUBLE_EQ(p.pse_on_crosstalk_db, -25.0);
  EXPECT_NO_THROW(p.validate());
}

TEST(Parameters, ValidateRejectsGains) {
  auto p = PhysicalParameters::paper_defaults();
  p.crossing_loss_db = 0.1;  // a passive crossing cannot amplify
  EXPECT_THROW(p.validate(), InvalidArgument);
}

TEST(Parameters, ValidateRejectsNonFinite) {
  auto p = PhysicalParameters::paper_defaults();
  p.pse_on_crosstalk_db = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(p.validate(), InvalidArgument);
}

TEST(Parameters, LinearConversion) {
  const auto lin = paper_linear();
  EXPECT_NEAR(lin.crossing_crosstalk, 1e-4, 1e-12);   // -40 dB
  EXPECT_NEAR(lin.pse_off_crosstalk, 1e-2, 1e-12);    // -20 dB
  EXPECT_NEAR(lin.ppse_on_loss, db_to_linear(-0.5), 1e-12);
  // 1 cm of waveguide: -0.274 dB.
  EXPECT_NEAR(linear_to_db(lin.propagation_gain(1.0)), -0.274, 1e-9);
  EXPECT_DOUBLE_EQ(lin.propagation_gain(0.0), 1.0);
}

// --- element transfers: every Eq. (1a)-(1j) case --------------------------------

TEST(Elements, PpseOffMatchesEq1a1b) {
  const auto lin = paper_linear();
  const auto t =
      element_transfer(ElementKind::Ppse, RingState::Off, Rail::A, lin);
  EXPECT_EQ(t.signal_out, Rail::A);                       // through
  EXPECT_NEAR(linear_to_db(t.signal_gain), -0.005, 1e-9); // Lp,off (1a)
  EXPECT_EQ(t.leak_out, Rail::B);                         // drop
  EXPECT_NEAR(linear_to_db(t.leak_gain), -20.0, 1e-9);    // Kp,off (1b)
}

TEST(Elements, PpseOnMatchesEq1c1d) {
  const auto lin = paper_linear();
  const auto t =
      element_transfer(ElementKind::Ppse, RingState::On, Rail::A, lin);
  EXPECT_EQ(t.signal_out, Rail::B);                       // drop
  EXPECT_NEAR(linear_to_db(t.signal_gain), -0.5, 1e-9);   // Lp,on (1c)
  EXPECT_EQ(t.leak_out, Rail::A);                         // through
  EXPECT_NEAR(linear_to_db(t.leak_gain), -25.0, 1e-9);    // Kp,on (1d)
}

TEST(Elements, CpseOffMatchesEq1e1f) {
  const auto lin = paper_linear();
  const auto t =
      element_transfer(ElementKind::Cpse, RingState::Off, Rail::A, lin);
  EXPECT_EQ(t.signal_out, Rail::A);
  EXPECT_NEAR(linear_to_db(t.signal_gain), -0.045, 1e-9);  // Lc,off (1e)
  EXPECT_EQ(t.leak_out, Rail::B);
  // Eq. (1f): Kp,off + Kc = 0.01 + 0.0001 in linear domain.
  EXPECT_NEAR(t.leak_gain, 0.01 + 0.0001, 1e-12);
}

TEST(Elements, CpseOnMatchesEq1g1h) {
  const auto lin = paper_linear();
  const auto t =
      element_transfer(ElementKind::Cpse, RingState::On, Rail::A, lin);
  EXPECT_EQ(t.signal_out, Rail::B);
  EXPECT_NEAR(linear_to_db(t.signal_gain), -0.5, 1e-9);   // Lc,on (1g)
  EXPECT_EQ(t.leak_out, Rail::A);
  EXPECT_NEAR(linear_to_db(t.leak_gain), -25.0, 1e-9);    // Kp,on (1h)
}

TEST(Elements, CrossingMatchesEq1i1j) {
  const auto lin = paper_linear();
  const auto t =
      element_transfer(ElementKind::Crossing, RingState::Off, Rail::B, lin);
  EXPECT_EQ(t.signal_out, Rail::B);                       // straight (1i)
  EXPECT_NEAR(linear_to_db(t.signal_gain), -0.04, 1e-9);  // Lc
  EXPECT_EQ(t.leak_out, Rail::A);                         // coupled (1j)
  EXPECT_NEAR(linear_to_db(t.leak_gain), -40.0, 1e-9);    // Kc
}

TEST(Elements, CrossingHasNoOnState) {
  const auto lin = paper_linear();
  EXPECT_THROW(
      (void)element_transfer(ElementKind::Crossing, RingState::On, Rail::A,
                             lin),
      ModelError);
}

TEST(Elements, TransferIsRailSymmetric) {
  const auto lin = paper_linear();
  for (const auto kind : {ElementKind::Ppse, ElementKind::Cpse}) {
    for (const auto state : {RingState::Off, RingState::On}) {
      const auto ta = element_transfer(kind, state, Rail::A, lin);
      const auto tb = element_transfer(kind, state, Rail::B, lin);
      EXPECT_DOUBLE_EQ(ta.signal_gain, tb.signal_gain);
      EXPECT_DOUBLE_EQ(ta.leak_gain, tb.leak_gain);
      EXPECT_EQ(ta.signal_out, other_rail(tb.signal_out));
      EXPECT_EQ(ta.leak_out, other_rail(tb.leak_out));
    }
  }
}

TEST(Elements, LeakAndSignalAlwaysOnOppositeRails) {
  const auto lin = paper_linear();
  const auto check = [&](ElementKind kind, RingState state) {
    const auto t = element_transfer(kind, state, Rail::A, lin);
    EXPECT_EQ(t.leak_out, other_rail(t.signal_out));
  };
  check(ElementKind::Crossing, RingState::Off);
  check(ElementKind::Ppse, RingState::Off);
  check(ElementKind::Ppse, RingState::On);
  check(ElementKind::Cpse, RingState::Off);
  check(ElementKind::Cpse, RingState::On);
}

TEST(Elements, HasRing) {
  EXPECT_FALSE(has_ring(ElementKind::Crossing));
  EXPECT_TRUE(has_ring(ElementKind::Ppse));
  EXPECT_TRUE(has_ring(ElementKind::Cpse));
}

/// Property sweep: signal gain <= 1 and leak gain < signal gain for all
/// element kinds/states under a range of parameter scalings.
class ElementPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(ElementPropertyTest, PassiveAndLeakWeakerThanSignal) {
  auto p = PhysicalParameters::paper_defaults();
  const double scale = GetParam();
  p.crossing_loss_db *= scale;
  p.ppse_off_loss_db *= scale;
  p.cpse_off_loss_db *= scale;
  p.ppse_on_loss_db *= scale;
  p.cpse_on_loss_db *= scale;
  const auto lin = LinearParameters::from(p);
  for (const auto kind :
       {ElementKind::Crossing, ElementKind::Ppse, ElementKind::Cpse}) {
    for (const auto state : {RingState::Off, RingState::On}) {
      if (kind == ElementKind::Crossing && state == RingState::On) continue;
      const auto t = element_transfer(kind, state, Rail::A, lin);
      EXPECT_LE(t.signal_gain, 1.0);
      EXPECT_GT(t.signal_gain, 0.0);
      EXPECT_LT(t.leak_gain, t.signal_gain);
      EXPECT_GT(t.leak_gain, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LossScales, ElementPropertyTest,
                         ::testing::Values(0.5, 1.0, 2.0, 5.0, 10.0));

}  // namespace
}  // namespace phonoc
