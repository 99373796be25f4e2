// Unit tests for the router substrate: netlist construction, signal
// tracing, derived loss/crosstalk/conflict matrices, and the built-in
// router microarchitectures.

#include <gtest/gtest.h>

#include "photonics/parameters.hpp"
#include "router/crossbar.hpp"
#include "router/crux.hpp"
#include "router/parallel_router.hpp"
#include "router/ports.hpp"
#include "router/registry.hpp"
#include "router/router_model.hpp"
#include "router/tracer.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace phonoc {
namespace {

PhysicalParameters paper() { return PhysicalParameters::paper_defaults(); }

RouterModel crux_model() { return RouterModel(build_crux(), paper()); }

// --- ports -----------------------------------------------------------------

TEST(Ports, NamesAndOpposites) {
  EXPECT_EQ(standard_port_name(kPortLocal), "L");
  EXPECT_EQ(standard_port_name(kPortWest), "W");
  EXPECT_EQ(standard_port_name(7), "P7");
  EXPECT_EQ(opposite_port(kPortNorth), kPortSouth);
  EXPECT_EQ(opposite_port(kPortEast), kPortWest);
  EXPECT_EQ(opposite_port(kPortLocal), kPortLocal);
  EXPECT_THROW((void)opposite_port(9), InvalidArgument);
}

// --- netlist construction rules ----------------------------------------------

TEST(Netlist, RejectsDoubleWiring) {
  RouterNetlist n("test", {"in", "out"});
  const auto a = n.add_element(ElementKind::Crossing, "a");
  const auto b = n.add_element(ElementKind::Crossing, "b");
  n.wire(a, Rail::A, b, Rail::A);
  EXPECT_THROW(n.wire(a, Rail::A, b, Rail::B), InvalidArgument);  // out pin
  EXPECT_THROW(n.wire(b, Rail::B, b, Rail::A), InvalidArgument);  // in pin fed
}

TEST(Netlist, RejectsRinglessRingDeclaration) {
  RouterNetlist n("test", {"p0", "p1"});
  const auto x = n.add_element(ElementKind::Crossing, "x");
  EXPECT_THROW(n.add_connection(0, 1, {x}), InvalidArgument);
}

TEST(Netlist, RejectsDuplicateConnection) {
  RouterNetlist n("test", {"p0", "p1"});
  const auto e = n.add_element(ElementKind::Ppse, "e");
  n.wire_input(0, e, Rail::A);
  n.wire_output(e, Rail::A, 1);
  n.add_connection(0, 1, {});
  EXPECT_THROW(n.add_connection(0, 1, {e}), InvalidArgument);
}

TEST(Netlist, CountsRingsAndCrossings) {
  RouterNetlist n("test", {"p"});
  n.add_element(ElementKind::Crossing, "x");
  n.add_element(ElementKind::Ppse, "p");
  n.add_element(ElementKind::Cpse, "c");
  EXPECT_EQ(n.ring_count(), 2u);      // ppse + cpse
  EXPECT_EQ(n.crossing_count(), 2u);  // crossing + cpse
}

TEST(Netlist, ValidateCatchesUnwiredUsedPort) {
  RouterNetlist n("test", {"p0", "p1"});
  const auto e = n.add_element(ElementKind::Ppse, "e");
  n.wire_output(e, Rail::A, 1);
  n.add_connection(0, 1, {});
  EXPECT_THROW(n.validate(), ModelError);  // input port 0 not wired
}

// --- tracing a hand-built two-element netlist ----------------------------------

TEST(Tracer, HandBuiltPathLoss) {
  // in -> crossing -> ppse -> out. OFF: loss = Lc + Lp,off = -0.045 dB.
  RouterNetlist n("tiny", {"in", "out"});
  const auto x = n.add_element(ElementKind::Crossing, "x");
  const auto p = n.add_element(ElementKind::Ppse, "p");
  n.wire_input(0, x, Rail::A);
  n.wire(x, Rail::A, p, Rail::A);
  n.wire_output(p, Rail::A, 1);
  const auto conn = n.add_connection(0, 1, {});
  const auto lin = LinearParameters::from(paper());
  const auto trace = trace_connection(n, n.connections()[conn], lin);
  ASSERT_EQ(trace.steps.size(), 2u);
  EXPECT_EQ(trace.steps[0].element, x);
  EXPECT_EQ(trace.steps[1].element, p);
  EXPECT_NEAR(linear_to_db(trace.gain), -0.04 - 0.005, 1e-9);
}

TEST(Tracer, InternalWaveguideLengthContributes) {
  RouterNetlist n("tiny", {"in", "out"});
  const auto x = n.add_element(ElementKind::Crossing, "x");
  n.wire_input(0, x, Rail::A, /*length_cm=*/1.0);
  n.wire_output(x, Rail::A, 1, /*length_cm=*/1.0);
  n.add_connection(0, 1, {});
  const auto lin = LinearParameters::from(paper());
  const auto trace = trace_connection(n, n.connections()[0], lin);
  EXPECT_DOUBLE_EQ(trace.internal_length_cm, 2.0);
  EXPECT_NEAR(linear_to_db(trace.gain), -0.04 - 2 * 0.274, 1e-9);
}

TEST(Tracer, DetectsMisdeclaredOutputPort) {
  RouterNetlist n("bad", {"in", "out", "other"});
  const auto x = n.add_element(ElementKind::Crossing, "x");
  n.wire_input(0, x, Rail::A);
  n.wire_output(x, Rail::A, 2);        // actually reaches port 2
  n.add_connection(0, 1, {});          // but claims port 1
  const auto lin = LinearParameters::from(paper());
  EXPECT_THROW(trace_connection(n, n.connections()[0], lin), ModelError);
}

TEST(Tracer, DetectsTerminatedPath) {
  RouterNetlist n("dead", {"in", "out"});
  const auto x = n.add_element(ElementKind::Crossing, "x");
  n.wire_input(0, x, Rail::A);
  // rail A output terminated (never wired)
  n.add_connection(0, 1, {});
  const auto lin = LinearParameters::from(paper());
  EXPECT_THROW(trace_connection(n, n.connections()[0], lin), ModelError);
}

TEST(Tracer, SingleFanInMakesEveryWalkFinite) {
  // Each input pin accepts exactly one feeder, so a signal walk can
  // never revisit a pin: infinite loops are structurally impossible and
  // the tracer's step limit is pure defense in depth. A long chain of
  // elements traces with exactly one step per element.
  constexpr std::size_t kChain = 64;
  RouterNetlist n("chain", {"in", "out"});
  std::vector<ElementId> elems;
  for (std::size_t i = 0; i < kChain; ++i) {
    std::string name = "p";
    name += std::to_string(i);
    elems.push_back(n.add_element(ElementKind::Ppse, std::move(name)));
  }
  n.wire_input(0, elems.front(), Rail::A);
  for (std::size_t i = 0; i + 1 < kChain; ++i)
    n.wire(elems[i], Rail::A, elems[i + 1], Rail::A);
  n.wire_output(elems.back(), Rail::A, 1);
  n.add_connection(0, 1, {});
  const auto lin = LinearParameters::from(PhysicalParameters{});
  const auto trace = trace_connection(n, n.connections()[0], lin);
  EXPECT_EQ(trace.steps.size(), kChain);
  EXPECT_NEAR(linear_to_db(trace.gain), -0.005 * kChain, 1e-9);
  // And closing a would-be loop is rejected at wiring time.
  RouterNetlist loop("loop", {"in"});
  const auto a = loop.add_element(ElementKind::Crossing, "a");
  loop.wire_input(0, a, Rail::A);
  EXPECT_THROW(loop.wire(a, Rail::A, a, Rail::A), InvalidArgument);
}

TEST(Tracer, StrayPropagationReportsTermination) {
  // A leak landing on a terminated guide is absorbed, not delivered.
  RouterNetlist n("tiny", {"in", "out"});
  const auto x = n.add_element(ElementKind::Crossing, "x");
  n.wire_input(0, x, Rail::A);
  n.wire_output(x, Rail::A, 1);
  // rail B is entirely unwired: its output pin terminates.
  const auto lin = LinearParameters::from(PhysicalParameters{});
  const RingFlags none(n.element_count(), 0);
  const auto stray = propagate_from_pin(n, x, Rail::B, none, lin);
  EXPECT_FALSE(stray.reached_output);
}

TEST(Crux, TraceStepCountsMatchTheLayout) {
  const auto model = crux_model();
  const auto steps = [&](PortId i, PortId o) {
    return model
        .trace(static_cast<std::size_t>(model.connection_index(i, o)))
        .steps.size();
  };
  EXPECT_EQ(steps(kPortWest, kPortEast), 4u);    // LE WN WS WL
  EXPECT_EQ(steps(kPortSouth, kPortLocal), 2u);  // SL XLL
  EXPECT_EQ(steps(kPortLocal, kPortSouth), 8u);  // the longest service
}

TEST(Crux, WorstConnectionIsInjectSouth) {
  // L->S traverses the whole injection guide plus most of the N->S
  // guide: 0.04 + 5*0.045 + 0.5 + 0.005 = 0.77 dB.
  const auto model = crux_model();
  EXPECT_NEAR(model.worst_connection_loss_db(), -0.77, 1e-9);
  const auto ls = static_cast<std::size_t>(
      model.connection_index(kPortLocal, kPortSouth));
  EXPECT_NEAR(model.connection_loss_db(ls), -0.77, 1e-9);
}

TEST(Tracer, RingFlagsHelpers) {
  RouterNetlist n("f", {"p"});
  n.add_element(ElementKind::Ppse, "a");
  n.add_element(ElementKind::Ppse, "b");
  const auto fa = make_ring_flags(n, {0});
  const auto fb = make_ring_flags(n, {1});
  const auto u = union_flags(fa, fb);
  EXPECT_EQ(u[0], 1);
  EXPECT_EQ(u[1], 1);
  EXPECT_EQ(fa[1], 0);
}

// --- Crux structural reconstruction properties -----------------------------------

TEST(Crux, StructuralProperties) {
  const auto netlist = build_crux();
  EXPECT_EQ(netlist.name(), "crux");
  EXPECT_EQ(netlist.port_count(), 5u);
  EXPECT_EQ(netlist.ring_count(), 12u);        // published ring count
  EXPECT_EQ(netlist.connections().size(), 16u); // XY-legal set
  EXPECT_EQ(netlist.element_count(), 13u);     // 12 ring sites + XLL
}

TEST(Crux, SupportsExactlyTheXyLegalSet) {
  const auto model = crux_model();
  for (PortId in = 0; in < 5; ++in) {
    for (PortId out = 0; out < 5; ++out) {
      const bool supported = model.connection_index(in, out) >= 0;
      EXPECT_EQ(supported, xy_legal_connection(in, out))
          << standard_port_name(in) << "->" << standard_port_name(out);
    }
  }
}

TEST(Crux, StraightPathsAreRingFree) {
  const auto model = crux_model();
  const std::pair<PortId, PortId> straights[] = {
      {kPortWest, kPortEast},
      {kPortEast, kPortWest},
      {kPortNorth, kPortSouth},
      {kPortSouth, kPortNorth}};
  for (const auto& [in, out] : straights) {
    const auto idx = model.connection_index(in, out);
    ASSERT_GE(idx, 0);
    EXPECT_TRUE(model.connection(static_cast<std::size_t>(idx)).rings.empty());
  }
}

TEST(Crux, KnownConnectionLosses) {
  const auto model = crux_model();
  const auto loss = [&](PortId i, PortId o) {
    return model.connection_loss_db(
        static_cast<std::size_t>(model.connection_index(i, o)));
  };
  // W->E straight: four OFF CPSEs = 4 * -0.045 dB.
  EXPECT_NEAR(loss(kPortWest, kPortEast), -0.18, 1e-9);
  EXPECT_NEAR(loss(kPortEast, kPortWest), -0.18, 1e-9);
  // N->S: three OFF CPSEs + one OFF PPSE = -0.135 - 0.005.
  EXPECT_NEAR(loss(kPortNorth, kPortSouth), -0.14, 1e-9);
  // S->L: one ON CPSE + one crossing = -0.5 - 0.04.
  EXPECT_NEAR(loss(kPortSouth, kPortLocal), -0.54, 1e-9);
  // L->E: crossing + ON CPSE + three OFF CPSEs.
  EXPECT_NEAR(loss(kPortLocal, kPortEast), -0.04 - 0.5 - 3 * 0.045, 1e-9);
}

TEST(Crux, EveryConnectionUsesAtMostOneRing) {
  const auto netlist = build_crux();
  for (const auto& conn : netlist.connections())
    EXPECT_LE(conn.rings.size(), 1u);
}

TEST(Crux, PortConflictsDetected) {
  const auto model = crux_model();
  const auto idx = [&](PortId i, PortId o) {
    return static_cast<std::size_t>(model.connection_index(i, o));
  };
  // Same output port E: L->E vs W->E.
  EXPECT_TRUE(model.conflicts(idx(kPortLocal, kPortEast),
                              idx(kPortWest, kPortEast)));
  // Same input port W: W->E vs W->N.
  EXPECT_TRUE(
      model.conflicts(idx(kPortWest, kPortEast), idx(kPortWest, kPortNorth)));
}

TEST(Crux, RingStateConflictDetected) {
  const auto model = crux_model();
  const auto idx = [&](PortId i, PortId o) {
    return static_cast<std::size_t>(model.connection_index(i, o));
  };
  // L->E turns the LE ring ON; that ring sits on the W->E..W->L guide,
  // so any W-input connection is diverted: structural conflict.
  EXPECT_TRUE(model.conflicts(idx(kPortWest, kPortNorth),
                              idx(kPortLocal, kPortEast)));
  EXPECT_TRUE(model.conflicts(idx(kPortLocal, kPortEast),
                              idx(kPortWest, kPortNorth)));
}

TEST(Crux, InjectionEjectionInteractAtTheCrossingFloor) {
  // The XLL crossing couples concurrent injection and ejection at the
  // -40 dB crossing-crosstalk coefficient: this is the SNR plateau
  // mechanism discussed in DESIGN.md.
  const auto model = crux_model();
  const auto le = static_cast<std::size_t>(
      model.connection_index(kPortLocal, kPortEast));
  const auto sl = static_cast<std::size_t>(
      model.connection_index(kPortSouth, kPortLocal));
  EXPECT_FALSE(model.conflicts(le, sl));
  EXPECT_NEAR(model.crosstalk_gain(le, sl, ModelFidelity::Simplified), 1e-4,
              1e-10);
  EXPECT_NEAR(model.crosstalk_gain(sl, le, ModelFidelity::Simplified), 1e-4,
              1e-10);
}

TEST(Crux, StraightVictimReceivesPseLeak) {
  // W->E passes the OFF WL ring; an N->L attacker traverses WL on the
  // other rail and leaks (Kp,off + Kc) into the victim's direction.
  const auto model = crux_model();
  const auto we = static_cast<std::size_t>(
      model.connection_index(kPortWest, kPortEast));
  const auto nl = static_cast<std::size_t>(
      model.connection_index(kPortNorth, kPortLocal));
  EXPECT_FALSE(model.conflicts(we, nl));
  EXPECT_NEAR(model.crosstalk_gain(we, nl, ModelFidelity::Simplified),
              0.01 + 1e-4, 1e-9);
}

TEST(Crux, FullFidelityNeverExceedsSimplified) {
  const auto model = crux_model();
  const auto n = model.connection_count();
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t a = 0; a < n; ++a) {
      EXPECT_LE(model.crosstalk_gain(v, a, ModelFidelity::Full),
                model.crosstalk_gain(v, a, ModelFidelity::Simplified) + 1e-15);
    }
  }
}

// --- crossbars ------------------------------------------------------------------

TEST(Crossbar, FullStructuralProperties) {
  const auto netlist = build_crossbar();
  EXPECT_EQ(netlist.port_count(), 5u);
  EXPECT_EQ(netlist.element_count(), 25u);
  EXPECT_EQ(netlist.ring_count(), 20u);          // no U-turns
  EXPECT_EQ(netlist.connections().size(), 20u);
}

TEST(Crossbar, XyRestrictedVariant) {
  CrossbarOptions options;
  options.xy_legal_only = true;
  const auto netlist = build_crossbar(options);
  EXPECT_EQ(netlist.name(), "xy_crossbar");
  EXPECT_EQ(netlist.ring_count(), 16u);
  EXPECT_EQ(netlist.connections().size(), 16u);
}

TEST(Crossbar, ConnectionLossFollowsMatrixPosition) {
  const RouterModel model(build_crossbar(), paper());
  // L(row 0) -> L column is a U-turn: unsupported.
  EXPECT_LT(model.connection_index(kPortLocal, kPortLocal), 0);
  // W (row 4) -> L (col 0): no row elements before col 0, ON CPSE,
  // then 0 rows below row 4: loss = Lc,on only.
  const auto wl = model.connection_index(kPortWest, kPortLocal);
  ASSERT_GE(wl, 0);
  EXPECT_NEAR(model.connection_loss_db(static_cast<std::size_t>(wl)), -0.5,
              1e-9);
  // L (row 0) -> W (col 4): 4 elements before col 4 on row 0, ON CPSE,
  // 4 rows below row 0 on col 4. Row 0 passes XLL(diagonal col0? no:
  // row L passes cols 0..3 = diag (L,L) crossing + 3 CPSEs off) then
  // turns; col 4 passes rows 1..4 = 3 CPSEs off + diag (W,W) crossing.
  const auto lw = model.connection_index(kPortLocal, kPortWest);
  ASSERT_GE(lw, 0);
  EXPECT_NEAR(model.connection_loss_db(static_cast<std::size_t>(lw)),
              2 * -0.04 + 6 * -0.045 + -0.5, 1e-9);
}

TEST(Crossbar, YxTurnsSupportedOnlyByFullVariant) {
  const RouterModel full(build_crossbar(), paper());
  EXPECT_GE(full.connection_index(kPortNorth, kPortEast), 0);
  CrossbarOptions options;
  options.xy_legal_only = true;
  const RouterModel xy(build_crossbar(options), paper());
  EXPECT_LT(xy.connection_index(kPortNorth, kPortEast), 0);
}

TEST(Crossbar, ParametricPortCount) {
  CrossbarOptions options;
  options.ports = 3;
  const auto netlist = build_crossbar(options);
  EXPECT_EQ(netlist.port_count(), 3u);
  EXPECT_EQ(netlist.connections().size(), 6u);  // 3*3 - diagonal
  EXPECT_NO_THROW(RouterModel(netlist, paper()));
  EXPECT_THROW(
      [] {
        CrossbarOptions bad;
        bad.ports = 1;
        return build_crossbar(bad);
      }(),
      InvalidArgument);
}

TEST(XyLegality, MatchesDimensionOrderRules) {
  EXPECT_TRUE(xy_legal_connection(kPortLocal, kPortNorth));
  EXPECT_TRUE(xy_legal_connection(kPortEast, kPortSouth));   // X -> Y turn
  EXPECT_TRUE(xy_legal_connection(kPortNorth, kPortSouth));  // Y straight
  EXPECT_TRUE(xy_legal_connection(kPortNorth, kPortLocal));
  EXPECT_FALSE(xy_legal_connection(kPortNorth, kPortEast));  // Y -> X turn
  EXPECT_FALSE(xy_legal_connection(kPortNorth, kPortNorth)); // U-turn
}

// --- parallel (PPSE) router -------------------------------------------------------

TEST(ParallelRouter, StructuralProperties) {
  const auto netlist = build_parallel_router();
  EXPECT_EQ(netlist.name(), "parallel");
  EXPECT_EQ(netlist.connections().size(), 16u);
  EXPECT_EQ(netlist.ring_count(), 12u);  // all PPSE now
  // 11 former CPSE sites gained an explicit crossing + XLL.
  EXPECT_EQ(netlist.crossing_count(), 12u);
  EXPECT_NO_THROW(RouterModel(netlist, paper()));
}

TEST(ParallelRouter, StraightLossMatchesCruxByConstruction) {
  // Lc + Lp,off == Lc,off with paper coefficients, so straight paths
  // cost the same as Crux while turns cost Lc + Lp,on > Lc,on.
  const RouterModel crux(build_crux(), paper());
  const RouterModel par(build_parallel_router(), paper());
  const auto loss = [&](const RouterModel& m, PortId i, PortId o) {
    return m.connection_loss_db(
        static_cast<std::size_t>(m.connection_index(i, o)));
  };
  EXPECT_NEAR(loss(par, kPortWest, kPortEast),
              loss(crux, kPortWest, kPortEast), 1e-9);
  EXPECT_LT(loss(par, kPortWest, kPortNorth),
            loss(crux, kPortWest, kPortNorth));
}

// --- registry ----------------------------------------------------------------------

TEST(RouterRegistry, BuiltinsPresent) {
  for (const auto* expected : {"crux", "crossbar", "xy_crossbar", "parallel"})
    EXPECT_NO_THROW((void)make_router_netlist(expected)) << expected;
}

TEST(RouterRegistry, UnknownNameListsKnown) {
  try {
    (void)make_router_netlist("warp_drive");
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("crux"), std::string::npos);
  }
}

TEST(RouterRegistry, CustomRegistration) {
  register_router("custom_test_router", [] {
    CrossbarOptions options;
    options.ports = 5;
    auto netlist = build_crossbar(options);
    return netlist;
  });
  const auto netlist = make_router_netlist("CUSTOM_TEST_ROUTER");
  EXPECT_EQ(netlist.port_count(), 5u);
}

/// Parameterized sweep over every built-in router: all declared
/// connections must trace successfully and lose power (gain in (0, 1]),
/// and the conflict relation must be symmetric.
class RouterInvariants : public ::testing::TestWithParam<const char*> {};

TEST_P(RouterInvariants, ConnectionsTraceAndLose) {
  const RouterModel model(make_router_netlist(GetParam()), paper());
  for (std::size_t c = 0; c < model.connection_count(); ++c) {
    EXPECT_GT(model.connection_gain(c), 0.0);
    EXPECT_LE(model.connection_gain(c), 1.0);
    EXPECT_LE(model.connection_loss_db(c), 0.0);
    EXPECT_FALSE(model.trace(c).steps.empty());
  }
  EXPECT_LE(model.worst_connection_loss_db(), 0.0);
}

TEST_P(RouterInvariants, ConflictSymmetricAndSelfConflicting) {
  const RouterModel model(make_router_netlist(GetParam()), paper());
  const auto n = model.connection_count();
  for (std::size_t v = 0; v < n; ++v) {
    EXPECT_TRUE(model.conflicts(v, v));
    for (std::size_t a = 0; a < n; ++a)
      EXPECT_EQ(model.conflicts(v, a), model.conflicts(a, v));
  }
}

TEST_P(RouterInvariants, CrosstalkCoefficientsAreSubUnity) {
  const RouterModel model(make_router_netlist(GetParam()), paper());
  const auto n = model.connection_count();
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t a = 0; a < n; ++a) {
      for (const auto fidelity :
           {ModelFidelity::Simplified, ModelFidelity::Full}) {
        const auto k = model.crosstalk_gain(v, a, fidelity);
        EXPECT_GE(k, 0.0);
        EXPECT_LT(k, 1.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllRouters, RouterInvariants,
                         ::testing::Values("crux", "crossbar", "xy_crossbar",
                                           "parallel"));

}  // namespace
}  // namespace phonoc
