#pragma once
/// \file elements.hpp
/// \brief Photonic building blocks and their state-dependent transfer
/// behaviour (paper Fig. 2 and Eq. 1a-1j).
///
/// Every switching element is modeled as a 2x2 coupler with two directed
/// rails, A and B. Each rail has an input and an output side. An element
/// either passes a signal along its own rail ("bar": A_in -> A_out) or
/// couples it onto the other rail ("cross": A_in -> B_out):
///
///   * Waveguide crossing: always bar, loss Lc; first-order leak Kc onto
///     the co-propagating output of the other rail (Eq. 1i/1j; the
///     counter-propagating arm is neglected, as is back-reflection).
///   * PPSE (parallel PSE, Fig. 2a/b): OFF = bar with Lp,off, leak
///     Kp,off to the other rail (Eq. 1a/1b); ON = cross with Lp,on, leak
///     Kp,on straight on (Eq. 1c/1d).
///   * CPSE (crossing PSE, Fig. 2c/d): OFF = bar with Lc,off, leak
///     (Kp,off + Kc) to the other rail (Eq. 1e/1f); ON = cross with
///     Lc,on, leak Kp,on straight on (Eq. 1g/1h).
///
/// The behaviour is symmetric in A and B (reciprocal device).

#include <cstdint>

#include "photonics/parameters.hpp"

namespace phonoc {

/// Photonic element species.
enum class ElementKind : std::uint8_t {
  Crossing,  ///< plain waveguide crossing, no microring
  Ppse,      ///< microring between two parallel waveguides
  Cpse,      ///< microring at a waveguide crossing
};

/// Resonance state of a microring (crossings are always Off).
enum class RingState : std::uint8_t { Off, On };

/// One of the two directed rails through a 2x2 element.
enum class Rail : std::uint8_t { A = 0, B = 1 };

[[nodiscard]] constexpr Rail other_rail(Rail r) noexcept {
  return r == Rail::A ? Rail::B : Rail::A;
}

/// Signal and first-order-leak response of an element for a signal
/// entering on `in` with the element in `state`.
struct ElementTransfer {
  Rail signal_out;     ///< rail whose output the signal exits on
  double signal_gain;  ///< linear power gain of the signal path (<= 1)
  Rail leak_out;       ///< rail whose output the leak exits on
  double leak_gain;    ///< linear power gain of the leak path (<= 1)
};

/// Evaluate the Eq. (1a)-(1j) transfer for one element traversal.
/// `state` must be Off for ElementKind::Crossing.
[[nodiscard]] ElementTransfer element_transfer(ElementKind kind,
                                               RingState state, Rail in,
                                               const LinearParameters& p);

/// True for elements that contain a microring (and hence have an On state
/// and participate in connection ring-sets).
[[nodiscard]] constexpr bool has_ring(ElementKind kind) noexcept {
  return kind != ElementKind::Crossing;
}

}  // namespace phonoc
