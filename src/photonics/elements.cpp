#include "photonics/elements.hpp"

#include "util/error.hpp"

namespace phonoc {

ElementTransfer element_transfer(ElementKind kind, RingState state, Rail in,
                                 const LinearParameters& p) {
  const Rail bar = in;               // continue on own rail
  const Rail cross = other_rail(in); // couple onto the other rail
  switch (kind) {
    case ElementKind::Crossing:
      require_model(state == RingState::Off,
                    "a plain crossing has no On state");
      // Eq. (1i): straight-through with Lc; Eq. (1j): Kc leaks onto the
      // other guide (only the co-propagating arm is tracked).
      return ElementTransfer{bar, p.crossing_loss, cross,
                             p.crossing_crosstalk};
    case ElementKind::Ppse:
      if (state == RingState::Off)
        // Eq. (1a)/(1b): through with Lp,off; Kp,off leaks to the drop.
        return ElementTransfer{bar, p.ppse_off_loss, cross,
                               p.pse_off_crosstalk};
      // Eq. (1c)/(1d): drop with Lp,on; Kp,on leaks to the through port.
      return ElementTransfer{cross, p.ppse_on_loss, bar, p.pse_on_crosstalk};
    case ElementKind::Cpse:
      if (state == RingState::Off)
        // Eq. (1e)/(1f): through with Lc,off; ring and crossing leaks
        // both land on the drop: Kp,off + Kc.
        return ElementTransfer{bar, p.cpse_off_loss, cross,
                               p.pse_off_crosstalk + p.crossing_crosstalk};
      // Eq. (1g)/(1h): drop with Lc,on; Kp,on leaks straight on.
      return ElementTransfer{cross, p.cpse_on_loss, bar, p.pse_on_crosstalk};
  }
  throw ModelError("element_transfer: unknown element kind");
}

}  // namespace phonoc
