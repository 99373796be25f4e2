#pragma once
/// \file arch_io.hpp
/// \brief Architecture description format: topology, router, routing,
/// model options, and physical-parameter overrides in one file.
///
/// Line-oriented `key = value` pairs, '#' comments:
///
///     topology = mesh          # registered topology name
///     rows = 4
///     cols = 4
///     tile_pitch_mm = 2.5
///     router = crux            # registered router name
///     routing = xy             # registered routing name
///     fidelity = simplified    # simplified | full
///     conflict_policy = exclude  # exclude | ignore
///     snr_ceiling_db = 200
///     param.crossing_loss_db = -0.04     # any PhysicalParameters field
///
/// Unrecognized keys raise ParseError, so typos never silently fall back
/// to defaults.

#include <iosfwd>
#include <memory>
#include <string>

#include "model/network_model.hpp"
#include "photonics/parameters.hpp"

namespace phonoc {

struct ArchitectureSpec {
  std::string topology = "mesh";
  std::uint32_t rows = 4;
  std::uint32_t cols = 4;
  double tile_pitch_mm = 2.5;
  std::string router = "crux";
  std::string routing = "xy";
  PhysicalParameters parameters = PhysicalParameters::paper_defaults();
  NetworkModelOptions model_options = {};
};

[[nodiscard]] ArchitectureSpec read_architecture(std::istream& in);
[[nodiscard]] ArchitectureSpec read_architecture_file(const std::string& path);

/// Instantiate the full network model from a spec (uses the topology,
/// router, and routing registries).
[[nodiscard]] std::shared_ptr<const NetworkModel> build_network(
    const ArchitectureSpec& spec);

}  // namespace phonoc
