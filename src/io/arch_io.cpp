#include "io/arch_io.hpp"

#include <fstream>
#include <istream>
#include <map>

#include "router/registry.hpp"
#include "router/router_model.hpp"
#include "routing/registry.hpp"
#include "topology/registry.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace phonoc {

namespace {

/// Physical-parameter fields addressable as `param.<name>`.
std::map<std::string, double PhysicalParameters::*> parameter_fields() {
  return {
      {"crossing_loss_db", &PhysicalParameters::crossing_loss_db},
      {"propagation_loss_db_per_cm",
       &PhysicalParameters::propagation_loss_db_per_cm},
      {"ppse_off_loss_db", &PhysicalParameters::ppse_off_loss_db},
      {"ppse_on_loss_db", &PhysicalParameters::ppse_on_loss_db},
      {"cpse_off_loss_db", &PhysicalParameters::cpse_off_loss_db},
      {"cpse_on_loss_db", &PhysicalParameters::cpse_on_loss_db},
      {"crossing_crosstalk_db", &PhysicalParameters::crossing_crosstalk_db},
      {"pse_off_crosstalk_db", &PhysicalParameters::pse_off_crosstalk_db},
      {"pse_on_crosstalk_db", &PhysicalParameters::pse_on_crosstalk_db},
  };
}

}  // namespace

ArchitectureSpec read_architecture(std::istream& in) {
  ArchitectureSpec spec;
  const auto params = parameter_fields();
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto trimmed = trim(line);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string_view::npos)
      throw ParseError("expected 'key = value'", line_no);
    const auto key = to_lower(std::string(trim(trimmed.substr(0, eq))));
    const auto value = std::string(trim(trimmed.substr(eq + 1)));
    if (value.empty()) throw ParseError("empty value for '" + key + "'",
                                        line_no);

    if (key == "topology") {
      spec.topology = to_lower(value);
    } else if (key == "rows") {
      spec.rows = parse_uint<std::uint32_t>(value, line_no);
    } else if (key == "cols") {
      spec.cols = parse_uint<std::uint32_t>(value, line_no);
    } else if (key == "tile_pitch_mm") {
      spec.tile_pitch_mm = parse_double(value, line_no);
    } else if (key == "router") {
      spec.router = to_lower(value);
    } else if (key == "routing") {
      spec.routing = to_lower(value);
    } else if (key == "fidelity") {
      const auto lowered = to_lower(value);
      if (lowered == "simplified")
        spec.model_options.fidelity = ModelFidelity::Simplified;
      else if (lowered == "full")
        spec.model_options.fidelity = ModelFidelity::Full;
      else
        throw ParseError("fidelity must be 'simplified' or 'full'", line_no);
    } else if (key == "conflict_policy") {
      const auto lowered = to_lower(value);
      if (lowered == "exclude")
        spec.model_options.conflict_policy = ConflictPolicy::Exclude;
      else if (lowered == "ignore")
        spec.model_options.conflict_policy = ConflictPolicy::Ignore;
      else
        throw ParseError("conflict_policy must be 'exclude' or 'ignore'",
                         line_no);
    } else if (key == "snr_ceiling_db") {
      spec.model_options.snr_ceiling_db = parse_double(value, line_no);
    } else if (starts_with(key, "param.")) {
      const auto field = key.substr(6);
      const auto it = params.find(field);
      if (it == params.end())
        throw ParseError("unknown physical parameter '" + field + "'",
                         line_no);
      spec.parameters.*(it->second) = parse_double(value, line_no);
    } else {
      throw ParseError("unknown key '" + key + "'", line_no);
    }
  }
  return spec;
}

ArchitectureSpec read_architecture_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open architecture file '" + path + "'");
  return read_architecture(in);
}

std::shared_ptr<const NetworkModel> build_network(
    const ArchitectureSpec& spec) {
  GridOptions grid;
  grid.rows = spec.rows;
  grid.cols = spec.cols;
  grid.tile_pitch_mm = spec.tile_pitch_mm;
  auto topology = make_topology(spec.topology, grid);
  auto router = std::make_shared<const RouterModel>(
      make_router_netlist(spec.router), spec.parameters);
  std::shared_ptr<const RoutingAlgorithm> routing =
      make_routing(spec.routing);
  return std::make_shared<const NetworkModel>(std::move(topology),
                                              std::move(router),
                                              std::move(routing),
                                              spec.model_options);
}

}  // namespace phonoc
