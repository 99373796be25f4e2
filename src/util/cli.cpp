#include "util/cli.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace phonoc {

CliOptions::CliOptions(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      options_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--name value` when the next token is not itself an option,
    // otherwise a bare boolean flag.
    if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      options_[arg] = argv[++i];
    } else {
      options_[arg] = "1";
    }
  }
}

bool CliOptions::has(const std::string& name) const noexcept {
  return options_.count(name) > 0;
}

std::optional<std::string> CliOptions::get(const std::string& name) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

std::string CliOptions::get_or(const std::string& name,
                               const std::string& fallback) const {
  return get(name).value_or(fallback);
}

double CliOptions::get_double(const std::string& name, double fallback) const {
  const auto value = get(name);
  return value ? parse_double(*value) : fallback;
}

std::int64_t CliOptions::get_int(const std::string& name,
                                 std::int64_t fallback) const {
  const auto value = get(name);
  return value ? parse_long(*value) : fallback;
}

bool CliOptions::get_bool(const std::string& name, bool fallback) const {
  const auto value = get(name);
  if (!value) return fallback;
  const auto lowered = to_lower(*value);
  return !(lowered == "0" || lowered == "false" || lowered == "no" ||
           lowered.empty());
}

std::uint16_t CliOptions::get_port(const std::string& name,
                                   std::uint16_t fallback) const {
  const auto value = get_int(name, fallback);
  require(value >= 0 && value <= 65535,
          "--" + name + "=" + std::to_string(value) +
              " is not a TCP port (0-65535)");
  return static_cast<std::uint16_t>(value);
}

bool full_scale_requested() {
  return env_uint<std::uint64_t>("PHONOC_FULL", 0) != 0;
}

}  // namespace phonoc
