#include "util/error.hpp"

namespace phonoc {

void require(bool condition, std::string_view message) {
  if (!condition) throw InvalidArgument(std::string(message));
}

void require_model(bool condition, std::string_view message) {
  if (!condition) throw ModelError(std::string(message));
}

}  // namespace phonoc
