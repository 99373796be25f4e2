#pragma once
/// \file error.hpp
/// \brief Exception hierarchy and precondition helpers for PhoNoCMap.

#include <stdexcept>
#include <string>
#include <string_view>

namespace phonoc {

/// Base class for every error thrown by the library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller violated a documented API precondition.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Parsing of an input file / description failed.
class ParseError : public Error {
 public:
  ParseError(const std::string& what, int line = -1)
      : Error(line >= 0 ? what + " (line " + std::to_string(line) + ")" : what),
        line_(line) {}
  /// 1-based line number of the offending input, or -1 if unknown.
  [[nodiscard]] int line() const noexcept { return line_; }

 private:
  int line_ = -1;
};

/// An architectural description is internally inconsistent (e.g. a router
/// netlist with a dangling port, or a routing function that emits an
/// illegal turn for the router in use).
class ModelError : public Error {
 public:
  explicit ModelError(const std::string& what) : Error(what) {}
};

/// The parallel execution subsystem was misused (e.g. work submitted to
/// a thread pool that has already shut down).
class ExecError : public Error {
 public:
  explicit ExecError(const std::string& what) : Error(what) {}
};

/// Throw InvalidArgument with `message` unless `condition` holds. The
/// message becomes a std::string only on the throwing path, so a
/// passing check allocates nothing.
void require(bool condition, std::string_view message);

/// Throw ModelError with `message` unless `condition` holds.
void require_model(bool condition, std::string_view message);

}  // namespace phonoc
