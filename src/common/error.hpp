// Error hierarchy for the Privid library.
//
// All recoverable failures surface as exceptions derived from privid::Error.
// Subsystems throw the most specific subtype so callers can distinguish,
// e.g., a rejected query (BudgetError) from a malformed one (ParseError).
#pragma once

#include <stdexcept>
#include <string>

namespace privid {

// Base class for every error raised by the library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

// Malformed query text (lexer/parser failures).
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what) : Error("parse error: " + what) {}
};

// Query is syntactically valid but violates a semantic rule of the grammar
// (Appendix D): missing range constraint, GROUP BY without keys, etc.
class ValidationError : public Error {
 public:
  explicit ValidationError(const std::string& what)
      : Error("validation error: " + what) {}
};

// Sensitivity cannot be bounded (an unbound constraint reached an
// aggregation that requires it, Fig. 10).
class SensitivityError : public Error {
 public:
  explicit SensitivityError(const std::string& what)
      : Error("sensitivity error: " + what) {}
};

// Query denied because a frame in [a-rho, b+rho] lacks budget (Alg. 1).
class BudgetError : public Error {
 public:
  explicit BudgetError(const std::string& what) : Error("budget error: " + what) {}
};

// A name (camera, chunk set, table, executable, mask, region scheme) was not
// found in the corresponding registry.
class LookupError : public Error {
 public:
  explicit LookupError(const std::string& what) : Error("lookup error: " + what) {}
};

// Schema/type mismatch when building or aggregating tables.
class TypeError : public Error {
 public:
  explicit TypeError(const std::string& what) : Error("type error: " + what) {}
};

// Invalid argument to a library call (programmer error on the caller side).
class ArgumentError : public Error {
 public:
  explicit ArgumentError(const std::string& what)
      : Error("argument error: " + what) {}
};

// Infrastructure-level failure that a bounded re-attempt may absorb (a
// sandbox worker dying at startup, a single-flight leader crashing at
// completion). The engine's retry ladder (two extra attempts per task,
// engine/executor.cpp) catches exactly this type: anything else is a real
// query error and fails the query on the first occurrence.
class TransientError : public Error {
 public:
  explicit TransientError(const std::string& what)
      : Error("transient error: " + what) {}
};

// A deliberately injected fault (src/fault). Transient by definition —
// the fault plane models infrastructure failures, and the hardening it
// exercises (retry, single-flight fallback, circuit breaker) must see the
// same type a real one would raise.
class FaultInjectedError : public TransientError {
 public:
  explicit FaultInjectedError(const std::string& site)
      : TransientError("injected fault at '" + site + "'") {}
};

// Query terminated before completion by an explicit cancel request or
// scheduler shutdown — terminal, refunded exactly once, and never retried.
class CancelledError : public Error {
 public:
  explicit CancelledError(const std::string& what)
      : Error("cancelled: " + what) {}
};

}  // namespace privid
