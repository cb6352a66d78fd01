// privcheck: repo-native static analysis for the Privid tree.
//
// Enforces the invariants that the privacy guarantee and the bit-identical
// release discipline rest on (see README "Static analysis"):
//
//   privacy-release    Laplace/Gaussian mechanisms callable only from the
//                      release points (src/privacy/, engine/executor.cpp).
//   privacy-ledger     BudgetLedger try_reserve callable only from
//                      admission (engine/admission.*), the ledger's one
//                      writer.
//   exec-output        The untrusted ExecOutput type nameable only at the
//                      sandbox boundary (engine/sandbox.*) and in the
//                      analyst-side executable implementations.
//   determinism-random rand/srand/std::random_device outside common/rng.*.
//   determinism-clock  *_clock::now / clock identifiers outside
//                      common/timeutil.*.
//   determinism-env    getenv outside common/rng.* and common/timeutil.*.
//   float-format       printf-family float formatting (%g/%f/%e/%a) on
//                      release-path modules (std::to_chars is pinned there).
//   parallel-hash      std::hash or well-known hash/mix constants outside
//                      common/fingerprint.* and common/rng.*.
//   raw-thread         std::thread/std::jthread/std::async outside
//                      common/thread_pool.*.
//   manual-lock        statement-level `.lock();` / `.unlock();` (RAII
//                      guards only) outside common/thread_pool.*.
//   layering           an include edge not in the allowed-edges table
//                      (common <- table/cv/privacy <- engine <- service).
//   bad-suppression    a privcheck:allow with an empty justification or an
//                      unknown rule name.
//   unused-suppression a privcheck:allow that suppresses nothing.
//
// Suppression syntax, in a comment on the finding's line or the line above:
//   // privcheck:allow(<rule>): <non-empty justification>
// or, covering the whole file (for idioms like StringDict's open
// addressing that a rule flags repeatedly):
//   // privcheck:allow-file(<rule>): <non-empty justification>
#pragma once

#include <string>
#include <vector>

namespace privcheck {

struct Finding {
  std::string rule;
  std::string file;  // repo-relative, e.g. "src/table/column.cpp"
  int line = 0;      // 1-indexed
  std::string message;
  bool suppressed = false;
  std::string justification;  // when suppressed
};

struct FileContent {
  std::string path;  // repo-relative; the first directory under src/ is
                     // the module for module-scoped rules
  std::string text;
};

struct Options {
  // When false, valid suppressions are ignored (every finding reports as
  // active) — the test suite uses this to prove each suppression is
  // load-bearing. bad-suppression findings are reported either way;
  // unused-suppression is only meaningful when suppressions are honored.
  bool honor_suppressions = true;
};

struct Report {
  std::vector<Finding> findings;
  std::size_t files_scanned = 0;

  std::size_t active_count() const;
  std::size_t suppressed_count() const;
  // True when no active findings remain.
  bool clean() const { return active_count() == 0; }
};

// Runs every rule over in-memory file contents (fixture entry point).
Report analyze_files(const std::vector<FileContent>& files,
                     const Options& opts = {});

// Walks `<repo_root>/src` for .hpp/.cpp files and analyzes them; reported
// paths are repo-relative. Throws std::runtime_error if src/ is missing.
Report analyze_tree(const std::string& repo_root, const Options& opts = {});

// Machine-readable report (stable key order, one finding per array entry).
std::string to_json(const Report& report);

// Human-readable one-line-per-rule catalog (for --list-rules).
std::string rule_catalog();

}  // namespace privcheck
