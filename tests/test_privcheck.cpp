// privcheck's own suite: every rule family has (a) a fixture with one
// seeded violation asserting the rule fires at the expected file:line,
// (b) suppression round-trips (with justification passes, without fails),
// and (c) a real-tree leg proving the repo is clean with suppressions
// honored and that every in-tree suppression is load-bearing (ignoring
// suppressions makes the corresponding rule fire at the documented site).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "privcheck.hpp"

namespace {

using privcheck::Finding;
using privcheck::FileContent;
using privcheck::Options;
using privcheck::Report;

// Runs the analyzer over one fixture file.
Report run_one(const std::string& path, const std::string& text,
               bool honor_suppressions = true) {
  Options opts;
  opts.honor_suppressions = honor_suppressions;
  return privcheck::analyze_files({{path, text}}, opts);
}

// Active findings for `rule`, in (line) order.
std::vector<Finding> active(const Report& r, const std::string& rule) {
  std::vector<Finding> out;
  for (const auto& f : r.findings) {
    if (!f.suppressed && f.rule == rule) out.push_back(f);
  }
  return out;
}

std::vector<Finding> suppressed(const Report& r, const std::string& rule) {
  std::vector<Finding> out;
  for (const auto& f : r.findings) {
    if (f.suppressed && f.rule == rule) out.push_back(f);
  }
  return out;
}

bool has_finding(const Report& r, const std::string& rule,
                 const std::string& file_substr) {
  return std::any_of(r.findings.begin(), r.findings.end(),
                     [&](const Finding& f) {
                       return f.rule == rule &&
                              f.file.find(file_substr) != std::string::npos;
                     });
}

// ------------------------------------------------------------ rule family 1

TEST(Privcheck, PrivacyReleaseFiresOutsideReleasePoints) {
  Report r = run_one("src/cv/evil.cpp",
                     "#include \"privacy/laplace.hpp\"\n"
                     "double f(privid::Rng& rng) {\n"
                     "  return privid::LaplaceMechanism::release(1, 1, 1, "
                     "rng);\n"
                     "}\n");
  auto fs = active(r, "privacy-release");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].file, "src/cv/evil.cpp");
  EXPECT_EQ(fs[0].line, 3);
}

TEST(Privcheck, PrivacyReleaseFlagsRawRngLaplaceSampling) {
  Report r = run_one("src/table/evil.cpp",
                     "double f(privid::Rng& rng) {\n"
                     "  return rng.laplace(0.0, 2.0);\n"
                     "}\n");
  auto fs = active(r, "privacy-release");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 2);
}

TEST(Privcheck, PrivacyReleaseAllowedAtReleasePoints) {
  Report r = run_one("src/engine/executor.cpp",
                     "double f(privid::Rng& rng) {\n"
                     "  return privid::LaplaceMechanism::release(1, 1, 1, "
                     "rng);\n"
                     "}\n");
  EXPECT_TRUE(active(r, "privacy-release").empty());
}

TEST(Privcheck, PrivacyLedgerFiresOutsideAdmission) {
  // The executor is a release point but no longer a ledger writer.
  const char* body =
      "bool f(privid::BudgetLedger* led) {\n"
      "  bool ok = led->can_charge({0, 10}, 0, 1.0);\n"
      "  return ok && led->try_reserve({0, 10}, 0, 1.0);\n"
      "}\n";
  for (const char* path : {"src/engine/evil.cpp", "src/engine/executor.cpp",
                           "src/service/service.cpp"}) {
    auto fs = active(run_one(path, body), "privacy-ledger");
    ASSERT_EQ(fs.size(), 1u) << path;
    EXPECT_EQ(fs[0].line, 3);
  }
  EXPECT_TRUE(
      active(run_one("src/engine/admission.cpp", body), "privacy-ledger")
          .empty());
}

TEST(Privcheck, ExecOutputFiresOutsideSandboxBoundary) {
  Report r = run_one("src/engine/evil.cpp",
                     "#include \"engine/sandbox.hpp\"\n"
                     "privid::engine::ExecOutput leak();\n");
  auto fs = active(r, "exec-output");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 2);
}

// ------------------------------------------------------------ rule family 2

TEST(Privcheck, DeterminismRandomFires) {
  Report r = run_one("src/engine/evil.cpp",
                     "#include <random>\n"
                     "int f() { return std::random_device{}(); }\n");
  auto fs = active(r, "determinism-random");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 2);
}

TEST(Privcheck, DeterminismClockFires) {
  Report r = run_one("src/service/evil.cpp",
                     "#include <chrono>\n"
                     "auto f() { return std::chrono::steady_clock::now(); "
                     "}\n");
  auto fs = active(r, "determinism-clock");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 2);
}

TEST(Privcheck, DeterminismEnvFires) {
  Report r = run_one("src/engine/evil.cpp",
                     "#include <cstdlib>\n"
                     "const char* f() { return std::getenv(\"X\"); }\n");
  auto fs = active(r, "determinism-env");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 2);
}

TEST(Privcheck, DeterminismEnvAllowedInChunkCache) {
  // The cache-configuration boundary owns the PRIVID_CACHE* env reads
  // (mode, disk dir, disk byte budget) — allowlisted, not suppressed,
  // because the cache-equivalence suites prove the knobs never reach a
  // release value.
  EXPECT_TRUE(run_one("src/engine/chunk_cache.cpp",
                      "#include <cstdlib>\n"
                      "const char* f() { return std::getenv(\"PRIVID_CACHE_DIR\"); }\n")
                  .clean());
}

TEST(Privcheck, DeterminismEnvAllowedInFaultPlane) {
  // fault/fault.cpp owns the PRIVID_FAULTS read: an armed plan perturbs
  // execution by design, and the chaos equivalence suite proves completed
  // queries stay byte-identical to a fault-free run.
  EXPECT_TRUE(run_one("src/fault/fault.cpp",
                      "#include <cstdlib>\n"
                      "const char* f() { return std::getenv(\"PRIVID_FAULTS\"); }\n")
                  .clean());
}

TEST(Privcheck, DeterminismAllowedInRngAndTimeutil) {
  EXPECT_TRUE(run_one("src/common/rng.cpp",
                      "int f() { return std::random_device{}(); }\n")
                  .clean());
  EXPECT_TRUE(run_one("src/common/timeutil.cpp",
                      "auto f() { return std::chrono::steady_clock::now(); "
                      "}\n")
                  .clean());
}

TEST(Privcheck, FloatFormatFiresOnReleaseModules) {
  Report r = run_one("src/table/evil.cpp",
                     "#include <cstdio>\n"
                     "void f(char* b, double v) {\n"
                     "  std::snprintf(b, 32, \"%.17g\", v);\n"
                     "}\n");
  auto fs = active(r, "float-format");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 3);
}

TEST(Privcheck, FloatFormatIgnoresIntegerConversionsAndSimModule) {
  EXPECT_TRUE(run_one("src/table/ok.cpp",
                      "void f(char* b, int v) {\n"
                      "  std::snprintf(b, 32, \"%04d\", v);\n"
                      "}\n")
                  .clean());
  // sim/ labels are not on the release path; "%.3g" is fine there.
  EXPECT_TRUE(run_one("src/sim/ok.cpp",
                      "void f(char* b, double v) {\n"
                      "  std::snprintf(b, 32, \"%.3g\", v);\n"
                      "}\n")
                  .clean());
}

// ------------------------------------------------------------ rule family 3

TEST(Privcheck, ParallelHashFiresOnStdHash) {
  Report r = run_one("src/engine/evil.cpp",
                     "#include <functional>\n"
                     "std::size_t f(const std::string& s) {\n"
                     "  return std::hash<std::string>{}(s);\n"
                     "}\n");
  auto fs = active(r, "parallel-hash");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 3);
}

TEST(Privcheck, ParallelHashFiresOnInlineMixConstants) {
  Report r = run_one("src/video/evil.cpp",
                     "unsigned long long f(unsigned long long x) {\n"
                     "  return x * 0x9E3779B97F4A7C15ull;\n"
                     "}\n");
  auto fs = active(r, "parallel-hash");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 2);
}

TEST(Privcheck, ParallelHashAllowedInFingerprintAndRng) {
  EXPECT_TRUE(run_one("src/common/fingerprint.cpp",
                      "unsigned long long f(unsigned long long x) {\n"
                      "  return x * 0x100000001B3ull;\n"
                      "}\n")
                  .clean());
  EXPECT_TRUE(run_one("src/common/rng.hpp",
                      "unsigned long long f(unsigned long long x) {\n"
                      "  return x * 0x9E3779B97F4A7C15ull;\n"
                      "}\n")
                  .clean());
}

// ------------------------------------------------------------ rule family 4

TEST(Privcheck, RawThreadFires) {
  Report r = run_one("src/engine/evil.cpp",
                     "#include <thread>\n"
                     "void f() {\n"
                     "  std::thread t([] {});\n"
                     "  t.join();\n"
                     "}\n");
  auto fs = active(r, "raw-thread");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 3);
}

TEST(Privcheck, ManualLockFiresOnStatementLevelLock) {
  Report r = run_one("src/engine/evil.cpp",
                     "void f(std::mutex& mu) {\n"
                     "  mu.lock();\n"
                     "  mu.unlock();\n"
                     "}\n");
  auto fs = active(r, "manual-lock");
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(fs[0].line, 2);
  EXPECT_EQ(fs[1].line, 3);
}

TEST(Privcheck, ManualLockIgnoresWeakPtrLockExpressions) {
  EXPECT_TRUE(run_one("src/engine/ok.cpp",
                      "auto f(std::weak_ptr<int> wp) {\n"
                      "  auto sp = wp.lock();\n"
                      "  return sp;\n"
                      "}\n")
                  .clean());
}

// ------------------------------------------------------------ rule family 5

TEST(Privcheck, LayeringRejectsBackEdge) {
  Report r = run_one("src/table/evil.cpp",
                     "#include \"engine/executor.hpp\"\n"
                     "#include \"table/table.hpp\"\n");
  auto fs = active(r, "layering");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 1);
  EXPECT_NE(fs[0].message.find("table -> engine"), std::string::npos);
}

TEST(Privcheck, LayeringAllowsForwardEdgesCommonAndSelf) {
  EXPECT_TRUE(run_one("src/service/ok.cpp",
                      "#include \"common/rng.hpp\"\n"
                      "#include \"engine/executor.hpp\"\n"
                      "#include \"service/session.hpp\"\n")
                  .clean());
}

TEST(Privcheck, LayeringIgnoresCommentedIncludes) {
  EXPECT_TRUE(run_one("src/table/ok.cpp",
                      "// #include \"engine/executor.hpp\"\n"
                      "/* #include \"service/service.hpp\" */\n")
                  .clean());
}

// ------------------------------------------------------------ rule family 6

TEST(Privcheck, ObsTimingFiresOutsideObs) {
  Report r = run_one("src/engine/evil.cpp",
                     "#include \"obs/metrics.hpp\"\n"
                     "void f(privid::obs::LatencyHistogram* h) {\n"
                     "  h->observe_ns(privid::obs::detail::now_ns());\n"
                     "  std::uint64_t d = sw.elapsed_ns();\n"
                     "}\n");
  auto fs = active(r, "obs-timing");
  ASSERT_EQ(fs.size(), 3u);  // observe_ns + now_ns on line 3, elapsed_ns on 4
  EXPECT_EQ(fs[0].line, 3);
  EXPECT_EQ(fs[1].line, 3);
  EXPECT_EQ(fs[2].line, 4);
  EXPECT_NE(fs[0].message.find("obs plane"), std::string::npos);
}

TEST(Privcheck, ObsTimingAllowedInsideObs) {
  EXPECT_TRUE(run_one("src/obs/metrics.cpp",
                      "std::uint64_t f() { return detail::now_ns(); }\n")
                  .clean());
  EXPECT_TRUE(run_one("src/obs/trace.cpp",
                      "void g(Histo* h, std::uint64_t ns) { "
                      "h->observe_ns(ns); }\n")
                  .clean());
}

TEST(Privcheck, DeterminismClockAndEnvAllowedInObs) {
  // src/obs/ owns the process's single steady_clock read and trace.cpp
  // the PRIVID_TRACE* knobs; timing there is opaque to the rest of the
  // tree, so the determinism rules allowlist the plane.
  EXPECT_TRUE(run_one("src/obs/metrics.cpp",
                      "auto f() { return std::chrono::steady_clock::now(); "
                      "}\n")
                  .clean());
  EXPECT_TRUE(run_one("src/obs/trace.cpp",
                      "const char* f() { return "
                      "std::getenv(\"PRIVID_TRACE\"); }\n")
                  .clean());
}

TEST(Privcheck, LayeringAllowsObsFromAnywhere) {
  EXPECT_TRUE(run_one("src/common/thread_pool.hpp",
                      "#include \"obs/metrics.hpp\"\n")
                  .clean());
  EXPECT_TRUE(run_one("src/engine/chunk_cache.cpp",
                      "#include \"obs/metrics.hpp\"\n"
                      "#include \"obs/trace.hpp\"\n")
                  .clean());
}

TEST(Privcheck, LayeringRejectsObsBackEdge) {
  Report r = run_one("src/obs/evil.cpp",
                     "#include \"engine/executor.hpp\"\n");
  auto fs = active(r, "layering");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_NE(fs[0].message.find("obs -> engine"), std::string::npos);
}

TEST(Privcheck, LayeringAllowsFaultFromAnywhere) {
  // Injection sites are compiled into every plane's seams, so "fault" is
  // universally includable, like "obs".
  EXPECT_TRUE(run_one("src/common/thread_pool.cpp",
                      "#include \"fault/fault.hpp\"\n")
                  .clean());
  EXPECT_TRUE(run_one("src/service/scheduler.cpp",
                      "#include \"fault/fault.hpp\"\n")
                  .clean());
}

TEST(Privcheck, LayeringRejectsFaultBackEdge) {
  // The fault plane depends only on common/obs — it must never reach back
  // into the planes it is compiled into.
  Report r = run_one("src/fault/evil.cpp",
                     "#include \"engine/executor.hpp\"\n");
  auto fs = active(r, "layering");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_NE(fs[0].message.find("fault -> engine"), std::string::npos);
}

// ------------------------------------------------------------- suppressions

TEST(Privcheck, SuppressionWithJustificationPasses) {
  Report r = run_one("src/engine/ok.cpp",
                     "void f(std::mutex& mu) {\n"
                     "  // privcheck:allow(manual-lock): handing the lock "
                     "to C code\n"
                     "  mu.lock();\n"
                     "}\n");
  EXPECT_TRUE(r.clean());
  auto sup = suppressed(r, "manual-lock");
  ASSERT_EQ(sup.size(), 1u);
  EXPECT_EQ(sup[0].line, 3);
  EXPECT_NE(sup[0].justification.find("handing the lock"),
            std::string::npos);
}

TEST(Privcheck, SuppressionCoversThroughMultiLineComment) {
  Report r = run_one("src/engine/ok.cpp",
                     "void f(std::mutex& mu) {\n"
                     "  // privcheck:allow(manual-lock): a justification "
                     "that\n"
                     "  // continues onto a second comment line.\n"
                     "  mu.lock();\n"
                     "}\n");
  EXPECT_TRUE(r.clean());
  ASSERT_EQ(suppressed(r, "manual-lock").size(), 1u);
}

TEST(Privcheck, SuppressionWithoutJustificationFails) {
  Report r = run_one("src/engine/bad.cpp",
                     "void f(std::mutex& mu) {\n"
                     "  // privcheck:allow(manual-lock):\n"
                     "  mu.lock();\n"
                     "}\n");
  EXPECT_FALSE(r.clean());
  // The malformed marker is rejected AND the underlying finding stays.
  ASSERT_EQ(active(r, "bad-suppression").size(), 1u);
  ASSERT_EQ(active(r, "manual-lock").size(), 1u);
}

TEST(Privcheck, SuppressionOfUnknownRuleFails) {
  Report r = run_one("src/engine/bad.cpp",
                     "// privcheck:allow(no-such-rule): because reasons\n");
  auto fs = active(r, "bad-suppression");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_NE(fs[0].message.find("no-such-rule"), std::string::npos);
}

TEST(Privcheck, FileLevelSuppressionCoversWholeFile) {
  Report r = run_one("src/engine/ok.cpp",
                     "// privcheck:allow-file(manual-lock): FFI shims hand "
                     "locks across the boundary\n"
                     "void f(std::mutex& a, std::mutex& b) {\n"
                     "  a.lock();\n"
                     "  b.lock();\n"
                     "}\n");
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(suppressed(r, "manual-lock").size(), 2u);
}

TEST(Privcheck, UnusedSuppressionIsFlagged) {
  Report r = run_one("src/engine/stale.cpp",
                     "// privcheck:allow(manual-lock): the lock below was "
                     "removed\n"
                     "void f() {}\n");
  ASSERT_EQ(active(r, "unused-suppression").size(), 1u);
}

TEST(Privcheck, NoSuppressModeReexposesFindings) {
  std::string text =
      "void f(std::mutex& mu) {\n"
      "  // privcheck:allow(manual-lock): justified here\n"
      "  mu.lock();\n"
      "}\n";
  EXPECT_TRUE(run_one("src/engine/ok.cpp", text, true).clean());
  Report r = run_one("src/engine/ok.cpp", text, false);
  ASSERT_EQ(active(r, "manual-lock").size(), 1u);
}

// ----------------------------------------------------------------- lexer

TEST(Privcheck, SymbolsInCommentsAndStringsDoNotFire) {
  EXPECT_TRUE(run_one("src/engine/ok.cpp",
                      "// std::thread would be flagged outside a comment\n"
                      "/* so would std::hash and getenv */\n"
                      "const char* s = \"std::random_device getenv\";\n"
                      "const char* r = R\"(steady_clock::now())\";\n")
                  .clean());
}

// ---------------------------------------------------------------- reporting

TEST(Privcheck, JsonReportCarriesFindings) {
  Report r = run_one("src/engine/evil.cpp", "std::thread t;\n");
  std::string json = privcheck::to_json(r);
  EXPECT_NE(json.find("\"rule\": \"raw-thread\""), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"src/engine/evil.cpp\""),
            std::string::npos);
  EXPECT_NE(json.find("\"line\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"active\": 1"), std::string::npos);
}

// ---------------------------------------------------------------- real tree
//
// PRIVCHECK_REPO_ROOT is injected by tests/CMakeLists.txt.

TEST(Privcheck, RealTreeIsCleanWithSuppressionsHonored) {
  Report r = privcheck::analyze_tree(PRIVCHECK_REPO_ROOT);
  std::string bad;
  for (const auto& f : r.findings) {
    if (!f.suppressed) {
      bad += f.file + ":" + std::to_string(f.line) + " [" + f.rule + "] " +
             f.message + "\n";
    }
  }
  EXPECT_TRUE(r.clean()) << bad;
  EXPECT_GT(r.files_scanned, 100u);
}

TEST(Privcheck, EveryInTreeSuppressionIsLoadBearing) {
  // Ignoring suppressions must re-fire each rule at its documented site —
  // i.e. removing any one suppression turns the tree red.
  Options opts;
  opts.honor_suppressions = false;
  Report r = privcheck::analyze_tree(PRIVCHECK_REPO_ROOT, opts);
  EXPECT_TRUE(has_finding(r, "parallel-hash", "src/table/column.cpp"));
  EXPECT_TRUE(has_finding(r, "raw-thread", "src/service/scheduler.hpp"));
  EXPECT_TRUE(has_finding(r, "raw-thread", "src/service/scheduler.cpp"));
  EXPECT_TRUE(has_finding(r, "exec-output", "src/analyst/executables.cpp"));
  EXPECT_TRUE(has_finding(r, "layering", "src/engine/privid.hpp"));
  // And each of those is justified when suppressions are honored.
  Report honored = privcheck::analyze_tree(PRIVCHECK_REPO_ROOT);
  for (const auto& f : honored.findings) {
    if (f.suppressed) {
      EXPECT_FALSE(f.justification.empty()) << f.file;
    }
  }
}

TEST(Privcheck, RealTreeFixedSitesStayFixed) {
  // The PR that introduced privcheck also fixed real findings; they must
  // not regress (these are exact sites, not suppressions).
  Report r = privcheck::analyze_tree(PRIVCHECK_REPO_ROOT);
  for (const auto& f : r.findings) {
    EXPECT_FALSE(f.file == "src/sim/porto.cpp" && f.rule == "manual-lock")
        << "porto day_visits regressed to manual lock()/unlock()";
    EXPECT_FALSE(f.file == "src/engine/standing.cpp" &&
                 f.rule == "float-format")
        << "substitute_window regressed to printf float formatting";
    EXPECT_FALSE(f.rule == "parallel-hash" &&
                 f.file.find("fingerprint") == std::string::npos &&
                 f.file != "src/table/column.cpp")
        << f.file << ": new parallel hashing scheme";
  }
}

}  // namespace
