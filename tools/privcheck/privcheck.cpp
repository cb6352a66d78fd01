#include "privcheck.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "lexer.hpp"

namespace privcheck {

namespace {

// ----------------------------------------------------------------- catalog

const std::array<const char*, 14> kRuleIds = {
    "privacy-release",    "privacy-ledger",   "exec-output",
    "determinism-random", "determinism-clock", "determinism-env",
    "float-format",       "parallel-hash",    "raw-thread",
    "manual-lock",        "layering",         "obs-timing",
    "bad-suppression",    "unused-suppression"};

bool known_rule(const std::string& id) {
  return std::find(kRuleIds.begin(), kRuleIds.end(), id) != kRuleIds.end();
}

// Path allowlists: entries ending in '/' are prefixes, others exact paths.
using Allowlist = std::vector<std::string>;

bool path_allowed(const std::string& path, const Allowlist& list) {
  for (const auto& entry : list) {
    if (!entry.empty() && entry.back() == '/') {
      if (path.compare(0, entry.size(), entry) == 0) return true;
    } else if (path == entry) {
      return true;
    }
  }
  return false;
}

const Allowlist kReleasePoints = {"src/privacy/", "src/engine/executor.cpp"};
// Admission is the ledger's one writer: every query pays through a single
// reservation there (see src/engine/admission.hpp).
const Allowlist kLedgerCallers = {"src/privacy/", "src/engine/admission.cpp",
                                  "src/engine/admission.hpp"};
const Allowlist kSandboxBoundary = {"src/engine/sandbox.hpp",
                                    "src/engine/sandbox.cpp"};
const Allowlist kRngFiles = {"src/common/rng.hpp", "src/common/rng.cpp"};
// src/obs/ is the observability plane: metrics.cpp owns the process's
// single steady_clock read (detail::now_ns) and trace.cpp the
// PRIVID_TRACE* env knobs. Timing there is opaque to the rest of the
// tree — spans/timers never expose numeric durations — so clock and env
// reads inside obs cannot reach a release value.
const Allowlist kTimeFiles = {"src/common/timeutil.hpp",
                              "src/common/timeutil.cpp", "src/obs/"};
// src/engine/chunk_cache.cpp is the cache-configuration boundary: it owns
// every PRIVID_CACHE* read (mode, disk directory, disk byte budget). Cache
// and tier configuration never feed a release value — the equivalence
// suites prove releases byte-identical across cache modes and tiers — so
// env-derived branching there cannot break run-to-run determinism.
// src/fault/fault.cpp owns the PRIVID_FAULTS read: an armed fault plan
// deliberately perturbs execution (that is its job), but the chaos
// equivalence suite proves completed queries stay byte-identical to a
// fault-free run, and an unset/malformed spec arms nothing.
const Allowlist kEnvFiles = {"src/common/rng.hpp", "src/common/rng.cpp",
                             "src/common/timeutil.hpp",
                             "src/common/timeutil.cpp",
                             "src/engine/chunk_cache.cpp",
                             "src/fault/fault.cpp",
                             "src/obs/trace.cpp"};
// Identifiers that expose raw nanosecond readings. Outside src/obs/ the
// tree must hold timing only through the opaque RAII types (Span,
// ScopedTimer, Stopwatch) so a duration can never flow into a release,
// noise draw, or ledger charge.
const Allowlist kObsFiles = {"src/obs/"};
const Allowlist kHashFiles = {"src/common/fingerprint.hpp",
                              "src/common/fingerprint.cpp",
                              "src/common/rng.hpp", "src/common/rng.cpp"};
const Allowlist kThreadFiles = {"src/common/thread_pool.hpp",
                                "src/common/thread_pool.cpp"};

// Well-known hash/mix constants (FNV-1a 32/64, splitmix64, murmur3
// finalizer, 64-bit golden ratio) — any of these outside
// common/fingerprint.* / common/rng.* is a parallel hashing scheme.
const std::set<std::string> kHashConstants = {
    "0x9e3779b9",        "0x9e3779b97f4a7c15", "0xbf58476d1ce4e5b9",
    "0x94d049bb133111eb", "0x100000001b3",      "0xcbf29ce484222325",
    "0xff51afd7ed558ccd", "0xc4ceb9fe1a85ec53", "2166136261",
    "16777619",           "14695981039346656037", "1099511628211"};

// printf-family functions whose format strings the float-format rule reads.
const std::array<const char*, 8> kPrintfFamily = {
    "printf",  "fprintf",  "sprintf",  "snprintf",
    "vprintf", "vfprintf", "vsprintf", "vsnprintf"};

// Modules whose output feeds releases/fingerprints: float text there must
// go through std::to_chars (table/value.cpp is the pinned idiom).
const std::set<std::string> kReleaseModules = {
    "engine", "table", "privacy", "service", "sensitivity", "query",
    "analyst", "root"};

// Allowed include edges, module -> modules it may include (self and
// "common" are always allowed; "root" — files directly under src/ such as
// the privid.hpp umbrella — may include anything). Growing a module's
// dependencies is a deliberate act: extend this table in the same PR.
const std::map<std::string, std::set<std::string>> kAllowedEdges = {
    {"common", {}},
    {"obs", {}},
    {"fault", {}},
    {"table", {}},
    {"video", {}},
    {"privacy", {}},
    {"query", {"table"}},
    {"sim", {"video"}},
    {"cv", {"video", "sim"}},
    {"sensitivity", {"query", "table", "video"}},
    {"maskopt", {"sim", "video"}},
    {"engine",
     {"table", "cv", "privacy", "query", "sensitivity", "sim", "video",
      "maskopt"}},
    {"service", {"engine", "privacy", "query"}},
    {"analyst", {"cv", "engine", "sim", "table", "video"}},
};

std::string module_of(const std::string& repo_rel_path) {
  std::string p = repo_rel_path;
  if (p.compare(0, 4, "src/") == 0) p = p.substr(4);
  auto slash = p.find('/');
  if (slash == std::string::npos) return "root";
  return p.substr(0, slash);
}

std::string include_target_module(const std::string& include_path) {
  auto slash = include_path.find('/');
  if (slash == std::string::npos) return "root";
  return include_path.substr(0, slash);
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

// ------------------------------------------------------------ suppressions

struct Suppression {
  std::string rule;
  int line = 0;
  bool file_level = false;
  std::string justification;
  bool used = false;
};

// Parses every privcheck:allow / privcheck:allow-file marker in a comment.
// Malformed markers produce bad-suppression findings instead.
void parse_suppressions(const std::string& comment, const std::string& path,
                        int line, std::vector<Suppression>* out,
                        std::vector<Finding>* findings) {
  std::size_t pos = 0;
  const std::string marker = "privcheck:allow";
  while ((pos = comment.find(marker, pos)) != std::string::npos) {
    std::size_t i = pos + marker.size();
    bool file_level = false;
    if (comment.compare(i, 5, "-file") == 0) {
      file_level = true;
      i += 5;
    }
    auto bad = [&](const std::string& why) {
      findings->push_back({"bad-suppression", path, line, why, false, ""});
    };
    if (i >= comment.size() || comment[i] != '(') {
      bad("malformed suppression: expected privcheck:allow(<rule>): "
          "<justification>");
      pos = i;
      continue;
    }
    std::size_t close = comment.find(')', i);
    if (close == std::string::npos) {
      bad("malformed suppression: unterminated rule name");
      pos = i;
      continue;
    }
    std::string rule = trim(comment.substr(i + 1, close - i - 1));
    std::size_t j = close + 1;
    if (j < comment.size() && comment[j] == ':') ++j;
    std::string justification = trim(comment.substr(j));
    if (!known_rule(rule)) {
      bad("suppression names unknown rule '" + rule + "'");
    } else if (justification.empty()) {
      bad("suppression of '" + rule +
          "' has no justification — explain why the rule does not apply");
    } else {
      out->push_back({rule, line, file_level, justification, false});
    }
    pos = close;
  }
}

// ------------------------------------------------------------ rule checks

struct Ctx {
  const std::string& path;
  const std::string& module;
  std::vector<Finding>* findings;

  void emit(const char* rule, int line, std::string message) const {
    findings->push_back({rule, path, line, std::move(message), false, ""});
  }
};

void check_privacy_release(const Ctx& ctx, const Line& ln, int n) {
  if (path_allowed(ctx.path, kReleasePoints)) return;
  for (const char* sym : {"LaplaceMechanism", "GaussianMechanism"}) {
    if (has_identifier(ln.code, sym)) {
      ctx.emit("privacy-release", n,
               std::string(sym) +
                   " is callable only from the release points "
                   "(src/privacy/, src/engine/executor.cpp)");
    }
  }
  if (has_method_call(ln.code, "laplace")) {
    ctx.emit("privacy-release", n,
             "Rng::laplace sampling is callable only from the release "
             "points (src/privacy/, src/engine/executor.cpp)");
  }
}

void check_privacy_ledger(const Ctx& ctx, const Line& ln, int n) {
  if (path_allowed(ctx.path, kLedgerCallers)) return;
  if (has_method_call(ln.code, "try_reserve") ||
      has_qualified(ln.code, "BudgetLedger", "try_reserve")) {
    ctx.emit("privacy-ledger", n,
             "BudgetLedger::try_reserve is callable only from admission "
             "(src/engine/admission.*)");
  }
}

void check_exec_output(const Ctx& ctx, const Line& ln, int n) {
  if (path_allowed(ctx.path, kSandboxBoundary)) return;
  if (has_identifier(ln.code, "ExecOutput")) {
    ctx.emit("exec-output", n,
             "untrusted ExecOutput is nameable only at the sandbox "
             "boundary (src/engine/sandbox.*)");
  }
}

void check_determinism_random(const Ctx& ctx, const Line& ln, int n) {
  if (path_allowed(ctx.path, kRngFiles)) return;
  for (const char* sym :
       {"rand", "srand", "rand_r", "drand48", "random_device"}) {
    if (has_identifier(ln.code, sym)) {
      ctx.emit("determinism-random", n,
               std::string("nondeterministic source '") + sym +
                   "' — draw from an explicitly seeded privid::Rng "
                   "(common/rng.*) instead");
    }
  }
}

void check_determinism_clock(const Ctx& ctx, const Line& ln, int n) {
  if (path_allowed(ctx.path, kTimeFiles)) return;
  for (const char* sym : {"steady_clock", "system_clock",
                          "high_resolution_clock", "clock_gettime",
                          "gettimeofday"}) {
    if (has_identifier(ln.code, sym)) {
      ctx.emit("determinism-clock", n,
               std::string("wall-clock read '") + sym +
                   "' — releases must not depend on real time; use "
                   "common/timeutil.* simulated time");
    }
  }
}

void check_determinism_env(const Ctx& ctx, const Line& ln, int n) {
  if (path_allowed(ctx.path, kEnvFiles)) return;
  for (const char* sym : {"getenv", "secure_getenv"}) {
    if (has_identifier(ln.code, sym)) {
      ctx.emit("determinism-env", n,
               std::string("environment read '") + sym +
                   "' — env-derived branching breaks run-to-run "
                   "determinism on release paths");
    }
  }
}

void check_float_format(const Ctx& ctx, const Line& ln, int n) {
  if (kReleaseModules.find(ctx.module) == kReleaseModules.end()) return;
  bool printf_call = false;
  for (const char* fn : kPrintfFamily) {
    if (has_identifier(ln.code, fn)) printf_call = true;
  }
  if (printf_call && has_float_conversion(ln.strings)) {
    ctx.emit("float-format", n,
             "printf-family float formatting on a release path — use "
             "std::to_chars (see table/value.cpp) so output bytes are "
             "locale- and libc-independent");
  }
}

void check_parallel_hash(const Ctx& ctx, const Line& ln, int n) {
  if (path_allowed(ctx.path, kHashFiles)) return;
  if (has_qualified(ln.code, "std", "hash")) {
    ctx.emit("parallel-hash", n,
             "std::hash outside common/fingerprint.* — key off the "
             "canonical Fingerprint, never a second hashing scheme");
  }
  for (const auto& lit : integer_literals(ln.code)) {
    if (kHashConstants.count(lit)) {
      ctx.emit("parallel-hash", n,
               "hash/mix constant " + lit +
                   " outside common/fingerprint.*/common/rng.* — reuse "
                   "privid::seed_mix or Fingerprint instead");
    }
  }
}

void check_raw_thread(const Ctx& ctx, const Line& ln, int n) {
  if (path_allowed(ctx.path, kThreadFiles)) return;
  for (const char* sym : {"thread", "jthread", "async"}) {
    if (has_qualified(ln.code, "std", sym)) {
      ctx.emit("raw-thread", n,
               std::string("raw std::") + sym +
                   " outside common/thread_pool.* — fan work out over "
                   "the shared privid::ThreadPool");
    }
  }
}

void check_manual_lock(const Ctx& ctx, const Line& ln, int n) {
  if (path_allowed(ctx.path, kThreadFiles)) return;
  std::string t = trim(ln.code);
  for (const char* suffix :
       {".lock();", "->lock();", ".unlock();", "->unlock();"}) {
    std::size_t len = std::string(suffix).size();
    if (t.size() > len && t.compare(t.size() - len, len, suffix) == 0) {
      // Only statement-level calls: the receiver must be a plain member /
      // identifier chain, not a larger expression.
      std::string recv = t.substr(0, t.size() - len);
      bool simple = !recv.empty();
      for (char c : recv) {
        if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
              c == '.' || c == ':' || c == '-' || c == '>')) {
          simple = false;
        }
      }
      if (simple) {
        ctx.emit("manual-lock", n,
                 "statement-level " + std::string(suffix + 0) +
                     " — hold locks via RAII guards "
                     "(std::lock_guard/std::unique_lock scopes) only");
      }
    }
  }
}

void check_obs_timing(const Ctx& ctx, const Line& ln, int n) {
  if (path_allowed(ctx.path, kObsFiles)) return;
  for (const char* sym : {"now_ns", "elapsed_ns", "observe_ns"}) {
    if (has_identifier(ln.code, sym)) {
      ctx.emit("obs-timing", n,
               std::string("raw timing value '") + sym +
                   "' outside src/obs/ — numeric durations are confined "
                   "to the obs plane; hold timing via the opaque "
                   "obs::Span/ScopedTimer/Stopwatch so it can never feed "
                   "a release, noise draw, or ledger charge");
    }
  }
}

void check_layering(const Ctx& ctx, const Line& ln, int n) {
  std::string inc = quoted_include_path(ln);
  if (inc.empty()) return;
  if (ctx.module == "root") return;  // the umbrella may include anything
  std::string target = include_target_module(inc);
  // "obs" and "fault" are, like "common", includable from anywhere: every
  // plane hangs metrics/spans off obs and compiles fault-injection sites
  // into its seams, and both depend only on common (+obs, for fault)
  // themselves.
  if (target == ctx.module || target == "common" || target == "obs" ||
      target == "fault") {
    return;
  }
  auto it = kAllowedEdges.find(ctx.module);
  if (it == kAllowedEdges.end()) {
    ctx.emit("layering", n,
             "module '" + ctx.module +
                 "' is not in the layering table — add it to "
                 "kAllowedEdges (tools/privcheck) with its dependencies");
    return;
  }
  if (it->second.find(target) == it->second.end()) {
    ctx.emit("layering", n,
             "include edge " + ctx.module + " -> " + target +
                 " is not in the allowed-edges table (common <- "
                 "table/cv/privacy <- engine <- service)");
  }
}

}  // namespace

// ----------------------------------------------------------------- report

std::size_t Report::active_count() const {
  std::size_t n = 0;
  for (const auto& f : findings)
    if (!f.suppressed) ++n;
  return n;
}

std::size_t Report::suppressed_count() const {
  return findings.size() - active_count();
}

Report analyze_files(const std::vector<FileContent>& files,
                     const Options& opts) {
  Report report;
  report.files_scanned = files.size();
  for (const auto& file : files) {
    const std::string module = module_of(file.path);
    std::vector<Line> lines = lex_lines(file.text);
    std::vector<Finding> found;
    std::vector<Suppression> sups;
    Ctx ctx{file.path, module, &found};
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const Line& ln = lines[i];
      int n = static_cast<int>(i) + 1;
      if (!ln.comment.empty()) {
        parse_suppressions(ln.comment, file.path, n, &sups, &found);
      }
      if (ln.code.find_first_not_of(" \t") == std::string::npos) continue;
      check_privacy_release(ctx, ln, n);
      check_privacy_ledger(ctx, ln, n);
      check_exec_output(ctx, ln, n);
      check_determinism_random(ctx, ln, n);
      check_determinism_clock(ctx, ln, n);
      check_determinism_env(ctx, ln, n);
      check_float_format(ctx, ln, n);
      check_parallel_hash(ctx, ln, n);
      check_raw_thread(ctx, ln, n);
      check_manual_lock(ctx, ln, n);
      check_obs_timing(ctx, ln, n);
      check_layering(ctx, ln, n);
    }
    if (opts.honor_suppressions) {
      // A line suppression covers its own line and the next code line —
      // comment-only/blank lines in between don't break the link, so a
      // multi-line justification comment works.
      auto covers = [&lines](const Suppression& s, int finding_line) {
        if (s.file_level || s.line == finding_line) return true;
        if (finding_line < s.line) return false;
        for (int l = s.line + 1; l < finding_line; ++l) {
          const Line& between = lines[static_cast<std::size_t>(l) - 1];
          if (between.code.find_first_not_of(" \t") != std::string::npos) {
            return false;
          }
        }
        return true;
      };
      for (auto& f : found) {
        if (f.rule == "bad-suppression") continue;
        for (auto& s : sups) {
          if (s.rule != f.rule) continue;
          if (covers(s, f.line)) {
            f.suppressed = true;
            f.justification = s.justification;
            s.used = true;
            break;
          }
        }
      }
      for (const auto& s : sups) {
        if (!s.used) {
          found.push_back({"unused-suppression", file.path, s.line,
                           "suppression of '" + s.rule +
                               "' matches no finding — the rule no longer "
                               "fires here; delete the marker",
                           false, ""});
        }
      }
    }
    report.findings.insert(report.findings.end(), found.begin(), found.end());
  }
  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return report;
}

Report analyze_tree(const std::string& repo_root, const Options& opts) {
  namespace fs = std::filesystem;
  fs::path src = fs::path(repo_root) / "src";
  if (!fs::is_directory(src)) {
    throw std::runtime_error("privcheck: no src/ directory under " +
                             repo_root);
  }
  std::vector<std::string> paths;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    auto ext = entry.path().extension().string();
    if (ext != ".hpp" && ext != ".cpp") continue;
    paths.push_back(fs::relative(entry.path(), repo_root).generic_string());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<FileContent> files;
  files.reserve(paths.size());
  for (const auto& rel : paths) {
    std::ifstream in(fs::path(repo_root) / rel, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    files.push_back({rel, buf.str()});
  }
  return analyze_files(files, opts);
}

namespace {

void json_escape(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

std::string to_json(const Report& report) {
  std::ostringstream os;
  os << "{\n  \"version\": 1,\n  \"files_scanned\": " << report.files_scanned
     << ",\n  \"active\": " << report.active_count()
     << ",\n  \"suppressed\": " << report.suppressed_count()
     << ",\n  \"findings\": [";
  bool first = true;
  for (const auto& f : report.findings) {
    os << (first ? "\n" : ",\n") << "    {\"rule\": ";
    json_escape(os, f.rule);
    os << ", \"file\": ";
    json_escape(os, f.file);
    os << ", \"line\": " << f.line << ", \"suppressed\": "
       << (f.suppressed ? "true" : "false") << ", \"message\": ";
    json_escape(os, f.message);
    if (f.suppressed) {
      os << ", \"justification\": ";
      json_escape(os, f.justification);
    }
    os << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "]\n}\n";
  return os.str();
}

std::string rule_catalog() {
  return
      "privacy-release     Laplace/Gaussian mechanisms only at release "
      "points\n"
      "privacy-ledger      BudgetLedger try_reserve only in admission\n"
      "exec-output         untrusted ExecOutput only at the sandbox "
      "boundary\n"
      "determinism-random  rand/srand/random_device outside common/rng.*\n"
      "determinism-clock   wall-clock reads outside common/timeutil.* and "
      "src/obs/\n"
      "determinism-env     getenv outside common/rng.*, common/timeutil.*, "
      "engine/chunk_cache.cpp (PRIVID_CACHE* knobs), fault/fault.cpp "
      "(PRIVID_FAULTS) and obs/trace.cpp (PRIVID_TRACE* knobs)\n"
      "float-format        printf-family float formatting on release "
      "paths\n"
      "parallel-hash       std::hash / hash constants outside "
      "common/fingerprint.*\n"
      "raw-thread          std::thread/std::async outside "
      "common/thread_pool.*\n"
      "manual-lock         statement-level .lock()/.unlock() (RAII only)\n"
      "layering            include edge not in the allowed-edges table\n"
      "obs-timing          raw timing values (now_ns/elapsed_ns/observe_ns) "
      "outside src/obs/\n"
      "bad-suppression     privcheck:allow without justification / unknown "
      "rule\n"
      "unused-suppression  privcheck:allow that no longer matches a "
      "finding\n";
}

}  // namespace privcheck
