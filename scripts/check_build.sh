#!/usr/bin/env bash
# The tier-1 verify, exactly as CI runs it (see .github/workflows/ci.yml):
# format gate, configure, build everything, run every test suite. Run from
# the repo root:
#
#   scripts/check_build.sh [build-dir]
#
# The CI matrix lines are runnable locally verbatim:
#
#   SANITIZE=address scripts/check_build.sh build-asan   # ASan + UBSan
#   SANITIZE=thread  scripts/check_build.sh build-tsan   # TSan
#   CXX=clang++      scripts/check_build.sh build-clang  # compiler leg
#   FORMAT=require FORMAT_ONLY=1 scripts/check_build.sh  # format gate only
#
# SANITIZE maps onto the PRIVID_SANITIZE CMake option; sanitizer builds are
# Debug-ish (RelWithDebInfo) so stacks stay readable. TEST_FILTER, when set,
# is passed to `ctest -R` — the TSan job uses it to run the concurrency-
# relevant suites (thread pool, executor, engine) rather than the world.
# CXX, when set, picks the compiler (-DCMAKE_CXX_COMPILER) so the gcc and
# clang CI legs share this script. CMAKE_CXX_COMPILER_LAUNCHER (e.g.
# ccache) is forwarded when set, and its hit-rate stats are printed at the
# end of the run. PRIVID_CACHE (off/shared) flows through to the
# test processes — the CI cache-equivalence job replays suites under
# different cache modes this way.
#
# FORMAT controls the clang-format gate (pinned to clang-format-18 because
# formatting drifts across majors):
#   check   (default) run the gate if clang-format-18 is installed; print a
#           loud notice — never a silent skip — when it is not
#   require run the gate; FAIL FAST if clang-format-18 is missing (CI)
#   skip    don't run the gate
# FORMAT_ONLY=1 exits right after the gate (the CI format job).
#
# LINT mirrors the FORMAT knob for static analysis (the CI lint job):
#   check   (default) after the build, run privcheck (built by this tree —
#           always available) and clang-tidy if a clang-tidy binary is
#           installed; print a loud notice — never a silent skip — when
#           clang-tidy is not
#   require same, but FAIL FAST if clang-tidy is missing (CI)
#   skip    run neither
# privcheck findings and clang-tidy warnings both fail the run; privcheck's
# JSON report lands in $BUILD_DIR/privcheck_report.json (CI artifact).
set -euo pipefail

BUILD_DIR="${1:-build}"
SANITIZE="${SANITIZE:-}"
TEST_FILTER="${TEST_FILTER:-}"
FORMAT="${FORMAT:-check}"
FORMAT_ONLY="${FORMAT_ONLY:-}"
LINT="${LINT:-check}"

# ------------------------------------------------------------ format gate
run_format_gate() {
  if ! command -v clang-format-18 >/dev/null 2>&1; then
    case "$FORMAT" in
      require)
        echo "check_build.sh: FATAL: clang-format-18 not found but" \
             "FORMAT=require — install it (apt-get install clang-format-18)" \
             "or rerun with FORMAT=skip" >&2
        exit 2
        ;;
      *)
        echo "check_build.sh: NOTICE: clang-format-18 not found;" \
             "SKIPPING the format gate (CI will still enforce it —" \
             "set FORMAT=require to fail fast here instead)" >&2
        return 0
        ;;
    esac
  fi
  echo "check_build.sh: running clang-format gate ($(clang-format-18 --version))"
  find src tests bench examples \
    \( -name '*.cpp' -o -name '*.hpp' \) -print0 |
    xargs -0 clang-format-18 --dry-run -Werror
}

case "$FORMAT" in
  check|require) run_format_gate ;;
  skip) ;;
  *)
    echo "check_build.sh: FORMAT must be 'check', 'require' or 'skip'" >&2
    exit 2
    ;;
esac
if [[ -n "$FORMAT_ONLY" ]]; then
  echo "check_build.sh: FORMAT_ONLY set; stopping after the format gate"
  exit 0
fi

# ------------------------------------------------------- configure flags
# Always passed (even when empty) so a reused build dir can't keep a stale
# sanitizer setting from its CMake cache.
CMAKE_ARGS=("-DPRIVID_SANITIZE=$SANITIZE")
case "$SANITIZE" in
  "")
    # Explicit so a build dir reused after a sanitizer run can't keep that
    # run's Debug/RelWithDebInfo cached: tier-1 is always Release.
    CMAKE_ARGS+=("-DCMAKE_BUILD_TYPE=Release")
    ;;
  address)
    # ASan+UBSan ride a Debug build: unoptimized stacks give exact lines.
    CMAKE_ARGS+=("-DCMAKE_BUILD_TYPE=Debug")
    ;;
  thread)
    # TSan needs the optimizer on or the simulator-driven suites crawl.
    CMAKE_ARGS+=("-DCMAKE_BUILD_TYPE=RelWithDebInfo")
    ;;
  *)
    echo "check_build.sh: SANITIZE must be empty, 'address' or 'thread'" >&2
    exit 2
    ;;
esac
if [[ -n "${CXX:-}" ]]; then
  CMAKE_ARGS+=("-DCMAKE_CXX_COMPILER=${CXX}")
fi
if [[ -n "${CMAKE_CXX_COMPILER_LAUNCHER:-}" ]]; then
  CMAKE_ARGS+=("-DCMAKE_CXX_COMPILER_LAUNCHER=${CMAKE_CXX_COMPILER_LAUNCHER}")
fi

case "$LINT" in
  check|require|skip) ;;
  *)
    echo "check_build.sh: LINT must be 'check', 'require' or 'skip'" >&2
    exit 2
    ;;
esac

# ---------------------------------------------------------------- lint gate
# Runs after the build (privcheck is built by this tree; clang-tidy needs
# the compilation database the configure step emits).
run_lint_gate() {
  local privcheck_bin="$BUILD_DIR/tools/privcheck/privcheck"
  if [[ ! -x "$privcheck_bin" ]]; then
    echo "check_build.sh: FATAL: $privcheck_bin not built — configure with" \
         "-DPRIVID_BUILD_TOOLS=ON (the default) or rerun with LINT=skip" >&2
    exit 2
  fi
  echo "check_build.sh: running privcheck"
  "$privcheck_bin" --root . --json "$BUILD_DIR/privcheck_report.json" --quiet

  local tidy=""
  for cand in clang-tidy-18 clang-tidy; do
    if command -v "$cand" >/dev/null 2>&1; then
      tidy="$cand"
      break
    fi
  done
  if [[ -z "$tidy" ]]; then
    case "$LINT" in
      require)
        echo "check_build.sh: FATAL: clang-tidy not found but LINT=require" \
             "— install it (apt-get install clang-tidy-18) or rerun with" \
             "LINT=check" >&2
        exit 2
        ;;
      *)
        echo "check_build.sh: NOTICE: clang-tidy not found; SKIPPING the" \
             "clang-tidy half of the lint gate (CI will still enforce it" \
             "— set LINT=require to fail fast here instead)" >&2
        return 0
        ;;
    esac
  fi
  echo "check_build.sh: running $tidy ($($tidy --version | head -n 1))"
  # .cpp files only: headers are not in the compilation database; they are
  # checked through their includers via HeaderFilterRegex in .clang-tidy.
  find src -name '*.cpp' -print0 |
    xargs -0 "$tidy" -p "$BUILD_DIR" --quiet
}

# --------------------------------------------------------- build and test
cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}"
cmake --build "$BUILD_DIR" -j "$(nproc)"
if [[ "$LINT" != "skip" ]]; then
  run_lint_gate
fi
(
  cd "$BUILD_DIR"
  if [[ -n "$TEST_FILTER" ]]; then
    # --no-tests=error: a filter that matches nothing (e.g. after a suite
    # rename) must fail the job, not silently race-check zero tests.
    ctest --output-on-failure -j "$(nproc)" -R "$TEST_FILTER" --no-tests=error
  else
    ctest --output-on-failure -j "$(nproc)"
  fi
)

# ------------------------------------------------------------ ccache stats
# Printed at the end of every job so cache efficacy is visible in the log;
# a cold cache on a PR that should have hit warns that the CI cache key or
# the launcher forwarding broke.
if [[ "${CMAKE_CXX_COMPILER_LAUNCHER:-}" == *ccache* ]]; then
  if command -v ccache >/dev/null 2>&1; then
    echo "check_build.sh: ccache stats for this run:"
    ccache -s | grep -Ei "hit|miss|cache size" || ccache -s
  else
    echo "check_build.sh: CMAKE_CXX_COMPILER_LAUNCHER mentions ccache but" \
         "no ccache binary is on PATH — builds ran unlaunched" >&2
  fi
fi
