// Standing queries (§6.1): "P̲r̲i̲v̲i̲d̲ can be used for one-off ad-hoc queries
// or standing queries running over a long period, e.g., the total number
// of cars per day, each day over a year."
//
// A StandingQuery binds a query *template* — the analyst's SPLIT/PROCESS/
// SELECT text with {BEGIN} and {END} placeholders — to a release period.
// advance(now) executes the template once for every period that has fully
// elapsed since the last call, in order, and returns the releases. Each
// period substitutes its window into the text (substitute_window) and
// parses the result; the chunk cache still sees one PROCESS program across
// periods, because its keys leave the window out. Budget is consumed per
// executed period exactly as for ad-hoc queries; a denial stops the cursor
// at the failing period so the caller can retry after topping up nothing
// was skipped.
//
// Appendix D's streaming semantics ("values that depend upon future
// timestamps will be released as soon as possible after all of the
// timestamps needed have elapsed") is exactly advance()'s contract; the
// caller supplies the clock.
#pragma once

#include <string>
#include <vector>

#include "engine/privid.hpp"

namespace privid::engine {

class StandingQuery {
 public:
  struct Spec {
    // Query text with {BEGIN} / {END} placeholders (seconds, substituted
    // in shortest round-trip form, so the parsed window is exact).
    std::string query_template;
    Seconds start = 0;      // first period begins here
    Seconds period = 3600;  // one release batch per period
    // Applied to every period's execution; opts.num_threads > 1 fans each
    // period's PROCESS phase out over the system's shared thread pool with
    // bit-identical releases (see RunOptions::num_threads).
    RunOptions opts;
  };

  StandingQuery(Privid* system, Spec spec);

  // Executes every fully-elapsed period up to `now`; returns the releases
  // of the periods executed by THIS call. Monotonic: re-invoking with the
  // same or an earlier `now` executes nothing.
  std::vector<Release> advance(Seconds now);

  // Start of the next period awaiting execution.
  Seconds next_period_start() const { return cursor_; }
  // Earliest `now` at which advance() will execute something.
  Seconds next_due() const { return cursor_ + spec_.period; }
  std::size_t periods_executed() const { return executed_; }

 private:
  Privid* system_;
  Spec spec_;
  Seconds cursor_;
  std::size_t executed_ = 0;
};

// Replaces every "{BEGIN}" / "{END}" in `text` (exposed for tests).
std::string substitute_window(const std::string& text, Seconds begin,
                              Seconds end);

}  // namespace privid::engine
