#include "engine/standing.hpp"

#include <charconv>

#include "common/error.hpp"

namespace privid::engine {

std::string substitute_window(const std::string& text, Seconds begin,
                              Seconds end) {
  // std::to_chars shortest form: round-trips to the identical double when
  // the substituted query is parsed, with locale- and libc-independent
  // bytes (the float-format discipline pinned in table/value.cpp).
  auto render = [](Seconds v) {
    char buf[40];
    auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    (void)ec;  // 40 bytes always fit a shortest-form double
    return std::string(buf, p);
  };
  std::string out = text;
  auto replace_all = [&out](const std::string& from, const std::string& to) {
    std::size_t pos = 0;
    while ((pos = out.find(from, pos)) != std::string::npos) {
      out.replace(pos, from.size(), to);
      pos += to.size();
    }
  };
  replace_all("{BEGIN}", render(begin));
  replace_all("{END}", render(end));
  return out;
}

StandingQuery::StandingQuery(Privid* system, Spec spec)
    : system_(system), spec_(std::move(spec)), cursor_(spec_.start) {
  if (!system_) throw ArgumentError("StandingQuery requires a system");
  if (spec_.period <= 0) throw ArgumentError("period must be positive");
  if (spec_.query_template.find("{BEGIN}") == std::string::npos ||
      spec_.query_template.find("{END}") == std::string::npos) {
    throw ArgumentError(
        "query template must contain {BEGIN} and {END} placeholders");
  }
}

std::vector<Release> StandingQuery::advance(Seconds now) {
  std::vector<Release> out;
  while (cursor_ + spec_.period <= now) {
    Seconds begin = cursor_;
    Seconds end = cursor_ + spec_.period;
    // Budget denial propagates before the cursor moves, so the failed
    // period is retried on the next call rather than silently skipped.
    QueryResult result = system_->execute(
        substitute_window(spec_.query_template, begin, end), spec_.opts);
    cursor_ = end;
    ++executed_;
    for (auto& r : result.releases) out.push_back(std::move(r));
  }
  return out;
}

}  // namespace privid::engine
