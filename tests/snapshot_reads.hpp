// Strict reads of an obs::Snapshot for tests.
//
// Snapshot::counter_value and its siblings read 0 for a name the snapshot
// does not hold, so EXPECT_EQ(snap.counter_value("x"), 0u) also passes for
// a metric that was renamed, deleted or misspelt. These readers fail the
// test when the name is absent; use them for every zero assertion on a
// component snapshot.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace privid {

namespace snapshot_reads_detail {
template <typename V>
V present(const std::vector<std::pair<std::string, V>>& rows,
          const std::string& name, const char* kind) {
  for (const auto& [n, v] : rows) {
    if (n == name) return v;
  }
  ADD_FAILURE() << kind << " '" << name << "' is not in the snapshot";
  return V{};
}
}  // namespace snapshot_reads_detail

inline std::uint64_t counter_at(const obs::Snapshot& s,
                                const std::string& name) {
  return snapshot_reads_detail::present(s.counters, name, "counter");
}

inline std::int64_t gauge_at(const obs::Snapshot& s, const std::string& name) {
  return snapshot_reads_detail::present(s.gauges, name, "gauge");
}

inline double double_at(const obs::Snapshot& s, const std::string& name) {
  return snapshot_reads_detail::present(s.doubles, name, "double");
}

}  // namespace privid
