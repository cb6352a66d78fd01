#include "privacy/budget.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace privid {

BudgetLedger::BudgetLedger(double epsilon_per_frame)
    : epsilon_(epsilon_per_frame) {
  if (epsilon_per_frame <= 0) {
    throw ArgumentError("epsilon_per_frame must be positive");
  }
}

BudgetLedger::BudgetLedger(BudgetLedger&& other) noexcept
    : epsilon_(other.epsilon_), spent_(std::move(other.spent_)) {}

BudgetLedger& BudgetLedger::operator=(BudgetLedger&& other) noexcept {
  if (this != &other) {
    std::lock_guard<std::mutex> lock(mu_);
    epsilon_ = other.epsilon_;
    spent_ = std::move(other.spent_);
  }
  return *this;
}

bool BudgetLedger::can_charge_locked(FrameInterval interval, FrameIndex margin,
                                     double epsilon) const {
  if (interval.empty()) throw ArgumentError("can_charge: empty interval");
  if (margin < 0) throw ArgumentError("can_charge: negative margin");
  if (epsilon <= 0) throw ArgumentError("can_charge: non-positive epsilon");
  FrameInterval widened{interval.begin - margin, interval.end + margin};
  double max_spent = spent_.max_over(widened.begin, widened.end);
  // Guard against FP accumulation: treat within-1e-12 as equal.
  return epsilon_ - max_spent >= epsilon - 1e-12;
}

bool BudgetLedger::can_charge(FrameInterval interval, FrameIndex margin,
                              double epsilon) const {
  std::lock_guard<std::mutex> lock(mu_);
  return can_charge_locked(interval, margin, epsilon);
}

bool BudgetLedger::try_reserve(FrameInterval interval, FrameIndex margin,
                               double epsilon) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!can_charge_locked(interval, margin, epsilon)) return false;
  spent_.add(interval.begin, interval.end, epsilon);
  return true;
}

void BudgetLedger::refund(FrameInterval interval, double epsilon) {
  if (interval.empty()) throw ArgumentError("refund: empty interval");
  if (epsilon <= 0) throw ArgumentError("refund: non-positive epsilon");
  std::lock_guard<std::mutex> lock(mu_);
  // Every frame must have at least `epsilon` spent, or this refund does not
  // correspond to a prior charge (double refund / wrong interval).
  if (spent_.min_over(interval.begin, interval.end) < epsilon - 1e-12) {
    throw ArgumentError("refund of epsilon " + std::to_string(epsilon) +
                        " over [" + std::to_string(interval.begin) + ", " +
                        std::to_string(interval.end) +
                        ") exceeds what was charged");
  }
  spent_.add(interval.begin, interval.end, -epsilon);
}

double BudgetLedger::remaining(FrameIndex frame) const {
  std::lock_guard<std::mutex> lock(mu_);
  return epsilon_ - spent_.value_at(frame);
}

double BudgetLedger::min_remaining(FrameInterval interval) const {
  if (interval.empty()) throw ArgumentError("min_remaining: empty interval");
  std::lock_guard<std::mutex> lock(mu_);
  return epsilon_ - spent_.max_over(interval.begin, interval.end);
}

double BudgetLedger::total_consumed(FrameInterval over) const {
  if (over.empty()) return 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  return spent_.sum_over(over.begin, over.end);
}

BudgetLedger::BudgetLedger(double epsilon_per_frame, IntervalMap spent)
    : epsilon_(epsilon_per_frame), spent_(std::move(spent)) {}

void BudgetLedger::save(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os.precision(17);
  os << "privid-budget-v1\n";
  os << "epsilon " << epsilon_ << "\n";
  for (const auto& seg : spent_.segments()) {
    os << "spent " << seg.lo << " " << seg.hi << " " << seg.value << "\n";
  }
  os << "end\n";
}

BudgetLedger BudgetLedger::load(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != "privid-budget-v1") {
    throw ParseError("budget ledger: bad header");
  }
  double epsilon = 0;
  IntervalMap spent;
  bool saw_end = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "epsilon") {
      ls >> epsilon;
    } else if (tag == "spent") {
      std::int64_t lo = 0, hi = 0;
      double value = 0;
      ls >> lo >> hi >> value;
      if (ls.fail() || hi <= lo || value < 0) {
        throw ParseError("budget ledger: bad segment '" + line + "'");
      }
      spent.assign(lo, hi, value);
    } else if (tag == "end") {
      saw_end = true;
      break;
    } else {
      throw ParseError("budget ledger: unknown record '" + tag + "'");
    }
    if (ls.fail()) throw ParseError("budget ledger: bad record '" + line + "'");
  }
  if (!saw_end) throw ParseError("budget ledger: truncated file");
  if (epsilon <= 0) throw ParseError("budget ledger: missing epsilon");
  return BudgetLedger(epsilon, std::move(spent));
}

}  // namespace privid
