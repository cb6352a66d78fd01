// Per-frame privacy budget ledger (§6.4, Algorithm 1 lines 1-5).
//
// Privid allocates a separate budget of ε to *each frame* of a camera's
// video rather than one global budget. A query over frame interval [a, b)
// requesting ε_Q is admitted only if every frame in the widened interval
// [a - ρ_frames, b + ρ_frames) still has ≥ ε_Q remaining; on admission,
// ε_Q is charged to [a, b) only (the ρ margin is checked but not charged).
// The margin guarantees no single ≤ρ event segment can straddle two
// temporally disjoint queries with independent budgets (Appendix E.2).
//
// Writers: besides an owner-side restore (move-assigning a loaded ledger),
// try_reserve and refund are the only mutators, and the admission
// controller (engine/admission.hpp) is their only caller — every query,
// synchronous or served, pays through one admission reservation. A
// reservation *is* a charge; "commit" is the absence of a refund, and
// refund exactly reverses a prior charge when the admitted query later
// aborts.
//
// Concurrency: every operation is atomic under an internal mutex, so
// owner-side readers and many analysts' queries can hit one camera's
// ledger from many threads. try_reserve checks and charges in one critical
// section, so two reservations racing for the last ε serialize and exactly
// one wins.
//
// Backed by an IntervalMap so cost is O(log n) per query, independent of
// video length.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>

#include "common/interval_map.hpp"
#include "common/timeutil.hpp"

namespace privid {

class BudgetLedger {
 public:
  // `epsilon_per_frame`: the global per-frame allocation ε_C for the camera.
  explicit BudgetLedger(double epsilon_per_frame);

  // Movable so restored ledgers can replace live ones (restore_budget) and
  // load() can return by value. The source must be quiescent — moving a
  // ledger that other threads are charging is a caller bug.
  BudgetLedger(BudgetLedger&& other) noexcept;
  BudgetLedger& operator=(BudgetLedger&& other) noexcept;

  // True iff every frame in [interval.begin - margin, interval.end + margin)
  // has at least `epsilon` remaining.
  bool can_charge(FrameInterval interval, FrameIndex margin,
                  double epsilon) const;

  // Atomic check-and-charge: charges `epsilon` to every frame in
  // `interval` (not the margin) and returns true iff the widened interval
  // had it to give; otherwise the ledger is untouched and the call returns
  // false. The admission-control primitive.
  bool try_reserve(FrameInterval interval, FrameIndex margin, double epsilon);

  // Exactly reverses a prior charge of `epsilon` over `interval` (the
  // refund path for admitted queries that abort before releasing). Throws
  // ArgumentError if some frame in the interval has less than `epsilon`
  // spent — refunding budget that was never charged (a double refund)
  // would mint privacy out of thin air.
  void refund(FrameInterval interval, double epsilon);

  // Remaining budget on a single frame.
  double remaining(FrameIndex frame) const;
  // Minimum remaining budget over an interval.
  double min_remaining(FrameInterval interval) const;

  double epsilon_per_frame() const { return epsilon_; }

  // Total budget consumed across all frames (diagnostics).
  double total_consumed(FrameInterval over) const;

  // Persistence: budget state must survive owner restarts — a ledger that
  // forgets its charges silently voids the (ρ, K, ε_C) guarantee. The
  // format is a line-oriented text record of the spent segments.
  void save(std::ostream& os) const;
  static BudgetLedger load(std::istream& is);  // throws ParseError

 private:
  BudgetLedger(double epsilon_per_frame, IntervalMap spent);

  bool can_charge_locked(FrameInterval interval, FrameIndex margin,
                         double epsilon) const;

  mutable std::mutex mu_;  // guards spent_
  double epsilon_;
  IntervalMap spent_;  // default 0: nothing spent
};

}  // namespace privid
