// Admission control: the one writer of the per-frame budget ledgers.
//
// Every query pays for its budget the same way, whichever front door it
// came through (Privid::execute, StandingQuery::advance, QueryService::
// submit): after prepare() resolves its SPLITs and before any PROCESS task
// runs, the admission controller reserves every SELECT's ledger charge
// atomically (all cameras, all SELECTs, under one lock). An admitted query
// can therefore never die of budget mid-run, and a denied one has touched
// nothing — not the ledger, not the noise stream, not an executable.
//
// A reservation *is* the charge: PreparedQuery::admission_charges() prices
// the query (Alg. 1 lines 1-5), and after reserve the ledger holds exactly
// those charges. Commit simply disarms the refund; refund — on abort
// (sandbox crash, retry exhaustion, cancellation, SELECT-time failure) —
// exactly reverses the charges, exactly once, no matter how many paths
// race to report the failure.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "engine/executor.hpp"
#include "privacy/budget.hpp"

namespace privid::engine {

class AdmissionController;

// The refundable record of one admitted query's ledger charges. Move-only;
// exactly one of commit() / refund() takes effect, whichever is called
// first (later calls are no-ops). A reservation abandoned without either —
// e.g. execution throws after admission — refunds itself on destruction,
// so no error path can leak budget.
class Reservation {
 public:
  Reservation() = default;
  Reservation(Reservation&& other) noexcept;
  Reservation& operator=(Reservation&& other) noexcept;
  Reservation(const Reservation&) = delete;
  Reservation& operator=(const Reservation&) = delete;
  ~Reservation();

  // Makes the charges permanent (the query released its results).
  void commit();
  // Reverses the charges. Idempotent: only the first settle (commit or
  // refund) acts.
  void refund();

  // Sum of ε over the reserved charges (one term per camera per SELECT).
  double total_epsilon() const { return total_epsilon_; }

 private:
  friend class AdmissionController;
  struct Charge {
    BudgetLedger* ledger = nullptr;
    FrameInterval frames;
    double epsilon = 0;
  };
  std::vector<Charge> charges_;
  double total_epsilon_ = 0;
  bool settled_ = false;
};

class AdmissionController {
 public:
  explicit AdmissionController(std::map<std::string, CameraState>* cameras);

  // Atomically reserves the query's admission_charges(), in SELECT order
  // and cumulatively — two SELECTs over the same frames must both fit.
  // Within one SELECT, each camera's table windows are checked (widened by
  // their ρ margins) against the ledger as it stood before that SELECT,
  // then the union of the windows is charged once per frame. On success
  // returns the reservation holding the applied charges; on failure rolls
  // back whatever was applied and throws BudgetError, with the ledgers
  // exactly as before the call. Thread-safe: concurrent reservations
  // serialize, so rejecting is race-free even when two analysts contend
  // for the last ε of one camera. A query prepared with
  // RunOptions::charge_budget off (owner-side what-if runs) reserves
  // nothing and returns an empty reservation.
  Reservation reserve(const PreparedQuery& query);

 private:
  std::map<std::string, CameraState>* cameras_;
  std::mutex mu_;
};

}  // namespace privid::engine
