#include "engine/admission.hpp"

#include <string>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace privid::engine {

namespace {

// File-scoped admission.* metrics: the controller is a thin stateless-ish
// layer over the camera ledgers, so one shared group (not per-instance)
// is the right granularity. Function-local static keeps construction
// ordered and the registration detaching at exit.
struct AdmissionMetrics {
  obs::MetricGroup group;
  obs::Counter* reserved = group.counter("admission.reserved");
  obs::Counter* rejected = group.counter("admission.rejected");
  obs::Registration registration = obs::Registry::global().attach(&group);
};

AdmissionMetrics& admission_metrics() {
  static AdmissionMetrics m;
  return m;
}

}  // namespace

Reservation::Reservation(Reservation&& other) noexcept
    : charges_(std::move(other.charges_)),
      total_epsilon_(other.total_epsilon_), settled_(other.settled_) {
  other.charges_.clear();
  other.total_epsilon_ = 0;
  other.settled_ = false;
}

Reservation& Reservation::operator=(Reservation&& other) noexcept {
  if (this != &other) {
    // An overwritten live reservation must not leak its charges — and a
    // noexcept path must not let a ledger refusal (possible only if the
    // owner swapped the ledger out underneath, e.g. restore_budget from a
    // pre-reservation snapshot) escape as std::terminate.
    try {
      refund();
    } catch (...) {
    }
    charges_ = std::move(other.charges_);
    total_epsilon_ = other.total_epsilon_;
    settled_ = other.settled_;
    other.charges_.clear();
    other.total_epsilon_ = 0;
    other.settled_ = false;
  }
  return *this;
}

Reservation::~Reservation() {
  try {
    refund();
  } catch (...) {
    // See operator=: never terminate from the destructor over a ledger
    // the owner already replaced.
  }
}

void Reservation::commit() { settled_ = true; }

void Reservation::refund() {
  if (settled_) return;
  settled_ = true;
  for (const auto& c : charges_) {
    c.ledger->refund(c.frames, c.epsilon);
  }
}

AdmissionController::AdmissionController(
    std::map<std::string, CameraState>* cameras)
    : cameras_(cameras) {
  if (!cameras) throw ArgumentError("AdmissionController requires cameras");
}

Reservation AdmissionController::reserve(const PreparedQuery& query) {
  if (!query.options().charge_budget) return {};
  const std::vector<CameraCharge> charges = query.admission_charges();
  obs::Span span("admission.reserve", "engine");
  if (span.active()) {
    span.tag("cameras", static_cast<std::uint64_t>(charges.size()));
  }
  auto reject = [&](const CameraCharge& ch) {
    // ~Reservation refunds the charges applied so far.
    admission_metrics().rejected->add();
    if (span.active()) span.tag("outcome", "rejected");
    throw BudgetError("query rejected at admission: camera '" + ch.camera +
                      "' lacks budget for epsilon " +
                      std::to_string(ch.epsilon));
  };
  Reservation res;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& ch : charges) {
    auto it = cameras_->find(ch.camera);
    if (it == cameras_->end()) {
      // The charges were resolved moments ago; losing the camera here
      // means they are stale. Roll back via ~Reservation and report.
      throw LookupError("admission: unknown camera '" + ch.camera + "'");
    }
    BudgetLedger* ledger = it->second.ledger.get();
    // Check every window before charging any: each camera appears once
    // per SELECT, so the checks see the ledger as it stood before this
    // SELECT (earlier SELECTs' charges included).
    for (const auto& w : ch.windows) {
      if (!ledger->can_charge(w.frames, w.margin, ch.epsilon)) reject(ch);
    }
    for (const FrameInterval& frames : ch.charged) {
      // Cannot fail while this controller is the ledger's only writer;
      // checked anyway so a concurrent owner-side restore rolls back.
      if (!ledger->try_reserve(frames, 0, ch.epsilon)) reject(ch);
      res.charges_.push_back(Reservation::Charge{ledger, frames, ch.epsilon});
    }
    res.total_epsilon_ += ch.epsilon;
  }
  admission_metrics().reserved->add();
  if (span.active()) span.tag("outcome", "reserved");
  return res;
}

}  // namespace privid::engine
