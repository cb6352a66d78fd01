#include "service/session.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/fingerprint.hpp"

namespace privid::service {

AnalystSession::AnalystSession(std::string id, double weight,
                               std::uint64_t seed)
    : id_(std::move(id)), seed_(seed), weight_(weight) {
  if (weight <= 0) throw ArgumentError("analyst weight must be positive");
}

double AnalystSession::weight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return weight_;
}

void AnalystSession::set_weight(double weight) {
  if (weight <= 0) throw ArgumentError("analyst weight must be positive");
  std::lock_guard<std::mutex> lock(mu_);
  weight_ = weight;
}

std::uint64_t AnalystSession::next_sequence() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_sequence_++;
}

std::uint64_t AnalystSession::noise_seed(std::uint64_t sequence) const {
  FingerprintBuilder fp;
  fp.add(seed_).add(sequence);
  return fp.digest().lo;
}

void AnalystSession::record_accepted() { c_accepted_->add(); }

void AnalystSession::record_rejected() { c_rejected_->add(); }

void AnalystSession::record_completed(double epsilon_committed) {
  c_completed_->add();
  d_epsilon_->add(epsilon_committed);
}

void AnalystSession::record_failed() { c_failed_->add(); }

void AnalystSession::record_cancelled() { c_cancelled_->add(); }

SessionRegistry::SessionRegistry(std::uint64_t service_seed)
    : service_seed_(service_seed) {}

AnalystSession& SessionRegistry::get_or_create(const std::string& id,
                                               double weight,
                                               bool update_weight) {
  if (id.empty()) throw ArgumentError("analyst id must be non-empty");
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    // Session seed from (service seed, analyst id): stable across runs,
    // independent across analysts.
    FingerprintBuilder fp;
    fp.add(service_seed_).add(id);
    it = sessions_
             .emplace(id, std::make_unique<AnalystSession>(id, weight,
                                                           fp.digest().lo))
             .first;
  } else if (update_weight) {
    it->second->set_weight(weight);
  }
  return *it->second;
}

const AnalystSession* SessionRegistry::find(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

std::vector<const obs::MetricGroup*> SessionRegistry::metric_groups() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const obs::MetricGroup*> out;
  out.reserve(sessions_.size());
  for (const auto& [id, s] : sessions_) out.push_back(&s->metrics());
  return out;
}

}  // namespace privid::service
