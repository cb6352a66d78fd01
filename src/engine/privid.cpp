#include "engine/privid.hpp"

#include "common/error.hpp"
#include "query/parser.hpp"

namespace privid::engine {

Privid::Privid(std::uint64_t noise_seed)
    : noise_rng_(noise_seed), noise_seed_(noise_seed),
      cache_(std::make_unique<ChunkCache>()) {
  // Restart-survivable construction: a deployment that sets
  // PRIVID_CACHE_DIR gets the disk spill tier without code changes, and a
  // restarted process pointed at the same directory resumes with the
  // slabs its predecessor demoted/flushed (see docs/CACHE.md). Tests and
  // owners can attach programmatically via chunk_cache().
  if (auto disk = DiskTierConfig::from_env()) {
    cache_->attach_disk_tier(std::move(*disk));
  }
}

Privid::Privid(Privid&& other) noexcept : noise_rng_(0) {
  // A live service holds raw pointers to other's cameras_/registry_
  // members, whose addresses do not travel with the move — transferring
  // it would hand back a dangling service. Drain and drop it instead
  // (the documented precondition is to move before serving queries).
  other.service_.reset();
  cameras_ = std::move(other.cameras_);
  registry_ = std::move(other.registry_);
  noise_rng_ = std::move(other.noise_rng_);
  noise_seed_ = other.noise_seed_;
  pool_ = std::move(other.pool_);
  cache_ = std::move(other.cache_);
}

Privid& Privid::operator=(Privid&& other) noexcept {
  if (this != &other) {
    // Drain and destroy both facades' services *before* the members they
    // point into (camera maps, shared caches) are overwritten or
    // orphaned — otherwise in-flight queries would race the replacement
    // (see the move constructor for why other's cannot be transferred).
    service_.reset();
    other.service_.reset();
    cameras_ = std::move(other.cameras_);
    registry_ = std::move(other.registry_);
    noise_rng_ = std::move(other.noise_rng_);
    noise_seed_ = other.noise_seed_;
    pool_ = std::move(other.pool_);
    cache_ = std::move(other.cache_);
  }
  return *this;
}

void Privid::register_camera(CameraRegistration reg) {
  const std::string id = reg.meta.camera_id;  // copy: reg.meta is moved below
  if (id.empty()) throw ArgumentError("camera id must be non-empty");
  if (cameras_.count(id)) {
    throw ArgumentError("camera '" + id + "' already registered");
  }
  if (reg.policy.rho < 0 || reg.policy.k < 1) {
    throw ArgumentError("camera policy requires rho >= 0 and K >= 1");
  }
  if (!reg.content.scene && !reg.content.porto) {
    throw ArgumentError("camera '" + id + "' has no content");
  }
  CameraState state;
  state.meta = std::move(reg.meta);
  state.content = std::move(reg.content);
  state.policy = reg.policy;
  state.epsilon_budget = reg.epsilon_budget;
  state.masks = std::move(reg.masks);
  state.regions = std::move(reg.regions);
  state.ledger = std::make_unique<BudgetLedger>(reg.epsilon_budget);
  with_owner_lock([&] { cameras_.emplace(id, std::move(state)); });
}

void Privid::register_executable(const std::string& name, Executable exe) {
  with_owner_lock([&] { registry_.add(name, std::move(exe)); });
}

void Privid::register_mask(const std::string& camera,
                           const std::string& mask_id, MaskEntry entry) {
  auto it = cameras_.find(camera);
  if (it == cameras_.end()) {
    throw LookupError("unknown camera '" + camera + "'");
  }
  if (mask_id.empty()) throw ArgumentError("mask id must be non-empty");
  if (entry.policy.rho < 0 || entry.policy.k < 1) {
    throw ArgumentError("mask policy requires rho >= 0 and K >= 1");
  }
  with_owner_lock([&] {
    auto& cam = it->second;
    cam.masks.insert_or_assign(mask_id, std::move(entry));
    ++cam.content_epoch;  // invalidate this camera's cached chunk outputs
  });
}

void Privid::retune_camera(const std::string& camera,
                           sensitivity::Policy policy) {
  auto it = cameras_.find(camera);
  if (it == cameras_.end()) {
    throw LookupError("unknown camera '" + camera + "'");
  }
  if (policy.rho < 0 || policy.k < 1) {
    throw ArgumentError("camera policy requires rho >= 0 and K >= 1");
  }
  with_owner_lock([&] {
    it->second.policy = policy;
    ++it->second.content_epoch;
  });
}

bool Privid::has_camera(const std::string& id) const {
  return cameras_.count(id) != 0;
}

QueryResult Privid::execute(const std::string& query_text, RunOptions opts) {
  return execute(query::parse_query(query_text), opts);
}

ThreadPool* Privid::shared_pool(std::size_t num_threads) {
  if (ThreadPool::resolve_threads(num_threads) <= 1) return nullptr;
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (!pool_) {
    // The caller participates in every batch, so hardware size means one
    // worker fewer than the hardware threads.
    pool_ = std::make_unique<ThreadPool>(ThreadPool::resolve_threads(0) - 1);
  }
  return pool_.get();
}

QueryResult Privid::execute(const query::ParsedQuery& q, RunOptions opts) {
  Executor exec(&cameras_, &registry_, &noise_rng_,
                shared_pool(opts.num_threads), cache_.get());
  PreparedQuery pq = exec.prepare(q, opts);
  // ~Reservation refunds if PROCESS or the release throws.
  Reservation reservation = admission_.reserve(pq);
  QueryResult result = exec.run(pq);
  reservation.commit();
  return result;
}

QueryPlan Privid::plan(const std::string& query_text) const {
  return plan(query::parse_query(query_text));
}

QueryPlan Privid::plan(const query::ParsedQuery& q) const {
  // The executor mutates nothing on the plan path; the const_casts bind the
  // non-owning pointers its constructor expects.
  Rng scratch(0);
  Executor exec(const_cast<std::map<std::string, CameraState>*>(&cameras_),
                &registry_, &scratch);
  return exec.plan(q);
}

void Privid::save_budget(const std::string& camera, std::ostream& os) const {
  auto it = cameras_.find(camera);
  if (it == cameras_.end()) throw LookupError("unknown camera '" + camera + "'");
  it->second.ledger->save(os);
}

void Privid::restore_budget(const std::string& camera, std::istream& is) {
  auto it = cameras_.find(camera);
  if (it == cameras_.end()) throw LookupError("unknown camera '" + camera + "'");
  auto restored = BudgetLedger::load(is);
  if (restored.epsilon_per_frame() != it->second.epsilon_budget) {
    throw ArgumentError(
        "restored ledger's epsilon does not match camera '" + camera + "'");
  }
  with_owner_lock([&] { *it->second.ledger = std::move(restored); });
}

bool Privid::has_service() const { return service_ptr() != nullptr; }

service::QueryService& Privid::service() {
  std::lock_guard<std::mutex> lock(service_mu_);
  if (!service_) {
    service::QueryService::Config config;
    config.noise_seed = noise_seed_;
    // Lend the facade's pool so execute() and the service share one set
    // of workers (ROADMAP: one engine pool, not one per subsystem).
    service_ = std::make_unique<service::QueryService>(
        &cameras_, &registry_, cache_.get(), &admission_, config,
        shared_pool(config.num_threads));
  }
  return *service_;
}

service::QueryService& Privid::configure_service(
    service::QueryService::Config config) {
  std::lock_guard<std::mutex> lock(service_mu_);
  if (service_) {
    throw ArgumentError(
        "configure_service must be called before the service is first used");
  }
  if (config.noise_seed == 0) config.noise_seed = noise_seed_;
  service_ = std::make_unique<service::QueryService>(
      &cameras_, &registry_, cache_.get(), &admission_, config,
      shared_pool(config.num_threads));
  return *service_;
}

service::QueryTicket Privid::submit(const std::string& analyst,
                                    const std::string& query_text,
                                    RunOptions opts) {
  return service().submit(analyst, query_text, opts);
}

service::QueryState Privid::poll(const service::QueryTicket& ticket) const {
  service::QueryService* svc = service_ptr();
  if (!svc) throw ArgumentError("no query service: nothing submitted");
  return svc->poll(ticket);
}

QueryResult Privid::wait(const service::QueryTicket& ticket) const {
  service::QueryService* svc = service_ptr();
  if (!svc) throw ArgumentError("no query service: nothing submitted");
  return svc->wait(ticket);
}

bool Privid::cancel(const service::QueryTicket& ticket) {
  service::QueryService* svc = service_ptr();
  if (!svc) throw ArgumentError("no query service: nothing submitted");
  return svc->cancel(ticket);
}

double Privid::remaining_budget(const std::string& camera,
                                FrameIndex frame) const {
  auto it = cameras_.find(camera);
  if (it == cameras_.end()) throw LookupError("unknown camera '" + camera + "'");
  return it->second.ledger->remaining(frame);
}

double Privid::min_remaining_budget(const std::string& camera,
                                    TimeInterval window) const {
  auto it = cameras_.find(camera);
  if (it == cameras_.end()) throw LookupError("unknown camera '" + camera + "'");
  const auto& cam = it->second;
  FrameInterval fr{cam.meta.frame_at(window.begin),
                   cam.meta.frame_at(window.end)};
  return cam.ledger->min_remaining(fr);
}

const VideoMeta& Privid::camera_meta(const std::string& camera) const {
  auto it = cameras_.find(camera);
  if (it == cameras_.end()) throw LookupError("unknown camera '" + camera + "'");
  return it->second.meta;
}

}  // namespace privid::engine
