#include "env/eval_service.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

#include "common/envcfg.hpp"
#include "sim/mna.hpp"

namespace gcnrl::env {

EvalServiceConfig eval_config_from_env() {
  EvalServiceConfig cfg;
  cfg.threads = std::clamp(env_int("GCNRL_EVAL_THREADS", cfg.threads), 1, 256);
  cfg.cache_capacity = static_cast<std::size_t>(std::max(
      0, env_int("GCNRL_EVAL_CACHE",
                 static_cast<int>(cfg.cache_capacity))));
  return cfg;
}

// --- EvalCache -----------------------------------------------------------

std::size_t EvalCache::KeyHash::operator()(const Key& k) const {
  // FNV-1a over the byte representation. Keys hold quantized parameter
  // values, so equal designs are bit-identical doubles and hash equal.
  std::uint64_t h = 1469598103934665603ULL;
  for (const double d : k) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  }
  return static_cast<std::size_t>(h);
}

bool EvalCache::KeyEqual::operator()(const Key& a, const Key& b) const {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

const CachedEval* EvalCache::find(const Key& key) {
  const auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // touch: move to front
  return &it->second->second;
}

void EvalCache::insert(const Key& key, CachedEval value) {
  if (capacity_ == 0) return;
  const auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->second = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(value));
  map_.emplace(key, lru_.begin());
  if (map_.size() > capacity_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

void EvalCache::clear() {
  map_.clear();
  lru_.clear();
}

// --- backends ------------------------------------------------------------

namespace {

class SerialBackend final : public EvalBackend {
 public:
  void run(std::size_t n,
           const std::function<void(std::size_t)>& task) override {
    for (std::size_t i = 0; i < n; ++i) task(i);
  }
  [[nodiscard]] int threads() const override { return 1; }
};

// N persistent workers draining a per-run task index. run() blocks until
// every task of the run has completed.
class ThreadPoolBackend final : public EvalBackend {
 public:
  explicit ThreadPoolBackend(int threads) {
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPoolBackend() override {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (auto& w : workers_) w.join();
  }

  void run(std::size_t n,
           const std::function<void(std::size_t)>& task) override {
    if (n == 0) return;
    std::unique_lock<std::mutex> lock(mu_);
    task_ = &task;
    size_ = n;
    next_ = 0;
    remaining_ = n;
    cv_work_.notify_all();
    cv_done_.wait(lock, [this] { return remaining_ == 0; });
    task_ = nullptr;
    size_ = 0;
  }

  [[nodiscard]] int threads() const override {
    return static_cast<int>(workers_.size());
  }

 private:
  void worker_loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_work_.wait(lock, [this] { return stop_ || next_ < size_; });
      if (stop_) return;
      const std::size_t idx = next_++;
      const std::function<void(std::size_t)>& task = *task_;
      lock.unlock();
      task(idx);  // tasks trap their own exceptions (see parallel_for)
      lock.lock();
      if (--remaining_ == 0) cv_done_.notify_one();
    }
  }

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t size_ = 0;
  std::size_t next_ = 0;
  std::size_t remaining_ = 0;
  bool stop_ = false;
};

// The design part of a cache key: matched components and unused action
// dims are already folded away by refine(), so any two raw action
// matrices landing on the same legal design append the same values. One
// definition shared by key_of and design_key keeps the run loops'
// run-local ledgers keyed exactly like the cache.
void append_design(EvalCache::Key& key, const circuit::DesignSpace& space,
                   const circuit::DesignParams& p) {
  for (int i = 0; i < space.num_components(); ++i) {
    for (int d = 0; d < space.comp(i).nparams(); ++d) {
      key.push_back(p.v[static_cast<std::size_t>(i)][static_cast<std::size_t>(d)]);
    }
  }
}

// Cache key: the interned circuit tag followed by the quantized flattened
// design vector.
EvalCache::Key key_of(double tag, const circuit::DesignSpace& space,
                      const circuit::DesignParams& p) {
  EvalCache::Key key;
  key.reserve(1 + static_cast<std::size_t>(space.flat_dim()));
  key.push_back(tag);
  append_design(key, space, p);
  return key;
}

// FoM layer applied on top of a (possibly cached) simulation outcome, so
// recalibrating the spec never serves stale FoMs from the cache.
void apply_fom(const FomSpec& fom, const CachedEval& sim, EvalResult& out) {
  out.sim_ok = sim.sim_ok;
  out.metrics = sim.metrics;
  if (!sim.sim_ok) {
    out.fom = fom.sim_fail_fom;
    out.spec_ok = false;
    return;
  }
  out.spec_ok = fom.spec_ok(sim.metrics);
  out.fom = fom.fom(sim.metrics);
}

}  // namespace

EvalCache::Key design_key(const circuit::DesignSpace& space,
                          const circuit::DesignParams& p) {
  EvalCache::Key key;
  key.reserve(static_cast<std::size_t>(space.flat_dim()));
  append_design(key, space, p);
  return key;
}

// --- EvalService ---------------------------------------------------------

EvalService::EvalService(EvalServiceConfig cfg)
    : cfg_(cfg), cache_(cfg.cache_capacity) {
  if (cfg_.threads > 1) {
    backend_ = std::make_unique<ThreadPoolBackend>(cfg_.threads);
  } else {
    backend_ = std::make_unique<SerialBackend>();
  }
}

EvalService::~EvalService() = default;

int EvalService::threads() const { return backend_->threads(); }

int EvalService::new_attribution() {
  attr_counters_.emplace_back();
  return static_cast<int>(attr_counters_.size()) - 1;
}

double EvalService::circuit_tag(const BenchmarkCircuit& bc) {
  // Fast path: this exact circuit object was tagged before. Runs once per
  // job on the sequential submission path, so it must not allocate; the
  // name re-checks guard against a recycled address.
  const auto hit = ptr_tags_.find(&bc);
  if (hit != ptr_tags_.end() && hit->second.name == bc.name &&
      hit->second.tech == bc.tech.name) {
    return hit->second.tag;
  }
  // '\n' cannot occur in either name, so the concatenation is injective.
  const std::string id = bc.name + "\n" + bc.tech.name;
  auto it = tags_.find(id);
  if (it == tags_.end()) {
    it = tags_.emplace(id, static_cast<double>(tags_.size())).first;
  }
  ptr_tags_[&bc] = TagEntry{bc.name, bc.tech.name, it->second};
  return it->second;
}

std::vector<EvalResult> EvalService::eval_batch_multi(
    std::span<const EvalJob> jobs_in) {
  const std::size_t n = jobs_in.size();
  std::vector<EvalResult> results(n);
  // Counter bumps go to the service-wide totals and, when the job carries
  // an attribution slot, to that slot as well.
  const auto count = [this](int attr, long EvalCounters::* field) {
    ++(total_.*field);
    if (attr >= 0) {
      ++(attr_counters_.at(static_cast<std::size_t>(attr)).*field);
    }
  };

  // Submission pass (sequential, submission order): refine, look up the
  // cache, dedupe repeats within the batch, and schedule fresh designs.
  struct Slot {
    std::size_t item = 0;  // the batch item whose refined design this job runs
    CachedEval sim;        // filled by the job
  };
  std::vector<EvalCache::Key> keys(n);
  std::vector<long> job_of(n, -1);  // job index evaluating item i
  std::vector<bool> first_of_job(n, false);
  std::unordered_map<EvalCache::Key, long, EvalCache::KeyHash,
                     EvalCache::KeyEqual>
      scheduled;
  std::vector<Slot> slots;
  slots.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const BenchmarkCircuit& bc = *jobs_in[i].bc;
    count(jobs_in[i].attr, &EvalCounters::requested);
    results[i].params = bc.space.refine(*jobs_in[i].actions);
    keys[i] = key_of(circuit_tag(bc), bc.space, results[i].params);
    if (const CachedEval* hit = cache_.find(keys[i])) {
      count(jobs_in[i].attr, &EvalCounters::cache_hits);
      results[i].cached = true;
      apply_fom(bc.fom, *hit, results[i]);
      continue;
    }
    // In-batch dedupe only runs when caching is on: at capacity 0 every
    // requested evaluation must simulate ("0 disables caching"), matching
    // what the serial engine would do with no cache to hit.
    if (cache_.capacity() > 0) {
      if (const auto dup = scheduled.find(keys[i]); dup != scheduled.end()) {
        // Same legal design earlier in this batch: share its simulation
        // (the serial engine would have hit the entry the first occurrence
        // inserts at commit time).
        count(jobs_in[i].attr, &EvalCounters::cache_hits);
        results[i].cached = true;
        job_of[i] = dup->second;
        continue;
      }
    }
    job_of[i] = static_cast<long>(slots.size());
    first_of_job[i] = true;
    if (cache_.capacity() > 0) scheduled.emplace(keys[i], job_of[i]);
    slots.emplace_back();
    slots.back().item = i;
    count(jobs_in[i].attr, &EvalCounters::sims);
  }
  // Jobs are pure functions of (netlist, params): each copies the netlist,
  // applies its parameters, and runs the measurement closure. SimError is
  // part of the result; anything else escapes to parallel_for, which
  // rethrows it after the batch, before any result is committed.
  parallel_for(slots.size(), [&](std::size_t j) {
    Slot& slot = slots[j];
    const BenchmarkCircuit& bc = *jobs_in[slot.item].bc;
    try {
      circuit::Netlist sized = bc.netlist;
      bc.space.apply(sized, results[slot.item].params);
      slot.sim.metrics = bc.evaluate(sized);
      slot.sim.sim_ok = true;
    } catch (const sim::SimError&) {
      slot.sim.sim_ok = false;
      slot.sim.metrics.clear();
    }
  });

  // Commit pass (sequential, submission order): fill fresh/deduped
  // results and insert cache entries deterministically.
  for (std::size_t i = 0; i < n; ++i) {
    if (job_of[i] < 0) continue;  // cache hit, already filled
    const Slot& slot = slots[static_cast<std::size_t>(job_of[i])];
    apply_fom(jobs_in[i].bc->fom, slot.sim, results[i]);
    if (first_of_job[i]) {
      cache_.insert(keys[i], slot.sim);
    } else {
      cache_.find(keys[i]);  // LRU touch, mirroring the as-if-serial order
    }
  }
  return results;
}

void EvalService::parallel_for(std::size_t n,
                               const std::function<void(std::size_t)>& body) {
  std::vector<std::exception_ptr> errors(n);
  backend_->run(n, [&body, &errors](std::size_t i) {
    try {
      body(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

std::vector<EvalResult> EvalService::eval_batch(
    const BenchmarkCircuit& bc, std::span<const la::Mat> actions, int attr) {
  std::vector<EvalJob> jobs(actions.size());
  for (std::size_t i = 0; i < actions.size(); ++i) {
    jobs[i] = EvalJob{&bc, &actions[i], attr};
  }
  return eval_batch_multi(jobs);
}

EvalResult EvalService::eval_one(const BenchmarkCircuit& bc,
                                 const la::Mat& actions, int attr) {
  return eval_batch(bc, std::span<const la::Mat>(&actions, 1), attr).front();
}

}  // namespace gcnrl::env
