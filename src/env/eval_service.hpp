// EvalService: the batch-evaluation engine behind SizingEnv.
//
// The paper's cost model is "number of simulations" (Figs. 5/7/8), yet the
// black-box baselines already propose whole populations per iteration
// (CMA-ES lambda, MACE's candidate pool) and random search knows its entire
// schedule upfront. The service exploits both structures:
//
//   * pluggable backends — Serial (in-order on the calling thread) and
//     ThreadPool (N persistent workers, each evaluating an independent
//     sized-netlist copy through its own Simulator instances);
//   * a deterministic LRU result cache keyed on the *quantized* flattened
//     design vector: two raw action vectors that refine onto the same legal
//     grid point share one simulation. Late CMA-ES/MACE populations and
//     snapped-grid random search revisit legal designs constantly.
//
// Determinism contract: results are committed in submission order, jobs are
// pure functions of the refined parameters, and all cache bookkeeping
// (lookup, in-batch dedupe, insertion, LRU touches) happens sequentially on
// the calling thread. Hence eval_batch returns bit-identical results — and
// leaves bit-identical cache state — for every backend and thread count;
// only wall-clock changes.
//
// A service instance is shareable: hold it in a std::shared_ptr and inject
// it into every SizingEnv that should draw on the same thread pool and
// result cache (the lockstep multi-seed sweeps do exactly this). Cache keys
// are refined parameter vectors prefixed with an interned circuit tag
// derived from (BenchmarkCircuit::name, Technology::name), so the seed-envs
// of a sweep — same circuit, same node — share entries while distinct
// circuits or nodes never alias. Corollary of that identity scheme: two
// circuits handed to one service with the same (name, tech) pair MUST have
// identical netlist/space/evaluate. The FoM spec, by contrast, is free to
// differ per circuit and may be recalibrated at any time — the cache stores
// raw metrics and the FoM is recomputed from each job's own spec on every
// hit.
#pragma once

#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "env/sizing_env.hpp"

namespace gcnrl::env {

// What a simulation produces, independent of the (recalibratable) FoM spec.
struct CachedEval {
  bool sim_ok = false;
  MetricMap metrics;
};

// Deterministic LRU cache: quantized design vector -> CachedEval.
// Not thread-safe by design — EvalService only touches it from the
// submitting thread, which is what keeps eviction order reproducible.
class EvalCache {
 public:
  using Key = std::vector<double>;

  // Hash and equality both work on the bit representation, keeping the
  // unordered_map invariant (equal keys hash equal) even for NaN keys — a
  // diverged agent can emit NaN actions, and NaN != NaN under operator==
  // would otherwise grow the map unboundedly and dangle on eviction.
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };
  struct KeyEqual {
    bool operator()(const Key& a, const Key& b) const;
  };

  explicit EvalCache(std::size_t capacity) : capacity_(capacity) {}

  // Returns the cached entry (touching it most-recently-used) or nullptr.
  const CachedEval* find(const Key& key);
  // Inserts (or refreshes) an entry, evicting the least-recently-used one
  // when over capacity. No-op when capacity is 0.
  void insert(const Key& key, CachedEval value);
  void clear();

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  using Entry = std::pair<Key, CachedEval>;

  std::size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash, KeyEqual>
      map_;
};

// Backend strategy: run task(0) ... task(n-1) as independent tasks. Tasks
// must not throw (EvalService::parallel_for traps their exceptions) and may
// run in any order on any thread; completion of run() implies completion
// of every task.
class EvalBackend {
 public:
  virtual ~EvalBackend() = default;
  virtual void run(std::size_t n,
                   const std::function<void(std::size_t)>& task) = 0;
  [[nodiscard]] virtual int threads() const = 0;
};

// Canonical flat key of a refined design (no circuit tag): matched
// components and unused action dims are folded away via the space's
// per-component parameter counts, so two raw action matrices landing on
// the same legal design produce bit-identical keys. This is the design
// part of the service's cache key, exported so the run loops can reuse the
// key machinery for run-local simulated-cost accounting.
EvalCache::Key design_key(const circuit::DesignSpace& space,
                          const circuit::DesignParams& p);

// One evaluation request of a multi-circuit batch. Both pointers are
// non-owning and must outlive the eval_batch_multi call; distinct jobs may
// reference the same circuit (the single-circuit eval_batch is exactly
// that) or different ones (the lockstep sweep engine). `attr` is an
// optional attribution slot from EvalService::new_attribution(): the job
// is counted against that slot's requested/sims/cache_hits counters in
// addition to the service-wide ones (-1: service-wide only).
struct EvalJob {
  const BenchmarkCircuit* bc = nullptr;
  const la::Mat* actions = nullptr;
  int attr = -1;
};

// Counter triple kept service-wide and per attribution slot. requested =
// every evaluation asked for; sims = simulator runs actually executed;
// cache_hits = requested - sims for cache-served results (including
// in-batch dedupe).
struct EvalCounters {
  long requested = 0;
  long sims = 0;
  long cache_hits = 0;
};

class EvalService {
 public:
  explicit EvalService(EvalServiceConfig cfg = eval_config_from_env());
  ~EvalService();
  EvalService(const EvalService&) = delete;
  EvalService& operator=(const EvalService&) = delete;

  // Evaluate a batch of jobs, each against its own circuit, through the
  // refine -> simulate -> FoM pipeline. Raw metrics are cached under
  // (circuit tag, refined params); the FoM is applied per job from that
  // job's own FomSpec. Results come back in submission order.
  std::vector<EvalResult> eval_batch_multi(std::span<const EvalJob> jobs);
  // Single-circuit convenience wrappers over eval_batch_multi.
  std::vector<EvalResult> eval_batch(const BenchmarkCircuit& bc,
                                     std::span<const la::Mat> actions,
                                     int attr = -1);
  EvalResult eval_one(const BenchmarkCircuit& bc, const la::Mat& actions,
                      int attr = -1);

  // Run body(0) ... body(n-1) as independent tasks on the service's
  // workers (inline, in index order, on the serial backend) and return
  // once all of them have finished. Each task traps its own exception;
  // after the last task finishes, the lowest-index exception is rethrown.
  // Tasks must not share mutable state or call back into this service.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

  [[nodiscard]] int threads() const;
  EvalCache& cache() { return cache_; }

  // --- counters ---------------------------------------------------------
  // Service-wide totals (see EvalCounters for the semantics).
  [[nodiscard]] long requested() const { return total_.requested; }
  [[nodiscard]] long sims() const { return total_.sims; }
  [[nodiscard]] long cache_hits() const { return total_.cache_hits; }

  // Per-job attribution: each SizingEnv (or any other submitter) claims a
  // slot and stamps it on its jobs, so many envs on one shared service
  // can report per-env counters instead of service-wide totals.
  // A result served from the cache — even one warmed by another env — is a
  // cache hit for the requesting slot; only the first requester of a
  // design is charged the sim.
  [[nodiscard]] int new_attribution();
  // By value: new_attribution() may reallocate the slot storage, so a
  // returned reference could dangle across env constructions.
  [[nodiscard]] EvalCounters counters(int attr) const {
    return attr_counters_.at(static_cast<std::size_t>(attr));
  }

 private:
  // Interned circuit identity (see the header comment): stable small id per
  // (circuit name, technology name) pair, stored as the leading element of
  // every cache key.
  double circuit_tag(const BenchmarkCircuit& bc);

  // Address-keyed fast path for circuit_tag. The names are kept alongside
  // the tag and re-checked on every hit, so a reused address (a destroyed
  // circuit's slot recycled for a different one) can never serve a stale
  // tag — it just falls through to the string-keyed intern table.
  struct TagEntry {
    std::string name;
    std::string tech;
    double tag = 0.0;
  };

  EvalServiceConfig cfg_;
  std::unique_ptr<EvalBackend> backend_;
  EvalCache cache_;
  std::unordered_map<std::string, double> tags_;
  std::unordered_map<const BenchmarkCircuit*, TagEntry> ptr_tags_;
  EvalCounters total_;
  std::vector<EvalCounters> attr_counters_;
};

}  // namespace gcnrl::env
