#include "env/sizing_env.hpp"

#include <cmath>

#include "env/eval_service.hpp"
#include "la/stats.hpp"

namespace gcnrl::env {

SizingEnv::SizingEnv(BenchmarkCircuit bc, IndexMode mode,
                     EvalServiceConfig ecfg)
    : SizingEnv(std::move(bc), mode, std::make_shared<EvalService>(ecfg)) {}

SizingEnv::SizingEnv(BenchmarkCircuit bc, IndexMode mode,
                     std::shared_ptr<EvalService> svc)
    : bc_(std::move(bc)), mode_(mode), svc_(std::move(svc)) {
  if (!svc_) svc_ = std::make_shared<EvalService>(eval_config_from_env());
  attr_ = svc_->new_attribution();
  n_ = bc_.netlist.num_design_components();
  adjacency_ = circuit::build_adjacency(bc_.netlist);
  kinds_.reserve(n_);
  for (int i = 0; i < n_; ++i) kinds_.push_back(bc_.netlist.design_kind(i));
  build_state();
}

SizingEnv::~SizingEnv() = default;
SizingEnv::SizingEnv(SizingEnv&&) noexcept = default;
SizingEnv& SizingEnv::operator=(SizingEnv&&) noexcept = default;

void SizingEnv::build_state() {
  const int idx_dim = mode_ == IndexMode::OneHot ? n_ : 1;
  const int dim = idx_dim + circuit::kNumKinds + 5;
  state_ = la::Mat(n_, dim);
  for (int i = 0; i < n_; ++i) {
    if (mode_ == IndexMode::OneHot) {
      state_(i, i) = 1.0;
    } else {
      state_(i, 0) = static_cast<double>(i);
    }
    state_(i, idx_dim + static_cast<int>(kinds_[i])) = 1.0;
    const auto feats = bc_.tech.model_features(kinds_[i]);
    for (int f = 0; f < 5; ++f) {
      state_(i, idx_dim + circuit::kNumKinds + f) = feats[f];
    }
  }
  // Paper: "we normalize [each dimension] by the mean and standard
  // deviation across different components".
  la::normalize_columns(state_);
}

EvalResult SizingEnv::step(const la::Mat& actions) {
  return svc_->eval_one(bc_, actions, attr_);
}

std::vector<EvalResult> SizingEnv::step_batch(
    std::span<const la::Mat> actions) {
  return svc_->eval_batch(bc_, actions, attr_);
}

EvalResult SizingEnv::evaluate_params(const circuit::DesignParams& p) {
  return step(bc_.space.actions_from_params(p));
}

int SizingEnv::calibrate(int samples, Rng& rng) {
  // Draw the whole sample schedule first (the RNG stream is identical to
  // the historical one-at-a-time loop), then evaluate as one batch so the
  // thread-pool backend parallelizes calibration too.
  std::vector<la::Mat> actions;
  actions.reserve(samples);
  for (int s = 0; s < samples; ++s) {
    actions.push_back(bc_.space.random_actions(rng));
  }
  std::vector<EvalResult> results = step_batch(actions);
  std::vector<MetricMap> ok;
  ok.reserve(results.size());
  for (EvalResult& r : results) {
    if (!r.sim_ok) continue;
    bool finite = true;
    for (const auto& [k, v] : r.metrics) {
      if (!std::isfinite(v)) {
        finite = false;
        break;
      }
    }
    if (finite) ok.push_back(std::move(r.metrics));
  }
  if (!ok.empty()) bc_.fom.calibrate(ok);
  return static_cast<int>(ok.size());
}

long SizingEnv::num_evals() const { return svc_->counters(attr_).requested; }
long SizingEnv::num_sims() const { return svc_->counters(attr_).sims; }
long SizingEnv::cache_hits() const { return svc_->counters(attr_).cache_hits; }
int SizingEnv::eval_threads() const { return svc_->threads(); }

}  // namespace gcnrl::env
