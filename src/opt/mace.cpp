#include "opt/mace.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace gcnrl::opt {

Mace::Mace(int dim, Rng rng, MaceOptions opt)
    : dim_(dim), rng_(rng), opt_(opt) {}

std::vector<std::vector<double>> Mace::ask() {
  if (static_cast<int>(xs_.size()) < opt_.initial_random) {
    std::vector<std::vector<double>> out(
        std::min(opt_.batch, opt_.initial_random),
        std::vector<double>(dim_));
    for (auto& x : out) {
      for (auto& v : x) v = rng_.uniform(-1.0, 1.0);
    }
    return out;
  }

  // Candidate pool: half global, half local around the incumbent.
  std::vector<std::vector<double>> pool(opt_.pool,
                                        std::vector<double>(dim_));
  const auto& best = xs_[std::distance(
      ys_.begin(), std::max_element(ys_.begin(), ys_.end()))];
  for (std::size_t k = 0; k < pool.size(); ++k) {
    if (k % 2 == 0) {
      for (auto& v : pool[k]) v = rng_.uniform(-1.0, 1.0);
    } else {
      for (int i = 0; i < dim_; ++i) {
        pool[k][i] = std::clamp(best[i] + 0.2 * rng_.normal(), -1.0, 1.0);
      }
    }
  }

  // Acquisition triple per candidate (all to MAXIMIZE): EI, PI, UCB
  // (for a maximization problem LCB's role is played by mu + kappa*sd).
  struct Acq {
    double ei, pi, ucb;
  };
  std::vector<GpPrediction> preds(pool.size());
  gp_.predict_block(pool, preds);
  std::vector<Acq> acq(pool.size());
  for (std::size_t k = 0; k < pool.size(); ++k) {
    const GpPrediction& p = preds[k];
    const double sd = std::sqrt(p.variance);
    if (sd < 1e-12) {
      acq[k] = {0.0, 0.0, p.mean};
      continue;
    }
    const double z = (p.mean - best_y_ - opt_.xi) / sd;
    acq[k] = {(p.mean - best_y_ - opt_.xi) * norm_cdf(z) + sd * norm_pdf(z),
              norm_cdf(z), p.mean + opt_.lcb_kappa * sd};
  }

  // Pareto front over (ei, pi, ucb).
  auto dominates = [](const Acq& a, const Acq& b) {
    return a.ei >= b.ei && a.pi >= b.pi && a.ucb >= b.ucb &&
           (a.ei > b.ei || a.pi > b.pi || a.ucb > b.ucb);
  };
  std::vector<int> front;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < pool.size(); ++j) {
      if (i != j && dominates(acq[j], acq[i])) {
        dominated = true;
        break;
      }
    }
    if (!dominated) front.push_back(static_cast<int>(i));
  }
  if (front.empty()) {
    front.resize(pool.size());
    std::iota(front.begin(), front.end(), 0);
  }

  // Draw the batch from the front without replacement (anchored by the
  // best-EI member so pure exploitation is always represented).
  std::vector<std::vector<double>> out;
  std::sort(front.begin(), front.end(),
            [&](int a, int b) { return acq[a].ei > acq[b].ei; });
  out.push_back(pool[front.front()]);
  std::vector<int> rest(front.begin() + 1, front.end());
  rng_.shuffle(rest);
  for (int idx : rest) {
    if (static_cast<int>(out.size()) >= opt_.batch) break;
    out.push_back(pool[idx]);
  }
  while (static_cast<int>(out.size()) < opt_.batch) {
    std::vector<double> x(dim_);
    for (auto& v : x) v = rng_.uniform(-1.0, 1.0);
    out.push_back(std::move(x));
  }
  return out;
}

void Mace::tell(const std::vector<std::vector<double>>& xs,
                const std::vector<double>& ys) {
  check_tell_batch(xs, ys, dim_, "Mace::tell");
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs_.push_back(xs[i]);
    ys_.push_back(ys[i]);
    best_y_ = std::max(best_y_, ys[i]);
  }
  if (static_cast<int>(xs_.size()) < opt_.initial_random) return;
  // Same capped training set as BayesOpt: the newest point always enters.
  const std::vector<int> keep = gp_training_subset(ys_, opt_.max_gp_points);
  std::vector<std::vector<double>> x_fit;
  std::vector<double> y_fit;
  x_fit.reserve(keep.size());
  y_fit.reserve(keep.size());
  for (const int idx : keep) {
    x_fit.push_back(xs_[static_cast<std::size_t>(idx)]);
    y_fit.push_back(ys_[static_cast<std::size_t>(idx)]);
  }
  gp_.fit(x_fit, y_fit);
}

}  // namespace gcnrl::opt
