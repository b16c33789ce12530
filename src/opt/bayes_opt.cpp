#include "opt/bayes_opt.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace gcnrl::opt {

double norm_pdf(double z) {
  return std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
}

double norm_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

BayesOpt::BayesOpt(int dim, Rng rng, BayesOptOptions opt)
    : dim_(dim), rng_(rng), opt_(opt) {}

double BayesOpt::expected_improvement(const std::vector<double>& x) const {
  return improvement(model_.gp.predict(x));
}

double BayesOpt::improvement(const GpPrediction& p) const {
  const double sd = std::sqrt(p.variance);
  if (sd < 1e-12) return 0.0;
  const double z = (p.mean - model_.best_y - opt_.xi) / sd;
  return (p.mean - model_.best_y - opt_.xi) * norm_cdf(z) + sd * norm_pdf(z);
}

std::vector<std::vector<double>> BayesOpt::ask() {
  if (static_cast<int>(model_.xs.size()) < opt_.initial_random) {
    std::vector<double> x(dim_);
    for (auto& v : x) v = rng_.uniform(-1.0, 1.0);
    return {x};
  }

  // Random multi-start acquisition maximization.
  const auto& best = model_.best_x();
  std::vector<std::vector<double>> cands(opt_.acq_samples,
                                         std::vector<double>(dim_));
  for (auto& x : cands) {
    if (rng_.uniform() < 0.5) {
      // Global: uniform.
      for (auto& v : x) v = rng_.uniform(-1.0, 1.0);
    } else {
      // Local: Gaussian ball around the incumbent best.
      for (int i = 0; i < dim_; ++i) {
        x[i] = std::clamp(best[i] + 0.2 * rng_.normal(), -1.0, 1.0);
      }
    }
  }
  std::vector<GpPrediction> preds(cands.size());
  model_.gp.predict_block(cands, preds);
  std::vector<double> acq(cands.size());
  for (std::size_t i = 0; i < cands.size(); ++i) {
    acq[i] = improvement(preds[i]);
  }
  std::vector<int> order(cands.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return acq[a] > acq[b]; });

  // Local coordinate refinement on the top candidates.
  std::vector<double> best_x = cands[order[0]];
  double best_acq = acq[order[0]];
  for (int k = 0; k < std::min<int>(opt_.refine_top,
                                    static_cast<int>(order.size()));
       ++k) {
    std::vector<double> x = cands[order[k]];
    double fx = acq[order[k]];
    double step = 0.1;
    for (int it = 0; it < opt_.refine_iters; ++it) {
      std::vector<double> y = x;
      const int d = static_cast<int>(rng_.uniform_index(dim_));
      y[d] = std::clamp(y[d] + step * rng_.normal(), -1.0, 1.0);
      const double fy = expected_improvement(y);
      if (fy > fx) {
        x = std::move(y);
        fx = fy;
      } else {
        step *= 0.85;
      }
    }
    if (fx > best_acq) {
      best_acq = fx;
      best_x = std::move(x);
    }
  }
  return {best_x};
}

std::vector<int> gp_training_subset(const std::vector<double>& ys,
                                    int max_points) {
  const int n = static_cast<int>(ys.size());
  std::vector<int> order(ys.size());
  std::iota(order.begin(), order.end(), 0);
  if (n <= max_points) return order;
  // stable_sort keeps tied objectives in insertion order, so the subset is
  // independent of how earlier batches were grouped.
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return ys[a] > ys[b]; });
  const int newest = n - 1;
  std::vector<int> keep;
  keep.reserve(static_cast<std::size_t>(max_points));
  for (int idx : order) {
    if (static_cast<int>(keep.size()) >= max_points - 1) break;
    if (idx == newest) continue;
    keep.push_back(idx);
  }
  keep.push_back(newest);
  return keep;
}

void GpSurrogate::tell(const std::vector<std::vector<double>>& batch_xs,
                       const std::vector<double>& batch_ys, int dim,
                       int initial_random, int max_gp_points,
                       const char* who) {
  const bool ragged = std::any_of(
      batch_xs.begin(), batch_xs.end(), [dim](const std::vector<double>& x) {
        return x.size() != static_cast<std::size_t>(dim);
      });
  if (batch_xs.size() != batch_ys.size() || ragged) {
    throw std::invalid_argument(std::string(who) + ": inconsistent batch");
  }
  for (std::size_t i = 0; i < batch_xs.size(); ++i) {
    xs.push_back(batch_xs[i]);
    ys.push_back(batch_ys[i]);
    best_y = std::max(best_y, batch_ys[i]);
  }
  if (static_cast<int>(xs.size()) < initial_random) return;

  // Cap the GP training set: the best (max_gp_points - 1) by objective
  // plus the newest point, which always enters (see gp_training_subset).
  const std::vector<int> keep = gp_training_subset(ys, max_gp_points);
  std::vector<std::vector<double>> x_fit;
  std::vector<double> y_fit;
  x_fit.reserve(keep.size());
  y_fit.reserve(keep.size());
  for (const int idx : keep) {
    x_fit.push_back(xs[static_cast<std::size_t>(idx)]);
    y_fit.push_back(ys[static_cast<std::size_t>(idx)]);
  }
  gp.fit(x_fit, y_fit);
}

const std::vector<double>& GpSurrogate::best_x() const {
  return xs[std::distance(ys.begin(), std::max_element(ys.begin(), ys.end()))];
}

void BayesOpt::tell(const std::vector<std::vector<double>>& xs,
                    const std::vector<double>& ys) {
  model_.tell(xs, ys, dim_, opt_.initial_random, opt_.max_gp_points,
              "BayesOpt::tell");
}

}  // namespace gcnrl::opt
