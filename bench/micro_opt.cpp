// google-benchmark microbenchmarks for the GP surrogate behind the BO and
// MACE baselines: the packed Cholesky factorization through each copy of
// its kernels, GaussianProcess::fit (16 factorizations) and predict_block
// over one acquisition step's 512 candidates. Points live in [-1, 1]^23,
// Two-TIA's flat design dimension (perfbench's bo_2tia); the row argument
// is the number of training points, 120 (bo_2tia's last fits) and 400
// (BayesOptOptions::max_gp_points, where paper-scale runs spend most of
// their time).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "la/cholesky.hpp"
#include "opt/gp.hpp"

using namespace gcnrl;

namespace {

constexpr int kDim = 23;
constexpr int kCandidates = 512;

std::vector<std::vector<double>> random_points(int n, Rng& rng) {
  std::vector<std::vector<double>> x(n, std::vector<double>(kDim));
  for (auto& p : x) {
    for (auto& v : p) v = rng.uniform(-1.0, 1.0);
  }
  return x;
}

// n random points of a smooth objective, as BayesOpt::tell hands them to
// the GP.
struct TrainingSet {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
};

TrainingSet training_set(int n, Rng& rng) {
  TrainingSet t{random_points(n, rng), {}};
  for (const auto& p : t.x) t.y.push_back(std::sin(3.0 * p[0]) + 0.1 * p.back());
  return t;
}

// One copy of the packed kernel matrix and its factorization, as each
// grid point of GaussianProcess::fit runs them. The matrix is a squared-
// exponential kernel over random points plus 1e-4 on the diagonal.
void BM_CholeskyFactor(benchmark::State& state,
                       la::detail::CholeskyKernels chol) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  const std::vector<std::vector<double>> x = random_points(n, rng);
  std::vector<double> k(la::packed_size(static_cast<std::size_t>(n)));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      double d2 = 0.0;
      for (int d = 0; d < kDim; ++d) {
        const double diff = x[i][d] - x[j][d];
        d2 += diff * diff;
      }
      k[la::packed_index(i, j)] = std::exp(-0.5 * d2) + (i == j ? 1e-4 : 0.0);
    }
  }
  std::vector<double> work(k.size());
  for (auto _ : state) {
    std::copy(k.begin(), k.end(), work.begin());
    chol.factor(work, n);
    benchmark::DoNotOptimize(work.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * n * n / 3);
}
BENCHMARK_CAPTURE(BM_CholeskyFactor, baseline, la::detail::cholesky_baseline)
    ->Arg(120)
    ->Arg(400)
    ->Unit(benchmark::kMicrosecond);
#ifdef GCNRL_LA_AVX2_ROW_KERNEL
void BM_CholeskyFactorAvx2(benchmark::State& state) {
  if (!la::detail::cpu_has_avx2()) {
    state.SkipWithError("this CPU has no AVX2");
    return;
  }
  BM_CholeskyFactor(state, la::detail::cholesky_avx2);
}
BENCHMARK(BM_CholeskyFactorAvx2)
    ->Name("BM_CholeskyFactor/avx2")
    ->Arg(120)
    ->Arg(400)
    ->Unit(benchmark::kMicrosecond);
#endif

// One GaussianProcess::fit, as BayesOpt::tell and Mace::tell call it: the
// distances, the 15-point hyperparameter grid and the winner's refactor.
void BM_GpFit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  const TrainingSet t = training_set(n, rng);
  opt::GaussianProcess gp;
  for (auto _ : state) {
    gp.fit(t.x, t.y);
    benchmark::DoNotOptimize(gp.lengthscale());
  }
}
BENCHMARK(BM_GpFit)->Arg(120)->Arg(400)->Unit(benchmark::kMillisecond);

// The posterior at one acquisition step's candidates: predict_block over
// 512 points (16 blocks of GaussianProcess::kBlock).
void BM_GpPredictBlock(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  const TrainingSet t = training_set(n, rng);
  opt::GaussianProcess gp;
  gp.fit(t.x, t.y);
  const std::vector<std::vector<double>> cands =
      random_points(kCandidates, rng);
  std::vector<opt::GpPrediction> out(cands.size());
  for (auto _ : state) {
    gp.predict_block(cands, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kCandidates);
}
BENCHMARK(BM_GpPredictBlock)
    ->Arg(120)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

}  // namespace
