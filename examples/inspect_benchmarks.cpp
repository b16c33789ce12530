// Diagnostic walk-through of the four benchmark circuits: prints the
// topology-graph statistics, evaluates the human-expert reference design,
// and estimates the random-sampling success rate and evaluation speed.
//
// Useful both as a health check after changing the simulator/device model
// and as a worked example of the BenchmarkCircuit / SizingEnv API.
//
// Usage: inspect_benchmarks [node] [samples]   (default: 180nm, 30)
#include <chrono>
#include <cstdio>

#include "api/registry.hpp"
#include "circuit/graph.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"

using namespace gcnrl;

int main(int argc, char** argv) {
  const std::string node = argc > 1 ? argv[1] : "180nm";
  const int samples = argc > 2 ? std::atoi(argv[2]) : 30;
  const auto tech = circuit::make_technology(node);

  for (const auto& name : api::circuit_names()) {
    auto bc = api::build_circuit(name, tech);
    env::SizingEnv env(std::move(bc));

    std::printf("=== %s @ %s ===\n", name.c_str(), node.c_str());
    std::printf("components=%d  flat_dim=%d  graph: components=%d diameter=%d\n",
                env.n(), env.flat_dim(),
                circuit::connected_components(env.adjacency()),
                circuit::graph_diameter(env.adjacency()));

    auto human = env.evaluate_params(env.bench().human_expert);
    std::printf("human expert: sim_ok=%d spec_ok=%d\n", human.sim_ok,
                human.spec_ok);
    for (const auto& [k, v] : human.metrics) {
      std::printf("  %-8s = %.6g\n", k.c_str(), v);
    }

    Rng rng(1234);
    int ok = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int s = 0; s < samples; ++s) {
      const auto r = env.step(env.random_actions(rng));
      ok += r.sim_ok ? 1 : 0;
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count() / samples;
    std::printf("random sampling: %d/%d converged, %.1f ms/eval\n\n", ok,
                samples, ms);
  }
  return 0;
}
