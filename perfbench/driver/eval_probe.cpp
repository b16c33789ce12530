#include "eval_probe.hpp"

#include <chrono>
#include <utility>

#include "sim/mna.hpp"

namespace perfbench {

FailReason classify_sim_error(std::string_view what) {
  struct Rule {
    std::string_view text;
    bool prefix;  // else: substring
    FailReason reason;
  };
  static constexpr Rule kRules[] = {
      {"DC operating point did not converge", true,
       FailReason::DcNonconverged},
      {"AC matrix singular", true, FailReason::AcSingular},
      {"transient: Newton failed", true, FailReason::TranNewton},
      {"transient: singular Jacobian", true, FailReason::TranSingular},
      {"transient: divergence", true, FailReason::TranDivergence},
      {"output collapsed", false, FailReason::CircuitReject},
  };
  for (const Rule& r : kRules) {
    const bool hit = r.prefix ? what.starts_with(r.text)
                              : what.find(r.text) != std::string_view::npos;
    if (hit) return r.reason;
  }
  return FailReason::Other;
}

std::string EvalProbe::register_alias(const std::string& circuit) {
  std::string alias = "perfbench/" + circuit;
  if (gcnrl::api::circuit_registered(alias)) return alias;
  gcnrl::api::register_circuit(
      alias, [this, circuit](const gcnrl::circuit::Technology& tech) {
        gcnrl::env::BenchmarkCircuit bc =
            gcnrl::api::build_circuit(circuit, tech);
        bc.evaluate = [this, inner = std::move(bc.evaluate)](
                          const gcnrl::circuit::Netlist& sized) {
          using clock = std::chrono::steady_clock;
          const clock::time_point t0 = timed_ ? clock::now()
                                              : clock::time_point{};
          const auto done = [&] {
            evals_.fetch_add(1, std::memory_order_relaxed);
            if (timed_) {
              record(std::chrono::duration<double>(clock::now() - t0).count());
            }
          };
          try {
            gcnrl::env::MetricMap m = inner(sized);
            done();
            return m;
          } catch (const gcnrl::sim::SimError& e) {
            fails_[static_cast<std::size_t>(classify_sim_error(e.what()))]
                .fetch_add(1, std::memory_order_relaxed);
            done();
            throw;
          }
        };
        return bc;
      });
  return alias;
}

long EvalProbe::fails() const {
  long total = 0;
  for (const auto& f : fails_) total += f.load();
  return total;
}

void EvalProbe::record(double seconds) {
  const std::lock_guard<std::mutex> lock(mu_);
  eval_ms_.push_back(seconds * 1e3);
}

double EvalProbe::eval_s() const {
  const std::lock_guard<std::mutex> lock(mu_);
  double total_ms = 0.0;
  for (const double ms : eval_ms_) total_ms += ms;
  return total_ms / 1e3;
}

std::vector<double> EvalProbe::eval_ms() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return eval_ms_;
}

}  // namespace perfbench
