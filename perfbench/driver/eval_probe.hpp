// The benchmark's probe at the circuit boundary: a wrapper around each
// circuit's BenchmarkCircuit::evaluate closure that counts evaluations,
// classifies every sim::SimError by reason, and (in the traced run) times
// each evaluation.
//
// The wrapped circuits are registered under alias names ("perfbench/<name>")
// whose builders return the built-in circuit unchanged apart from the
// wrapper, so the BenchmarkCircuit keeps its name and technology — and with
// them its EvalService cache identity — and every result is bit-identical
// to a run on the built-in name. The wrapper rethrows what it catches, so
// EvalService sees exactly the errors it would see without it.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "api/registry.hpp"

namespace perfbench {

// Failure reasons, named as in the ROADMAP's failure taxonomy.
enum class FailReason {
  DcNonconverged,
  AcSingular,
  TranNewton,
  TranSingular,
  TranDivergence,
  CircuitReject,
  Other,
};
inline constexpr std::size_t kFailReasons = 7;
inline constexpr std::array<const char*, kFailReasons> kFailReasonNames = {
    "dc_nonconverged", "ac_singular",    "tran_newton", "tran_singular",
    "tran_divergence", "circuit_reject", "other"};

// Maps a SimError message onto its reason. The simulator's messages map by
// prefix; circuit-level guard rejections ("LDO output collapsed") map to
// circuit_reject; anything not listed maps to other.
FailReason classify_sim_error(std::string_view what);

class EvalProbe {
 public:
  // `timed` adds a clock read pair and a locked append per evaluation; the
  // untraced run only counts.
  explicit EvalProbe(bool timed) : timed_(timed) {}
  EvalProbe(const EvalProbe&) = delete;
  EvalProbe& operator=(const EvalProbe&) = delete;

  // Registers "perfbench/<circuit>" (once per process) and returns that
  // alias. The probe must outlive every evaluation of the alias.
  std::string register_alias(const std::string& circuit);

  [[nodiscard]] long evals() const { return evals_.load(); }
  [[nodiscard]] long fails() const;
  [[nodiscard]] long fails(FailReason r) const {
    return fails_[static_cast<std::size_t>(r)].load();
  }
  // Timed mode only: summed evaluation wall time over all workers, and
  // the per-evaluation durations in milliseconds (completion order).
  [[nodiscard]] double eval_s() const;
  [[nodiscard]] std::vector<double> eval_ms() const;

 private:
  void record(double seconds);

  bool timed_;
  std::atomic<long> evals_{0};
  std::array<std::atomic<long>, kFailReasons> fails_{};
  mutable std::mutex mu_;  // guards eval_ms_
  std::vector<double> eval_ms_;
};

}  // namespace perfbench
