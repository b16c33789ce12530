// The two extension points of the public task API (api.hpp):
//
//   CircuitRegistry — name -> BenchmarkCircuit builder. The four paper
//   benchmarks (Fig. 6) are pre-registered in the paper's table order;
//   user code adds its own circuits with register_circuit() (or a static
//   CircuitRegistrar) and they become addressable from TaskSpec::circuit
//   and gcnrl_cli spec files without touching the library.
//   circuits::make_benchmark()/benchmark_names() are thin shims over this
//   registry (defined in registry.cpp — the registry TU is the one home
//   of cross-circuit dispatch).
//
//   MethodRegistry — name -> MethodInfo descriptor unifying the paper's
//   methods behind one dispatch surface. Every method runs through the one
//   lockstep driver, rl::run_optimizer_lockstep, as an opt::Optimizer; its
//   kind says how api::run_tasks builds that optimizer for a seed:
//     Anchor   proposes the circuit's human-expert sizing once ("Human");
//     AskTell  make_optimizer(dim, rng): a black-box optimizer (Random /
//              ES / BO / MACE, or any user opt::Optimizer);
//     Ddpg     a DdpgAgent behind rl::DdpgOptimizer (NG-RL / GCN-RL,
//              differing only in their configure hook).
//   `budget_from` names the method whose per-seed simulated cost bounds
//   this one (the paper's Table I rule: BO/MACE stop at the matching ES
//   seed's cost); api::run_tasks resolves the chain automatically.
//
// Registration order is deterministic: built-ins first, in the order
// below, then user registrations in call order — so circuit_names() /
// method_names() are stable across runs and never depend on hashing.
// Duplicate names throw std::invalid_argument; unknown lookups throw
// with the full list of registered names in the message.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "circuits/benchmark_circuits.hpp"
#include "opt/optimizer.hpp"
#include "rl/ddpg.hpp"

namespace gcnrl::api {

// --- circuits -------------------------------------------------------------

using CircuitBuilder =
    std::function<env::BenchmarkCircuit(const circuit::Technology&)>;

// Registers a builder under `name`. Throws std::invalid_argument when the
// name is empty or already taken (built-ins included).
void register_circuit(const std::string& name, CircuitBuilder builder);
[[nodiscard]] bool circuit_registered(const std::string& name);
// Loads a .gcir circuit description (circuit::load_gcir) and registers it
// under its declared name; the registered builder compiles the parsed
// description per technology node (env::compile_circuit). Parse and
// compile diagnostics surface here, eagerly, via a compile probe at the
// 180nm node. Returns the declared name. Re-registering byte-identical
// file content under the same name is an idempotent no-op (so specs and
// --circuit flags may both name the same file); a name collision with
// *different* content — or with a C++-registered builder — throws
// std::invalid_argument. File-registered circuits carry a content
// fingerprint ("gcir:<fnv1a64>") retrievable via circuit_source_tag(),
// which checkpoint stamps embed to catch cross-source transfer mixups.
std::string register_circuit_file(const std::string& path);
// Source fingerprint of a registered circuit: "gcir:<hash>" for
// file-registered circuits, "" for C++ builders. Unknown names throw the
// build_circuit diagnostic.
std::string circuit_source_tag(const std::string& name);
// Builds the named circuit at the given node. Unknown names throw
// std::invalid_argument listing every registered name.
env::BenchmarkCircuit build_circuit(const std::string& name,
                                    const circuit::Technology& tech);
// Validation without the build cost: throws the same unknown-circuit
// diagnostic as build_circuit when `name` is not registered.
void require_circuit(const std::string& name);
// Registered names: the four paper benchmarks first (Two-TIA, Two-Volt,
// Three-TIA, LDO), then user circuits in registration order.
std::vector<std::string> circuit_names();

// Static-initialization helper: `static api::CircuitRegistrar reg{"X", f};`
// in a user TU registers X before main() runs.
struct CircuitRegistrar {
  CircuitRegistrar(const std::string& name, CircuitBuilder builder);
};

// --- methods --------------------------------------------------------------

enum class MethodKind { Anchor, AskTell, Ddpg };

struct MethodInfo {
  std::string name;
  MethodKind kind = MethodKind::AskTell;
  // AskTell only: build the optimizer for one seed (flattened dimension,
  // per-seed RNG). Must be set for AskTell methods. The optimizers it
  // returns must not share mutable state: the seeds' ask() and tell()
  // calls run concurrently (rl::run_optimizer_lockstep).
  std::function<std::unique_ptr<opt::Optimizer>(int dim, Rng rng)>
      make_optimizer;
  // Ddpg only: apply the method's defaults on top of a task's base config
  // (e.g. GCN-RL sets use_gcn = true). May be empty.
  std::function<void(rl::DdpgConfig&)> configure;
  // Simulated-cost budget chain: the method whose per-seed RunResult::sims
  // caps this method's runs ("ES" for BO/MACE); empty = unbudgeted.
  std::string budget_from;
};

// Registers a method descriptor. Throws std::invalid_argument when the
// name is empty or taken, or when an AskTell descriptor lacks
// make_optimizer.
void register_method(MethodInfo info);
[[nodiscard]] bool method_registered(const std::string& name);
// Unknown names throw std::invalid_argument listing every registered name.
// The returned reference stays valid for the process lifetime.
const MethodInfo& method_info(const std::string& name);
// Registered names: Human, Random, ES, BO, MACE, NG-RL, GCN-RL, then user
// methods in registration order.
std::vector<std::string> method_names();

// Convenience: construct the ask/tell optimizer behind an AskTell method
// (throws for unknown names and non-AskTell kinds).
std::unique_ptr<opt::Optimizer> make_ask_tell(const std::string& method,
                                              int dim, Rng rng);

}  // namespace gcnrl::api
