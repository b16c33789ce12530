// Registry TU: the single home of cross-circuit and cross-method dispatch.
#include "api/registry.hpp"

#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "api/shipped_circuits.hpp"
#include "circuit/analyze.hpp"
#include "circuit/gcir.hpp"
#include "env/circuit_compile.hpp"
#include "opt/bayes_opt.hpp"
#include "opt/cma_es.hpp"
#include "opt/mace.hpp"
#include "opt/random_search.hpp"

namespace gcnrl::api {

namespace {

// Both registries keep insertion order in a deque (stable references, no
// hash-order leakage into circuit_names()/method_names()) plus a mutex so
// static CircuitRegistrars in parallel-initialized shared objects and
// registration from test fixtures stay safe.
struct CircuitEntry {
  std::string name;
  CircuitBuilder builder;
  // "gcir:<fnv1a64 of file text>" for shipped and file-registered
  // circuits, "" for C++ builders. Doubles as the idempotency key for
  // register_circuit_file and as the checkpoint-stamp source field.
  std::string source_tag;
};

std::string fnv1a_source_tag(std::string_view text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "gcir:%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// A shipped circuit's builder: the embedded text is parsed on the first
// build, once per process, and every build compiles the shared
// description at the requested node.
CircuitBuilder shipped_builder(const detail::ShippedCircuit& shipped) {
  struct Parsed {
    std::once_flag once;
    std::shared_ptr<const circuit::CircuitDescription> desc;
  };
  auto parsed = std::make_shared<Parsed>();
  return [file = &shipped, parsed](const circuit::Technology& tech) {
    std::call_once(parsed->once, [&] {
      parsed->desc = std::make_shared<const circuit::CircuitDescription>(
          circuit::parse_gcir(std::string(file->text), file->path));
    });
    return env::compile_circuit(*parsed->desc, tech);
  };
}

struct CircuitReg {
  std::mutex mu;
  std::deque<CircuitEntry> entries;
};

template <typename Entries>
std::string name_list(const Entries& entries) {
  std::string out;
  for (const auto& e : entries) {
    if (!out.empty()) out += ", ";
    out += e.name;
  }
  return out;
}

CircuitReg& circuit_reg() {
  // Built-ins seed the registry on first touch, so they are present no
  // matter which registration or lookup happens first (static-init-order
  // safe, and a static library cannot rely on self-registering TUs that
  // nothing references). Seeding parses nothing.
  static CircuitReg reg;
  static const bool seeded = [] {
    for (const detail::ShippedCircuit& c : detail::shipped_circuits()) {
      reg.entries.push_back(
          {c.name, shipped_builder(c), fnv1a_source_tag(c.text)});
    }
    return true;
  }();
  (void)seeded;
  return reg;
}

struct MethodReg {
  std::mutex mu;
  std::deque<MethodInfo> entries;
};

MethodReg& method_reg() {
  static MethodReg reg;
  static const bool seeded = [] {
    reg.entries.push_back({"Human", MethodKind::Anchor, nullptr, nullptr, ""});
    // 64 uniform designs per ask(), drawn as DesignSpace::random_actions
    // draws them, in flat order.
    reg.entries.push_back(
        {"Random", MethodKind::AskTell,
         [](int dim, Rng rng) -> std::unique_ptr<opt::Optimizer> {
           return std::make_unique<opt::RandomSearch>(dim, std::move(rng), 64);
         },
         nullptr, ""});
    reg.entries.push_back(
        {"ES", MethodKind::AskTell,
         [](int dim, Rng rng) -> std::unique_ptr<opt::Optimizer> {
           return std::make_unique<opt::CmaEs>(dim, std::move(rng));
         },
         nullptr, ""});
    reg.entries.push_back(
        {"BO", MethodKind::AskTell,
         [](int dim, Rng rng) -> std::unique_ptr<opt::Optimizer> {
           return std::make_unique<opt::BayesOpt>(dim, std::move(rng));
         },
         nullptr, "ES"});
    reg.entries.push_back(
        {"MACE", MethodKind::AskTell,
         [](int dim, Rng rng) -> std::unique_ptr<opt::Optimizer> {
           return std::make_unique<opt::Mace>(dim, std::move(rng));
         },
         nullptr, "ES"});
    reg.entries.push_back({"NG-RL", MethodKind::Ddpg, nullptr,
                           [](rl::DdpgConfig& cfg) { cfg.use_gcn = false; },
                           ""});
    reg.entries.push_back({"GCN-RL", MethodKind::Ddpg, nullptr,
                           [](rl::DdpgConfig& cfg) { cfg.use_gcn = true; },
                           ""});
    return true;
  }();
  (void)seeded;
  return reg;
}

}  // namespace

void register_circuit(const std::string& name, CircuitBuilder builder) {
  if (name.empty()) {
    throw std::invalid_argument("register_circuit: empty circuit name");
  }
  if (!builder) {
    throw std::invalid_argument("register_circuit: null builder for " + name);
  }
  CircuitReg& reg = circuit_reg();
  const std::lock_guard<std::mutex> lock(reg.mu);
  for (const CircuitEntry& e : reg.entries) {
    if (e.name == name) {
      throw std::invalid_argument(
          "register_circuit: duplicate circuit name \"" + name + "\"");
    }
  }
  reg.entries.push_back({name, std::move(builder), ""});
}

bool circuit_registered(const std::string& name) {
  CircuitReg& reg = circuit_reg();
  const std::lock_guard<std::mutex> lock(reg.mu);
  for (const CircuitEntry& e : reg.entries) {
    if (e.name == name) return true;
  }
  return false;
}

namespace {

// Shared lookup behind build_circuit/require_circuit, so the
// unknown-circuit diagnostic has exactly one wording.
CircuitBuilder find_circuit_builder(const std::string& name) {
  CircuitReg& reg = circuit_reg();
  const std::lock_guard<std::mutex> lock(reg.mu);
  for (const CircuitEntry& e : reg.entries) {
    if (e.name == name) return e.builder;
  }
  throw std::invalid_argument("unknown circuit \"" + name +
                              "\" (registered: " + name_list(reg.entries) +
                              ")");
}

}  // namespace

env::BenchmarkCircuit build_circuit(const std::string& name,
                                    const circuit::Technology& tech) {
  // Build outside the registry lock: builders are arbitrarily expensive
  // and may themselves consult the registry.
  return find_circuit_builder(name)(tech);
}

std::string register_circuit_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::invalid_argument("register_circuit_file: cannot read \"" +
                                path + "\"");
  }
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);

  const std::string tag = fnv1a_source_tag(text);
  auto desc = std::make_shared<const circuit::CircuitDescription>(
      circuit::parse_gcir(text, path));
  // Admission control: run the semantic analyzer before spending anything
  // on the circuit. Errors reject the registration with the full
  // diagnostic list; warnings are surfaced on stderr and let it through.
  const std::vector<circuit::Diagnostic> diags =
      circuit::analyze_circuit(*desc, circuit::make_technology("180nm"));
  if (circuit::has_errors(diags)) {
    throw std::runtime_error("register_circuit_file: circuit \"" +
                             desc->name + "\" failed lint:\n" +
                             circuit::format_diagnostics(diags));
  }
  for (const circuit::Diagnostic& diag : diags) {
    std::fprintf(stderr, "%s\n", diag.format().c_str());
  }
  // Compile probe: surface the residual description-level problems (and
  // most numeric ones) at registration time, with the file as context,
  // instead of at the first task that builds the circuit.
  (void)env::compile_circuit(*desc, circuit::make_technology("180nm"));

  CircuitReg& reg = circuit_reg();
  const std::lock_guard<std::mutex> lock(reg.mu);
  for (const CircuitEntry& e : reg.entries) {
    if (e.name != desc->name) continue;
    if (e.source_tag == tag) return desc->name;  // same content: no-op
    throw std::invalid_argument(
        "register_circuit_file: circuit \"" + desc->name +
        "\" is already registered " +
        (e.source_tag.empty() ? "by a C++ builder"
                              : "from different file content") +
        " (from \"" + path + "\")");
  }
  reg.entries.push_back(
      {desc->name,
       [desc](const circuit::Technology& tech) {
         return env::compile_circuit(*desc, tech);
       },
       tag});
  return desc->name;
}

std::string circuit_source_tag(const std::string& name) {
  CircuitReg& reg = circuit_reg();
  const std::lock_guard<std::mutex> lock(reg.mu);
  for (const CircuitEntry& e : reg.entries) {
    if (e.name == name) return e.source_tag;
  }
  throw std::invalid_argument("unknown circuit \"" + name +
                              "\" (registered: " + name_list(reg.entries) +
                              ")");
}

void require_circuit(const std::string& name) {
  (void)find_circuit_builder(name);
}

std::vector<std::string> circuit_names() {
  CircuitReg& reg = circuit_reg();
  const std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<std::string> names;
  names.reserve(reg.entries.size());
  for (const CircuitEntry& e : reg.entries) names.push_back(e.name);
  return names;
}

CircuitRegistrar::CircuitRegistrar(const std::string& name,
                                   CircuitBuilder builder) {
  register_circuit(name, std::move(builder));
}

void register_method(MethodInfo info) {
  if (info.name.empty()) {
    throw std::invalid_argument("register_method: empty method name");
  }
  if (info.kind == MethodKind::AskTell && !info.make_optimizer) {
    throw std::invalid_argument("register_method: AskTell method \"" +
                                info.name + "\" needs make_optimizer");
  }
  MethodReg& reg = method_reg();
  const std::lock_guard<std::mutex> lock(reg.mu);
  for (const MethodInfo& e : reg.entries) {
    if (e.name == info.name) {
      throw std::invalid_argument(
          "register_method: duplicate method name \"" + info.name + "\"");
    }
  }
  reg.entries.push_back(std::move(info));
}

bool method_registered(const std::string& name) {
  MethodReg& reg = method_reg();
  const std::lock_guard<std::mutex> lock(reg.mu);
  for (const MethodInfo& e : reg.entries) {
    if (e.name == name) return true;
  }
  return false;
}

const MethodInfo& method_info(const std::string& name) {
  MethodReg& reg = method_reg();
  const std::lock_guard<std::mutex> lock(reg.mu);
  for (const MethodInfo& e : reg.entries) {
    // Deque entries are never erased, so the reference is process-stable.
    if (e.name == name) return e;
  }
  throw std::invalid_argument("method_info: unknown method \"" + name +
                              "\" (registered: " + name_list(reg.entries) +
                              ")");
}

std::vector<std::string> method_names() {
  MethodReg& reg = method_reg();
  const std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<std::string> names;
  names.reserve(reg.entries.size());
  for (const MethodInfo& e : reg.entries) names.push_back(e.name);
  return names;
}

std::unique_ptr<opt::Optimizer> make_ask_tell(const std::string& method,
                                              int dim, Rng rng) {
  const MethodInfo& mi = method_info(method);
  if (mi.kind != MethodKind::AskTell) {
    throw std::invalid_argument("make_ask_tell: method \"" + method +
                                "\" is not an ask/tell optimizer");
  }
  return mi.make_optimizer(dim, std::move(rng));
}

}  // namespace gcnrl::api
