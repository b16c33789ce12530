#include "env/circuit_compile.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "meas/plan.hpp"
#include "sim/mna.hpp"

namespace gcnrl::env {

namespace {

using circuit::CircuitDescription;
using circuit::Expr;
using circuit::Technology;

circuit::Pwl make_pwl(const std::vector<std::pair<Expr, Expr>>& points,
                      const Technology& tech) {
  circuit::Pwl p;
  p.points.reserve(points.size());
  for (const auto& [t, v] : points) {
    p.points.emplace_back(t.eval(tech), v.eval(tech));
  }
  return p;
}

int bench_index(const CircuitDescription& d, const std::string& name) {
  for (std::size_t i = 0; i < d.benches.size(); ++i) {
    if (d.benches[i].name == name) return static_cast<int>(i);
  }
  throw std::runtime_error("compile_circuit: unknown bench \"" + name +
                           "\"");
}

const circuit::SourceDesc& source_desc(const CircuitDescription& d,
                                       const std::string& name) {
  for (const circuit::SourceDesc& s : d.sources) {
    if (s.name == name) return s;
  }
  throw std::runtime_error("compile_circuit: unknown source \"" + name +
                           "\"");
}

int node_id(const circuit::Netlist& nl, const std::string& name) {
  const std::optional<int> id = nl.find_node(name);
  if (!id) {
    throw std::runtime_error("compile_circuit: unknown net \"" + name +
                             "\"");
  }
  return *id;
}

// Node id of `name` in bench `bench`'s netlist: a declared net, or one
// the bench adds (numbered after the declared nets, in file order).
int bench_node(const CircuitDescription& d, const circuit::Netlist& nl,
               int bench, const std::string& name) {
  if (const std::optional<int> id = nl.find_node(name)) return *id;
  int next = nl.num_nodes();
  for (const circuit::BenchAddDesc& a :
       d.benches[static_cast<std::size_t>(bench)].adds) {
    if (a.net.empty()) continue;
    if (a.net == name) return next;
    ++next;
  }
  throw std::runtime_error("compile_circuit: unknown net \"" + name +
                           "\" in bench \"" +
                           d.benches[static_cast<std::size_t>(bench)].name +
                           "\"");
}

int extract_index(const CircuitDescription& d, const std::string& metric) {
  for (std::size_t i = 0; i < d.extracts.size(); ++i) {
    if (d.extracts[i].metric == metric) return static_cast<int>(i);
  }
  throw std::runtime_error("compile_circuit: unknown metric \"" + metric +
                           "\"");
}

meas::Scalar resolve(const CircuitDescription& d, const circuit::Netlist& nl,
                     const Expr& e) {
  meas::Scalar out{e, {}};
  for (const circuit::ExprRef& r : e.refs()) {
    meas::InputPlan in;
    in.kind = r.kind;
    switch (r.kind) {
      case circuit::ExprRef::Kind::NodeVoltage:
        in.bench = bench_index(d, r.a);
        in.node = bench_node(d, nl, in.bench, r.b);
        break;
      case circuit::ExprRef::Kind::SourceCurrent:
        in.bench = bench_index(d, r.a);
        in.source = r.b;
        break;
      case circuit::ExprRef::Kind::Param:
        in.comp = nl.find_design(r.a);
        if (in.comp < 0) {
          throw std::runtime_error("compile_circuit: unknown component \"" +
                                   r.a + "\"");
        }
        in.slot = r.b == "l" ? 1 : r.b == "m" ? 2 : 0;
        break;
      case circuit::ExprRef::Kind::Metric:
        in.extract = extract_index(d, r.a);
        break;
    }
    out.inputs.push_back(std::move(in));
  }
  return out;
}

// The benches a scalar reads, folded into `f`.
template <typename F>
void for_benches(const meas::Scalar& x, F&& f) {
  for (const meas::InputPlan& in : x.inputs) {
    if (in.bench >= 0) f(in.bench);
  }
}

meas::Plan build_plan(const CircuitDescription& d, const circuit::Netlist& nl,
                      const Technology& tech) {
  meas::Plan plan;
  for (std::size_t bi = 0; bi < d.benches.size(); ++bi) {
    const circuit::BenchDesc& b = d.benches[bi];
    const int self = static_cast<int>(bi);
    meas::BenchPlan pb;
    pb.name = b.name;
    for (const circuit::SourceSetDesc& set : b.sets) {
      meas::SourceOverride o;
      o.is_vsource = source_desc(d, set.source).is_vsource;
      o.name = set.source;
      if (set.dc) o.dc = set.dc->eval(tech);
      if (set.ac) o.ac = set.ac->eval(tech);
      if (set.pwl) o.pwl = make_pwl(*set.pwl, tech);
      pb.sets.push_back(std::move(o));
    }
    for (const circuit::BenchAddDesc& a : b.adds) {
      meas::BenchAddition add;
      if (a.source) {
        add.source = a.source->name;
        add.is_vsource = a.source->is_vsource;
        add.p = bench_node(d, nl, self, a.source->p);
        add.n = bench_node(d, nl, self, a.source->n);
        add.dc = resolve(d, nl, a.source->dc);
        add.ac = resolve(d, nl, a.source->ac);
        add.pwl = make_pwl(a.source->pwl, tech);
      } else {
        add.net = a.net;
      }
      pb.adds.push_back(std::move(add));
    }
    for (const circuit::GateMoveDesc& g : b.gates) {
      pb.gates.emplace_back(g.mos, bench_node(d, nl, self, g.net));
    }
    if (b.ac) {
      pb.ac_freqs = sim::logspace(b.ac->fmin.eval(tech),
                                  b.ac->fmax.eval(tech), b.ac->npoints);
    }
    if (b.noise) {
      std::vector<double> freqs;
      freqs.reserve(b.noise->freqs.size());
      for (const Expr& f : b.noise->freqs) freqs.push_back(f.eval(tech));
      pb.noise_freqs = std::move(freqs);
      pb.noise_p = node_id(nl, b.noise->out_p);
      pb.noise_n = b.noise->out_n.empty() ? 0 : node_id(nl, b.noise->out_n);
    }
    if (b.tran) {
      sim::TranOptions topt;
      topt.tstop = b.tran->tstop.eval(tech);
      topt.dt = b.tran->dt.eval(tech);
      pb.tran = topt;
    }
    if (!b.warm_from.empty()) pb.warm_from = bench_index(d, b.warm_from);
    plan.benches.push_back(std::move(pb));
  }

  // Level of a step: how many benches must have run before it may.
  std::vector<int> extract_level;
  const auto scalar_level = [&](const meas::Scalar& x) {
    int level = 0;
    for (const meas::InputPlan& in : x.inputs) {
      if (in.bench >= 0) level = std::max(level, in.bench + 1);
      if (in.extract >= 0) {
        level = std::max(level,
                         extract_level[static_cast<std::size_t>(in.extract)]);
      }
    }
    return level;
  };
  for (const circuit::ExtractDesc& e : d.extracts) {
    meas::ExtractPlan pe;
    pe.metric = e.metric;
    pe.fn = e.fn;
    pe.temp = e.temp;
    int level = 0;
    if (!e.bench.empty()) {
      pe.bench = bench_index(d, e.bench);
      level = pe.bench + 1;
      if (!e.probe_p.empty()) {
        pe.probe_p = bench_node(d, nl, pe.bench, e.probe_p);
      }
      if (!e.probe_n.empty()) {
        pe.probe_n = bench_node(d, nl, pe.bench, e.probe_n);
      }
      if (!e.over_p.empty()) pe.over_p = bench_node(d, nl, pe.bench, e.over_p);
      if (!e.over_n.empty()) pe.over_n = bench_node(d, nl, pe.bench, e.over_n);
    }
    if (e.at_freq) pe.at_freq = e.at_freq->eval(tech);
    if (e.win_t0) pe.win_t0 = e.win_t0->eval(tech);
    if (e.win_t1) pe.win_t1 = e.win_t1->eval(tech);
    if (e.edge) pe.edge = e.edge->eval(tech);
    if (e.tol) pe.tol = e.tol->eval(tech);
    if (e.scale) {
      pe.scale = resolve(d, nl, *e.scale);
      level = std::max(level, scalar_level(*pe.scale));
    }
    if (e.value) {
      pe.value = resolve(d, nl, *e.value);
      level = std::max(level, scalar_level(pe.value));
    }
    extract_level.push_back(level);
    plan.extracts.push_back(std::move(pe));
  }
  for (const circuit::GuardDesc& g : d.guards) {
    meas::GuardPlan pg;
    pg.value = resolve(d, nl, g.value);
    if (g.min) pg.min = resolve(d, nl, *g.min);
    if (g.max) pg.max = resolve(d, nl, *g.max);
    pg.message = g.message;
    plan.guards.push_back(std::move(pg));
  }

  // Execution order: each extraction and guard, by (level, line), runs
  // once the benches of its level have run; benches keep their order.
  using Kind = meas::PlanStep::Kind;
  std::vector<std::pair<std::pair<int, int>, meas::PlanStep>> due;
  for (std::size_t i = 0; i < d.extracts.size(); ++i) {
    due.push_back({{extract_level[i], d.extracts[i].line},
                   {Kind::Extract, static_cast<int>(i)}});
  }
  for (std::size_t i = 0; i < d.guards.size(); ++i) {
    due.push_back({{d.guards[i].after, d.guards[i].line},
                   {Kind::Guard, static_cast<int>(i)}});
  }
  std::sort(due.begin(), due.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  int ran = 0;
  for (const auto& [key, step] : due) {
    while (ran < key.first) plan.steps.push_back({Kind::Bench, ran++});
    plan.steps.push_back(step);
  }
  while (ran < static_cast<int>(d.benches.size())) {
    plan.steps.push_back({Kind::Bench, ran++});
  }

  plan.last_result_use.assign(plan.benches.size(), -1);
  plan.last_use.assign(plan.benches.size(), -1);
  for (std::size_t s = 0; s < plan.steps.size(); ++s) {
    const auto use = [&](int bench) {
      plan.last_use[static_cast<std::size_t>(bench)] = static_cast<int>(s);
    };
    const meas::PlanStep& step = plan.steps[s];
    const auto i = static_cast<std::size_t>(step.index);
    if (step.kind == Kind::Bench) {
      const meas::BenchPlan& b = plan.benches[i];
      use(step.index);
      if (b.warm_from >= 0) use(b.warm_from);
      for (const meas::BenchAddition& a : b.adds) {
        for_benches(a.dc, use);
        for_benches(a.ac, use);
      }
    } else if (step.kind == Kind::Extract) {
      const meas::ExtractPlan& e = plan.extracts[i];
      if (e.bench >= 0) {
        use(e.bench);
        plan.last_result_use[static_cast<std::size_t>(e.bench)] =
            static_cast<int>(s);
      }
      if (e.scale) for_benches(*e.scale, use);
      for_benches(e.value, use);
    } else {
      const meas::GuardPlan& g = plan.guards[i];
      for_benches(g.value, use);
      if (g.min) for_benches(*g.min, use);
      if (g.max) for_benches(*g.max, use);
    }
  }
  return plan;
}

}  // namespace

BenchmarkCircuit compile_circuit(const CircuitDescription& d,
                                 const Technology& tech) {
  BenchmarkCircuit bc;
  bc.name = d.name;
  bc.tech = tech;

  // --- netlist: nets in declaration order, elements in file order --------
  circuit::Netlist& nl = bc.netlist;
  for (const circuit::NetDesc& n : d.nets) {
    nl.node(n.name);
    if (n.supply) nl.mark_supply(n.name);
  }
  for (const circuit::ElementRef& ref : d.element_order) {
    if (ref.is_source) {
      const circuit::SourceDesc& s =
          d.sources[static_cast<std::size_t>(ref.index)];
      const int p = nl.node(s.p);
      const int n = nl.node(s.n);
      const double dc = s.dc.eval(tech);
      const double ac = s.ac.empty() ? 0.0 : s.ac.eval(tech);
      circuit::Pwl pwl;
      if (!s.pwl.empty()) pwl = make_pwl(s.pwl, tech);
      if (s.is_vsource) nl.add_vsource(s.name, p, n, dc, ac, pwl);
      else nl.add_isource(s.name, p, n, dc, ac, pwl);
    } else {
      const circuit::DeviceDesc& dev =
          d.devices[static_cast<std::size_t>(ref.index)];
      switch (dev.kind) {
        case circuit::Kind::Nmos:
        case circuit::Kind::Pmos: {
          const int dn = nl.node(dev.nodes[0]);
          const int gn = nl.node(dev.nodes[1]);
          const int sn = nl.node(dev.nodes[2]);
          const int bn = nl.node(dev.nodes[3]);
          const double w = dev.params[0].eval(tech);
          const double l = dev.params[1].eval(tech);
          const int m =
              static_cast<int>(std::lround(dev.params[2].eval(tech)));
          if (dev.kind == circuit::Kind::Nmos) {
            nl.add_nmos(dev.name, dn, gn, sn, bn, w, l, m, dev.designable);
          } else {
            nl.add_pmos(dev.name, dn, gn, sn, bn, w, l, m, dev.designable);
          }
          break;
        }
        case circuit::Kind::Resistor:
          nl.add_resistor(dev.name, nl.node(dev.nodes[0]),
                          nl.node(dev.nodes[1]), dev.params[0].eval(tech),
                          dev.designable);
          break;
        case circuit::Kind::Capacitor:
          nl.add_capacitor(dev.name, nl.node(dev.nodes[0]),
                           nl.node(dev.nodes[1]), dev.params[0].eval(tech),
                           dev.designable);
          break;
      }
    }
  }

  // --- design space: defaults, then bound overrides, then match groups ---
  bc.space = circuit::DesignSpace::from_netlist(nl, tech);
  for (const circuit::BoundDesc& b : d.bounds) {
    const int i = bc.space.find(b.comp);
    if (i < 0) {
      throw std::runtime_error("compile_circuit: unknown component \"" +
                               b.comp + "\"");
    }
    circuit::ParamRange& r =
        bc.space.comp(i).p[static_cast<std::size_t>(b.param)];
    (b.hi ? r.hi : r.lo) = b.value.eval(tech);
  }
  for (const circuit::MatchDesc& m : d.matches) {
    bc.space.add_match_group(nl, m.comps, m.l_only);
  }

  // --- FoM table ---------------------------------------------------------
  for (const circuit::MetricDesc& md : d.metrics) {
    MetricDef def;
    def.name = md.name;
    def.unit = md.unit;
    def.weight = md.weight;
    if (md.bound) def.bound = md.bound->eval(tech);
    if (md.spec_min) def.spec_min = md.spec_min->eval(tech);
    if (md.spec_max) def.spec_max = md.spec_max->eval(tech);
    def.log_norm = md.log_norm;
    bc.fom.metrics.push_back(std::move(def));
  }

  const auto plan =
      std::make_shared<const meas::Plan>(build_plan(d, nl, tech));

  // Concurrency audit (EvalService contract on BenchmarkCircuit::evaluate):
  // the Plan is immutable after compile and shared read-only; the
  // Technology is a by-value copy; run_plan constructs its Simulators
  // locally. See meas/plan.hpp.
  const Technology tech_copy = tech;
  bc.evaluate = [plan, tech_copy](const circuit::Netlist& sized) {
    return meas::run_plan(*plan, sized, tech_copy);
  };

  // --- human-expert sizing, in design-component order ---------------------
  if (!d.expert.empty()) {
    circuit::DesignParams p;
    for (int i = 0; i < nl.num_design_components(); ++i) {
      const std::string& name = nl.design_name(i);
      const circuit::ExpertDesc* found = nullptr;
      for (const circuit::ExpertDesc& e : d.expert) {
        if (e.comp == name) found = &e;
      }
      if (found == nullptr) {
        throw std::runtime_error(
            "compile_circuit: expert sizing is missing \"" + name + "\"");
      }
      std::array<double, circuit::kMaxActionDim> v{};
      for (std::size_t j = 0; j < found->values.size(); ++j) {
        v[j] = found->values[j].eval(tech);
      }
      p.v.push_back(v);
    }
    bc.human_expert = std::move(p);
  }
  return bc;
}

}  // namespace gcnrl::env
