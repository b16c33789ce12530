#include "meas/plan.hpp"

#include <memory>

namespace gcnrl::meas {

namespace {

// AC probe curve: differential when the second node is a real node,
// single-ended otherwise (curve_at, not a difference against ground).
AcCurve probe_curve(const sim::AcResult& ac, int p, int n) {
  if (n >= 0) return curve_diff(ac, p, n);
  return curve_at(ac, p);
}

TranCurve probe_tran(const sim::TranResult& tr, const ExtractPlan& e) {
  TranCurve c = tran_curve(tr, e.probe_p);
  if (e.probe_n >= 0) {
    const TranCurve n = tran_curve(tr, e.probe_n);
    for (std::size_t i = 0; i < c.v.size(); ++i) c.v[i] -= n.v[i];
  }
  return c;
}

// Per-evaluation state of one bench: its netlist copy (null when the bench
// runs the sized netlist itself), its simulator and its analyses' results.
struct BenchState {
  std::unique_ptr<circuit::Netlist> edited;
  std::unique_ptr<sim::Simulator> sim;
  sim::AcResult ac;
  sim::NoiseResult noise;
  sim::TranResult tran;
};

class PlanRunner {
 public:
  PlanRunner(const Plan& plan, const circuit::Netlist& sized,
             const circuit::Technology& tech)
      : plan_(plan),
        sized_(sized),
        tech_(tech),
        benches_(plan.benches.size()),
        values_(plan.extracts.size(), 0.0) {}

  MetricMap run() {
    for (std::size_t s = 0; s < plan_.steps.size(); ++s) {
      const PlanStep& step = plan_.steps[s];
      const auto i = static_cast<std::size_t>(step.index);
      switch (step.kind) {
        case PlanStep::Kind::Bench: run_bench(i); break;
        case PlanStep::Kind::Extract: values_[i] = extract(i); break;
        case PlanStep::Kind::Guard: guard(i); break;
      }
      for (std::size_t b = 0; b < benches_.size(); ++b) {
        if (plan_.last_result_use[b] == static_cast<int>(s)) {
          benches_[b].ac = {};
          benches_[b].noise = {};
          benches_[b].tran = {};
        }
        if (plan_.last_use[b] == static_cast<int>(s)) benches_[b] = {};
      }
    }
    MetricMap m;
    for (std::size_t i = 0; i < plan_.extracts.size(); ++i) {
      if (!plan_.extracts[i].temp) m[plan_.extracts[i].metric] = values_[i];
    }
    return m;
  }

 private:
  sim::Simulator& sim_of(int bench) {
    return *benches_[static_cast<std::size_t>(bench)].sim;
  }
  BenchState& state(int bench) {
    return benches_[static_cast<std::size_t>(bench)];
  }

  double input(const InputPlan& in) {
    switch (in.kind) {
      case circuit::ExprRef::Kind::NodeVoltage:
        return sim_of(in.bench).op().node(in.node);
      case circuit::ExprRef::Kind::SourceCurrent:
        return sim_of(in.bench).source_current(in.source);
      case circuit::ExprRef::Kind::Param:
        return sized_.design_params(in.comp)[static_cast<std::size_t>(in.slot)];
      case circuit::ExprRef::Kind::Metric:
        break;
    }
    return values_[static_cast<std::size_t>(in.extract)];
  }

  double eval(const Scalar& x) {
    std::vector<double> in;
    in.reserve(x.inputs.size());
    for (const InputPlan& r : x.inputs) in.push_back(input(r));
    return x.expr.eval(tech_, in);
  }

  template <typename Source>
  static void apply(Source& src, const SourceOverride& o) {
    if (o.dc) src.dc = *o.dc;
    if (o.ac) src.ac = *o.ac;
    if (o.pwl) src.pwl = *o.pwl;
  }

  void run_bench(std::size_t i) {
    const BenchPlan& b = plan_.benches[i];
    BenchState& st = benches_[i];
    const circuit::Netlist* nl = &sized_;
    if (!b.sets.empty() || !b.adds.empty() || !b.gates.empty()) {
      st.edited = std::make_unique<circuit::Netlist>(sized_);
      circuit::Netlist& e = *st.edited;
      for (const SourceOverride& o : b.sets) {
        if (o.is_vsource) apply(*e.find_vsource(o.name), o);
        else apply(*e.find_isource(o.name), o);
      }
      for (const BenchAddition& a : b.adds) {
        if (a.source.empty()) {
          (void)e.node(a.net);
        } else if (a.is_vsource) {
          e.add_vsource(a.source, a.p, a.n, eval(a.dc), eval(a.ac), a.pwl);
        } else {
          e.add_isource(a.source, a.p, a.n, eval(a.dc), eval(a.ac), a.pwl);
        }
      }
      for (const auto& [mos, node] : b.gates) e.set_mos_gate(mos, node);
      nl = &e;
    }
    st.sim = std::make_unique<sim::Simulator>(*nl, tech_);
    if (b.warm_from >= 0) st.sim->warm_start_from(sim_of(b.warm_from).op());
    if (b.ac_freqs) st.ac = st.sim->ac(*b.ac_freqs);
    if (b.noise_freqs) {
      st.noise = st.sim->noise(*b.noise_freqs, b.noise_p, b.noise_n);
    }
    if (b.tran) st.tran = st.sim->tran(*b.tran);
  }

  double extract(std::size_t i) {
    using circuit::ExtractFn;
    const ExtractPlan& e = plan_.extracts[i];
    if (e.fn == ExtractFn::Expression) return eval(e.value);
    if (e.fn == ExtractFn::SupplyPower) return sim_of(e.bench).supply_power();
    const BenchState& b = state(e.bench);
    if (e.fn == ExtractFn::SettlingTime) {
      return settling_time(window(probe_tran(b.tran, e), e.win_t0, e.win_t1),
                           e.edge, e.tol);
    }
    AcCurve c = probe_curve(b.ac, e.probe_p, e.probe_n);
    switch (e.fn) {
      case ExtractFn::DcGain: return dc_gain(c);
      case ExtractFn::Bandwidth3db: return bandwidth_3db(c);
      case ExtractFn::PeakingDb: return peaking_db(c);
      case ExtractFn::Gbw: return gbw(c);
      case ExtractFn::InputNoise:
        return input_referred_noise(b.noise, c, e.at_freq);
      default: break;  // PhaseMargin
    }
    if (e.scale) {
      const double k = eval(*e.scale);
      for (auto& h : c.h) h *= k;
    }
    if (e.over_p >= 0) {
      const AcCurve d = probe_curve(b.ac, e.over_p, e.over_n);
      for (std::size_t j = 0; j < c.h.size(); ++j) c.h[j] /= d.h[j];
    }
    return phase_margin_deg(c);
  }

  void guard(std::size_t i) {
    const GuardPlan& g = plan_.guards[i];
    const double v = eval(g.value);
    if ((g.min && v < eval(*g.min)) || (g.max && v > eval(*g.max))) {
      throw sim::SimError(g.message);
    }
  }

  const Plan& plan_;
  const circuit::Netlist& sized_;
  const circuit::Technology& tech_;
  std::vector<BenchState> benches_;
  std::vector<double> values_;
};

}  // namespace

MetricMap run_plan(const Plan& plan, const circuit::Netlist& sized,
                   const circuit::Technology& tech) {
  return PlanRunner(plan, sized, tech).run();
}

}  // namespace gcnrl::meas
