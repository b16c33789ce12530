#include "meas/plan.hpp"

#include <memory>

namespace gcnrl::meas {

namespace {

// AC probe curve for an extraction: differential when probe_n is a real
// node, single-ended otherwise (never diff against ground — a builder's
// curve_at(ac, vout) and curve_diff(ac, vout, 0) agree numerically, but we
// replay the builders' exact calls).
AcCurve probe_curve(const sim::AcResult& ac, const ExtractPlan& e) {
  if (e.probe_n >= 0) return curve_diff(ac, e.probe_p, e.probe_n);
  return curve_at(ac, e.probe_p);
}

TranCurve probe_tran(const sim::TranResult& tr, const ExtractPlan& e) {
  TranCurve c = tran_curve(tr, e.probe_p);
  if (e.probe_n >= 0) {
    const TranCurve n = tran_curve(tr, e.probe_n);
    for (std::size_t i = 0; i < c.v.size(); ++i) c.v[i] -= n.v[i];
  }
  return c;
}

}  // namespace

MetricMap run_plan(const Plan& plan, const circuit::Netlist& sized,
                   const circuit::Technology& tech) {
  // Benches whose source overrides require a netlist copy keep the copy
  // alive here for the lifetime of their Simulator.
  std::vector<std::unique_ptr<circuit::Netlist>> edited;
  std::vector<std::unique_ptr<sim::Simulator>> sims;
  std::vector<sim::AcResult> acs(plan.benches.size());
  std::vector<sim::NoiseResult> noises(plan.benches.size());
  std::vector<sim::TranResult> trans(plan.benches.size());
  sims.reserve(plan.benches.size());

  for (std::size_t i = 0; i < plan.benches.size(); ++i) {
    const BenchPlan& b = plan.benches[i];
    const circuit::Netlist* bench_nl = &sized;
    if (!b.sets.empty()) {
      edited.push_back(std::make_unique<circuit::Netlist>(sized));
      circuit::Netlist& nl = *edited.back();
      for (const SourceOverride& o : b.sets) {
        if (o.is_vsource) {
          circuit::VSource* v = nl.find_vsource(o.name);
          if (o.dc) v->dc = *o.dc;
          if (o.ac) v->ac = *o.ac;
          if (o.pwl) v->pwl = *o.pwl;
        } else {
          circuit::ISource* s = nl.find_isource(o.name);
          if (o.dc) s->dc = *o.dc;
          if (o.ac) s->ac = *o.ac;
          if (o.pwl) s->pwl = *o.pwl;
        }
      }
      bench_nl = &nl;
    }
    // Exactly one Simulator per bench, constructed in bench order.
    sims.push_back(std::make_unique<sim::Simulator>(*bench_nl, tech));
    sim::Simulator& s = *sims.back();
    if (b.warm_from >= 0) {
      s.warm_start_from(sims[static_cast<std::size_t>(b.warm_from)]->op());
    }
    if (b.ac_freqs) acs[i] = s.ac(*b.ac_freqs);
    if (b.noise_freqs) noises[i] = s.noise(*b.noise_freqs, b.noise_p,
                                           b.noise_n);
    if (b.tran) trans[i] = s.tran(*b.tran);
  }

  MetricMap m;
  for (const ExtractPlan& e : plan.extracts) {
    const std::size_t bi = static_cast<std::size_t>(e.bench);
    switch (e.fn) {
      case circuit::ExtractFn::SupplyPower:
        // op() is already cached by the bench's analyses, so extraction
        // order cannot perturb the DC solve.
        m[e.metric] = sims[bi]->supply_power();
        break;
      case circuit::ExtractFn::DcGain:
        m[e.metric] = dc_gain(probe_curve(acs[bi], e));
        break;
      case circuit::ExtractFn::Bandwidth3db:
        m[e.metric] = bandwidth_3db(probe_curve(acs[bi], e));
        break;
      case circuit::ExtractFn::PeakingDb:
        m[e.metric] = peaking_db(probe_curve(acs[bi], e));
        break;
      case circuit::ExtractFn::Gbw:
        m[e.metric] = gbw(probe_curve(acs[bi], e));
        break;
      case circuit::ExtractFn::InputNoise:
        m[e.metric] = input_referred_noise(noises[bi],
                                           probe_curve(acs[bi], e),
                                           e.at_freq);
        break;
      case circuit::ExtractFn::SettlingTime: {
        const TranCurve w =
            window(probe_tran(trans[bi], e), e.win_t0, e.win_t1);
        m[e.metric] = settling_time(w, e.edge, e.tol);
        break;
      }
    }
  }
  return m;
}

}  // namespace gcnrl::meas
