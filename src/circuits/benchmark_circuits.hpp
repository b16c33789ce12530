// The four benchmark circuits of the paper (Fig. 6), rebuilt as
// self-contained BenchmarkCircuit bundles: netlist + design space +
// matching groups + FoM definition + measurement plan + a hand-crafted
// "human expert" reference sizing.
//
// Exact contest netlists (Stanford EE214B, [6][7][25]) are not public;
// these are architecture-faithful equivalents with the same metric sets —
// see README "Substitutions". All builders are parameterized by
// technology node, which is what enables the Table IV porting experiments.
//
// Metric units are SI throughout (Hz, ohm, W, V/sqrt(Hz) or A/sqrt(Hz),
// seconds, dB for the ratio metrics); gcnrl_cli reports them unconverted.
#pragma once

#include "env/sizing_env.hpp"

namespace gcnrl::circuits {

// Two-stage transimpedance amplifier (shunt-feedback CS stage + source
// follower; Fig. 6a analogue). FoM metrics: bw(+), gain(+), power(-),
// noise(-), peaking(-); carries the paper's hard spec.
env::BenchmarkCircuit make_two_tia(const circuit::Technology& tech);

// Two-stage fully-differential voltage amplifier with Miller compensation
// and CMFB, capacitor-ratio closed loop (Fig. 6b analogue). FoM metrics:
// bw(+), cpm(+), dpm(+), power(-), noise(-), gain(+).
env::BenchmarkCircuit make_two_volt(const circuit::Technology& tech);

// Three-stage differential transimpedance amplifier (Fig. 6c analogue).
// FoM metrics: bw(+), gain(+), power(-).
env::BenchmarkCircuit make_three_tia(const circuit::Technology& tech);

// Low-dropout regulator (Fig. 6d analogue). FoM metrics: tl_up(-),
// tl_dn(-), lr(+), tv_up(-), tv_dn(-), psrr(+), power(-).
env::BenchmarkCircuit make_ldo(const circuit::Technology& tech);

// Name-keyed construction, backed by the api::CircuitRegistry (defined in
// src/api/registry.cpp): the four paper benchmarks are pre-registered
// under the names of the paper's tables, and circuits registered through
// api::register_circuit become reachable here too. Unknown names throw
// std::invalid_argument listing every registered name. benchmark_names()
// is deterministic: the four built-ins in the order above, then user
// circuits in registration order.
env::BenchmarkCircuit make_benchmark(const std::string& name,
                                     const circuit::Technology& tech);
std::vector<std::string> benchmark_names();

}  // namespace gcnrl::circuits
