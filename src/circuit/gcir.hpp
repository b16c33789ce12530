// .gcir: the textual circuit-description format.
//
// A .gcir file is a whole circuit, as data: nets and supply rails, devices
// and sources, sizing bounds and match groups, the FoM metric table, a
// declarative measurement plan (testbenches + analyses + extractions), and
// a human-expert sizing. env::compile_circuit() turns the parsed
// description into a runnable env::BenchmarkCircuit;
// api::register_circuit_file() registers it by its declared name. The
// paper's four circuits are the files under specs/circuits/.
//
// ---------------------------------------------------------------------------
// FORMAT (line-oriented; '#' starts a comment; tokens are whitespace-
// separated, except inside "double quotes"; EXPR is a circuit::Expr — no
// spaces, SI suffixes, the technology symbols of expr_symbols() and the
// functions max(a,b), abs(a), log10(a) allowed, e.g. "50u*(vdd/1.8)")
// ---------------------------------------------------------------------------
// circuit NAME                      # required, once, first directive
// supply NET...                     # declare supply nets (VDD, bias rails)
// net NET...                        # declare signal nets
//   # Net declaration order defines node-id (and MNA unknown) order;
//   # "0"/"gnd"/"vss" are predeclared ground aliases.
// vsource NAME P N dc=EXPR [ac=EXPR] [pwl=(t,v)(t,v)...]
// isource NAME P N dc=EXPR [ac=EXPR] [pwl=(t,v)(t,v)...]
// nmos NAME D G S B w=EXPR l=EXPR m=EXPR [fixed]
// pmos NAME D G S B w=EXPR l=EXPR m=EXPR [fixed]
// resistor NAME A B r=EXPR [fixed]
// capacitor NAME A B c=EXPR [fixed]
//   # Elements keep file order: sources/devices may interleave; the
//   # designable (non-"fixed") devices become the graph vertices in
//   # declaration order.
// bound COMP PARAM.SIDE=EXPR        # e.g. "bound T6 w.hi=wmax" — override
//                                   # one side of a default search range
//                                   # (PARAM: w|l|m|r|c, SIDE: lo|hi)
// match COMP COMP... [l_only]       # match group (l_only: share L only)
// metric NAME unit=STR weight=NUM [bound=EXPR] [spec_min=EXPR]
//        [spec_max=EXPR] [log]      # one FoM table row (env::MetricDef)
// expert COMP VAL [VAL VAL]         # human-expert sizing (MOS: w l m;
//                                   # R/C: one value); if any expert line
//                                   # is present, every designable
//                                   # component needs exactly one
//
// bench NAME                        # declare a testbench: a copy of the
//                                   # sized netlist with one simulator
// set BENCH SOURCE [dc=EXPR] [ac=EXPR] [pwl=(t,v)...]
//                                   # per-bench source override
// set BENCH MOS g=NET               # per-bench gate move (break a loop)
// add BENCH net NET...              # a net only this bench has
// add BENCH vsource|isource NAME P N dc=EXPR [ac=EXPR] [pwl=(t,v)...]
//                                   # a source only this bench has; P/N
//                                   # may be nets the bench added
//   # Additions append in file order (node ids after the declared nets).
//   # An added source's dc/ac may read v()/i() of benches declared before
//   # BENCH.
// ac BENCH FMIN FMAX NPOINTS        # log-spaced AC sweep; NPOINTS = 1 is
//                                   # one point at FMIN = FMAX
// noise BENCH out=NODE[,NODE] FREQ...
// tran BENCH tstop=EXPR dt=EXPR
// warm BENCH from=BENCH             # seed DC from an earlier bench's op
// extract METRIC FN bench=BENCH [probe=NODE[,NODE]] [at=EXPR]
//         [window=EXPR,EXPR] [edge=EXPR] [tol=EXPR] [scale=EXPR]
//         [over=NODE[,NODE]] [temp]
//   # FN: supply_power | dc_gain | bandwidth_3db | peaking_db | gbw |
//   #     input_noise (needs at= + the bench's noise analysis) |
//   #     settling_time (needs window=/edge=/tol= + the bench's tran) |
//   #     phase_margin (the probe's AC curve times scale=, divided by the
//   #     over= curve when given)
//   # Probes may name nets the bench added.
// extract METRIC expr=EXPR [temp]   # a number computed from run-time
//                                   # inputs (below)
//   # temp: later expressions read the value; the metric map does not
//   # carry it.
// guard value=EXPR [min=EXPR] [max=EXPR] message="TEXT"
//   # Runs after the benches declared before it and before any declared
//   # after it: when value < min or value > max, evaluation throws
//   # sim::SimError(TEXT). Reads v()/i() of those earlier benches.
//
// Run-time inputs, readable by plan expressions (extract expr= and
// scale=, guard, added sources' dc/ac) and nowhere else:
//   v(BENCH,NET)     DC voltage of NET at BENCH's operating point
//   i(BENCH,SOURCE)  DC current delivered by voltage source SOURCE there
//   COMP.PARAM       the sized value of a designable component's
//                    parameter (w|l|m|r|c)
//   NAME             the value of an extraction declared earlier (extract
//                    expressions only); technology symbols take precedence
// max, abs and log10 replay std::max, std::fabs and std::log10.
// Execution: benches run in declaration order, solving DC when an analysis
// or an input first needs it; each extraction runs right after the last
// bench it reads, guards where they are declared, both in file order.
// ---------------------------------------------------------------------------
// The parser is strict in the api/spec.cpp tradition: unknown directives
// or keys, undeclared nets/benches/components, duplicate names, missing
// required fields and malformed expressions all throw std::runtime_error
// with a "<origin>:line:column" position. A parsed description is fully
// name-resolved — compiling it can only fail on I/O-free invariants.
#pragma once

#include <string>

#include "circuit/description.hpp"

namespace gcnrl::circuit {

// Parses .gcir text. `origin` names the source in diagnostics (a path, or
// "<string>" for inline text).
CircuitDescription parse_gcir(const std::string& text,
                              const std::string& origin = "<string>");

// Reads and parses a .gcir file; throws std::runtime_error when the file
// cannot be read.
CircuitDescription load_gcir(const std::string& path);

}  // namespace gcnrl::circuit
