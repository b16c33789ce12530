// Sizing expressions for textual circuit descriptions (.gcir files).
//
// An Expr is a compiled arithmetic expression over numeric literals and
// the symbols of the technology node a description is compiled for (vdd,
// lmin, wmax, ...). Device parameters, source values, bounds, metric
// specs and expert sizings in a .gcir file are all Exprs, so one
// description file ports across nodes ("w=2*lmin" resizes with the node).
//
// Measurement-plan expressions may also read run-time inputs, values that
// exist only while a design is being evaluated (see ExprRef): an earlier
// bench's DC node voltage or source current, a sized component's
// parameter, or an earlier extracted metric. Such an Expr is evaluated by
// meas::run_plan, which supplies the inputs' values.
//
// Bit-exactness ground rules (a .gcir file must compute what the
// equivalent C++ expression computes, bit for bit):
//   * SI suffixes are expanded *textually* before strtod ("50u" ->
//     "50e-6"), so a literal produces the identical correctly-rounded
//     double a C++ source literal would — never a runtime multiply by a
//     power of ten.
//   * Evaluation replays the parsed operation tree with C++'s operator
//     precedence and left-associativity, so "50u*(vdd/1.8)" performs
//     exactly the multiplies and divides of `50e-6 * (tech.vdd / 1.8)`.
//   * max(a,b), abs(a) and log10(a) replay std::max(a, b), std::fabs(a)
//     and std::log10(a).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "circuit/tech.hpp"

namespace gcnrl::circuit {

// One run-time input of an expression, by name; the .gcir parser checks
// the names and env::compile_circuit resolves them to indices.
struct ExprRef {
  enum class Kind {
    NodeVoltage,    // v(BENCH,NET): DC voltage of NET at BENCH's op
    SourceCurrent,  // i(BENCH,SOURCE): DC current of a voltage source
    Param,          // COMP.PARAM: a sized component's parameter
    Metric,         // NAME: an earlier extraction's value
  };
  Kind kind = Kind::Metric;
  std::string a;   // bench, component or metric name
  std::string b;   // net, source or parameter key (w|l|m|r|c)
  int offset = 0;  // character offset in the expression text
};

// Compiled expression: a postfix program evaluated with a small stack.
class Expr {
 public:
  // An empty (default-constructed) Expr evaluates to 0 and is used by
  // description structs as "field not given".
  Expr() = default;

  [[nodiscard]] bool empty() const { return ops_.empty(); }
  // Run-time inputs, in the order eval() expects their values.
  [[nodiscard]] const std::vector<ExprRef>& refs() const { return refs_; }
  // Evaluates against a technology node's symbol values. `inputs` holds
  // one value per refs() entry.
  [[nodiscard]] double eval(const Technology& tech,
                            std::span<const double> inputs = {}) const;
  // The source text the expression was parsed from (diagnostics).
  [[nodiscard]] const std::string& text() const { return text_; }

  // Parses `text` (no whitespace allowed — .gcir tokenizes on spaces).
  // Grammar: expr := term (('+'|'-') term)*, term := factor (('*'|'/')
  // factor)*, factor := '-' factor | '(' expr ')' | number | symbol |
  // FN '(' expr [',' expr] ')'. Numbers accept an optional SI suffix
  // (T G M k m u n p f, plus 'K'); symbols are the Technology fields
  // listed in expr_symbols(); FN is max (two arguments), abs or log10.
  // With `runtime`, v(BENCH,NET), i(BENCH,SOURCE), COMP.PARAM and any
  // other bare name (an earlier metric) become refs(); without it they
  // are errors. Throws std::invalid_argument on malformed input, with the
  // offset of the offending character in the message.
  static Expr parse(const std::string& text, bool runtime = false);

 private:
  enum class Op { Num, Sym, Ref, Add, Sub, Mul, Div, Neg, Max, Abs, Log10 };
  struct Step {
    Op op;
    double num = 0.0;  // Op::Num
    int index = 0;     // Op::Sym: symbol table row; Op::Ref: refs_ entry
  };
  std::vector<Step> ops_;
  std::vector<ExprRef> refs_;
  std::string text_;
  friend class ExprParser;
};

// The symbol vocabulary, in table order (for diagnostics and docs).
const std::vector<std::string>& expr_symbols();

}  // namespace gcnrl::circuit
