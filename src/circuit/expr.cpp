#include "circuit/expr.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <stdexcept>

namespace gcnrl::circuit {

namespace {

struct Symbol {
  const char* name;
  double (*get)(const Technology&);
};

// One row per Technology field a description could reasonably read.
// Adding a row here makes the symbol available to every .gcir file.
constexpr Symbol kSymbols[] = {
    {"vdd", [](const Technology& t) { return t.vdd; }},
    {"lmin", [](const Technology& t) { return t.lmin; }},
    {"lmax", [](const Technology& t) { return t.lmax; }},
    {"wmin", [](const Technology& t) { return t.wmin; }},
    {"wmax", [](const Technology& t) { return t.wmax; }},
    {"grid", [](const Technology& t) { return t.grid; }},
    {"mmax", [](const Technology& t) { return static_cast<double>(t.mmax); }},
    {"rmin", [](const Technology& t) { return t.rmin; }},
    {"rmax", [](const Technology& t) { return t.rmax; }},
    {"cmin", [](const Technology& t) { return t.cmin; }},
    {"cmax", [](const Technology& t) { return t.cmax; }},
};
constexpr int kNumSymbols = static_cast<int>(std::size(kSymbols));

// SI suffix -> decimal exponent appended textually to the mantissa.
int suffix_exponent(char c) {
  switch (c) {
    case 'T': return 12;
    case 'G': return 9;
    case 'M': return 6;
    case 'k':
    case 'K': return 3;
    case 'm': return -3;
    case 'u': return -6;
    case 'n': return -9;
    case 'p': return -12;
    case 'f': return -15;
    default: return 0;
  }
}

}  // namespace

const std::vector<std::string>& expr_symbols() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Symbol& s : kSymbols) out.emplace_back(s.name);
    return out;
  }();
  return names;
}

class ExprParser {
 public:
  ExprParser(const std::string& text, bool runtime, Expr& out)
      : text_(text), runtime_(runtime), out_(out) {}

  void run() {
    expr();
    if (pos_ != text_.size()) fail("unexpected trailing input");
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("expression \"" + text_ + "\" at offset " +
                                std::to_string(pos_) + ": " + what);
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  void push(Expr::Op op, double num = 0.0, int index = 0) {
    out_.ops_.push_back({op, num, index});
  }

  void expr() {
    term();
    while (peek() == '+' || peek() == '-') {
      const char op = text_[pos_++];
      term();
      push(op == '+' ? Expr::Op::Add : Expr::Op::Sub);
    }
  }

  void term() {
    factor();
    while (peek() == '*' || peek() == '/') {
      const char op = text_[pos_++];
      factor();
      push(op == '*' ? Expr::Op::Mul : Expr::Op::Div);
    }
  }

  void factor() {
    const char c = peek();
    if (c == '-') {
      ++pos_;
      factor();
      push(Expr::Op::Neg);
    } else if (c == '(') {
      ++pos_;
      expr();
      expect(')');
    } else if ((c >= '0' && c <= '9') || c == '.') {
      number();
    } else if (is_name_start(c)) {
      identifier();
    } else if (c == '\0') {
      fail("unexpected end of expression");
    } else {
      fail(std::string("unexpected character '") + c + "'");
    }
  }

  static bool is_name_start(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  }
  static bool is_name_char(char c) {
    return is_name_start(c) || (c >= '0' && c <= '9');
  }

  void number() {
    std::string mantissa;
    bool any_digit = false;
    while ((peek() >= '0' && peek() <= '9') || peek() == '.') {
      any_digit = any_digit || (peek() >= '0' && peek() <= '9');
      mantissa += text_[pos_++];
    }
    if (!any_digit) fail("malformed number");
    bool has_exponent = false;
    if (peek() == 'e' || peek() == 'E') {
      // Only treat it as an exponent when digits (or a signed digit run)
      // follow; otherwise fall through to the suffix check below.
      std::size_t probe = pos_ + 1;
      if (probe < text_.size() &&
          (text_[probe] == '+' || text_[probe] == '-')) {
        ++probe;
      }
      if (probe < text_.size() && text_[probe] >= '0' &&
          text_[probe] <= '9') {
        has_exponent = true;
        mantissa += text_[pos_++];
        if (peek() == '+' || peek() == '-') mantissa += text_[pos_++];
        while (peek() >= '0' && peek() <= '9') mantissa += text_[pos_++];
      }
    }
    if (!has_exponent && suffix_exponent(peek()) != 0) {
      // Textual expansion keeps decimal->binary rounding identical to a
      // C++ source literal: "50u" becomes the string "50e-6", never the
      // product 50.0 * 1e-6.
      mantissa += 'e';
      mantissa += std::to_string(suffix_exponent(text_[pos_++]));
    }
    char* end = nullptr;
    const double v = std::strtod(mantissa.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      fail("malformed number \"" + mantissa + "\"");
    }
    push(Expr::Op::Num, v);
  }

  // A symbol, a function call, or (run-time expressions only) an input.
  void identifier() {
    const std::size_t start = pos_;
    std::string name;
    while (is_name_char(peek())) name += text_[pos_++];
    if (peek() == '(') {
      call(name, start);
      return;
    }
    for (int i = 0; i < kNumSymbols; ++i) {
      if (name == kSymbols[i].name) {
        push(Expr::Op::Sym, 0.0, i);
        return;
      }
    }
    if (!runtime_) {
      pos_ = start;
      std::string known;
      for (const std::string& s : expr_symbols()) {
        known += known.empty() ? s : ", " + s;
      }
      fail("unknown symbol \"" + name + "\" (known: " + known + ")");
    }
    if (peek() == '.') {
      ++pos_;
      std::string param;
      while (is_name_char(peek())) param += text_[pos_++];
      if (param != "w" && param != "l" && param != "m" && param != "r" &&
          param != "c") {
        fail("\"" + name + "." + param +
             "\": the parameter must be one of w, l, m, r, c");
      }
      add_ref({ExprRef::Kind::Param, name, param, static_cast<int>(start)});
      return;
    }
    add_ref({ExprRef::Kind::Metric, name, "", static_cast<int>(start)});
  }

  void call(const std::string& fn, std::size_t start) {
    ++pos_;  // '('
    if (fn == "max") {
      expr();
      expect(',');
      expr();
      expect(')');
      push(Expr::Op::Max);
    } else if (fn == "abs" || fn == "log10") {
      expr();
      expect(')');
      push(fn == "abs" ? Expr::Op::Abs : Expr::Op::Log10);
    } else if (runtime_ && (fn == "v" || fn == "i")) {
      const std::string bench = argument();
      expect(',');
      const std::string what = argument();
      expect(')');
      add_ref({fn == "v" ? ExprRef::Kind::NodeVoltage
                         : ExprRef::Kind::SourceCurrent,
               bench, what, static_cast<int>(start)});
    } else {
      pos_ = start;
      fail("unknown function \"" + fn + "\" (known: max, abs, log10" +
           (runtime_ ? ", v, i)" : ")"));
    }
  }

  // A bench, net or source name inside v(...)/i(...).
  std::string argument() {
    std::string out;
    while (peek() != ',' && peek() != ')' && peek() != '\0') {
      out += text_[pos_++];
    }
    if (out.empty()) fail("expected a name");
    return out;
  }

  void add_ref(ExprRef ref) {
    push(Expr::Op::Ref, 0.0, static_cast<int>(out_.refs_.size()));
    out_.refs_.push_back(std::move(ref));
  }

  const std::string& text_;
  bool runtime_;
  Expr& out_;
  std::size_t pos_ = 0;
};

Expr Expr::parse(const std::string& text, bool runtime) {
  if (text.empty()) {
    throw std::invalid_argument("expression: empty input");
  }
  Expr out;
  out.text_ = text;
  ExprParser(text, runtime, out).run();
  return out;
}

double Expr::eval(const Technology& tech,
                  std::span<const double> inputs) const {
  if (ops_.empty()) return 0.0;
  if (inputs.size() < refs_.size()) {
    throw std::logic_error("expression \"" + text_ +
                           "\" evaluated without its run-time inputs");
  }
  // Stack depth is bounded by the program length; expressions are tiny.
  std::vector<double> stack;
  stack.reserve(ops_.size());
  for (const Step& s : ops_) {
    switch (s.op) {
      case Op::Num:
        stack.push_back(s.num);
        break;
      case Op::Sym:
        stack.push_back(kSymbols[s.index].get(tech));
        break;
      case Op::Ref:
        stack.push_back(inputs[static_cast<std::size_t>(s.index)]);
        break;
      case Op::Neg:
        stack.back() = -stack.back();
        break;
      case Op::Abs:
        stack.back() = std::fabs(stack.back());
        break;
      case Op::Log10:
        stack.back() = std::log10(stack.back());
        break;
      default: {
        const double b = stack.back();
        stack.pop_back();
        double& a = stack.back();
        if (s.op == Op::Add) a += b;
        else if (s.op == Op::Sub) a -= b;
        else if (s.op == Op::Mul) a *= b;
        else if (s.op == Op::Div) a /= b;
        else a = std::max(a, b);
      }
    }
  }
  return stack.back();
}

}  // namespace gcnrl::circuit
