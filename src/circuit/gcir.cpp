// Strict line-oriented parser for the .gcir circuit-description format
// (format reference: gcir.hpp). Mirrors the loud-failure philosophy of
// api/spec.cpp: every diagnostic carries an <origin>:line:column position,
// unknown directives/keys list the known set, and all cross-references
// (nets, sources, components, benches, metrics) are resolved at parse
// time so a parsed description cannot fail name lookup later.
#include "circuit/gcir.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace gcnrl::circuit {

namespace {

struct Token {
  std::string text;
  int col = 1;  // 1-based column of the first character
};

// Key=value view of a token ("fixed" -> flag without '=').
struct KeyValue {
  std::string key;
  std::string value;
  bool has_value = false;
  int col = 1;
};

bool is_ground_alias(const std::string& n) {
  return n == "0" || n == "gnd" || n == "vss";
}

class GcirParser {
 public:
  GcirParser(const std::string& text, std::string origin)
      : text_(text), origin_(std::move(origin)) {}

  CircuitDescription run() {
    d_.origin = origin_;
    std::size_t pos = 0;
    int line_no = 0;
    while (pos <= text_.size()) {
      std::size_t eol = text_.find('\n', pos);
      if (eol == std::string::npos) eol = text_.size();
      ++line_no;
      parse_line(text_.substr(pos, eol - pos), line_no);
      if (eol == text_.size()) break;
      pos = eol + 1;
    }
    finish(line_no);
    return std::move(d_);
  }

 private:
  [[noreturn]] void fail(int line, int col, const std::string& what) const {
    throw std::runtime_error("gcir parse error at " + origin_ + ":" +
                             std::to_string(line) + ":" +
                             std::to_string(col) + ": " + what);
  }

  std::vector<Token> tokenize(const std::string& line, int line_no) const {
    std::vector<Token> out;
    std::size_t i = 0;
    while (i < line.size()) {
      const char c = line[i];
      if (c == '#') break;  // comment to end of line
      if (c == ' ' || c == '\t' || c == '\r') {
        ++i;
        continue;
      }
      const std::size_t start = i;
      while (i < line.size() && line[i] != ' ' && line[i] != '\t' &&
             line[i] != '\r' && line[i] != '#') {
        if (line[i] == '"') {  // a quoted span keeps its spaces
          const std::size_t close = line.find('"', i + 1);
          if (close == std::string::npos) {
            fail(line_no, static_cast<int>(i) + 1,
                 "unterminated quoted string");
          }
          i = close;
        }
        ++i;
      }
      out.push_back({line.substr(start, i - start),
                     static_cast<int>(start) + 1});
    }
    return out;
  }

  KeyValue split_kv(const Token& tok) const {
    const std::size_t eq = tok.text.find('=');
    if (eq == std::string::npos) return {tok.text, "", false, tok.col};
    return {tok.text.substr(0, eq), tok.text.substr(eq + 1), true, tok.col};
  }

  // Column of a key=value token's value, past "key=".
  static int value_col(const KeyValue& kv) {
    return kv.col + static_cast<int>(kv.key.size()) + 1;
  }

  Expr parse_expr(int line, const KeyValue& kv) const {
    if (kv.value.empty()) {
      fail(line, kv.col, "\"" + kv.key + "\" needs a value");
    }
    return parse_expr_text(line, value_col(kv), kv.value);
  }

  Expr parse_expr_text(int line, int col, const std::string& text,
                       bool runtime = false) const {
    try {
      return Expr::parse(text, runtime);
    } catch (const std::invalid_argument& e) {
      // Expr::parse reports "... at offset N: ..."; shift the column to
      // the offending character inside the token.
      const std::string what = e.what();
      const std::string tag = " at offset ";
      const std::size_t p = what.find(tag);
      const int off =
          p == std::string::npos ? 0 : std::atoi(what.c_str() + p + tag.size());
      fail(line, col + off, what);
    }
  }

  // "(t,v)(t,v)..." with full expression nesting inside the pairs.
  std::vector<std::pair<Expr, Expr>> parse_pwl(int line,
                                               const KeyValue& kv) const {
    std::vector<std::pair<Expr, Expr>> out;
    const std::string& s = kv.value;
    std::size_t i = 0;
    while (i < s.size()) {
      if (s[i] != '(') fail(line, kv.col, "pwl: expected '(' in pairs");
      int depth = 1;
      const std::size_t start = ++i;
      std::size_t comma = std::string::npos;
      while (i < s.size() && depth > 0) {
        if (s[i] == '(') ++depth;
        else if (s[i] == ')') --depth;
        else if (s[i] == ',' && depth == 1 && comma == std::string::npos) {
          comma = i;
        }
        ++i;
      }
      if (depth != 0) fail(line, kv.col, "pwl: unbalanced parentheses");
      if (comma == std::string::npos) {
        fail(line, kv.col, "pwl: each pair needs \"(time,value)\"");
      }
      out.emplace_back(
          parse_expr_text(line, kv.col, s.substr(start, comma - start)),
          parse_expr_text(line, kv.col, s.substr(comma + 1, i - 1 - comma - 1)));
    }
    if (out.empty()) fail(line, kv.col, "pwl: needs at least one pair");
    return out;
  }

  // --- name resolution ---------------------------------------------------

  bool net_declared(const std::string& name) const {
    if (is_ground_alias(name)) return true;
    for (const NetDesc& n : d_.nets) {
      if (n.name == name) return true;
    }
    return false;
  }

  void require_net(int line, const Token& tok) const {
    if (!net_declared(tok.text)) {
      fail(line, tok.col,
           "undeclared net \"" + tok.text +
               "\" (declare it with \"net\" or \"supply\" first)");
    }
  }

  const DeviceDesc* find_device(const std::string& name) const {
    for (const DeviceDesc& dev : d_.devices) {
      if (dev.name == name) return &dev;
    }
    return nullptr;
  }

  const SourceDesc* find_source(const std::string& name) const {
    for (const SourceDesc& s : d_.sources) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }

  const DeviceDesc& require_designable(int line, const Token& tok) const {
    const DeviceDesc* dev = find_device(tok.text);
    if (dev == nullptr) {
      fail(line, tok.col, "unknown component \"" + tok.text + "\"");
    }
    if (!dev->designable) {
      fail(line, tok.col,
           "component \"" + tok.text + "\" is fixed, not designable");
    }
    return *dev;
  }

  int find_bench(const std::string& name) const {
    for (std::size_t i = 0; i < d_.benches.size(); ++i) {
      if (d_.benches[i].name == name) return static_cast<int>(i);
    }
    return -1;
  }

  BenchDesc& require_bench(int line, const Token& tok) {
    const int i = find_bench(tok.text);
    if (i < 0) {
      fail(line, tok.col,
           "unknown bench \"" + tok.text +
               "\" (declare it with \"bench\" first)");
    }
    return d_.benches[static_cast<std::size_t>(i)];
  }

  void require_unique_element(int line, const Token& tok) const {
    if (find_device(tok.text) != nullptr || find_source(tok.text) != nullptr) {
      fail(line, tok.col, "duplicate element name \"" + tok.text + "\"");
    }
  }

  // Nets and sources of bench `b`: the declared ones plus those the bench
  // adds to its own copy of the netlist.
  bool bench_net(const BenchDesc& b, const std::string& name) const {
    if (net_declared(name)) return true;
    for (const BenchAddDesc& a : b.adds) {
      if (a.net == name) return true;
    }
    return false;
  }

  const SourceDesc* bench_source(const BenchDesc& b,
                                 const std::string& name) const {
    if (const SourceDesc* s = find_source(name)) return s;
    for (const BenchAddDesc& a : b.adds) {
      if (a.source && a.source->name == name) return &*a.source;
    }
    return nullptr;
  }

  bool extract_declared(const std::string& metric) const {
    for (const ExtractDesc& e : d_.extracts) {
      if (e.metric == metric) return true;
    }
    return false;
  }

  // Parameter slot of `key` on `dev` (0 = w/r/c, 1 = l, 2 = m), or -1.
  static int param_slot(const DeviceDesc& dev, const std::string& key) {
    const bool mos = dev.kind == Kind::Nmos || dev.kind == Kind::Pmos;
    if (mos && key == "w") return 0;
    if (mos && key == "l") return 1;
    if (mos && key == "m") return 2;
    if (dev.kind == Kind::Resistor && key == "r") return 0;
    if (dev.kind == Kind::Capacitor && key == "c") return 0;
    return -1;
  }

  // Parses a measurement-plan expression at (line, col) and checks its
  // run-time inputs: v()/i() may name the first `bench_limit` benches,
  // and earlier extractions are readable only when `metrics` is set.
  Expr parse_plan_expr(int line, int col, const std::string& text,
                       int bench_limit, bool metrics) const {
    Expr e = parse_expr_text(line, col, text, /*runtime=*/true);
    for (const ExprRef& r : e.refs()) {
      const int at = col + r.offset;
      switch (r.kind) {
        case ExprRef::Kind::NodeVoltage:
        case ExprRef::Kind::SourceCurrent: {
          const bool volt = r.kind == ExprRef::Kind::NodeVoltage;
          const std::string fn = volt ? "v(" : "i(";
          const int bi = find_bench(r.a);
          if (bi < 0 || bi >= bench_limit) {
            fail(line, at,
                 fn + "): \"" + r.a +
                     "\" is not a bench that runs before this point");
          }
          const BenchDesc& b = d_.benches[static_cast<std::size_t>(bi)];
          if (volt && !bench_net(b, r.b)) {
            fail(line, at,
                 "v(): unknown net \"" + r.b + "\" in bench \"" + r.a + "\"");
          }
          if (!volt) {
            const SourceDesc* src = bench_source(b, r.b);
            if (src == nullptr || !src->is_vsource) {
              fail(line, at,
                   "i(): \"" + r.b + "\" is not a voltage source of bench \"" +
                       r.a + "\"");
            }
          }
          break;
        }
        case ExprRef::Kind::Param: {
          const DeviceDesc* dev = find_device(r.a);
          if (dev == nullptr || !dev->designable) {
            fail(line, at,
                 "\"" + r.a + "\" is not a designable component");
          }
          if (param_slot(*dev, r.b) < 0) {
            fail(line, at,
                 "\"" + r.b + "\" is not a parameter of " +
                     kind_name(dev->kind) + " \"" + r.a + "\"");
          }
          break;
        }
        case ExprRef::Kind::Metric:
          if (!metrics) {
            fail(line, at,
                 "\"" + r.a +
                     "\" is not a technology symbol, and only extract "
                     "expressions read metrics");
          }
          if (!extract_declared(r.a)) {
            fail(line, at,
                 "unknown metric \"" + r.a +
                     "\" (an expression reads extractions declared before "
                     "it)");
          }
          break;
      }
    }
    return e;
  }

  void need_args(int line, const std::vector<Token>& toks,
                 std::size_t n, const char* usage) const {
    if (toks.size() < n) {
      fail(line, toks[0].col,
           "\"" + toks[0].text + "\" needs: " + usage);
    }
  }

  [[noreturn]] void unknown_key(int line, const KeyValue& kv,
                                const char* directive,
                                const char* known) const {
    fail(line, kv.col,
         std::string(directive) + ": unknown key \"" + kv.key +
             "\" (known: " + known + ")");
  }

  // --- directives --------------------------------------------------------

  // "#lint: allow CHECK-ID" pragmas ride inside comments (so the file
  // stays valid for comment-stripping tools); intercept them before
  // tokenize() drops everything after '#'.
  bool parse_lint_pragma(const std::string& line, int line_no) {
    const std::size_t at = line.find_first_not_of(" \t");
    if (at == std::string::npos || line.compare(at, 6, "#lint:") != 0) {
      return false;
    }
    // Blank out "#lint:" so the pragma tokenizes in place (columns kept).
    std::string body = line;
    body.replace(at, 6, 6, ' ');
    const std::vector<Token> toks = tokenize(body, line_no);
    if (toks.size() != 2 || toks[0].text != "allow") {
      fail(line_no, static_cast<int>(at) + 1,
           "lint pragma: expected \"#lint: allow CHECK-ID\"");
    }
    d_.lint_allows.push_back({toks[1].text, line_no, toks[1].col});
    return true;
  }

  void parse_line(const std::string& line, int line_no) {
    if (parse_lint_pragma(line, line_no)) return;
    const std::vector<Token> toks = tokenize(line, line_no);
    if (toks.empty()) return;
    const std::string& dir = toks[0].text;
    if (dir != "circuit" && d_.name.empty()) {
      fail(line_no, toks[0].col,
           "the first directive must be \"circuit NAME\"");
    }
    if (dir == "circuit") parse_circuit(line_no, toks);
    else if (dir == "supply" || dir == "net") parse_nets(line_no, toks);
    else if (dir == "vsource" || dir == "isource") parse_source(line_no, toks);
    else if (dir == "nmos" || dir == "pmos") parse_mos(line_no, toks);
    else if (dir == "resistor" || dir == "capacitor") parse_rc(line_no, toks);
    else if (dir == "bound") parse_bound(line_no, toks);
    else if (dir == "match") parse_match(line_no, toks);
    else if (dir == "metric") parse_metric(line_no, toks);
    else if (dir == "expert") parse_expert(line_no, toks);
    else if (dir == "bench") parse_bench(line_no, toks);
    else if (dir == "set") parse_set(line_no, toks);
    else if (dir == "ac") parse_ac(line_no, toks);
    else if (dir == "noise") parse_noise(line_no, toks);
    else if (dir == "tran") parse_tran(line_no, toks);
    else if (dir == "warm") parse_warm(line_no, toks);
    else if (dir == "add") parse_add(line_no, toks);
    else if (dir == "extract") parse_extract(line_no, toks);
    else if (dir == "guard") parse_guard(line_no, toks);
    else {
      fail(line_no, toks[0].col,
           "unknown directive \"" + dir +
               "\" (known: circuit, supply, net, vsource, isource, nmos, "
               "pmos, resistor, capacitor, bound, match, metric, expert, "
               "bench, set, add, ac, noise, tran, warm, extract, guard)");
    }
  }

  void parse_circuit(int line, const std::vector<Token>& toks) {
    need_args(line, toks, 2, "circuit NAME");
    if (!d_.name.empty()) {
      fail(line, toks[0].col, "duplicate \"circuit\" directive");
    }
    if (toks.size() > 2) {
      fail(line, toks[2].col, "\"circuit\" takes exactly one name");
    }
    d_.name = toks[1].text;
    d_.name_line = line;
    d_.name_col = toks[0].col;
  }

  void parse_nets(int line, const std::vector<Token>& toks) {
    need_args(line, toks, 2, "net|supply NET...");
    const bool supply = toks[0].text == "supply";
    for (std::size_t i = 1; i < toks.size(); ++i) {
      if (is_ground_alias(toks[i].text)) {
        fail(line, toks[i].col,
             "\"" + toks[i].text + "\" is a predeclared ground alias");
      }
      if (net_declared(toks[i].text)) {
        fail(line, toks[i].col, "duplicate net \"" + toks[i].text + "\"");
      }
      d_.nets.push_back({toks[i].text, supply, line, toks[i].col});
    }
  }

  void parse_source(int line, const std::vector<Token>& toks) {
    SourceDesc s = read_source(line, toks, 0, nullptr);
    d_.element_order.push_back({true, static_cast<int>(d_.sources.size())});
    d_.sources.push_back(std::move(s));
  }

  // "vsource|isource NAME P N dc=EXPR [ac=EXPR] [pwl=...]" starting at
  // toks[at]. With a `bench`, the source joins that bench's copy only: its
  // nets may be ones the bench added, and dc/ac may read run-time inputs
  // of earlier benches.
  SourceDesc read_source(int line, const std::vector<Token>& toks,
                         std::size_t at, const BenchDesc* bench) const {
    if (toks.size() < at + 5) {
      fail(line, toks[0].col,
           "\"" + toks[0].text + "\" needs: " +
               (bench != nullptr ? "add BENCH " : "") +
               "vsource|isource NAME P N dc=EXPR [ac=EXPR] [pwl=...]");
    }
    SourceDesc s;
    s.is_vsource = toks[at].text == "vsource";
    s.name = toks[at + 1].text;
    s.line = line;
    s.col = toks[0].col;
    require_unique_element(line, toks[at + 1]);
    if (bench != nullptr && bench_source(*bench, s.name) != nullptr) {
      fail(line, toks[at + 1].col,
           "duplicate element name \"" + s.name + "\"");
    }
    for (std::size_t i = at + 2; i < at + 4; ++i) {
      if (bench == nullptr) {
        require_net(line, toks[i]);
      } else if (!bench_net(*bench, toks[i].text)) {
        fail(line, toks[i].col,
             "undeclared net \"" + toks[i].text + "\" in bench \"" +
                 bench->name + "\"");
      }
    }
    s.p = toks[at + 2].text;
    s.n = toks[at + 3].text;
    bool have_dc = false;
    for (std::size_t i = at + 4; i < toks.size(); ++i) {
      const KeyValue kv = split_kv(toks[i]);
      if (kv.key == "dc" || kv.key == "ac") {
        Expr e = bench == nullptr
                     ? parse_expr(line, kv)
                     : parse_plan_expr(line, value_col(kv), kv.value,
                                       find_bench(bench->name), false);
        (kv.key == "dc" ? s.dc : s.ac) = std::move(e);
        have_dc = have_dc || kv.key == "dc";
      } else if (kv.key == "pwl") {
        s.pwl = parse_pwl(line, kv);
      } else {
        unknown_key(line, kv, toks[at].text.c_str(), "dc, ac, pwl");
      }
    }
    if (!have_dc) {
      fail(line, toks[0].col,
           "source \"" + s.name + "\" needs \"dc=EXPR\"");
    }
    return s;
  }

  void parse_mos(int line, const std::vector<Token>& toks) {
    need_args(line, toks, 9,
              "nmos|pmos NAME D G S B w=EXPR l=EXPR m=EXPR [fixed]");
    DeviceDesc dev;
    dev.kind = toks[0].text == "nmos" ? Kind::Nmos : Kind::Pmos;
    dev.name = toks[1].text;
    dev.line = line;
    dev.col = toks[0].col;
    require_unique_element(line, toks[1]);
    for (std::size_t i = 2; i < 6; ++i) {
      require_net(line, toks[i]);
      dev.nodes.push_back(toks[i].text);
    }
    bool have[3] = {false, false, false};
    for (std::size_t i = 6; i < toks.size(); ++i) {
      const KeyValue kv = split_kv(toks[i]);
      if (kv.key == "w") {
        dev.params[0] = parse_expr(line, kv);
        have[0] = true;
      } else if (kv.key == "l") {
        dev.params[1] = parse_expr(line, kv);
        have[1] = true;
      } else if (kv.key == "m") {
        dev.params[2] = parse_expr(line, kv);
        have[2] = true;
      } else if (kv.key == "fixed" && !kv.has_value) {
        dev.designable = false;
      } else {
        unknown_key(line, kv, toks[0].text.c_str(), "w, l, m, fixed");
      }
    }
    if (!have[0] || !have[1] || !have[2]) {
      fail(line, toks[0].col,
           "MOSFET \"" + dev.name + "\" needs w=, l= and m=");
    }
    d_.element_order.push_back({false, static_cast<int>(d_.devices.size())});
    d_.devices.push_back(std::move(dev));
  }

  void parse_rc(int line, const std::vector<Token>& toks) {
    const bool is_r = toks[0].text == "resistor";
    need_args(line, toks, 5,
              is_r ? "resistor NAME A B r=EXPR [fixed]"
                   : "capacitor NAME A B c=EXPR [fixed]");
    DeviceDesc dev;
    dev.kind = is_r ? Kind::Resistor : Kind::Capacitor;
    dev.name = toks[1].text;
    dev.line = line;
    dev.col = toks[0].col;
    require_unique_element(line, toks[1]);
    require_net(line, toks[2]);
    require_net(line, toks[3]);
    dev.nodes = {toks[2].text, toks[3].text};
    bool have_value = false;
    const char* value_key = is_r ? "r" : "c";
    for (std::size_t i = 4; i < toks.size(); ++i) {
      const KeyValue kv = split_kv(toks[i]);
      if (kv.key == value_key) {
        dev.params[0] = parse_expr(line, kv);
        have_value = true;
      } else if (kv.key == "fixed" && !kv.has_value) {
        dev.designable = false;
      } else {
        unknown_key(line, kv, toks[0].text.c_str(),
                    is_r ? "r, fixed" : "c, fixed");
      }
    }
    if (!have_value) {
      fail(line, toks[0].col,
           "\"" + dev.name + "\" needs " + value_key + "=EXPR");
    }
    d_.element_order.push_back({false, static_cast<int>(d_.devices.size())});
    d_.devices.push_back(std::move(dev));
  }

  void parse_bound(int line, const std::vector<Token>& toks) {
    need_args(line, toks, 3, "bound COMP PARAM.SIDE=EXPR (e.g. w.hi=wmax)");
    const DeviceDesc& dev = require_designable(line, toks[1]);
    const KeyValue kv = split_kv(toks[2]);
    const std::size_t dot = kv.key.find('.');
    if (!kv.has_value || dot == std::string::npos) {
      fail(line, kv.col, "bound: expected PARAM.SIDE=EXPR (e.g. w.hi=wmax)");
    }
    const std::string param = kv.key.substr(0, dot);
    const std::string side = kv.key.substr(dot + 1);
    BoundDesc b;
    b.comp = dev.name;
    b.line = line;
    b.col = toks[2].col;
    b.param = param_slot(dev, param);
    if (b.param < 0) {
      fail(line, kv.col,
           "bound: \"" + param + "\" is not a parameter of " +
               kind_name(dev.kind) + " \"" + dev.name + "\"");
    }
    if (side == "lo") b.hi = false;
    else if (side == "hi") b.hi = true;
    else fail(line, kv.col, "bound: SIDE must be \"lo\" or \"hi\"");
    b.value = parse_expr(line, kv);
    d_.bounds.push_back(std::move(b));
  }

  void parse_match(int line, const std::vector<Token>& toks) {
    need_args(line, toks, 3, "match COMP COMP... [l_only]");
    MatchDesc m;
    m.line = line;
    m.col = toks[0].col;
    std::size_t last = toks.size();
    if (toks.back().text == "l_only") {
      m.l_only = true;
      --last;
    }
    for (std::size_t i = 1; i < last; ++i) {
      m.comps.push_back(require_designable(line, toks[i]).name);
    }
    if (m.comps.size() < 2) {
      fail(line, toks[0].col, "match: needs at least two components");
    }
    d_.matches.push_back(std::move(m));
  }

  double parse_number(int line, const KeyValue& kv) const {
    char* end = nullptr;
    const double v = std::strtod(kv.value.c_str(), &end);
    if (kv.value.empty() || end == nullptr || *end != '\0') {
      fail(line, kv.col,
           "\"" + kv.key + "\" needs a plain number, got \"" + kv.value +
               "\"");
    }
    return v;
  }

  std::string parse_string(int line, const KeyValue& kv) const {
    std::string v = kv.value;
    if (v.size() >= 2 && v.front() == '"' && v.back() == '"') {
      v = v.substr(1, v.size() - 2);
    }
    if (v.empty()) fail(line, kv.col, "\"" + kv.key + "\" needs a value");
    return v;
  }

  void parse_metric(int line, const std::vector<Token>& toks) {
    need_args(line, toks, 3,
              "metric NAME unit=STR weight=NUM [bound=] [spec_min=] "
              "[spec_max=] [log]");
    MetricDesc m;
    m.name = toks[1].text;
    m.line = line;
    m.col = toks[0].col;
    for (const MetricDesc& prev : d_.metrics) {
      if (prev.name == m.name) {
        fail(line, toks[1].col, "duplicate metric \"" + m.name + "\"");
      }
    }
    bool have_unit = false, have_weight = false;
    for (std::size_t i = 2; i < toks.size(); ++i) {
      const KeyValue kv = split_kv(toks[i]);
      if (kv.key == "unit") {
        m.unit = parse_string(line, kv);
        have_unit = true;
      } else if (kv.key == "weight") {
        m.weight = parse_number(line, kv);
        have_weight = true;
      } else if (kv.key == "bound") {
        m.bound = parse_expr(line, kv);
      } else if (kv.key == "spec_min") {
        m.spec_min = parse_expr(line, kv);
      } else if (kv.key == "spec_max") {
        m.spec_max = parse_expr(line, kv);
      } else if (kv.key == "log" && !kv.has_value) {
        m.log_norm = true;
      } else {
        unknown_key(line, kv, "metric",
                    "unit, weight, bound, spec_min, spec_max, log");
      }
    }
    if (!have_unit || !have_weight) {
      fail(line, toks[0].col,
           "metric \"" + m.name + "\" needs unit= and weight=");
    }
    d_.metrics.push_back(std::move(m));
  }

  void parse_expert(int line, const std::vector<Token>& toks) {
    need_args(line, toks, 3, "expert COMP VAL [VAL VAL]");
    const DeviceDesc& dev = require_designable(line, toks[1]);
    for (const ExpertDesc& prev : d_.expert) {
      if (prev.comp == dev.name) {
        fail(line, toks[1].col,
             "duplicate expert sizing for \"" + dev.name + "\"");
      }
    }
    ExpertDesc e;
    e.comp = dev.name;
    e.line = line;
    e.col = toks[0].col;
    const int want = action_dim(dev.kind);
    if (static_cast<int>(toks.size()) - 2 != want) {
      fail(line, toks[0].col,
           "expert \"" + dev.name + "\": " + kind_name(dev.kind) +
               " takes " + std::to_string(want) + " value(s)");
    }
    for (std::size_t i = 2; i < toks.size(); ++i) {
      e.values.push_back(parse_expr_text(line, toks[i].col, toks[i].text));
    }
    d_.expert.push_back(std::move(e));
  }

  void parse_bench(int line, const std::vector<Token>& toks) {
    need_args(line, toks, 2, "bench NAME");
    if (toks.size() > 2) {
      fail(line, toks[2].col, "\"bench\" takes exactly one name");
    }
    if (find_bench(toks[1].text) >= 0) {
      fail(line, toks[1].col, "duplicate bench \"" + toks[1].text + "\"");
    }
    BenchDesc b;
    b.name = toks[1].text;
    b.line = line;
    b.col = toks[0].col;
    d_.benches.push_back(std::move(b));
  }

  void parse_set(int line, const std::vector<Token>& toks) {
    need_args(line, toks, 4,
              "set BENCH SOURCE [dc=EXPR] [ac=EXPR] [pwl=...] | "
              "set BENCH MOS g=NET");
    BenchDesc& bench = require_bench(line, toks[1]);
    const DeviceDesc* dev = find_device(toks[2].text);
    if (dev != nullptr &&
        (dev->kind == Kind::Nmos || dev->kind == Kind::Pmos)) {
      const KeyValue kv = split_kv(toks[3]);
      if (kv.key != "g" || !kv.has_value || toks.size() > 4) {
        fail(line, toks[3].col, "set: a MOSFET takes only g=NET");
      }
      if (!bench_net(bench, kv.value)) {
        fail(line, value_col(kv),
             "undeclared net \"" + kv.value + "\" in bench \"" +
                 bench.name + "\"");
      }
      bench.gates.push_back({dev->name, kv.value, line, toks[0].col});
      return;
    }
    if (find_source(toks[2].text) == nullptr) {
      fail(line, toks[2].col,
           "unknown source or MOSFET \"" + toks[2].text + "\"");
    }
    SourceSetDesc set;
    set.source = toks[2].text;
    set.line = line;
    set.col = toks[0].col;
    for (std::size_t i = 3; i < toks.size(); ++i) {
      const KeyValue kv = split_kv(toks[i]);
      if (kv.key == "dc") set.dc = parse_expr(line, kv);
      else if (kv.key == "ac") set.ac = parse_expr(line, kv);
      else if (kv.key == "pwl") set.pwl = parse_pwl(line, kv);
      else unknown_key(line, kv, "set", "dc, ac, pwl");
    }
    bench.sets.push_back(std::move(set));
  }

  void parse_add(int line, const std::vector<Token>& toks) {
    need_args(line, toks, 4,
              "add BENCH net NET... | add BENCH vsource|isource NAME P N "
              "dc=EXPR [ac=EXPR] [pwl=...]");
    BenchDesc& bench = require_bench(line, toks[1]);
    const std::string& what = toks[2].text;
    if (what == "net") {
      for (std::size_t i = 3; i < toks.size(); ++i) {
        if (is_ground_alias(toks[i].text) || bench_net(bench, toks[i].text)) {
          fail(line, toks[i].col, "duplicate net \"" + toks[i].text + "\"");
        }
        bench.adds.push_back({toks[i].text, std::nullopt, line, toks[i].col});
      }
    } else if (what == "vsource" || what == "isource") {
      SourceDesc src = read_source(line, toks, 2, &bench);
      bench.adds.push_back({"", std::move(src), line, toks[0].col});
    } else {
      fail(line, toks[2].col,
           "add: expected net, vsource or isource, got \"" + what + "\"");
    }
  }

  void parse_ac(int line, const std::vector<Token>& toks) {
    need_args(line, toks, 5, "ac BENCH FMIN FMAX NPOINTS");
    BenchDesc& bench = require_bench(line, toks[1]);
    if (bench.ac) {
      fail(line, toks[0].col,
           "bench \"" + bench.name + "\" already has an ac sweep");
    }
    AcSweepDesc sweep;
    sweep.line = line;
    sweep.col = toks[0].col;
    sweep.fmin = parse_expr_text(line, toks[2].col, toks[2].text);
    sweep.fmax = parse_expr_text(line, toks[3].col, toks[3].text);
    char* end = nullptr;
    const long n = std::strtol(toks[4].text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || n < 1 || n > 100000) {
      fail(line, toks[4].col,
           "ac: NPOINTS must be an integer in [1, 100000]");
    }
    sweep.npoints = static_cast<int>(n);
    bench.ac = std::move(sweep);
  }

  void parse_noise(int line, const std::vector<Token>& toks) {
    need_args(line, toks, 4, "noise BENCH out=NODE[,NODE] FREQ...");
    BenchDesc& bench = require_bench(line, toks[1]);
    if (bench.noise) {
      fail(line, toks[0].col,
           "bench \"" + bench.name + "\" already has a noise analysis");
    }
    NoiseDesc noise;
    noise.line = line;
    noise.col = toks[0].col;
    bool have_out = false;
    for (std::size_t i = 2; i < toks.size(); ++i) {
      const KeyValue kv = split_kv(toks[i]);
      if (kv.key == "out" && kv.has_value) {
        const std::size_t comma = kv.value.find(',');
        noise.out_p = kv.value.substr(0, comma);
        if (comma != std::string::npos) {
          noise.out_n = kv.value.substr(comma + 1);
        }
        if (!net_declared(noise.out_p) ||
            (!noise.out_n.empty() && !net_declared(noise.out_n))) {
          fail(line, kv.col, "noise: out= names an undeclared net");
        }
        have_out = true;
      } else if (!kv.has_value) {
        noise.freqs.push_back(
            parse_expr_text(line, toks[i].col, toks[i].text));
      } else {
        unknown_key(line, kv, "noise", "out");
      }
    }
    if (!have_out || noise.freqs.empty()) {
      fail(line, toks[0].col,
           "noise: needs out=NODE[,NODE] and at least one frequency");
    }
    bench.noise = std::move(noise);
  }

  void parse_tran(int line, const std::vector<Token>& toks) {
    need_args(line, toks, 4, "tran BENCH tstop=EXPR dt=EXPR");
    BenchDesc& bench = require_bench(line, toks[1]);
    if (bench.tran) {
      fail(line, toks[0].col,
           "bench \"" + bench.name + "\" already has a tran analysis");
    }
    TranDesc tran;
    tran.line = line;
    tran.col = toks[0].col;
    bool have_tstop = false, have_dt = false;
    for (std::size_t i = 2; i < toks.size(); ++i) {
      const KeyValue kv = split_kv(toks[i]);
      if (kv.key == "tstop") {
        tran.tstop = parse_expr(line, kv);
        have_tstop = true;
      } else if (kv.key == "dt") {
        tran.dt = parse_expr(line, kv);
        have_dt = true;
      } else {
        unknown_key(line, kv, "tran", "tstop, dt");
      }
    }
    if (!have_tstop || !have_dt) {
      fail(line, toks[0].col, "tran: needs tstop= and dt=");
    }
    bench.tran = std::move(tran);
  }

  void parse_warm(int line, const std::vector<Token>& toks) {
    need_args(line, toks, 3, "warm BENCH from=BENCH");
    BenchDesc& bench = require_bench(line, toks[1]);
    const KeyValue kv = split_kv(toks[2]);
    if (kv.key != "from" || !kv.has_value) {
      unknown_key(line, kv, "warm", "from");
    }
    const int src = find_bench(kv.value);
    const int self = find_bench(bench.name);
    if (src < 0 || src >= self) {
      fail(line, kv.col,
           "warm: from= must name an earlier bench (benches run in "
           "declaration order)");
    }
    if (!bench.warm_from.empty()) {
      fail(line, toks[0].col,
           "bench \"" + bench.name + "\" already has a warm source");
    }
    bench.warm_from = kv.value;
  }

  // "NODE[,NODE]" of a probe= or over= key, checked against the nets
  // bench `b` sees once every key of the line is known.
  struct ProbeKey {
    std::string p, n;
    int col = 0;
  };

  static ProbeKey split_probe(const KeyValue& kv) {
    const std::size_t comma = kv.value.find(',');
    ProbeKey out{kv.value.substr(0, comma), "", kv.col};
    if (comma != std::string::npos) out.n = kv.value.substr(comma + 1);
    return out;
  }

  void check_probe(int line, const ProbeKey& probe, const BenchDesc& b,
                   const char* key) const {
    if (probe.p.empty()) return;
    if (!bench_net(b, probe.p) ||
        (!probe.n.empty() && !bench_net(b, probe.n))) {
      fail(line, probe.col,
           std::string(key) + "= names an undeclared net");
    }
  }

  void parse_extract(int line, const std::vector<Token>& toks) {
    need_args(line, toks, 3,
              "extract METRIC FN bench=BENCH [probe=NODE[,NODE]] [at=EXPR] "
              "[window=EXPR,EXPR] [edge=EXPR] [tol=EXPR] [scale=EXPR] "
              "[over=NODE[,NODE]] [temp] | extract METRIC expr=EXPR [temp]");
    ExtractDesc e;
    e.metric = toks[1].text;
    e.line = line;
    e.col = toks[0].col;
    if (extract_declared(e.metric)) {
      fail(line, toks[1].col,
           "duplicate extraction for metric \"" + e.metric + "\"");
    }
    const std::string& fn = toks[2].text;
    std::size_t first_key = 3;
    if (fn.rfind("expr=", 0) == 0) {
      e.fn = ExtractFn::Expression;
      first_key = 2;
    } else if (fn == "supply_power") e.fn = ExtractFn::SupplyPower;
    else if (fn == "dc_gain") e.fn = ExtractFn::DcGain;
    else if (fn == "bandwidth_3db") e.fn = ExtractFn::Bandwidth3db;
    else if (fn == "peaking_db") e.fn = ExtractFn::PeakingDb;
    else if (fn == "gbw") e.fn = ExtractFn::Gbw;
    else if (fn == "input_noise") e.fn = ExtractFn::InputNoise;
    else if (fn == "settling_time") e.fn = ExtractFn::SettlingTime;
    else if (fn == "phase_margin") e.fn = ExtractFn::PhaseMargin;
    else {
      fail(line, toks[2].col,
           "unknown extraction \"" + fn +
               "\" (known: supply_power, dc_gain, bandwidth_3db, "
               "peaking_db, gbw, input_noise, settling_time, phase_margin, "
               "or expr=EXPR)");
    }
    const int benches = static_cast<int>(d_.benches.size());
    int bench_idx = -1;
    ProbeKey probe, over;
    for (std::size_t i = first_key; i < toks.size(); ++i) {
      const KeyValue kv = split_kv(toks[i]);
      if (kv.key == "temp" && !kv.has_value) {
        e.temp = true;
      } else if (e.fn == ExtractFn::Expression) {
        if (kv.key != "expr" || e.value) {
          unknown_key(line, kv, "extract expr=", "temp");
        }
        e.value = parse_plan_expr(line, value_col(kv), kv.value, benches,
                                  /*metrics=*/true);
      } else if (kv.key == "bench" && kv.has_value) {
        bench_idx = find_bench(kv.value);
        if (bench_idx < 0) {
          fail(line, kv.col, "unknown bench \"" + kv.value + "\"");
        }
        e.bench = kv.value;
      } else if (kv.key == "probe" && kv.has_value) {
        probe = split_probe(kv);
      } else if (kv.key == "over" && kv.has_value) {
        over = split_probe(kv);
      } else if (kv.key == "at") {
        e.at_freq = parse_expr(line, kv);
      } else if (kv.key == "window" && kv.has_value) {
        const std::size_t comma = kv.value.find(',');
        if (comma == std::string::npos) {
          fail(line, kv.col, "window= needs \"T0,T1\"");
        }
        e.win_t0 = parse_expr_text(line, kv.col, kv.value.substr(0, comma));
        e.win_t1 = parse_expr_text(line, kv.col, kv.value.substr(comma + 1));
      } else if (kv.key == "edge") {
        e.edge = parse_expr(line, kv);
      } else if (kv.key == "tol") {
        e.tol = parse_expr(line, kv);
      } else if (kv.key == "scale") {
        if (kv.value.empty()) fail(line, kv.col, "\"scale\" needs a value");
        e.scale = parse_plan_expr(line, value_col(kv), kv.value, benches,
                                  /*metrics=*/true);
      } else {
        unknown_key(line, kv, "extract",
                    "bench, probe, at, window, edge, tol, scale, over, temp");
      }
    }
    if (e.fn == ExtractFn::Expression) {
      if (!e.value) fail(line, toks[0].col, "extract: needs expr=EXPR");
      d_.extracts.push_back(std::move(e));
      return;
    }
    if (bench_idx < 0) {
      fail(line, toks[0].col, "extract: needs bench=BENCH");
    }
    const BenchDesc& bench = d_.benches[static_cast<std::size_t>(bench_idx)];
    check_probe(line, probe, bench, "probe");
    check_probe(line, over, bench, "over");
    e.probe_p = probe.p;
    e.probe_n = probe.n;
    e.over_p = over.p;
    e.over_n = over.n;
    if ((e.scale || !e.over_p.empty()) && e.fn != ExtractFn::PhaseMargin) {
      fail(line, toks[0].col,
           "extract " + fn + ": scale= and over= belong to phase_margin");
    }
    if (reads_ac(e.fn)) {
      if (e.probe_p.empty()) {
        fail(line, toks[0].col,
             "extract " + fn + ": needs probe=NODE[,NODE]");
      }
      if (!bench.ac) {
        fail(line, toks[0].col,
             "extract " + fn + ": bench \"" + bench.name +
                 "\" has no ac sweep");
      }
    }
    if (e.fn == ExtractFn::InputNoise) {
      if (!e.at_freq || !bench.noise) {
        fail(line, toks[0].col,
             "extract input_noise: needs at=FREQ and a noise analysis on "
             "bench \"" + bench.name + "\"");
      }
    }
    if (e.fn == ExtractFn::SettlingTime) {
      if (e.probe_p.empty() || !e.win_t0 || !e.edge || !e.tol ||
          !bench.tran) {
        fail(line, toks[0].col,
             "extract settling_time: needs probe=, window=, edge=, tol= "
             "and a tran analysis on bench \"" + bench.name + "\"");
      }
    }
    d_.extracts.push_back(std::move(e));
  }

  void parse_guard(int line, const std::vector<Token>& toks) {
    need_args(line, toks, 3,
              "guard value=EXPR [min=EXPR] [max=EXPR] message=\"TEXT\"");
    GuardDesc g;
    g.after = static_cast<int>(d_.benches.size());
    g.line = line;
    g.col = toks[0].col;
    bool have_value = false;
    for (std::size_t i = 1; i < toks.size(); ++i) {
      const KeyValue kv = split_kv(toks[i]);
      if (kv.key == "value" || kv.key == "min" || kv.key == "max") {
        if (kv.value.empty()) {
          fail(line, kv.col, "\"" + kv.key + "\" needs a value");
        }
        Expr e = parse_plan_expr(line, value_col(kv), kv.value, g.after,
                                 /*metrics=*/false);
        if (kv.key == "value") {
          g.value = std::move(e);
          have_value = true;
        } else {
          (kv.key == "min" ? g.min : g.max) = std::move(e);
        }
      } else if (kv.key == "message") {
        g.message = parse_string(line, kv);
      } else {
        unknown_key(line, kv, "guard", "value, min, max, message");
      }
    }
    if (!have_value || (!g.min && !g.max) || g.message.empty()) {
      fail(line, toks[0].col,
           "guard: needs value=, min= and/or max=, and message=");
    }
    d_.guards.push_back(std::move(g));
  }

  // --- whole-file invariants ---------------------------------------------

  // Only the structural minimum lives here; the semantic whole-file
  // invariants (designable components exist, FoM metrics are declared and
  // produced, expert sizing is complete) moved to circuit::analyze_circuit
  // so they report as structured diagnostics alongside the graph checks.
  void finish(int last_line) const {
    if (d_.name.empty()) {
      fail(last_line, 1, "missing \"circuit NAME\" directive");
    }
  }

  const std::string& text_;
  std::string origin_;
  CircuitDescription d_;
};

}  // namespace

CircuitDescription parse_gcir(const std::string& text,
                              const std::string& origin) {
  return GcirParser(text, origin).run();
}

CircuitDescription load_gcir(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("load_gcir: cannot read \"" + path + "\"");
  }
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return parse_gcir(text, path);
}

}  // namespace gcnrl::circuit
