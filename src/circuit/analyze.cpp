// Semantic analysis over CircuitDescription (see analyze.hpp for the
// check catalog). Pure graph/table walks — no Simulator, no Netlist
// construction — so a rejected circuit costs microseconds, not a
// simulation budget. Diagnostics come out in deterministic order:
// connectivity/singularity first (element walk in declaration order),
// then sizing, then plan, then lint.* pragma feedback.
#include "circuit/analyze.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace gcnrl::circuit {

namespace {

bool is_ground_alias(const std::string& n) {
  return n == "0" || n == "gnd" || n == "vss";
}

// Union-find with path halving; no ranks (net counts are tiny).
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(static_cast<std::size_t>(n)) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int find(int i) {
    while (parent_[static_cast<std::size_t>(i)] != i) {
      parent_[static_cast<std::size_t>(i)] =
          parent_[static_cast<std::size_t>(
              parent_[static_cast<std::size_t>(i)])];
      i = parent_[static_cast<std::size_t>(i)];
    }
    return i;
  }
  // False when a and b were already connected.
  bool unite(int a, int b) {
    const int ra = find(a), rb = find(b);
    if (ra == rb) return false;
    parent_[static_cast<std::size_t>(ra)] = rb;
    return true;
  }
  bool same(int a, int b) { return find(a) == find(b); }

 private:
  std::vector<int> parent_;
};

const std::vector<CheckInfo>& check_catalog() {
  static const std::vector<CheckInfo> kChecks = {
      {"connectivity.unknown-net", Severity::Error,
       "element terminal names an undeclared net"},
      {"connectivity.bad-terminals", Severity::Error,
       "device carries the wrong number of terminal nets"},
      {"connectivity.unused-net", Severity::Warning,
       "declared net is never connected to anything"},
      {"connectivity.dangling-net", Severity::Warning,
       "net touched by exactly one terminal and never probed"},
      {"connectivity.island", Severity::Error,
       "element group with no connection to ground at all"},
      {"connectivity.no-dc-path", Severity::Error,
       "net group reachable only through capacitors/MOS gates: no DC path "
       "to ground"},
      {"singular.vsource-loop", Severity::Error,
       "loop of voltage sources: MNA matrix singular by construction"},
      {"singular.isource-cutset", Severity::Error,
       "current source drives a net group with no DC return path"},
      {"sizing.no-designable", Severity::Error,
       "circuit has no designable components"},
      {"sizing.unknown-comp", Severity::Error,
       "bound/match/expert references an unknown or fixed component"},
      {"sizing.bound-order", Severity::Error,
       "sizing range is empty (lo >= hi)"},
      {"sizing.bound-nonpositive", Severity::Error,
       "log-scaled sizing bound must be positive (multiplier >= 1)"},
      {"sizing.match-mixed-kind", Severity::Error,
       "match group mixes component kinds"},
      {"sizing.match-l-only-passive", Severity::Warning,
       "l_only match group of passives has no effect"},
      {"sizing.expert-incomplete", Severity::Error,
       "expert sizing misses a designable component or has wrong arity"},
      {"sizing.expert-out-of-bounds", Severity::Warning,
       "expert value lies outside the component's sizing bounds"},
      {"plan.no-metrics", Severity::Error, "FoM metric table is empty"},
      {"plan.metric-unproduced", Severity::Error,
       "FoM metric that no extraction produces"},
      {"plan.metric-unconsumed", Severity::Warning,
       "extraction produces a metric no FoM row consumes"},
      {"plan.unknown-ref", Severity::Error,
       "plan step references an unknown net, source, or bench"},
      {"plan.extract-requires", Severity::Error,
       "extraction misses a required analysis or argument"},
      {"plan.ac-sweep", Severity::Error,
       "degenerate AC sweep (needs 0 < fmin < fmax and npoints >= 2, or "
       "fmin == fmax and npoints == 1)"},
      {"plan.noise-freqs", Severity::Error,
       "noise analysis needs positive, finite frequencies"},
      {"plan.tran-range", Severity::Error,
       "degenerate transient config (needs 0 < dt <= tstop)"},
      {"plan.bench-unused", Severity::Warning,
       "bench is simulated but nothing extracts from it"},
      {"plan.noise-at-off-grid", Severity::Warning,
       "input_noise at= frequency is not among the bench's noise samples"},
      {"lint.unknown-check", Severity::Warning,
       "#lint: allow names an unknown check id"},
      {"lint.unused-allow", Severity::Warning,
       "#lint: allow pragma suppressed nothing"},
  };
  return kChecks;
}

const CheckInfo* find_check(const std::string& id) {
  for (const CheckInfo& c : check_catalog()) {
    if (id == c.id) return &c;
  }
  return nullptr;
}

std::string fmt_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

// Parameter key names per kind, for sizing messages ("T6 w.hi").
const char* param_key(Kind kind, int param) {
  if (kind == Kind::Resistor) return "r";
  if (kind == Kind::Capacitor) return "c";
  switch (param) {
    case 0: return "w";
    case 1: return "l";
    default: return "m";
  }
}

class Analyzer {
 public:
  Analyzer(const CircuitDescription& d, const Technology& tech)
      : d_(d), tech_(tech) {}

  std::vector<Diagnostic> run() {
    check_connectivity();
    check_sizing();
    check_plan();
    apply_allows();
    return std::move(diags_);
  }

 private:
  void add(const char* check, std::string msg, int line, int col) {
    const CheckInfo* info = find_check(check);
    Diagnostic diag;
    diag.severity = info != nullptr ? info->severity : Severity::Error;
    diag.check = check;
    diag.message = std::move(msg);
    diag.origin = d_.origin;
    diag.line = line;
    diag.col = col;
    diags_.push_back(std::move(diag));
  }

  // --- net table ---------------------------------------------------------

  // Net id: 0 = ground, 1.. = declaration order; -1 = undeclared.
  int net_id(const std::string& name) const {
    if (is_ground_alias(name)) return 0;
    for (std::size_t i = 0; i < d_.nets.size(); ++i) {
      if (d_.nets[i].name == name) return static_cast<int>(i) + 1;
    }
    return -1;
  }

  const NetDesc& net_desc(int id) const {
    return d_.nets[static_cast<std::size_t>(id - 1)];
  }

  std::string net_list(const std::vector<int>& ids) const {
    std::string out;
    for (const int id : ids) {
      if (!out.empty()) out += ", ";
      out += id == 0 ? "0" : net_desc(id).name;
    }
    return out;
  }

  // Resolves one element terminal; reports unknown nets once per element.
  int terminal(const std::string& net, const std::string& elem, int line,
               int col) {
    const int id = net_id(net);
    if (id < 0) {
      add("connectivity.unknown-net",
          "\"" + elem + "\": terminal on undeclared net \"" + net + "\"",
          line, col);
    }
    return id;
  }

  // --- connectivity + singularity ----------------------------------------

  void check_connectivity() {
    const int n = static_cast<int>(d_.nets.size()) + 1;  // + ground
    UnionFind uf_any(n);   // every element joins all its terminals
    UnionFind uf_cond(n);  // DC-conductive edges: R, vsource, MOS channel
    UnionFind uf_vloop(n);  // vsource edges only, for pure-V loop detection
    std::vector<int> usage(static_cast<std::size_t>(n), 0);
    // Name of one element touching the net (dangling-net message).
    std::vector<std::string> touched_by(static_cast<std::size_t>(n));
    // First current source incident on each net (cutset message).
    std::vector<std::string> isrc_on(static_cast<std::size_t>(n));

    auto touch = [&](int id, const std::string& elem) {
      if (id < 0) return;
      ++usage[static_cast<std::size_t>(id)];
      touched_by[static_cast<std::size_t>(id)] = elem;
    };

    for (const DeviceDesc& dev : d_.devices) {
      const bool mos = dev.kind == Kind::Nmos || dev.kind == Kind::Pmos;
      const std::size_t want = mos ? 4 : 2;
      if (dev.nodes.size() != want) {
        add("connectivity.bad-terminals",
            "\"" + dev.name + "\": " + kind_name(dev.kind) + " needs " +
                std::to_string(want) + " terminals, has " +
                std::to_string(dev.nodes.size()),
            dev.line, dev.col);
        continue;
      }
      std::vector<int> ids;
      ids.reserve(want);
      for (const std::string& node : dev.nodes) {
        const int id = terminal(node, dev.name, dev.line, dev.col);
        touch(id, dev.name);
        ids.push_back(id);
      }
      for (std::size_t i = 1; i < ids.size(); ++i) {
        if (ids[0] >= 0 && ids[i] >= 0) uf_any.unite(ids[0], ids[i]);
      }
      if (mos) {
        // Channel conducts at DC; gate and body stamp no conductance.
        if (ids[0] >= 0 && ids[2] >= 0) uf_cond.unite(ids[0], ids[2]);
      } else if (dev.kind == Kind::Resistor) {
        if (ids[0] >= 0 && ids[1] >= 0) uf_cond.unite(ids[0], ids[1]);
      }
    }

    for (const SourceDesc& s : d_.sources) {
      const int p = terminal(s.p, s.name, s.line, s.col);
      const int q = terminal(s.n, s.name, s.line, s.col);
      touch(p, s.name);
      touch(q, s.name);
      if (p < 0 || q < 0) continue;
      uf_any.unite(p, q);
      if (s.is_vsource) {
        uf_cond.unite(p, q);
        if (p == q || !uf_vloop.unite(p, q)) {
          add("singular.vsource-loop",
              "voltage source \"" + s.name +
                  "\" closes a loop of voltage sources (" +
                  (p == q ? "both terminals on net \"" + s.p + "\""
                          : "\"" + s.p + "\" and \"" + s.n +
                                "\" are already connected by voltage "
                                "sources") +
                  "): the MNA matrix is singular by construction",
              s.line, s.col);
        }
      } else {
        isrc_on[static_cast<std::size_t>(p)] = s.name;
        isrc_on[static_cast<std::size_t>(q)] = s.name;
      }
    }

    // Nets the measurement plan observes are intentional outputs: a
    // single-terminal net that is probed is not dangling.
    std::vector<bool> probed(static_cast<std::size_t>(n), false);
    auto mark_probe = [&](const std::string& name) {
      if (name.empty()) return;
      const int id = net_id(name);
      if (id >= 0) probed[static_cast<std::size_t>(id)] = true;
    };
    for (const ExtractDesc& e : d_.extracts) {
      mark_probe(e.probe_p);
      mark_probe(e.probe_n);
      mark_probe(e.over_p);
      mark_probe(e.over_n);
    }
    for_each_input([&](const ExprRef& r) {
      if (r.kind == ExprRef::Kind::NodeVoltage) mark_probe(r.b);
    });
    for (const BenchDesc& b : d_.benches) {
      if (b.noise) {
        mark_probe(b.noise->out_p);
        mark_probe(b.noise->out_n);
      }
    }

    for (int id = 1; id < n; ++id) {
      const NetDesc& nd = net_desc(id);
      if (usage[static_cast<std::size_t>(id)] == 0) {
        add("connectivity.unused-net",
            "net \"" + nd.name + "\" is declared but never connected",
            nd.line, nd.col);
      } else if (usage[static_cast<std::size_t>(id)] == 1 &&
                 !probed[static_cast<std::size_t>(id)]) {
        add("connectivity.dangling-net",
            "net \"" + nd.name + "\" is touched only by \"" +
                touched_by[static_cast<std::size_t>(id)] +
                "\" and never probed",
            nd.line, nd.col);
      }
    }

    // Islands: element groups with no connection to ground at all,
    // reported once per uf_any component (declaration order of the first
    // member net). Island nets are excluded from the DC-path checks below
    // — the island diagnostic subsumes them.
    std::vector<bool> in_island(static_cast<std::size_t>(n), false);
    {
      std::vector<int> roots;  // first-seen order
      std::vector<std::vector<int>> members;
      for (int id = 1; id < n; ++id) {
        if (usage[static_cast<std::size_t>(id)] == 0) continue;
        if (uf_any.same(id, 0)) continue;
        in_island[static_cast<std::size_t>(id)] = true;
        const int r = uf_any.find(id);
        const auto it = std::find(roots.begin(), roots.end(), r);
        if (it == roots.end()) {
          roots.push_back(r);
          members.push_back({id});
        } else {
          members[static_cast<std::size_t>(it - roots.begin())].push_back(
              id);
        }
      }
      for (const std::vector<int>& group : members) {
        const NetDesc& nd = net_desc(group.front());
        add("connectivity.island",
            "nets {" + net_list(group) +
                "} form an island with no connection to ground",
            nd.line, nd.col);
      }
    }

    // DC-conductive groups not containing ground: driven by a current
    // source -> singular cutset; otherwise capacitor/gate-coupled only.
    {
      std::vector<int> roots;
      std::vector<std::vector<int>> members;
      for (int id = 1; id < n; ++id) {
        if (usage[static_cast<std::size_t>(id)] == 0) continue;
        if (in_island[static_cast<std::size_t>(id)]) continue;
        if (uf_cond.same(id, 0)) continue;
        const int r = uf_cond.find(id);
        const auto it = std::find(roots.begin(), roots.end(), r);
        if (it == roots.end()) {
          roots.push_back(r);
          members.push_back({id});
        } else {
          members[static_cast<std::size_t>(it - roots.begin())].push_back(
              id);
        }
      }
      for (const std::vector<int>& group : members) {
        const NetDesc& nd = net_desc(group.front());
        std::string isrc;
        for (const int id : group) {
          if (!isrc_on[static_cast<std::size_t>(id)].empty()) {
            isrc = isrc_on[static_cast<std::size_t>(id)];
            break;
          }
        }
        if (!isrc.empty()) {
          add("singular.isource-cutset",
              "current source \"" + isrc + "\" drives nets {" +
                  net_list(group) +
                  "} which have no DC return path to ground: the MNA "
                  "matrix is singular by construction",
              nd.line, nd.col);
        } else {
          add("connectivity.no-dc-path",
              "nets {" + net_list(group) +
                  "} have no DC path to ground (reached only through "
                  "capacitors or MOS gates)",
              nd.line, nd.col);
        }
      }
    }
  }

  // --- sizing / design space ---------------------------------------------

  // Default range for (kind, param), mirroring DesignSpace::from_netlist.
  void default_range(Kind kind, int param, double& lo, double& hi) const {
    switch (kind) {
      case Kind::Nmos:
      case Kind::Pmos:
        if (param == 0) {
          lo = tech_.wmin;
          hi = tech_.wmax;
        } else if (param == 1) {
          lo = tech_.lmin;
          hi = tech_.lmax;
        } else {
          lo = 1.0;
          hi = static_cast<double>(tech_.mmax);
        }
        break;
      case Kind::Resistor:
        lo = tech_.rmin;
        hi = tech_.rmax;
        break;
      case Kind::Capacitor:
        lo = tech_.cmin;
        hi = tech_.cmax;
        break;
    }
  }

  const DeviceDesc* designable(const std::string& name) const {
    for (const DeviceDesc& dev : d_.devices) {
      if (dev.name == name) return dev.designable ? &dev : nullptr;
    }
    return nullptr;
  }

  void check_sizing() {
    bool any_designable = false;
    for (const DeviceDesc& dev : d_.devices) {
      any_designable = any_designable || dev.designable;
    }
    if (!any_designable) {
      add("sizing.no-designable",
          "circuit \"" + d_.name + "\" has no designable components",
          d_.name_line, d_.name_col);
    }

    // Effective ranges: defaults overridden in bound-declaration order,
    // then validated once per (component, parameter) at the last override
    // that touched the side (or silently for untouched defaults — the
    // technology's own ranges are trusted).
    for (const DeviceDesc& dev : d_.devices) {
      if (!dev.designable) continue;
      const int dims = action_dim(dev.kind);
      for (int param = 0; param < dims; ++param) {
        double lo = 0.0, hi = 0.0;
        default_range(dev.kind, param, lo, hi);
        const BoundDesc* last = nullptr;
        for (const BoundDesc& b : d_.bounds) {
          if (b.comp != dev.name || b.param != param) continue;
          const double v = b.value.eval(tech_);
          (b.hi ? hi : lo) = v;
          last = &b;
        }
        if (last == nullptr) continue;
        const std::string key = std::string(dev.name) + " " +
                                param_key(dev.kind, param);
        const bool is_m =
            (dev.kind == Kind::Nmos || dev.kind == Kind::Pmos) && param == 2;
        const double floor = is_m ? 1.0 : 0.0;
        if (!std::isfinite(lo) || !std::isfinite(hi) || lo <= floor - 1e-12 ||
            hi <= floor - 1e-12 || lo <= 0.0 || hi <= 0.0) {
          add("sizing.bound-nonpositive",
              "bound " + key + ": range [" + fmt_num(lo) + ", " +
                  fmt_num(hi) + "] " +
                  (is_m ? "needs multiplier bounds >= 1"
                        : "needs positive finite bounds (log-scaled "
                          "parameter)"),
              last->line, last->col);
        } else if (lo >= hi) {
          add("sizing.bound-order",
              "bound " + key + ": empty range [" + fmt_num(lo) + ", " +
                  fmt_num(hi) + "] (lo >= hi)",
              last->line, last->col);
        }
      }
    }

    // Bounds naming unknown/fixed components (hand-built descriptions;
    // the parser resolves these for .gcir files).
    for (const BoundDesc& b : d_.bounds) {
      const DeviceDesc* dev = designable(b.comp);
      if (dev == nullptr) {
        add("sizing.unknown-comp",
            "bound references unknown or fixed component \"" + b.comp +
                "\"",
            b.line, b.col);
      } else if (b.param < 0 || b.param >= action_dim(dev->kind)) {
        add("sizing.unknown-comp",
            "bound " + b.comp + ": " + kind_name(dev->kind) +
                " has no parameter #" + std::to_string(b.param),
            b.line, b.col);
      }
    }

    for (const MatchDesc& m : d_.matches) {
      const DeviceDesc* first = nullptr;
      bool mixed = false;
      for (const std::string& comp : m.comps) {
        const DeviceDesc* dev = designable(comp);
        if (dev == nullptr) {
          add("sizing.unknown-comp",
              "match references unknown or fixed component \"" + comp +
                  "\"",
              m.line, m.col);
          continue;
        }
        if (first == nullptr) {
          first = dev;
        } else if (dev->kind != first->kind) {
          mixed = true;
          add("sizing.match-mixed-kind",
              "match group mixes " + std::string(kind_name(first->kind)) +
                  " \"" + first->name + "\" with " + kind_name(dev->kind) +
                  " \"" + dev->name + "\"",
              m.line, m.col);
          break;
        }
      }
      if (!mixed && m.l_only && first != nullptr &&
          (first->kind == Kind::Resistor ||
           first->kind == Kind::Capacitor)) {
        add("sizing.match-l-only-passive",
            "l_only has no effect on a " +
                std::string(kind_name(first->kind)) +
                " match group (passives have no length)",
            m.line, m.col);
      }
    }

    check_expert();
  }

  void check_expert() {
    if (d_.expert.empty()) return;
    for (const DeviceDesc& dev : d_.devices) {
      if (!dev.designable) continue;
      bool covered = false;
      for (const ExpertDesc& e : d_.expert) {
        covered = covered || e.comp == dev.name;
      }
      if (!covered) {
        add("sizing.expert-incomplete",
            "expert sizing is incomplete: missing \"" + dev.name + "\"",
            dev.line, dev.col);
      }
    }
    for (const ExpertDesc& e : d_.expert) {
      const DeviceDesc* dev = designable(e.comp);
      if (dev == nullptr) {
        add("sizing.unknown-comp",
            "expert sizing references unknown or fixed component \"" +
                e.comp + "\"",
            e.line, e.col);
        continue;
      }
      const int dims = action_dim(dev->kind);
      if (static_cast<int>(e.values.size()) != dims) {
        add("sizing.expert-incomplete",
            "expert \"" + e.comp + "\": " + kind_name(dev->kind) +
                " takes " + std::to_string(dims) + " value(s), got " +
                std::to_string(e.values.size()),
            e.line, e.col);
        continue;
      }
      for (int param = 0; param < dims; ++param) {
        double lo = 0.0, hi = 0.0;
        default_range(dev->kind, param, lo, hi);
        for (const BoundDesc& b : d_.bounds) {
          if (b.comp == dev->name && b.param == param) {
            (b.hi ? hi : lo) = b.value.eval(tech_);
          }
        }
        if (lo >= hi) continue;  // already a sizing.bound-* error
        const double v =
            e.values[static_cast<std::size_t>(param)].eval(tech_);
        // Tolerate the quantization grid: the refinement step snaps W/L
        // to the technology grid anyway.
        const double slack =
            (dev->kind == Kind::Nmos || dev->kind == Kind::Pmos) &&
                    param < 2
                ? tech_.grid * 0.5
                : 0.0;
        if (!(v >= lo - slack && v <= hi + slack)) {
          add("sizing.expert-out-of-bounds",
              "expert " + e.comp + " " + param_key(dev->kind, param) +
                  "=" + fmt_num(v) + " lies outside bounds [" +
                  fmt_num(lo) + ", " + fmt_num(hi) + "]",
              e.line, e.col);
        }
      }
    }
  }

  // --- measurement plan ---------------------------------------------------

  int bench_index(const std::string& name) const {
    for (std::size_t i = 0; i < d_.benches.size(); ++i) {
      if (d_.benches[i].name == name) return static_cast<int>(i);
    }
    return -1;
  }

  // Every run-time input of the plan's expressions: extraction formulas
  // and scales, guards, and the values of added sources.
  template <typename F>
  void for_each_input(F&& f) const {
    const auto visit = [&](const std::optional<Expr>& e) {
      if (!e) return;
      for (const ExprRef& r : e->refs()) f(r);
    };
    for (const ExtractDesc& e : d_.extracts) {
      visit(e.value);
      visit(e.scale);
    }
    for (const GuardDesc& g : d_.guards) {
      for (const ExprRef& r : g.value.refs()) f(r);
      visit(g.min);
      visit(g.max);
    }
    for (const BenchDesc& b : d_.benches) {
      for (const BenchAddDesc& a : b.adds) {
        if (!a.source) continue;
        for (const ExprRef& r : a.source->dc.refs()) f(r);
        for (const ExprRef& r : a.source->ac.refs()) f(r);
      }
    }
  }

  void check_plan() {
    if (d_.metrics.empty()) {
      add("plan.no-metrics",
          "circuit \"" + d_.name + "\" declares no FoM metrics",
          d_.name_line, d_.name_col);
    }
    // Every FoM metric must be measurable, or evaluation could never pass
    // the spec check (a missing metric is a failed design).
    for (const MetricDesc& m : d_.metrics) {
      bool produced = false;
      for (const ExtractDesc& e : d_.extracts) {
        produced = produced || (e.metric == m.name && !e.temp);
      }
      if (!produced) {
        add("plan.metric-unproduced",
            "metric \"" + m.name + "\" has no extract producing it",
            m.line, m.col);
      }
    }
    for (const ExtractDesc& e : d_.extracts) {
      bool consumed = false;
      for (const MetricDesc& m : d_.metrics) {
        consumed = consumed || (m.name == e.metric && !e.temp);
      }
      for_each_input([&](const ExprRef& r) {
        consumed = consumed ||
                   (r.kind == ExprRef::Kind::Metric && r.a == e.metric);
      });
      if (!consumed) {
        add("plan.metric-unconsumed",
            "extract produces \"" + e.metric +
                "\" which no FoM metric or expression consumes",
            e.line, e.col);
      }
    }

    for (const BenchDesc& b : d_.benches) {
      check_bench(b);
    }
    for (const ExtractDesc& e : d_.extracts) {
      check_extract(e);
    }

    // A bench nobody extracts from burns simulations for nothing — unless
    // a later bench warm-starts its DC solve from it or an expression reads
    // its operating point.
    for (const BenchDesc& b : d_.benches) {
      bool used = false;
      for (const ExtractDesc& e : d_.extracts) {
        used = used || e.bench == b.name;
      }
      for (const BenchDesc& other : d_.benches) {
        used = used || (&other != &b && other.warm_from == b.name);
      }
      for_each_input([&](const ExprRef& r) {
        used = used || ((r.kind == ExprRef::Kind::NodeVoltage ||
                         r.kind == ExprRef::Kind::SourceCurrent) &&
                        r.a == b.name);
      });
      if (!used) {
        add("plan.bench-unused",
            "bench \"" + b.name +
                "\" is simulated but nothing extracts from it",
            b.line, b.col);
      }
    }
  }

  void check_bench(const BenchDesc& b) {
    for (const SourceSetDesc& set : b.sets) {
      bool known = false;
      for (const SourceDesc& s : d_.sources) {
        known = known || s.name == set.source;
      }
      if (!known) {
        add("plan.unknown-ref",
            "set in bench \"" + b.name + "\" references unknown source \"" +
                set.source + "\"",
            set.line, set.col);
      }
    }
    if (b.ac) {
      const double fmin = b.ac->fmin.eval(tech_);
      const double fmax = b.ac->fmax.eval(tech_);
      // One point is a spot analysis at fmin == fmax.
      const bool spot = b.ac->npoints == 1 && fmax == fmin;
      if (!std::isfinite(fmin) || !std::isfinite(fmax) || fmin <= 0.0 ||
          (!spot && (fmax <= fmin || b.ac->npoints < 2))) {
        add("plan.ac-sweep",
            "bench \"" + b.name + "\": degenerate ac sweep [" +
                fmt_num(fmin) + ", " + fmt_num(fmax) + "] x " +
                std::to_string(b.ac->npoints) +
                " (needs 0 < fmin < fmax and npoints >= 2, or a spot "
                "point: fmin == fmax and npoints == 1)",
            b.ac->line, b.ac->col);
      }
    }
    if (b.noise) {
      if (b.noise->freqs.empty()) {
        add("plan.noise-freqs",
            "bench \"" + b.name + "\": noise analysis has no frequencies",
            b.noise->line, b.noise->col);
      }
      for (const Expr& f : b.noise->freqs) {
        const double v = f.eval(tech_);
        if (!std::isfinite(v) || v <= 0.0) {
          add("plan.noise-freqs",
              "bench \"" + b.name + "\": noise frequency " + fmt_num(v) +
                  " must be positive and finite",
              b.noise->line, b.noise->col);
        }
      }
      check_plan_net(b.noise->out_p, "noise out=", b.noise->line,
                     b.noise->col);
      check_plan_net(b.noise->out_n, "noise out=", b.noise->line,
                     b.noise->col);
    }
    if (b.tran) {
      const double tstop = b.tran->tstop.eval(tech_);
      const double dt = b.tran->dt.eval(tech_);
      if (!std::isfinite(tstop) || !std::isfinite(dt) || tstop <= 0.0 ||
          dt <= 0.0 || dt > tstop) {
        add("plan.tran-range",
            "bench \"" + b.name + "\": degenerate transient tstop=" +
                fmt_num(tstop) + " dt=" + fmt_num(dt) +
                " (needs 0 < dt <= tstop)",
            b.tran->line, b.tran->col);
      }
    }
    if (!b.warm_from.empty()) {
      const int src = bench_index(b.warm_from);
      const int self = bench_index(b.name);
      if (src < 0 || src >= self) {
        add("plan.unknown-ref",
            "bench \"" + b.name + "\": warm from=\"" + b.warm_from +
                "\" must name an earlier bench",
            b.line, b.col);
      }
    }
  }

  static bool bench_adds_net(const BenchDesc& b, const std::string& name) {
    for (const BenchAddDesc& a : b.adds) {
      if (!name.empty() && a.net == name) return true;
    }
    return false;
  }

  void check_plan_net(const std::string& name, const char* what, int line,
                      int col) {
    if (name.empty()) return;
    if (net_id(name) < 0) {
      add("plan.unknown-ref",
          std::string(what) + " references undeclared net \"" + name + "\"",
          line, col);
    }
  }

  void check_extract(const ExtractDesc& e) {
    if (e.fn == ExtractFn::Expression) return;  // the parser resolved it
    const int bi = bench_index(e.bench);
    if (bi < 0) {
      add("plan.unknown-ref",
          "extract \"" + e.metric + "\" references unknown bench \"" +
              e.bench + "\"",
          e.line, e.col);
      return;
    }
    const BenchDesc& bench = d_.benches[static_cast<std::size_t>(bi)];
    for (const std::string* net :
         {&e.probe_p, &e.probe_n, &e.over_p, &e.over_n}) {
      if (!bench_adds_net(bench, *net)) {
        check_plan_net(*net, "extract probe=", e.line, e.col);
      }
    }

    if (reads_ac(e.fn) && (e.probe_p.empty() || !bench.ac)) {
      add("plan.extract-requires",
          "extract \"" + e.metric + "\" needs probe= and an ac sweep on "
          "bench \"" + bench.name + "\"",
          e.line, e.col);
    }
    if (e.fn == ExtractFn::InputNoise) {
      if (!e.at_freq || !bench.noise) {
        add("plan.extract-requires",
            "extract \"" + e.metric + "\" needs at=FREQ and a noise "
            "analysis on bench \"" + bench.name + "\"",
            e.line, e.col);
      } else {
        // The extraction picks the nearest PSD sample; an at= frequency
        // between samples silently measures somewhere else.
        const double at = e.at_freq->eval(tech_);
        bool on_grid = false;
        for (const Expr& f : bench.noise->freqs) {
          const double v = f.eval(tech_);
          on_grid = on_grid ||
                    (v > 0.0 && at > 0.0 &&
                     std::fabs(std::log(v / at)) < 1e-3);
        }
        if (!on_grid) {
          add("plan.noise-at-off-grid",
              "extract \"" + e.metric + "\": at=" + fmt_num(at) +
                  " is not among bench \"" + bench.name +
                  "\"'s noise frequencies (the nearest sample is used)",
              e.line, e.col);
        }
      }
    }
    if (e.fn == ExtractFn::SettlingTime &&
        (e.probe_p.empty() || !e.win_t0 || !e.win_t1 || !e.edge || !e.tol ||
         !bench.tran)) {
      add("plan.extract-requires",
          "extract \"" + e.metric + "\" needs probe=, window=, edge=, "
          "tol= and a tran analysis on bench \"" + bench.name + "\"",
          e.line, e.col);
    }
  }

  // --- #lint: allow pragmas ----------------------------------------------

  void apply_allows() {
    for (const LintAllowDesc& allow : d_.lint_allows) {
      const CheckInfo* info = find_check(allow.check);
      if (info == nullptr) {
        add("lint.unknown-check",
            "allow names unknown check \"" + allow.check + "\"",
            allow.line, allow.col);
        continue;
      }
      if (info->severity == Severity::Error) {
        add("lint.unused-allow",
            "allow \"" + allow.check +
                "\" has no effect: errors are not suppressible",
            allow.line, allow.col);
        continue;
      }
      bool hit = false;
      for (auto it = diags_.begin(); it != diags_.end();) {
        if (it->severity == Severity::Warning && it->check == allow.check) {
          it = diags_.erase(it);
          hit = true;
        } else {
          ++it;
        }
      }
      if (!hit) {
        add("lint.unused-allow",
            "allow \"" + allow.check + "\" suppressed nothing",
            allow.line, allow.col);
      }
    }
  }

  const CircuitDescription& d_;
  const Technology& tech_;
  std::vector<Diagnostic> diags_;
};

}  // namespace

std::string Diagnostic::format() const {
  std::string out = origin.empty() ? "<unknown>" : origin;
  out += ":" + std::to_string(line) + ":" + std::to_string(col) + ": ";
  out += severity == Severity::Error ? "error: " : "warning: ";
  out += message;
  out += " [" + check + "]";
  return out;
}

const std::vector<CheckInfo>& analyzer_checks() { return check_catalog(); }

std::vector<Diagnostic> analyze_circuit(const CircuitDescription& d,
                                        const Technology& tech) {
  return Analyzer(d, tech).run();
}

bool has_errors(const std::vector<Diagnostic>& diags) {
  for (const Diagnostic& diag : diags) {
    if (diag.severity == Severity::Error) return true;
  }
  return false;
}

std::string format_diagnostics(const std::vector<Diagnostic>& diags) {
  std::string out;
  for (const Diagnostic& diag : diags) {
    out += diag.format();
    out += '\n';
  }
  return out;
}

}  // namespace gcnrl::circuit
