// Minimal strict JSON parser + schema binding for task-spec files. The
// parser covers exactly the JSON subset the schema in spec.hpp needs
// (objects, arrays, strings, integer/double numbers, booleans, null) and
// reports line:column positions; the binding layer rejects unknown keys
// and wrong types loudly, so a typo in a spec file can never be silently
// ignored.
#include "api/spec.hpp"

#include <climits>
#include <cstdio>
#include <stdexcept>
#include <variant>

namespace gcnrl::api {

namespace {

// --- JSON value + parser ---------------------------------------------------

struct JsonValue;
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  // monostate = null. Numbers keep both renderings so integer fields can
  // reject fractional values.
  std::variant<std::monostate, bool, double, std::string, JsonArray,
               JsonObject>
      v;
  bool is_integer = false;  // set for numbers without '.'/exponent
  int line = 0, col = 0;    // position of the value's first character
};

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("spec parse error at " + std::to_string(line_) +
                             ":" + std::to_string(col_) + ": " + what);
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  char get() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      get();
    }
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + peek() + "'");
    }
    get();
  }

  JsonValue value() {
    skip_ws();
    JsonValue out;
    out.line = line_;
    out.col = col_;
    const char c = peek();
    if (c == '{') {
      out.v = object();
    } else if (c == '[') {
      out.v = array();
    } else if (c == '"') {
      out.v = string();
    } else if (c == 't' || c == 'f') {
      out.v = boolean();
    } else if (c == 'n') {
      literal("null");
      out.v = std::monostate{};
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      number(out);
    } else {
      fail(std::string("unexpected character '") + c + "'");
    }
    return out;
  }

  JsonObject object() {
    expect('{');
    JsonObject out;
    skip_ws();
    if (peek() == '}') {
      get();
      return out;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected a quoted object key");
      std::string key = string();
      for (const auto& [k, unused] : out) {
        if (k == key) fail("duplicate key \"" + key + "\"");
      }
      skip_ws();
      expect(':');
      out.emplace_back(std::move(key), value());
      skip_ws();
      const char c = get();
      if (c == '}') return out;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonArray array() {
    expect('[');
    JsonArray out;
    skip_ws();
    if (peek() == ']') {
      get();
      return out;
    }
    while (true) {
      out.push_back(value());
      skip_ws();
      const char c = get();
      if (c == ']') return out;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = get();
      if (c == '"') return out;
      if (c == '\\') {
        const char e = get();
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          default:
            fail(std::string("unsupported escape '\\") + e + "'");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      } else {
        out += c;
      }
    }
  }

  bool boolean() {
    if (peek() == 't') {
      literal("true");
      return true;
    }
    literal("false");
    return false;
  }

  void literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (get() != *p) fail(std::string("expected '") + word + "'");
    }
  }

  void number(JsonValue& out) {
    std::string tok;
    bool integer = true;
    if (peek() == '-') tok += get();
    while (peek() >= '0' && peek() <= '9') tok += get();
    if (peek() == '.') {
      integer = false;
      tok += get();
      while (peek() >= '0' && peek() <= '9') tok += get();
    }
    if (peek() == 'e' || peek() == 'E') {
      integer = false;
      tok += get();
      if (peek() == '+' || peek() == '-') tok += get();
      while (peek() >= '0' && peek() <= '9') tok += get();
    }
    try {
      out.v = std::stod(tok);
    } catch (const std::exception&) {
      fail("malformed number \"" + tok + "\"");
    }
    out.is_integer = integer;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int line_ = 1, col_ = 1;
};

// --- schema binding --------------------------------------------------------

[[noreturn]] void schema_fail(const JsonValue& v, const std::string& what) {
  throw std::runtime_error("spec schema error at " + std::to_string(v.line) +
                           ":" + std::to_string(v.col) + ": " + what);
}

const JsonObject& as_object(const JsonValue& v, const std::string& what) {
  if (const auto* o = std::get_if<JsonObject>(&v.v)) return *o;
  schema_fail(v, what + " must be an object");
}

std::string as_string(const JsonValue& v, const std::string& key) {
  if (const auto* s = std::get_if<std::string>(&v.v)) return *s;
  schema_fail(v, "\"" + key + "\" must be a string");
}

long as_integer(const JsonValue& v, const std::string& key) {
  const auto* d = std::get_if<double>(&v.v);
  if (d == nullptr || !v.is_integer) {
    schema_fail(v, "\"" + key + "\" must be an integer");
  }
  // Stay within the doubles that represent integers exactly (2^53), so the
  // cast below can neither lose precision nor hit UB.
  if (*d < -9007199254740992.0 || *d > 9007199254740992.0) {
    schema_fail(v, "\"" + key + "\" is out of range");
  }
  return static_cast<long>(*d);
}

int as_int(const JsonValue& v, const std::string& key) {
  const long l = as_integer(v, key);
  if (l < INT_MIN || l > INT_MAX) {
    schema_fail(v, "\"" + key + "\" is out of int range");
  }
  return static_cast<int>(l);
}

env::IndexMode as_mode(const JsonValue& v, const std::string& key) {
  const std::string mode = as_string(v, key);
  if (mode == "one_hot") return env::IndexMode::OneHot;
  if (mode == "scalar") return env::IndexMode::Scalar;
  schema_fail(v, "\"" + key + "\" must be \"one_hot\" or \"scalar\"");
}

FomOverride bind_fom(const JsonValue& v) {
  FomOverride out;
  for (const auto& [key, val] : as_object(v, "\"fom\"")) {
    if (key == "enforce_spec") {
      const auto* b = std::get_if<bool>(&val.v);
      if (b == nullptr) schema_fail(val, "\"enforce_spec\" must be a boolean");
      out.enforce_spec = *b;
    } else if (key == "weights") {
      for (const auto& [metric, w] : as_object(val, "\"weights\"")) {
        const auto* d = std::get_if<double>(&w.v);
        if (d == nullptr) {
          schema_fail(w, "weight \"" + metric + "\" must be a number");
        }
        out.weights[metric] = *d;
      }
    } else {
      schema_fail(val, "unknown fom key \"" + key +
                           "\" (known: enforce_spec, weights)");
    }
  }
  return out;
}

TaskSpec bind_task(const JsonValue& v, std::size_t index) {
  const JsonObject& obj =
      as_object(v, "tasks[" + std::to_string(index) + "]");
  TaskSpec t;
  bool have_circuit = false, have_method = false;
  for (const auto& [key, val] : obj) {
    if (key == "circuit") {
      t.circuit = as_string(val, key);
      have_circuit = true;
    } else if (key == "circuit_file") {
      t.circuit_file = as_string(val, key);
      have_circuit = true;
    } else if (key == "method") {
      t.method = as_string(val, key);
      have_method = true;
    } else if (key == "node") {
      t.node = as_string(val, key);
    } else if (key == "steps") {
      t.steps = as_int(val, key);
    } else if (key == "warmup") {
      t.warmup = as_int(val, key);
    } else if (key == "seeds") {
      t.seeds = as_int(val, key);
    } else if (key == "sim_budget") {
      t.sim_budget = as_integer(val, key);
    } else if (key == "label") {
      t.label = as_string(val, key);
    } else if (key == "pretrain_from") {
      t.pretrain_from = as_string(val, key);
    } else if (key == "load_checkpoint") {
      t.load_checkpoint = as_string(val, key);
    } else if (key == "save_checkpoint") {
      t.save_checkpoint = as_string(val, key);
    } else if (key == "mode") {
      t.index_mode = as_mode(val, key);
    } else if (key == "calib_group") {
      t.calib_group = as_string(val, key);
    } else if (key == "seed_base") {
      const long base = as_integer(val, key);
      if (base < 0) schema_fail(val, "\"seed_base\" must be non-negative");
      t.seed_base = static_cast<std::uint64_t>(base);
    } else if (key == "seed_stride") {
      const long stride = as_integer(val, key);
      if (stride < 0) schema_fail(val, "\"seed_stride\" must be non-negative");
      t.seed_stride = static_cast<std::uint64_t>(stride);
    } else if (key == "fom") {
      t.fom = bind_fom(val);
    } else {
      schema_fail(val, "unknown task key \"" + key +
                           "\" (known: circuit, circuit_file, method, node, "
                           "steps, warmup, seeds, sim_budget, label, "
                           "pretrain_from, load_checkpoint, "
                           "save_checkpoint, mode, calib_group, seed_base, "
                           "seed_stride, fom)");
    }
  }
  if (!have_circuit) {
    schema_fail(v,
                "task is missing required key \"circuit\" (or "
                "\"circuit_file\")");
  }
  if (!have_method) schema_fail(v, "task is missing required key \"method\"");
  return t;
}

RunOptions bind_options(const JsonValue& v) {
  const JsonObject& obj = as_object(v, "\"options\"");
  RunOptions opts;
  for (const auto& [key, val] : obj) {
    if (key == "calib") {
      opts.calib_samples = as_int(val, key);
    } else if (key == "calib_seed") {
      const long seed = as_integer(val, key);
      if (seed < 0) schema_fail(val, "\"calib_seed\" must be non-negative");
      opts.calib_seed = static_cast<std::uint64_t>(seed);
    } else if (key == "mode") {
      opts.mode = as_mode(val, key);
    } else {
      schema_fail(val, "unknown options key \"" + key +
                           "\" (known: calib, calib_seed, mode)");
    }
  }
  return opts;
}

}  // namespace

TaskFile parse_task_spec(const std::string& text) {
  const JsonValue root = Parser(text).parse();
  const JsonObject& obj = as_object(root, "spec file");
  TaskFile out;
  bool have_tasks = false;
  for (const auto& [key, val] : obj) {
    if (key == "options") {
      out.options = bind_options(val);
    } else if (key == "tasks") {
      const auto* arr = std::get_if<JsonArray>(&val.v);
      if (arr == nullptr) schema_fail(val, "\"tasks\" must be an array");
      for (std::size_t i = 0; i < arr->size(); ++i) {
        out.tasks.push_back(bind_task((*arr)[i], i));
      }
      have_tasks = true;
    } else {
      schema_fail(val, "unknown top-level key \"" + key +
                           "\" (known: options, tasks)");
    }
  }
  if (!have_tasks || out.tasks.empty()) {
    throw std::runtime_error(
        "spec schema error: spec file needs a non-empty \"tasks\" array");
  }
  return out;
}

TaskFile load_task_spec(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("load_task_spec: cannot read \"" + path + "\"");
  }
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  TaskFile out = parse_task_spec(text);
  // Relative circuit_file paths are spec-relative, so a spec and its .gcir
  // files travel together regardless of the CLI's working directory.
  const std::size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) {
    const std::string dir = path.substr(0, slash + 1);
    for (TaskSpec& t : out.tasks) {
      if (!t.circuit_file.empty() && t.circuit_file.front() != '/') {
        t.circuit_file = dir + t.circuit_file;
      }
    }
  }
  return out;
}

}  // namespace gcnrl::api
