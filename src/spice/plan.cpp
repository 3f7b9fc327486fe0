#include "icvbe/spice/plan.hpp"

#include <algorithm>
#include <cmath>
#include <cctype>
#include <cstdlib>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

#include "icvbe/common/constants.hpp"
#include "icvbe/common/csv.hpp"
#include "icvbe/common/thread_pool.hpp"
#include "icvbe/spice/netlist.hpp"
#include "icvbe/spice/transient.hpp"
#include "rows.hpp"

namespace icvbe::spice {

// --------------------------------------------------------------- Probe ---

Probe Probe::constant(double value) {
  Probe p;
  p.kind_ = Kind::kConstant;
  p.value_ = value;
  return p;
}

Probe Probe::node_voltage(std::string node, std::string node2) {
  Probe p;
  p.kind_ = Kind::kNodeVoltage;
  p.target_ = std::move(node);
  p.target2_ = std::move(node2);
  return p;
}

Probe Probe::branch_current(std::string device) {
  Probe p;
  p.kind_ = Kind::kBranchCurrent;
  p.target_ = std::move(device);
  return p;
}

Probe Probe::bjt_current(std::string device, BjtTerminal terminal) {
  Probe p;
  p.kind_ = Kind::kBjtCurrent;
  p.target_ = std::move(device);
  p.terminal_ = terminal;
  return p;
}

Probe Probe::ac_voltage(AcQuantity quantity, std::string node,
                        std::string node2) {
  Probe p;
  p.kind_ = Kind::kAcVoltage;
  p.quantity_ = quantity;
  p.target_ = std::move(node);
  p.target2_ = std::move(node2);
  return p;
}

Probe Probe::expression(Op op, Probe lhs, Probe rhs) {
  Probe p;
  p.kind_ = Kind::kExpression;
  p.op_ = op;
  p.children_.reserve(2);
  p.children_.push_back(std::move(lhs));
  p.children_.push_back(std::move(rhs));
  return p;
}

namespace {

/// The device and terminal a current leaf reads: I(dev) is terminal 0 of
/// any device whose terminals are not probed by name (every device but a
/// BJT); IC/IB/IE/ISUB(q) are terminals 0-3 of a BJT.
struct CurrentLeaf {
  const Device* dev = nullptr;
  int terminal = 0;
};

CurrentLeaf resolve_current(const Probe& p, const Circuit& circuit) {
  const std::string& name = p.target();
  const bool branch = p.kind() == Probe::Kind::kBranchCurrent;
  const Device* d = circuit.find(name);
  if (d == nullptr) {
    throw CircuitError(branch ? "I(" + name + "): no device with that name"
                              : "no device named '" + name + "'");
  }
  if (d->named_terminals() == branch) {
    throw CircuitError(branch ? "I(" + name +
                                    "): device has no branch current (use "
                                    "IC/IB/IE for BJTs)"
                              : "device '" + name + "' has unexpected type");
  }
  return {d, branch ? 0 : static_cast<int>(p.terminal())};
}

const char* bjt_terminal_name(Probe::BjtTerminal t) {
  switch (t) {
    case Probe::BjtTerminal::kCollector: return "IC";
    case Probe::BjtTerminal::kBase: return "IB";
    case Probe::BjtTerminal::kEmitter: return "IE";
    case Probe::BjtTerminal::kSubstrate: return "ISUB";
  }
  return "IC";  // unreachable
}

const char* ac_quantity_name(Probe::AcQuantity q) {
  switch (q) {
    case Probe::AcQuantity::kMagnitude: return "VM";
    case Probe::AcQuantity::kDb: return "VDB";
    case Probe::AcQuantity::kPhaseDeg: return "VP";
    case Probe::AcQuantity::kReal: return "VR";
    case Probe::AcQuantity::kImag: return "VI";
  }
  return "VM";  // unreachable
}

/// Scalarise a node phasor for one AC probe quantity.
double ac_quantity_value(Probe::AcQuantity q, const linalg::Complex& v) {
  switch (q) {
    case Probe::AcQuantity::kMagnitude: return std::abs(v);
    case Probe::AcQuantity::kDb: return 20.0 * std::log10(std::abs(v));
    case Probe::AcQuantity::kPhaseDeg: return std::arg(v) * 180.0 / M_PI;
    case Probe::AcQuantity::kReal: return v.real();
    case Probe::AcQuantity::kImag: return v.imag();
  }
  return 0.0;  // unreachable
}

char op_char(Probe::Op op) {
  switch (op) {
    case Probe::Op::kAdd: return '+';
    case Probe::Op::kSub: return '-';
    case Probe::Op::kMul: return '*';
    case Probe::Op::kDiv: return '/';
  }
  return '+';  // unreachable
}

/// Shortest decimal text that strtod parses back to exactly `v`.
std::string format_double_roundtrip(double v) {
  for (int precision = 6; precision <= 17; ++precision) {
    std::ostringstream os;
    os.precision(precision);
    os << v;
    const std::string s = os.str();
    if (std::strtod(s.c_str(), nullptr) == v) return s;
  }
  return std::to_string(v);
}

}  // namespace

double Probe::eval(const Circuit& circuit, const Unknowns& x) const {
  switch (kind_) {
    case Kind::kConstant:
      return value_;
    case Kind::kNodeVoltage: {
      const NodeId n = circuit.find_node(target_);
      if (n < 0) {
        throw CircuitError("V(" + target_ + "): no node with that name");
      }
      if (target2_.empty()) return x.node_voltage(n);
      const NodeId n2 = circuit.find_node(target2_);
      if (n2 < 0) {
        throw CircuitError("V(" + target_ + "," + target2_ +
                           "): no node named '" + target2_ + "'");
      }
      return x.node_voltage(n) - x.node_voltage(n2);
    }
    case Kind::kBranchCurrent:
    case Kind::kBjtCurrent: {
      const CurrentLeaf leaf = resolve_current(*this, circuit);
      return leaf.dev->terminals(x).pin[leaf.terminal].amps;
    }
    case Kind::kAcVoltage:
      throw PlanError(to_string() +
                      ": AC probes have no value at a DC operating point "
                      "(run them through an .AC analysis)");
    case Kind::kExpression: {
      const double a = lhs().eval(circuit, x);
      const double b = rhs().eval(circuit, x);
      switch (op_) {
        case Op::kAdd: return a + b;
        case Op::kSub: return a - b;
        case Op::kMul: return a * b;
        case Op::kDiv: return a / b;
      }
      return 0.0;  // unreachable
    }
  }
  return 0.0;  // unreachable
}

std::string Probe::to_string() const {
  switch (kind_) {
    case Kind::kConstant:
      return format_double_roundtrip(value_);
    case Kind::kNodeVoltage:
      return "V(" + target_ + (target2_.empty() ? "" : "," + target2_) + ")";
    case Kind::kBranchCurrent:
      return "I(" + target_ + ")";
    case Kind::kBjtCurrent:
      return std::string(bjt_terminal_name(terminal_)) + "(" + target_ + ")";
    case Kind::kAcVoltage:
      return std::string(ac_quantity_name(quantity_)) + "(" + target_ +
             (target2_.empty() ? "" : "," + target2_) + ")";
    case Kind::kExpression:
      return '(' + lhs().to_string() + op_char(op_) + rhs().to_string() + ')';
  }
  return "0";  // unreachable
}

// -------------------------------------------------------- probe parser ---

namespace {

/// Recursive-descent parser over the probe grammar.
class ProbeParser {
 public:
  explicit ProbeParser(std::string_view text) : text_(text) {}

  Probe parse() {
    Probe p = expr();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("unexpected trailing text '" + std::string(text_.substr(pos_)) +
           "'");
    }
    return p;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw PlanError("parse_probe: " + msg + " in '" + std::string(text_) +
                    "'");
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool consume(char c) {
    if (peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Probe expr() {
    Probe p = term();
    for (;;) {
      if (consume('+')) {
        p = Probe::expression(Probe::Op::kAdd, std::move(p), term());
      } else if (consume('-')) {
        p = Probe::expression(Probe::Op::kSub, std::move(p), term());
      } else {
        return p;
      }
    }
  }

  Probe term() {
    Probe p = factor();
    for (;;) {
      if (consume('*')) {
        p = Probe::expression(Probe::Op::kMul, std::move(p), factor());
      } else if (consume('/')) {
        p = Probe::expression(Probe::Op::kDiv, std::move(p), factor());
      } else {
        return p;
      }
    }
  }

  Probe factor() {
    const char c = peek();
    if (c == '-') {
      ++pos_;
      Probe f = factor();
      if (f.kind() == Probe::Kind::kConstant) {
        return Probe::constant(-f.value());
      }
      return Probe::expression(Probe::Op::kSub, Probe::constant(0.0),
                               std::move(f));
    }
    if (c == '(') {
      ++pos_;
      Probe p = expr();
      if (!consume(')')) fail("expected ')'");
      return p;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') {
      return number();
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      return probe_atom();
    }
    fail("unexpected character");
  }

  Probe number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      const bool exp_sign =
          (c == '+' || c == '-') && pos_ > start &&
          (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E');
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
          exp_sign) {
        ++pos_;
      } else {
        break;
      }
    }
    try {
      return Probe::constant(
          parse_spice_number(text_.substr(start, pos_ - start)));
    } catch (const NetlistError& e) {
      fail(e.what());
    }
  }

  Probe probe_atom() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    std::string ident(text_.substr(start, pos_ - start));
    for (char& ch : ident) {
      ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
    }
    if (!consume('(')) fail("expected '(' after '" + ident + "'");
    std::string name = atom_name();
    if (ident == "V") {
      // V(a,b) stays one typed pair (NOT sugar for V(a)-V(b)): in an .AC
      // analysis the pair reads the differential phasor's magnitude
      // |V(a)-V(b)|, which real subtraction of two magnitudes cannot
      // express.
      std::string second;
      if (consume(',')) second = atom_name();
      if (!consume(')')) fail("expected ')'");
      return Probe::node_voltage(std::move(name), std::move(second));
    }
    // AC phasor probes keep an optional second node *inside* the atom:
    // VDB(a,b) is the dB magnitude of the differential phasor, which does
    // not desugar to real arithmetic the way V(a,b) does.
    const auto ac_quantity =
        [&]() -> std::optional<Probe::AcQuantity> {
      if (ident == "VM") return Probe::AcQuantity::kMagnitude;
      if (ident == "VDB") return Probe::AcQuantity::kDb;
      if (ident == "VP") return Probe::AcQuantity::kPhaseDeg;
      if (ident == "VR") return Probe::AcQuantity::kReal;
      if (ident == "VI") return Probe::AcQuantity::kImag;
      return std::nullopt;
    }();
    if (ac_quantity.has_value()) {
      std::string second;
      if (consume(',')) second = atom_name();
      if (!consume(')')) fail("expected ')'");
      return Probe::ac_voltage(*ac_quantity, std::move(name),
                               std::move(second));
    }
    if (!consume(')')) fail("expected ')'");
    if (ident == "I") return Probe::branch_current(std::move(name));
    if (ident == "IC") {
      return Probe::bjt_current(std::move(name),
                                Probe::BjtTerminal::kCollector);
    }
    if (ident == "IB") {
      return Probe::bjt_current(std::move(name), Probe::BjtTerminal::kBase);
    }
    if (ident == "IE") {
      return Probe::bjt_current(std::move(name),
                                Probe::BjtTerminal::kEmitter);
    }
    if (ident == "ISUB") {
      return Probe::bjt_current(std::move(name),
                                Probe::BjtTerminal::kSubstrate);
    }
    fail("unknown probe function '" + ident + "'");
  }

  std::string atom_name() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != ')' && text_[pos_] != ',' &&
           !std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a node or device name");
    return std::string(text_.substr(start, pos_ - start));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Probe parse_probe(std::string_view text) { return ProbeParser(text).parse(); }

// ----------------------------------------------------------- SweepGrid ---

namespace {

/// n evenly spaced points over [first, last], n >= 2.
std::vector<double> linspace(double first, double last, int n) {
  std::vector<double> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    out[static_cast<std::size_t>(i)] =
        first + (last - first) * static_cast<double>(i) /
                    static_cast<double>(n - 1);
  }
  return out;
}

/// Logarithmic grid over [first, last] (0 < first < last), the decade span
/// split into ceil(decades * per_decade) equal log steps.
std::vector<double> logspace_decades(double first, double last,
                                     int per_decade) {
  std::vector<double> out;
  const double lf = std::log10(first);
  const double ll = std::log10(last);
  const int steps = static_cast<int>(std::ceil((ll - lf) * per_decade));
  out.reserve(static_cast<std::size_t>(steps + 1));
  for (int i = 0; i <= steps; ++i) {
    out.push_back(std::pow(10.0, lf + (ll - lf) * static_cast<double>(i) /
                                           static_cast<double>(steps)));
  }
  return out;
}

}  // namespace

SweepGrid SweepGrid::linear(double first, double last, int n) {
  if (n < 2) throw PlanError("SweepGrid::linear: need at least two points");
  SweepGrid g;
  g.spacing_ = Spacing::kLinear;
  g.first_ = first;
  g.last_ = last;
  g.n_ = n;
  return g;
}

SweepGrid SweepGrid::log_decades(double first, double last, int per_decade) {
  if (!(first > 0.0 && last > first)) {
    throw PlanError("SweepGrid::log_decades: need 0 < first < last");
  }
  if (per_decade < 1) {
    throw PlanError("SweepGrid::log_decades: need >= 1 point per decade");
  }
  SweepGrid g;
  g.spacing_ = Spacing::kLogDecades;
  g.first_ = first;
  g.last_ = last;
  g.n_ = per_decade;
  return g;
}

SweepGrid SweepGrid::list(std::vector<double> values) {
  if (values.empty()) throw PlanError("SweepGrid::list: need >= 1 point");
  SweepGrid g;
  g.spacing_ = Spacing::kList;
  g.values_ = std::move(values);
  return g;
}

std::size_t SweepGrid::size() const {
  switch (spacing_) {
    case Spacing::kLinear:
      return static_cast<std::size_t>(n_);
    case Spacing::kLogDecades:
      return points().size();
    case Spacing::kList:
      return values_.size();
  }
  return 0;  // unreachable
}

std::vector<double> SweepGrid::points() const {
  switch (spacing_) {
    case Spacing::kLinear:
      return linspace(first_, last_, n_);
    case Spacing::kLogDecades:
      return logspace_decades(first_, last_, n_);
    case Spacing::kList:
      return values_;
  }
  return {};  // unreachable
}

// --------------------------------------------------------------- AcSpec ---

std::vector<double> AcSpec::frequencies() const {
  if (points < 1) throw PlanError("AcSpec: need at least one point");
  // f = 0 is the DC operating point, not an AC point: a zero (or
  // negative) frequency in any grid shape is a spec error, same as SPICE.
  if (!(fstart > 0.0)) throw PlanError("AcSpec: need fstart > 0");
  if (!(fstop >= fstart)) throw PlanError("AcSpec: need fstop >= fstart");
  switch (spacing) {
    case Spacing::kLinear: {
      if (points == 1 || fstop == fstart) return {fstart};
      return linspace(fstart, fstop, points);
    }
    case Spacing::kDecade:
    case Spacing::kOctave: {
      // f_k = fstart * base^(k / points) up to fstop, endpoint included
      // within one part in 1e9 (the SPICE DEC/OCT stepping rule).
      const double base = spacing == Spacing::kDecade ? 10.0 : 2.0;
      const double step =
          std::pow(base, 1.0 / static_cast<double>(points));
      std::vector<double> out;
      double f = fstart;
      while (f <= fstop * (1.0 + 1e-9)) {
        out.push_back(std::min(f, fstop));
        f *= step;
      }
      if (out.empty()) out.push_back(fstart);
      return out;
    }
  }
  return {};  // unreachable
}

// ----------------------------------------------------------- SweepAxis ---

SweepAxis SweepAxis::vsource(std::string device, SweepGrid grid) {
  return {{Kind::kVsource, std::move(device)}, std::move(grid)};
}

SweepAxis SweepAxis::isource(std::string device, SweepGrid grid) {
  return {{Kind::kIsource, std::move(device)}, std::move(grid)};
}

SweepAxis SweepAxis::temperature_kelvin(SweepGrid grid) {
  return {{Kind::kTemperature, {}, false}, std::move(grid)};
}

SweepAxis SweepAxis::temperature_celsius(SweepGrid grid) {
  return {{Kind::kTemperature, {}, true}, std::move(grid)};
}

SweepAxis SweepAxis::resistor(std::string device, SweepGrid grid) {
  return {{Kind::kResistor, std::move(device)}, std::move(grid)};
}

std::string SweepAxis::label() const {
  if (kind() == Kind::kTemperature) return celsius() ? "TEMP" : "TEMP_K";
  return device();
}

// --------------------------------------------------------- SweepResult ---

double SweepResult::axis_value(std::size_t axis, std::size_t row) const {
  ICVBE_REQUIRE(row < rows_, "SweepResult::axis_value: row out of range");
  if (outer_.empty()) {
    ICVBE_REQUIRE(axis == 0, "SweepResult::axis_value: 1-axis result");
    return inner_[row];
  }
  ICVBE_REQUIRE(axis < 2, "SweepResult::axis_value: axis out of range");
  const std::size_t inner_n = inner_.size();
  return axis == 0 ? outer_[row / inner_n] : inner_[row % inner_n];
}

Series SweepResult::series(std::size_t probe) const {
  ICVBE_REQUIRE(outer_.empty(),
                "SweepResult::series: 2-axis result, use series_family()");
  Series s(probe_labels_.at(probe));
  s.reserve(rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    s.push_back(inner_[i], value(probe, i));
  }
  return s;
}

std::vector<Series> SweepResult::series_family(std::size_t probe) const {
  ICVBE_REQUIRE(!outer_.empty(),
                "SweepResult::series_family: 1-axis result, use series()");
  std::vector<Series> out;
  out.reserve(outer_.size());
  const std::size_t inner_n = inner_.size();
  for (std::size_t o = 0; o < outer_.size(); ++o) {
    Series s(probe_labels_.at(probe) + " @ " + axis_labels_.at(0) + "=" +
             format_sig(outer_[o], 6));
    s.reserve(inner_n);
    for (std::size_t i = 0; i < inner_n; ++i) {
      s.push_back(inner_[i], value(probe, o * inner_n + i));
    }
    out.push_back(std::move(s));
  }
  return out;
}

Table SweepResult::table() const {
  std::vector<std::string> header = axis_labels_;
  header.insert(header.end(), probe_labels_.begin(), probe_labels_.end());
  Table t(header);
  const std::size_t n_axes = axis_count();
  for (std::size_t r = 0; r < rows_; ++r) {
    std::vector<std::string> row;
    row.reserve(header.size());
    for (std::size_t a = 0; a < n_axes; ++a) {
      row.push_back(format_sig(axis_value(a, r), 6));
    }
    for (std::size_t p = 0; p < probe_count(); ++p) {
      row.push_back(format_sig(value(p, r), 6));
    }
    t.add_row(std::move(row));
  }
  return t;
}

void SweepResult::write_csv(std::ostream& os) const {
  std::vector<std::string> header = axis_labels_;
  header.insert(header.end(), probe_labels_.begin(), probe_labels_.end());
  // Expand the axis grids and the row-major values into per-row columns,
  // then defer to the shared writer.
  const std::size_t n_axes = axis_count();
  std::vector<std::vector<double>> cols(n_axes + probe_count(),
                                        std::vector<double>(rows_));
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t a = 0; a < n_axes; ++a) cols[a][r] = axis_value(a, r);
    for (std::size_t p = 0; p < probe_count(); ++p) {
      cols[n_axes + p][r] = value(p, r);
    }
  }
  std::vector<const std::vector<double>*> ptrs;
  ptrs.reserve(cols.size());
  for (const auto& c : cols) ptrs.push_back(&c);
  csv::write_columns(os, header, ptrs);
}

// ----------------------------------------------------- plan execution ---

namespace {

/// One postfix instruction of a compiled probe.
struct ProbeInstr {
  enum class Code {
    kConst,
    kNode,
    kCurrent,  ///< terminal `terminal` of `dev`
    kAcNode,  ///< AC domain: scalarised (differential) node phasor
    kAdd,
    kSub,
    kMul,
    kDiv,
  };

  Code code = Code::kConst;
  double value = 0.0;
  NodeId node = kGround;
  /// kNode / kAcNode differential reference (0 = ground / single-ended).
  NodeId node2 = kGround;
  const Device* dev = nullptr;
  int terminal = 0;
  Probe::AcQuantity quantity = Probe::AcQuantity::kMagnitude;
};

/// A probe compiled against one circuit: a postfix program plus the stack
/// depth it needs. Evaluation is allocation- and lookup-free.
struct CompiledProbe {
  std::vector<ProbeInstr> program;
  std::size_t max_depth = 0;
};

/// Node lookup shared by the DC and AC leaf compilers.
NodeId resolve_node(const Circuit& circuit, const std::string& name,
                    const char* what) {
  const NodeId n = circuit.find_node(name);
  if (n < 0) {
    throw CircuitError(std::string(what) + "(" + name +
                       "): no node with that name");
  }
  return n;
}

void compile_into(const Probe& p, const Circuit& circuit, ProbeDomain domain,
                  std::vector<ProbeInstr>& out, std::size_t& depth,
                  std::size_t& max_depth) {
  switch (p.kind()) {
    case Probe::Kind::kConstant: {
      ProbeInstr i;
      i.code = ProbeInstr::Code::kConst;
      i.value = p.value();
      out.push_back(i);
      max_depth = std::max(max_depth, ++depth);
      return;
    }
    case Probe::Kind::kNodeVoltage: {
      ProbeInstr i;
      i.node = resolve_node(circuit, p.target(), "V");
      i.node2 = p.target2().empty()
                    ? kGround
                    : resolve_node(circuit, p.target2(), "V");
      if (domain == ProbeDomain::kAc) {
        // A bare V(node) in an AC analysis reads the phasor magnitude
        // (the SPICE .PRINT AC convention); V(a,b) the differential
        // phasor's magnitude |V(a)-V(b)|.
        i.code = ProbeInstr::Code::kAcNode;
        i.quantity = Probe::AcQuantity::kMagnitude;
      } else {
        i.code = ProbeInstr::Code::kNode;
      }
      out.push_back(i);
      max_depth = std::max(max_depth, ++depth);
      return;
    }
    case Probe::Kind::kBranchCurrent:
      if (domain == ProbeDomain::kAc) {
        throw PlanError("I(" + p.target() +
                        "): branch-current probes are not available in an "
                        ".AC analysis (probe V/VM/VDB/VP quantities)");
      }
      [[fallthrough]];
    case Probe::Kind::kBjtCurrent: {
      if (domain == ProbeDomain::kAc) {
        throw PlanError(std::string(bjt_terminal_name(p.terminal())) + "(" +
                        p.target() +
                        "): BJT terminal probes are not available in an "
                        ".AC analysis");
      }
      const CurrentLeaf leaf = resolve_current(p, circuit);
      ProbeInstr i;
      i.code = ProbeInstr::Code::kCurrent;
      i.dev = leaf.dev;
      i.terminal = leaf.terminal;
      out.push_back(i);
      max_depth = std::max(max_depth, ++depth);
      return;
    }
    case Probe::Kind::kAcVoltage: {
      if (domain != ProbeDomain::kAc) {
        throw PlanError(p.to_string() +
                        ": AC probes have no value at a DC operating point "
                        "(run them through an .AC analysis)");
      }
      ProbeInstr i;
      i.code = ProbeInstr::Code::kAcNode;
      i.quantity = p.ac_quantity();
      i.node = resolve_node(circuit, p.target(),
                            ac_quantity_name(p.ac_quantity()));
      i.node2 = p.target2().empty()
                    ? kGround
                    : resolve_node(circuit, p.target2(),
                                   ac_quantity_name(p.ac_quantity()));
      out.push_back(i);
      max_depth = std::max(max_depth, ++depth);
      return;
    }
    case Probe::Kind::kExpression: {
      compile_into(p.lhs(), circuit, domain, out, depth, max_depth);
      compile_into(p.rhs(), circuit, domain, out, depth, max_depth);
      ProbeInstr i;
      switch (p.op()) {
        case Probe::Op::kAdd: i.code = ProbeInstr::Code::kAdd; break;
        case Probe::Op::kSub: i.code = ProbeInstr::Code::kSub; break;
        case Probe::Op::kMul: i.code = ProbeInstr::Code::kMul; break;
        case Probe::Op::kDiv: i.code = ProbeInstr::Code::kDiv; break;
      }
      out.push_back(i);
      --depth;
      return;
    }
  }
}

CompiledProbe compile_probe(const Probe& p, const Circuit& circuit,
                            ProbeDomain domain) {
  CompiledProbe c;
  std::size_t depth = 0;
  compile_into(p, circuit, domain, c.program, depth, c.max_depth);
  return c;
}

/// Phasor of unknown index (node - 1); ground reads 0.
linalg::Complex ac_node_phasor(const linalg::ComplexVector& x, NodeId n) {
  return n == kGround ? linalg::Complex{}
                      : x[static_cast<std::size_t>(n - 1)];
}

/// The ONE postfix interpreter both evaluation domains share: constants
/// and the four operators are common; every other opcode is a leaf handed
/// to `leaf(instr)` (the compile-time domain check guarantees only that
/// domain's leaves appear in the program).
template <typename LeafFn>
double run_probe_program(const CompiledProbe& probe,
                         std::vector<double>& stack, LeafFn&& leaf) {
  std::size_t sp = 0;
  for (const ProbeInstr& i : probe.program) {
    switch (i.code) {
      case ProbeInstr::Code::kConst:
        stack[sp++] = i.value;
        break;
      case ProbeInstr::Code::kAdd:
        --sp;
        stack[sp - 1] += stack[sp];
        break;
      case ProbeInstr::Code::kSub:
        --sp;
        stack[sp - 1] -= stack[sp];
        break;
      case ProbeInstr::Code::kMul:
        --sp;
        stack[sp - 1] *= stack[sp];
        break;
      case ProbeInstr::Code::kDiv:
        --sp;
        stack[sp - 1] /= stack[sp];
        break;
      default:
        stack[sp++] = leaf(i);
        break;
    }
  }
  return stack[0];
}

double eval_compiled(const CompiledProbe& probe, const Unknowns& x,
                     std::vector<double>& stack) {
  return run_probe_program(probe, stack, [&x](const ProbeInstr& i) {
    switch (i.code) {
      case ProbeInstr::Code::kNode:
        return x.node_voltage(i.node) - x.node_voltage(i.node2);
      case ProbeInstr::Code::kCurrent:
        return i.dev->terminals(x).pin[i.terminal].amps;
      default:
        // kAcNode is unreachable: kDc compilation rejects AC leaves.
        return 0.0;
    }
  });
}

/// AC-domain twin of eval_compiled: leaves read (differential) node
/// phasors out of the complex solution and scalarise them; arithmetic is
/// real as usual.
double eval_compiled_ac(const CompiledProbe& probe,
                        const linalg::ComplexVector& x,
                        std::vector<double>& stack) {
  return run_probe_program(probe, stack, [&x](const ProbeInstr& i) {
    // kAcNode is the only leaf a kAc compilation emits.
    return ac_quantity_value(
        i.quantity, ac_node_phasor(x, i.node) - ac_node_phasor(x, i.node2));
  });
}

/// Everything one executor needs to run rows of a sweep plan.
struct BoundPlan {
  BoundParam outer;  ///< 1-axis plans: the inner axis again, unused
  BoundParam inner;
  CompiledProbeSet probes;

  BoundPlan(const AnalysisPlan& plan, Circuit& circuit)
      : outer(plan.axes.front().param(), circuit),
        inner(plan.axes.back().param(), circuit),
        probes(plan.probes, circuit) {}
};

/// Sweep the inner axis once, filling outer row `o` of the grid (row 0
/// of a 1-axis plan). Allocation-free per point on the happy path.
///
/// If a point fails to converge and the run carries a seed (the warm
/// start live when run() was called, e.g. .NODESET hints or an analytic
/// startup guess), the point is retried once from that seed with device
/// state reset -- the plan-level equivalent of solve_warm_or's fallback.
/// Sparse grids can put adjacent points hundreds of kelvin apart, where
/// pure continuation slides into the wrong basin; the retry is
/// deterministic, so thread-count invariance is preserved.
void run_inner_sweep(SimSession& session, BoundPlan& bound,
                     const AnalysisPlan& plan, SweepResult::RowSink& sink,
                     std::size_t o, const Unknowns* seed) {
  const std::vector<double>& inner = sink.inner();
  for (std::size_t j = 0; j < inner.size(); ++j) {
    bound.inner.apply(inner[j]);
    const DcResult* r = &session.solve();
    if (!r->converged && seed != nullptr) {
      session.begin_variant();
      session.seed_warm_start(*seed);
      bound.inner.apply(inner[j]);
      r = &session.solve();
    }
    if (!r->converged) {
      throw NumericalError(plan.name + ": DC solve failed at " +
                           plan.axes.back().label() + "=" +
                           format_sig(inner[j], 6));
    }
    sink.put(o * inner.size() + j, [&](std::size_t p) {
      return bound.probes.eval(p, r->solution);
    });
  }
}

/// The start of outer row `o` on `session`, the one definition all rows
/// use: devices reset, the warm start re-seeded from `seed` (or cold), the
/// outer value applied. The sparse analysis is first pinned at the
/// reference state, row 0's first point, whenever one ran since the last
/// row start (`pinned` holds analysis_count() after it; -1 before the
/// first row): the growth guard re-analyses inside a row, so unpinned, a
/// row would inherit pivots from the session's earlier rows.
void start_row(SimSession& session, BoundPlan& bound, const Unknowns* seed,
               const SweepResult::RowSink& sink, std::size_t o, int& pinned) {
  const std::vector<double>& outer = sink.outer();
  const auto reset = [&](std::size_t row) {
    session.begin_variant();
    if (seed != nullptr) session.seed_warm_start(*seed);
    bound.outer.apply(outer[row]);
  };
  if (session.sparse_lu().analysis_count() != pinned) {
    reset(0);
    bound.inner.apply(sink.inner().front());
    session.prime();
  }
  reset(o);
  pinned = session.sparse_lu().analysis_count();
}

/// One worker of a 2-axis run: its session -- the parent itself when the
/// run has a single worker, else a private clone of its circuit under the
/// same NewtonOptions -- the plan bound to that session's circuit, and the
/// analysis count start_row last pinned.
struct RowWorker {
  std::optional<Circuit> clone;
  std::optional<SimSession> own;
  SimSession* session;
  BoundPlan bound;
  int pinned = -1;  ///< see start_row

  RowWorker(SimSession& parent, const NewtonOptions& options,
            unsigned workers, const AnalysisPlan& plan)
      : session(workers > 1
                    ? &own.emplace(clone.emplace(parent.circuit().clone()),
                                   options)
                    : &parent),
        bound(plan, session->circuit()) {}
};

}  // namespace

bool probe_supported_in(const Probe& probe, ProbeDomain domain) noexcept {
  switch (probe.kind()) {
    case Probe::Kind::kConstant:
    case Probe::Kind::kNodeVoltage:
      return true;
    case Probe::Kind::kBranchCurrent:
    case Probe::Kind::kBjtCurrent:
      return domain == ProbeDomain::kDc;
    case Probe::Kind::kAcVoltage:
      return domain == ProbeDomain::kAc;
    case Probe::Kind::kExpression:
      return probe_supported_in(probe.lhs(), domain) &&
             probe_supported_in(probe.rhs(), domain);
  }
  return false;  // unreachable
}

// ------------------------------------------------------- AnalysisKind ---

AnalysisKind analysis_kind(const AnalysisPlan& plan) {
  if (plan.transient.has_value()) return AnalysisKind::kTransient;
  if (plan.ac.has_value()) return AnalysisKind::kAc;
  return AnalysisKind::kDcSweep;
}

const char* to_token(AnalysisKind kind) {
  switch (kind) {
    case AnalysisKind::kDcSweep: return "DC";
    case AnalysisKind::kTransient: return "TRAN";
    case AnalysisKind::kAc: return "AC";
  }
  return "DC";  // unreachable
}

AnalysisKind analysis_kind_from_token(std::string_view token) {
  std::string upper(token);
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  if (upper == "DC") return AnalysisKind::kDcSweep;
  if (upper == "TRAN") return AnalysisKind::kTransient;
  if (upper == "AC") return AnalysisKind::kAc;
  throw PlanError("unknown analysis '" + std::string(token) +
                  "' (expected DC, TRAN, or AC)");
}

// ----------------------------------------------------- CompiledProbeSet ---

struct CompiledProbeSet::Impl {
  std::vector<CompiledProbe> probes;
  mutable std::vector<double> stack;  ///< shared evaluation stack
};

CompiledProbeSet::CompiledProbeSet(const std::vector<Probe>& probes,
                                   const Circuit& circuit, ProbeDomain domain)
    : impl_(std::make_unique<Impl>()) {
  impl_->probes.reserve(probes.size());
  std::size_t max_depth = 1;
  for (const Probe& p : probes) {
    impl_->probes.push_back(compile_probe(p, circuit, domain));
    max_depth = std::max(max_depth, impl_->probes.back().max_depth);
  }
  impl_->stack.assign(max_depth, 0.0);
}

CompiledProbeSet::~CompiledProbeSet() = default;
CompiledProbeSet::CompiledProbeSet(CompiledProbeSet&&) noexcept = default;
CompiledProbeSet& CompiledProbeSet::operator=(CompiledProbeSet&&) noexcept =
    default;

std::size_t CompiledProbeSet::size() const noexcept {
  return impl_->probes.size();
}

double CompiledProbeSet::eval(std::size_t i, const Unknowns& x) const {
  return eval_compiled(impl_->probes.at(i), x, impl_->stack);
}

double CompiledProbeSet::eval_ac(std::size_t i,
                                 const linalg::ComplexVector& x) const {
  return eval_compiled_ac(impl_->probes.at(i), x, impl_->stack);
}

SweepResult SimSession::run_ac(const AnalysisPlan& plan,
                               RunObserver* observer) {
  SweepResult::RowSink sink(plan.name, {"FREQ"}, plan.probes, {},
                            plan.ac->frequencies(), observer);
  const std::vector<double>& freqs = sink.inner();

  // One operating point serves the whole sweep, and the plan path always
  // SOLVES it -- a live warm-start seed (.NODESET hints, an analytic
  // guess) is a starting point for Newton here, never a substitute for
  // convergence. G, C and the RHS are built once at that OP; every
  // executor reads them and keeps only its own complex matrix and LU.
  (void)solve_or_throw();
  linearise_ac();

  // Every executor, this session's engine on one worker or a fresh one on
  // more, pins its analysis at the sweep's FIRST frequency before its
  // first point: the factorisation of each point then depends only on
  // (system, omega, first omega), never on which points a worker drew,
  // what an earlier solve_ac on this session pinned, or the thread count.
  struct AcWorker {
    std::optional<AcEngine> own;
    AcEngine* engine;
    CompiledProbeSet probes;

    AcWorker(AcEngine& parent, unsigned workers, const AnalysisPlan& plan,
             const Circuit& circuit, double prime_omega)
        : engine(workers > 1 ? &own.emplace() : &parent),
          probes(plan.probes, circuit, ProbeDomain::kAc) {
      engine->pin_at(prime_omega);
    }
  };
  common::for_each_index(
      freqs.size(), plan.threads,
      [&](unsigned workers) {
        return AcWorker(ac_, workers, plan, *circuit_,
                        2.0 * M_PI * freqs.front());
      },
      [&](AcWorker& w, std::size_t i) {
        const linalg::ComplexVector& xac =
            w.engine->solve(small_signal_, 2.0 * M_PI * freqs[i]);
        sink.put(i, [&](std::size_t p) { return w.probes.eval_ac(p, xac); });
      },
      sink.cancelled());
  return std::move(sink).take();
}

SweepResult SimSession::run(const AnalysisPlan& plan, RunObserver* observer) {
  if (plan.transient.has_value() && plan.ac.has_value()) {
    throw PlanError(plan.name +
                    ": a plan carries either a transient or an AC spec, "
                    "not both");
  }
  if (plan.transient.has_value()) {
    if (!plan.axes.empty()) {
      throw PlanError(plan.name +
                      ": a transient plan cannot also carry sweep axes");
    }
    if (plan.probes.empty()) {
      throw PlanError(plan.name + ": plan needs at least one probe");
    }
    TransientSolver solver(*this, *plan.transient);
    return solver.run(plan.probes, observer);
  }
  if (plan.ac.has_value()) {
    if (!plan.axes.empty()) {
      throw PlanError(plan.name +
                      ": an AC plan cannot also carry sweep axes");
    }
    if (plan.probes.empty()) {
      throw PlanError(plan.name + ": plan needs at least one probe");
    }
    return run_ac(plan, observer);
  }
  if (plan.axes.empty()) {
    throw PlanError(plan.name + ": plan needs at least one sweep axis");
  }
  if (plan.axes.size() > 2) {
    throw PlanError(plan.name + ": at most two nested sweep axes");
  }
  if (plan.probes.empty()) {
    throw PlanError(plan.name + ": plan needs at least one probe");
  }
  if (plan.axes.size() == 2) {
    const SweepAxis& outer = plan.axes.front();
    const SweepAxis& inner = plan.axes.back();
    const bool both_temperature =
        outer.kind() == SweepAxis::Kind::kTemperature &&
        inner.kind() == SweepAxis::Kind::kTemperature;
    if (both_temperature ||
        (!outer.device().empty() && outer.device() == inner.device())) {
      throw PlanError(plan.name + ": both axes sweep '" + outer.label() +
                      "' -- the inner axis would silently override the "
                      "outer one");
    }
  }

  const bool two_axis = plan.axes.size() == 2;
  std::vector<std::string> axis_labels;
  for (const SweepAxis& axis : plan.axes) axis_labels.push_back(axis.label());
  SweepResult::RowSink sink(
      plan.name, std::move(axis_labels), plan.probes,
      two_axis ? plan.axes.front().grid().points() : std::vector<double>{},
      plan.axes.back().grid().points(), observer);

  // However the run ends, the swept values go back to their pre-run ones.
  ParamGuard restore(*circuit_);
  for (const SweepAxis& axis : plan.axes) (void)restore.save(axis.param());

  // The warm start live at run() entry (e.g. .NODESET hints or an
  // analytic startup guess) doubles as the deterministic seed: 2-axis
  // rows start from it, and failed points retry from it.
  const bool seeded = have_last_;
  const Unknowns row_seed = seeded ? result_.solution : Unknowns{};
  const Unknowns* seed = seeded ? &row_seed : nullptr;

  if (!two_axis) {
    // Single axis: run in place, inheriting the session's continuation
    // state -- each point is the solve() a hand-written loop would make.
    BoundPlan bound(plan, *circuit_);
    run_inner_sweep(*this, bound, plan, sink, 0, seed);
    return std::move(sink).take();
  }

  // Workers claim single outer rows and sweep each from the deterministic
  // row start on their own session.
  common::for_each_index(
      sink.outer().size(), plan.threads,
      [&](unsigned workers) {
        return RowWorker(*this, options_, workers, plan);
      },
      [&](RowWorker& w, std::size_t o) {
        start_row(*w.session, w.bound, seed, sink, o, w.pinned);
        run_inner_sweep(*w.session, w.bound, plan, sink, o, seed);
      },
      sink.cancelled());
  return std::move(sink).take();
}

}  // namespace icvbe::spice
