#include "icvbe/spice/netlist.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <istream>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "icvbe/common/error.hpp"
#include "icvbe/common/table.hpp"

namespace icvbe::spice {

namespace {

std::string to_upper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

[[noreturn]] void fail(int line, const std::string& msg) {
  throw NetlistError("netlist line " + std::to_string(line) + ": " + msg);
}

/// Split a logical line into whitespace-separated tokens; '(' ')' ',' '='
/// become separators but '=' is preserved as its own token so parameter
/// assignments keep their structure.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string cur;
  auto flush = [&] {
    if (!cur.empty()) {
      tokens.push_back(cur);
      cur.clear();
    }
  };
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == '(' || c == ')' ||
        c == ',') {
      flush();
    } else if (c == '=') {
      flush();
      tokens.emplace_back("=");
    } else {
      cur.push_back(c);
    }
  }
  flush();
  return tokens;
}

/// Parameter assignments "KEY = value" from a token stream starting at i.
std::map<std::string, double> parse_params(
    const std::vector<std::string>& tokens, std::size_t i, int line) {
  std::map<std::string, double> params;
  while (i < tokens.size()) {
    const std::string key = to_upper(tokens[i]);
    if (i + 2 >= tokens.size() + 1 || i + 1 >= tokens.size() ||
        tokens[i + 1] != "=") {
      fail(line, "expected KEY=value, got '" + tokens[i] + "'");
    }
    if (i + 2 >= tokens.size()) fail(line, "missing value for " + key);
    params[key] = parse_spice_number(tokens[i + 2]);
    i += 3;
  }
  return params;
}

double param_or(const std::map<std::string, double>& p, const std::string& k,
                double fallback) {
  auto it = p.find(k);
  return it == p.end() ? fallback : it->second;
}

/// Physical lines -> logical lines ('+' continuation), stripped of
/// comments; returns (text, first physical line number) pairs.
std::vector<std::pair<std::string, int>> logical_lines(std::string_view text) {
  std::vector<std::pair<std::string, int>> out;
  std::istringstream in{std::string(text)};
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    // Strip comments: leading '*' kills the line; ';' kills the tail.
    std::string s = raw;
    if (auto pos = s.find(';'); pos != std::string::npos) s.erase(pos);
    auto first = s.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (s[first] == '*') continue;
    if (s[first] == '+') {
      if (out.empty()) {
        throw NetlistError("netlist line " + std::to_string(lineno) +
                           ": continuation with no previous line");
      }
      out.back().first += ' ' + s.substr(first + 1);
    } else {
      out.emplace_back(s.substr(first), lineno);
    }
  }
  return out;
}

BjtModel parse_bjt_model(const std::map<std::string, double>& p,
                         BjtModel::Type type) {
  BjtModel m;
  m.type = type;
  m.is = param_or(p, "IS", m.is);
  m.bf = param_or(p, "BF", m.bf);
  m.br = param_or(p, "BR", m.br);
  m.nf = param_or(p, "NF", m.nf);
  m.nr = param_or(p, "NR", m.nr);
  m.ise = param_or(p, "ISE", m.ise);
  m.ne = param_or(p, "NE", m.ne);
  m.isc = param_or(p, "ISC", m.isc);
  m.nc = param_or(p, "NC", m.nc);
  m.vaf = param_or(p, "VAF", m.vaf);
  m.var = param_or(p, "VAR", m.var);
  m.eg = param_or(p, "EG", m.eg);
  m.xti = param_or(p, "XTI", m.xti);
  m.tnom = param_or(p, "TNOM", m.tnom);
  m.iss = param_or(p, "ISS", m.iss);
  m.ns = param_or(p, "NS", m.ns);
  m.eg_sub = param_or(p, "EGS", m.eg_sub);
  m.xti_sub = param_or(p, "XTIS", m.xti_sub);
  m.iss_e = param_or(p, "ISSE", m.iss_e);
  m.ns_e = param_or(p, "NSE", m.ns_e);
  m.eg_sub_e = param_or(p, "EGSE", m.eg_sub_e);
  m.xti_sub_e = param_or(p, "XTISE", m.xti_sub_e);
  m.bf_sub = param_or(p, "BFS", m.bf_sub);
  return m;
}

DiodeModel parse_diode_model(const std::map<std::string, double>& p) {
  DiodeModel m;
  m.is = param_or(p, "IS", m.is);
  m.n = param_or(p, "N", m.n);
  m.eg = param_or(p, "EG", m.eg);
  m.xti = param_or(p, "XTI", m.xti);
  m.tnom = param_or(p, "TNOM", m.tnom);
  return m;
}

MosfetModel parse_mosfet_model(const std::map<std::string, double>& p,
                               MosfetModel::Type type) {
  MosfetModel m;
  m.type = type;
  m.vto = param_or(p, "VTO", m.vto);
  m.kp = param_or(p, "KP", m.kp);
  m.lambda = param_or(p, "LAMBDA", m.lambda);
  m.tnom = param_or(p, "TNOM", m.tnom);
  m.vto_tc = param_or(p, "VTOTC", m.vto_tc);
  m.mobility_exp = param_or(p, "MOBEXP", m.mobility_exp);
  return m;
}

void require_finite(std::initializer_list<double> values, int line,
                    const char* what) {
  for (double v : values) {
    if (!std::isfinite(v)) fail(line, std::string(what) + " must be finite");
  }
}

void require_grid_size(double points, int line) {
  if (!(points <= kMaxGridPoints)) {
    fail(line, "sweep would have " + format_sig(points, 3) +
                   " points (at most 1e7)");
  }
}

/// Point count of the SPICE .DC / .STEP stepping rule (below), checked:
/// `other_points` is the product of the sweep axes parsed so far, and the
/// axis is rejected if the sweep's rows would exceed the grid bound.
double stepped_count(double start, double stop, double incr,
                     double other_points, int line) {
  require_finite({start, stop, incr}, line,
                 "sweep start, stop and increment");
  if (incr == 0.0 || (stop - start) * incr < 0.0) {
    fail(line, "sweep increment must step from start towards stop");
  }
  const double points = std::abs((stop - start) / incr) + 1.0;
  require_grid_size(points * other_points, line);
  return points;
}

/// start, start+incr, ... up to stop (inclusive within a tolerance), the
/// SPICE .DC / .STEP stepping rule, checked by stepped_count before
/// anything is allocated.
std::vector<double> stepped_values(double start, double stop, double incr,
                                   double other_points, int line) {
  const double points =
      stepped_count(start, stop, incr, other_points, line);
  const double eps = 1e-9 * std::abs(incr);
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(points));
  for (std::int64_t i = 0;; ++i) {
    const double v = start + incr * static_cast<double>(i);
    if (incr > 0.0 ? v > stop + eps : v < stop - eps) break;
    values.push_back(v);
  }
  return values;
}

/// Parse the value part of a V/I source card starting at tokens[i]: either
/// a bare number, "DC <value>", or a PULSE/SIN/PWL waveform (the tokenizer
/// already stripped the parentheses). Returns the waveform; bare numbers
/// come back as Waveform::dc. The source's DC value is value_at(0).
Waveform parse_source_waveform(const std::vector<std::string>& tokens,
                               std::size_t i, int line) {
  if (i >= tokens.size()) fail(line, "source needs a value or waveform");
  const std::string head = to_upper(tokens[i]);
  const auto numbers = [&](std::size_t from) {
    std::vector<double> out;
    for (std::size_t k = from; k < tokens.size(); ++k) {
      out.push_back(parse_spice_number(tokens[k]));
    }
    return out;
  };
  try {
    if (head == "DC") {
      if (i + 1 >= tokens.size()) fail(line, "DC needs a value");
      if (tokens.size() != i + 2) {
        fail(line, "unexpected trailing tokens after DC value");
      }
      return Waveform::dc(parse_spice_number(tokens[i + 1]));
    }
    if (head == "PULSE") {
      const auto v = numbers(i + 1);
      if (v.size() < 2) fail(line, "PULSE needs at least v1 v2");
      if (v.size() > 7) fail(line, "PULSE takes at most 7 arguments");
      return Waveform::pulse(v[0], v[1], v.size() > 2 ? v[2] : 0.0,
                             v.size() > 3 ? v[3] : 0.0,
                             v.size() > 4 ? v[4] : 0.0,
                             v.size() > 5 ? v[5] : -1.0,
                             v.size() > 6 ? v[6] : 0.0);
    }
    if (head == "SIN") {
      const auto v = numbers(i + 1);
      if (v.size() < 3) fail(line, "SIN needs at least vo va freq");
      if (v.size() > 5) fail(line, "SIN takes at most 5 arguments");
      return Waveform::sin(v[0], v[1], v[2], v.size() > 3 ? v[3] : 0.0,
                           v.size() > 4 ? v[4] : 0.0);
    }
    if (head == "PWL") {
      const auto v = numbers(i + 1);
      if (v.size() < 2 || v.size() % 2 != 0) {
        fail(line, "PWL needs an even number of t/v values (>= 1 pair)");
      }
      std::vector<std::pair<double, double>> knots;
      knots.reserve(v.size() / 2);
      for (std::size_t k = 0; k < v.size(); k += 2) {
        knots.emplace_back(v[k], v[k + 1]);
      }
      return Waveform::pwl(std::move(knots));
    }
    if (tokens.size() != i + 1) {
      fail(line, "unexpected trailing tokens after source value");
    }
    return Waveform::dc(parse_spice_number(tokens[i]));
  } catch (const NetlistError&) {
    throw;
  } catch (const Error& e) {
    // Waveform constructor contract failures -> add line context.
    fail(line, e.what());
  }
}

/// Optional small-signal stimulus on a V/I source card: "AC <mag> [phase]".
struct SourceAcSpec {
  bool present = false;
  double magnitude = 0.0;
  double phase_deg = 0.0;
};

/// Strip a trailing "AC <mag> [phase]" group from a source card's tokens
/// (it follows the DC value / waveform, or stands alone for a pure AC
/// stimulus source). Returns the parsed spec; `tokens` loses the group.
SourceAcSpec extract_source_ac(std::vector<std::string>& tokens,
                               std::size_t from, int line) {
  for (std::size_t i = from; i < tokens.size(); ++i) {
    if (to_upper(tokens[i]) != "AC") continue;
    SourceAcSpec spec;
    spec.present = true;
    const std::size_t nargs = tokens.size() - i - 1;
    if (nargs < 1 || nargs > 2) {
      fail(line, "AC spec needs <magnitude> [phase-degrees]");
    }
    spec.magnitude = parse_spice_number(tokens[i + 1]);
    if (nargs == 2) spec.phase_deg = parse_spice_number(tokens[i + 2]);
    tokens.erase(tokens.begin() + static_cast<long>(i), tokens.end());
    return spec;
  }
  return {};
}

/// A node a .NODESET or .IC card names, checked once the circuit is
/// complete.
struct NamedNode {
  const char* directive;
  std::string node;
  int line;
};

/// Shared body of .NODESET and .IC: "V node = value" groups (the tokenizer
/// splits 'V(n)=x' into 'V', 'n', '=', 'x') or bare "node = value" pairs.
/// Each node named is also appended to `named` with the card's line.
void parse_node_value_pairs(const std::vector<std::string>& tokens, int line,
                            const char* directive,
                            std::map<std::string, double>& out,
                            std::vector<NamedNode>& named) {
  std::size_t i = 1;
  while (i < tokens.size()) {
    if (to_upper(tokens[i]) == "V") ++i;
    if (i + 2 >= tokens.size() || tokens[i + 1] != "=") {
      fail(line, std::string(directive) + " expects V(node)=value groups");
    }
    out[tokens[i]] = parse_spice_number(tokens[i + 2]);
    named.push_back({directive, tokens[i], line});
    i += 3;
  }
}

/// Map a .DC/.STEP target token to an axis: TEMP (Celsius), V.../I...
/// sources, R... resistors. Device names are used verbatim (the element
/// cards preserve case too).
SweepAxis axis_for_target(const std::string& target, SweepGrid grid,
                          int line) {
  if (to_upper(target) == "TEMP") {
    return SweepAxis::temperature_celsius(std::move(grid));
  }
  if (target.empty()) fail(line, "missing sweep target");
  using Kind = ParamRef::Kind;
  const std::optional<Kind> kind = ParamRef::kind_of(target[0]);
  if (kind != Kind::kVsource && kind != Kind::kIsource &&
      kind != Kind::kResistor) {
    fail(line, "cannot sweep '" + target +
                   "' (V/I sources, R resistors, or TEMP)");
  }
  return {{*kind, target}, std::move(grid)};
}

}  // namespace

namespace {

/// Unit annotations allowed after a scale factor ("2.5kohm", "10uF") or on
/// their own ("5V"). Anything else trailing a number is ambiguous garbage
/// ("10kk", "5x") and is rejected -- a silent scale-by-1 there has bitten
/// real decks. All lowercase; the caller already lowercased the token.
bool is_unit_annotation(std::string_view unit) {
  static constexpr std::string_view kUnits[] = {
      "",    "v",     "volt",  "volts",  "a",   "amp",    "amps",
      "ohm", "ohms",  "f",     "farad",  "h",   "henry",  "henries",
      "hz",  "s",     "sec",   "deg"};
  for (std::string_view u : kUnits) {
    if (unit == u) return true;
  }
  return false;
}

}  // namespace

double parse_spice_number(std::string_view token) {
  // Case-insensitive throughout: the token is lowercased once, so "10MEG",
  // "10Meg" and "10meg" are the same mega suffix (and "10M" the same milli
  // as "10m" -- SPICE's classic MEG-vs-m distinction is by spelling, never
  // by case).
  const std::string t = to_lower(token);
  char* end = nullptr;
  const double base = std::strtod(t.c_str(), &end);
  if (end == t.c_str()) {
    throw NetlistError("not a number: '" + std::string(token) + "'");
  }
  const std::string suffix(end);
  // Recognise at most ONE scale factor, optionally followed by a known
  // unit annotation (e.g. "2.5kohm", "10uF"). "meg" must be checked before
  // the one-letter scales ('m' alone is milli).
  double scale = 1.0;
  std::string unit = suffix;
  if (!suffix.empty()) {
    if (suffix.rfind("meg", 0) == 0) {
      scale = 1e6;
      unit = suffix.substr(3);
    } else {
      switch (suffix[0]) {
        case 'f': scale = 1e-15; unit = suffix.substr(1); break;
        case 'p': scale = 1e-12; unit = suffix.substr(1); break;
        case 'n': scale = 1e-9; unit = suffix.substr(1); break;
        case 'u': scale = 1e-6; unit = suffix.substr(1); break;
        case 'm': scale = 1e-3; unit = suffix.substr(1); break;
        case 'k': scale = 1e3; unit = suffix.substr(1); break;
        case 'g': scale = 1e9; unit = suffix.substr(1); break;
        case 't': scale = 1e12; unit = suffix.substr(1); break;
        default: break;  // no scale; the whole suffix must be a unit
      }
    }
    if (!is_unit_annotation(unit)) {
      throw NetlistError("ambiguous number suffix '" + suffix + "' in '" +
                         std::string(token) +
                         "' (one scale factor plus an optional unit like "
                         "'ohm', 'v', 'a', 'f', 'h', 'hz', 's')");
    }
  }
  return base * scale;
}

ParsedNetlist parse_netlist(std::string_view text) {
  ParsedNetlist out;
  out.circuit = std::make_unique<Circuit>();
  Circuit& c = *out.circuit;

  struct PendingBjt {
    std::string name, collector, base, emitter, model, substrate;
    double area;
    int line;
  };
  struct PendingDiode {
    std::string name, anode, cathode, model;
    double area;
    int line;
  };
  struct PendingMosfet {
    std::string name, drain, gate, source, model;
    double wl;
    int line;
  };
  std::vector<PendingBjt> bjts;
  std::vector<PendingDiode> diodes;
  std::vector<PendingMosfet> mosfets;
  // Nodes named by .NODESET and .IC cards, with their lines.
  std::vector<NamedNode> named_nodes;

  // Analysis directives: .DC specs in deck order (first spec = innermost
  // axis), at most one .STEP (always the outermost axis), .PROBE exprs.
  std::vector<SweepAxis> dc_axes;
  std::optional<SweepAxis> step_axis;
  std::optional<TransientSpec> tran;
  std::optional<AcSpec> ac;
  int analysis_line = 0;
  // Rows of the sweep so far: the product of the parsed axes' sizes. Each
  // further axis is checked against the grid bound as a factor of it.
  double sweep_points = 1.0;

  for (const auto& [line_text, lineno] : logical_lines(text)) {
    const auto tokens = tokenize(line_text);
    if (tokens.empty()) continue;
    const std::string head = to_upper(tokens[0]);

    if (head == ".END") break;
    if (head == ".DC") {
      if (!dc_axes.empty()) fail(lineno, "only one .DC directive per deck");
      if (tokens.size() != 5 && tokens.size() != 9) {
        fail(lineno, ".DC needs <target> <start> <stop> <incr> (optionally "
                     "a second spec)");
      }
      // Check every spec's rows before the first allocates.
      double dc_points = sweep_points;
      for (std::size_t i = 1; i + 3 < tokens.size(); i += 4) {
        dc_points *= stepped_count(parse_spice_number(tokens[i + 1]),
                                   parse_spice_number(tokens[i + 2]),
                                   parse_spice_number(tokens[i + 3]),
                                   dc_points, lineno);
      }
      for (std::size_t i = 1; i + 3 < tokens.size(); i += 4) {
        dc_axes.push_back(axis_for_target(
            tokens[i],
            SweepGrid::list(stepped_values(parse_spice_number(tokens[i + 1]),
                                           parse_spice_number(tokens[i + 2]),
                                           parse_spice_number(tokens[i + 3]),
                                           sweep_points, lineno)),
            lineno));
        sweep_points *= static_cast<double>(dc_axes.back().grid().size());
      }
      analysis_line = lineno;
      continue;
    }
    if (head == ".STEP") {
      if (step_axis.has_value()) {
        fail(lineno, "only one .STEP directive per deck");
      }
      if (tokens.size() < 3) fail(lineno, ".STEP needs a target and points");
      const std::string& target = tokens[1];
      const std::string form = to_upper(tokens[2]);
      if (form == "LIST") {
        std::vector<double> values;
        for (std::size_t i = 3; i < tokens.size(); ++i) {
          values.push_back(parse_spice_number(tokens[i]));
        }
        if (values.empty()) fail(lineno, ".STEP LIST needs >= 1 value");
        require_grid_size(static_cast<double>(values.size()) * sweep_points,
                          lineno);
        step_axis = axis_for_target(target, SweepGrid::list(std::move(values)),
                                    lineno);
      } else if (form == "DEC") {
        if (tokens.size() != 6) {
          fail(lineno, ".STEP DEC needs <start> <stop> <points-per-decade>");
        }
        const double start = parse_spice_number(tokens[3]);
        const double stop = parse_spice_number(tokens[4]);
        const double per_decade = parse_spice_number(tokens[5]);
        require_finite({start, stop, per_decade}, lineno,
                       ".STEP DEC start, stop and points per decade");
        require_grid_size(std::abs(per_decade), lineno);
        if (start > 0.0 && stop > start) {
          require_grid_size(
              (per_decade * (std::log10(stop) - std::log10(start)) + 1.0) *
                  sweep_points,
              lineno);
        }
        try {
          step_axis = axis_for_target(
              target,
              SweepGrid::log_decades(start, stop,
                                     static_cast<int>(per_decade)),
              lineno);
        } catch (const PlanError& e) {
          fail(lineno, e.what());
        }
      } else {
        if (tokens.size() != 5) {
          fail(lineno, ".STEP needs <target> <start> <stop> <incr>");
        }
        step_axis = axis_for_target(
            target,
            SweepGrid::list(stepped_values(parse_spice_number(tokens[2]),
                                           parse_spice_number(tokens[3]),
                                           parse_spice_number(tokens[4]),
                                           sweep_points, lineno)),
            lineno);
      }
      sweep_points *= static_cast<double>(step_axis->grid().size());
      analysis_line = lineno;
      continue;
    }
    if (head == ".PROBE") {
      // The standard tokenizer eats '(' ')' ',', so split the raw logical
      // line on whitespace instead; one whitespace-free token per probe
      // expression.
      std::istringstream in(line_text);
      std::string word;
      in >> word;  // the .PROBE keyword itself
      int parsed = 0;
      while (in >> word) {
        try {
          out.probes.push_back(parse_probe(word));
        } catch (const PlanError& e) {
          fail(lineno, e.what());
        }
        ++parsed;
      }
      if (parsed == 0) fail(lineno, ".PROBE needs at least one expression");
      continue;
    }
    if (head == ".TRAN") {
      if (tran.has_value()) fail(lineno, "only one .TRAN directive per deck");
      TransientSpec spec;
      std::vector<double> positional;
      std::size_t i = 1;
      while (i < tokens.size()) {
        const std::string upper = to_upper(tokens[i]);
        if (upper == "UIC") {
          spec.uic = true;
          ++i;
        } else if (upper == "METHOD") {
          if (i + 2 >= tokens.size() || tokens[i + 1] != "=") {
            fail(lineno, "METHOD needs =BE or =TRAP");
          }
          const std::string m = to_upper(tokens[i + 2]);
          if (m == "BE" || m == "EULER") {
            spec.method = IntegrationMethod::kBackwardEuler;
          } else if (m == "TRAP" || m == "TRAPEZOIDAL") {
            spec.method = IntegrationMethod::kTrapezoidal;
          } else {
            fail(lineno, "unknown integration method '" + m +
                             "' (want BE or TRAP)");
          }
          i += 3;
        } else {
          positional.push_back(parse_spice_number(tokens[i]));
          ++i;
        }
      }
      if (positional.size() < 2 || positional.size() > 4) {
        fail(lineno,
             ".TRAN needs <tstep> <tstop> [<tstart> [<tmax>]] [UIC]");
      }
      spec.tstep = positional[0];
      spec.tstop = positional[1];
      if (positional.size() > 2) spec.tstart = positional[2];
      if (positional.size() > 3) spec.tmax = positional[3];
      require_finite({spec.tstep, spec.tstop, spec.tstart, spec.tmax},
                     lineno, ".TRAN tstep, tstop, tstart and tmax");
      if (!(spec.tstep > 0.0) || !(spec.tstop > spec.tstart) ||
          spec.tstart < 0.0 || spec.tmax < 0.0) {
        fail(lineno, ".TRAN needs tstep > 0 and tstop > tstart >= 0");
      }
      if (!(spec.grid_points() <= kMaxGridPoints)) {
        fail(lineno, ".TRAN would take " + format_sig(spec.grid_points(), 3) +
                         " steps (at most 1e7)");
      }
      tran = std::move(spec);
      analysis_line = lineno;
      continue;
    }
    if (head == ".AC") {
      if (ac.has_value()) fail(lineno, "only one .AC directive per deck");
      if (tokens.size() != 5) {
        fail(lineno, ".AC needs <DEC|OCT|LIN> <points> <fstart> <fstop>");
      }
      AcSpec spec;
      const std::string form = to_upper(tokens[1]);
      if (form == "DEC") {
        spec.spacing = AcSpec::Spacing::kDecade;
      } else if (form == "OCT") {
        spec.spacing = AcSpec::Spacing::kOctave;
      } else if (form == "LIN") {
        spec.spacing = AcSpec::Spacing::kLinear;
      } else {
        fail(lineno, ".AC: unknown sweep form '" + tokens[1] +
                         "' (want DEC, OCT, or LIN)");
      }
      const double points = parse_spice_number(tokens[2]);
      spec.fstart = parse_spice_number(tokens[3]);
      spec.fstop = parse_spice_number(tokens[4]);
      require_finite({points, spec.fstart, spec.fstop}, lineno,
                     ".AC points, fstart and fstop");
      require_grid_size(std::abs(points), lineno);
      if (spec.spacing != AcSpec::Spacing::kLinear && spec.fstart > 0.0 &&
          spec.fstop > spec.fstart) {
        const double span =
            spec.spacing == AcSpec::Spacing::kDecade
                ? std::log10(spec.fstop) - std::log10(spec.fstart)
                : std::log2(spec.fstop) - std::log2(spec.fstart);
        require_grid_size(points * span + 1.0, lineno);
      }
      spec.points = static_cast<int>(points);
      try {
        (void)spec.frequencies();  // validate now, with line context
      } catch (const PlanError& e) {
        fail(lineno, e.what());
      }
      ac = spec;
      analysis_line = lineno;
      continue;
    }
    if (head == ".IC") {
      parse_node_value_pairs(tokens, lineno, ".IC", out.ics, named_nodes);
      continue;
    }
    if (head == ".TEMP") {
      if (tokens.size() < 2) fail(lineno, ".TEMP needs a value");
      out.temperature_celsius = parse_spice_number(tokens[1]);
      out.has_temp_directive = true;
      continue;
    }
    if (head == ".NODESET") {
      parse_node_value_pairs(tokens, lineno, ".NODESET", out.nodesets,
                             named_nodes);
      continue;
    }
    if (head == ".MODEL") {
      if (tokens.size() < 3) fail(lineno, ".MODEL needs a name and a type");
      const std::string name = to_upper(tokens[1]);
      const std::string type = to_upper(tokens[2]);
      const auto params = parse_params(tokens, 3, lineno);
      if (type == "NPN") {
        out.bjt_models[name] = parse_bjt_model(params, BjtModel::Type::kNpn);
      } else if (type == "PNP") {
        out.bjt_models[name] = parse_bjt_model(params, BjtModel::Type::kPnp);
      } else if (type == "D") {
        out.diode_models[name] = parse_diode_model(params);
      } else if (type == "NMOS") {
        out.mosfet_models[name] =
            parse_mosfet_model(params, MosfetModel::Type::kNmos);
      } else if (type == "PMOS") {
        out.mosfet_models[name] =
            parse_mosfet_model(params, MosfetModel::Type::kPmos);
      } else {
        fail(lineno, "unknown model type '" + type + "'");
      }
      continue;
    }
    if (head[0] == '.') fail(lineno, "unknown directive '" + head + "'");

    const char kind = head[0];
    try {
      switch (kind) {
      case 'R': {
        if (tokens.size() < 4) fail(lineno, "R: need name, 2 nodes, value");
        const auto params = parse_params(
            tokens, std::min<std::size_t>(4, tokens.size()), lineno);
        c.add_resistor(tokens[0], c.node(tokens[1]), c.node(tokens[2]),
                       parse_spice_number(tokens[3]),
                       param_or(params, "TC1", 0.0),
                       param_or(params, "TC2", 0.0));
        break;
      }
      case 'V':
      case 'I': {
        if (tokens.size() < 4) {
          fail(lineno, std::string(1, kind) + ": need name, 2 nodes, value");
        }
        std::vector<std::string> value_tokens = tokens;
        const SourceAcSpec acs = extract_source_ac(value_tokens, 3, lineno);
        // A pure "V1 a b AC 1" stimulus source biases to DC 0.
        const Waveform wf =
            value_tokens.size() == 3
                ? Waveform::dc(0.0)
                : parse_source_waveform(value_tokens, 3, lineno);
        IndependentSource& src =
            kind == 'V'
                ? static_cast<IndependentSource&>(
                      c.add_vsource(tokens[0], c.node(tokens[1]),
                                    c.node(tokens[2]), wf.dc_value()))
                : c.add_isource(tokens[0], c.node(tokens[1]),
                                c.node(tokens[2]), wf.dc_value());
        if (wf.kind() != Waveform::Kind::kDc) src.set_waveform(wf);
        if (acs.present) src.set_ac(acs.magnitude, acs.phase_deg);
        break;
      }
      case 'C': {
        if (tokens.size() < 4) fail(lineno, "C: need name, 2 nodes, value");
        const auto params = parse_params(tokens, 4, lineno);
        c.add_capacitor(tokens[0], c.node(tokens[1]), c.node(tokens[2]),
                        parse_spice_number(tokens[3]),
                        param_or(params, "IC", std::nan("")));
        break;
      }
      case 'L': {
        if (tokens.size() < 4) fail(lineno, "L: need name, 2 nodes, value");
        const auto params = parse_params(tokens, 4, lineno);
        c.add_inductor(tokens[0], c.node(tokens[1]), c.node(tokens[2]),
                       parse_spice_number(tokens[3]),
                       param_or(params, "IC", std::nan("")));
        break;
      }
      case 'E': {
        if (tokens.size() < 6) {
          fail(lineno, "E: need name, 4 nodes, gain");
        }
        c.add_vcvs(tokens[0], c.node(tokens[1]), c.node(tokens[2]),
                   c.node(tokens[3]), c.node(tokens[4]),
                   parse_spice_number(tokens[5]));
        break;
      }
      case 'U': {
        if (tokens.size() < 4) fail(lineno, "U: need name and 3 nodes");
        const auto params = parse_params(tokens, 4, lineno);
        c.add_opamp(tokens[0], c.node(tokens[1]), c.node(tokens[2]),
                    c.node(tokens[3]), param_or(params, "GAIN", 1e6),
                    param_or(params, "OFFSET", 0.0));
        break;
      }
      case 'D': {
        if (tokens.size() < 4) fail(lineno, "D: need name, 2 nodes, model");
        std::map<std::string, double> params;
        if (tokens.size() > 4) params = parse_params(tokens, 4, lineno);
        diodes.push_back({tokens[0], tokens[1], tokens[2],
                          to_upper(tokens[3]), param_or(params, "AREA", 1.0),
                          lineno});
        break;
      }
      case 'M': {
        if (tokens.size() < 5) {
          fail(lineno, "M: need name, 3 nodes (d g s), model");
        }
        std::map<std::string, double> params;
        if (tokens.size() > 5) params = parse_params(tokens, 5, lineno);
        mosfets.push_back({tokens[0], tokens[1], tokens[2], tokens[3],
                           to_upper(tokens[4]), param_or(params, "WL", 1.0),
                           lineno});
        break;
      }
      case 'Q': {
        if (tokens.size() < 5) fail(lineno, "Q: need name, 3 nodes, model");
        std::map<std::string, double> params;
        std::string substrate = "0";
        // Optional SUBSTRATE=<node> must be handled before numeric params.
        std::vector<std::string> rest(tokens.begin() + 5, tokens.end());
        std::vector<std::string> numeric;
        for (std::size_t i = 0; i < rest.size();) {
          if (to_upper(rest[i]) == "SUBSTRATE" && i + 2 < rest.size() + 1 &&
              i + 1 < rest.size() && rest[i + 1] == "=") {
            if (i + 2 >= rest.size()) fail(lineno, "SUBSTRATE needs a node");
            substrate = rest[i + 2];
            i += 3;
          } else {
            numeric.push_back(rest[i]);
            ++i;
          }
        }
        if (!numeric.empty()) params = parse_params(numeric, 0, lineno);
        bjts.push_back({tokens[0], tokens[1], tokens[2], tokens[3],
                        to_upper(tokens[4]), substrate,
                        param_or(params, "AREA", 1.0), lineno});
        break;
      }
      default:
        fail(lineno, "unknown element '" + tokens[0] + "'");
      }
    } catch (const NetlistError&) {
      throw;  // already carries line context
    } catch (const Error& e) {
      // Duplicate device names, bad element values, device-constructor
      // contract failures (negative R/C/L, ...) -> add the line.
      fail(lineno, e.what());
    }
  }

  // Instantiate semiconductor devices now that all .MODEL cards are known
  // (SPICE decks put models anywhere).
  for (const auto& d : diodes) {
    auto it = out.diode_models.find(d.model);
    if (it == out.diode_models.end()) {
      fail(d.line, "diode model '" + d.model + "' not defined");
    }
    try {
      c.add_diode(d.name, c.node(d.anode), c.node(d.cathode), it->second,
                  d.area);
    } catch (const CircuitError& e) {
      fail(d.line, e.what());
    }
  }
  for (const auto& q : bjts) {
    auto it = out.bjt_models.find(q.model);
    if (it == out.bjt_models.end()) {
      fail(q.line, "BJT model '" + q.model + "' not defined");
    }
    try {
      c.add_bjt(q.name, c.node(q.collector), c.node(q.base),
                c.node(q.emitter), it->second, q.area, c.node(q.substrate));
    } catch (const CircuitError& e) {
      fail(q.line, e.what());
    }
  }
  for (const auto& m : mosfets) {
    auto it = out.mosfet_models.find(m.model);
    if (it == out.mosfet_models.end()) {
      fail(m.line, "MOSFET model '" + m.model + "' not defined");
    }
    try {
      c.add_mosfet(m.name, c.node(m.drain), c.node(m.gate), c.node(m.source),
                   it->second, m.wl);
    } catch (const CircuitError& e) {
      fail(m.line, e.what());
    }
  }

  // A hint or initial condition may precede the cards that create its
  // node, so the check waits for the complete circuit.
  for (const NamedNode& n : named_nodes) {
    if (c.find_node(n.node) < 0) {
      fail(n.line, std::string(n.directive) + " V(" + n.node +
                       "): no node named '" + n.node + "'");
    }
  }

  // Assemble the deck-described analyses. A deck may carry any
  // combination of the three families; the canonical execution order is
  // pinned to [DC/.STEP sweep, .TRAN, .AC] regardless of card order, and
  // each plan gets the .PROBE subset its evaluation domain supports
  // (VM/VDB/... only ride the AC plan, I/IC/... only the DC-domain
  // plans). Within a family, .STEP is always the outermost axis and the
  // first .DC spec is the innermost.
  const bool has_sweep = step_axis.has_value() || !dc_axes.empty();
  const int analysis_count = static_cast<int>(has_sweep) +
                             static_cast<int>(tran.has_value()) +
                             static_cast<int>(ac.has_value());
  const bool multi = analysis_count > 1;

  /// .PROBE subset `domain` can evaluate; empty = deck error for `card`.
  /// Routing only applies to multi-analysis decks -- a single-analysis
  /// deck keeps its probe list verbatim (the historical contract; probe
  /// round trips depend on it) and any domain mismatch surfaces when the
  /// plan compiles its probes.
  const auto domain_probes = [&](ProbeDomain domain,
                                 const char* card) -> std::vector<Probe> {
    if (out.probes.empty()) {
      fail(analysis_line,
           std::string("deck has ") + card + " but no .PROBE");
    }
    if (!multi) return out.probes;
    std::vector<Probe> subset;
    for (const Probe& p : out.probes) {
      if (probe_supported_in(p, domain)) subset.push_back(p);
    }
    if (subset.empty()) {
      fail(analysis_line,
           std::string("deck has ") + card + " but none of its .PROBE " +
               "expressions can evaluate in that analysis (" +
               (domain == ProbeDomain::kAc
                    ? "probe V/VM/VDB/VP/VR/VI quantities"
                    : "AC quantities exist only in .AC") +
               ")");
    }
    return subset;
  };

  if (has_sweep) {
    if (dc_axes.size() + (step_axis.has_value() ? 1u : 0u) > 2u) {
      fail(analysis_line,
           "at most two nested sweep axes (.STEP plus .DC specs)");
    }
    AnalysisPlan plan;
    plan.name = multi ? "deck:DC" : "deck";
    if (step_axis.has_value()) plan.axes.push_back(std::move(*step_axis));
    for (auto it = dc_axes.rbegin(); it != dc_axes.rend(); ++it) {
      plan.axes.push_back(std::move(*it));
    }
    plan.probes = domain_probes(ProbeDomain::kDc, ".DC/.STEP");
    out.plans.push_back(std::move(plan));
  }
  if (tran.has_value()) {
    for (const auto& [node, volts] : out.ics) {
      tran->initial_conditions.emplace_back(node, volts);
    }
    AnalysisPlan plan;
    plan.name = multi ? "deck:TRAN" : "deck";
    plan.transient = std::move(*tran);
    plan.probes = domain_probes(ProbeDomain::kDc, ".TRAN");
    out.plans.push_back(std::move(plan));
  }
  if (ac.has_value()) {
    AnalysisPlan plan;
    plan.name = multi ? "deck:AC" : "deck";
    plan.ac = *ac;
    plan.probes = domain_probes(ProbeDomain::kAc, ".AC");
    out.plans.push_back(std::move(plan));
  }
  return out;
}

const AnalysisPlan* ParsedNetlist::find_plan(AnalysisKind kind)
    const noexcept {
  for (const AnalysisPlan& p : plans) {
    if (analysis_kind(p) == kind) return &p;
  }
  return nullptr;
}

Unknowns ParsedNetlist::nodeset_guess() {
  Unknowns guess(static_cast<std::size_t>(circuit->assign_unknowns()));
  for (const auto& [node, value] : nodesets) {
    const NodeId id = circuit->find_node(node);
    if (id > 0) guess.raw()[static_cast<std::size_t>(id - 1)] = value;
  }
  return guess;
}

ParsedNetlist parse_netlist(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_netlist(buf.str());
}

namespace {
void emit_param(std::ostringstream& os, const char* key, double value,
                double default_value) {
  if (value != default_value && std::isfinite(value)) {
    os << ' ' << key << '=' << format_sig(value, 9);
  }
}
}  // namespace

std::string format_bjt_model(const std::string& name, const BjtModel& m) {
  const BjtModel d;  // defaults
  std::ostringstream os;
  os << ".MODEL " << name << ' '
     << (m.type == BjtModel::Type::kNpn ? "NPN" : "PNP") << " (";
  os << "IS=" << format_sig(m.is, 9);
  emit_param(os, "BF", m.bf, d.bf);
  emit_param(os, "BR", m.br, d.br);
  emit_param(os, "NF", m.nf, d.nf);
  emit_param(os, "NR", m.nr, d.nr);
  emit_param(os, "ISE", m.ise, d.ise);
  emit_param(os, "NE", m.ne, d.ne);
  emit_param(os, "ISC", m.isc, d.isc);
  emit_param(os, "NC", m.nc, d.nc);
  emit_param(os, "VAF", m.vaf, d.vaf);
  emit_param(os, "VAR", m.var, d.var);
  emit_param(os, "EG", m.eg, d.eg);
  emit_param(os, "XTI", m.xti, d.xti);
  emit_param(os, "TNOM", m.tnom, d.tnom);
  emit_param(os, "ISS", m.iss, d.iss);
  emit_param(os, "NS", m.ns, d.ns);
  emit_param(os, "EGS", m.eg_sub, d.eg_sub);
  emit_param(os, "XTIS", m.xti_sub, d.xti_sub);
  emit_param(os, "ISSE", m.iss_e, d.iss_e);
  emit_param(os, "NSE", m.ns_e, d.ns_e);
  emit_param(os, "EGSE", m.eg_sub_e, d.eg_sub_e);
  emit_param(os, "XTISE", m.xti_sub_e, d.xti_sub_e);
  emit_param(os, "BFS", m.bf_sub, d.bf_sub);
  os << ')';
  return os.str();
}

std::string format_diode_model(const std::string& name, const DiodeModel& m) {
  const DiodeModel d;
  std::ostringstream os;
  os << ".MODEL " << name << " D (IS=" << format_sig(m.is, 9);
  emit_param(os, "N", m.n, d.n);
  emit_param(os, "EG", m.eg, d.eg);
  emit_param(os, "XTI", m.xti, d.xti);
  emit_param(os, "TNOM", m.tnom, d.tnom);
  os << ')';
  return os.str();
}

}  // namespace icvbe::spice
