// icvbe command-line tool: drive the library without writing C++.
//
//   icvbe simulate <deck.cir>            solve the DC operating point of a
//                                        SPICE-like netlist at its .TEMP
//   icvbe run <deck.cir> [threads]
//                                        execute the deck's .DC/.STEP/.PROBE
//                                        analysis plan, CSV out
//   icvbe tran <deck.cir> [--method=be|trap]
//                                        execute the deck's .TRAN analysis
//                                        (time-indexed .PROBE series), CSV
//                                        out; --method overrides the deck's
//                                        integration scheme
//   icvbe ac <deck.cir> [threads]
//                                        execute the deck's .AC small-signal
//                                        analysis about the DC operating
//                                        point (frequency-indexed VM/VDB/VP
//                                        .PROBE series), CSV out
//   icvbe sweep <deck.cir> <vsrc> <from> <to> <n> <node>
//                                        DC sweep a voltage source, CSV out
//   icvbe tempsweep <deck.cir> <fromC> <toC> <n> <node>
//                                        temperature sweep, CSV out
//   icvbe extract [sample]               run the paper's analytical method
//                                        on a virtual-lot sample and print
//                                        the extracted .MODEL card
//   icvbe lot [samples] [threads]
//                                        characterise a Monte-Carlo lot in
//                                        parallel and print the statistics
//   icvbe table1                         reproduce the paper's Table 1
//   icvbe truthcard                      print the hidden ground-truth card
//   icvbe serve [--socket <path>|--port <p>] [--workers N]
//                                        run the simulation-as-a-service
//                                        daemon (docs/PROTOCOL.md) until
//                                        SIGINT/SIGTERM
//
// Exit codes: 0 success, 1 named runtime error (bad value, missing file,
// deck/analysis mismatch, solver failure), 2 usage error (unknown
// subcommand or option, wrong argument shape) with the usage text.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "icvbe/common/constants.hpp"
#include "icvbe/common/csv.hpp"
#include "icvbe/common/table.hpp"
#include "icvbe/extract/meijer.hpp"
#include "icvbe/lab/campaign.hpp"
#include "icvbe/lab/lot_campaign.hpp"
#include "icvbe/server/sim_server.hpp"
#include "icvbe/spice/netlist.hpp"
#include "icvbe/spice/plan.hpp"

namespace {

using namespace icvbe;

/// Structural misuse of the command line -- unknown subcommand or option,
/// wrong argument shape. Exits 2 and prints the usage text; everything
/// else an Error names exits 1 without it.
class UsageError : public Error {
 public:
  using Error::Error;
};

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: icvbe <simulate|run|tran|ac|sweep|tempsweep|extract|"
               "lot|table1|truthcard|serve> [args]\n"
               "  simulate <deck.cir>\n"
               "  tran <deck.cir> [--method=be|trap]\n"
               "      executes the deck's .TRAN/.PROBE analysis, CSV out\n"
               "  ac <deck.cir> [threads]\n"
               "      executes the deck's .AC/.PROBE small-signal analysis\n"
               "      about the DC operating point, CSV out\n"
               "  run <deck.cir> [threads]\n"
               "  sweep <deck.cir> <vsrc> <from> <to> <points> <node>\n"
               "  tempsweep <deck.cir> <fromC> <toC> <points> <node>\n"
               "  extract [sample-index]\n"
               "  lot [samples] [threads]\n"
               "  table1\n"
               "  truthcard\n"
               "  serve [--socket <path>|--port <p>] [--workers N]\n"
               "      long-lived daemon speaking docs/PROTOCOL.md; decks in\n"
               "      a combo deck select per analysis (RUN ... DC|TRAN|AC)\n");
}

/// Checked numeric argument parsing: std::stod's bare "stod" exception
/// text is useless at the terminal, so name the argument and show the
/// offending value instead.
double parse_double_arg(const char* what, const std::string& text) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(text, &used);
  } catch (const std::exception&) {
    throw Error(std::string(what) + ": '" + text + "' is not a number");
  }
  if (used != text.size()) {
    throw Error(std::string(what) + ": '" + text + "' is not a number");
  }
  return v;
}

int parse_int_arg(const char* what, const std::string& text) {
  std::size_t used = 0;
  int v = 0;
  try {
    v = std::stoi(text, &used);
  } catch (const std::exception&) {
    throw Error(std::string(what) + ": '" + text + "' is not an integer");
  }
  if (used != text.size()) {
    throw Error(std::string(what) + ": '" + text + "' is not an integer");
  }
  return v;
}

int parse_points_arg(const std::string& text) {
  const int points = parse_int_arg("points", text);
  if (points < 2) {
    throw Error("points: need at least 2 sweep points, got " + text);
  }
  return points;
}

spice::ParsedNetlist load_deck(const std::string& path) {
  std::ifstream f(path);
  if (!f.good()) {
    throw Error("cannot open deck '" + path + "'");
  }
  return spice::parse_netlist(f);
}

int cmd_simulate(const std::string& path) {
  auto parsed = load_deck(path);
  auto& c = *parsed.circuit;
  c.set_temperature(to_kelvin(parsed.temperature_celsius));
  const spice::Unknowns guess = parsed.nodeset_guess();
  const spice::Unknowns x = spice::SimSession(c).solve_or_throw(&guess);
  std::printf("DC operating point at %.2f C (%d nodes, %zu devices)\n",
              parsed.temperature_celsius, c.node_count() - 1,
              c.devices().size());
  Table t({"node", "voltage [V]"});
  for (int n = 1; n < c.node_count(); ++n) {
    t.add_row({c.node_name(n), format_sig(x.node_voltage(n), 6)});
  }
  t.print(std::cout);
  for (const auto& dev : c.devices()) {
    if (auto* v = dynamic_cast<spice::VoltageSource*>(dev.get())) {
      std::printf("I(%s) = %s A\n", v->name().c_str(),
                  format_sig(v->terminals(x).pin[0].amps, 5).c_str());
    }
  }
  std::printf("total dissipation: %s W\n",
              format_sig(c.total_power(x), 4).c_str());
  return 0;
}

/// The flag vocabulary shared by the deck-executing subcommands. One
/// scanner instead of three copy-pasted loops: `--method=` only where the
/// subcommand allows it; unknown `--options` are usage errors.
struct DeckArgs {
  std::vector<std::string> positional;
  std::optional<spice::IntegrationMethod> method;
};


DeckArgs scan_deck_args(const std::vector<std::string>& args,
                        bool allow_method) {
  DeckArgs out;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (allow_method && args[i].rfind("--method=", 0) == 0) {
      const std::string m = args[i].substr(std::string("--method=").size());
      if (m == "be" || m == "euler") {
        out.method = spice::IntegrationMethod::kBackwardEuler;
      } else if (m == "trap" || m == "trapezoidal") {
        out.method = spice::IntegrationMethod::kTrapezoidal;
      } else {
        throw Error("--method: unknown method '" + m + "' (want be or trap)");
      }
    } else if (args[i].rfind("--", 0) == 0) {
      throw UsageError("unknown option '" + args[i] + "'");
    } else {
      out.positional.push_back(args[i]);
    }
  }
  return out;
}

/// Shared body of run/tran/ac: load, select the deck plan of `kind`
/// (multi-analysis decks carry up to one plan per family), execute on a
/// warm session, CSV to stdout.
int run_deck_analysis(const std::string& path, spice::AnalysisKind kind,
                      unsigned threads,
                      std::optional<spice::IntegrationMethod> method) {
  auto parsed = load_deck(path);
  const spice::AnalysisPlan* deck_plan = parsed.find_plan(kind);
  if (deck_plan == nullptr) {
    const std::string token(spice::to_token(kind));
    throw Error("deck '" + path + "' describes no " + token +
                " analysis (needs ." + token + "-family cards plus .PROBE)");
  }
  auto& c = *parsed.circuit;
  c.set_temperature(to_kelvin(parsed.temperature_celsius));
  spice::AnalysisPlan plan = *deck_plan;
  plan.threads = threads;
  if (method.has_value()) plan.transient->method = *method;
  spice::SimSession session(c);
  // .NODESET hints seed the first operating-point solve -- and, for
  // 2-axis plans, the deterministic start of every outer row.
  if (!parsed.nodesets.empty()) {
    session.seed_warm_start(parsed.nodeset_guess());
  }
  const spice::SweepResult result = session.run(plan);
  result.write_csv(std::cout);
  return 0;
}

std::atomic<bool> g_interrupted{false};

extern "C" void handle_stop_signal(int) { g_interrupted.store(true); }

int cmd_serve(const std::vector<std::string>& args) {
  server::ServerConfig cfg;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--socket" && i + 1 < args.size()) {
      cfg.socket_path = args[++i];
    } else if (args[i] == "--port" && i + 1 < args.size()) {
      const int port = parse_int_arg("--port", args[++i]);
      if (port < 0 || port > 65535) {
        throw Error("--port: out of range: " + std::to_string(port));
      }
      cfg.tcp_port = port;
      cfg.socket_path.clear();
    } else if (args[i] == "--workers" && i + 1 < args.size()) {
      const int workers = parse_int_arg("--workers", args[++i]);
      if (workers < 0) throw Error("--workers: must be >= 0");
      cfg.workers = static_cast<unsigned>(workers);
    } else {
      throw UsageError("serve: unknown or incomplete option '" + args[i] +
                       "'");
    }
  }
  if (cfg.socket_path.empty() && cfg.tcp_port == 0 &&
      std::none_of(args.begin(), args.end(),
                   [](const std::string& a) { return a == "--port"; })) {
    cfg.socket_path = "/tmp/icvbe.sock";
  }
  server::SimServer server(std::move(cfg));
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  server.start();
  if (server.port() >= 0) {
    std::fprintf(stderr, "icvbe serve: listening on 127.0.0.1:%d (%u workers)\n",
                 server.port(), server.workers());
  } else {
    std::fprintf(stderr, "icvbe serve: listening on %s (%u workers)\n",
                 server.socket_path().c_str(), server.workers());
  }
  server.serve_until(g_interrupted);
  std::fprintf(stderr, "icvbe serve: stopped\n");
  return 0;
}

int cmd_sweep(const std::string& path, const std::string& src, double from,
              double to, int points, const std::string& node) {
  auto parsed = load_deck(path);
  auto& c = *parsed.circuit;
  c.set_temperature(to_kelvin(parsed.temperature_celsius));
  const spice::Unknowns guess = parsed.nodeset_guess();
  spice::SimSession session(c);
  session.seed_warm_start(guess);
  spice::AnalysisPlan plan;
  plan.name = "sweep";
  plan.axes = {spice::SweepAxis::vsource(
      src, spice::SweepGrid::linear(from, to, points))};
  plan.probes = {spice::Probe::node_voltage(node)};
  csv::write_series(std::cout, session.run(plan).series(), src,
                    "V(" + node + ")");
  return 0;
}

int cmd_tempsweep(const std::string& path, double from_c, double to_c,
                  int points, const std::string& node) {
  auto parsed = load_deck(path);
  auto& c = *parsed.circuit;
  std::vector<double> temps;
  for (double t : spice::SweepGrid::linear(from_c, to_c, points).points()) {
    temps.push_back(to_kelvin(t));
  }
  // .NODESET hints are typically written for room temperature, so sweep
  // outward from the grid point nearest 25 C in two warm-started segments
  // and merge -- every point then inherits a close-by predecessor.
  const spice::Unknowns guess = parsed.nodeset_guess();
  std::size_t mid = 0;
  for (std::size_t i = 1; i < temps.size(); ++i) {
    if (std::abs(temps[i] - 298.15) < std::abs(temps[mid] - 298.15)) mid = i;
  }
  const std::vector<double> up(temps.begin() + static_cast<long>(mid),
                               temps.end());
  const std::vector<double> down(temps.rbegin() +
                                     static_cast<long>(temps.size() - mid - 1),
                                 temps.rend());
  spice::AnalysisPlan plan;
  plan.name = "tempsweep";
  plan.probes = {spice::Probe::node_voltage(node)};
  // Both segments start from the hints with fresh device state.
  const auto segment = [&](const std::vector<double>& kelvin) {
    spice::SimSession session(c);
    session.seed_warm_start(guess);
    plan.axes = {spice::SweepAxis::temperature_kelvin(
        spice::SweepGrid::list(kelvin))};
    return session.run(plan).series();
  };
  const Series s_up = segment(up);
  const Series s_down = segment(down);
  Series merged("tempsweep");
  for (std::size_t i = s_down.size(); i-- > 1;) {
    merged.push_back(s_down.x(i), s_down.y(i));
  }
  for (std::size_t i = 0; i < s_up.size(); ++i) {
    merged.push_back(s_up.x(i), s_up.y(i));
  }
  Series celsius("tempsweep");
  celsius.reserve(merged.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    celsius.push_back(to_celsius(merged.x(i)), merged.y(i));
  }
  csv::write_series(std::cout, celsius, "T_celsius", "V(" + node + ")");
  return 0;
}

int cmd_extract(int sample_index) {
  lab::SiliconLot lot;
  lab::CampaignConfig cfg;
  cfg.seed = 1000 + static_cast<std::uint64_t>(sample_index);
  lab::Laboratory laboratory(lot.sample(sample_index), cfg);
  const auto sweep = laboratory.test_cell_sweep({-25.0, 25.0, 75.0});
  const auto m = extract::meijer_from_cell(sweep, -25.0, 25.0, 75.0);
  std::printf("sample %d of the virtual lot\n", sample_index);
  std::printf("  computed die temperatures: T1 = %.2f K, T3 = %.2f K "
              "(sensor: %.2f / %.2f K)\n",
              m.t1_computed, m.t3_computed, m.p1.t_sensor, m.p3.t_sensor);
  std::printf("  extracted: EG = %.4f eV, XTI = %.3f\n",
              m.with_computed_t.eg, m.with_computed_t.xti);
  spice::BjtModel card = lot.sample(sample_index).qa;
  card.eg = m.with_computed_t.eg;
  card.xti = m.with_computed_t.xti;
  std::printf("%s\n",
              spice::format_bjt_model("PNP_EXTRACTED", card).c_str());
  return 0;
}

int cmd_lot(int samples, unsigned threads) {
  lab::SiliconLot lot;
  lab::LotCampaignConfig cfg;
  cfg.samples = samples;
  cfg.threads = threads;
  const lab::LotCampaign campaign(lot, cfg);
  const auto dies = campaign.run();
  const lab::LotSummary s = lab::LotCampaign::summarise(dies);

  Table t({"quantity", "mean", "sigma", "q10", "median", "q90"});
  auto row = [&](const char* name, const lab::LotStatistic& st, int digits) {
    t.add_row({name, format_fixed(st.mean, digits),
               format_fixed(st.stddev, digits), format_fixed(st.q10, digits),
               format_fixed(st.q50, digits), format_fixed(st.q90, digits)});
  };
  row("classical EG [eV]", s.eg_classical, 4);
  row("analytical EG [eV]", s.eg_meijer, 4);
  row("analytical XTI", s.xti_meijer, 2);
  row("dT1 [K]", s.delta_t1, 2);
  row("dT3 [K]", s.delta_t3, 2);
  std::printf("%d dies ok, %d failed (truth: EG = %.4f eV, XTI = %.2f)\n",
              s.dies_ok, s.dies_failed, lot.true_eg(), lot.true_xti());
  t.print(std::cout);
  return s.dies_failed == 0 ? 0 : 1;
}

int cmd_table1() {
  lab::SiliconLot lot;
  Table t({"sample", "dT1 [K]", "dT3 [K]"});
  for (int i = 1; i <= 5; ++i) {
    lab::CampaignConfig cfg;
    cfg.seed = 100 + static_cast<std::uint64_t>(i);
    lab::Laboratory laboratory(lot.sample(i), cfg);
    const auto sweep = laboratory.test_cell_sweep({-26.15, 23.85, 74.85});
    const auto m = extract::meijer_from_cell(sweep, -26.15, 23.85, 74.85);
    const auto cmp = extract::compare_temperatures(m);
    t.add_row({std::to_string(i), format_fixed(cmp.delta_t1(), 2),
               format_fixed(cmp.delta_t3(), 2)});
  }
  t.print(std::cout);
  std::printf("paper bands: dT1 in [-4.61, -1.82], dT3 in [+3.99, +7.28]\n");
  return 0;
}

int cmd_truthcard() {
  lab::SiliconLot lot;
  std::printf("%s\n",
              spice::format_bjt_model("PNP_TRUTH", lot.truth().pnp).c_str());
  return 0;
}

/// One dispatch for every subcommand; throws UsageError on structural
/// misuse, Error on named runtime failures.
int dispatch(const std::vector<std::string>& args) {
  if (args.empty()) throw UsageError("missing subcommand");
  const std::string& cmd = args[0];
  if (cmd == "simulate") {
    if (args.size() != 2) throw UsageError("simulate: want <deck.cir>");
    return cmd_simulate(args[1]);
  }
  if (cmd == "run" || cmd == "ac") {
    const DeckArgs deck = scan_deck_args(args, /*allow_method=*/false);
    if (deck.positional.size() != 1 && deck.positional.size() != 2) {
      throw UsageError(cmd + ": want <deck.cir> [threads]");
    }
    const int threads = deck.positional.size() > 1
                            ? parse_int_arg("threads", deck.positional[1])
                            : 1;
    if (threads < 0) throw Error("threads: must be >= 0");
    return run_deck_analysis(deck.positional[0],
                             cmd == "run" ? spice::AnalysisKind::kDcSweep
                                          : spice::AnalysisKind::kAc,
                             static_cast<unsigned>(threads), std::nullopt);
  }
  if (cmd == "tran") {
    const DeckArgs deck = scan_deck_args(args, /*allow_method=*/true);
    if (deck.positional.size() != 1) {
      throw UsageError("tran: want <deck.cir>");
    }
    return run_deck_analysis(deck.positional[0],
                             spice::AnalysisKind::kTransient, 1,
                             deck.method);
  }
  if (cmd == "sweep") {
    if (args.size() != 7) {
      throw UsageError("sweep: want <deck.cir> <vsrc> <from> <to> <points> "
                       "<node>");
    }
    return cmd_sweep(args[1], args[2], parse_double_arg("from", args[3]),
                     parse_double_arg("to", args[4]),
                     parse_points_arg(args[5]), args[6]);
  }
  if (cmd == "tempsweep") {
    if (args.size() != 6) {
      throw UsageError("tempsweep: want <deck.cir> <fromC> <toC> <points> "
                       "<node>");
    }
    return cmd_tempsweep(args[1], parse_double_arg("fromC", args[2]),
                         parse_double_arg("toC", args[3]),
                         parse_points_arg(args[4]), args[5]);
  }
  if (cmd == "extract") {
    if (args.size() > 2) throw UsageError("extract: want [sample-index]");
    return cmd_extract(
        args.size() > 1 ? parse_int_arg("sample-index", args[1]) : 1);
  }
  if (cmd == "lot") {
    std::vector<std::string> positional;
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (args[i].rfind("--", 0) == 0) {
        throw UsageError("lot: unknown option '" + args[i] + "'");
      }
      positional.push_back(args[i]);
    }
    if (positional.size() > 2) {
      throw UsageError("lot: want [samples] [threads]");
    }
    const int samples =
        !positional.empty() ? parse_int_arg("samples", positional[0]) : 25;
    if (samples < 1) throw Error("samples: must be >= 1");
    const int threads =
        positional.size() > 1 ? parse_int_arg("threads", positional[1]) : 0;
    if (threads < 0) throw Error("threads: must be >= 0");
    return cmd_lot(samples, static_cast<unsigned>(threads));
  }
  if (cmd == "table1") return cmd_table1();
  if (cmd == "truthcard") return cmd_truthcard();
  if (cmd == "serve") return cmd_serve(args);
  throw UsageError("unknown subcommand '" + cmd + "'");
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    return dispatch(args);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "icvbe: %s\n", e.what());
    print_usage(stderr);
    return 2;
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr, "icvbe: out of memory\n");
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "icvbe: %s\n", e.what());
    return 1;
  }
}
