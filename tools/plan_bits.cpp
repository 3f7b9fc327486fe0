// plan_bits: print every row of every analysis plan of one or more decks,
// each value as printf's %a, so the results of two builds diff bit for bit.
//
//   plan_bits <deck>... [threads]
//
// Each deck's plans ([DC/.STEP sweep, .TRAN, .AC], as parsed) run two
// ways: "fresh", each plan on a session of its own over a freshly parsed
// deck, and "chained", every plan twice in a row on one session (a session
// carries state from run to run that a fresh one does not). A session is
// set up as `icvbe run|tran|ac` sets it up: the deck's .TEMP, then its
// .NODESET guess as the warm start. The last argument, if it is a number
// below 100, is the plans' thread count (default 1; 0 = every core, as
// AnalysisPlan::threads reads it). A plan that throws prints its error and
// the runs go on. CSVs print 6 significant digits, so a bit-level check
// of a numerics change diffs this output instead, e.g.
//
//   gen_netlist mesh 100 7 > mesh.cir
//   plan_bits examples/decks/*.cir mesh.cir 2 > new.txt

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "icvbe/common/constants.hpp"
#include "icvbe/common/error.hpp"
#include "icvbe/spice/netlist.hpp"
#include "icvbe/spice/plan.hpp"
#include "icvbe/spice/sim_session.hpp"

namespace {

using namespace icvbe;

/// A deck parsed at its .TEMP.
spice::ParsedNetlist parse_deck(const std::string& text) {
  spice::ParsedNetlist parsed = spice::parse_netlist(text);
  parsed.circuit->set_temperature(to_kelvin(parsed.temperature_celsius));
  return parsed;
}

/// A parsed deck with its session, set up as the CLI sets it up.
struct Bound {
  explicit Bound(const std::string& text)
      : parsed(parse_deck(text)), session(*parsed.circuit) {
    if (!parsed.nodesets.empty()) {
      session.seed_warm_start(parsed.nodeset_guess());
    }
  }
  spice::ParsedNetlist parsed;
  spice::SimSession session;
};

void print_run(const std::string& tag, spice::SimSession& session,
               spice::AnalysisPlan plan, unsigned threads) {
  plan.threads = threads;
  std::printf("# %s %s\n", tag.c_str(), plan.name.c_str());
  try {
    const spice::SweepResult r = session.run(plan);
    for (std::size_t row = 0; row < r.rows(); ++row) {
      for (std::size_t a = 0; a < r.axis_count(); ++a) {
        std::printf("%a ", r.axis_value(a, row));
      }
      std::printf("|");
      for (std::size_t p = 0; p < r.probe_count(); ++p) {
        std::printf(" %a", r.value(p, row));
      }
      std::printf("\n");
    }
  } catch (const Error& e) {
    std::printf("error: %s\n", e.what());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> decks(argv + 1, argv + argc);
  unsigned threads = 1;
  if (!decks.empty() && !decks.back().empty() && decks.back().size() <= 2 &&
      decks.back().find_first_not_of("0123456789") == std::string::npos) {
    threads = static_cast<unsigned>(std::stoul(decks.back()));
    decks.pop_back();
  }
  if (decks.empty()) {
    std::fprintf(stderr, "usage: plan_bits <deck>... [threads]\n");
    return 2;
  }
  try {
    for (const std::string& path : decks) {
      std::ifstream in(path);
      if (!in) throw Error("cannot open '" + path + "'");
      const std::string text{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
      const std::size_t plans = spice::parse_netlist(text).plans.size();
      for (std::size_t k = 0; k < plans; ++k) {
        Bound fresh(text);
        print_run(path + " fresh", fresh.session, fresh.parsed.plans[k],
                  threads);
      }
      Bound chained(text);
      for (const spice::AnalysisPlan& plan : chained.parsed.plans) {
        for (const char* pass : {" chained 1", " chained 2"}) {
          print_run(path + pass, chained.session, plan, threads);
        }
      }
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "plan_bits: %s\n", e.what());
    return 1;
  }
  return 0;
}
