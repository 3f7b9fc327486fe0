// serve_mixed: an in-process SimServer (2 workers, AF_UNIX) driven by one
// server::Client, closed loop. One op is a value PATCH (a resistor or the
// temperature) then a RUN rotating through DC, TRAN and AC, timed to the
// terminal frame; every tenth op is instead a cold LOAD into a fresh
// session plus the RUN. The only workload that exercises the server, the
// transient and AC engines, and warm-session reuse.

#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <tuple>

#include <unistd.h>

#include "bench.hpp"
#include "icvbe/common/constants.hpp"
#include "icvbe/server/client.hpp"
#include "icvbe/server/sim_server.hpp"
#include "icvbe/spice/device.hpp"
#include "icvbe/spice/netlist.hpp"
#include "icvbe/spice/sim_session.hpp"

namespace icvbe_bench {
namespace {

using namespace icvbe;

constexpr int kStages = 200;
constexpr int kSetupRepeats = 3;
constexpr int kPatchedStage = 100;  ///< PATCHes target R100
/// PATCH values are drawn from short lists, so the local references the
/// streamed rows are checked against repeat and are computed once each.
const char* const kResistances[] = {"90", "95", "100", "105", "110"};
const char* const kCelsius[] = {"0", "12.5", "25", "37.5", "50"};
const char* const kAnalyses[] = {"DC", "TRAN", "AC"};
const char* const kRunSpans[] = {"server.run.dc", "server.run.tran",
                                 "server.run.ac"};
const char* const kLocalSpans[] = {"plan.run", "tran.run", "ac.run"};

/// Which PATCH values a session carries (-1 = the deck's own value).
struct DeckState {
  int r = -1;
  int t = -1;
};

/// The deck: a 200-stage RC ladder with a diode-connected PNP load,
/// carrying .DC, .TRAN and .AC. A patched state renders as the equivalent
/// deck text, which is what the server's results must match.
///
/// The .DC sweep ends exactly on V1's own DC value (1 V, binary-exact
/// grid). SimSession::run leaves a swept source at its last grid value,
/// so on a warm server session an AC RUN after a DC RUN would solve its
/// operating point at the sweep's end value instead of the deck's; ending
/// the sweep on the deck value keeps that defect (see README.md) from
/// failing every AC op.
std::string serve_deck(DeckState s) {
  std::ostringstream d;
  d << "* serve_mixed: RC ladder with a diode-connected PNP load\n"
    << "V1 n0 0 PULSE(1 0.5 0 10u 10u 200u 400u) AC 1\n";
  for (int k = 1; k <= kStages; ++k) {
    d << "R" << k << " n" << k - 1 << " n" << k << " ";
    if (k == kPatchedStage && s.r >= 0) {
      d << kResistances[s.r];
    } else {
      d << 90 + (k * 37) % 21;
    }
    d << "\nC" << k << " n" << k << " 0 100p\n";
  }
  d << "Q1 0 0 n" << kStages << " PMOD\n"
    << ".MODEL PMOD PNP (IS=1e-16 BF=50)\n"
    << ".TEMP " << (s.t >= 0 ? kCelsius[s.t] : "27") << "\n"
    << ".DC V1 0 1 0.125\n.TRAN 5u 500u\n.AC DEC 10 1k 100meg\n"
    << ".PROBE V(n" << kStages << ") V(n" << kPatchedStage << ") I(V1)\n"
    << ".END\n";
  return d.str();
}

/// Hashes the streamed rows and times the first one.
class StreamHash : public server::RunHandler {
 public:
  explicit StreamHash(Tracer& tracer) : tracer_(tracer) {}

  void reset(Clock::time_point sent) {
    hash_ = BitHash{};
    rows_ = 0;
    in_order_ = true;
    sent_ = sent;
    first_ = sent;
  }

  void on_data(std::size_t row, const std::vector<double>& axes,
               const std::vector<double>& probes) override {
    if (rows_ == 0) {
      first_ = Clock::now();
      tracer_.add("server.first_row", sent_, first_);
    }
    in_order_ = in_order_ && row == rows_;
    hash_.add(static_cast<std::uint64_t>(row));
    for (double v : axes) hash_.add(v);
    for (double v : probes) hash_.add(v);
    ++rows_;
  }

  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_.value(); }
  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] bool in_order() const noexcept { return in_order_; }
  [[nodiscard]] double first_row_ms() const { return ms_between(sent_, first_); }

 private:
  Tracer& tracer_;
  BitHash hash_;
  std::size_t rows_ = 0;
  bool in_order_ = true;
  Clock::time_point sent_;
  Clock::time_point first_;
};

/// One RUN as the client saw it, checked after the timed loop.
struct ServedRun {
  DeckState state;
  int analysis = 0;
  std::uint64_t hash = 0;
  std::size_t rows = 0;
  bool done = false;
  bool in_order = true;
  bool counted_failed = false;  ///< already counted as a failed op
  bool traced = false;
  double round_trip_ms = 0.0;   ///< RUN sent to terminal frame
};

struct Reference {
  std::uint64_t hash = 0;
  std::size_t rows = 0;
  double warm_run_ms = 0.0;  ///< local SimSession::run on a warm session
};

/// The reference a RUN must match bit for bit: a local SimSession::run of
/// the equivalently patched deck, started the way the server starts every
/// RUN (device state reset, warm start forgotten). A traced run also times
/// a second, warm local run -- the server's overhead baseline.
Reference local_reference(DeckState state, int analysis, bool timed,
                          Tracer& tracer, Record& rec) {
  spice::ParsedNetlist parsed;
  {
    ScopedSpan s(tracer, "netlist.parse");
    parsed = spice::parse_netlist(serve_deck(state));
  }
  auto& c = *parsed.circuit;
  c.set_temperature(to_kelvin(parsed.temperature_celsius));
  std::optional<spice::SimSession> sim;
  {
    ScopedSpan s(tracer, "session.bind");
    sim.emplace(c);
  }
  spice::AnalysisPlan plan = *parsed.find_plan(
      spice::analysis_kind_from_token(kAnalyses[analysis]));
  plan.threads = 1;
  const auto reset = [&]() {
    for (const auto& dev : c.devices()) dev->reset_state();
    sim->invalidate_warm_start();
  };
  Reference ref;
  reset();
  const spice::SweepResult cold = sim->run(plan);
  ref.hash = hash_result(cold);
  ref.rows = cold.rows();
  if (timed) {
    spice::SweepResult warm;
    reset();
    const auto t0 = Clock::now();
    {
      // Per-row timing and the CSV writer on the DC runs (the plan layer's
      // row metrics); the transient and AC engines are timed whole.
      RowTimer rows(tracer);
      ScopedSpan s(tracer, kLocalSpans[analysis]);
      warm = sim->run(plan, analysis == 0 ? &rows : nullptr);
    }
    ref.warm_run_ms = ms_since(t0);
    if (analysis == 0) {
      std::ostringstream csv;
      ScopedSpan s(tracer, "plan.csv");
      warm.write_csv(csv);
    }
    if (hash_result(warm) != ref.hash) {
      rec.problem("a warm local rerun differs from the cold local run");
    }
    const char* count[] = {"plan.rows", "tran.steps", "ac.points"};
    rec.counts[count[analysis]] = static_cast<double>(ref.rows);
  }
  return ref;
}

std::string socket_path(const Options& opt, int k) {
  std::ostringstream path;
  path << opt.scratch << "/serve-" << ::getpid() << "-" << k << ".sock";
  return path.str();
}

}  // namespace

void run_serve_mixed(const Options& opt, Tracer& tracer, Record& rec) {
  std::filesystem::create_directories(opt.scratch);
  const std::string nominal = serve_deck({});

  std::unique_ptr<server::SimServer> srv;
  std::optional<server::Client> client;
  std::string session;
  DeckState state;
  int servers = 0;
  // Set-up, at the start of every window: SimServer::start, connect, and
  // the first LOAD, a few times; the last server serves the window.
  const auto start_server = [&](int) {
    for (int k = 0; k < kSetupRepeats; ++k) {
      client.reset();
      srv.reset();
      const auto t0 = Clock::now();
      server::ServerConfig cfg;
      cfg.socket_path = socket_path(opt, servers++);
      cfg.workers = 2;
      srv = std::make_unique<server::SimServer>(cfg);
      srv->start();
      client.emplace(server::Client::connect_unix(cfg.socket_path));
      const auto analyses = client->load("s0", nominal);
      rec.add_setup(ms_since(t0) / 1e3);
      if (analyses.size() != 3) rec.problem("LOAD did not report DC TRAN AC");
    }
    session = "s0";
    state = {};
  };

  std::vector<ServedRun> served;
  StreamHash stream(tracer);
  auto serve_run = [&](int analysis) {
    ServedRun r;
    r.state = state;
    r.analysis = analysis;
    r.traced = tracer.active();
    const auto sent = Clock::now();
    stream.reset(sent);
    server::RunResult result;
    {
      ScopedSpan s(tracer, kRunSpans[analysis]);
      result = client->run(session, kAnalyses[analysis], &stream);
    }
    r.round_trip_ms = ms_since(sent);
    r.done = result.outcome == server::RunOutcome::kDone &&
             result.rows == stream.rows();
    r.hash = stream.hash();
    r.rows = stream.rows();
    r.in_order = stream.in_order();
    if (!r.traced && r.rows > 0) {
      rec.values["first_row_ms"].push_back(stream.first_row_ms());
    }
    served.push_back(r);
    return r.done;
  };

  std::mt19937_64 rng(opt.seed);
  steady_loop(opt, tracer, rec, start_server, [&](int index) {
    const int analysis = index % 3;
    const bool cold = index % 10 == 9;
    const std::size_t runs_before = served.size();
    const auto t0 = Clock::now();
    OpOutcome out;
    try {
      ScopedSpan op(tracer, "op");
      std::string old_session;
      if (cold) {
        old_session = session;
        std::ostringstream name;
        name << "s" << index + 1;
        session = name.str();
        ScopedSpan s(tracer, "server.load");
        (void)client->load(session, nominal);
        state = {};
      } else {
        const bool resistor = index % 2 == 0;
        const int v = static_cast<int>(rng() % 5);
        std::ostringstream body;
        if (resistor) {
          body << "R R" << kPatchedStage << " " << kResistances[v];
        } else {
          body << "TEMP " << kCelsius[v];
        }
        ScopedSpan s(tracer, "server.patch");
        (void)client->patch(session, body.str());
        (resistor ? state.r : state.t) = v;
      }
      out.ok = serve_run(analysis);
      out.ms = ms_since(t0);
      if (cold) client->close_session(old_session);
    } catch (const std::exception& e) {
      out.ok = false;
      out.ms = ms_since(t0);
      rec.problem(std::string("op failed: ") + e.what());
    }
    if (!out.ok && served.size() > runs_before) {
      served.back().counted_failed = true;
    }
    return out;
  });
  client.reset();
  srv->stop();

  // Every streamed row, bit-exact against the local reference.
  tracer.set_active(opt.trace);
  std::map<std::tuple<int, int, int>, Reference> refs;
  for (ServedRun& r : served) {
    const auto key = std::make_tuple(r.state.r, r.state.t, r.analysis);
    auto it = refs.find(key);
    if (it == refs.end()) {
      it = refs.emplace(key, local_reference(r.state, r.analysis, opt.trace,
                                             tracer, rec))
               .first;
    }
    const Reference& ref = it->second;
    const bool ok = r.done && r.in_order && r.rows == ref.rows &&
                    r.hash == ref.hash;
    if (!ok && !r.counted_failed) {
      ++rec.failed;
      r.counted_failed = true;
    }
    if (r.traced) {
      rec.values["server.overhead_ms"].push_back(r.round_trip_ms -
                                                 ref.warm_run_ms);
    }
  }
  if (opt.trace) replay_mna(nominal, tracer, rec);
  tracer.set_active(false);
}

}  // namespace icvbe_bench
