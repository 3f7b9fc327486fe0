// End-to-end tests of the SimServer daemon through the C++ client: LOAD /
// RUN / streaming, bit-identity of streamed results against local
// SimSession runs (the server's determinism contract), value-only PATCH on
// a warm session, mid-run cancellation, per-session busy serialisation,
// command error paths, multi-session concurrency, and the TCP endpoint.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "icvbe/common/constants.hpp"
#include "icvbe/server/client.hpp"
#include "icvbe/server/protocol.hpp"
#include "icvbe/server/sim_server.hpp"
#include "icvbe/spice/circuit.hpp"
#include "icvbe/spice/dynamic_devices.hpp"
#include "icvbe/spice/linear_devices.hpp"
#include "icvbe/spice/netlist.hpp"
#include "icvbe/spice/netlist_gen.hpp"
#include "icvbe/spice/param.hpp"
#include "icvbe/spice/plan.hpp"
#include "icvbe/spice/sim_session.hpp"

#include "serve_deck.hpp"

namespace icvbe::server {
namespace {

// A deck describing all three analysis families; DC sweeps the source,
// TRAN sees a pulse, AC sees the unit stimulus.
const char* kComboDeck = R"(
V1 in 0 1 AC 1
R1 in out 1k
C1 out 0 1u
.DC V1 0 1 0.1
.TRAN 10u 1m
.AC DEC 5 1 1k
.PROBE V(out)
)";

// A transient with thousands of accepted points -- long enough that a
// CANCEL issued from the stream always lands mid-run.
const char* kLongTranDeck = R"(
V1 in 0 PULSE(0 1 1u 1u 1u 10u 40u)
R1 in out 1k
C1 out 0 1n
.TRAN 0.5u 2m
.PROBE V(out)
)";

// kLongTranDeck run four times as long, for the cancel test: one
// socket's worth of its DATA frames (4791 rows under Linux's default
// 208 KiB AF_UNIX send buffer) is then well under half of the run.
const char* kCancelTranDeck = R"(
V1 in 0 PULSE(0 1 1u 1u 1u 10u 40u)
R1 in out 1k
C1 out 0 1n
.TRAN 0.5u 8m
.PROBE V(out)
)";

// A diode load makes the small-signal answer depend on the operating
// point; the DC sweep ends at 1.2 V, far from the deck's 0.3 V.
const char* kSweptDiodeDeck = R"(
V1 in 0 0.3 AC 1
R1 in out 1k
D1 out 0 DMOD
C1 out 0 1n
.model DMOD D IS=1e-14
.DC V1 0 1.2 0.1
.AC DEC 5 1k 10meg
.PROBE V(out)
)";

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/icvbe_srv_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// The reference the server must match bit-for-bit: a cold CLI-style run
/// of the deck text (parse, set temperature, seed .NODESETs, run).
spice::SweepResult local_run(const std::string& deck_text,
                             spice::AnalysisKind kind, unsigned threads = 1) {
  auto parsed = spice::parse_netlist(deck_text);
  auto& c = *parsed.circuit;
  c.set_temperature(to_kelvin(parsed.temperature_celsius));
  spice::SimSession sim(c);
  if (!parsed.nodesets.empty()) {
    const int n = c.assign_unknowns();
    spice::Unknowns guess(static_cast<std::size_t>(n));
    for (const auto& [node, value] : parsed.nodesets) {
      const spice::NodeId id = c.node(node);
      if (id != spice::kGround) {
        guess.raw()[static_cast<std::size_t>(id - 1)] = value;
      }
    }
    sim.seed_warm_start(guess);
  }
  const spice::AnalysisPlan* deck_plan = parsed.find_plan(kind);
  EXPECT_NE(deck_plan, nullptr);
  spice::AnalysisPlan plan = *deck_plan;
  plan.threads = threads;
  return sim.run(plan);
}

/// Collects a streamed run; rows keyed by result-row index because
/// parallel AC workers deliver out of order.
class Collector : public RunHandler {
 public:
  void on_init(const std::vector<std::string>& axis_labels,
               const std::vector<std::string>& probe_labels,
               std::size_t expected_rows) override {
    axis_labels_ = axis_labels;
    probe_labels_ = probe_labels;
    expected_rows_ = expected_rows;
    ++inits_;
  }

  void on_data(std::size_t row, const std::vector<double>& axes,
               const std::vector<double>& probes) override {
    const bool fresh = rows_.emplace(row, std::make_pair(axes, probes)).second;
    EXPECT_TRUE(fresh) << "row " << row << " streamed twice";
  }

  std::vector<std::string> axis_labels_;
  std::vector<std::string> probe_labels_;
  std::size_t expected_rows_ = 0;
  int inits_ = 0;
  std::map<std::size_t,
           std::pair<std::vector<double>, std::vector<double>>>
      rows_;
};

/// Every streamed row must equal the local result's bits (operator== on
/// doubles; format_value round-trips exactly).
void expect_stream_matches(const Collector& got,
                           const spice::SweepResult& want) {
  EXPECT_EQ(got.axis_labels_, want.axis_labels());
  EXPECT_EQ(got.probe_labels_, want.probe_labels());
  ASSERT_EQ(got.rows_.size(), want.rows());
  for (const auto& [row, data] : got.rows_) {
    const auto& [axes, probes] = data;
    ASSERT_EQ(axes.size(), want.axis_count());
    ASSERT_EQ(probes.size(), want.probe_count());
    for (std::size_t a = 0; a < axes.size(); ++a) {
      EXPECT_EQ(axes[a], want.axis_value(a, row)) << "axis " << a << " row "
                                                  << row;
    }
    for (std::size_t p = 0; p < probes.size(); ++p) {
      EXPECT_EQ(probes[p], want.value(p, row)) << "probe " << p << " row "
                                               << row;
    }
  }
}

class ServerTest : public ::testing::Test {
 protected:
  void start(unsigned workers = 2, bool tcp = false) {
    ServerConfig cfg;
    if (tcp) {
      cfg.tcp_port = 0;
    } else {
      cfg.socket_path = unique_socket_path();
    }
    cfg.workers = workers;
    server_ = std::make_unique<SimServer>(cfg);
    server_->start();
  }

  Client connect() { return Client::connect_unix(server_->socket_path()); }

  void TearDown() override {
    if (server_) server_->stop();
  }

  std::unique_ptr<SimServer> server_;
};

TEST_F(ServerTest, LoadReportsTheDeckAnalyses) {
  start();
  Client client = connect();
  const auto analyses = client.load("combo", kComboDeck);
  EXPECT_EQ(analyses, (std::vector<std::string>{"DC", "TRAN", "AC"}));
}

TEST_F(ServerTest, StreamedRunIsBitIdenticalToALocalRun) {
  start();
  Client client = connect();
  (void)client.load("combo", kComboDeck);

  for (const char* analysis : {"DC", "TRAN", "AC"}) {
    Collector got;
    const RunResult r = client.run("combo", analysis, &got);
    EXPECT_EQ(r.outcome, RunOutcome::kDone) << analysis;
    EXPECT_EQ(r.rows, got.rows_.size()) << analysis;
    EXPECT_EQ(got.inits_, 1) << analysis;
    const spice::SweepResult want =
        local_run(kComboDeck, spice::analysis_kind_from_token(analysis));
    expect_stream_matches(got, want);
  }
}

TEST_F(ServerTest, ResultsAreBitIdenticalForAnyWorkerCount) {
  // The determinism contract: plan fanout (THREADS=) and server worker
  // count never change a bit of the result. AC is the parallel path.
  const spice::SweepResult want =
      local_run(kComboDeck, spice::AnalysisKind::kAc);
  for (const unsigned workers : {1u, 4u}) {
    start(workers);
    Client client = connect();
    (void)client.load("combo", kComboDeck);
    for (const unsigned threads : {1u, 4u}) {
      Collector got;
      const RunResult r = client.run("combo", "AC", &got, threads);
      EXPECT_EQ(r.outcome, RunOutcome::kDone);
      expect_stream_matches(got, want);
    }
    server_->stop();
    server_.reset();
  }
}

TEST_F(ServerTest, PatchedWarmRerunMatchesAColdRunOfThePatchedDeck) {
  start();
  Client client = connect();
  (void)client.load("combo", kComboDeck);
  Collector before;
  (void)client.run("combo", "DC", &before);

  // Re-program values only; the session keeps its pattern + symbolic LU.
  const std::size_t applied =
      client.patch("combo", "R R1 2.2k\nC C1 2u\nTEMP 85\n");
  EXPECT_EQ(applied, 3u);

  Collector got;
  const RunResult r = client.run("combo", "DC", &got);
  EXPECT_EQ(r.outcome, RunOutcome::kDone);

  // The reference is a cold run of the equivalent deck text.
  std::string patched_deck = kComboDeck;
  patched_deck.replace(patched_deck.find("R1 in out 1k"),
                       std::string("R1 in out 1k").size(),
                       "R1 in out 2.2k");
  patched_deck.replace(patched_deck.find("C1 out 0 1u"),
                       std::string("C1 out 0 1u").size(), "C1 out 0 2u");
  patched_deck.insert(patched_deck.find(".DC"), ".TEMP 85\n");
  const spice::SweepResult want =
      local_run(patched_deck, spice::AnalysisKind::kDcSweep);
  expect_stream_matches(got, want);

  // And the patch genuinely changed the answer.
  ASSERT_EQ(before.rows_.size(), got.rows_.size());
  EXPECT_NE(before.rows_.at(5).second[0], got.rows_.at(5).second[0]);
}

TEST_F(ServerTest, RejectedPatchLeavesTheSessionUnchanged) {
  // Each body's first line is valid; a partial apply would print
  // V(b) = 0.25 instead of 0.5.
  const char* deck = R"(
V1 a 0 1
R1 a b 1k
R2 b 0 1k
.DC V1 1 1 1
.PROBE V(b)
)";
  start();
  Client client = connect();
  (void)client.load("d", deck);
  const spice::SweepResult want =
      local_run(deck, spice::AnalysisKind::kDcSweep);
  const std::pair<const char*, const char*> rejected[] = {
      {"R R1 3k\nR RX 1k\n", "PATCH: no device named 'RX'"},
      {"R R1 3k\nV R2 1\n", "has unexpected type"},
  };
  for (const auto& [body, error] : rejected) {
    try {
      (void)client.patch("d", body);
      FAIL() << "expected CommandError for " << body;
    } catch (const CommandError& e) {
      EXPECT_NE(std::string(e.what()).find(error), std::string::npos)
          << e.what();
    }
    Collector got;
    ASSERT_EQ(client.run("d", "DC", &got).outcome, RunOutcome::kDone);
    expect_stream_matches(got, want);
  }
}

TEST_F(ServerTest, RejectedTemperaturePatchKeepsTheDaemonAlive) {
  // -100 C puts R1's tempco factor at 1 - 0.01 * 127 <= 0, so the
  // resistor rejects the temperature. A sweep run afterwards must neither
  // see nor restore that temperature.
  const char* deck = R"(
V1 in 0 1
R1 in out 1k TC1=0.01
R2 out 0 1k
.TEMP 27
.DC TEMP 0 50 25
.PROBE V(out)
)";
  start();
  Client client = connect();
  (void)client.load("t", deck);
  EXPECT_THROW((void)client.patch("t", "TEMP -100\n"), CommandError);
  Collector got;
  ASSERT_EQ(client.run("t", "DC", &got).outcome, RunOutcome::kDone);
  expect_stream_matches(got, local_run(deck, spice::AnalysisKind::kDcSweep));
  EXPECT_NE(client.status().find("SESSIONS 1\n"), std::string::npos);
}

/// A warm PATCH+RUN cycle of `deck` without the socket: LOAD's setup,
/// then per cycle one of `patches` through the setters PATCH uses, and a
/// RUN of the next kind in `kinds` (begin_variant + run, as execute_run
/// does). After the first RUN, no cycle may repeat the setup a cold LOAD
/// pays: the symbolic analysis stays the first RUN's, and every restamp
/// follows the recorded stamp tape (no slot searches).
void expect_warm_cycles_skip_setup(
    const std::string& deck, const std::vector<spice::AnalysisKind>& kinds,
    const std::vector<std::function<void(spice::Circuit&, int)>>& patches) {
  auto parsed = spice::parse_netlist(deck);
  auto& c = *parsed.circuit;
  c.set_temperature(to_kelvin(parsed.temperature_celsius));
  spice::SimSession sim(c);
  const auto run = [&](spice::AnalysisKind kind) {
    sim.begin_variant();
    return sim.run(*parsed.find_plan(kind));
  };
  const spice::SweepResult first = run(kinds.front());
  const int analyses = sim.sparse_lu().analysis_count();
  ASSERT_EQ(analyses, 1);
  ASSERT_EQ(sim.sparse_matrix().tape().misses(), 0u);

  constexpr int kCycles = 24;
  for (int i = 0; i < kCycles; ++i) {
    patches[static_cast<std::size_t>(i) % patches.size()](c, i);
    const spice::AnalysisKind kind =
        kinds[static_cast<std::size_t>(i + 1) % kinds.size()];
    const spice::SweepResult r = run(kind);
    ASSERT_GT(r.rows(), 0u);
    EXPECT_EQ(sim.sparse_lu().analysis_count(), analyses)
        << "cycle " << i << " (" << spice::to_token(kind)
        << ") re-ran the symbolic analysis";
    EXPECT_EQ(sim.sparse_matrix().tape().misses(), 0u)
        << "cycle " << i << " (" << spice::to_token(kind)
        << ") searched for stamp slots";
  }
  // The patches reached the solves: the first kind's answer moved.
  const spice::SweepResult last = run(kinds.front());
  ASSERT_EQ(last.rows(), first.rows());
  EXPECT_NE(last.value(0, last.rows() - 1), first.value(0, first.rows() - 1));
  EXPECT_EQ(sim.sparse_lu().analysis_count(), analyses);
}

TEST(WarmSessionTest, PatchRunOnALadderKeepsTheAnalysisAndTheStampTape) {
  // A setup-dominated deck: a 400-node ladder with a 7-point DC sweep.
  spice::SyntheticNetlistSpec spec;
  spec.topology = spice::SyntheticTopology::kResistorLadder;
  spec.nodes = 400;
  spec.seed = 7;
  expect_warm_cycles_skip_setup(
      spice::generate_netlist(spec), {spice::AnalysisKind::kDcSweep},
      {[](spice::Circuit& c, int i) {
         c.get<spice::Resistor>("RS5").set_nominal_resistance(500.0 +
                                                              10.0 * i);
       },
       [](spice::Circuit& c, int i) {
         c.get<spice::Resistor>("RG200").set_nominal_resistance(
             9e3 + 100.0 * i);
       },
       [](spice::Circuit& c, int i) {
         c.set_temperature(to_kelvin(25.0 + i));
       }});
}

TEST(WarmSessionTest, PatchRunRotatingDcTranAcKeepsTheAnalysisAndTape) {
  // Every analysis family on one session, every PATCH target the deck
  // has: R, C, the AC-stimulus source, and TEMP.
  expect_warm_cycles_skip_setup(
      kComboDeck,
      {spice::AnalysisKind::kTransient, spice::AnalysisKind::kDcSweep,
       spice::AnalysisKind::kAc},
      {[](spice::Circuit& c, int i) {
         c.get<spice::Resistor>("R1").set_nominal_resistance(1e3 +
                                                             50.0 * i);
       },
       [](spice::Circuit& c, int i) {
         c.get<spice::Capacitor>("C1").set_capacitance(1e-6 * (1.0 + 0.1 * i));
       },
       [](spice::Circuit& c, int i) {
         c.get<spice::VoltageSource>("V1").set_value(0.5 + 0.05 * i);
       },
       [](spice::Circuit& c, int i) {
         c.set_temperature(to_kelvin(-20.0 + 5.0 * i));
       }});
}

TEST(WarmSessionTest, WarmHistoryMatchesColdRunsOfThePatchedDeck) {
  // The serve_mixed traffic on one session: 60 seeded ops, each a PATCH of
  // R100 or TEMP through the binder PATCH uses, then a RUN of DC, TRAN or
  // AC on 2 threads, started as execute_run starts it. Every run must
  // print the CSV a cold run of the patched deck prints, and the history
  // must keep the first run's symbolic analysis.
  const char* const resistances[] = {"90", "95", "100", "105", "110"};
  const char* const celsius[] = {"0", "12.5", "25", "37.5", "50"};
  const spice::AnalysisKind kinds[] = {spice::AnalysisKind::kDcSweep,
                                       spice::AnalysisKind::kTransient,
                                       spice::AnalysisKind::kAc};
  const auto csv = [](const spice::SweepResult& r) {
    std::ostringstream os;
    r.write_csv(os);
    return os.str();
  };
  auto parsed = spice::parse_netlist(spice::testdeck::serve_deck());
  auto& c = *parsed.circuit;
  c.set_temperature(to_kelvin(parsed.temperature_celsius));
  spice::SimSession sim(c);
  std::mt19937 rng(20261019u);
  std::string r100;
  std::string temp;
  for (int op = 0; op < 60; ++op) {
    const bool patch_r = rng() % 2 == 0;
    std::string& value = patch_r ? r100 : temp;
    value = patch_r ? resistances[rng() % 5] : celsius[rng() % 5];
    const PatchCommand patch =
        parse_patch_body((patch_r ? "R R100 " : "TEMP ") + value).at(0);
    spice::BoundParam(patch.param, c).apply(patch.value);

    const spice::AnalysisKind kind = kinds[rng() % 3];
    spice::AnalysisPlan plan = *parsed.find_plan(kind);
    plan.threads = 2;
    sim.begin_variant();
    EXPECT_EQ(csv(sim.run(plan)),
              csv(local_run(spice::testdeck::serve_deck(r100, temp), kind, 2)))
        << "op " << op << ": " << spice::to_token(kind) << " after R100="
        << r100 << " TEMP=" << temp;
  }
  EXPECT_EQ(sim.sparse_lu().analysis_count(), 1);
}

TEST_F(ServerTest, AcAfterADcSweepOnTheSameSessionMatchesAColdAcRun) {
  // The sweep moves V1 to 1.2 V; the session must put the deck's 0.3 V
  // back when the run ends, or the AC operating point moves with it.
  start();
  Client client = connect();
  (void)client.load("d", kSweptDiodeDeck);
  Collector dc;
  ASSERT_EQ(client.run("d", "DC", &dc).outcome, RunOutcome::kDone);
  ASSERT_NEAR(dc.rows_.rbegin()->second.first[0], 1.2, 1e-12);
  Collector got;
  ASSERT_EQ(client.run("d", "AC", &got).outcome, RunOutcome::kDone);
  expect_stream_matches(got,
                        local_run(kSweptDiodeDeck, spice::AnalysisKind::kAc));
}

TEST_F(ServerTest, CancelMidRunStopsStreamingAndKeepsTheSessionUsable) {
  start();
  Client client = connect();
  (void)client.load("tran", kCancelTranDeck);

  // Cancel from inside the stream after a handful of rows -- the
  // interactive front-end gesture. The handler then stops reading until
  // the server has read the CANCEL: meanwhile the run's DATA frames fill
  // the socket and its next write blocks, so the cancel lands within one
  // socket's worth of rows however slowly the host schedules the
  // server's reader, instead of racing a worker free to stream the run.
  // (The wait gives up after a second: a reader that is itself writing
  // held rows into the full socket reads the CANCEL only once the client
  // drains it.)
  class CancelAfter : public RunHandler {
   public:
    CancelAfter(Client& c, std::string id) : client_(c), id_(std::move(id)) {}
    void on_data(std::size_t, const std::vector<double>&,
                 const std::vector<double>&) override {
      if (++rows_ != 5) return;
      client_.cancel(id_);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(1);
      while (client_.unread_by_server() > 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    Client& client_;
    std::string id_;
    std::size_t rows_ = 0;
  };

  CancelAfter handler(client, "tr1");
  const RunResult r =
      client.run("tran", "TRAN", &handler, /*threads=*/1, "tr1");
  EXPECT_EQ(r.outcome, RunOutcome::kCancelled);

  const spice::SweepResult full =
      local_run(kCancelTranDeck, spice::AnalysisKind::kTransient);
  // Cancellation is cooperative at row granularity plus stream latency,
  // but it must land far before the end of a 16000-point transient.
  EXPECT_GE(handler.rows_, 5u);
  EXPECT_LT(handler.rows_, full.rows() / 2);
  EXPECT_LT(r.rows, full.rows() / 2);

  // The cancelled session reruns to completion, bit-identical to cold.
  Collector got;
  const RunResult again = client.run("tran", "TRAN", &got);
  EXPECT_EQ(again.outcome, RunOutcome::kDone);
  expect_stream_matches(got, full);
}

TEST_F(ServerTest, BusySessionRejectsRunPatchCloseAndLoadOver) {
  start();
  Client client = connect();
  (void)client.load("s", kLongTranDeck);

  // Raw frames: queue a long run, then hit the busy session with every
  // command while it is in flight. The server's reader dispatches them in
  // order, so the run is guaranteed registered (busy) before they land.
  client.send_command({"RUN", "busy1", "s", "TRAN"});
  client.send_command({"RUN", "busy2", "s", "TRAN"});
  client.send_command({"PATCH", "s"}, "R R1 2k\n");
  client.send_command({"CLOSE", "s"});
  client.send_command({"LOAD", "s"}, kLongTranDeck);

  Frame f = client.wait_reply();
  EXPECT_EQ(f.head, (std::vector<std::string>{"OK", "RUN", "busy1"}));
  for (const char* cmd : {"RUN", "PATCH", "CLOSE", "LOAD"}) {
    f = client.wait_reply();
    ASSERT_EQ(f.tok(0), "ERR") << cmd;
    EXPECT_EQ(f.tok(1), cmd);
    EXPECT_NE(f.body.find("busy"), std::string::npos) << cmd;
  }

  // Other sessions are unaffected while this one runs.
  client.send_command({"LOAD", "other"}, kComboDeck);
  f = client.wait_reply();
  EXPECT_EQ(f.tok(0), "OK");

  // Wind the run down and verify the session survives its busy episode.
  client.cancel("busy1");
  for (;;) {
    f = client.read_frame();
    if (f.tok(0) == "CANCELLED" || f.tok(0) == "DONE") {
      EXPECT_EQ(f.tok(1), "busy1");
      break;
    }
  }
  Collector got;
  const RunResult r = client.run("s", "TRAN", &got);
  EXPECT_EQ(r.outcome, RunOutcome::kDone);
}

TEST_F(ServerTest, CommandErrorsAreReportedAndTheConnectionSurvives) {
  start();
  Client client = connect();

  // Parse errors at LOAD.
  EXPECT_THROW((void)client.load("bad", "R1 in\n"), CommandError);
  // Unknown session.
  EXPECT_THROW((void)client.run("ghost", "DC"), CommandError);
  // Unknown analysis token.
  (void)client.load("s", kLongTranDeck);
  EXPECT_THROW((void)client.run("s", "NOISE"), CommandError);
  // Analysis the deck does not describe.
  try {
    (void)client.run("s", "AC");
    FAIL() << "expected CommandError";
  } catch (const CommandError& e) {
    EXPECT_NE(std::string(e.what()).find("no AC analysis"),
              std::string::npos);
  }
  // CANCEL of an unknown run id is not an error (it races DONE). STATUS
  // afterwards drains the fire-and-forget ack.
  client.cancel("never-existed");
  (void)client.status();
  // Unknown command.
  client.send_command({"FROBNICATE"});
  const Frame f = client.wait_reply();
  EXPECT_EQ(f.tok(0), "ERR");

  // After all of that, the connection still works end to end.
  Collector got;
  const RunResult r = client.run("s", "TRAN", &got);
  EXPECT_EQ(r.outcome, RunOutcome::kDone);
  EXPECT_GT(got.rows_.size(), 0u);
}

TEST_F(ServerTest, LoadRejectsANodesetOfAMissingNode) {
  start();
  Client client = connect();
  // No card creates node zz: LOAD answers ERR with the parser's
  // line-numbered message and no session is created.
  try {
    (void)client.load("s", "I1 0 a 1m\nR1 a 0 1k\n.NODESET V(zz)=1\n.END\n");
    FAIL() << "expected CommandError";
  } catch (const CommandError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "netlist line 3: .NODESET V(zz): no node named 'zz'"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)client.run("s", "DC"), CommandError);
  // An .IC of a missing node is refused the same way.
  try {
    (void)client.load("s", "V1 a 0 1\nR1 a b 1k\nC1 b 0 1n\n.IC V(zz)=1\n"
                           ".TRAN 1n 10n\n.PROBE V(b)\n");
    FAIL() << "expected CommandError";
  } catch (const CommandError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "netlist line 4: .IC V(zz): no node named 'zz'"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)client.run("s", "TRAN"), CommandError);
  // The connection survives.
  (void)client.load("s", kLongTranDeck);
  const RunResult r = client.run("s", "TRAN");
  EXPECT_EQ(r.outcome, RunOutcome::kDone);
}

TEST_F(ServerTest, TwoSessionsOfOneConnectionRunConcurrently) {
  start(/*workers=*/2);
  Client client = connect();
  (void)client.load("a", kLongTranDeck);
  (void)client.load("b", kLongTranDeck);

  // Queue both runs back to back; with two workers they execute in
  // parallel and their DATA frames interleave on the one socket.
  client.send_command({"RUN", "ra", "a", "TRAN"});
  client.send_command({"RUN", "rb", "b", "TRAN"});

  std::map<std::string, std::size_t> data_rows;
  std::set<std::string> done;
  while (done.size() < 2) {
    const Frame f = client.read_frame();
    const std::string cmd(f.tok(0));
    if (cmd == "DATA") {
      ++data_rows[std::string(f.tok(1))];
    } else if (cmd == "DONE") {
      done.insert(std::string(f.tok(1)));
    } else {
      ASSERT_TRUE(cmd == "OK" || cmd == "INIT") << cmd;
    }
  }
  EXPECT_EQ(done, (std::set<std::string>{"ra", "rb"}));
  const spice::SweepResult full =
      local_run(kLongTranDeck, spice::AnalysisKind::kTransient);
  EXPECT_EQ(data_rows["ra"], full.rows());
  EXPECT_EQ(data_rows["rb"], full.rows());
}

TEST_F(ServerTest, SeparateConnectionsHaveSeparateSessionNamespaces) {
  start();
  Client c1 = connect();
  Client c2 = connect();
  (void)c1.load("shared-name", kComboDeck);
  // c2 does not see c1's session...
  EXPECT_THROW((void)c2.run("shared-name", "DC"), CommandError);
  // ...and may reuse the name for a different deck.
  (void)c2.load("shared-name", kLongTranDeck);
  Collector got;
  EXPECT_EQ(c2.run("shared-name", "TRAN", &got).outcome, RunOutcome::kDone);
  EXPECT_EQ(server_->connection_count(), 2u);
}

TEST_F(ServerTest, StatusReportsSessionsRunsAndWorkers) {
  start(/*workers=*/3);
  Client client = connect();
  (void)client.load("one", kComboDeck);
  (void)client.load("two", kComboDeck);
  const std::string body = client.status();
  EXPECT_NE(body.find("SESSIONS 2\n"), std::string::npos) << body;
  EXPECT_NE(body.find("RUNS 0\n"), std::string::npos) << body;
  EXPECT_NE(body.find("WORKERS 3\n"), std::string::npos) << body;
  EXPECT_EQ(server_->workers(), 3u);
}

TEST_F(ServerTest, CloseDropsTheSession) {
  start();
  Client client = connect();
  (void)client.load("s", kComboDeck);
  client.close_session("s");
  EXPECT_THROW((void)client.run("s", "DC"), CommandError);
  EXPECT_THROW(client.close_session("s"), CommandError);
}

TEST_F(ServerTest, TcpLoopbackEndpointSpeaksTheSameProtocol) {
  start(/*workers=*/2, /*tcp=*/true);
  ASSERT_GT(server_->port(), 0);
  EXPECT_TRUE(server_->socket_path().empty());
  Client client = Client::connect_tcp(server_->port());
  (void)client.load("combo", kComboDeck);
  Collector got;
  const RunResult r = client.run("combo", "DC", &got);
  EXPECT_EQ(r.outcome, RunOutcome::kDone);
  expect_stream_matches(got,
                        local_run(kComboDeck, spice::AnalysisKind::kDcSweep));
}

TEST_F(ServerTest, SoakWarmSessionSurvivesManyPatchRunCycles) {
  // The interactive loop the daemon exists for: one warm session, many
  // patch/rerun cycles, every result bit-identical to a cold run of the
  // equivalently patched deck.
  start();
  Client client = connect();
  (void)client.load("combo", kComboDeck);
  for (int i = 0; i < 20; ++i) {
    const double r_ohm = 500.0 + 250.0 * i;
    (void)client.patch("combo", "R R1 " + std::to_string(r_ohm) + "\n");
    Collector got;
    const RunResult r = client.run("combo", "DC", &got);
    ASSERT_EQ(r.outcome, RunOutcome::kDone) << "cycle " << i;

    std::string patched_deck = kComboDeck;
    patched_deck.replace(patched_deck.find("R1 in out 1k"),
                         std::string("R1 in out 1k").size(),
                         "R1 in out " + std::to_string(r_ohm));
    expect_stream_matches(
        got, local_run(patched_deck, spice::AnalysisKind::kDcSweep));
  }
}

TEST_F(ServerTest, ConcurrentConnectionsSoak) {
  // Several clients hammer the shared worker pool at once; every stream
  // must stay internally consistent and bit-identical to the local run.
  start(/*workers=*/4);
  const spice::SweepResult want =
      local_run(kComboDeck, spice::AnalysisKind::kDcSweep);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      try {
        Client client = connect();
        (void)client.load("mine", kComboDeck);
        for (int i = 0; i < 5; ++i) {
          Collector got;
          const RunResult r = client.run("mine", "DC", &got);
          if (r.outcome != RunOutcome::kDone ||
              got.rows_.size() != want.rows()) {
            ++failures;
            return;
          }
          for (const auto& [row, data] : got.rows_) {
            if (data.second[0] != want.value(0, row)) {
              ++failures;
              return;
            }
          }
        }
      } catch (...) {
        ++failures;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ServerTest, QuitEndsTheConnection) {
  start();
  Client client = connect();
  client.send_command({"QUIT"});
  const Frame f = client.wait_reply();
  EXPECT_EQ(f.head, (std::vector<std::string>{"OK", "QUIT"}));
  EXPECT_THROW((void)client.read_frame(), Error);
}

TEST_F(ServerTest, StopWithInflightRunsDoesNotHang) {
  start();
  auto client = std::make_unique<Client>(connect());
  (void)client->load("s", kLongTranDeck);
  client->send_command({"RUN", "r1", "s", "TRAN"});
  // Give the run a moment to start streaming, then tear the server down
  // under it; stop() must cancel the run and join everything.
  const Frame ok = client->wait_reply();
  EXPECT_EQ(ok.tok(0), "OK");
  server_->stop();
  EXPECT_FALSE(server_->running());
  server_.reset();
}

}  // namespace
}  // namespace icvbe::server
