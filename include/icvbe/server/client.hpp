#pragma once
// icvbe::server::Client -- C++ client of the SimServer protocol.
//
// The client mirrors the shape of the ngspice sharedspice callback API:
// a run delivers an init callback (labels, expected row count) and one
// data callback per point as points complete on the server, then a
// terminal outcome. All calls are synchronous on the calling thread; the
// one concession to interactivity is cancel(), which only *writes* a
// CANCEL frame (the socket is full-duplex) and is therefore safe to call
// from inside on_data() -- the canonical "stop this sweep" gesture of an
// interactive front end.
//
// Threading: a Client is NOT thread-safe; drive it from one thread.

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "icvbe/server/protocol.hpp"

namespace icvbe::server {

/// Per-point delivery interface of Client::run (the fnSendInitData /
/// fnSendData shape). Default implementations ignore everything, so a
/// handler overrides only what it needs.
class RunHandler {
 public:
  virtual ~RunHandler() = default;
  virtual void on_init(const std::vector<std::string>& axis_labels,
                       const std::vector<std::string>& probe_labels,
                       std::size_t expected_rows) {
    (void)axis_labels;
    (void)probe_labels;
    (void)expected_rows;
  }
  /// One streamed point. `row` is the result-row index (parallel AC runs
  /// deliver out of order); values are bit-exact vs the server's result.
  virtual void on_data(std::size_t row, const std::vector<double>& axes,
                       const std::vector<double>& probes) {
    (void)row;
    (void)axes;
    (void)probes;
  }
};

/// Terminal state of one run.
enum class RunOutcome { kDone, kCancelled, kFailed };

struct RunResult {
  RunOutcome outcome = RunOutcome::kDone;
  std::size_t rows = 0;   ///< DATA frames the server sent
  std::string error;      ///< FAIL message (empty otherwise)
};

/// Server-side command rejection (an ERR reply).
class CommandError : public Error {
 public:
  explicit CommandError(const std::string& what) : Error(what) {}
};

class Client {
 public:
  /// Connect to an AF_UNIX socket path.
  static Client connect_unix(const std::string& socket_path);
  /// Connect to a loopback TCP port.
  static Client connect_tcp(int port);

  Client(Client&& other) noexcept;
  Client& operator=(Client&&) = delete;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// LOAD a deck into a named server session. Returns the analysis
  /// tokens the deck describes ({"DC","TRAN"}...). Throws CommandError
  /// on rejection (parse error, busy session).
  std::vector<std::string> load(const std::string& session,
                                std::string_view deck);

  /// RUN an analysis and stream it through `handler` until the terminal
  /// frame. `analysis` is "DC", "TRAN", or "AC" (case-insensitive).
  /// `threads` is the server-side plan fanout. `run_id` names the run on
  /// the wire (the protocol's client-chosen ids); empty = auto-generate.
  /// Returns the terminal outcome; throws CommandError only if the RUN
  /// command itself is rejected (run-level FAIL is an outcome, not an
  /// exception).
  RunResult run(const std::string& session, const std::string& analysis,
                RunHandler* handler = nullptr, unsigned threads = 1,
                const std::string& run_id = {});

  /// Send CANCEL for the active (or any) run id. Fire-and-forget: the
  /// OK ack is collected by the inbox loop. Safe from inside on_data().
  void cancel(const std::string& run_id);

  /// PATCH session values; `body` is patch lines ("R R1 2k\nTEMP 85").
  /// Returns the number of applied patches.
  std::size_t patch(const std::string& session, std::string_view body);

  /// CLOSE a server session.
  void close_session(const std::string& session);

  /// STATUS body text ("SESSIONS n\nRUNS n\nWORKERS n\n").
  std::string status();

  // Low-level access (tests exercise error paths through these).

  /// Send a raw command frame.
  void send_command(const std::vector<std::string>& head,
                    std::string_view body = {});
  /// Block until the next non-stream reply (OK/ERR) arrives and return
  /// it. Stream frames arriving in between are discarded.
  Frame wait_reply();
  /// Read the next frame off the socket, whatever it is (blocking).
  /// Throws Error on EOF.
  Frame read_frame();
  /// On an AF_UNIX connection: bytes this client wrote that the server
  /// has not read off the socket yet (SIOCOUTQ). 0 means every command
  /// sent so far has reached the server's reader.
  [[nodiscard]] std::size_t unread_by_server() const;

 private:
  explicit Client(int fd);
  /// Send head/body and wait for its OK/ERR ack; throws CommandError on
  /// ERR. Returns the OK frame.
  Frame request(const std::vector<std::string>& head,
                std::string_view body = {});

  int fd_ = -1;
  FrameDecoder decoder_;
  std::uint64_t next_run_ = 0;  ///< client-chosen run-id counter
};

}  // namespace icvbe::server
