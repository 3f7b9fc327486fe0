#include "icvbe/server/sim_server.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "icvbe/common/constants.hpp"
#include "icvbe/common/thread_pool.hpp"
#include "icvbe/server/protocol.hpp"
#include "icvbe/spice/circuit.hpp"
#include "icvbe/spice/netlist.hpp"
#include "icvbe/spice/plan.hpp"
#include "icvbe/spice/sim_session.hpp"

namespace icvbe::server {

namespace {

using Clock = std::chrono::steady_clock;

/// DATA-frame coalescing: after a run's first row, rows are held and
/// written together once this long has passed since the run's last write
/// (by the next row, or by the connection's reader if none comes) ...
constexpr Clock::duration kFlushDelay = std::chrono::milliseconds(1);
/// ... or as soon as this many bytes are held.
constexpr std::size_t kFlushBytes = 16 * 1024;

/// Write the whole buffer; returns false once the peer is gone (EPIPE /
/// ECONNRESET) -- callers treat a dead peer as cancellation, never as a
/// server error. MSG_NOSIGNAL keeps a raced disconnect from raising
/// SIGPIPE and killing the daemon.
bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// One warm circuit: parsed once, session bound once (pattern + symbolic
/// LU cached there), .NODESET seed precomputed.
struct Session {
  spice::ParsedNetlist parsed;
  std::unique_ptr<spice::SimSession> sim;
  spice::Unknowns nodeset_guess;
  bool busy = false;  ///< a RUN is in flight; guarded by Connection state
};

struct RunState {
  std::string id;
  std::string session;
  unsigned threads = 1;
  spice::AnalysisKind kind = spice::AnalysisKind::kDcSweep;
  std::atomic<bool> cancel{false};
};

}  // namespace

struct SimServer::Impl {
  ServerConfig config;
  int listen_fd = -1;
  int resolved_port = -1;
  unsigned worker_count = 0;
  std::atomic<bool> running{false};
  std::thread accept_thread;
  std::unique_ptr<common::ThreadPool> pool;

  struct Connection;
  mutable std::mutex conns_mutex;
  std::vector<std::unique_ptr<Connection>> conns;

  void accept_loop();
  void reap_finished_locked();

  struct PendingRows;
};

/// The DATA frames a run holds back for coalescing (StreamObserver).
struct SimServer::Impl::PendingRows {
  explicit PendingRows(Connection& c) : conn(c) {}

  /// Write the held frames, if any. \pre mutex held and !closed.
  void write_locked(Clock::time_point now);

  Connection& conn;  ///< valid while !closed (finish_run closes)
  std::mutex mutex;
  std::string frames;  ///< complete DATA frames not yet written
  std::size_t count = 0;  ///< rows streamed so far
  Clock::time_point last_write{};
  bool held = false;       ///< on the connection's held list
  bool closed = false;     ///< terminal frame written
};

/// One client: a reader thread owning the command dispatch, a write mutex
/// making frames atomic across the reader and the worker pool, and the
/// per-connection session/run registries.
struct SimServer::Impl::Connection {
  /// Throws Error if the reader's wake-up descriptor cannot be created.
  Connection(Impl& server, int fd)
      : server_(server),
        fd_(fd),
        wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
    if (wake_fd_ < 0) throw Error("serve: eventfd() failed");
  }

  Impl& server_;
  const int fd_;
  std::thread reader_;

  // Runs' held DATA rows (StreamObserver), which the reader writes once
  // they fall due; a run that starts holding rows signals wake_fd_ so the
  // reader's wait takes the new deadline into account.
  const int wake_fd_;
  std::mutex held_mutex_;
  std::vector<std::shared_ptr<PendingRows>> held_;

  std::mutex write_mutex_;
  std::atomic<bool> peer_alive{true};

  std::mutex state_mutex_;
  std::condition_variable drained_cv_;
  std::map<std::string, Session> sessions_;
  std::map<std::string, std::shared_ptr<RunState>> runs_;
  std::size_t inflight_ = 0;
  std::atomic<bool> finished{false};  ///< reader exited; reapable

  // ------------------------------------------------------------ output --

  /// Write complete frames atomically with respect to every other writer.
  void write_frames(std::string_view frames) {
    const std::lock_guard<std::mutex> lock(write_mutex_);
    if (!peer_alive.load(std::memory_order_relaxed)) return;
    if (!write_all(fd_, frames)) {
      peer_alive.store(false, std::memory_order_relaxed);
    }
  }

  void send_frame(const std::vector<std::string>& head,
                  std::string_view body = {}) {
    write_frames(encode_frame(head, body));
  }

  void send_ok(const std::vector<std::string>& head,
               std::string_view body = {}) {
    std::vector<std::string> full{"OK"};
    full.insert(full.end(), head.begin(), head.end());
    send_frame(full, body);
  }

  void send_err(const std::string& cmd, const std::string& message) {
    send_frame({"ERR", cmd}, message);
  }

  // ----------------------------------------------------------- dispatch --

  void reader_loop() {
    FrameDecoder decoder;
    char buf[64 * 1024];
    try {
      for (;;) {
        std::optional<Frame> frame;
        while (!(frame = decoder.next()).has_value()) {
          wait_readable();
          const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
          if (n < 0 && errno == EINTR) continue;
          if (n <= 0) goto eof;
          decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
        }
        if (!dispatch(*frame)) break;  // CLOSE of the connection / QUIT
      }
    } catch (const ProtocolError& e) {
      // Unframeable input: report once, then give up on the stream (the
      // decoder can no longer find frame boundaries).
      send_err("PROTOCOL", e.what());
    } catch (...) {
      // Dispatch never intentionally throws; treat like a dead peer.
    }
  eof:
    shutdown_runs();
    finished.store(true, std::memory_order_release);
  }

  /// Block until the socket has input (or hung up), writing held DATA rows
  /// as they fall due meanwhile.
  void wait_readable() {
    for (;;) {
      const Clock::time_point next = flush_held();
      timespec wait{};
      if (next != Clock::time_point::max()) {
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::max(next - Clock::now(), Clock::duration{}))
                            .count();
        wait.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
        wait.tv_nsec = static_cast<long>(ns % 1'000'000'000);
      }
      pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_fd_, POLLIN, 0}};
      const int r = ::ppoll(fds, 2,
                            next == Clock::time_point::max() ? nullptr : &wait,
                            nullptr);
      if (r < 0 && errno != EINTR) return;  // recv() reports the failure
      if ((fds[1].revents & POLLIN) != 0) {
        std::uint64_t signals = 0;
        (void)!::read(wake_fd_, &signals, sizeof signals);
      }
      if (fds[0].revents != 0) return;
    }
  }

  /// A run's on_row started holding rows: have the reader write them when
  /// they fall due.
  void hold(std::shared_ptr<PendingRows> rows) {
    {
      const std::lock_guard<std::mutex> lock(held_mutex_);
      held_.push_back(std::move(rows));
    }
    const std::uint64_t signal = 1;
    (void)!::write(wake_fd_, &signal, sizeof signal);
  }

  /// Write the held rows that are due (and drop finished runs' entries);
  /// returns when the next ones fall due, or time_point::max().
  Clock::time_point flush_held() {
    Clock::time_point next = Clock::time_point::max();
    const Clock::time_point now = Clock::now();
    const std::lock_guard<std::mutex> lock(held_mutex_);
    for (auto it = held_.begin(); it != held_.end();) {
      bool done = false;
      {
        PendingRows& rows = **it;
        const std::lock_guard<std::mutex> rows_lock(rows.mutex);
        const Clock::time_point due = rows.last_write + kFlushDelay;
        done = rows.closed || now >= due;
        if (done) {
          if (!rows.closed) rows.write_locked(now);
          rows.held = false;
        } else {
          next = std::min(next, due);
        }
      }
      // Erase only after unlocking: this may drop the last reference.
      it = done ? held_.erase(it) : it + 1;
    }
    return next;
  }

  /// Returns false when the connection should close.
  bool dispatch(const Frame& f) {
    const std::string cmd(f.tok(0));
    if (cmd == "LOAD") return cmd_load(f), true;
    if (cmd == "RUN") return cmd_run(f), true;
    if (cmd == "CANCEL") return cmd_cancel(f), true;
    if (cmd == "PATCH") return cmd_patch(f), true;
    if (cmd == "CLOSE") return cmd_close(f), true;
    if (cmd == "STATUS") return cmd_status(), true;
    if (cmd == "QUIT") return send_ok({"QUIT"}), false;
    send_err(cmd.empty() ? "?" : cmd, "unknown command");
    return true;
  }

  void cmd_load(const Frame& f) {
    const std::string name(f.tok(1));
    if (name.empty() || f.head.size() != 2) {
      return send_err("LOAD", "usage: LOAD <session> (deck text as body)");
    }
    Session fresh;
    try {
      fresh.parsed = spice::parse_netlist(f.body);
      auto& c = *fresh.parsed.circuit;
      c.set_temperature(to_kelvin(fresh.parsed.temperature_celsius));
      fresh.nodeset_guess = fresh.parsed.nodeset_guess();
      fresh.sim = std::make_unique<spice::SimSession>(c);
    } catch (const Error& e) {
      return send_err("LOAD", e.what());
    }
    std::vector<std::string> head{"LOADED", name};
    for (const auto& plan : fresh.parsed.plans) {
      head.emplace_back(spice::to_token(spice::analysis_kind(plan)));
    }
    {
      const std::lock_guard<std::mutex> lock(state_mutex_);
      const auto it = sessions_.find(name);
      if (it != sessions_.end() && it->second.busy) {
        return send_err("LOAD",
                        "session '" + name + "' busy (run in flight)");
      }
      sessions_[name] = std::move(fresh);
    }
    send_ok(head);
  }

  void cmd_run(const Frame& f) {
    const std::string run_id(f.tok(1));
    const std::string name(f.tok(2));
    if (run_id.empty() || name.empty() || f.head.size() < 4) {
      return send_err(
          "RUN", "usage: RUN <run-id> <session> <DC|TRAN|AC> [THREADS=n]");
    }
    spice::AnalysisKind kind;
    try {
      kind = spice::analysis_kind_from_token(f.tok(3));
    } catch (const Error& e) {
      return send_err("RUN", e.what());
    }
    unsigned threads = 1;
    for (std::size_t i = 4; i < f.head.size(); ++i) {
      const std::string_view opt = f.tok(i);
      if (opt.rfind("THREADS=", 0) == 0) {
        const std::string value(opt.substr(8));
        char* end = nullptr;
        const long parsed = std::strtol(value.c_str(), &end, 10);
        if (end == nullptr || *end != '\0' || parsed < 0 || parsed > 1024) {
          return send_err("RUN", "bad THREADS value '" + value + "'");
        }
        threads = static_cast<unsigned>(parsed);
      } else {
        return send_err("RUN", "unknown option '" + std::string(opt) + "'");
      }
    }

    std::shared_ptr<RunState> run;
    {
      const std::lock_guard<std::mutex> lock(state_mutex_);
      const auto it = sessions_.find(name);
      if (it == sessions_.end()) {
        return send_err("RUN", "no session '" + name + "'");
      }
      if (it->second.busy) {
        return send_err("RUN", "session '" + name + "' busy");
      }
      if (runs_.count(run_id) != 0) {
        return send_err("RUN", "run id '" + run_id + "' already active");
      }
      if (it->second.parsed.find_plan(kind) == nullptr) {
        return send_err("RUN", "deck of session '" + name +
                                   "' describes no " +
                                   std::string(spice::to_token(kind)) +
                                   " analysis");
      }
      run = std::make_shared<RunState>();
      run->id = run_id;
      run->session = name;
      run->threads = threads;
      run->kind = kind;
      it->second.busy = true;
      runs_[run_id] = run;
      ++inflight_;
    }
    send_ok({"RUN", run_id});
    try {
      server_.pool->submit([this, run]() { execute_run(*run); });
    } catch (const Error&) {
      // Pool stopping: the server is shutting down mid-command.
      finish_run(*run, {"FAIL", run->id}, "server shutting down");
    }
  }

  void cmd_cancel(const Frame& f) {
    const std::string run_id(f.tok(1));
    if (run_id.empty() || f.head.size() != 2) {
      return send_err("CANCEL", "usage: CANCEL <run-id>");
    }
    {
      const std::lock_guard<std::mutex> lock(state_mutex_);
      const auto it = runs_.find(run_id);
      // A finished (or never-known) run id is not an error: CANCEL
      // legitimately races DONE.
      if (it != runs_.end()) {
        it->second->cancel.store(true, std::memory_order_relaxed);
      }
    }
    send_ok({"CANCEL", run_id});
  }

  void cmd_patch(const Frame& f) {
    const std::string name(f.tok(1));
    if (name.empty() || f.head.size() != 2) {
      return send_err("PATCH",
                      "usage: PATCH <session> (patch lines as body)");
    }
    std::vector<PatchCommand> patches;
    try {
      patches = parse_patch_body(f.body);
    } catch (const ProtocolError& e) {
      return send_err("PATCH", e.what());
    }
    {
      const std::lock_guard<std::mutex> lock(state_mutex_);
      const auto it = sessions_.find(name);
      if (it == sessions_.end()) {
        return send_err("PATCH", "no session '" + name + "'");
      }
      if (it->second.busy) {
        return send_err("PATCH", "session '" + name + "' busy");
      }
      // Applying under the state mutex is safe: only non-busy sessions
      // get here, so no worker is touching this circuit. Every line binds
      // before any applies, and the guard puts back what a failing line
      // left applied: a PATCH is all or nothing.
      try {
        spice::ParamGuard guard(*it->second.parsed.circuit);
        std::vector<spice::BoundParam> bound;
        bound.reserve(patches.size());
        for (const PatchCommand& p : patches) {
          bound.push_back(guard.save(p.param));
        }
        for (std::size_t i = 0; i < patches.size(); ++i) {
          bound[i].apply(patches[i].value);
        }
        guard.dismiss();
      } catch (const Error& e) {
        return send_err("PATCH", e.what());
      }
    }
    send_ok({"PATCHED", name, std::to_string(patches.size())});
  }

  void cmd_close(const Frame& f) {
    const std::string name(f.tok(1));
    if (name.empty() || f.head.size() != 2) {
      return send_err("CLOSE", "usage: CLOSE <session>");
    }
    {
      const std::lock_guard<std::mutex> lock(state_mutex_);
      const auto it = sessions_.find(name);
      if (it == sessions_.end()) {
        return send_err("CLOSE", "no session '" + name + "'");
      }
      if (it->second.busy) {
        return send_err("CLOSE", "session '" + name + "' busy");
      }
      sessions_.erase(it);
    }
    send_ok({"CLOSED", name});
  }

  void cmd_status() {
    std::size_t n_sessions = 0;
    std::size_t n_runs = 0;
    {
      const std::lock_guard<std::mutex> lock(state_mutex_);
      n_sessions = sessions_.size();
      n_runs = runs_.size();
    }
    std::string body;
    body += "SESSIONS " + std::to_string(n_sessions) + "\n";
    body += "RUNS " + std::to_string(n_runs) + "\n";
    body += "WORKERS " + std::to_string(server_.worker_count) + "\n";
    send_ok({"STATUS"}, body);
  }

  // ---------------------------------------------------------- execution --

  /// Streams a run's points as DATA frames; returning false from on_row
  /// (cancel flag, dead peer) makes the engine throw CancelledError.
  ///
  /// Rows are coalesced: the first is written at once, later ones are
  /// appended to the run's PendingRows and written together once
  /// kFlushDelay has passed since the last write or kFlushBytes are held
  /// -- by the next on_row, or by the connection's reader when the run is
  /// slow to produce it -- and always ahead of the terminal frame
  /// (finish_run). A transient of a few hundred points then costs a few
  /// writes instead of one per row; frames and their order are unchanged.
  class StreamObserver : public spice::RunObserver {
   public:
    StreamObserver(Connection& conn, RunState& run)
        : conn_(conn),
          run_(run),
          rows_(std::make_shared<PendingRows>(conn)) {}

    void on_begin(const std::vector<std::string>& axis_labels,
                  const std::vector<std::string>& probe_labels,
                  std::size_t expected_rows) override {
      std::string body = "AXES";
      for (const std::string& l : axis_labels) body += '\t' + l;
      body += "\nPROBES";
      for (const std::string& l : probe_labels) body += '\t' + l;
      body += "\nROWS " + std::to_string(expected_rows) + "\n";
      conn_.send_frame({"INIT", run_.id}, body);
    }

    bool on_row(std::size_t row, const double* axes, std::size_t axis_count,
                const double* probes, std::size_t probe_count) override {
      if (run_.cancel.load(std::memory_order_relaxed)) return false;
      if (!conn_.peer_alive.load(std::memory_order_relaxed)) return false;
      std::string body;
      for (std::size_t i = 0; i < axis_count; ++i) {
        if (i > 0) body += ' ';
        body += format_value(axes[i]);
      }
      for (std::size_t i = 0; i < probe_count; ++i) {
        body += ' ';
        body += format_value(probes[i]);
      }
      const std::string frame =
          encode_frame({"DATA", run_.id, std::to_string(row)}, body);
      bool hold = false;
      {
        // Parallel AC workers deliver concurrently; the mutex keeps frames
        // whole and orders them with the reader's writes.
        const std::lock_guard<std::mutex> lock(rows_->mutex);
        rows_->frames += frame;
        ++rows_->count;
        const Clock::time_point now = Clock::now();
        if (rows_->count == 1 || rows_->frames.size() >= kFlushBytes ||
            now - rows_->last_write >= kFlushDelay) {
          rows_->write_locked(now);
        } else if (!rows_->held) {
          rows_->held = hold = true;
        }
      }
      if (hold) conn_.hold(rows_);
      return true;
    }

    /// Rows streamed; read once run() has returned (every worker that
    /// delivered rows has been joined by then).
    [[nodiscard]] std::size_t rows_sent() const noexcept {
      return rows_->count;
    }
    [[nodiscard]] PendingRows* rows() const noexcept { return rows_.get(); }

   private:
    Connection& conn_;
    RunState& run_;
    std::shared_ptr<PendingRows> rows_;
  };

  /// Worker-pool body of one RUN.
  void execute_run(RunState& run) {
    Session* sess = nullptr;
    {
      const std::lock_guard<std::mutex> lock(state_mutex_);
      sess = &sessions_.at(run.session);  // busy flag pins the entry
    }
    StreamObserver observer(*this, run);
    try {
      const spice::AnalysisPlan* deck_plan =
          sess->parsed.find_plan(run.kind);
      spice::AnalysisPlan plan = *deck_plan;
      plan.threads = run.threads;

      // Deterministic start state: device state and warm seed reset to
      // the deck-described start, like a cold CLI run of the (patched)
      // deck; 2-axis rows also re-pin the sparse analysis themselves.
      auto& sim = *sess->sim;
      sim.begin_variant();
      if (!sess->parsed.nodesets.empty()) {
        sim.seed_warm_start(sess->nodeset_guess);
      }

      (void)sim.run(plan, &observer);
      finish_run(run, {"DONE", run.id, std::to_string(observer.rows_sent())},
                 {}, observer.rows());
    } catch (const spice::CancelledError&) {
      finish_run(run,
                 {"CANCELLED", run.id, std::to_string(observer.rows_sent())},
                 {}, observer.rows());
    } catch (const std::exception& e) {
      finish_run(run, {"FAIL", run.id}, e.what(), observer.rows());
    }
  }

  /// `rows` (the run's held DATA frames, if it streamed any) is written
  /// ahead of the terminal frame, in the same write.
  void finish_run(RunState& run, const std::vector<std::string>& head,
                  std::string_view body = {}, PendingRows* rows = nullptr) {
    // Release the session *before* the terminal frame goes out: a client
    // that reruns the instant it sees DONE/CANCELLED must never bounce
    // off a stale busy flag. The inflight count, by contrast, drops only
    // after the send -- teardown destroys this connection once it reaches
    // zero, so it must cover every touch of the connection.
    {
      const std::lock_guard<std::mutex> lock(state_mutex_);
      const auto it = sessions_.find(run.session);
      if (it != sessions_.end()) it->second.busy = false;
      runs_.erase(run.id);
    }
    if (rows == nullptr) {
      send_frame(head, body);
    } else {
      // Closing under the rows mutex waits out a write of the reader's in
      // progress and keeps the reader from writing these rows again.
      const std::lock_guard<std::mutex> lock(rows->mutex);
      rows->frames += encode_frame(head, body);
      rows->write_locked(Clock::now());
      rows->closed = true;
    }
    {
      // Notify under the lock: the moment a waiter in shutdown_runs can
      // observe inflight_ == 0 the connection may be reaped, so the
      // condvar must not be touched after this mutex is released.
      const std::lock_guard<std::mutex> lock(state_mutex_);
      --inflight_;
      drained_cv_.notify_all();
    }
  }

  // ----------------------------------------------------------- teardown --

  /// Reader is gone (EOF or server stop): flip every cancel flag and wait
  /// until the in-flight count drains so no worker touches the sessions
  /// this connection is about to destroy.
  void shutdown_runs() {
    std::unique_lock<std::mutex> lock(state_mutex_);
    for (auto& [id, run] : runs_) {
      run->cancel.store(true, std::memory_order_relaxed);
    }
    peer_alive.store(false, std::memory_order_relaxed);
    drained_cv_.wait(lock, [&] { return inflight_ == 0; });
  }
};

void SimServer::Impl::PendingRows::write_locked(Clock::time_point now) {
  if (frames.empty()) return;
  conn.write_frames(frames);
  frames.clear();
  last_write = now;
}

// ------------------------------------------------------------ SimServer ---

SimServer::SimServer(ServerConfig config)
    : impl_(std::make_unique<Impl>()) {
  impl_->config = std::move(config);
}

SimServer::~SimServer() { stop(); }

void SimServer::start() {
  ICVBE_REQUIRE(!impl_->running.load(), "SimServer: already running");
  Impl& s = *impl_;

  if (!s.config.socket_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (s.config.socket_path.size() >= sizeof addr.sun_path) {
      throw Error("serve: socket path too long: " + s.config.socket_path);
    }
    std::strncpy(addr.sun_path, s.config.socket_path.c_str(),
                 sizeof addr.sun_path - 1);
    s.listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (s.listen_fd < 0) throw Error("serve: socket() failed");
    ::unlink(s.config.socket_path.c_str());  // stale socket from a crash
    if (::bind(s.listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0) {
      ::close(s.listen_fd);
      s.listen_fd = -1;
      throw Error("serve: cannot bind '" + s.config.socket_path +
                  "': " + std::strerror(errno));
    }
  } else {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // local only, always
    addr.sin_port =
        htons(static_cast<std::uint16_t>(s.config.tcp_port));
    s.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (s.listen_fd < 0) throw Error("serve: socket() failed");
    const int one = 1;
    ::setsockopt(s.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(s.listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0) {
      ::close(s.listen_fd);
      s.listen_fd = -1;
      throw Error("serve: cannot bind loopback port " +
                  std::to_string(s.config.tcp_port) + ": " +
                  std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    ::getsockname(s.listen_fd, reinterpret_cast<sockaddr*>(&bound), &len);
    s.resolved_port = ntohs(bound.sin_port);
  }
  if (::listen(s.listen_fd, 64) != 0) {
    ::close(s.listen_fd);
    s.listen_fd = -1;
    throw Error("serve: listen() failed");
  }

  s.worker_count = common::resolve_thread_count(s.config.workers);
  s.pool = std::make_unique<common::ThreadPool>(s.worker_count);
  s.running.store(true);
  s.accept_thread = std::thread([&s]() { s.accept_loop(); });
}

void SimServer::Impl::accept_loop() {
  while (running.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int r = ::poll(&pfd, 1, 100);
    {
      // Opportunistic reap keeps a long-lived daemon's finished
      // connections from accumulating.
      const std::lock_guard<std::mutex> lock(conns_mutex);
      reap_finished_locked();
    }
    if (r <= 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    std::unique_ptr<Connection> conn;
    try {
      conn = std::make_unique<Connection>(*this, fd);
    } catch (const Error&) {
      ::close(fd);  // out of descriptors: refuse this client, keep serving
      continue;
    }
    Connection* raw = conn.get();
    raw->reader_ = std::thread([raw]() { raw->reader_loop(); });
    const std::lock_guard<std::mutex> lock(conns_mutex);
    conns.push_back(std::move(conn));
  }
}

void SimServer::Impl::reap_finished_locked() {
  for (auto it = conns.begin(); it != conns.end();) {
    if ((*it)->finished.load(std::memory_order_acquire)) {
      (*it)->reader_.join();
      ::close((*it)->fd_);
      ::close((*it)->wake_fd_);
      it = conns.erase(it);
    } else {
      ++it;
    }
  }
}

void SimServer::stop() {
  Impl& s = *impl_;
  if (!s.running.exchange(false)) return;
  if (s.accept_thread.joinable()) s.accept_thread.join();
  if (s.listen_fd >= 0) {
    ::close(s.listen_fd);
    s.listen_fd = -1;
  }
  if (!s.config.socket_path.empty()) {
    ::unlink(s.config.socket_path.c_str());
  }
  {
    // Wake every reader with a shutdown so connections drain: cancel
    // their runs, then close the sockets out from under recv().
    const std::lock_guard<std::mutex> lock(s.conns_mutex);
    for (auto& conn : s.conns) {
      const std::lock_guard<std::mutex> state(conn->state_mutex_);
      for (auto& [id, run] : conn->runs_) {
        run->cancel.store(true, std::memory_order_relaxed);
      }
      ::shutdown(conn->fd_, SHUT_RDWR);
    }
  }
  for (;;) {
    {
      const std::lock_guard<std::mutex> lock(s.conns_mutex);
      s.reap_finished_locked();
      if (s.conns.empty()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (s.pool) {
    s.pool->stop_and_join();
    s.pool.reset();
  }
}

bool SimServer::running() const noexcept { return impl_->running.load(); }

const std::string& SimServer::socket_path() const noexcept {
  return impl_->config.socket_path;
}

int SimServer::port() const noexcept { return impl_->resolved_port; }

unsigned SimServer::workers() const noexcept { return impl_->worker_count; }

std::size_t SimServer::connection_count() const {
  const std::lock_guard<std::mutex> lock(impl_->conns_mutex);
  return impl_->conns.size();
}

void SimServer::serve_until(const std::atomic<bool>& interrupt) {
  if (!running()) start();
  while (!interrupt.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  stop();
}

}  // namespace icvbe::server
