#include "icvbe/server/client.hpp"

#include <arpa/inet.h>
#include <linux/sockios.h>
#include <netinet/in.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace icvbe::server {

namespace {

/// Send the whole buffer; throws on a dead peer.
void write_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
#ifdef MSG_NOSIGNAL
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
#else
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, 0);
#endif
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      throw Error("client: server connection lost while sending");
    }
    off += static_cast<std::size_t>(n);
  }
}

std::string join_head(const std::vector<std::string>& head) {
  std::string out;
  for (std::size_t i = 0; i < head.size(); ++i) {
    if (i > 0) out += ' ';
    out += head[i];
  }
  return out;
}

/// Split one line of space-separated format_value numbers; strtod keeps
/// the round-trip bit-exact.
std::vector<double> parse_values(std::string_view line) {
  std::vector<double> out;
  const char* p = line.data();
  const char* const end = p + line.size();
  while (p < end) {
    while (p < end && *p == ' ') ++p;
    if (p >= end) break;
    // The body is NUL-free and ends the frame, but strtod needs a
    // terminator; copy the token.
    const char* q = p;
    while (q < end && *q != ' ') ++q;
    const std::string tok(p, q);
    out.push_back(std::strtod(tok.c_str(), nullptr));
    p = q;
  }
  return out;
}

/// Split tab-separated labels after the leading keyword token.
std::vector<std::string> parse_labels(std::string_view line) {
  std::vector<std::string> out;
  std::size_t pos = line.find('\t');
  while (pos != std::string_view::npos) {
    const std::size_t next = line.find('\t', pos + 1);
    out.emplace_back(line.substr(
        pos + 1,
        next == std::string_view::npos ? line.size() - pos - 1
                                       : next - pos - 1));
    pos = next;
  }
  return out;
}

bool is_stream_head(std::string_view cmd) {
  return cmd == "INIT" || cmd == "DATA" || cmd == "DONE" ||
         cmd == "CANCELLED" || cmd == "FAIL";
}

}  // namespace

Client Client::connect_unix(const std::string& socket_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw Error("client: socket(): " + std::string(strerror(errno)));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path) {
    ::close(fd);
    throw Error("client: socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    throw Error("client: connect('" + socket_path +
                "'): " + std::string(strerror(err)));
  }
  return Client(fd);
}

Client Client::connect_tcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw Error("client: socket(): " + std::string(strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    throw Error("client: connect(127.0.0.1:" + std::to_string(port) +
                "): " + std::string(strerror(err)));
  }
  return Client(fd);
}

Client::Client(int fd) : fd_(fd) {}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      decoder_(std::move(other.decoder_)),
      next_run_(other.next_run_) {
  other.fd_ = -1;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Frame Client::read_frame() {
  for (;;) {
    if (auto f = decoder_.next()) return *std::move(f);
    char buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw Error("client: server closed the connection");
    decoder_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
}

std::size_t Client::unread_by_server() const {
  int bytes = 0;
  if (::ioctl(fd_, SIOCOUTQ, &bytes) != 0) {
    throw Error(std::string("client: SIOCOUTQ failed: ") +
                std::strerror(errno));
  }
  return static_cast<std::size_t>(bytes);
}

void Client::send_command(const std::vector<std::string>& head,
                          std::string_view body) {
  write_all(fd_, encode_frame(head, body));
}

Frame Client::wait_reply() {
  for (;;) {
    Frame f = read_frame();
    if (!is_stream_head(f.tok(0))) return f;
  }
}

Frame Client::request(const std::vector<std::string>& head,
                      std::string_view body) {
  send_command(head, body);
  const bool expecting_cancel_ack = !head.empty() && head[0] == "CANCEL";
  for (;;) {
    Frame f = read_frame();
    const std::string_view cmd = f.tok(0);
    if (is_stream_head(cmd)) continue;  // stale tail of an earlier run
    if (cmd == "OK") {
      // CANCEL acks of fire-and-forget cancel() calls may still be in
      // flight; they are not the reply to this request.
      if (f.tok(1) == "CANCEL" && !expecting_cancel_ack) continue;
      return f;
    }
    if (cmd == "ERR") {
      throw CommandError(std::string(f.tok(1)) + ": " +
                         (f.body.empty() ? join_head(f.head) : f.body));
    }
    throw ProtocolError("client: unexpected frame '" + join_head(f.head) +
                        "'");
  }
}

std::vector<std::string> Client::load(const std::string& session,
                                      std::string_view deck) {
  const Frame ok = request({"LOAD", session}, deck);
  // OK LOADED <session> <analysis tokens...>
  std::vector<std::string> analyses(ok.head.begin() + 3, ok.head.end());
  return analyses;
}

RunResult Client::run(const std::string& session, const std::string& analysis,
                      RunHandler* handler, unsigned threads,
                      const std::string& run_id) {
  std::string id;
  if (run_id.empty()) {
    id = std::to_string(next_run_++);
    id.insert(id.begin(), 'r');
  } else {
    id = run_id;
  }
  std::vector<std::string> head{"RUN", id, session, analysis};
  if (threads != 1) head.push_back("THREADS=" + std::to_string(threads));
  send_command(head);

  bool acked = false;
  std::size_t axis_count = 0;
  RunResult result;
  for (;;) {
    Frame f = read_frame();
    const std::string_view cmd = f.tok(0);
    if (cmd == "OK") {
      if (f.tok(1) == "RUN") acked = true;
      continue;  // also swallows CANCEL acks issued from on_data
    }
    if (cmd == "ERR") {
      throw CommandError(std::string(f.tok(1)) + ": " +
                         (f.body.empty() ? join_head(f.head) : f.body));
    }
    if (f.tok(1) != id) {
      throw ProtocolError("client: frame for foreign run '" +
                          join_head(f.head) + "'");
    }
    if (cmd == "INIT") {
      std::vector<std::string> axes;
      std::vector<std::string> probes;
      std::size_t expected = 0;
      std::size_t pos = 0;
      const std::string& b = f.body;
      while (pos < b.size()) {
        const std::size_t nl = b.find('\n', pos);
        const std::string_view line(
            b.data() + pos,
            (nl == std::string::npos ? b.size() : nl) - pos);
        if (line.rfind("AXES", 0) == 0) {
          axes = parse_labels(line);
        } else if (line.rfind("PROBES", 0) == 0) {
          probes = parse_labels(line);
        } else if (line.rfind("ROWS ", 0) == 0) {
          expected = static_cast<std::size_t>(
              std::strtoull(std::string(line.substr(5)).c_str(), nullptr,
                            10));
        }
        pos = nl == std::string::npos ? b.size() : nl + 1;
      }
      axis_count = axes.size();
      if (handler != nullptr) handler->on_init(axes, probes, expected);
      continue;
    }
    if (cmd == "DATA") {
      if (handler != nullptr) {
        const std::size_t row = static_cast<std::size_t>(
            std::strtoull(std::string(f.tok(2)).c_str(), nullptr, 10));
        std::vector<double> values = parse_values(f.body);
        if (values.size() < axis_count) {
          throw ProtocolError("client: DATA row shorter than its axes");
        }
        const std::vector<double> axes(values.begin(),
                                       values.begin() +
                                           static_cast<std::ptrdiff_t>(
                                               axis_count));
        values.erase(values.begin(),
                     values.begin() +
                         static_cast<std::ptrdiff_t>(axis_count));
        handler->on_data(row, axes, values);
      }
      continue;
    }
    // Terminal frames.
    result.rows = static_cast<std::size_t>(
        std::strtoull(std::string(f.tok(2)).c_str(), nullptr, 10));
    if (cmd == "DONE") {
      result.outcome = RunOutcome::kDone;
    } else if (cmd == "CANCELLED") {
      result.outcome = RunOutcome::kCancelled;
    } else {  // FAIL
      result.outcome = RunOutcome::kFailed;
      result.rows = 0;
      result.error = f.body;
    }
    break;
  }
  if (!acked && result.outcome != RunOutcome::kFailed) {
    // DONE before OK cannot happen (the ack is written before the run is
    // queued); defensive only.
    throw ProtocolError("client: run finished without an OK RUN ack");
  }
  return result;
}

void Client::cancel(const std::string& run_id) {
  send_command({"CANCEL", run_id});
}

std::size_t Client::patch(const std::string& session, std::string_view body) {
  const Frame ok = request({"PATCH", session}, body);
  return static_cast<std::size_t>(
      std::strtoull(std::string(ok.tok(3)).c_str(), nullptr, 10));
}

void Client::close_session(const std::string& session) {
  (void)request({"CLOSE", session});
}

std::string Client::status() {
  return request({"STATUS"}).body;
}

}  // namespace icvbe::server
