#pragma once
// Wire protocol of the SimServer (see docs/PROTOCOL.md for the normative
// description with a worked transcript).
//
// Framing: every message travels as
//
//   <decimal payload byte count>\n<payload>
//
// The payload's first line is the HEAD -- space-separated tokens naming
// the command or event -- and everything after the first newline is the
// BODY (deck text for LOAD, patch lines for PATCH, labels for INIT,
// values for DATA). The length prefix makes the stream self-delimiting:
// deck bodies may contain anything, including blank lines.
//
// Requests (client -> server):
//   LOAD <session>                 body = deck text
//   RUN <run-id> <session> <DC|TRAN|AC> [THREADS=n]
//   CANCEL <run-id>
//   PATCH <session>                body = one patch per line (see below)
//   CLOSE <session>
//   STATUS
//
// The client chooses run ids (unique per connection); that keeps RUN a
// single round trip and lets a CANCEL race the RUN it names without a
// window where the client does not yet know the id.
//
// Replies and stream events (server -> client):
//   OK <CMD> ...                   command acknowledged
//   ERR <CMD> <message>            command rejected (connection lives on)
//   INIT <run-id>                  body = AXES/PROBES/ROWS label lines
//   DATA <run-id> <row>            body = axis+probe values, one line
//   DONE <run-id> <rows>           run finished
//   CANCELLED <run-id> <rows>      run cancelled after <rows> rows
//   FAIL <run-id> <message>        run aborted (solver error) -- this is
//                                  run-level, distinct from command-level
//                                  ERR: the RUN itself was accepted
//
// PATCH body lines re-program VALUES only -- the circuit topology, and
// with it the frozen sparse pattern and cached symbolic LU of the warm
// session, survive every patch:
//   R <name> <value>     resistor nominal ohms
//   C <name> <value>     capacitor farads
//   L <name> <value>     inductor henries
//   V <name> <value>     voltage source DC volts
//   I <name> <value>     current source DC amps
//   TEMP <celsius>       circuit temperature
// A PATCH is all or nothing: when any line is rejected, none applies.
//
// Numbers in DATA frames are printed with enough digits to round-trip
// bit-exactly (format_value), so a client can compare streamed values
// against a local run with operator==.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "icvbe/common/error.hpp"
#include "icvbe/spice/param.hpp"

namespace icvbe::server {

/// Malformed frame or payload (bad length prefix, oversized frame,
/// unparseable patch line, ...).
class ProtocolError : public Error {
 public:
  explicit ProtocolError(const std::string& what) : Error(what) {}
};

/// One decoded message: HEAD tokens plus the raw BODY text.
struct Frame {
  std::vector<std::string> head;
  std::string body;

  /// head[i], or "" past the end (keeps call sites branch-free).
  [[nodiscard]] std::string_view tok(std::size_t i) const noexcept {
    return i < head.size() ? std::string_view(head[i]) : std::string_view();
  }
};

/// Frames larger than this are rejected as malformed rather than
/// buffered -- backstop against a corrupt length prefix, far above any
/// real deck or DATA row.
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;

/// Encode one frame: length prefix + head line (+ newline + body when
/// the body is nonempty).
[[nodiscard]] std::string encode_frame(
    const std::vector<std::string>& head, std::string_view body = {});

/// Split a payload into HEAD tokens and BODY.
[[nodiscard]] Frame parse_payload(std::string_view payload);

/// Incremental frame decoder: feed() raw bytes as they arrive, next()
/// pops complete frames in order. Throws ProtocolError on a malformed or
/// oversized length prefix.
class FrameDecoder {
 public:
  void feed(std::string_view bytes) { buffer_.append(bytes); }
  [[nodiscard]] std::optional<Frame> next();

  /// Bytes buffered but not yet consumed by next().
  [[nodiscard]] std::size_t pending() const noexcept {
    return buffer_.size() - consumed_;
  }

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;
};

/// Print a double with enough digits to strtod back to the same bits.
[[nodiscard]] std::string format_value(double v);

/// One parsed PATCH body line: what to set, and to what (ohms, farads,
/// henries, volts, amps, or degrees C for TEMP).
struct PatchCommand {
  spice::ParamRef param;
  double value = 0.0;
};

/// Parse a PATCH body (one command per line, blank lines ignored).
/// Throws ProtocolError with the offending line text on malformed input.
[[nodiscard]] std::vector<PatchCommand> parse_patch_body(
    std::string_view body);

}  // namespace icvbe::server
