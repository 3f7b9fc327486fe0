#include "icvbe/server/protocol.hpp"

#include <cctype>
#include <charconv>

#include "icvbe/spice/netlist.hpp"

namespace icvbe::server {

namespace {

std::vector<std::string> split_tokens(std::string_view line) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ') ++j;
    if (j > i) out.emplace_back(line.substr(i, j - i));
    i = j;
  }
  return out;
}

}  // namespace

std::string encode_frame(const std::vector<std::string>& head,
                         std::string_view body) {
  std::string payload;
  for (std::size_t i = 0; i < head.size(); ++i) {
    if (i > 0) payload += ' ';
    payload += head[i];
  }
  if (!body.empty()) {
    payload += '\n';
    payload += body;
  }
  std::string frame = std::to_string(payload.size());
  frame += '\n';
  frame += payload;
  return frame;
}

Frame parse_payload(std::string_view payload) {
  Frame f;
  const std::size_t nl = payload.find('\n');
  if (nl == std::string_view::npos) {
    f.head = split_tokens(payload);
  } else {
    f.head = split_tokens(payload.substr(0, nl));
    f.body = std::string(payload.substr(nl + 1));
  }
  return f;
}

std::optional<Frame> FrameDecoder::next() {
  // Compact lazily: moving the tail on every frame would make draining a
  // large buffered stream quadratic.
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  }
  const std::string_view rest =
      std::string_view(buffer_).substr(consumed_);
  const std::size_t nl = rest.find('\n');
  if (nl == std::string_view::npos) {
    if (rest.size() > 20) {
      throw ProtocolError("frame length prefix missing its newline");
    }
    return std::nullopt;
  }
  const std::string_view digits = rest.substr(0, nl);
  if (digits.empty() || digits.size() > 12) {
    throw ProtocolError("malformed frame length prefix '" +
                        std::string(digits) + "'");
  }
  std::size_t length = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') {
      throw ProtocolError("malformed frame length prefix '" +
                          std::string(digits) + "'");
    }
    length = length * 10 + static_cast<std::size_t>(c - '0');
  }
  if (length > kMaxFrameBytes) {
    throw ProtocolError("frame of " + std::to_string(length) +
                        " bytes exceeds the " +
                        std::to_string(kMaxFrameBytes) + "-byte limit");
  }
  if (rest.size() < nl + 1 + length) return std::nullopt;  // incomplete
  Frame f = parse_payload(rest.substr(nl + 1, length));
  consumed_ += nl + 1 + length;
  if (consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  }
  return f;
}

std::string format_value(double v) {
  // The first of %.15g, %.16g, %.17g that parses back to exactly v (17
  // significant digits always does; most values need fewer). to_chars in
  // general format with a precision is specified as printf's %.*g, so the
  // text is snprintf's, without its format parsing and locale.
  char buf[32];
  char* end = buf;
  for (int precision = 15; precision <= 17; ++precision) {
    end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                        precision)
              .ptr;
    double back = 0.0;
    std::from_chars(buf, end, back);
    if (back == v) break;
  }
  return std::string(buf, end);
}

std::vector<PatchCommand> parse_patch_body(std::string_view body) {
  std::vector<PatchCommand> out;
  std::size_t pos = 0;
  while (pos <= body.size()) {
    const std::size_t nl = body.find('\n', pos);
    const std::string_view line =
        body.substr(pos, nl == std::string_view::npos ? body.size() - pos
                                                      : nl - pos);
    pos = nl == std::string_view::npos ? body.size() + 1 : nl + 1;

    const std::vector<std::string> toks = split_tokens(line);
    if (toks.empty()) continue;

    const auto value_of = [&](const std::string& text) {
      try {
        return spice::parse_spice_number(text);
      } catch (const Error&) {
        throw ProtocolError("PATCH: bad value in '" + std::string(line) +
                            "'");
      }
    };

    std::string kind = toks[0];
    for (char& c : kind) c = static_cast<char>(std::toupper(c));
    PatchCommand cmd;
    if (kind == "TEMP") {
      if (toks.size() != 2) {
        throw ProtocolError("PATCH: expected 'TEMP <celsius>', got '" +
                            std::string(line) + "'");
      }
      cmd.param.celsius = true;  // a default ParamRef is the temperature
      cmd.value = value_of(toks[1]);
    } else {
      if (toks.size() != 3) {
        throw ProtocolError(
            "PATCH: expected '<R|C|L|V|I> <name> <value>', got '" +
            std::string(line) + "'");
      }
      const auto target =
          kind.size() == 1 ? spice::ParamRef::kind_of(kind[0]) : std::nullopt;
      if (!target) {
        throw ProtocolError("PATCH: unknown target '" + toks[0] + "' in '" +
                            std::string(line) + "'");
      }
      cmd.param = {*target, toks[1]};
      cmd.value = value_of(toks[2]);
    }
    out.push_back(std::move(cmd));
  }
  return out;
}

}  // namespace icvbe::server
