#include "icvbe/server/protocol.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace icvbe::server {
namespace {

TEST(Framing, EncodesLengthPrefixedHeadAndBody) {
  EXPECT_EQ(encode_frame({"STATUS"}), "6\nSTATUS");
  EXPECT_EQ(encode_frame({"LOAD", "s1"}, "R1 a 0 1k\n.END\n"),
            "23\nLOAD s1\nR1 a 0 1k\n.END\n");
}

TEST(Framing, RoundTripsThroughTheDecoder) {
  FrameDecoder dec;
  dec.feed(encode_frame({"RUN", "r1", "s1", "TRAN", "THREADS=4"}));
  dec.feed(encode_frame({"PATCH", "s1"}, "R R1 2k\nTEMP 85\n"));
  auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->head,
            (std::vector<std::string>{"RUN", "r1", "s1", "TRAN",
                                      "THREADS=4"}));
  EXPECT_TRUE(f->body.empty());
  f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->head, (std::vector<std::string>{"PATCH", "s1"}));
  EXPECT_EQ(f->body, "R R1 2k\nTEMP 85\n");
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_EQ(dec.pending(), 0u);
}

TEST(Framing, BodyMayContainBlankLinesAndBinaryishText) {
  const std::string body = "* deck\n\n\nV1 in 0 1\n\n.END\n";
  FrameDecoder dec;
  dec.feed(encode_frame({"LOAD", "deck"}, body));
  const auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->body, body);
}

TEST(Framing, DecoderReassemblesByteAtATime) {
  const std::string wire = encode_frame({"DATA", "r1", "7"}, "1.5 -2.25") +
                           encode_frame({"DONE", "r1", "8"});
  FrameDecoder dec;
  std::vector<Frame> got;
  for (const char c : wire) {
    dec.feed(std::string_view(&c, 1));
    while (auto f = dec.next()) got.push_back(*std::move(f));
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].head, (std::vector<std::string>{"DATA", "r1", "7"}));
  EXPECT_EQ(got[0].body, "1.5 -2.25");
  EXPECT_EQ(got[1].head, (std::vector<std::string>{"DONE", "r1", "8"}));
}

TEST(Framing, DecoderHandsBackFramesAcrossChunkBoundaries) {
  // One feed ending mid-payload, the next completing it plus a second
  // whole frame.
  const std::string a = encode_frame({"OK", "RUN", "r1"});
  const std::string b = encode_frame({"INIT", "r1"}, "AXES\tTIME\n");
  const std::string wire = a + b;
  FrameDecoder dec;
  dec.feed(wire.substr(0, a.size() - 2));
  EXPECT_FALSE(dec.next().has_value());
  dec.feed(wire.substr(a.size() - 2));
  ASSERT_TRUE(dec.next().has_value());
  const auto f = dec.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->head, (std::vector<std::string>{"INIT", "r1"}));
  EXPECT_EQ(f->body, "AXES\tTIME\n");
}

TEST(Framing, HeadTokenisationCollapsesRunsOfSpaces) {
  const Frame f = parse_payload("RUN   r1  s1 DC");
  EXPECT_EQ(f.head, (std::vector<std::string>{"RUN", "r1", "s1", "DC"}));
  EXPECT_EQ(f.tok(3), "DC");
  EXPECT_EQ(f.tok(4), "");  // past-the-end tok() is ""
}

TEST(Framing, MalformedLengthPrefixesAreRejected) {
  {
    FrameDecoder dec;
    dec.feed("12x\nwhatever");
    EXPECT_THROW((void)dec.next(), ProtocolError);
  }
  {
    FrameDecoder dec;
    dec.feed("\npayload");  // empty prefix
    EXPECT_THROW((void)dec.next(), ProtocolError);
  }
  {
    FrameDecoder dec;
    dec.feed("99999999999999\n");  // 14 digits: longer than any sane size
    EXPECT_THROW((void)dec.next(), ProtocolError);
  }
  {
    FrameDecoder dec;
    // No newline within the first 20 bytes: cannot be a length prefix.
    dec.feed("GET / HTTP/1.1 some garbage");
    EXPECT_THROW((void)dec.next(), ProtocolError);
  }
}

TEST(Framing, OversizedFrameIsRejectedNotBuffered) {
  FrameDecoder dec;
  dec.feed(std::to_string(kMaxFrameBytes + 1) + "\n");
  EXPECT_THROW((void)dec.next(), ProtocolError);
}

TEST(Framing, ShortUnterminatedPrefixWaitsForMoreBytes) {
  FrameDecoder dec;
  dec.feed("123");  // could still become "1234\n..." -- not an error yet
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_EQ(dec.pending(), 3u);
}

TEST(FormatValue, RoundTripsBitExactly) {
  const double cases[] = {0.0,
                          -0.0,
                          1.0,
                          -1.5,
                          1.0 / 3.0,
                          6.62607015e-34,
                          1.7976931348623157e308,
                          5e-324,  // min subnormal
                          0.1,
                          123456.789e-12,
                          -2.2250738585072014e-308};
  for (const double v : cases) {
    const std::string text = format_value(v);
    const double back = std::strtod(text.c_str(), nullptr);
    EXPECT_EQ(back, v) << "text was '" << text << "'";
    EXPECT_EQ(std::signbit(back), std::signbit(v)) << text;
  }
}

TEST(FormatValue, PrefersShortRepresentations) {
  EXPECT_EQ(format_value(1.0), "1");
  EXPECT_EQ(format_value(0.5), "0.5");
  EXPECT_EQ(format_value(1e-12), "1e-12");
}

/// The snprintf/strtod formatter format_value replaced: the reference its
/// to_chars form must reproduce byte for byte.
std::string format_value_printf(double v) {
  char buf[32];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

TEST(FormatValue, MatchesThePrintfFormOnRandomBitPatterns) {
  std::vector<double> values = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      0.1,
      1e-5,
      123456789012345678.0,
  };
  // Raw bit patterns cover every exponent (subnormals, NaN payloads
  // included); a second set draws subnormals on purpose.
  std::mt19937_64 rng(0x1cbe13u);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t bits = rng();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    values.push_back(v);
  }
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t bits = rng() & 0x800fffffffffffffull;
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    values.push_back(v);
  }
  for (const double v : values) {
    ASSERT_EQ(format_value(v), format_value_printf(v))
        << "bits " << std::hex << [&] {
             std::uint64_t b = 0;
             std::memcpy(&b, &v, sizeof b);
             return b;
           }();
  }
}

TEST(PatchBody, ParsesEveryTargetKind) {
  const auto cmds = parse_patch_body(
      "R R1 2k\n"
      "C C1 10n\n"
      "L L1 1u\n"
      "V V1 3.3\n"
      "I I1 1m\n"
      "TEMP 85\n"
      "\n");  // blank lines are ignored
  ASSERT_EQ(cmds.size(), 6u);
  EXPECT_EQ(cmds[0].param.kind, spice::ParamRef::Kind::kResistor);
  EXPECT_EQ(cmds[0].param.device, "R1");
  EXPECT_DOUBLE_EQ(cmds[0].value, 2e3);
  EXPECT_EQ(cmds[1].param.kind, spice::ParamRef::Kind::kCapacitor);
  EXPECT_DOUBLE_EQ(cmds[1].value, 10e-9);
  EXPECT_EQ(cmds[2].param.kind, spice::ParamRef::Kind::kInductor);
  EXPECT_DOUBLE_EQ(cmds[2].value, 1e-6);
  EXPECT_EQ(cmds[3].param.kind, spice::ParamRef::Kind::kVsource);
  EXPECT_DOUBLE_EQ(cmds[3].value, 3.3);
  EXPECT_EQ(cmds[4].param.kind, spice::ParamRef::Kind::kIsource);
  EXPECT_DOUBLE_EQ(cmds[4].value, 1e-3);
  EXPECT_EQ(cmds[5].param.kind, spice::ParamRef::Kind::kTemperature);
  EXPECT_TRUE(cmds[5].param.device.empty());
  EXPECT_TRUE(cmds[5].param.celsius);
  EXPECT_DOUBLE_EQ(cmds[5].value, 85.0);
}

TEST(PatchBody, TargetsAreCaseInsensitive) {
  const auto cmds = parse_patch_body("r R1 1k\ntemp 27\n");
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[0].param.kind, spice::ParamRef::Kind::kResistor);
  EXPECT_EQ(cmds[1].param.kind, spice::ParamRef::Kind::kTemperature);
}

TEST(PatchBody, MalformedLinesNameTheOffendingText) {
  EXPECT_THROW((void)parse_patch_body("Q Q1 1k\n"), ProtocolError);
  EXPECT_THROW((void)parse_patch_body("R R1\n"), ProtocolError);
  EXPECT_THROW((void)parse_patch_body("R R1 1k extra\n"), ProtocolError);
  EXPECT_THROW((void)parse_patch_body("TEMP\n"), ProtocolError);
  EXPECT_THROW((void)parse_patch_body("R R1 notanumber\n"), ProtocolError);
  try {
    (void)parse_patch_body("R R1 bogus\n");
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("R R1 bogus"), std::string::npos);
  }
}

}  // namespace
}  // namespace icvbe::server
