#pragma once
// SPICE-like netlist text format: parser (text -> Circuit) and writer
// (Circuit construction script -> text), so test cells and experiments can
// be described in decks instead of C++.
//
// Grammar (case-insensitive keywords, one statement per line, '*' or ';'
// comments, '+' continuation as in SPICE):
//
//   R<name> <n+> <n-> <value> [TC1=x] [TC2=x]
//   V<name> <n+> <n-> <value | waveform> [AC <mag> [phase-deg]]
//   I<name> <n+> <n-> <value | waveform> [AC <mag> [phase-deg]]
//       waveform = DC <v> | PULSE(v1 v2 [td tr tf pw per])
//                | SIN(vo va freq [td theta]) | PWL(t1 v1 t2 v2 ...)
//       (a waveform source's DC value is the waveform's initial/offset
//       value: PULSE v1, SIN vo, PWL first knot; the AC group is the
//       small-signal stimulus, and may also stand alone for a DC-0 source)
//   C<name> <n+> <n-> <farads> [IC=volts]
//   L<name> <n+> <n-> <henries> [IC=amps]
//   E<name> <n+> <n-> <nc+> <nc-> <gain>               (VCVS)
//   U<name> <out> <in+> <in-> [GAIN=x] [OFFSET=x]      (op-amp)
//   D<name> <anode> <cathode> <model> [AREA=x]
//   Q<name> <collector> <base> <emitter> <model> [AREA=x] [SUBSTRATE=node]
//   M<name> <drain> <gate> <source> <model> [WL=x]     (level-1 MOSFET,
//       bulk tied to source; WL is the W/L ratio)
//   .MODEL <name> D   (IS=... N=... EG=... XTI=... TNOM=...)
//   .MODEL <name> NMOS|PMOS (VTO=... KP=... LAMBDA=... TNOM=... VTOTC=...
//                            MOBEXP=...)
//   .MODEL <name> PNP|NPN (IS=... BF=... BR=... NF=... NR=... ISE=... NE=...
//                          ISC=... NC=... VAF=... VAR=... EG=... XTI=...
//                          TNOM=... ISS=... NS=... EGS=... XTIS=...
//                          ISSE=... NSE=... EGSE=... XTISE=... BFS=...)
//   .TEMP <celsius>
//   .NODESET V(<node>)=<value> [V(<node>)=<value> ...]  (initial guess;
//                                                        every node must
//                                                        exist in the deck)
//   .IC V(<node>)=<value> [V(<node>)=<value> ...]       (transient ICs)
//   .END                                                (optional)
//
// Analysis directives parse straight into a declarative AnalysisPlan
// (plan.hpp) so a deck fully describes a sweep study:
//
//   .DC <src> <start> <stop> <incr> [<src2> <start2> <stop2> <incr2>]
//       sweep a V/I source, a resistor (R...) or TEMP (Celsius); the first
//       spec is the innermost axis, the optional second the outer one
//   .STEP <what> <start> <stop> <incr>       outer axis, linear steps
//   .STEP <what> DEC <start> <stop> <n>      log grid, n points/decade
//   .STEP <what> LIST <v1> <v2> ...          explicit point list
//   .PROBE <expr> [<expr> ...]               probed quantities, e.g.
//       V(out)  V(a,b)  I(V1)  IC(Q1)  V(a)-V(b)  (no spaces inside one
//       expression; see parse_probe)
//   .TRAN <tstep> <tstop> [<tstart> [<tmax>]] [UIC] [METHOD=BE|TRAP]
//       time-domain analysis (cannot be combined with .DC/.STEP/.AC in one
//       deck); with .PROBE it parses into an AnalysisPlan whose transient
//       spec carries the deck's .IC directives
//   .AC <DEC|OCT|LIN> <points> <fstart> <fstop>
//       small-signal frequency sweep about the DC operating point (one
//       analysis per deck, like .TRAN); .PROBE then takes AC quantities:
//       VM(n) VDB(n) VP(n) VR(n) VI(n), node pairs allowed, bare V(n)
//       reads the magnitude. Sources carrying an "AC <mag> [phase]" group
//       provide the stimulus.
//
// Numbers accept SPICE engineering suffixes: f p n u m k meg g t,
// case-insensitively (M is milli, MEG is mega -- by spelling, never case),
// optionally followed by a unit annotation (ohm, v, a, f, h, hz, s, ...).
// Anything else trailing a number ("10kk") is rejected as ambiguous.
// Node "0" or "gnd" is ground.

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "icvbe/spice/circuit.hpp"
#include "icvbe/spice/plan.hpp"
#include "icvbe/spice/unknowns.hpp"

namespace icvbe::spice {

/// Raised on malformed netlist text; message carries the line number.
class NetlistError : public CircuitError {
 public:
  explicit NetlistError(const std::string& what) : CircuitError(what) {}
};

/// Result of parsing: the circuit plus deck-level directives.
struct ParsedNetlist {
  std::unique_ptr<Circuit> circuit;
  double temperature_celsius = 27.0;  ///< .TEMP, default SPICE 27 C
  bool has_temp_directive = false;
  std::map<std::string, BjtModel> bjt_models;
  std::map<std::string, DiodeModel> diode_models;
  std::map<std::string, MosfetModel> mosfet_models;
  /// .NODESET hints: node name -> initial voltage guess.
  std::map<std::string, double> nodesets;
  /// .IC directives: node name -> transient initial condition [V].
  std::map<std::string, double> ics;
  /// .PROBE expressions in deck order.
  std::vector<Probe> probes;
  /// Deck-described analyses in the pinned canonical execution order
  /// [DC/.STEP sweep, .TRAN, .AC] -- a deck carries at most one plan per
  /// family, and each plan's probes are the .PROBE subset its evaluation
  /// domain supports (see probe_supported_in). Card order in the deck
  /// never changes this ordering.
  std::vector<AnalysisPlan> plans;

  /// The deck's plan of one analysis family, or nullptr if absent.
  [[nodiscard]] const AnalysisPlan* find_plan(AnalysisKind kind)
      const noexcept;

  /// Initial guess from the .NODESET hints: each hinted node at its
  /// voltage, every other unknown 0. Sized by assigning the circuit's
  /// unknowns; never creates a node.
  [[nodiscard]] Unknowns nodeset_guess();
};

/// Parse a netlist from text. Throws NetlistError with line context.
[[nodiscard]] ParsedNetlist parse_netlist(std::string_view text);

/// Parse from a stream (reads to EOF).
[[nodiscard]] ParsedNetlist parse_netlist(std::istream& in);

/// Parse a single SPICE-format number ("2.5k", "1e-15", "10MEG", "47u").
/// Throws NetlistError if the text is not a number.
[[nodiscard]] double parse_spice_number(std::string_view token);

/// Serialise a BJT model card in the dialect above.
[[nodiscard]] std::string format_bjt_model(const std::string& name,
                                           const BjtModel& model);

/// Serialise a diode model card.
[[nodiscard]] std::string format_diode_model(const std::string& name,
                                             const DiodeModel& model);

}  // namespace icvbe::spice
