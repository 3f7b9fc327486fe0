#pragma once
// Synthetic netlist generation: seeded, reproducible R/diode/BJT ladder
// and mesh decks at arbitrary node counts, in the parser's own dialect.
//
// These are the stress workloads for the sparse linear engine -- the
// paper's bandgap cells top out at tens of nodes, so scaling claims
// (fill and analysis counts, zero-alloc large-plan runs, CI stress jobs)
// need circuits the repository can manufacture on demand. Generating deck
// *text* rather than Circuit objects means every stress test also
// exercises the parser end to end, and `icvbe gen` can hand the same
// decks to external tools.

#include <cstdint>
#include <string>
#include <string_view>

namespace icvbe::spice {

/// Topology of a generated deck.
enum class SyntheticTopology {
  kResistorLadder,  ///< linear: series/shunt resistor chain
  kDiodeLadder,     ///< ladder with diodes to ground every few nodes
  kBjtLadder,       ///< ladder with diode-connected PNPs to ground
  kMesh,            ///< 2-D resistor grid with sprinkled diodes
  kRcLadder,        ///< series-R / shunt-C chain driven by a PULSE step
                    ///< (transient startup-settling workload; the
                    ///< analysis directive is .TRAN instead of .DC)
  kGrid,            ///< purely resistive 2-D grid (no diodes): the linear
                    ///< symbolic-analysis stress workload at 1e4-1e5
                    ///< nodes, where ordering quality dominates fill
  kClockTree,       ///< heap-indexed binary resistor tree with leaf loads
                    ///< (clock-distribution shape): deep, nearly
                    ///< fill-free -- exercises BTF/elimination ordering
                    ///< on tree-structured patterns at 1e5 nodes
};

struct SyntheticNetlistSpec {
  SyntheticTopology topology = SyntheticTopology::kResistorLadder;
  /// Target circuit size in nodes (exact for ladders; a mesh rounds to
  /// the nearest full grid). Must be >= 4.
  int nodes = 100;
  /// Seed for the element-value randomisation (values only -- the
  /// topology at a given node count is fixed).
  std::uint64_t seed = 1;
  /// Append a .DC sweep of the drive source plus .PROBE directives, so
  /// the deck is runnable through `icvbe run` / SimSession::run as-is.
  bool with_analysis = true;
  /// Emit a small-signal study instead of the default analysis: the drive
  /// source gains an "AC 1" stimulus and the analysis directive becomes
  /// `.AC DEC ...` over the topology's interesting band with VDB/VP
  /// probes of the far node (the `gen_netlist --ac` flag). The rc-ladder
  /// becomes a many-pole low-pass; resistive ladders give flat dividers
  /// -- both are valid complex-engine workloads.
  bool ac_analysis = false;
};

/// Render the deck text for a spec. Deterministic: same spec, same text.
[[nodiscard]] std::string generate_netlist(const SyntheticNetlistSpec& spec);

/// Name of the node the generated .PROBE watches ("vout" equivalent).
[[nodiscard]] std::string generated_probe_node(const SyntheticNetlistSpec& spec);

/// Stop time [s] of the .TRAN analysis a kRcLadder deck embeds: roughly
/// five of the chain's slowest time constants (~0.4 n^2 R C), so the deck
/// simulates a complete startup settling at any size.
[[nodiscard]] double rc_ladder_tstop(const SyntheticNetlistSpec& spec);

/// CLI-facing topology names: "ladder", "diode-ladder", "bjt-ladder",
/// "mesh", "rc-ladder", "grid", "clock-tree".
[[nodiscard]] const char* topology_name(SyntheticTopology t);
/// Inverse of topology_name; throws Error on an unknown name.
[[nodiscard]] SyntheticTopology topology_from_name(std::string_view name);

}  // namespace icvbe::spice
