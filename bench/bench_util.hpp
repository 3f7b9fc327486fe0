#pragma once
// Shared helpers for the paper-figure drivers. Each bench binary regenerates
// its paper table/figure, prints it, and writes each table as CSV under
// results/ (or $ICVBE_RESULTS_DIR). Timing lives in benchmark/run.py.

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "icvbe/common/table.hpp"

namespace icvbe::bench {

/// Directory for CSV artefacts (created on demand).
inline std::string results_dir() {
  const char* env = std::getenv("ICVBE_RESULTS_DIR");
  std::string dir = env != nullptr ? env : "results";
  std::filesystem::create_directories(dir);
  return dir;
}

/// Print a section banner.
inline void banner(const std::string& title) {
  std::cout << '\n'
            << "==============================================================="
            << "=\n"
            << title << '\n'
            << "==============================================================="
            << "=\n";
}

/// Print a table and also write it as CSV under results/.
inline void emit(const Table& table, const std::string& csv_name) {
  table.print(std::cout);
  const std::string path = results_dir() + "/" + csv_name;
  table.write_csv(path);
  std::cout << "[csv] " << path << '\n';
}

}  // namespace icvbe::bench
