// icvbe_bench: runs one workload (or all four, in this one process) and
// prints its raw measurements as one JSON document on stdout. run.py
// builds this program, runs it and computes the metrics.
//
//   icvbe_bench --workload <lot|grid_sweep|tree_load|serve_mixed|all>
//               [--seed N] [--seconds S] [--trace 0|1] [--record-reference]
//
// Run from the repository root: the server sockets go to .bench_build/run
// and the reference results live in benchmark/reference.

#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"

namespace icvbe_bench {
namespace {

struct Workload {
  const char* name;
  void (*run)(const Options&, Tracer&, Record&);
};

const Workload kWorkloads[] = {
    {"lot", run_lot},
    {"grid_sweep", run_grid_sweep},
    {"tree_load", run_tree_load},
    {"serve_mixed", run_serve_mixed},
};

/// Reset the kernel's peak-RSS mark, so each workload of an `all` run
/// reports its own peak (after handing the previous workload's freed heap
/// back). Returns false where the kernel does not allow it.
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return f.good();
}

/// Peak resident set [MB] since the last reset (VmHWM), or since process
/// start (ru_maxrss) where VmHWM cannot be reset.
double peak_rss_mb(bool was_reset) {
  if (was_reset) {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;
      }
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_numbers(const std::vector<double>& vs) {
  std::string out = "[";
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (i > 0) out += ",";
    out += json_number(vs[i]);
  }
  return out + "]";
}

std::string env_json() {
#ifdef ICVBE_SIMD
  const char* simd = "ON";
#else
  const char* simd = "OFF";
#endif
  std::ostringstream os;
  os << "{\"compiler\":" << json_string(ICVBE_BENCH_COMPILER)
     << ",\"build_type\":" << json_string(ICVBE_BENCH_BUILD_TYPE)
     << ",\"flags\":" << json_string(ICVBE_BENCH_FLAGS)
     << ",\"icvbe_simd\":" << json_string(simd)
     << ",\"nproc\":" << std::thread::hardware_concurrency() << "}";
  return os.str();
}

std::string record_json(const Options& opt, const Record& rec,
                        const Tracer& tracer) {
  std::ostringstream os;
  os << "{\"workload\":" << json_string(rec.workload)
     << ",\"seed\":" << opt.seed << ",\"seconds\":" << json_number(opt.seconds)
     << ",\"trace\":" << (opt.trace ? 1 : 0)
     << ",\"setup_s\":" << json_numbers(rec.setup_s)
     << ",\"op_ms\":" << json_numbers(rec.op_ms)
     << ",\"op_window\":" << json_numbers({rec.op_window.begin(), rec.op_window.end()})
     << ",\"traced_op_ms\":" << json_numbers(rec.traced_op_ms)
     << ",\"attempted\":" << rec.attempted << ",\"failed\":" << rec.failed
     << ",\"peak_rss_mb\":" << json_number(rec.peak_rss_mb);
  os << ",\"problems\":[";
  for (std::size_t i = 0; i < rec.problems.size(); ++i) {
    os << (i > 0 ? "," : "") << json_string(rec.problems[i]);
  }
  os << "],\"values\":{";
  bool first = true;
  for (const auto& [name, vs] : rec.values) {
    os << (first ? "" : ",") << json_string(name) << ":" << json_numbers(vs);
    first = false;
  }
  os << "},\"counts\":{";
  first = true;
  for (const auto& [name, v] : rec.counts) {
    os << (first ? "" : ",") << json_string(name) << ":" << json_number(v);
    first = false;
  }
  os << "},\"span_names\":[";
  for (std::size_t i = 0; i < tracer.names().size(); ++i) {
    os << (i > 0 ? "," : "") << json_string(tracer.names()[i]);
  }
  os << "],\"spans\":[";
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    os << (i > 0 ? "," : "") << "[" << s.name << "," << s.start_ns << ","
       << s.end_ns << "," << s.parent << "," << s.op << "]";
  }
  os << "]}";
  return os.str();
}

/// Run one workload in this process and return its JSON record.
std::string run_workload(const Workload& w, Options opt) {
  opt.workload = w.name;
  const bool was_reset = reset_peak_rss();
  Tracer tracer(opt.trace);
  Record rec;
  rec.workload = w.name;
  try {
    w.run(opt, tracer, rec);
  } catch (const std::exception& e) {
    rec.problem(std::string("workload aborted: ") + e.what());
  }
  rec.peak_rss_mb = peak_rss_mb(was_reset);
  return record_json(opt, rec, tracer);
}

double number_arg(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  const double v = std::stod(text, &used);
  if (used != text.size() || !(v >= 0)) {
    throw std::invalid_argument(flag + ": bad value '" + text + "'");
  }
  return v;
}

int main_impl(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + ": missing value");
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = static_cast<std::uint64_t>(number_arg(a, value()));
    } else if (a == "--seconds") {
      opt.seconds = number_arg(a, value());
    } else if (a == "--trace") {
      opt.trace = number_arg(a, value()) != 0;
    } else if (a == "--record-reference") {
      opt.record_reference = true;
    } else {
      throw std::invalid_argument("unknown argument '" + a + "'");
    }
  }
  std::string records;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name || opt.workload == "all") {
      if (!records.empty()) records += ',';
      records += run_workload(w, opt);
    }
  }
  if (records.empty()) {
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  }
  std::cout << "{\"env\":" << env_json() << ",\"records\":[" << records
            << "]}\n";
  return 0;
}

}  // namespace
}  // namespace icvbe_bench

int main(int argc, char** argv) {
  try {
    return icvbe_bench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "icvbe_bench: " << e.what() << "\n";
    return 2;
  }
}
