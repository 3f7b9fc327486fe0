#include <cstring>

#include "bench.hpp"
#include "icvbe/spice/plan.hpp"

namespace icvbe_bench {

Tracer::Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

std::int64_t Tracer::ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0_)
      .count();
}

int Tracer::intern(const char* name) {
  const auto it = ids_.find(std::string_view(name));
  if (it != ids_.end()) return it->second;
  const int id = static_cast<int>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

int Tracer::begin(const char* name) {
  if (!active()) return -1;
  Span s;
  s.name = intern(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op_;
  s.start_ns = ns(Clock::now());
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = ns(Clock::now());
  open_.pop_back();  // ScopedSpan closes in LIFO order
}

void Tracer::add(const char* name, Clock::time_point start,
                 Clock::time_point end) {
  if (!active()) return;
  Span s;
  s.name = intern(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op_;
  s.start_ns = ns(start);
  s.end_ns = ns(end);
  spans_.push_back(s);
}

void BitHash::add(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 1099511628211ULL;
  }
}

void BitHash::add(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

std::uint64_t hash_result(const icvbe::spice::SweepResult& r) {
  BitHash h;
  for (std::size_t row = 0; row < r.rows(); ++row) {
    h.add(static_cast<std::uint64_t>(row));
    for (std::size_t a = 0; a < r.axis_count(); ++a) h.add(r.axis_value(a, row));
    for (std::size_t p = 0; p < r.probe_count(); ++p) h.add(r.value(p, row));
  }
  return h.value();
}

}  // namespace icvbe_bench
