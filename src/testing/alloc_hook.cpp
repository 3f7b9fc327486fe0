// Counting replacements for the global allocation functions. This TU is
// compiled into its own static library (icvbe_alloc_hook) and linked only
// into binaries that assert allocation behaviour; the icvbe library itself
// never references it.

#include "icvbe/testing/alloc_hook.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::size_t> g_largest{0};

void count(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t seen = g_largest.load(std::memory_order_relaxed);
  while (size > seen && !g_largest.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
}
}  // namespace

namespace icvbe::testing {

std::uint64_t allocation_count() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}

std::size_t largest_allocation() noexcept {
  return g_largest.load(std::memory_order_relaxed);
}

void reset_largest_allocation() noexcept {
  g_largest.store(0, std::memory_order_relaxed);
}

}  // namespace icvbe::testing

void* operator new(std::size_t size) {
  count(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count(size);
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
