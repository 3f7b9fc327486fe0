#pragma once
// Allocation-counting test hook. A binary that links the icvbe_alloc_hook
// library gets counting replacements of the global allocation functions;
// allocation_count() then reports the number of operator-new calls since
// process start, and largest_allocation() the largest single request since
// the last reset. Used to verify the SimSession Newton loop allocates
// nothing after setup, and that a run's up-front reservations stay small.
// Binaries that do not link the hook must not call these functions (the
// symbols are only defined in the hook library).

#include <cstddef>
#include <cstdint>

namespace icvbe::testing {

/// Total operator-new calls since process start (monotonic; never reset --
/// take differences around the region of interest).
[[nodiscard]] std::uint64_t allocation_count() noexcept;

/// Largest single operator-new request, in bytes, since the last
/// reset_largest_allocation() (or process start).
[[nodiscard]] std::size_t largest_allocation() noexcept;
void reset_largest_allocation() noexcept;

}  // namespace icvbe::testing
