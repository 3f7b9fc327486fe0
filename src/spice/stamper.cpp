#include "icvbe/spice/stamper.hpp"

#include "icvbe/common/error.hpp"

namespace icvbe::spice {

Stamper::Stamper(linalg::MatrixView a, linalg::Vector& b, int node_unknowns)
    : a_(a), b_(b) {
  ICVBE_REQUIRE(a_.rows() == a_.cols() && a_.rows() == b.size(),
                "Stamper: inconsistent system dimensions");
  ICVBE_REQUIRE(node_unknowns >= 0 &&
                    static_cast<std::size_t>(node_unknowns) <= b.size(),
                "Stamper: bad node unknown count");
}

}  // namespace icvbe::spice
