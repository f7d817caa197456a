// Explicit instantiation of the backend-generic TRE core for the type-1
// curve. The scheme logic itself lives ONCE in core/tre_core.h; see
// core/backend512.h for the backend policy and bls12/tre381.cpp for the
// BLS12-381 instantiation of the same template.
#include "core/tre.h"

namespace tre::core {

template class BasicTreScheme<Tre512Backend>;

namespace {
const obs::CounterProbe& pairings() {
  return detail::SchemeProbes<Tre512Backend>::get().pairings;
}
}  // namespace

Gt counted_pair(const ec::G1Point& p, const ec::G1Point& q) {
  pairings().add();
  return pairing::pair(p, q);
}

Gt counted_pair_product(std::span<const std::pair<ec::G1Point, ec::G1Point>> pairs) {
  pairings().add(pairs.size());
  return pairing::pair_product(pairs);
}

bool counted_pairings_equal(const ec::G1Point& a1, const ec::G1Point& a2,
                            const ec::G1Point& b1, const ec::G1Point& b2) {
  pairings().add(2);
  return pairing::pairings_equal(a1, a2, b1, b2);
}

}  // namespace tre::core
