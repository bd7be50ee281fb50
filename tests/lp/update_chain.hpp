// Test helper: moves a solver's basis through a chain of seeded
// Forrest–Tomlin updates with no refactorization in between, so the
// FTRAN/BTRAN checks of the LP suites run on updated factors, not only on
// freshly factorized ones.
#pragma once

#include <cstdint>

#include "lp/simplex.hpp"
#include "util/rng.hpp"

namespace advbist::lp {

/// Applies up to `count` basis exchanges to `s` (whose model has `n`
/// structural variables) through SimplexSolver::pivot_for_testing, picking
/// seeded random (position, nonbasic column) pairs the hook accepts.
/// Returns the number of updates made; a small LP with few well-conditioned
/// exchanges may run out of attempts first.
inline int apply_updates(SimplexSolver& s, int n, int count,
                         std::uint64_t seed) {
  util::Rng rng(seed ^ 0xf7f7f7f7ULL);
  const int m = s.num_rows();
  int done = 0;
  for (int tries = 0; done < count && tries < 2000 * count; ++tries) {
    const int pos = rng.next_int(0, m - 1);
    const int col = rng.next_int(0, n + m - 1);
    bool basic = false;
    for (const int b : s.basis()) basic = basic || b == col;
    if (!basic && s.pivot_for_testing(pos, col)) ++done;
  }
  return done;
}

}  // namespace advbist::lp
