// Seeded random 0/1-ILP instance generator: the corpus source behind the
// reader fuzzer, the scaling differential suite, the serve smoke tests
// and the generated rows of the Table-2 record BENCH_table2.json.
//
// Every instance is generated around a planted 0/1 assignment, so it is
// feasible AND bounded by construction (all variables are binaries): a
// solver returning kInfeasible on a generated instance is wrong, full
// stop — which is exactly the property a differential suite wants.
// Generation is a pure function of GenOptions (splitmix64 stream), so a
// (seed, shape) pair names the same instance on every platform.
#pragma once

#include <cstdint>
#include <string>

#include "lp/model.hpp"

namespace advbist::lp {

struct GenOptions {
  std::uint64_t seed = 1;
  int num_vars = 40;
  int num_rows = 60;
  int max_terms_per_row = 8;  ///< row density: 2..max terms per row
  int coeff_range = 5;        ///< integer coefficients in [-range, range]\{0}
  double eq_fraction = 0.1;   ///< fraction of equality rows
  /// Stress variant for the scaling knob: rows are multiplied by powers of
  /// ten spanning 1e-6..1e6 (the feasible set is unchanged; the condition
  /// of the coefficient matrix is wrecked on purpose).
  bool badly_scaled = false;
};

/// Deterministically generates the instance named by `opt`.
[[nodiscard]] Model generate_instance(const GenOptions& opt);

/// Canonical instance name: "gen-s<seed>-<vars>x<rows>[-illcond]".
[[nodiscard]] std::string instance_name(const GenOptions& opt);

}  // namespace advbist::lp
