// Shared numerical tolerances for the MILP layer.
//
// Presolve, probing, cut separation and the branch & bound solver all have
// to agree on what "integral", "violated" and "crossed bounds" mean — a
// presolve that rounds with a looser epsilon than the solver's integrality
// check can declare a model infeasible the search would have solved (the
// old code mixed 1e-9 and 1e-6 literals for exactly these decisions).
// Every integer-side epsilon lives here under a name that says which
// decision it guards.
#pragma once

namespace advbist::ilp {

/// Integrality tolerance: a value within kIntEps of an integer counts as
/// integral. Also the guard for rounding real bounds to integer bounds,
/// ceil(lo - kIntEps) and floor(hi + kIntEps), so presolve never fixes a
/// variable the search would still branch on.
inline constexpr double kIntEps = 1e-6;

/// Bound-comparison tolerance: lo > hi + kBoundEps means crossed (empty
/// domain); changes smaller than this are not worth recording.
inline constexpr double kBoundEps = 1e-9;

/// Row-activity feasibility tolerance: a row whose activity range misses its
/// side by more than this is proved infeasible.
inline constexpr double kActivityEps = 1e-6;

/// Minimum violation of a separated cut at the fractional point before it is
/// worth appending to the LP (smaller violations churn rows for no bound).
inline constexpr double kCutViolationEps = 1e-4;

/// Objective-improvement margin: an incumbent must beat the cutoff by more
/// than this to replace it.
inline constexpr double kObjImproveEps = 1e-12;

}  // namespace advbist::ilp
