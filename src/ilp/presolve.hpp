// Bound-propagation presolve, binary probing and model reduction for the
// 0/1-dominated MILPs of the BIST formulation.
//
// One propagation kernel serves both passes. It works a queue of rows: a
// row's minimum/maximum activity over the current bounds implies a bound
// for each of its variables (rounded inward for integers), a row whose
// activity range misses its interval proves infeasibility, and a variable
// whose bound moves re-queues its rows.
//
// presolve() seeds the kernel with every row and runs it to the fixpoint
// (under a budget of 20 sweeps' worth of term visits, for models that
// converge slowly), then marks the rows that the final bounds alone satisfy
// as redundant (build_reduced_model drops them).
//
// probe_binaries() goes one level deeper: each unfixed 0/1 variable is
// tentatively fixed to 0 and to 1 and the kernel run from its rows. A probe
// value that propagates to a contradiction fixes the variable the other
// way (and its probe's implied bounds become unconditionally valid); a
// variable forced to the same value under both probes is fixed outright;
// everything else is harvested as implications x = v -> y = w into the
// conflict graph, where clique separation turns them into cutting planes.
//
// This is where the formulation's indicator chains collapse: e.g. when all
// z_vroml supporting an interconnection are fixed to 0, Eq. (1) forces
// z_rml = 0, which via Eq. (9) kills a whole family of t_rmlp variables —
// shrinking the branch & bound search space dramatically.
//
// build_reduced_model() materializes the shrink for the LP: redundant rows
// are dropped and fixed variables' terms are folded into the right-hand
// sides, so cut separation and FTRAN/BTRAN never scan dead rows or dead
// columns. Variable indices are preserved (a fixed variable keeps its
// column, now empty), so solutions map back 1:1.
#pragma once

#include <vector>

#include "lp/model.hpp"

namespace advbist::ilp {

class ConflictGraph;

struct PresolveResult {
  bool infeasible = false;
  std::vector<bool> row_redundant;  ///< per-constraint redundancy flag
};

/// Tightens variable bounds of `model` in place (left untouched when
/// infeasible). Never changes the set of feasible integer solutions.
PresolveResult presolve(lp::Model& model);

struct ProbingResult {
  bool infeasible = false;       ///< both probe values contradicted
  int probed = 0;                ///< binaries actually probed
  int fixed = 0;                 ///< variables fixed by probing
  int bounds_tightened = 0;      ///< non-fixing global bound improvements
  long long implications = 0;    ///< conflict edges harvested into the graph
};

/// Probes every unfixed binary of `model` (rows flagged in `skip_row` are
/// ignored when non-empty), fixing variables and tightening bounds in place
/// and adding implication edges to `graph` (which must be sized for the
/// model; finalize() is the caller's job).
ProbingResult probe_binaries(lp::Model& model,
                             const std::vector<bool>& skip_row,
                             ConflictGraph& graph);

struct ReducedModelResult {
  lp::Model model;
  int dropped_rows = 0;   ///< redundant, empty or constant rows dropped
  int dropped_terms = 0;  ///< fixed-variable terms folded into the rhs
  bool infeasible = false;  ///< a constant row contradicted its rhs
};

/// Builds the model handed to the LP: rows flagged in `row_redundant` are
/// dropped, fixed variables' terms are substituted out, and rows that
/// become constant are checked and dropped. Variable indices (and bounds,
/// objectives, types) are preserved.
ReducedModelResult build_reduced_model(const lp::Model& model,
                                       const std::vector<bool>& row_redundant);

}  // namespace advbist::ilp
