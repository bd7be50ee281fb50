// Cutting planes for the 0/1-dominated MILPs of the BIST formulation.
//
// Two separators, both producing globally valid <=-rows (they never exclude
// an integer-feasible point, so cuts can be shared freely between branch &
// bound workers and separated from any node's fractional LP point):
//
//  * Clique cuts from the conflict graph (see ilp/conflict_graph.hpp):
//    sum of the clique's literals <= 1, translated back to variable space
//    (a complement literal 1 - x folds a -1 coefficient and shifts the rhs).
//
//  * Lifted knapsack cover cuts on <=-rows: complementing negative
//    coefficients turns a row into  sum a_j y_j <= b  with a_j > 0 over
//    binary y_j in {x_j, 1 - x_j}; a greedy minimal cover C with
//    sum_{C} a_j > b yields  sum_{C} y_j <= |C| - 1, lifted by extension
//    with every variable whose weight reaches max_{C} a_j (any |C|-subset
//    of the extension outweighs C, so the bound survives). >=-rows are
//    negated first; equality rows contribute both sides.
//
// The CutPool deduplicates cuts structurally (sorted term vector + rhs) and
// ages them by activity: a pooled-but-unapplied cut that stays slack at the
// fractional points it is re-evaluated against loses a life per round and
// is evicted at zero, so the pool holds the cuts that keep separating, not
// everything ever found.
#pragma once

#include <cstdint>
#include <vector>

#include "lp/model.hpp"

namespace advbist::ilp {

enum class CutClass : std::uint8_t { kClique, kCover };

struct Cut {
  std::vector<lp::Term> terms;  ///< sorted by var, unique, nonzero
  double rhs = 0.0;             ///< sense is always <=
  CutClass cut_class = CutClass::kClique;

  /// Activity a'x at a point (terms only; compare against rhs).
  [[nodiscard]] double activity(const std::vector<double>& x) const;
  /// Violation at a point: activity - rhs (positive = cut off).
  [[nodiscard]] double violation(const std::vector<double>& x) const {
    return activity(x) - rhs;
  }
};

/// Translates a clique literal set (see ConflictGraph::separate_cliques)
/// into a <=-cut over the variables.
[[nodiscard]] Cut clique_cut_from_literals(const std::vector<int>& literals);

/// Separates violated lifted cover cuts from the <=-/>=-/equality rows of
/// `model` at fractional point `x`. Rows flagged in `skip_row` (when
/// non-empty) and rows with non-binary unfixed variables are ignored.
/// Returns at most `max_cuts` cuts with violation > min_violation,
/// best first.
[[nodiscard]] std::vector<Cut> separate_cover_cuts(
    const lp::Model& model, const std::vector<bool>& skip_row,
    const std::vector<double>& x, double min_violation, int max_cuts);

/// Deduplicating cut pool with activity aging. Not thread-safe; the solver
/// serializes access under its search mutex.
class CutPool {
 public:
  explicit CutPool(int max_size = 1024) : max_size_(max_size) {}

  /// Adds a cut unless a structurally identical one is already pooled.
  /// Returns true if the cut was new.
  bool add(Cut cut);

  /// Re-evaluates every pooled, not-yet-applied cut at `x`: violated ones
  /// are returned (best violation first, at most `max_cuts`) and marked
  /// applied; slack ones lose a life and are evicted at zero. Applied cuts
  /// are never aged out — they live as LP rows.
  [[nodiscard]] std::vector<Cut> take_violated(const std::vector<double>& x,
                                               double min_violation,
                                               int max_cuts);

  /// Cuts applied so far, in application order (workers replay this list
  /// into their own LPs; it only ever grows).
  [[nodiscard]] const std::vector<Cut>& applied() const { return applied_; }

  /// Checkpoint restore: inserts `cut` directly as an APPLIED row (workers
  /// replay the applied list, so the restored cut reaches every LP). A
  /// structurally identical pooled cut is promoted instead of duplicated;
  /// an already-applied duplicate is a no-op. Returns true when the
  /// applied list grew.
  bool restore_applied(Cut cut);

  [[nodiscard]] int num_pooled() const;
  [[nodiscard]] long long aged_out() const { return aged_out_; }

  /// Approximate heap footprint of the pooled + applied cuts, reported to
  /// the solve controller's cooperative memory accounting.
  [[nodiscard]] std::size_t approx_bytes() const;

 private:
  struct Entry {
    Cut cut;
    int lives = 3;
    bool applied = false;
  };
  [[nodiscard]] static std::uint64_t hash_cut(const Cut& cut);

  int max_size_;
  std::vector<Entry> entries_;
  std::vector<std::uint64_t> hashes_;  // parallel to entries_
  std::vector<Cut> applied_;
  long long aged_out_ = 0;
};

}  // namespace advbist::ilp
