// Bounded-variable primal and dual simplex over a Forrest–Tomlin-updated
// sparse LU basis factorization.
//
// Solves   min c'x   s.t.  row_lhs (sense) rhs,  l <= x <= u
// over the continuous relaxation of a lp::Model (integrality is ignored;
// branch & bound lives in src/ilp).
//
// Architecture (this is the hot path of every ILP node re-solve):
//
//  * Constraint matrix. Structural columns live in one contiguous CSC
//    triplet (col_start_/col_row_/col_val_) instead of a vector-of-vectors,
//    so pricing and FTRAN walk cache-line-friendly arrays. Each row also
//    gets a logical (slack) column — a unit vector that is never stored —
//    so the all-slack basis is always available and phase 1 can start from
//    any basis.
//
//  * Basis representation. The basis inverse is never formed explicitly.
//    A refactorization computes an LU factorization of the basis matrix
//    with sparse factors. The default factorization is a sparse
//    Markowitz-pivoting elimination (Suhl-style): singleton columns and
//    rows are pivoted first at zero fill-in cost — the bases seen in this
//    project are slack-heavy, so this triangularization usually resolves
//    almost the whole basis — and the remaining "bump" is eliminated
//    choosing pivots that minimize the Markowitz count
//    (rowcount-1)*(colcount-1) subject to a relative threshold
//    |a_rc| >= markowitz_tol * max|a_*c| for stability. Row and column
//    counts are maintained incrementally; only the active submatrix is
//    updated, so the cost is proportional to fill, not m^2. A basis the
//    Markowitz elimination flags as singular (or a markowitz_tol of 0 /
//    sparse_factorization = false) falls back to the original dense
//    column-major sweep with partial pivoting; a basis singular under both
//    falls back to the all-slack cold-start basis. Both factorizations
//    produce the same factors (plus row/column pivot permutations), so the
//    paths are interchangeable — tests/lp/factorization_diff_test.cpp pins
//    them against each other and a dense-inverse reference.
//
//    Between refactorizations the factors are updated in place by the
//    Forrest–Tomlin method (Forrest & Tomlin 1972; Suhl & Suhl 1993). U is
//    kept both by column and by row, upper triangular in a pivot order of
//    its slots. A pivot replaces the leaving slot's U column with the
//    entering column's "spike" — the FTRAN intermediate after the L and
//    row-eta stages, saved by the FTRAN that priced the pivot — moves the
//    slot to the end of the pivot order, and eliminates the slot's old U
//    row with one sparse row eta. FTRAN is L -> row etas -> U (in pivot
//    order); BTRAN is U' -> row etas reversed -> L'. On the Table-2 models
//    a spike carries a handful of nonzeros and a row eta about two, so an
//    update costs O(m + nnz(spike)) and the solves stay about as cheap as
//    right after a refactorization. Refactorization fires on
//    `refactor_every` updates, on U growing past a fixed multiple of its
//    post-factorization size, and — through the numerical-recovery ladder
//    — when the updated diagonal disagrees with the pivot element times
//    the replaced diagonal (the two are equal in exact arithmetic). A
//    basis unchanged across warm-started re-solves is never refactorized
//    again; Stats counts every refactorization cause.
//
//  * Pricing. A candidate list + cyclic block scan replaces full Dantzig
//    pricing: iterate() first re-prices the surviving candidates from the
//    previous pivot (a handful of columns), and only when none is still
//    attractive scans forward from a roving cursor in blocks until it finds
//    new candidates. Optimality is declared only after a full wrap of the
//    cursor finds no eligible column, so the partial scan never changes the
//    answer, only the order pivots are discovered in. After a run of
//    degenerate pivots pricing falls back to Bland's rule (full scan, first
//    eligible index) which guarantees termination.
//
//  * Phase 1 is the "composite objective" method: it minimizes the sum of
//    bound infeasibilities of basic variables directly, which allows warm
//    starting from an arbitrary basis after branch & bound tightens variable
//    bounds — the dominant use of this class.
//
//  * Dual simplex (solve_dual). A branch & bound bound change leaves the
//    old optimal basis dual-feasible (reduced costs do not depend on
//    bounds), and add_rows appends cut rows slack-basic (dual-feasible by
//    construction) — so the natural re-solve is a dual one: pick the
//    leaving row (see "Dual row pricing" below), BTRAN a single unit vector
//    for the pivot row, and run a bound-flipping dual ratio test (boxed
//    candidates cheaper than the entering breakpoint are flipped to their
//    other bound, shrinking the infeasibility without a basis change —
//    0/1-dominated models flip a lot). A handful of dual pivots replaces
//    the full primal phase-1/phase-2 pass. Wrong-sign reduced costs of
//    boxed nonbasics are repaired at entry by bound flips; anything the
//    flips cannot repair, plus numerical trouble and dual degeneracy, falls
//    back to the primal path, so solve_dual() is always exact. delete_rows
//    removes aged-out cut rows whose slack stayed basic — the remaining
//    basis is provably nonsingular and still dual-feasible — so the
//    factorization stops paying for dead cuts.
//
//  * Dual row pricing. Picking the leaving row by raw bound violation
//    (Dantzig-like) is blind to the geometry: on the massively degenerate
//    0/1 relaxations seen here it walks long chains of near-useless pivots.
//    The default rule is *Devex* (Forrest–Goldfarb's approximation of dual
//    steepest edge): each row i carries a reference weight w_i that
//    approximates ||e_i' B^-1||^2 relative to the reference framework, and
//    the leaving row maximizes violation_i^2 / w_i. After each pivot the
//    weights are updated in O(nnz) from the FTRANed entering column and the
//    BTRANed pivot row that the dual iteration computes anyway. A dual
//    steepest-edge mode (one extra FTRAN per pivot, the exact
//    Forrest–Goldfarb update recurrence) is kept as the reference
//    implementation the Devex approximation is validated against — note
//    its weights also restart from the all-ones framework on each reset,
//    so they are true row norms only up to that restart approximation.
//    The weights are only meaningful for the basis they
//    were accumulated on: they are RESET to the all-ones reference
//    framework on refactorization, on any primal pivot (fallback or
//    phase-2 certificate), on cold start, on add_rows/delete_rows, and
//    when the framework degrades (a weight outgrows 1e7) — a stale weight
//    set silently degrades the rule back to (worse than) Dantzig, which is
//    why resets are counted in Stats::devex_resets and pinned by
//    tests/lp/dual_simplex_test.cpp.
//
//  * Dual ratio test. alpha_j = rho' a_j is priced for the BTRANed pivot
//    row rho by one column-major pass over the nonbasic columns. (The
//    pivot rows here average ~19% nonzeros, so an indexed walk over a
//    row-wise copy of A measured no faster and is not used.)
//
// Problem sizes in this project are a few thousand rows/columns; the sparse
// factorization keeps the refactorization cost proportional to fill while
// the Forrest–Tomlin update keeps the per-pivot cost proportional to the
// spike.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "lp/model.hpp"
#include "util/solve_controller.hpp"

namespace advbist::lp {

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterLimit,
  /// The attached util::SolveController tripped a limit mid-solve (deadline,
  /// cancellation, memory). No objective/point is reported; the warm basis
  /// stays valid for a later re-solve.
  kAborted,
};

struct LpResult {
  LpStatus status = LpStatus::kIterLimit;
  double objective = 0.0;
  /// Values of the model's structural variables (empty unless kOptimal).
  std::vector<double> x;
  int iterations = 0;  ///< total pivots/flips = phase1 + phase2 + dual
  // Where the pivots went (solve() fills the primal pair; solve_dual() all
  // three — perf PRs read these to see which path is paying).
  int phase1_iterations = 0;  ///< primal composite phase-1 pivots
  int phase2_iterations = 0;  ///< primal phase-2 pivots (incl. bound flips)
  int dual_iterations = 0;    ///< dual simplex pivots
  /// solve_dual() only: the dual path bailed (warm basis not dual-feasible,
  /// numerical trouble, or degeneracy) and the primal path produced the
  /// result instead.
  bool dual_fallback = false;
};

/// Leaving-row selection rule for solve_dual() (see the header comment).
enum class DualPricing {
  kDevex,         ///< reference-framework Devex weights (default)
  kSteepestEdge,  ///< dual steepest edge (exact Forrest-Goldfarb update
                  ///< recurrence; weights restart all-ones on each reset) —
                  ///< reference mode, one extra FTRAN per pivot; use to
                  ///< validate the Devex path
};

struct SimplexOptions {
  double feas_tol = 1e-7;   ///< bound/row feasibility tolerance
  double opt_tol = 1e-7;    ///< reduced-cost optimality tolerance
  double pivot_tol = 1e-9;  ///< minimum acceptable pivot magnitude
  int max_iterations = 500000;
  /// Cap on Forrest–Tomlin updates between basis refactorizations (U
  /// growth and the update's stability check can refactorize earlier).
  int refactor_every = 100;
  /// Use the sparse Markowitz factorization (false: dense sweep only).
  bool sparse_factorization = true;
  /// Relative threshold-pivoting tolerance in (0, 1]: a Markowitz pivot
  /// candidate a_rc is admissible only if |a_rc| >= markowitz_tol times the
  /// largest magnitude in its column. Larger = more stable, more fill.
  double markowitz_tol = 0.1;
  /// Leaving-row rule for solve_dual(). kDevex (default) prices rows by
  /// violation^2 / reference-weight; kSteepestEdge maintains dual
  /// steepest-edge weights via the exact update recurrence (one extra
  /// FTRAN per pivot; all-ones restart on each reset).
  DualPricing dual_pricing = DualPricing::kDevex;
  /// Geometric-mean + equilibration scaling (lp/scaling.hpp) applied to
  /// the internal problem data at construction. All factors are powers of
  /// two, so scaling is EXACT: solutions, bounds and reduced costs are
  /// unscaled at every public boundary and the objective needs no
  /// unscaling at all (c'.x' == c.x identically). A well-conditioned
  /// model yields trivial factors and a bit-identical trajectory to the
  /// unscaled run — which is why this defaults off here (the LP-level
  /// pivot-pin suites stay exact) and on at the ILP level (Options::
  /// lp_scaling), where untrusted instances arrive.
  bool scaling = false;
};

class SimplexSolver {
 public:
  using Options = SimplexOptions;

  explicit SimplexSolver(const Model& model, Options options = Options());

  SimplexSolver(const SimplexSolver&) = delete;
  SimplexSolver& operator=(const SimplexSolver&) = delete;

  /// Updates the bounds of structural variable `var`. Keeps the current
  /// basis: the next solve() warm-starts from it (phase 1 repairs any
  /// resulting infeasibility).
  void set_variable_bounds(int var, double lower, double upper);

  /// Bounds of structural variable `var` in ORIGINAL (unscaled) units —
  /// the internal arrays hold scaled values while scaling is active, and
  /// power-of-two factors make the round trip exact.
  [[nodiscard]] double variable_lower(int var) const {
    return scaling_active_ ? lb_[var] * col_scale_[var] : lb_[var];
  }
  [[nodiscard]] double variable_upper(int var) const {
    return scaling_active_ ? ub_[var] * col_scale_[var] : ub_[var];
  }

  /// True when SimplexOptions::scaling found non-trivial factors for this
  /// model (a well-conditioned model keeps this false at zero cost).
  [[nodiscard]] bool scaling_active() const { return scaling_active_; }

  /// Discards the warm-start basis; the next solve() cold-starts from the
  /// all-slack basis.
  void invalidate_basis();

  /// Caps the pivots/flips of every subsequent solve()/solve_dual() call.
  /// Used by strong branching to bound each probing re-solve: a capped
  /// solve that runs out returns kIterLimit (no objective) and leaves a
  /// valid warm basis for the next call. Pass SimplexOptions{}.max_iterations
  /// to restore the default.
  void set_max_iterations(int max_iterations) {
    opt_.max_iterations = max_iterations;
  }

  /// Attaches a solve controller polled every few pivots inside the primal
  /// AND dual iteration loops (null detaches). When a limit trips
  /// mid-solve, the solve returns kAborted instead of running to
  /// completion — this is what makes deadlines enforceable: a single
  /// pathological re-solve can no longer blow past them. The controller
  /// must outlive every subsequent solve()/solve_dual() call.
  void set_controller(util::SolveController* controller) {
    ctrl_ = controller;
  }

  /// Appends constraint rows (cutting planes) to the LP.
  ///
  /// Precondition (by construction, not checked): every term references a
  /// structural variable of the original model. Each new row's slack enters
  /// the basis — this is what makes the append warm-start-safe: a
  /// slack-basic row keeps the basis nonsingular AND dual-feasible (the new
  /// row's dual value is zero, so no reduced cost moves), which is why the
  /// natural follow-up is solve_dual(). The factorization is extended in
  /// place, pending Forrest–Tomlin updates included: with B = L R^-1 U
  /// (R the product of the row etas, permutations aside), the bordered
  /// basis factors as L' = [[L,0],[l',1]], U' = [[U,0],[0,1]] with
  /// l' = g' U^-1 R for the new row g over the basic columns — the U' and
  /// row-eta stages of one BTRAN and an O(nnz) L rebuild per row, never a
  /// refactorization or a cold start. Devex/steepest-edge dual weights are
  /// reset (the row dimension changed).
  void add_rows(const std::vector<ConstraintDef>& rows);

  /// Deletes appended cut rows.
  ///
  /// Preconditions (checked): every index is >= the construction row count
  /// (only rows appended via add_rows may be deleted, never model rows),
  /// the indices are strictly increasing, and every deleted row's slack is
  /// BASIC at the current basis — query added_row_slack_basic() first; the
  /// aging policy in src/ilp guarantees it by construction. The basic-slack
  /// requirement is what makes deletion cheap and exact: removing a
  /// basic-slack row keeps the remaining basis nonsingular (expand the
  /// determinant along the slack's unit column) and leaves every reduced
  /// cost unchanged (the row's dual is zero), so the shrunken basis is
  /// still dual-feasible and the next solve_dual() warm starts. The LU
  /// factors are rebuilt at the new size; basic values are recomputed by
  /// the next solve(); Devex/steepest-edge dual weights are reset.
  void delete_rows(const std::vector<int>& rows);

  /// True if the slack of appended row `added` (0-based among the rows
  /// appended via add_rows) is basic at the current basis — i.e. the cut is
  /// inactive and a candidate for delete_rows aging.
  [[nodiscard]] bool added_row_slack_basic(int added) const {
    return vstat_[n_ + initial_m_ + added] == kBasic;
  }

  /// Reduced costs d = c - y'A of the structural variables at the current
  /// basis. Meaningful after a solve() returned kOptimal (used for
  /// reduced-cost bound fixing in branch & bound).
  [[nodiscard]] std::vector<double> reduced_costs() const;

  /// Current number of constraint rows (grows with add_rows).
  [[nodiscard]] int num_added_rows() const { return m_ - initial_m_; }

  /// Solves the LP relaxation (minimization) through the primal path:
  /// composite phase 1 repairs any warm-start infeasibility, phase 2
  /// optimizes.
  LpResult solve();

  /// Solves the LP relaxation through the dual simplex. Intended for the
  /// branch & bound re-solve pattern: after a bound change (or add_rows,
  /// whose cut rows enter slack-basic) the old optimal basis stays
  /// dual-feasible, so a handful of dual pivots replaces a full primal
  /// phase-1/phase-2 pass. Boxed nonbasic variables whose reduced cost has
  /// the wrong sign are first flipped to their other bound (restoring dual
  /// feasibility for free); if that is impossible (free or one-sided
  /// variable) or the dual path hits numerical trouble, the primal path
  /// finishes the solve and the result is flagged dual_fallback. Either way
  /// the returned status/objective matches solve().
  LpResult solve_dual();

  /// Cumulative factorization/pivot counters (never reset; cheap to keep).
  struct Stats {
    long long refactorizations = 0;          ///< successful refactorizations
    long long sparse_refactorizations = 0;   ///< via Markowitz elimination
    long long dense_refactorizations = 0;    ///< via the dense sweep
    /// Markowitz flagged the basis singular and the dense sweep was tried.
    long long sparse_fallbacks = 0;
    /// Times the relative stability threshold changed a pivot choice: a
    /// singleton-row candidate vetoed, or a bump step forced onto a
    /// strictly costlier pivot (counted once per step, not per rescan).
    long long pivot_rejections = 0;
    /// Cumulative nnz of the factorized bases and of the extra L/U entries
    /// beyond them; fill ratio = (basis + fill) / basis.
    long long factor_basis_nnz = 0;
    long long factor_fill_nnz = 0;
    long long basis_pivots = 0;
    long long bound_flips = 0;

    // --- dual simplex (solve_dual) ---
    long long dual_solves = 0;     ///< solve_dual() calls
    long long dual_fallbacks = 0;  ///< of those, finished by the primal path
    long long dual_iterations = 0;          ///< dual pivots
    long long primal_phase1_iterations = 0; ///< composite phase-1 pivots
    long long primal_phase2_iterations = 0; ///< phase-2 pivots + bound flips
    /// Nonbasic bounds flipped by the dual path: dual-feasibility
    /// restoration at entry plus bound-flipping ratio-test flips.
    long long dual_bound_flips = 0;
    /// Devex/steepest-edge weight resets to the all-ones reference
    /// framework (refactorization, primal pivots, cold start, row
    /// add/delete, framework degradation). A reset per dual solve is
    /// normal churn; a reset per dual PIVOT means the weights never
    /// accumulate and the rule has degraded to Dantzig.
    long long devex_resets = 0;

    // --- row deletion (delete_rows) ---
    long long rows_deleted = 0;  ///< cut rows aged out of the LP
    int peak_rows = 0;           ///< high-water row count (add_rows growth)

    // --- numerical-recovery escalation ladder ---
    // Repeated pivot rejections / residual drift inside one solve escalate
    // through four rungs instead of the old single-shot fallbacks; each
    // counter tallies the times that rung was climbed to. The rung resets
    // once the solve makes pivot progress again (a fresh incident restarts
    // at rung 0) and at every public solve entry.
    long long recovery_refactorize = 0;  ///< rung 0: basis refactorized
    long long recovery_tighten = 0;  ///< rung 1: markowitz_tol tightened 5x
    long long recovery_dense = 0;    ///< rung 2: dense LU forced
    long long recovery_cold = 0;     ///< rung 3: cold primal restart
    /// Solves abandoned with the ladder exhausted (reported kIterLimit on
    /// the primal path / primal fallback on the dual path).
    long long recovery_exhausted = 0;
    /// LP solves aborted mid-iteration by the solve controller.
    long long aborted_solves = 0;

    // --- refactorization causes (a trigger is counted when it fires; the
    // recovery-ladder rungs above count their own refactorizations) ---
    long long refactor_update_cap = 0;  ///< refactor_every updates reached
    long long refactor_u_growth = 0;    ///< U outgrew its update budget
    /// The updated U diagonal failed the stability check; the pivot is
    /// rejected and the recovery ladder refactorizes the unchanged basis.
    long long refactor_stability = 0;
    long long refactor_delete_rows = 0;  ///< delete_rows rebuild
    /// A phase-1 infeasibility verdict re-derived on fresh factors.
    long long refactor_certify = 0;
    long long refactor_dual_ray = 0;  ///< dual ray re-verified on fresh factors
    long long refactor_refresh = 0;   ///< refresh_factorization() (exit audit)

    /// Mean nnz(L+U) / nnz(B) over all refactorizations (1.0 = no fill).
    [[nodiscard]] double fill_ratio() const {
      return factor_basis_nnz > 0
                 ? static_cast<double>(factor_basis_nnz + factor_fill_nnz) /
                       static_cast<double>(factor_basis_nnz)
                 : 1.0;
    }
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Forces an immediate refactorization of the current basis
  /// (cold-starting one first if none exists), discarding the pending
  /// Forrest–Tomlin updates and any accumulated drift. Returns false if
  /// the basis was singular under both factorization paths (the solver
  /// then cold-starts). The exit audit uses this to recompute the claimed
  /// dual bound on fresh factors.
  bool refresh_factorization();

  // --- testing/diagnostic hooks (tests/lp/factorization_diff_test.cpp) ---
  /// Test-suite alias for refresh_factorization().
  bool refactorize_for_testing() { return refresh_factorization(); }
  /// Solves B w = rhs with the current factors and their pending updates.
  /// `rhs` is indexed by original row; the result by basis position.
  [[nodiscard]] std::vector<double> ftran_for_testing(
      std::vector<double> rhs) const;
  /// Solves y' B = cb'. `cb` is indexed by basis position; the result by
  /// original row.
  [[nodiscard]] std::vector<double> btran_for_testing(
      const std::vector<double>& cb) const;
  /// Dense column-major copy of the current basis matrix (m x m; column i
  /// is the column of basis()[i]).
  [[nodiscard]] std::vector<double> dense_basis_for_testing() const;
  [[nodiscard]] int num_rows() const { return m_; }
  [[nodiscard]] const std::vector<int>& basis() const { return basis_; }
  /// Exchanges basis position `basis_pos` for nonbasic column `col`
  /// (structural index, or n + row for a slack) through one Forrest–Tomlin
  /// update; no refactorization, no primal step (the next solve recomputes
  /// the basic values). Refuses — returns false, basis unchanged — a pivot
  /// element below a tenth of the FTRANed column's largest entry, so test
  /// and bench chains stay well conditioned, a leaving variable with no
  /// finite bound to rest on, and an update failing its stability check.
  bool pivot_for_testing(int basis_pos, int col);
  /// Forrest–Tomlin updates applied since the last refactorization.
  [[nodiscard]] int updates_since_refactor() const {
    return pivots_since_refactor_;
  }

  /// Testing hook: max |incrementally maintained dual_d_ - freshly
  /// recomputed reduced cost| over the nonbasic non-fixed columns.
  /// Meaningful right after a solve_dual() that finished on the dual path
  /// with a zero-pivot primal certificate (primal pivots do not maintain
  /// dual_d_); the drift suite checks that precondition. Fixed columns are
  /// excluded by design: they can neither enter nor flip, and their
  /// reduced costs are refreshed at every solve entry.
  [[nodiscard]] double dual_reduced_cost_drift_for_testing() const;

 private:
  enum Status : std::int8_t { kAtLower = 0, kAtUpper = 1, kBasic = 2 };

  void cold_start();
  /// Common tail of every fresh factor set (refactorization, cold start):
  /// builds U's row copy from its columns, resets the pivot order to the
  /// factorization order and drops the row etas and the update counters.
  void reset_updates();
  void compute_basic_values();
  /// Rebuilds the LU factors from basis_: Markowitz first (when enabled),
  /// dense sweep as the singularity fallback; false if both flag the basis
  /// singular.
  bool refactorize();
  bool refactorize_markowitz();  // sparse elimination; false if singular
  bool refactorize_dense();      // dense partial-pivot sweep; false if singular

  /// Numerical-recovery escalation ladder, called on a troubled iteration
  /// (rc == 3: rejected pivots, residual drift, an LU update failing its
  /// stability check). Fresh incidents — at least one pivot since the last
  /// trouble — restart at rung 0; repeated trouble with no progress climbs:
  /// refactorize -> tighten markowitz_tol -> force the dense LU -> cold
  /// primal restart. Returns false when even the top rung was already spent
  /// (the caller abandons the solve: kIterLimit on the primal path, primal
  /// fallback on the dual path).
  /// Leaves basic values recomputed on success.
  bool escalate_recovery();

  /// Controller poll for the iteration loops: true when the solve must
  /// abort. Checks every 16 iterations to keep the hot path cheap.
  [[nodiscard]] bool poll_abort() {
    return ctrl_ != nullptr && (iterations_ & 15) == 0 &&
           ctrl_->check() != util::StopReason::kNone;
  }

  /// In-place B^{-1} v for a dense vector indexed by original row; the
  /// result is indexed by basis position. With `spike` non-null the
  /// intermediate after the L and row-eta stages is copied there.
  void ftran_vec(std::vector<double>& v,
                 std::vector<double>* spike = nullptr) const;
  /// w = B^{-1} a_col for a (structural or slack) column; saves the spike
  /// that the pivot on `col` feeds to the Forrest–Tomlin update.
  void ftran(int col, std::vector<double>& w);
  /// y' = cb' B^{-1}: cb is indexed by basis position, y by original row.
  void btran(const std::vector<double>& cb, std::vector<double>& y) const;
  /// The U' and reversed row-eta stages of BTRAN, in place on a vector
  /// indexed by factor slot (shared by btran and the add_rows border).
  void btran_upper(std::vector<double>& q) const;

  [[nodiscard]] double reduced_cost(int col, const std::vector<double>& y,
                                    const std::vector<double>& cost) const;
  /// LARGEST single bound violation over the basic variables (not the sum:
  /// phase-1 costs, the dual pricing loop and the ratio test all deadband
  /// per row at feas_tol, so the feasibility verdict must grade on the same
  /// per-row scale — a long warm-start trajectory legitimately accumulates
  /// many sub-tolerance residuals whose SUM crosses any fixed threshold,
  /// and phase 1, seeing no costed column, would certify a feasible LP
  /// infeasible).
  [[nodiscard]] double infeasibility() const;

  /// Pricing helper: eligibility of nonbasic column j under `cost`/duals
  /// `y`. Returns +1/-1 entering direction, 0 if not eligible; `score` is
  /// the Dantzig score |reduced cost|.
  int price_column(int j, const std::vector<double>& y,
                   const std::vector<double>& cost, double& score) const;

  /// One pricing+pivot step. `phase1` selects the composite objective.
  /// Returns: 0 = pivoted, 1 = no improving column (optimal for the phase),
  /// 2 = unbounded (phase 2 only), 3 = numerical trouble (refactor & retry).
  int iterate(bool phase1, bool bland);

  /// Forrest–Tomlin update plus basis exchange (or a bound flip when
  /// leaving_row < 0). Returns false when the update failed its stability
  /// check: the pivot is not made — basis, values and factors unchanged —
  /// and the caller reports numerical trouble to the recovery ladder.
  bool pivot(int entering, int leaving_row, double t, int entering_dir,
             const std::vector<double>& w, Status leaving_status);
  /// Forrest–Tomlin update for the pivot that replaced basis position
  /// `leaving_row`, using the spike saved by ftran(); `alpha` is the pivot
  /// element. Returns false, factors untouched, when the stability check
  /// fails (see pivot()).
  bool update_factors(int leaving_row, double alpha);

  // --- dual simplex internals (solve_dual) ---
  /// The primal phase-1/phase-2 loop shared by solve() and the dual
  /// fallback; assumes counters were reset by the public entry point.
  LpResult run_primal();
  /// True when the loops must refactorize before the next pivot: the
  /// update cap or U's growth budget is spent. Counts the cause in stats_.
  bool refactor_due();
  /// Fills the per-solve iteration split of `result` and folds it into the
  /// cumulative stats. Must run exactly once per public solve entry.
  void finalize_result(LpResult& result, LpStatus status);
  /// Recomputes the full reduced-cost vector dual_d_ (one BTRAN + one pass
  /// over the columns) for the current basis.
  void compute_dual_reduced_costs();
  /// Flips boxed nonbasic variables whose reduced cost has the wrong sign
  /// for their bound onto the other bound. Returns false when a wrong-sign
  /// variable cannot flip (infinite opposite bound): the basis cannot be
  /// made dual-feasible by flipping and solve_dual must fall back.
  bool restore_dual_feasibility();
  /// One dual pivot: leaving row by the configured pricing rule (Devex or
  /// steepest-edge weights), entering
  /// column by a bound-flipping dual ratio test over the BTRANed pivot
  /// row. Returns 0 = pivoted, 1 = primal feasible (dual optimal),
  /// 2 = primal infeasible (dual ray), 3 = numerical trouble.
  int iterate_dual();
  /// Re-initializes the dual pricing weights to the all-ones reference
  /// framework when they are missing or stale.
  void ensure_dual_weights();
  /// Devex / exact steepest-edge weight update after a dual pivot with
  /// leaving row r, FTRANed entering column w (pivot element w[r]) and
  /// BTRANed pivot row rho (= e_r' B^-1, indexed by original row). Both
  /// vectors are exactly zero off their support, so the weight loops
  /// value-skip and cost O(nnz), never O(m) of multiplies.
  void update_dual_weights(int r, const std::vector<double>& w,
                           const std::vector<double>& rho);

  // --- problem data (immutable except bounds and appended cut rows) ---
  int n_ = 0;          // structural variables
  int m_ = 0;          // rows (model rows + appended cut rows)
  int initial_m_ = 0;  // rows at construction
  int total_ = 0;      // n_ + m_
  // Structural columns in compressed sparse column form.
  std::vector<int> col_start_;   // size n_+1
  std::vector<int> col_row_;     // row indices, size nnz
  std::vector<double> col_val_;  // coefficients, size nnz
  std::vector<double> lb_, ub_;  // size total_
  std::vector<double> cost_;     // size total_ (phase-2 costs)
  std::vector<double> rhs_;      // size m_

  // --- scaling (SimplexOptions::scaling, lp/scaling.hpp) ---
  // While active, col_val_/rhs_/cost_/lb_/ub_ hold the SCALED problem
  // (A' = R A C, b' = R b, c' = C c, bounds / C); every public boundary
  // unscales. Slack bounds (0 / +-inf) are invariant under positive row
  // scaling, so slacks carry no factor. row_scale_ grows with add_rows
  // (per-cut-row factor) and shrinks with delete_rows.
  bool scaling_active_ = false;
  std::vector<double> row_scale_;  // size m_ while active
  std::vector<double> col_scale_;  // size n_ while active

  // --- simplex state ---
  std::vector<int> basis_;          // size m_: column basic in each row
  std::vector<std::int8_t> vstat_;  // size total_
  std::vector<double> x_;           // size total_
  bool has_basis_ = false;
  int pivots_since_refactor_ = 0;
  int iterations_ = 0;
  int degenerate_run_ = 0;
  // Per-solve iteration split (reset by solve()/solve_dual(), reported in
  // LpResult and accumulated into stats_).
  int iter_phase1_ = 0;
  int iter_phase2_ = 0;
  int iter_dual_ = 0;

  // --- basis factorization ---
  // Both refactorization paths (sparse Markowitz elimination; dense
  // column-major sweep as fallback) emit the same sparse factors of
  // P B Q = L U: the bases seen here are slack-heavy and the factors stay
  // close to the identity, so FTRAN / BTRAN cost O(m + nnz(L) + nnz(U))
  // instead of O(m^2) dense triangular solves. Factor "slots" are the pivot
  // steps of the last refactorization: L is unit lower triangular in slot
  // order and never changes between refactorizations (add_rows only
  // appends border rows); U is upper triangular in the pivot order
  // u_order_, which Forrest–Tomlin updates permute. perm_ is the row pivot
  // order P, cperm_ the column pivot order Q (identity for the dense sweep,
  // which pivots columns in basis order); neither changes on an update.
  std::vector<int> perm_;   // row permutation: slot i <- row perm_[i]
  std::vector<int> cperm_;  // col permutation: slot k <- basis pos cperm_[k]
  std::vector<int> l_start_, l_idx_;  // unit-L off-diagonal columns (i > k)
  std::vector<double> l_val_;

  /// Sparse lists packed in one arena: list s holds len[s] (index, value)
  /// entries from start[s], with room for cap[s]. An update rewrites a
  /// handful of lists; a list that outgrows its block moves to the arena
  /// end, and the dead space is reclaimed by the next refactorization.
  struct PackedLists {
    std::vector<int> start, len, cap, idx;
    std::vector<double> val;
    /// `n` empty lists over an empty arena (capacity kept).
    void reset(int n);
    /// Drops list s's entries and gives it `room` fresh slots at the end.
    void renew(int s, int room);
    /// Appends (i, v) to list s; a full list grows in place at the arena
    /// end and moves there from anywhere else.
    void push(int s, int i, double v);
    /// Removes the entry with index i from list s (must be present).
    void erase(int s, int i);
  };
  // U off the diagonal, by column (entries: row slot, value) and by row
  // (entries: column slot, value); FTRAN walks the columns, BTRAN and the
  // update's row elimination walk the rows.
  PackedLists ucol_, urow_;
  std::vector<double> u_diag_;  // U diagonal by slot, size m_
  std::vector<int> u_order_;    // U's pivot order: slots, first to last
  long long u_nnz_ = 0;         // live off-diagonal U entries
  long long u_nnz_factor_ = 0;  // ... right after the last refactorization

  // Forrest–Tomlin row etas, oldest first: row eta e subtracts
  // sum_p ft_val_[p] * v[ft_idx_[p]] (p in ft_start_[e] .. ft_start_[e+1])
  // from v[ft_slot_[e]].
  std::vector<int> ft_slot_;
  std::vector<int> ft_start_;  // size num_row_etas + 1
  std::vector<int> ft_idx_;
  std::vector<double> ft_val_;
  // The spike saved by ftran(col) for the pivot on column spike_col_
  // (slot-indexed), and the update's zero-between-calls row scatter.
  std::vector<double> spike_;
  int spike_col_ = -1;
  std::vector<double> ft_row_;

  // --- partial pricing state ---
  std::vector<int> candidates_;  // surviving candidate columns
  int price_cursor_ = 0;         // roving start of the cyclic block scan

  // --- scratch (avoid per-iteration allocation) ---
  mutable std::vector<double> work_;        // ftran/btran solves
  mutable std::vector<double> work2_;       // second solve buffer (btran)
  std::vector<double> phase_cost_;          // composite phase-1 objective
  std::vector<double> duals_;               // y
  std::vector<double> cb_;                  // basic costs
  std::vector<double> wcol_;                // FTRANed entering column

  // --- dual simplex scratch (sized lazily in solve_dual) ---
  std::vector<double> dual_d_;      // reduced costs, size total_
  std::vector<double> dual_rho_;    // BTRANed leaving row, size m_
  std::vector<double> dual_unit_;   // e_r scratch for the rho BTRAN
  /// Candidate entering columns of one dual ratio test.
  struct DualCandidate {
    int col;
    double ratio;
    double alpha;  // signed pivot-row entry sgn * (rho' a_col)
  };
  std::vector<DualCandidate> dual_cands_;
  /// The live pivot-row entries of one dual ratio test: every nonbasic
  /// non-fixed column whose alpha is above the cancellation-noise drop
  /// tolerance (1e-4 * pivot_tol) — NOT filtered at pivot_tol. The theta
  /// update must move every real reduced cost the pivot row touches;
  /// filtering small-but-real alphas out of the update (the pre-PR-7
  /// dense array did) makes dual_d_ drift by theta*alpha per pivot,
  /// which the drift suite pins. pivot_tol still gates candidate
  /// eligibility (pivot safety), just not the bookkeeping; below the
  /// drop tolerance an alpha is accumulation noise and is treated as an
  /// exact zero everywhere, keeping pivot sequences noise-independent.
  struct DualRowEntry {
    int col;
    double alpha;
  };
  std::vector<DualRowEntry> dual_row_;
  std::vector<int> dual_flips_;     // columns flipped by the BFRT walk
  std::vector<double> dual_fcol_;   // accumulated flip column, size m_
  // Dual pricing weights (Devex reference framework / exact steepest-edge
  // row norms), valid only while dual_w_valid_: any primal pivot,
  // refactorization, cold start or row add/delete invalidates them and the
  // next dual iteration resets to all ones (counted in stats_).
  std::vector<double> dual_w_;      // size m_ while valid
  bool dual_w_valid_ = false;
  std::vector<double> dual_tau_;    // B^-1 rho scratch (steepest edge only)

  // Markowitz elimination workspace, reused across refactorizations so the
  // per-row vectors keep their capacity (no allocation churn in the hot
  // path). Cleared, not shrunk, at the start of each factorization.
  struct MarkowitzWorkspace {
    // Active submatrix, row-wise with exact values; rows hold only active
    // columns. cl[j] is the column's row pattern and may carry stale
    // entries (frozen rows, cancelled entries) that are skipped/compacted
    // lazily on scan.
    std::vector<std::vector<std::pair<int, double>>> rows;
    std::vector<std::vector<int>> cl;
    std::vector<int> rowcount, colcount;
    std::vector<int> rowpos, colpos;  // pivot step, -1 while active
    std::vector<int> colq, rowq;      // singleton candidate stacks
    // Scatter of the current pivot row during elimination.
    std::vector<double> wrow;
    std::vector<char> mark, hit;
    std::vector<int> pcols;
    // Row-seen marker + entry scratch for column scans (dedup + no churn).
    std::vector<char> rmark;
    std::vector<std::pair<int, double>> scan_entries;
    // L accumulated in step order with *original* row indices (remapped to
    // permuted positions once the full pivot order is known).
    std::vector<int> l_orig_rows;
    std::vector<double> l_vals;
    std::vector<int> l_starts;
    // U entries frozen per factor column as (pivot step, value).
    std::vector<std::vector<std::pair<int, double>>> ucols;
  };
  MarkowitzWorkspace mw_;

  Stats stats_;
  Options opt_;
  // Escalation-ladder state (see escalate_recovery): the configured
  // markowitz_tol is restored at every public solve entry after a rung-1
  // tighten, and the rung restarts at 0.
  double cfg_markowitz_tol_ = 0.1;
  int recovery_rung_ = 0;
  int iters_at_last_trouble_ = -1;
  util::SolveController* ctrl_ = nullptr;
};

}  // namespace advbist::lp
