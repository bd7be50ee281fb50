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
//    A refactorization computes a sparse LU factorization of the basis
//    matrix by Markowitz-pivoting elimination (Suhl & Suhl 1990): singleton
//    columns and rows are pivoted first at zero fill-in cost — the bases
//    seen in this project are slack-heavy, so this triangularization
//    usually resolves almost the whole basis — and the remaining "bump" is
//    eliminated choosing pivots that minimize the Markowitz count
//    (rowcount-1)*(colcount-1) subject to a relative threshold
//    |a_rc| >= markowitz_tol * max|a_*c| for stability. Row and column
//    counts are maintained incrementally; only the active submatrix is
//    updated, and the bump's pivot search walks a list of the unpivoted
//    columns, so the cost is proportional to fill, not m^2. A basis the
//    elimination flags as singular goes to the numerical-recovery ladder
//    (a tighter threshold, then the all-slack cold-start basis).
//    tests/lp/factorization_diff_test.cpp pins the factors against a
//    dense-inverse reference and every solve against the explicit dual.
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
//    a spike carries a handful of nonzeros and a row eta about two, so the
//    solves stay about as cheap as right after a refactorization. Their
//    passes walk work lists instead of every slot: FTRAN's L pass and
//    BTRAN's L' pass the slots with a non-empty L column, FTRAN's U pass
//    U's pivot order without the slots that have a unit diagonal and an
//    empty U column. Every slot skipped is an exact no-op, so the
//    arithmetic and its order are those of a full walk. The
//    lists are built with the factors; the update keeps the U list
//    current (k0 moves to its end; a column that empties leaves it). The
//    update itself costs O(m) for locating and moving k0 in the pivot
//    order and for the row elimination's walk, plus O(nnz(spike)): the
//    pivot FTRAN records the nonzeros of the entering column and of its
//    spike in ascending order, and the spike push, the Devex update and
//    the basic value update walk those lists. Refactorization fires on
//    `refactor_every` updates, on U growing past a fixed multiple of its
//    post-factorization size, and — through the numerical-recovery ladder
//    — when the updated diagonal disagrees with the pivot element times
//    the replaced diagonal (the two are equal in exact arithmetic). A
//    basis unchanged across warm-started re-solves is never refactorized
//    again, and set_basis() keeps the factors it built last, so a probe
//    that restores its starting basis copies them back instead of
//    refactorizing; Stats counts every refactorization cause.
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
//    back to the primal path, so solve_dual() is always exact. With no
//    basis, solve_dual() starts from the slack basis: its reduced costs
//    are the costs, which the flips make dual feasible whenever every
//    cost points at a finite bound (true of the min-area covering models
//    here, so their cold LPs need no phase 1; Koberstein 2005, §6).
//    delete_rows removes aged-out cut rows whose slack stayed basic — the
//    remaining basis is provably nonsingular and still dual-feasible — so
//    the factorization stops paying for dead cuts.
//
//  * Dual cost perturbation. The 0/1 covering relaxations here are very
//    dual degenerate: without help well over half of all dual pivots have
//    ratio theta = 0 and leave the objective where it was. After the
//    entry flips, solve_dual() shifts the cost of every nonbasic non-fixed
//    column (free columns excepted) by about 5e-7 (1 + |c_j|), times a
//    factor in [0.5, 1] hashed from the column index, in the direction
//    that makes its reduced cost strictly dual-feasible (Koberstein 2005,
//    §6.2; Huangfu & Hall 2018). The ties break and nearly every dual
//    pivot moves the objective. Every exit — optimal, dual ray, cutoff,
//    abort, iteration cap, primal fallback — restores the original costs
//    first. An optimal dual finish then runs the primal phase-2
//    certificate on the true costs, whose pivots (Stats::perturbation_cleanup_pivots) remove
//    any reduced cost the shift left with the wrong sign. A dual ray is a
//    statement about bounds, not costs. So objectives, points,
//    reduced_costs() and infeasibility verdicts stay exact. The shift is
//    deterministic and unconditional: there is no option for it.
//
//  * Objective limit and certificates. solve_dual(limit) tracks the
//    (perturbed) dual objective c'x of the current basic solution as it
//    rises: pivot() and the ratio test's bound flips add c_j * dx_j beside
//    the value updates they make anyway, and the value is re-synced exactly
//    wherever the dual state is rebuilt. Once it passes the limit, the
//    perturbation comes off, the true basic costs are BTRANed on the
//    current factors, and the box-dual bound of the resulting y is computed
//    from the stored columns and bounds (Neumaier & Shcherbina 2004):
//        y'b + sum_j min over [l_j, u_j] of (c_j - y'a_j) x_j,
//    with y clamped to the sign a one-sided row's slack admits. Weak
//    duality makes it a lower bound for ANY y, so the factors' accuracy
//    only decides how tight it is, never whether it is valid. At or above
//    the limit the solve ends kCutoff; below, the perturbation goes back on
//    and the solve continues. The same kernel with zero costs checks a dual
//    ray y = +-e_r' B^-1 as a Farkas certificate: a bound above feas_tol
//    proves the LP infeasible with no refactorization. A ray that fails is
//    re-derived once on fresh factors, and one that fails again goes to
//    the primal path.
//
//  * Dual row pricing. Picking the leaving row by raw bound violation
//    (Dantzig-like) is blind to the geometry: on the massively degenerate
//    0/1 relaxations seen here it walks long chains of near-useless pivots.
//    The default rule is *Devex* (Forrest–Goldfarb's approximation of dual
//    steepest edge): each row i carries a reference weight w_i that
//    approximates ||e_i' B^-1||^2 relative to the reference framework, and
//    the leaving row maximizes violation_i^2 / w_i. After each pivot the
//    weights are updated in O(nnz) from the FTRANed entering column that
//    the dual iteration computes anyway. The weights are only meaningful
//    for the basis they were accumulated on: they are RESET to the
//    all-ones reference framework on refactorization, on any primal pivot
//    (fallback or phase-2 certificate), on cold start, on
//    add_rows/delete_rows, and when the framework degrades (a weight
//    outgrows 1e7) — a stale weight set silently degrades the rule back to
//    (worse than) Dantzig, which is why resets are counted in
//    Stats::devex_resets and pinned by tests/lp/dual_simplex_test.cpp.
//
//  * Dual ratio test. alpha_j = rho' a_j is priced for the BTRANed pivot
//    row rho by one column-major pass over the nonbasic columns. The pass
//    walks a maintained list of them (pivot() swaps the leaving column into
//    the entering one's slot) instead of testing the status of all n + m
//    columns; its order is free, because the ratio test pops candidates in
//    the strict (ratio, column) order. (The pivot rows here average ~19%
//    nonzeros, so an indexed walk over a row-wise copy of A measured no
//    faster and is not used.)
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
  /// solve_dual(limit) only: the LP optimum is proven >= limit. `objective`
  /// is the certified lower bound that proved it (>= limit, <= the true
  /// optimum up to rounding); no point is reported and the warm basis
  /// stays valid for a later re-solve.
  kCutoff,
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

struct SimplexOptions {
  double feas_tol = 1e-7;   ///< bound/row feasibility tolerance
  double opt_tol = 1e-7;    ///< reduced-cost optimality tolerance
  double pivot_tol = 1e-9;  ///< minimum acceptable pivot magnitude
  int max_iterations = 500000;
  /// Cap on Forrest–Tomlin updates between basis refactorizations (U
  /// growth and the update's stability check can refactorize earlier).
  int refactor_every = 100;
  /// Relative threshold-pivoting tolerance in (0, 1]: a Markowitz pivot
  /// candidate a_rc is admissible only if |a_rc| >= markowitz_tol times the
  /// largest magnitude in its column. Larger = more stable, more fill.
  double markowitz_tol = 0.1;
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

  /// A basis as a value: the basic column of each row (structural index,
  /// or n + row for a slack) and every column's status. It carries no
  /// values and no factors, so it moves between solvers over the same
  /// columns and rows, whatever their bounds and scaling.
  struct Basis {
    std::vector<int> header;          ///< size rows
    std::vector<std::int8_t> status;  ///< size columns + rows
  };
  /// The current basis (the all-slack one before the first solve).
  [[nodiscard]] Basis basis() const { return Basis{basis_, vstat_}; }
  /// Installs `b`: each nonbasic goes on its current bound (a missing
  /// bound sends it to the other one, a free column to 0), the basis is
  /// refactorized and the basic values recomputed; Devex weights and
  /// partial pricing reset. The next solve_dual() warm-starts from it.
  /// The factors of the last refactorizing call are kept: installing the
  /// same header again (a probe restoring its start) copies them back in
  /// O(m + nnz(L + U)), bit-identical to a refactorization, unless
  /// add_rows/delete_rows or another markowitz_tol came in between.
  /// Throws on a basis of another shape (rows added or deleted since it
  /// was taken). Returns false if the basis was singular: the solver then
  /// cold-starts.
  bool set_basis(const Basis& b);

  /// Caps the pivots/flips of every subsequent solve()/solve_dual() call.
  /// Used by strong branching to bound each probing re-solve: a capped
  /// solve that runs out returns kIterLimit (no objective) and stops on
  /// whatever basis it reached, which is why probes restore the one they
  /// started from (set_basis). Pass SimplexOptions{}.max_iterations to
  /// restore the default.
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
  /// refactorization or a cold start. Devex dual weights are reset (the
  /// row dimension changed).
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
  /// the next solve(); Devex dual weights are reset.
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
  /// phase-1/phase-2 pass. Without a basis (first solve, or after
  /// invalidate_basis) it starts from the slack basis. Boxed nonbasic
  /// variables whose reduced cost has the wrong sign are first flipped to
  /// their other bound (restoring dual feasibility for free); if that is
  /// impossible (free or one-sided variable) or the dual path hits
  /// numerical trouble, the primal path finishes the solve — from the
  /// slack basis again on a cold start, exactly as solve() would — and the
  /// result is flagged dual_fallback. Either way the returned
  /// status/objective matches solve().
  ///
  /// `limit` is an objective cutoff: once the dual objective passes it and
  /// a box-dual bound on the original columns and bounds certifies
  /// optimum >= limit, the solve stops with kCutoff (see LpStatus). With
  /// the default, or when no certificate reaches the limit, the solve runs
  /// to its usual answer. A kInfeasible verdict of the dual path is a dual
  /// ray that passed the same check with zero costs, on the current
  /// factors or, after one failure, on fresh ones; a ray that fails twice
  /// hands the solve to the primal path.
  LpResult solve_dual(double limit = kInfinity);

  /// Cumulative factorization/pivot counters (never reset; cheap to keep).
  struct Stats {
    long long refactorizations = 0;  ///< successful refactorizations
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
    /// Primal pivots (phase 1 + phase 2, bound flips included) of the
    /// certificate that follows an optimal dual finish once the cost
    /// perturbation is removed. Part of primal_phase*_iterations too; the
    /// primal fallback's pivots are not counted here.
    long long perturbation_cleanup_pivots = 0;
    /// solve_dual(limit) calls that ended kCutoff on a certified bound.
    long long cutoff_stops = 0;
    /// Dual rays certified as Farkas proofs on the current factors (no
    /// refactorization; refactor_dual_ray counts the ones that failed).
    long long rays_certified = 0;
    /// Devex weight resets to the all-ones reference framework
    /// (refactorization, primal pivots, cold start, row add/delete,
    /// framework degradation). A reset per dual solve is normal churn; a
    /// reset per dual PIVOT means the weights never accumulate and the rule
    /// has degraded to Dantzig.
    long long devex_resets = 0;

    // --- row deletion (delete_rows) ---
    long long rows_deleted = 0;  ///< cut rows aged out of the LP
    int peak_rows = 0;           ///< high-water row count (add_rows growth)

    // --- numerical-recovery escalation ladder ---
    // Repeated pivot rejections / residual drift inside one solve escalate
    // through three rungs; each counter tallies the times that rung was
    // climbed to. The rung resets once the solve makes pivot progress again
    // (a fresh incident restarts at rung 0) and at every public solve entry.
    long long recovery_refactorize = 0;  ///< rung 0: basis refactorized
    long long recovery_tighten = 0;  ///< rung 1: markowitz_tol tightened 5x
    long long recovery_cold = 0;     ///< rung 2: cold primal restart
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
    /// A dual ray that failed the in-place check, re-derived on fresh
    /// factors.
    long long refactor_dual_ray = 0;
    long long refactor_refresh = 0;   ///< refresh_factorization() (exit audit)
    long long refactor_set_basis = 0;  ///< set_basis() (restores, hand-offs)
    /// set_basis() calls that copied back the factors an earlier call
    /// built for the same basis instead of refactorizing (not part of
    /// refactorizations, so not a cause above).
    long long set_basis_cached = 0;

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
  /// the basis was singular (the solver then cold-starts). The exit audit
  /// uses this to recompute the claimed dual bound on fresh factors.
  bool refresh_factorization();

  // --- testing/diagnostic hooks (tests/lp/factorization_diff_test.cpp) ---
  /// Solves B w = rhs with the current factors and their pending updates.
  /// `rhs` is indexed by original row; the result by basis position.
  [[nodiscard]] std::vector<double> ftran_for_testing(
      std::vector<double> rhs) const;
  /// Solves y' B = cb'. `cb` is indexed by basis position; the result by
  /// original row.
  [[nodiscard]] std::vector<double> btran_for_testing(
      const std::vector<double>& cb) const;
  /// Dense column-major copy of the current basis matrix (m x m; column i
  /// is the column of basis().header[i]).
  [[nodiscard]] std::vector<double> dense_basis_for_testing() const;
  [[nodiscard]] int num_rows() const { return m_; }
  /// Exchanges basis position `basis_pos` for nonbasic column `col`
  /// (structural index, or n + row for a slack) through one Forrest–Tomlin
  /// update; no refactorization, no primal step (the next solve recomputes
  /// the basic values). Refuses — returns false, basis unchanged — a pivot
  /// element below a tenth of the FTRANed column's largest entry, so test
  /// and bench chains stay well conditioned, a leaving variable with no
  /// finite bound to rest on, and an update failing its stability check.
  bool pivot_for_testing(int basis_pos, int col);
  /// True when the maintained work lists (l_work_, u_work_, the nonbasic
  /// list and its positions) equal their rebuild from the factors and the
  /// basis; the nonbasic list is compared as a set. True without a basis.
  [[nodiscard]] bool work_lists_match_for_testing() const;
  /// Forrest–Tomlin updates applied since the last refactorization.
  [[nodiscard]] int updates_since_refactor() const {
    return pivots_since_refactor_;
  }

  /// Testing hook: max |incrementally maintained dual_d_ - freshly
  /// recomputed reduced cost| over the nonbasic non-fixed columns, both
  /// under the costs the last solve_dual() ran on (its perturbed costs,
  /// kept after the exit restored the originals).
  /// Meaningful right after a solve_dual() that finished on the dual path
  /// with a zero-pivot primal certificate (primal pivots do not maintain
  /// dual_d_); the drift suite checks that precondition. Fixed columns are
  /// excluded by design: they can neither enter nor flip, and their
  /// reduced costs are refreshed at every solve entry.
  [[nodiscard]] double dual_reduced_cost_drift_for_testing() const;

  /// Testing hook: the certificate kernel of solve_dual's limit stop and
  /// ray check, the box-dual bound of `y` (one entry per row) over the
  /// current bounds, under the model's costs or, with `with_costs` false,
  /// zero costs. Weak duality makes it <= the LP optimum for ANY y.
  [[nodiscard]] double box_dual_bound_for_testing(std::vector<double> y,
                                                  bool with_costs) const {
    return box_dual_bound(y, with_costs ? &cost_ : nullptr);
  }

 private:
  enum Status : std::int8_t { kAtLower = 0, kAtUpper = 1, kBasic = 2 };

  void cold_start();
  /// Puts nonbasic column j on the bound its status names, or on the other
  /// bound when that one is infinite (a free column rests at 0).
  void place_nonbasic(int j);
  /// Common tail of every fresh factor set (refactorization, cold start):
  /// builds U's row copy from its columns, resets the pivot order to the
  /// factorization order, builds the factor work lists and drops the row
  /// etas and the update counters.
  void reset_updates();
  /// The slots whose L column is non-empty, ascending (see l_work_).
  void build_l_work(std::vector<int>& out) const;
  /// U's pivot order without its no-op slots (see u_work_).
  void build_u_work(std::vector<int>& out) const;
  /// A U slot the U pass can skip: unit diagonal, empty column.
  [[nodiscard]] bool u_slot_trivial(int s) const {
    return ucol_.len[s] == 0 && u_diag_[s] == 1.0;
  }
  /// Rebuilds nonbasic_ and nonbasic_pos_ from vstat_.
  void build_nonbasic();
  void compute_basic_values();
  /// Rebuilds the LU factors from basis_ by Markowitz elimination; false
  /// if the basis is singular (or a fault injector forces that verdict).
  bool refactorize();

  /// Numerical-recovery escalation ladder, called on a troubled iteration
  /// (rc == 3: rejected pivots, residual drift, an LU update failing its
  /// stability check). Fresh incidents — at least one pivot since the last
  /// trouble — restart at rung 0; repeated trouble with no progress climbs:
  /// refactorize -> tighten markowitz_tol -> cold primal restart. Returns
  /// false when even the top rung was already spent (the caller abandons
  /// the solve: kIterLimit on the primal path, primal fallback on the dual
  /// path).
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
  /// that the pivot on `col` feeds to the Forrest–Tomlin update, and the
  /// ascending nonzero lists of both (wcol_nz_, spike_nz_) that the pivot
  /// walks. Only the pivot paths call it; other solves use ftran_vec.
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
  /// leaving_row < 0); `w_nz` lists w's nonzeros in ascending order.
  /// Returns false when the update failed its stability check: the pivot
  /// is not made — basis, values and factors unchanged — and the caller
  /// reports numerical trouble to the recovery ladder.
  bool pivot(int entering, int leaving_row, double t, int entering_dir,
             const std::vector<double>& w, const std::vector<int>& w_nz,
             Status leaving_status);
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
  /// Dual cost perturbation (see the header comment): shifts the cost and
  /// dual_d_ entry of every nonbasic column with a finite bound to rest on
  /// and a nonzero range, away from zero in its dual-feasible direction.
  /// dual_cost_ must already hold the original costs.
  void perturb_costs();
  /// Swaps the original costs back into cost_; the perturbed ones stay in
  /// dual_cost_ for the drift hook. A second call re-perturbs.
  void remove_perturbation();
  /// dual_obj_ = c'x over every column, exactly (one pass).
  void sync_dual_objective();
  /// Box-dual bound of `y` over the current bounds (see the header
  /// comment): y'b + sum_j min over [l_j, u_j] of (c_j - y'a_j) x_j, slack
  /// columns included, with y first clamped in place to the sign each
  /// one-sided row admits. `cost` null means zero costs (the Farkas check
  /// of a dual ray). A rounding allowance is subtracted; -inf when a
  /// reduced cost faces an infinite bound.
  double box_dual_bound(std::vector<double>& y,
                        const std::vector<double>* cost) const;
  /// One dual pivot: leaving row by Devex weights, entering
  /// column by a bound-flipping dual ratio test over the BTRANed pivot
  /// row. Returns 0 = pivoted, 1 = primal feasible (dual optimal),
  /// 2 = primal infeasible (dual ray: dual_rho_ * dual_ray_sign_ is the
  /// Farkas candidate), 3 = numerical trouble.
  int iterate_dual();
  /// Re-initializes the dual pricing weights to the all-ones reference
  /// framework when they are missing or stale.
  void ensure_dual_weights();
  /// Devex weight update after a dual pivot with leaving row r and
  /// FTRANed entering column w (pivot element w[r]); the loop walks w's
  /// nonzero list `w_nz` and costs O(nnz(w)).
  void update_dual_weights(int r, const std::vector<double>& w,
                           const std::vector<int>& w_nz);

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
  // The nonbasic columns in no set order, and each column's index in that
  // list (-1 while basic): the dual PRICE walks it instead of all n + m
  // columns. pivot() swaps the leaving column into the entering one's
  // place; set_basis, cold_start, add_rows and delete_rows rebuild it.
  std::vector<int> nonbasic_;
  std::vector<int> nonbasic_pos_;  // size total_
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
  // The Markowitz elimination emits sparse factors of P B Q = L U: the
  // bases seen here are slack-heavy and the factors stay close to the
  // identity, so FTRAN / BTRAN cost O(m + nnz(L) + nnz(U)) instead of
  // O(m^2) dense triangular solves. Factor "slots" are the pivot steps of
  // the last refactorization: L is unit lower triangular in slot order and
  // never changes between refactorizations (add_rows only appends border
  // rows); U is upper triangular in the pivot order u_order_, which
  // Forrest–Tomlin updates permute. perm_ is the row pivot order P, cperm_
  // the column pivot order Q; neither changes on an update.
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
  // Factor work lists. l_work_ holds the slots whose L column is
  // non-empty, ascending: FTRAN's L pass and BTRAN's L' pass walk it.
  // u_work_ is u_order_ without the slots that have a unit diagonal and an
  // empty U column: FTRAN's U pass walks it backwards. Every slot left out
  // is an exact no-op of its pass. reset_updates() builds both, add_rows
  // rebuilds l_work_, and update_factors() keeps u_work_ equal to its
  // rebuild (a slot whose column empties leaves it; k0 moves to its end).
  std::vector<int> l_work_;
  std::vector<int> u_work_;
  long long u_nnz_ = 0;         // live off-diagonal U entries
  long long u_nnz_factor_ = 0;  // ... right after the last refactorization

  // The fresh factors set_basis() built last, kept for a later restore of
  // the same basis: the factorization is a deterministic function of the
  // basis header, the matrix and markowitz_tol, so copying them back
  // equals refactorizing. The header is empty while nothing is cached;
  // add_rows and delete_rows, which change the matrix, clear it.
  struct FactorCache {
    std::vector<int> header;
    double markowitz_tol = 0.0;
    std::vector<int> perm, cperm, l_start, l_idx;
    std::vector<double> l_val, u_diag;
    PackedLists ucol;
  };
  FactorCache restore_cache_;

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
  // Ascending nonzero positions of wcol_ and of spike_, filled by ftran():
  // the Devex update and pivot()'s value update walk wcol_nz_, the
  // update's spike push walks spike_nz_.
  std::vector<int> wcol_nz_;
  std::vector<int> spike_nz_;

  // --- partial pricing state ---
  std::vector<int> candidates_;  // surviving candidate columns
  int price_cursor_ = 0;         // roving start of the cyclic block scan

  // --- scratch (avoid per-iteration allocation) ---
  mutable std::vector<double> work_;        // ftran/btran solves
  std::vector<double> phase_cost_;          // composite phase-1 objective
  std::vector<double> duals_;               // y
  std::vector<double> cb_;                  // basic costs
  std::vector<double> wcol_;                // FTRANed entering column

  // --- dual simplex scratch (sized lazily in solve_dual) ---
  std::vector<double> dual_d_;      // reduced costs, size total_
  std::vector<double> dual_rho_;    // BTRANed leaving row, size m_
  std::vector<double> dual_unit_;   // e_r scratch for the rho BTRAN
  // Sign of the leaving row's violation when iterate_dual found a ray:
  // -1 below its lower bound, +1 above its upper one.
  int dual_ray_sign_ = 0;
  // c'x of the current basic solution under cost_, maintained by pivot()
  // and the ratio test's flips; exact only right after
  // sync_dual_objective(), and read only by solve_dual's limit check.
  double dual_obj_ = 0.0;
  // Inside solve_dual the original costs while cost_ carries the
  // perturbation; after it, the costs that solve ran on (what dual_d_ was
  // maintained against).
  std::vector<double> dual_cost_;
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
  // Devex dual pricing weights (reference framework), valid only while
  // dual_w_valid_: any primal pivot, refactorization, cold start or row
  // add/delete invalidates them and the next dual iteration resets to all
  // ones (counted in stats_).
  std::vector<double> dual_w_;      // size m_ while valid
  bool dual_w_valid_ = false;

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
    // Unpivoted columns in ascending order, with pivoted ones dropped
    // lazily by the bump search that walks it.
    std::vector<int> active;
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
