// Branch & cut MILP solver over the simplex LP relaxation.
//
// Depth-first search with warm-started LP re-solves (dual simplex with
// Devex row pricing by default: after a branching bound change the old
// basis stays dual-feasible, so a handful of weighted dual pivots replaces
// a primal phase-1/phase-2 pass), pseudocost branching over a store SHARED
// by all workers and seeded by bounded strong branching at the root (with
// a reliability threshold before a per-variable average is trusted; the
// tree itself never probes),
// optional user priorities, a root rounding heuristic, and
// integral-objective bound rounding (all ADVBIST objectives are transistor
// counts, i.e. integers, so a node with LP bound 2151.2 proves nothing
// better than 2152 exists below it).
//
// Before the tree search starts, the solver runs a cut-and-fix root loop:
// binary probing (ilp/presolve.hpp) fixes variables and feeds a conflict
// graph (ilp/conflict_graph.hpp); rounds of clique and lifted cover cut
// separation (ilp/cuts.hpp) tighten the root LP through the simplex's
// incremental row append; and reduced-cost fixing against the incumbent
// shrinks variable domains — at the root and again on every incumbent
// improvement. In-tree separation continues at a configurable node
// interval, sharing globally valid cuts between workers through a
// deduplicating, activity-aged cut pool.
//
// With Options::num_threads > 1 the tree search runs on a pool of worker
// threads. Each worker owns a private SimplexSolver (so every LP re-solve
// warm-starts from that worker's last basis) and plunges depth-first on one
// child while sharing the other through a central node pool that idle
// workers steal from; the incumbent objective is a shared atomic cutoff.
// Parallel and serial solves prove the same optimum — only the order nodes
// are explored in (and therefore node counts) differs.
//
// The paper used CPLEX 6.0 with a 24 CPU-hour cap; this solver plays the
// same role with laptop-scale caps. Time-limited solves report the best
// incumbent and the remaining optimality gap, mirroring Table 2's
// "*" entries.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "util/solve_controller.hpp"

namespace advbist::ilp {

enum class SolveStatus {
  kOptimal,          ///< proven optimal incumbent (audit-verified)
  kFeasible,         ///< incumbent without a completed proof (gap may remain)
  kInfeasible,       ///< proven infeasible
  kNoSolutionFound,  ///< limit hit before any incumbent
  kUnbounded,        ///< LP relaxation unbounded
  // Honest early-termination statuses (Stats::termination carries the same
  // reason): the solve was cut short by the named limit. values holds the
  // best-so-far incumbent when one exists (check has_solution()).
  kTimeLimit,    ///< wall-clock deadline enforced down to the LP pivot loop
  kCancelled,    ///< external cancellation (SIGINT / Options::cancel_flag)
  kMemoryLimit,  ///< node/cut pool memory budget exhausted
  /// The model sanitizer gate (lp/sanitizer.hpp) rejected the model:
  /// non-finite objective/coefficient/bound/rhs or a corrupt term index.
  /// No repair exists, so no solve ran — an honest refusal, never a crash
  /// or a proof about a made-up model. Stats::sanitizer_* carry the
  /// diagnostics.
  kInvalidModel,
};

struct Options {
  double time_limit_seconds = 60.0;
  long long node_limit = -1;  ///< <0: unlimited
  bool use_presolve = true;
  bool use_rounding_heuristic = true;
  // --- cut-and-bound knobs ---
  /// Rounds of root-node cut separation (0 disables the root cut loop).
  int cut_rounds = 8;
  /// Cuts appended to the LP per separation round.
  int max_cuts_per_round = 64;
  /// Separate clique cuts from the conflict graph.
  bool use_clique_cuts = true;
  /// Separate lifted knapsack cover cuts from the <=-rows.
  bool use_cover_cuts = true;
  /// Probe each 0/1 variable at the root (fixings + conflict-graph edges).
  bool use_probing = true;
  /// Reduced-cost fixing at the root and at incumbent improvements.
  bool use_rc_fixing = true;
  /// In-tree separation every N nodes per worker (0 disables).
  int cut_node_interval = 16;
  /// Optional per-variable branching priority (larger = branch earlier).
  /// Empty means uniform.
  std::vector<int> branch_priority;
  /// Known upper bound on the optimum (e.g. from a heuristic design): nodes
  /// whose relaxation bound cannot beat it are pruned from the start.
  /// Solutions with objective == initial_cutoff are still found.
  double initial_cutoff = lp::kInfinity;
  /// Worker threads for the tree search. 1 = serial (in-process, no thread
  /// spawn); 0 = one per hardware thread; negative = serial; capped at 64.
  int num_threads = 1;
  // --- LP basis-factorization knobs (forwarded to every worker's simplex,
  // see lp::SimplexOptions) ---
  /// Cap on Forrest–Tomlin updates between basis refactorizations (see
  /// lp::SimplexOptions::refactor_every).
  int lp_refactor_every = 100;
  /// Relative threshold-pivoting tolerance for Markowitz pivots in (0, 1].
  double lp_markowitz_tol = 0.1;
  // --- LP cut-row aging (node re-solves run the dual simplex: after a
  // branching bound change, and after cut rows are appended slack-basic,
  // the warm basis stays dual-feasible) ---
  /// Delete a cut row from a worker's LP once its slack stayed basic for
  /// this many consecutive node re-solves — the cut has not been binding,
  /// and the factorization stops paying for it (the shared pool keeps its
  /// own aging; this only shrinks the LP). 0 disables deletion.
  int lp_row_age_limit = 40;
  /// Geometric-mean + equilibration scaling of each worker's LP
  /// (`--scale 0|1`, see lp/scaling.hpp). Factors are snapped to powers of
  /// two, so scale/unscale round-trips are bit-exact and every public
  /// boundary (bounds, duals, solutions, the exit audit) still speaks the
  /// ORIGINAL model's units. Well-scaled models (all nonzeros within
  /// [2^-6, 2^6]) skip the transform entirely, keeping trajectories on the
  /// built-in benchmarks bit-identical with the knob on or off.
  bool lp_scaling = true;
  // --- branching (shared pseudocosts + root strong branching) ---
  /// Fractional root variables probed by strong branching before the tree
  /// search starts (`--strong-branch N`, 0 disables). Each candidate gets
  /// one bounded dual re-solve per direction; the observed objective
  /// degradations seed the shared pseudocost store (at full reliability
  /// weight — a probe is an exact LP degradation, not a noisy estimate),
  /// and a direction whose probe proves LP-infeasible fixes the variable
  /// the other way globally.
  int strong_branch_vars = 12;
  // --- solve lifecycle (util::SolveController) ---
  /// Memory budget in bytes for the search bookkeeping (node pool + cut
  /// pool, cooperatively accounted; 0 = unlimited). Past 3/4 of the budget
  /// the search sheds optional work — stops separating cuts, disables
  /// diving, falls back to pure DFS; past the budget it stops with
  /// kMemoryLimit.
  std::size_t memory_limit_bytes = 0;
  /// Caller-owned cancel flag polled by the controller down to the LP
  /// pivot loops (may be null). A SIGINT handler storing true into it is
  /// the intended use: the solve returns best-so-far with kCancelled.
  const std::atomic<bool>* cancel_flag = nullptr;
  /// Exit audit (ON by default): before returning, re-verify the incumbent
  /// against the original pre-presolve model and recompute the root dual
  /// bound on a fresh factorization. May downgrade kOptimal to kFeasible;
  /// never lets an unbacked proof out.
  bool exit_audit = true;
  // --- checkpoint / resume (see ilp/checkpoint.hpp) ---
  /// When non-empty, a versioned + checksummed snapshot of the solve state
  /// (incumbent, frontier, global bounds, applied cuts, pseudocosts) is
  /// written here ATOMICALLY (temp file + rename) whenever the solve stops
  /// early — kTimeLimit, kCancelled, kMemoryLimit or kNodeLimit. A solve
  /// that runs to its natural conclusion removes the file instead (a
  /// leftover snapshot would be stale).
  std::string checkpoint_path;
  /// With checkpoint_path set and > 0: a dedicated writer thread also
  /// snapshots the LIVE search every this-many seconds. The writer copies
  /// state under the search mutex briefly and serializes + writes the file
  /// outside it, so workers never block on the disk.
  double checkpoint_interval_seconds = 0.0;
  /// When non-empty and the file exists, the solve resumes from it: the
  /// frontier, incumbent, cutoff, applied cuts, pseudocosts and globally
  /// tightened bounds are restored once the snapshot passes validation
  /// (checksum + model fingerprint + the incumbent re-verified against the
  /// pre-presolve model). A snapshot failing ANY check degrades to a cold
  /// start with Stats::resume_rejected counted — never a wrong proof.
  std::string resume_path;
};

/// One settable `ilp::Options` key: the `--key value` flag of every solving
/// CLI command, a `key=value` line of a serve job file, a token of the
/// benches' ADVBIST_BENCH_OPTS. An integer key has `set_int` and accepts a
/// whole decimal integer in [min, max]; a real key has `set_real` and
/// accepts a finite decimal number in [lo, hi].
struct OptionKey {
  const char* key;
  const char* arg;   ///< value placeholder in usage text: N, S, X, MB, 0|1
  const char* help;  ///< one line, default included
  void (*set_int)(Options&, long long) = nullptr;
  long long min = 0;
  long long max = 0;
  void (*set_real)(Options&, double) = nullptr;
  double lo = 0.0;
  double hi = 0.0;
};

/// The option table, in usage() order. docs/solver.md §1 documents exactly
/// these keys (tests/ilp/options_test.cpp checks it).
[[nodiscard]] const std::vector<OptionKey>& option_keys();

/// Sets `key` to `value` in `options`. Returns "" when the table accepts
/// the value; otherwise says what the key wants (or that it is unknown)
/// and leaves `options` untouched.
[[nodiscard]] std::string set_option(Options& options, std::string_view key,
                                     std::string_view value);

struct Stats {
  long long nodes = 0;
  /// Total simplex pivots/flips; split below into primal phase-1, primal
  /// phase-2 and dual pivots so perf work can see where they go.
  long long lp_iterations = 0;
  long long lp_primal_phase1_iterations = 0;
  long long lp_primal_phase2_iterations = 0;
  long long lp_dual_iterations = 0;
  /// Nodes abandoned because their LP hit the iteration limit. A dropped
  /// node forfeits the exhaustive-search proof; its inherited bound is
  /// folded into best_bound, so optimality is only still claimed when that
  /// bound already met the incumbent.
  long long dropped_nodes = 0;
  double seconds = 0.0;
  double best_bound = -lp::kInfinity;  ///< proven lower bound (minimization)
  /// Variables with lower == upper once presolve + probing finished. Counts
  /// the final state (including variables the input model already fixed,
  /// as it always has); probing_fixed below attributes probing's share.
  int presolve_fixed = 0;
  int presolve_redundant_rows = 0;
  /// Rows actually dropped from the LP (redundant + became constant).
  int presolve_dropped_rows = 0;
  /// Fixed-variable terms folded into right-hand sides.
  int presolve_dropped_terms = 0;
  // --- probing (root) ---
  int probing_probed = 0;        ///< binaries probed
  int probing_fixed = 0;         ///< variables fixed by probing
  long long probing_implications = 0;  ///< conflict edges harvested
  // --- cutting planes ---
  long long cuts_clique_separated = 0;  ///< clique cuts found (pre-dedup)
  long long cuts_cover_separated = 0;   ///< cover cuts found (pre-dedup)
  /// Always 0: the Gomory and odd-cycle separators were removed. The four
  /// counters (and lp_recovery_dense and reliability_probed below) stay
  /// because the Table-2 bench (t2bench/main.cpp) sums them.
  long long cuts_gomory_separated = 0;
  long long cuts_odd_cycle_separated = 0;
  int cuts_clique_applied = 0;          ///< clique cuts appended to LPs
  int cuts_cover_applied = 0;           ///< cover cuts appended to LPs
  int cuts_gomory_applied = 0;
  int cuts_odd_cycle_applied = 0;
  long long cuts_aged_out = 0;          ///< pool evictions (inactivity)
  // --- reduced-cost fixing ---
  int rc_fixed_root = 0;       ///< bound tightenings at the root
  int rc_fixed_incumbent = 0;  ///< bound tightenings at incumbent updates
  /// Root LP bound before/after the cut loop, and the fraction of the
  /// root gap (final objective - first bound) the loop closed (0 without
  /// an incumbent).
  double root_lp_bound = -lp::kInfinity;
  double root_cut_bound = -lp::kInfinity;
  double root_gap_closed = 0.0;
  int threads = 1;  ///< worker threads actually used
  /// Why the solve stopped early (kNone: ran to its natural conclusion).
  /// Replaces the old hit_time_limit boolean — the reason is latched by
  /// the controller the first time any layer (down to the LP pivot loops)
  /// trips a limit, so the reported status is honest about the cause.
  util::StopReason termination = util::StopReason::kNone;
  // --- per-phase wall clock (seconds; sums to ~seconds) ---
  double presolve_seconds = 0.0;       ///< presolve + probing + reduction
  double root_cut_seconds = 0.0;       ///< root LP + cut-and-fix loop
  double strong_branch_seconds = 0.0;  ///< root strong branching
  double search_seconds = 0.0;         ///< tree search (workers running)
  double audit_seconds = 0.0;          ///< exit audit
  // --- memory accounting + graceful shedding ---
  std::size_t peak_memory_bytes = 0;  ///< node + cut pool high water
  bool shed_cuts = false;    ///< memory pressure stopped cut separation
  bool shed_diving = false;  ///< memory pressure disabled the dive heuristic
  // --- LP factorization counters, summed over all workers' simplex solvers
  // (see lp::SimplexSolver::Stats) ---
  long long lp_refactorizations = 0;
  long long lp_pivot_rejections = 0;  ///< threshold-rejected pivot candidates
  /// Mean nnz(L+U) / nnz(B) over all refactorizations (1.0 = no fill).
  double lp_fill_ratio = 1.0;
  // --- dual re-solves + LP row aging (summed over workers) ---
  long long lp_dual_solves = 0;     ///< solve_dual() re-solves attempted
  long long lp_dual_fallbacks = 0;  ///< of those, finished by the primal path
  /// Nonbasic bound flips: primal ratio-test flips plus the dual path's
  /// (feasibility-restoration and ratio-test) flips.
  long long lp_bound_flips = 0;
  long long lp_rows_deleted = 0;  ///< aged-out cut rows deleted from LPs
  int lp_peak_rows = 0;           ///< high-water LP row count across workers
  /// Dual pricing-weight resets to the reference framework, summed over
  /// workers (see lp::SimplexSolver::Stats::devex_resets). Roughly one per
  /// dual solve is normal; one per dual pivot means the weights never
  /// accumulate and Devex has silently degraded to Dantzig.
  long long lp_devex_resets = 0;
  // --- root strong branching (seeds the shared pseudocost store) ---
  int strong_branch_probed = 0;  ///< bounded probe re-solves performed
  int strong_branch_fixed = 0;   ///< variables fixed by an infeasible probe
  /// Always 0, like cuts_gomory_* above: in-tree reliability probing was
  /// removed; the tree branches on the strong-branch-seeded pseudocosts.
  long long reliability_probed = 0;
  // --- numerical-recovery escalation ladder, summed over workers (see
  // lp::SimplexSolver::Stats) ---
  long long lp_recovery_refactorize = 0;  ///< rung 0 recoveries
  long long lp_recovery_tighten = 0;      ///< rung 1: markowitz_tol tightened
  long long lp_recovery_cold = 0;         ///< rung 2: cold primal restarts
  /// Always 0, like cuts_gomory_* above: the dense-LU rung was removed.
  long long lp_recovery_dense = 0;
  long long lp_recovery_exhausted = 0;    ///< ladder spent; solve abandoned
  long long lp_aborted_solves = 0;  ///< LP solves aborted by the controller
  // --- LP refactorization causes, summed over workers (see
  // lp::SimplexSolver::Stats; the recovery rungs above add their own) ---
  long long lp_refactor_update_cap = 0;  ///< lp_refactor_every updates hit
  long long lp_refactor_u_growth = 0;    ///< U outgrew its update budget
  long long lp_refactor_stability = 0;   ///< update stability check failed
  long long lp_refactor_delete_rows = 0;  ///< cut-row deletion rebuilds
  long long lp_refactor_certify = 0;   ///< infeasibility certifications
  long long lp_refactor_dual_ray = 0;  ///< dual-ray re-verifications
  long long lp_refactor_refresh = 0;   ///< exit-audit refresh_factorization
  long long lp_refactor_set_basis = 0;  ///< basis restores (set_basis)
  // --- exit audit ---
  bool audit_ran = false;         ///< the exit audit executed
  bool audit_incumbent_ok = false;  ///< incumbent re-verified on the original
  bool audit_bound_ok = false;    ///< fresh-factorization bound backs the claim
  bool audit_downgraded = false;  ///< a kOptimal claim failed and was demoted
  /// Certified root dual bound recomputed on fresh factors (-inf when the
  /// audit could not certify one). Always a valid global lower bound.
  double audit_root_bound = -lp::kInfinity;
  /// Incumbent's max constraint violation on the ORIGINAL model.
  double audit_max_violation = 0.0;
  long long audit_lp_iterations = 0;  ///< pivots of the audit re-solve
  // --- checkpoint / resume ---
  bool resumed = false;     ///< a validated snapshot was restored
  /// Snapshots rejected (missing file, bad checksum, fingerprint mismatch,
  /// infeasible restored incumbent, malformed frontier): the solve ran as
  /// a cold start instead. Never silent — a stale or corrupt snapshot
  /// costs work, not correctness.
  int resume_rejected = 0;
  int checkpoints_written = 0;       ///< snapshot files written this solve
  double checkpoint_seconds = 0.0;   ///< wall clock capturing + writing them
  long long restored_nodes = 0;      ///< frontier nodes restored on resume
  // --- untrusted-input frontend: sanitizer gate + scaling (see
  // lp/sanitizer.hpp, lp/scaling.hpp) ---
  /// Sanitizer verdict on the input model: "clean", "repaired" or
  /// "rejected" (the latter surfaces as SolveStatus::kInvalidModel).
  std::string sanitizer_class = "clean";
  /// Individual repair counters (see lp::ModelDiagnostics).
  long long sanitizer_duplicates_merged = 0;
  long long sanitizer_zero_coeffs_dropped = 0;
  long long sanitizer_vacuous_rows_dropped = 0;
  long long sanitizer_contradictory_rows = 0;
  long long sanitizer_crossed_bounds = 0;
  /// The sanitizer proved infeasibility structurally (contradictory or
  /// crossed-bound row); the solve returned kInfeasible without searching.
  bool sanitizer_proven_infeasible = false;
  /// FNV-1a fingerprint of the repair counters; 0 iff the model passed
  /// through fully untouched. Serve mixes it into cache keys so a repaired
  /// model never aliases the clean model it was repaired from.
  std::uint64_t sanitizer_fingerprint = 0;
  /// At least one worker LP engaged non-trivial scaling factors (false on
  /// well-scaled models even with Options::lp_scaling on).
  bool lp_scaling_active = false;
  /// Residual cooperatively-accounted bytes after the end-of-solve
  /// teardown released the node pool, the cut-pool gauge and every
  /// worker's LP cut rows. Nonzero means a reserve/release imbalance
  /// (pinned to 0 by the memory-balance test).
  std::size_t memory_unreleased_bytes = 0;
};

struct Solution {
  SolveStatus status = SolveStatus::kNoSolutionFound;
  double objective = lp::kInfinity;
  std::vector<double> values;  ///< one per model variable when has_solution()
  Stats stats;

  [[nodiscard]] bool is_optimal() const { return status == SolveStatus::kOptimal; }
  [[nodiscard]] bool has_solution() const {
    if (status == SolveStatus::kOptimal || status == SolveStatus::kFeasible)
      return true;
    // Early-termination statuses carry the best-so-far incumbent when the
    // search found one before the limit tripped.
    return (status == SolveStatus::kTimeLimit ||
            status == SolveStatus::kCancelled ||
            status == SolveStatus::kMemoryLimit) &&
           !values.empty();
  }
  /// Relative optimality gap; 0 when proven optimal, +inf with no incumbent.
  [[nodiscard]] double gap() const;
  /// Rounded value accessor for integer variables of a decoded solution.
  [[nodiscard]] long long value_as_int(int var) const;
};

struct SolveCheckpoint;

class Solver {
 public:
  explicit Solver(Options options = {});

  /// Solves `model` (minimization). The model itself is left untouched;
  /// presolve and branching operate on an internal copy. With
  /// Options::resume_path set, a valid snapshot file there resumes the
  /// interrupted solve instead of starting cold.
  [[nodiscard]] Solution solve(const lp::Model& model) const;

  /// solve() continuing from an in-memory snapshot (the file-driven form
  /// is Options::resume_path). The snapshot is validated against `model`
  /// first; any failure degrades to a cold start with
  /// Stats::resume_rejected counted.
  [[nodiscard]] Solution resume(const lp::Model& model,
                                const SolveCheckpoint& snapshot) const;

 private:
  Solution solve_impl(const lp::Model& model,
                      const SolveCheckpoint* snapshot) const;

  Options options_;
};

/// Human-readable status name for logs and bench tables.
std::string to_string(SolveStatus status);

}  // namespace advbist::ilp
