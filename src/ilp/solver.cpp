#include "ilp/solver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "ilp/checkpoint.hpp"
#include "ilp/conflict_graph.hpp"
#include "ilp/cuts.hpp"
#include "ilp/presolve.hpp"
#include "ilp/pseudocost.hpp"
#include "ilp/tolerances.hpp"
#include "lp/sanitizer.hpp"
#include "lp/simplex.hpp"
#include "util/check.hpp"
#include "util/fault_injector.hpp"
#include "util/logging.hpp"
#include "util/solve_controller.hpp"
#include "util/stopwatch.hpp"

namespace advbist::ilp {

using lp::ConstraintDef;
using lp::LpResult;
using lp::LpStatus;
using lp::Model;
using lp::Sense;
using lp::SimplexSolver;
using lp::VarType;

double Solution::gap() const {
  if (status == SolveStatus::kOptimal) return 0.0;
  if (!has_solution()) return lp::kInfinity;
  const double denom = std::max(1.0, std::abs(objective));
  return (objective - stats.best_bound) / denom;
}

long long Solution::value_as_int(int var) const {
  ADVBIST_REQUIRE(has_solution(), "no incumbent solution");
  ADVBIST_REQUIRE(var >= 0 && var < static_cast<int>(values.size()),
                  "variable index");
  return std::llround(values[var]);
}

std::string to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kFeasible: return "feasible (limit)";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kNoSolutionFound: return "no solution (limit)";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kTimeLimit: return "time limit";
    case SolveStatus::kCancelled: return "cancelled";
    case SolveStatus::kMemoryLimit: return "memory limit";
    case SolveStatus::kInvalidModel: return "invalid model";
  }
  return "?";
}

namespace {

/// Cut-pool capacity; least-active unapplied cuts are evicted beyond it.
constexpr int kMaxPoolCuts = 1024;
/// Simplex iteration cap per strong-branching probe re-solve (a probe that
/// runs out is simply not recorded).
constexpr int kProbeLpIters = 200;
/// Observations (across ALL workers; the store is shared) a
/// variable+direction needs before its own pseudocost average is trusted
/// alone; below it the estimate is blended towards the global average, so
/// one worker's early outlier cannot steer every other worker's branching.
/// Strong-branch seeds count as this many observations, so probed
/// variables are reliable from node one.
constexpr int kPseudocostReliability = 2;

/// The search pool holds frontier nodes exactly as a checkpoint stores
/// them, so a snapshot copies the pool and a resume copies it back.
using Node = CheckpointNode;
/// A bound restriction: a node's bound change relative to the root box, or
/// a globally valid tightening (reduced-cost, probing) broadcast to workers
/// after the search started — the latter only ever tightens.
using Change = CheckpointNode::Change;

/// A fractional integer variable of an LP point and its distance to the
/// nearest integer.
struct Candidate {
  int v;
  double dist;
};

/// The fractional integer variables of `x`, in index order. Empty means
/// the point is integral: the search concludes at it.
std::vector<Candidate> fractional_candidates(const Model& model,
                                             const std::vector<double>& x) {
  std::vector<Candidate> cands;
  for (int v = 0; v < model.num_variables(); ++v) {
    if (model.variable(v).type != VarType::kInteger) continue;
    const double frac = x[v] - std::floor(x[v]);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist <= kIntEps) continue;
    cands.push_back(Candidate{v, dist});
  }
  return cands;
}

/// Bounds of the branch x_v <= fl (down) or x_v >= fl + 1 (up) inside
/// [lo, hi]; empty when first > second. When a branch holds no LP point,
/// the other one, branch_bounds(!up, ...), is a valid bound for v.
std::pair<double, double> branch_bounds(bool up, double fl, double lo,
                                        double hi) {
  return up ? std::pair{fl + 1.0, hi} : std::pair{lo, fl};
}

void round_integers(const Model& model, std::vector<double>& x) {
  for (int v = 0; v < model.num_variables(); ++v)
    if (model.variable(v).type == VarType::kInteger) x[v] = std::round(x[v]);
}

/// Folds one simplex's factorization counters into a running total (used
/// for retiring workers and the root cut-loop solver alike).
void accumulate(lp::SimplexSolver::Stats& into,
                const lp::SimplexSolver::Stats& s) {
  into.refactorizations += s.refactorizations;
  into.pivot_rejections += s.pivot_rejections;
  into.factor_basis_nnz += s.factor_basis_nnz;
  into.factor_fill_nnz += s.factor_fill_nnz;
  into.basis_pivots += s.basis_pivots;
  into.bound_flips += s.bound_flips;
  into.dual_solves += s.dual_solves;
  into.dual_fallbacks += s.dual_fallbacks;
  into.dual_iterations += s.dual_iterations;
  into.primal_phase1_iterations += s.primal_phase1_iterations;
  into.primal_phase2_iterations += s.primal_phase2_iterations;
  into.dual_bound_flips += s.dual_bound_flips;
  into.perturbation_cleanup_pivots += s.perturbation_cleanup_pivots;
  into.cutoff_stops += s.cutoff_stops;
  into.rays_certified += s.rays_certified;
  into.devex_resets += s.devex_resets;
  into.rows_deleted += s.rows_deleted;
  into.peak_rows = std::max(into.peak_rows, s.peak_rows);
  into.recovery_refactorize += s.recovery_refactorize;
  into.recovery_tighten += s.recovery_tighten;
  into.recovery_cold += s.recovery_cold;
  into.recovery_exhausted += s.recovery_exhausted;
  into.aborted_solves += s.aborted_solves;
  into.refactor_update_cap += s.refactor_update_cap;
  into.refactor_u_growth += s.refactor_u_growth;
  into.refactor_stability += s.refactor_stability;
  into.refactor_delete_rows += s.refactor_delete_rows;
  into.refactor_certify += s.refactor_certify;
  into.refactor_dual_ray += s.refactor_dual_ray;
  into.refactor_refresh += s.refactor_refresh;
  into.refactor_set_basis += s.refactor_set_basis;
  into.set_basis_cached += s.set_basis_cached;
}

/// Approximate heap footprint of one pooled node, for the controller's
/// cooperative memory accounting.
std::size_t node_bytes(const Node& node) {
  return sizeof(Node) + node.changes.capacity() * sizeof(Change);
}

int resolve_num_threads(int requested) {
  // Only exactly 0 means auto; negative values (unset sentinels, parse
  // slips) fall back to serial rather than silently going wide.
  if (requested < 0) return 1;
  int n = requested;
  if (n == 0) n = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(n, 1, 64);
}

/// State shared by every worker of one tree search. The node pool, the
/// incumbent vector, the cut pool and the termination bookkeeping live
/// under one mutex; the cutoff is additionally mirrored in an atomic so
/// pruning tests never take the lock.
struct SearchContext {
  // --- immutable during the search ---
  const Model* model = nullptr;    ///< presolved working model (branching)
  const Model* cut_model = nullptr;  ///< LP model + root cuts (cover source)
  const ConflictGraph* graph = nullptr;  ///< clique-cut source
  const Options* options = nullptr;
  std::vector<double> root_lb, root_ub;  ///< incl. probing + root rc fixing
  bool integral_obj = false;
  int num_workers = 1;
  std::size_t root_applied_cuts = 0;  ///< pool cuts already rows of cut_model
  /// The root LP's optimal basis after strong branching, over the rows of
  /// cut_model (root cuts included, in order). Worker and dive solvers
  /// start from it instead of re-solving the root cold.
  std::optional<lp::SimplexSolver::Basis> root_basis;
  util::Stopwatch watch;

  // --- node pool and termination (guarded by mutex) ---
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Node> pool;
  long long pops_since_resort = 0;
  int idle_workers = 0;
  bool done = false;  ///< pool drained with every worker idle
  bool stop = false;  ///< limit hit / unbounded root: abandon the search

  // --- live checkpoint capture (periodic writer; guarded by mutex) ---
  // With track_current set, each worker mirrors the node it took into its
  // current_nodes slot INSIDE take()'s critical section, so at any instant
  // pool + slots cover every unexplored region (a slot may additionally
  // cover already-published children — redundant, never missing). Off by
  // default: zero cost unless periodic checkpointing is configured.
  bool track_current = false;
  std::vector<std::optional<Node>> current_nodes;  ///< one slot per worker
  std::atomic<int> next_worker_id{0};

  // --- shared pseudocosts (lock-free atomics; see PseudocostStore) ---
  PseudocostStore* pseudocosts = nullptr;

  // --- cut pool (guarded by mutex) ---
  CutPool* cut_pool = nullptr;
  std::atomic<std::size_t> pool_applied{0};  ///< mirror of applied().size()
  std::atomic<long long> clique_separated{0};
  std::atomic<long long> cover_separated{0};

  // Dual solves and fallbacks of the root LP's cold solve and of the root
  // strong-branching probe pass, kept out of the warm-start diagnostic.
  std::atomic<long long> root_dual_solves{0};
  std::atomic<long long> root_dual_fallbacks{0};

  // --- incumbent ---
  std::atomic<double> cutoff{lp::kInfinity};
  std::vector<double> incumbent;        ///< guarded by mutex
  double dropped_bound = lp::kInfinity;  // min over dropped nodes (guarded)

  // --- reduced-cost fixing (root LP certificate; immutable post-root) ---
  bool root_rc_valid = false;
  double root_obj = -lp::kInfinity;
  std::vector<double> root_x, root_d;
  // Current globally tightened bounds + broadcast log (guarded by mutex;
  // num_fixings is the lock-free "anything new?" hint).
  std::vector<double> rc_lb, rc_ub;
  std::vector<Change> fixings;
  std::atomic<std::size_t> num_fixings{0};
  int rc_fixed_incumbent = 0;  // guarded

  // --- LP factorization counters, summed as workers retire (guarded) ---
  lp::SimplexSolver::Stats lp_stats;
  bool lp_scaling_active = false;  // any worker LP engaged scaling (guarded)

  // --- accounting ---
  std::atomic<long long> nodes{0};
  std::atomic<long long> lp_iterations{0};
  std::atomic<long long> dropped_nodes{0};
  std::atomic<bool> exhausted{true};
  std::atomic<bool> root_unbounded{false};

  // --- solve lifecycle (deadline / cancel / budgets; see SolveController) ---
  util::SolveController* controller = nullptr;
  // Soft memory pressure sheds optional work before the hard stop: cut
  // separation and diving switch off, the pool re-sort (best-bound bias)
  // pauses so the search drains depth-first. Sticky once set.
  std::atomic<bool> shed_cuts{false};
  std::atomic<bool> shed_diving{false};
  std::size_t cut_pool_bytes = 0;  ///< gauge mirror of the pool (guarded)

  /// Re-reports the cut pool's footprint to the controller. Caller holds
  /// the mutex (or is the only thread).
  void update_cut_pool_bytes(std::size_t now) {
    if (now > cut_pool_bytes)
      controller->reserve(now - cut_pool_bytes);
    else
      controller->release(cut_pool_bytes - now);
    cut_pool_bytes = now;
  }

  // First worker exception (guarded by mutex); rethrown on the main thread.
  std::exception_ptr failure;

  [[nodiscard]] double node_bound(double lp_obj) const {
    return integral_obj ? std::ceil(lp_obj - kIntEps) : lp_obj;
  }
  [[nodiscard]] bool prunable(double bound) const {
    const double cut = cutoff.load(std::memory_order_relaxed);
    if (!std::isfinite(cut)) return false;
    return integral_obj ? bound >= cut - 0.5 : bound >= cut - kBoundEps;
  }
  /// The node LP objective from which on prunable() holds: every z >= it
  /// has prunable(node_bound(z)). Node re-solves stop there
  /// (solve_dual's objective limit), so pruning keeps one rule.
  [[nodiscard]] double prune_limit() const {
    const double cut = cutoff.load(std::memory_order_relaxed);
    if (!std::isfinite(cut)) return lp::kInfinity;
    // Integral: node_bound(z) = ceil(z - kIntEps) reaches the first integer
    // at or above cut - 0.5 once z passes the integer below it by kIntEps.
    return integral_obj ? std::ceil(cut - 0.5) - 1.0 + 2.0 * kIntEps
                        : cut - kBoundEps;
  }
  /// Objective threshold a solution must beat to be worth keeping; the
  /// basis of every reduced-cost fixing decision.
  [[nodiscard]] double improvement_threshold(double cut) const {
    return integral_obj ? cut - 0.5 : cut - kBoundEps;
  }

  /// Reduced-cost domain tightening against the root LP certificate
  /// (z_root, d, x_root): any solution better than the threshold satisfies
  /// d_v * (x_v - x_root_v) < threshold - z_root for every variable.
  /// Appends newly implied restrictions to the fixing log. Caller holds
  /// the mutex (or is the only thread).
  int rc_fix_against(double cut) {
    if (!root_rc_valid) return 0;
    const double gap = improvement_threshold(cut) - root_obj;
    if (!std::isfinite(gap)) return 0;
    int tightened = 0;
    const Model& m = *model;
    for (int v = 0; v < m.num_variables(); ++v) {
      if (m.variable(v).type != VarType::kInteger) continue;
      if (rc_lb[v] >= rc_ub[v]) continue;  // already fixed
      const double d = root_d[v];
      double lo = rc_lb[v], hi = rc_ub[v];
      // The epsilon rounds towards KEEPING values (like presolve's
      // ceil(lo - eps)): LP round-off in the cap may only weaken a fixing,
      // never exclude an integer value the certificate permits.
      if (d > 1e-7) {
        const double cap = std::floor(root_x[v] + gap / d + kIntEps);
        hi = std::min(hi, cap);
      } else if (d < -1e-7) {
        const double cap = std::ceil(root_x[v] + gap / d - kIntEps);
        lo = std::max(lo, cap);
      }
      if (lo > hi) continue;  // no improving solution at all; search decides
      if (lo > rc_lb[v] + kBoundEps || hi < rc_ub[v] - kBoundEps) {
        rc_lb[v] = lo;
        rc_ub[v] = hi;
        fixings.push_back(Change{v, lo, hi});
        ++tightened;
      }
    }
    if (tightened > 0)
      num_fixings.store(fixings.size(), std::memory_order_release);
    return tightened;
  }

  /// Installs a candidate incumbent (single writer section; the atomic
  /// cutoff mirror keeps lock-free pruning reads consistent). An improved
  /// cutoff re-runs reduced-cost fixing against the root certificate, which
  /// is a no-op while the root stage has not produced one yet.
  void offer_incumbent(double objective, std::vector<double> values) {
    std::lock_guard<std::mutex> lock(mutex);
    if (objective < cutoff.load(std::memory_order_relaxed) - kObjImproveEps) {
      cutoff.store(objective, std::memory_order_relaxed);
      incumbent = std::move(values);
      if (options->use_rc_fixing)
        rc_fixed_incumbent += rc_fix_against(objective);
    }
  }

  /// Rounding heuristic: rounds the integer variables of the LP point `x`
  /// and offers the result when it satisfies the model. One rounding and
  /// feasibility check is O(nnz), noise next to an LP solve, so the root
  /// runs it every cut round and the tree at every node.
  void try_round(const std::vector<double>& x) {
    if (!options->use_rounding_heuristic) return;
    std::vector<double> rounded = x;
    round_integers(*model, rounded);
    if (model->max_violation(rounded, true) <= kActivityEps) {
      const double obj = model->objective_value(rounded);
      offer_incumbent(obj, std::move(rounded));
    }
  }

  /// Clique cuts from the conflict graph, then cover cuts from the LP
  /// model, violated at the fractional point `x`. Counts what each
  /// separator found; the caller adds the cuts to the pool.
  std::vector<Cut> separate(const std::vector<double>& x) {
    std::vector<Cut> found;
    if (options->use_clique_cuts && graph != nullptr) {
      const auto cliques = graph->separate_cliques(
          x, kCutViolationEps, options->max_cuts_per_round);
      clique_separated.fetch_add(static_cast<long long>(cliques.size()));
      for (const auto& lits : cliques)
        found.push_back(clique_cut_from_literals(lits));
    }
    if (options->use_cover_cuts && cut_model != nullptr) {
      std::vector<Cut> covers =
          separate_cover_cuts(*cut_model, {}, x, kCutViolationEps,
                              options->max_cuts_per_round);
      cover_separated.fetch_add(static_cast<long long>(covers.size()));
      for (Cut& c : covers) found.push_back(std::move(c));
    }
    return found;
  }

  /// One direction of a bounded strong-branching probe on the warm optimal
  /// basis of `lp`, whose LP optimum is `base`: bounds v to the branch
  /// (branch_bounds inside [lo, hi]), re-solves with the dual simplex under
  /// the caller's ProbePass iteration cap, and restores [lo, hi] and the
  /// basis, so every probe starts from the base optimum and `lp` ends at
  /// it whatever the probe reached. An
  /// optimal probe records the exact per-unit degradation in the shared
  /// store at full reliability weight (a probe is an exact LP degradation,
  /// not a noisy estimate). On kInfeasible the branch holds no integer
  /// point, so the caller may tighten v to the other branch.
  LpStatus probe(SimplexSolver& lp, const LpResult& base, int v, bool up,
                 double lo, double hi) {
    const double xv = base.x[v];
    const double fl = std::floor(xv);
    const auto [plo, phi] = branch_bounds(up, fl, lo, hi);
    const SimplexSolver::Basis start = lp.basis();
    lp.set_variable_bounds(v, plo, phi);
    const LpResult result = lp.solve_dual();
    lp_iterations.fetch_add(result.iterations);
    lp.set_variable_bounds(v, lo, hi);
    lp.set_basis(start);
    if (result.status == LpStatus::kOptimal) {
      const double dist = up ? fl + 1.0 - xv : xv - fl;
      pseudocosts->record(v, up,
                          std::max(0.0, result.objective - base.objective) /
                              std::max(dist, 1e-9),
                          kPseudocostReliability);
    }
    return result.status;
  }
};

/// One probe pass on `lp`: its re-solves are capped at kProbeLpIters, and
/// the pass's dual solves and fallbacks are booked as root work. A probe
/// that runs out of budget "falls back" without saying anything about the
/// warm-start quality of NODE re-solves, so the reduce stage keeps probes
/// out of the dual_solves / dual_fallbacks diagnostic. Their iterations
/// stay counted: they are real LP work.
class ProbePass {
 public:
  ProbePass(SearchContext& ctx, SimplexSolver& lp)
      : ctx_(ctx),
        lp_(lp),
        dual_solves_(lp.stats().dual_solves),
        dual_fallbacks_(lp.stats().dual_fallbacks) {
    lp_.set_max_iterations(kProbeLpIters);
  }
  ~ProbePass() {
    lp_.set_max_iterations(lp::SimplexOptions{}.max_iterations);
    ctx_.root_dual_solves.fetch_add(lp_.stats().dual_solves - dual_solves_);
    ctx_.root_dual_fallbacks.fetch_add(lp_.stats().dual_fallbacks -
                                       dual_fallbacks_);
  }
  ProbePass(const ProbePass&) = delete;
  ProbePass& operator=(const ProbePass&) = delete;

 private:
  SearchContext& ctx_;
  SimplexSolver& lp_;
  const long long dual_solves_;
  const long long dual_fallbacks_;
};

/// One search worker: a private warm-starting SimplexSolver plus the node it
/// is currently plunging on. Workers share nodes through ctx_.pool — each
/// branching keeps the child nearer the LP value local and publishes the
/// other, so idle workers steal the "far" subtrees — and globally valid
/// cutting planes through ctx_.cut_pool, replaying every cut the pool has
/// applied into their own LP via SimplexSolver::add_rows.
class Worker {
 public:
  Worker(SearchContext& ctx, const Model& reduced)
      : ctx_(ctx),
        reduced_(reduced),
        simplex_(reduced, simplex_options(*ctx.options)),
        id_(ctx.next_worker_id.fetch_add(1, std::memory_order_relaxed)),
        root_lb_(ctx.root_lb),
        root_ub_(ctx.root_ub),
        pool_consumed_(ctx.root_applied_cuts) {
    simplex_.set_controller(ctx.controller);
    if (ctx.root_basis) simplex_.set_basis(*ctx.root_basis);
  }

  ~Worker() {
    // Release the accounted footprint of this worker's appended cut rows
    // (the LP itself is going away with the worker).
    std::size_t row_bytes = 0;
    for (const std::size_t b : lp_row_bytes_) row_bytes += b;
    if (row_bytes > 0) ctx_.controller->release(row_bytes);
    // Fold this worker's factorization counters into the shared totals.
    // Runs on normal retirement and on unwinding alike.
    std::lock_guard<std::mutex> lock(ctx_.mutex);
    accumulate(ctx_.lp_stats, simplex_.stats());
    if (dive_lp_) accumulate(ctx_.lp_stats, dive_lp_->stats());
    ctx_.lp_scaling_active |= simplex_.scaling_active();
  }

  static lp::SimplexOptions simplex_options(const Options& opt) {
    lp::SimplexOptions so;
    so.refactor_every = std::max(1, opt.lp_refactor_every);
    so.markowitz_tol = opt.lp_markowitz_tol;
    so.scaling = opt.lp_scaling;
    return so;
  }

  void run() {
    for (;;) {
      std::optional<Node> node = take();
      if (!node) return;
      process(std::move(*node));
    }
  }

 private:
  std::optional<Node> take() {
    std::unique_lock<std::mutex> lock(ctx_.mutex);
    for (;;) {
      if (ctx_.stop || ctx_.done) {
        // Abandoned search: the local node still carries a valid open bound.
        if (local_) {
          ctx_.controller->reserve(node_bytes(*local_));
          ctx_.pool.push_back(std::move(*local_));
          local_.reset();
        }
        if (ctx_.track_current) ctx_.current_nodes[id_].reset();
        return std::nullopt;
      }
      if (local_) {
        Node n = std::move(*local_);
        local_.reset();
        // Mirror the taken node while still holding the lock: a periodic
        // checkpoint capture must see every region that is in neither the
        // pool nor a slot — there is no such window this side of the lock.
        if (ctx_.track_current) ctx_.current_nodes[id_] = n;
        return n;
      }
      if (!ctx_.pool.empty()) {
        // Hybrid node selection: depth-first plunging finds incumbents
        // fast; a periodic re-sort brings the best-bound open node to the
        // top, which closes the proven gap the way best-first search does.
        // Under memory pressure the re-sort pauses: pure DFS drains the
        // pool (and its accounted bytes) fastest.
        if (++ctx_.pops_since_resort >= 256 && ctx_.pool.size() > 1 &&
            !ctx_.controller->memory_pressure()) {
          ctx_.pops_since_resort = 0;
          std::sort(ctx_.pool.begin(), ctx_.pool.end(),
                    [](const Node& a, const Node& b) {
                      return a.parent_bound > b.parent_bound;  // best at back
                    });
        }
        Node n = std::move(ctx_.pool.back());
        ctx_.pool.pop_back();
        ctx_.controller->release(node_bytes(n));
        if (ctx_.track_current) ctx_.current_nodes[id_] = n;
        return n;
      }
      ++ctx_.idle_workers;
      if (ctx_.idle_workers == ctx_.num_workers) {
        ctx_.done = true;  // every worker idle over an empty pool: finished
        ctx_.cv.notify_all();
        return std::nullopt;
      }
      ctx_.cv.wait(lock, [&] {
        return ctx_.stop || ctx_.done || !ctx_.pool.empty();
      });
      --ctx_.idle_workers;
    }
  }

  /// Flags a limit hit: the search stops but `node` (and every worker's
  /// local node) is returned to the pool so the final best-bound reduction
  /// still sees it.
  void signal_stop(Node node) {
    std::lock_guard<std::mutex> lock(ctx_.mutex);
    ctx_.stop = true;
    ctx_.exhausted = false;
    ctx_.controller->reserve(node_bytes(node));
    ctx_.pool.push_back(std::move(node));
    ctx_.cv.notify_all();
  }

  /// Pulls reduced-cost fixings broadcast since the last sync into the
  /// local root bounds (and the LP, for variables the current node does
  /// not override).
  void sync_fixings() {
    if (fixings_consumed_ >=
        ctx_.num_fixings.load(std::memory_order_acquire))
      return;
    fresh_fixings_.clear();
    {
      std::lock_guard<std::mutex> lock(ctx_.mutex);
      fresh_fixings_.assign(ctx_.fixings.begin() + fixings_consumed_,
                            ctx_.fixings.end());
      fixings_consumed_ = ctx_.fixings.size();
    }
    for (const Change& f : fresh_fixings_) {
      root_lb_[f.var] = std::max(root_lb_[f.var], f.lower);
      root_ub_[f.var] = std::min(root_ub_[f.var], f.upper);
      bool overridden = false;
      for (const Change& bc : applied_)
        if (bc.var == f.var) {
          overridden = true;  // next apply_node intersects for us
          break;
        }
      if (!overridden)
        simplex_.set_variable_bounds(f.var, root_lb_[f.var], root_ub_[f.var]);
    }
  }

  /// Replays cuts the shared pool has applied since the last sync into this
  /// worker's LP (slack-basic row append; no cold start). Each appended
  /// row's approximate footprint is reserved with the controller and
  /// released again when age_cut_rows() deletes it (or the worker retires)
  /// — a long solve must not creep toward the shed threshold on memory
  /// the LP already freed.
  void sync_pool_cuts() {
    if (ctx_.cut_pool == nullptr) return;
    if (pool_consumed_ >= ctx_.pool_applied.load(std::memory_order_acquire))
      return;
    new_rows_.clear();
    {
      std::lock_guard<std::mutex> lock(ctx_.mutex);
      const std::vector<Cut>& applied = ctx_.cut_pool->applied();
      for (std::size_t i = pool_consumed_; i < applied.size(); ++i)
        new_rows_.push_back(ConstraintDef{applied[i].terms, Sense::kLessEqual,
                                          applied[i].rhs, ""});
      pool_consumed_ = applied.size();
    }
    std::size_t added_bytes = 0;
    for (const ConstraintDef& row : new_rows_) {
      const std::size_t b =
          sizeof(ConstraintDef) + row.terms.size() * sizeof(lp::Term);
      lp_row_bytes_.push_back(b);
      added_bytes += b;
    }
    if (added_bytes > 0) ctx_.controller->reserve(added_bytes);
    simplex_.add_rows(new_rows_);
  }

  /// Separates cuts at the fractional point `x`, publishes them through the
  /// pool and appends every newly applied pool cut to the own LP. Returns
  /// the number of cuts the pool applied for this point.
  int separate_at(const std::vector<double>& x) {
    std::vector<Cut> found = ctx_.separate(x);
    int applied = 0;
    {
      std::lock_guard<std::mutex> lock(ctx_.mutex);
      auto* fi = util::FaultInjector::active();
      for (Cut& c : found) {
        // Fault-injection hook: a refused pool allocation only loses the
        // cut (cuts are optional strengthening, never correctness).
        if (fi != nullptr && fi->fire(util::FaultSite::kCutAlloc)) continue;
        ctx_.cut_pool->add(std::move(c));
      }
      applied = static_cast<int>(
          ctx_.cut_pool
              ->take_violated(x, kCutViolationEps,
                              ctx_.options->max_cuts_per_round)
              .size());
      ctx_.pool_applied.store(ctx_.cut_pool->applied().size(),
                              std::memory_order_release);
      ctx_.update_cut_pool_bytes(ctx_.cut_pool->approx_bytes());
    }
    sync_pool_cuts();
    return applied;
  }

  /// One node LP re-solve through the dual simplex (the warm basis stays
  /// dual-feasible across branching bound changes and slack-basic row
  /// appends; lp::SimplexSolver falls back to the primal path itself when
  /// it is not) — followed by cut-row aging. The solve stops with kCutoff
  /// once a certified bound reaches the prune limit: the node is pruned
  /// and the rest of its LP would be thrown away.
  LpResult resolve_lp() {
    LpResult lp = simplex_.solve_dual(ctx_.prune_limit());
    if (lp.status == LpStatus::kIterLimit) {
      // A warm re-solve that burned the whole iteration budget is almost
      // always a mangled warm basis (degenerate stalling after bound
      // set/restore churn), not a genuinely hard LP: retry once from the
      // all-slack basis before the caller forfeits the subtree's proof.
      ctx_.lp_iterations.fetch_add(lp.iterations);
      simplex_.invalidate_basis();
      lp = simplex_.solve_dual(ctx_.prune_limit());
    }
    age_cut_rows();
    return lp;
  }

  /// LP-side cut aging, mirroring the pool's: an appended cut row whose
  /// slack stayed basic (cut not binding) for lp_row_age_limit consecutive
  /// re-solves is deleted from the LP, so FTRAN/BTRAN and refactorizations
  /// stop paying for it. Deletion only ever shrinks this worker's LP; the
  /// shared pool is untouched (the cut stays valid and applied elsewhere).
  void age_cut_rows() {
    const int limit = ctx_.options->lp_row_age_limit;
    if (limit <= 0) return;
    const int added = simplex_.num_added_rows();
    row_age_.resize(added, 0);
    doomed_rows_.clear();
    const int base = simplex_.num_rows() - added;
    for (int i = 0; i < added; ++i) {
      if (simplex_.added_row_slack_basic(i)) {
        if (++row_age_[i] >= limit) doomed_rows_.push_back(base + i);
      } else {
        row_age_[i] = 0;
      }
    }
    if (doomed_rows_.empty()) return;
    simplex_.delete_rows(doomed_rows_);
    std::size_t keep = 0;
    std::size_t next_doomed = 0;
    std::size_t freed_bytes = 0;
    for (int i = 0; i < added; ++i) {
      if (next_doomed < doomed_rows_.size() &&
          doomed_rows_[next_doomed] - base == i) {
        ++next_doomed;
        freed_bytes += lp_row_bytes_[i];
        continue;
      }
      lp_row_bytes_[keep] = lp_row_bytes_[i];
      row_age_[keep++] = row_age_[i];
    }
    row_age_.resize(keep);
    lp_row_bytes_.resize(keep);
    // The deleted rows' accounted footprint is returned immediately — the
    // LP stopped paying for them, so the memory budget stops charging.
    if (freed_bytes > 0) ctx_.controller->release(freed_bytes);
  }

  /// Pseudocost branching: among fractional integers of top priority, pick
  /// the variable with the best product of estimated per-unit objective
  /// degradations (up x down). The estimates come from the SHARED store —
  /// every worker's observed branchings plus the root strong-branching
  /// seed — with a reliability blend towards the global average until a
  /// variable+direction has kPseudocostReliability observations of its
  /// own. Degenerate 0/1 relaxations carry many alternative optima, so
  /// "closest to 0.5" alone is nearly a coin flip — steering by observed
  /// bound movement is what keeps the proven bound climbing.
  int pick_branch(const std::vector<double>& x) {
    const Model& model = *ctx_.model;
    const std::vector<int>& priority = ctx_.options->branch_priority;
    const int n = model.num_variables();
    const PseudocostStore& pc = *ctx_.pseudocosts;
    const int rel = kPseudocostReliability;
    // The global averages are an O(n) scan over shared atomics; refreshing
    // them every few picks (instead of every pick) keeps the branching
    // hot path off the cross-worker cache lines record() keeps dirtying.
    // Staleness only perturbs the blend for under-observed variables.
    if (--pc_avg_cooldown_ < 0) {
      pc_avg_cooldown_ = 7;
      pc.global_averages(pc_avg_up_, pc_avg_down_);
    }
    const double avg_up = pc_avg_up_;
    const double avg_down = pc_avg_down_;

    int best = -1;
    int best_prio = std::numeric_limits<int>::min();
    double best_score = -1.0;
    for (int v = 0; v < n; ++v) {
      if (model.variable(v).type != VarType::kInteger) continue;
      const double frac = x[v] - std::floor(x[v]);
      const double dist = std::min(frac, 1.0 - frac);
      if (dist <= kIntEps) continue;
      const int prio = priority.empty() ? 0 : priority[v];
      const double est_up = pc.estimate(v, true, rel, avg_up);
      const double est_down = pc.estimate(v, false, rel, avg_down);
      // The product rule, floored so a zero estimate (no data at all, or a
      // genuinely free direction) degrades to most-fractional scoring
      // instead of flattening every candidate to zero.
      const double score = std::max(est_up * (1.0 - frac), 1e-6 * dist) *
                           std::max(est_down * frac, 1e-6 * dist);
      if (prio > best_prio || (prio == best_prio && score > best_score)) {
        best = v;
        best_prio = prio;
        best_score = score;
      }
    }
    return best;
  }

  /// Feeds the observed LP objective degradation of a branched node back
  /// into the shared pseudocosts of the variable that was branched on.
  void record_pseudocost(const Node& node, double lp_obj) {
    if (node.branch_var < 0 || node.branch_dist <= 1e-9) return;
    const double per_unit =
        std::max(0.0, lp_obj - node.parent_obj) / node.branch_dist;
    ctx_.pseudocosts->record(node.branch_var, node.branch_up, per_unit);
  }

  /// Fractional diving primal heuristic. From the node relaxation, fix the
  /// most-integral fractional variable to its rounding and re-solve (dual
  /// warm re-solves are what make this affordable); an infeasible or
  /// cutoff-crossing fixing is repaired once by flipping to the opposite
  /// integer before the dive gives up. Runs on a private solver, built
  /// once per worker from the root basis and warm from the previous dive
  /// after that, so the tree search's own simplex (and therefore the node
  /// exploration order) is completely unaffected; the only side effect is
  /// a candidate incumbent.
  void dive(const LpResult& start) {
    const Options& opt = *ctx_.options;
    const Model& model = *ctx_.model;
    const int n = model.num_variables();
    if (!dive_lp_) {
      dive_lp_ = std::make_unique<SimplexSolver>(reduced_,
                                                 simplex_options(opt));
      dive_lp_->set_controller(ctx_.controller);
      if (ctx_.root_basis) dive_lp_->set_basis(*ctx_.root_basis);
    }
    // Mirror the node's bounds (they already fold in root rc fixings).
    for (int v = 0; v < n; ++v)
      dive_lp_->set_variable_bounds(v, simplex_.variable_lower(v),
                                    simplex_.variable_upper(v));
    std::vector<double> x = start.x;
    int repairs = 0;
    for (int step = 0; step < 4 * n; ++step) {
      // A dive is pure heuristic work: never let it outlive the search
      // limits (each step below is a full LP re-solve).
      if (ctx_.controller->check_nodes(ctx_.nodes.load()) !=
          util::StopReason::kNone)
        return;
      int pick = -1;
      double pick_dist = 1.0;
      for (int v = 0; v < n; ++v) {
        if (model.variable(v).type != VarType::kInteger) continue;
        if (dive_lp_->variable_lower(v) >= dive_lp_->variable_upper(v))
          continue;
        const double dist = std::abs(x[v] - std::round(x[v]));
        if (dist <= kIntEps) continue;
        if (dist < pick_dist) {
          pick_dist = dist;
          pick = v;
        }
      }
      if (pick < 0) {
        // Integral relaxation: a feasible point of the original model.
        ctx_.try_round(x);
        return;
      }
      const double lo = dive_lp_->variable_lower(pick);
      const double hi = dive_lp_->variable_upper(pick);
      double t = std::clamp(std::round(x[pick]), lo, hi);
      for (int attempt = 0;; ++attempt) {
        dive_lp_->set_variable_bounds(pick, t, t);
        LpResult lp = dive_lp_->solve_dual();
        ctx_.lp_iterations.fetch_add(lp.iterations);
        const bool ok = lp.status == LpStatus::kOptimal &&
                        !ctx_.prunable(ctx_.node_bound(lp.objective));
        if (ok) {
          x = std::move(lp.x);
          break;
        }
        // Repair: the nearest rounding hit a wall — try the opposite
        // integer once (one-hot rows make this a common rescue).
        const double t2 =
            std::clamp(t + (x[pick] > t ? 1.0 : -1.0), lo, hi);
        if (attempt > 0 || ++repairs > 16 || t2 == t) return;
        t = t2;
      }
    }
  }

  /// Applies the node's bound changes on top of the (rc-tightened) root
  /// bounds. Returns false when a change crosses a tightened root bound:
  /// the node region then contains no solution better than the incumbent
  /// and is pruned.
  bool apply_node(const Node& node) {
    for (const Change& bc : applied_)
      simplex_.set_variable_bounds(bc.var, root_lb_[bc.var],
                                   root_ub_[bc.var]);
    applied_ = node.changes;
    for (const Change& bc : applied_) {
      const double lo = std::max(bc.lower, root_lb_[bc.var]);
      const double hi = std::min(bc.upper, root_ub_[bc.var]);
      if (lo > hi) return false;  // reset on the next apply_node
      simplex_.set_variable_bounds(bc.var, lo, hi);
    }
    return true;
  }

  void process(Node node) {
    const Options& opt = *ctx_.options;
    // Fault-injection hook: spontaneous cancellation at an arbitrary node
    // exercises the cancel path without a real signal.
    if (auto* fi = util::FaultInjector::active();
        fi != nullptr && fi->fire(util::FaultSite::kCancel))
      ctx_.controller->request_cancel();
    if (ctx_.controller->check_nodes(ctx_.nodes.load()) !=
        util::StopReason::kNone) {
      signal_stop(std::move(node));
      return;
    }
    // Soft memory pressure: shed the optional work (cuts, dives) before
    // the hard budget trips the whole solve.
    if (ctx_.controller->memory_pressure()) {
      ctx_.shed_cuts.store(true, std::memory_order_relaxed);
      ctx_.shed_diving.store(true, std::memory_order_relaxed);
    }
    if (ctx_.prunable(node.parent_bound)) return;

    sync_fixings();
    sync_pool_cuts();
    if (!apply_node(node)) return;  // crossed an rc-tightened root bound
    ctx_.nodes.fetch_add(1);

    LpResult lp = resolve_lp();
    ctx_.lp_iterations.fetch_add(lp.iterations);
    if (lp.status == LpStatus::kInfeasible) return;
    if (lp.status == LpStatus::kCutoff) {
      // Pruned on a certified bound; it is the degradation observed.
      record_pseudocost(node, lp.objective);
      return;
    }
    if (lp.status == LpStatus::kAborted) {
      // The controller tripped mid-LP: the node is unexplored — return it
      // to the pool so the final best-bound reduction still sees it.
      signal_stop(std::move(node));
      return;
    }
    if (lp.status == LpStatus::kUnbounded) {
      // Integer feasibility cannot rescue an unbounded relaxation at the
      // root; deeper nodes inherit the verdict only if the root saw it.
      if (node.depth == 0) {
        ctx_.root_unbounded = true;
        std::lock_guard<std::mutex> lock(ctx_.mutex);
        ctx_.stop = true;
        ctx_.cv.notify_all();
        return;
      }
      // A deeper unbounded verdict on these bounded models is numerical
      // noise: abandon the subtree honestly instead of discarding its
      // bound (the proof is forfeited, not silently faked).
      drop_node(node, "unbounded relaxation");
      return;
    }
    if (lp.status != LpStatus::kOptimal) {
      drop_node(node, "LP iteration limit");
      return;
    }

    record_pseudocost(node, lp.objective);
    double bound = ctx_.node_bound(lp.objective);
    if (ctx_.prunable(bound)) return;

    // Rounding at every node: incumbents surface long before the tree
    // search reaches an integral leaf by branching alone.
    ctx_.try_round(lp.x);

    // Branching target; in-tree separation may tighten the LP and retry.
    int branch_var = pick_branch(lp.x);
    const bool cuts_on = opt.cut_node_interval > 0 && ctx_.cut_pool != nullptr &&
                         (opt.use_clique_cuts || opt.use_cover_cuts) &&
                         !ctx_.shed_cuts.load(std::memory_order_relaxed);
    if (cuts_on && branch_var >= 0 &&
        ++nodes_since_separation_ >= opt.cut_node_interval) {
      nodes_since_separation_ = 0;
      for (int pass = 0; pass < 2 && branch_var >= 0; ++pass) {
        if (separate_at(lp.x) == 0) break;
        lp = resolve_lp();
        ctx_.lp_iterations.fetch_add(lp.iterations);
        // Cuts are valid: an infeasible or cut-off LP prunes the node.
        if (lp.status == LpStatus::kInfeasible ||
            lp.status == LpStatus::kCutoff)
          return;
        if (lp.status == LpStatus::kAborted) {
          signal_stop(std::move(node));
          return;
        }
        if (lp.status != LpStatus::kOptimal) {
          // Post-separation re-solve failed (iteration limit / numerical
          // wall): the subtree is abandoned, its bound joins the reduction.
          drop_node(node, "post-separation re-solve failure");
          return;
        }
        bound = ctx_.node_bound(lp.objective);
        if (ctx_.prunable(bound)) return;
        branch_var = pick_branch(lp.x);
      }
    }

    // Diving heuristic: at the root and periodically thereafter, chase the
    // fractional point down to an integer-feasible incumbent. (The naive
    // one-shot rounding above almost never survives the one-hot rows; the
    // dive re-solves its way to feasibility instead.)
    if (branch_var >= 0 && opt.use_rounding_heuristic &&
        !ctx_.shed_diving.load(std::memory_order_relaxed) &&
        (node.depth == 0 || ++nodes_since_dive_ >= 128)) {
      nodes_since_dive_ = 0;
      dive(lp);
    }

    if (branch_var < 0) {
      // Integral LP optimum: new incumbent.
      std::vector<double> values = std::move(lp.x);
      round_integers(*ctx_.model, values);
      ctx_.offer_incumbent(lp.objective, std::move(values));
      return;
    }

    const double xv = lp.x[branch_var];
    const double floor_v = std::floor(xv);
    // Children: "down" (x <= floor) and "up" (x >= floor+1). The side
    // nearer the LP value is plunged on locally; the other is published
    // for any idle worker to steal.
    Node down{node.changes, bound, node.depth + 1};
    double cur_lo = root_lb_[branch_var], cur_hi = root_ub_[branch_var];
    for (const Change& bc : node.changes)
      if (bc.var == branch_var) {
        cur_lo = bc.lower;
        cur_hi = bc.upper;
      }
    down.changes.push_back(Change{branch_var, cur_lo, floor_v});
    down.branch_var = branch_var;
    down.branch_up = false;
    down.branch_dist = xv - floor_v;
    down.parent_obj = lp.objective;
    Node up{std::move(node.changes), bound, node.depth + 1};
    up.changes.push_back(Change{branch_var, floor_v + 1.0, cur_hi});
    up.branch_var = branch_var;
    up.branch_up = true;
    up.branch_dist = floor_v + 1.0 - xv;
    up.parent_obj = lp.objective;

    const bool down_first = (xv - floor_v) < 0.5;
    Node& near = down_first ? down : up;
    Node& far = down_first ? up : down;
    local_ = std::move(near);
    // Fault-injection hook: a refused node-pool allocation drops the far
    // child HONESTLY — its bound joins the reduction, the proof is
    // forfeited, and the search never pretends the subtree was explored.
    if (auto* fi = util::FaultInjector::active();
        fi != nullptr && fi->fire(util::FaultSite::kNodeAlloc)) {
      drop_node(far, "node-pool allocation refused");
    } else {
      std::lock_guard<std::mutex> lock(ctx_.mutex);
      ctx_.controller->reserve(node_bytes(far));
      ctx_.pool.push_back(std::move(far));
    }
    ctx_.cv.notify_one();
  }

  /// Abandons a subtree unexplored (LP failure, refused allocation, ...).
  /// The search can no longer prove optimality or infeasibility, and the
  /// node's inherited bound must stay part of the final best-bound
  /// reduction.
  void drop_node(const Node& node, const char* why) {
    util::log_warn() << why << " at node " << ctx_.nodes.load()
                     << "; dropping the node (optimality proof forfeited)";
    ctx_.dropped_nodes.fetch_add(1);
    ctx_.exhausted = false;
    std::lock_guard<std::mutex> lock(ctx_.mutex);
    ctx_.dropped_bound = std::min(ctx_.dropped_bound, node.parent_bound);
  }

  SearchContext& ctx_;
  const Model& reduced_;  ///< LP model workers are built from (dive solver)
  SimplexSolver simplex_;
  const int id_;  ///< slot index into ctx_.current_nodes (checkpoint capture)
  std::unique_ptr<SimplexSolver> dive_lp_;  ///< lazily built dive solver
  std::vector<double> root_lb_, root_ub_;  ///< local rc-tightened root bounds
  std::vector<Change> applied_;       ///< changes currently applied
  std::optional<Node> local_;         ///< child being plunged on
  std::size_t pool_consumed_ = 0;     ///< pool.applied() rows already in LP
  std::size_t fixings_consumed_ = 0;  ///< ctx.fixings entries already applied
  int nodes_since_separation_ = 0;
  int nodes_since_dive_ = 0;
  // Cached pseudocost global averages (refreshed every few picks; see
  // pick_branch). Start expired so the first pick reads fresh values.
  double pc_avg_up_ = 0.0, pc_avg_down_ = 0.0;
  int pc_avg_cooldown_ = 0;
  std::vector<int> row_age_;  ///< consecutive slack-basic re-solves per cut row
  std::vector<std::size_t> lp_row_bytes_;  ///< accounted bytes per cut row
  std::vector<Change> fresh_fixings_;       // scratch
  std::vector<ConstraintDef> new_rows_;     // scratch
  std::vector<int> doomed_rows_;            // scratch (age_cut_rows)
};

/// Constructs and runs one worker, capturing any exception (including a
/// throwing SimplexSolver constructor) into ctx.failure so the main thread
/// can rethrow it after the join instead of std::terminate firing.
void run_worker(SearchContext& ctx, const Model& reduced) {
  try {
    Worker(ctx, reduced).run();
  } catch (...) {
    std::lock_guard<std::mutex> lock(ctx.mutex);
    if (!ctx.failure) ctx.failure = std::current_exception();
    ctx.stop = true;
    ctx.exhausted = false;
    ctx.cv.notify_all();
  }
}

/// Snapshots the search state under the search mutex — the incumbent,
/// cutoff, tightened bounds and pool are mutated together under it, so the
/// copy is a consistent cut of the search — and writes it to
/// Options::checkpoint_path outside the lock, counting the write and its
/// wall clock. A failed write is logged, never fatal.
void write_checkpoint(SearchContext& ctx, std::uint64_t fingerprint,
                      Stats& stats) {
  const double mark = ctx.watch.seconds();
  SolveCheckpoint ck;
  {
    std::lock_guard<std::mutex> lock(ctx.mutex);
    ck.model_fingerprint = fingerprint;
    ck.num_variables = ctx.model->num_variables();
    ck.cutoff = ctx.cutoff.load(std::memory_order_relaxed);
    ck.has_incumbent = !ctx.incumbent.empty();
    if (ck.has_incumbent) {
      ck.incumbent = ctx.incumbent;
      ck.incumbent_objective = ck.cutoff;  // offers keep the two in lockstep
    }
    ck.dropped_bound = ctx.dropped_bound;
    ck.nodes_explored = ctx.nodes.load(std::memory_order_relaxed);
    ck.global_lb = ctx.rc_lb;
    ck.global_ub = ctx.rc_ub;
    ck.frontier = ctx.pool;
    // Mid-search captures additionally cover each worker's in-flight node
    // (mirrored by take() under the same mutex). A slot may overlap
    // children already published to the pool — redundant coverage is
    // sound; a missing region would not be.
    for (const std::optional<Node>& slot : ctx.current_nodes)
      if (slot) ck.frontier.push_back(*slot);
    if (ctx.cut_pool != nullptr) {
      for (const Cut& c : ctx.cut_pool->applied()) {
        CheckpointCut cc;
        cc.terms = c.terms;
        cc.rhs = c.rhs;
        cc.cut_class = static_cast<std::uint8_t>(c.cut_class);
        ck.cuts.push_back(std::move(cc));
      }
    }
    ctx.pseudocosts->capture(ck.pseudocosts);
  }
  if (save_checkpoint(ctx.options->checkpoint_path, ck))
    ++stats.checkpoints_written;
  else
    util::log_warn() << "checkpoint: write to " << ctx.options->checkpoint_path
                     << " failed";
  stats.checkpoint_seconds += ctx.watch.seconds() - mark;
}

/// Resume gate: a snapshot is only trusted after every structural and
/// semantic check passes against the caller's PRE-PRESOLVE model. The
/// checksum already rejected random corruption at load; these checks
/// reject stale or mismatched snapshots (different model, different
/// formulation build) and anything the decoder cannot prove harmless.
bool validate_checkpoint(const SolveCheckpoint& ck, const Model& original,
                         std::uint64_t fingerprint, std::string& why) {
  const int n = original.num_variables();
  const auto fail = [&why](const char* w) {
    why = w;
    return false;
  };
  if (ck.model_fingerprint != fingerprint)
    return fail("model fingerprint mismatch");
  if (ck.num_variables != n) return fail("variable count mismatch");
  if (static_cast<int>(ck.global_lb.size()) != n ||
      static_cast<int>(ck.global_ub.size()) != n)
    return fail("global bound vectors malformed");
  for (int v = 0; v < n; ++v) {
    const double lo = ck.global_lb[v], hi = ck.global_ub[v];
    const lp::VariableDef& var = original.variable(v);
    // Written to also reject NaN (every comparison with NaN is false).
    if (!(lo <= hi) || !(lo >= var.lower - kBoundEps) ||
        !(hi <= var.upper + kBoundEps))
      return fail("restored bounds outside the model's");
  }
  if (std::isnan(ck.cutoff) || std::isnan(ck.dropped_bound))
    return fail("cutoff/dropped bound is NaN");
  if (ck.has_incumbent) {
    if (static_cast<int>(ck.incumbent.size()) != n)
      return fail("incumbent length mismatch");
    for (const double x : ck.incumbent)
      if (!std::isfinite(x)) return fail("incumbent value not finite");
    if (!std::isfinite(ck.incumbent_objective) || !std::isfinite(ck.cutoff) ||
        std::abs(ck.cutoff - ck.incumbent_objective) >
            1e-6 * std::max(1.0, std::abs(ck.incumbent_objective)))
      return fail("cutoff out of lockstep with the incumbent");
    // The exit-audit feasibility standard, applied at entry: a snapshot
    // whose incumbent fails the original model proves nothing.
    if (original.max_violation(ck.incumbent, true) > 10 * kActivityEps)
      return fail("restored incumbent infeasible on the original model");
    const double obj = original.objective_value(ck.incumbent);
    if (std::abs(obj - ck.incumbent_objective) >
        1e-6 * std::max(1.0, std::abs(obj)))
      return fail("restored incumbent objective mismatch");
  } else if (!ck.incumbent.empty()) {
    return fail("incumbent flag/vector mismatch");
  }
  for (const CheckpointNode& node : ck.frontier) {
    if (node.depth < 0 || std::isnan(node.parent_bound))
      return fail("frontier node malformed");
    for (const CheckpointNode::Change& c : node.changes) {
      if (c.var < 0 || c.var >= n)
        return fail("frontier variable out of range");
      if (std::isnan(c.lower) || std::isnan(c.upper))
        return fail("frontier bound is NaN");
    }
  }
  for (const CheckpointCut& cut : ck.cuts) {
    if (cut.terms.empty() || !std::isfinite(cut.rhs))
      return fail("cut row malformed");
    if (cut.cut_class > static_cast<std::uint8_t>(CutClass::kCover))
      return fail("unknown cut class");
    int prev = -1;
    for (const lp::Term& t : cut.terms) {
      if (t.var <= prev || t.var >= n || !std::isfinite(t.coeff))
        return fail("cut terms malformed");
      prev = t.var;
    }
  }
  for (const CheckpointPseudocost& p : ck.pseudocosts) {
    if (p.var < 0 || p.var >= n || p.up_cnt < 0 || p.down_cnt < 0 ||
        !std::isfinite(p.up_sum) || !std::isfinite(p.down_sum))
      return fail("pseudocost entry malformed");
  }
  return true;
}

// ---------------------------------------------------------------------------
// The solve's stages, in the order Solver::solve_impl runs them:
//   sanitize -> presolve_stage + seed_search -> root_stage -> strong_branch
//   -> restore -> search -> reduce -> audit.
// A pre-search stage returns an Exit: nullopt hands on to the next stage, a
// status ends the solve there.
// ---------------------------------------------------------------------------

using Exit = std::optional<SolveStatus>;

/// The sanitize stage's hand-off.
struct Input {
  Model model;  ///< sanitized model: presolve's input, the audit's reference
  std::uint64_t fingerprint = 0;  ///< set when checkpointing or resuming
  const SolveCheckpoint* restored = nullptr;  ///< snapshot past the gate
};

/// Sanitize stage. Every model — built-in, file-sourced or serve job —
/// passes through lp::sanitize_model before presolve sees it. Rejection
/// (non-finite data, corrupt indices) is an honest kInvalidModel refusal; a
/// structurally contradictory model is an honest kInfeasible without a
/// search; a repaired model replaces the input for the whole solve
/// (including the exit audit — the repairs are solve-equivalent). Then the
/// resume gate: a snapshot that fails any check degrades to a cold start
/// with the rejection counted — never to a wrong proof.
Exit sanitize(const Options& opt, const Model& input,
              const SolveCheckpoint* snapshot, Input& in, Stats& stats) {
  lp::SanitizeResult sanitized = lp::sanitize_model(input);
  stats.sanitizer_class = lp::to_string(sanitized.diag.cls);
  stats.sanitizer_duplicates_merged = sanitized.diag.duplicate_terms_merged;
  stats.sanitizer_zero_coeffs_dropped = sanitized.diag.zero_coeffs_dropped;
  stats.sanitizer_vacuous_rows_dropped = sanitized.diag.vacuous_rows_dropped;
  stats.sanitizer_contradictory_rows = sanitized.diag.contradictory_rows;
  stats.sanitizer_crossed_bounds = sanitized.diag.crossed_bounds;
  stats.sanitizer_fingerprint = sanitized.diag.fingerprint();
  if (sanitized.diag.cls == lp::ModelClass::kRejected) {
    util::log_warn() << "sanitizer: model rejected ("
                     << sanitized.diag.first_issue << ")";
    return SolveStatus::kInvalidModel;
  }
  if (sanitized.diag.proven_infeasible) {
    stats.sanitizer_proven_infeasible = true;
    return SolveStatus::kInfeasible;
  }
  in.model = std::move(sanitized.model);
  if (!opt.checkpoint_path.empty() || snapshot != nullptr)
    in.fingerprint = model_fingerprint(in.model);
  if (snapshot == nullptr) return std::nullopt;
  std::string why;
  if (validate_checkpoint(*snapshot, in.model, in.fingerprint, why)) {
    in.restored = snapshot;
    stats.resumed = true;
    stats.restored_nodes = static_cast<long long>(snapshot->frontier.size());
  } else {
    util::log_warn() << "resume: snapshot rejected (" << why
                     << "); cold start";
    stats.resume_rejected = 1;
  }
  return std::nullopt;
}

/// The presolve stage's hand-off.
struct Presolved {
  Model model;          ///< presolved working model (branching, rounding)
  Model reduced;        ///< the LP model; the root stage appends its cuts
  ConflictGraph graph;  ///< clique-cut source
};

/// Presolve stage: presolve, then probing — one level of implication depth
/// on every unfixed binary; fixings land in the model's bounds,
/// implications in the conflict graph, and a successful pass feeds a second
/// presolve sweep — then the LP model (redundant rows dropped, fixed
/// variables substituted out) and the conflict edges readable straight off
/// its rows (one-hot and clique rows, z <= x style implications).
Exit presolve_stage(const Options& opt, const Model& original, Presolved& out,
                    Stats& stats) {
  Model& model = out.model;
  model = original;  // working copy: presolve mutates bounds
  if (!opt.branch_priority.empty())
    ADVBIST_REQUIRE(static_cast<int>(opt.branch_priority.size()) ==
                        model.num_variables(),
                    "branch_priority size mismatch");
  out.graph = ConflictGraph(model.num_variables());
  std::vector<bool> row_redundant;
  if (opt.use_presolve) {
    PresolveResult pre = presolve(model);
    if (pre.infeasible) return SolveStatus::kInfeasible;
    row_redundant = std::move(pre.row_redundant);
    if (opt.use_probing) {
      const ProbingResult probe =
          probe_binaries(model, row_redundant, out.graph);
      stats.probing_probed = probe.probed;
      stats.probing_fixed = probe.fixed;
      stats.probing_implications = probe.implications;
      if (probe.infeasible) return SolveStatus::kInfeasible;
      if (probe.fixed > 0 || probe.bounds_tightened > 0) {
        PresolveResult pre2 = presolve(model);
        if (pre2.infeasible) return SolveStatus::kInfeasible;
        row_redundant = std::move(pre2.row_redundant);
      }
    }
    for (int v = 0; v < model.num_variables(); ++v)
      if (model.variable(v).lower == model.variable(v).upper)
        ++stats.presolve_fixed;
    stats.presolve_redundant_rows = static_cast<int>(
        std::count(row_redundant.begin(), row_redundant.end(), true));
  }
  ReducedModelResult reduction = build_reduced_model(model, row_redundant);
  stats.presolve_dropped_rows = reduction.dropped_rows;
  stats.presolve_dropped_terms = reduction.dropped_terms;
  if (reduction.infeasible) return SolveStatus::kInfeasible;
  out.reduced = std::move(reduction.model);
  if (opt.use_clique_cuts) out.graph.add_from_rows(out.reduced, {});
  out.graph.finalize();
  return std::nullopt;
}

/// Points the search context at the presolved models and seeds the root
/// box and the cutoff.
void seed_search(SearchContext& ctx, const Presolved& pre,
                 const SolveCheckpoint* restored) {
  const Options& opt = *ctx.options;
  const Model& model = pre.model;
  ctx.model = &model;
  ctx.cut_model = &pre.reduced;
  ctx.graph = opt.use_clique_cuts ? &pre.graph : nullptr;
  ctx.integral_obj = model.objective_is_integral();
  for (int v = 0; v < model.num_variables(); ++v) {
    ctx.root_lb.push_back(model.variable(v).lower);
    ctx.root_ub.push_back(model.variable(v).upper);
  }
  if (std::isfinite(opt.initial_cutoff)) {
    // Seeded bound: keep nodes that can still reach objective ==
    // initial_cutoff (callers pass a heuristic solution's value).
    ctx.cutoff = opt.initial_cutoff + (ctx.integral_obj ? 1.0 : kIntEps);
  }
  if (restored != nullptr && std::isfinite(restored->cutoff) &&
      restored->cutoff <= ctx.cutoff.load()) {
    // The interrupted run's cutoff (and incumbent, re-verified against the
    // original model by the resume gate) picks up where it left off. A
    // caller-seeded cutoff tighter than the snapshot's wins instead, and
    // the snapshot's incumbent — no better than that seed — is dropped
    // with it.
    ctx.cutoff.store(restored->cutoff);
    if (restored->has_incumbent) ctx.incumbent = restored->incumbent;
  }
}

/// The root stage's hand-off.
struct Root {
  /// The root LP solver. Strong branching probes on its warm optimal basis,
  /// whose final state seeds every worker and dive solver
  /// (SearchContext::root_basis), and the exit audit re-solves it on fresh
  /// factors.
  std::optional<SimplexSolver> solver;
  LpResult result;  ///< most recent root LP result (kIterLimit until solved)
  double bound = -lp::kInfinity;  ///< root node bound after the cut loop

  /// Builds the root LP solver over `reduced` and solves it from the slack
  /// basis with the dual simplex (no phase 1 on these covering models,
  /// whose slack basis is dual feasible). A cold solve says nothing about
  /// warm starts, so it is booked as root work, not in lp_dual_solves.
  void solve(SearchContext& ctx, const Model& reduced) {
    solver.emplace(reduced, Worker::simplex_options(*ctx.options));
    solver->set_controller(ctx.controller);
    result = solver->solve_dual();
    ctx.lp_iterations.fetch_add(result.iterations);
    ctx.root_dual_solves.fetch_add(1);
    if (result.dual_fallback) ctx.root_dual_fallbacks.fetch_add(1);
  }
};

/// Root stage: the root LP, then — when cuts are on — rounds of
/// clique/cover separation against it (rows appended in place on the
/// factorized basis) with a rounding incumbent per round, and — when rc
/// fixing is on — reduced-cost fixing off the final root basis.
Exit root_stage(SearchContext& ctx, Model& reduced, CutPool& pool, Root& root,
                Stats& stats) {
  const Options& opt = *ctx.options;
  const bool cut_loop =
      opt.cut_rounds > 0 && (opt.use_clique_cuts || opt.use_cover_cuts);
  root.solve(ctx, reduced);
  LpResult& rlp = root.result;
  if (rlp.status == LpStatus::kInfeasible) return SolveStatus::kInfeasible;
  if (rlp.status == LpStatus::kUnbounded) return SolveStatus::kUnbounded;
  if (rlp.status != LpStatus::kOptimal) return std::nullopt;
  stats.root_lp_bound = ctx.node_bound(rlp.objective);
  ctx.try_round(rlp.x);

  double prev_bound = rlp.objective;
  int stalled = 0;
  for (int round = 0; cut_loop && round < opt.cut_rounds; ++round) {
    // The per-round check catches deadline/cancel between LP solves; the
    // in-LP controller polling (via set_controller above) catches them
    // INSIDE a long re-solve, so no single round can overshoot.
    if (ctx.controller->check() != util::StopReason::kNone) break;
    if (fractional_candidates(*ctx.model, rlp.x).empty())
      break;  // integral root: the search concludes immediately
    for (Cut& c : ctx.separate(rlp.x)) pool.add(std::move(c));
    const std::vector<Cut> taken = pool.take_violated(
        rlp.x, kCutViolationEps, opt.max_cuts_per_round);
    if (taken.empty()) break;
    std::vector<ConstraintDef> rows;
    rows.reserve(taken.size());
    for (const Cut& c : taken) {
      rows.push_back(ConstraintDef{c.terms, Sense::kLessEqual, c.rhs, ""});
      lp::LinExpr expr;
      for (const lp::Term& t : c.terms) expr.add(t.var, t.coeff);
      reduced.add_constraint(std::move(expr), Sense::kLessEqual, c.rhs);
    }
    root.solver->add_rows(rows);
    // The appended rows enter slack-basic, so the dual re-solve path
    // applies at the root exactly as it does in the tree.
    rlp = root.solver->solve_dual();
    ctx.lp_iterations.fetch_add(rlp.iterations);
    // Valid cuts + feasible LP turned infeasible: no integer point.
    if (rlp.status == LpStatus::kInfeasible) return SolveStatus::kInfeasible;
    if (rlp.status != LpStatus::kOptimal) return std::nullopt;
    ctx.try_round(rlp.x);
    // Two consecutive stalled rounds end the loop: the pool keeps the
    // separated-but-idle cuts and ages them out.
    if (rlp.objective < prev_bound + kIntEps) {
      if (++stalled >= 2) break;
    } else {
      stalled = 0;
    }
    prev_bound = rlp.objective;
  }

  root.bound = ctx.node_bound(rlp.objective);
  stats.root_cut_bound = root.bound;
  if (!opt.use_rc_fixing) return std::nullopt;

  // Root reduced-cost fixing: keep the certificate for incumbent
  // improvements during the search.
  ctx.root_rc_valid = true;
  ctx.root_obj = rlp.objective;
  ctx.root_x = rlp.x;
  ctx.root_d = root.solver->reduced_costs();
  ctx.rc_lb = ctx.root_lb;
  ctx.rc_ub = ctx.root_ub;
  if (const double cut = ctx.cutoff.load();
      std::isfinite(cut) && !ctx.prunable(root.bound))
    stats.rc_fixed_root = ctx.rc_fix_against(cut);
  // Bake the root fixings into the root bounds and the LP model (workers
  // copy both at construction).
  for (int v = 0; v < reduced.num_variables(); ++v) {
    if (ctx.rc_lb[v] > ctx.root_lb[v] || ctx.rc_ub[v] < ctx.root_ub[v]) {
      ctx.root_lb[v] = ctx.rc_lb[v];
      ctx.root_ub[v] = ctx.rc_ub[v];
      reduced.set_bounds(v, ctx.rc_lb[v], ctx.rc_ub[v]);
    }
  }
  ctx.fixings.clear();  // baked in; workers need no replay
  ctx.num_fixings.store(0);
  return std::nullopt;
}

/// Strong-branching probes from the root optimum `base` on `sb`, most
/// fractional candidates first within the highest branching priority.
/// Returns true when the probes prove the model infeasible.
bool probe_root(SearchContext& ctx, Model& reduced, SimplexSolver& sb,
                LpResult base, Stats& stats) {
  const Options& opt = *ctx.options;
  std::vector<Candidate> cands = fractional_candidates(*ctx.model, base.x);
  const auto priority = [&opt](int v) {
    return opt.branch_priority.empty() ? 0 : opt.branch_priority[v];
  };
  std::sort(cands.begin(), cands.end(),
            [&](const Candidate& a, const Candidate& b) {
              if (priority(a.v) != priority(b.v))
                return priority(a.v) > priority(b.v);
              if (a.dist != b.dist) return a.dist > b.dist;
              return a.v < b.v;
            });
  if (static_cast<int>(cands.size()) > opt.strong_branch_vars)
    cands.resize(opt.strong_branch_vars);
  const ProbePass pass(ctx, sb);
  for (const Candidate& c : cands) {
    if (ctx.controller->check() != util::StopReason::kNone) break;
    // Re-derive fractionality from the CURRENT base (a fixing may have
    // re-solved it since the candidates were ranked).
    const double xv = base.x[c.v];
    const double fl = std::floor(xv);
    if (std::min(xv - fl, fl + 1.0 - xv) <= kIntEps) continue;
    bool fixed_here = false;
    for (const bool up : {false, true}) {
      const double lo = ctx.root_lb[c.v], hi = ctx.root_ub[c.v];
      const auto [plo, phi] = branch_bounds(up, fl, lo, hi);
      if (plo > phi) continue;  // a prior fixing emptied this branch
      const LpStatus status = ctx.probe(sb, base, c.v, up, lo, hi);
      ++stats.strong_branch_probed;
      if (status != LpStatus::kInfeasible) continue;
      // No LP point in the branch, hence no integer point: the other
      // branch is a globally valid bound.
      const auto [nlo, nhi] = branch_bounds(!up, fl, lo, hi);
      if (nlo > nhi) return true;  // both directions empty
      ctx.root_lb[c.v] = nlo;
      ctx.root_ub[c.v] = nhi;
      if (ctx.root_rc_valid) {
        ctx.rc_lb[c.v] = std::max(ctx.rc_lb[c.v], nlo);
        ctx.rc_ub[c.v] = std::min(ctx.rc_ub[c.v], nhi);
      }
      reduced.set_bounds(c.v, nlo, nhi);
      sb.set_variable_bounds(c.v, nlo, nhi);
      ++stats.strong_branch_fixed;
      // A fixed variable is never branched on again: drop its seeded
      // history so it cannot skew the global pseudocost averages.
      ctx.pseudocosts->purge(c.v);
      fixed_here = true;
      break;  // the base moved; re-solve before probing further
    }
    if (!fixed_here) continue;
    // A fixing moved the root optimum: re-solve (uncapped) so every later
    // candidate's degradation is measured against the true current base,
    // then restore the probe budget.
    sb.set_max_iterations(lp::SimplexOptions{}.max_iterations);
    LpResult rebase = sb.solve_dual();
    ctx.lp_iterations.fetch_add(rebase.iterations);
    sb.set_max_iterations(kProbeLpIters);
    if (rebase.status == LpStatus::kInfeasible) return true;
    if (rebase.status != LpStatus::kOptimal) break;  // stop probing
    base = std::move(rebase);
  }
  return false;
}

/// Strong-branching stage: bounded dual probes on the root candidates seed
/// the shared pseudocost store, so no worker's first branchings run on
/// guesswork. The probes run on the root LP's warm optimal basis (each is a
/// bound change away from it — exactly the dual re-solve pattern). A
/// direction whose probe proves LP-infeasible fixes the variable the other
/// way — globally valid, like a reduced-cost fixing — and two infeasible
/// directions prove the whole model infeasible. A resumed run inherits the
/// interrupted run's pseudocosts instead of re-paying the probes. The root
/// LP's counters join the search's here.
Exit strong_branch(SearchContext& ctx, Model& reduced, Root& root,
                   const SolveCheckpoint* restored, Stats& stats) {
  const Options& opt = *ctx.options;
  bool infeasible = false;
  if (opt.strong_branch_vars > 0 && restored == nullptr &&
      ctx.controller->check() == util::StopReason::kNone &&
      root.result.status == LpStatus::kOptimal)
    infeasible = probe_root(ctx, reduced, *root.solver, root.result, stats);
  if (root.result.status == LpStatus::kOptimal)
    ctx.root_basis = root.solver->basis();
  accumulate(ctx.lp_stats, root.solver->stats());
  ctx.lp_scaling_active |= root.solver->scaling_active();
  if (infeasible) return SolveStatus::kInfeasible;
  return std::nullopt;
}

/// Restore stage: the search's starting state. A cold start gets the root
/// node. A resume instead restores the interrupted run's state:
///  * its globally tightened bounds (probing + strong branching + rc
///    fixing, all valid given the restored and re-verified incumbent) are
///    baked into the root box, the way root rc fixings are. A restored
///    bound conflicting with a freshly derived one would make the box
///    empty, so that variable is skipped; restored bounds are an
///    optimization, never required for soundness;
///  * its applied cuts are replayed through the pool: workers pick them up
///    via their normal applied-list sync, and cuts the root loop
///    re-derived this run dedup away structurally;
///  * its frontier replaces the root node: together with the restored
///    cutoff it covers every region the interrupted run had not finished
///    (see ilp/checkpoint.hpp for the monotonicity argument). An empty
///    frontier means that run had explored the whole tree before its
///    limit latched — nothing left to search;
///  * its dropped-node bound and pseudocosts carry over.
void restore(SearchContext& ctx, Model& reduced, CutPool& pool,
             const SolveCheckpoint* restored, double root_bound) {
  const Options& opt = *ctx.options;
  ctx.cut_pool =
      opt.use_clique_cuts || opt.use_cover_cuts ? &pool : nullptr;
  ctx.root_applied_cuts = pool.applied().size();
  if (restored == nullptr) {
    Node root{{}, root_bound, 0};
    ctx.controller->reserve(node_bytes(root));
    ctx.pool.push_back(std::move(root));
  } else {
    for (int v = 0; v < reduced.num_variables(); ++v) {
      const double lo = std::max(ctx.root_lb[v], restored->global_lb[v]);
      const double hi = std::min(ctx.root_ub[v], restored->global_ub[v]);
      if (lo > hi || (lo <= ctx.root_lb[v] && hi >= ctx.root_ub[v])) continue;
      ctx.root_lb[v] = lo;
      ctx.root_ub[v] = hi;
      reduced.set_bounds(v, lo, hi);
      if (ctx.root_rc_valid) {
        ctx.rc_lb[v] = std::max(ctx.rc_lb[v], lo);
        ctx.rc_ub[v] = std::min(ctx.rc_ub[v], hi);
      }
    }
    if (ctx.cut_pool != nullptr) {
      for (const CheckpointCut& c : restored->cuts) {
        Cut cut;
        cut.terms = c.terms;
        cut.rhs = c.rhs;
        // validate_checkpoint already capped cut_class at kCover.
        cut.cut_class = static_cast<CutClass>(c.cut_class);
        pool.restore_applied(std::move(cut));
      }
    }
    ctx.pool = restored->frontier;
    for (const Node& node : ctx.pool)
      ctx.controller->reserve(node_bytes(node));
    if (std::isfinite(restored->dropped_bound)) {
      // A forfeited proof stays forfeited: the dropped subtrees' bound
      // folds back into this run's final reduction.
      ctx.dropped_bound = restored->dropped_bound;
      ctx.exhausted = false;
    }
    for (const CheckpointPseudocost& p : restored->pseudocosts)
      ctx.pseudocosts->restore(p);
  }
  ctx.pool_applied.store(pool.applied().size());
  if (ctx.cut_pool != nullptr) ctx.update_cut_pool_bytes(pool.approx_bytes());
  if (!ctx.root_rc_valid) {
    ctx.rc_lb = ctx.root_lb;
    ctx.rc_ub = ctx.root_ub;
  }
}

/// Search stage: the workers run until the pool drains or a limit trips.
/// With periodic checkpointing, a dedicated writer thread snapshots the
/// live search every checkpoint_interval_seconds alongside them.
void search(SearchContext& ctx, const Model& reduced,
            std::uint64_t fingerprint, Stats& stats) {
  const Options& opt = *ctx.options;
  const bool periodic =
      !opt.checkpoint_path.empty() && opt.checkpoint_interval_seconds > 0.0;
  std::thread writer;
  std::mutex writer_mutex;
  std::condition_variable writer_cv;
  bool writer_stop = false;
  if (periodic) {
    ctx.track_current = true;
    ctx.current_nodes.assign(static_cast<std::size_t>(ctx.num_workers),
                             std::nullopt);
    // Until the join below only this thread touches the checkpoint stats.
    writer = std::thread([&] {
      std::unique_lock<std::mutex> lock(writer_mutex);
      const auto interval =
          std::chrono::duration<double>(opt.checkpoint_interval_seconds);
      while (!writer_cv.wait_for(lock, interval, [&] { return writer_stop; }))
        write_checkpoint(ctx, fingerprint, stats);
    });
  }

  if (ctx.num_workers == 1) {
    run_worker(ctx, reduced);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(ctx.num_workers);
    for (int t = 0; t < ctx.num_workers; ++t)
      threads.emplace_back([&ctx, &reduced] { run_worker(ctx, reduced); });
    for (std::thread& t : threads) t.join();
  }
  if (periodic) {
    {
      std::lock_guard<std::mutex> lock(writer_mutex);
      writer_stop = true;
    }
    writer_cv.notify_all();
    writer.join();
  }
  if (ctx.failure) std::rethrow_exception(ctx.failure);
}

/// Honest termination statuses: a deadline, cancellation or memory-budget
/// stop is reported as itself (with or without an incumbent; see
/// Solution::has_solution). Any other stop keeps `fallback` — a node-limit
/// stop keeps the legacy kFeasible / kNoSolutionFound mapping.
SolveStatus limit_status(util::StopReason reason, SolveStatus fallback) {
  switch (reason) {
    case util::StopReason::kTimeLimit: return SolveStatus::kTimeLimit;
    case util::StopReason::kCancelled: return SolveStatus::kCancelled;
    case util::StopReason::kMemoryLimit: return SolveStatus::kMemoryLimit;
    default: return fallback;
  }
}

/// Reduce stage, single-threaded on the joined workers' state: folds their
/// counters into the stats, persists or removes the checkpoint, tears the
/// memory accounting down and decides the status.
void reduce(SearchContext& ctx, const SolveCheckpoint* restored,
            std::uint64_t fingerprint, Solution& sol) {
  const Options& opt = *ctx.options;
  Stats& stats = sol.stats;
  stats.nodes = ctx.nodes.load();
  stats.lp_iterations = ctx.lp_iterations.load();
  stats.dropped_nodes = ctx.dropped_nodes.load();
  stats.termination = ctx.controller->reason();
  stats.shed_cuts = ctx.shed_cuts.load();
  stats.shed_diving = ctx.shed_diving.load();
  stats.peak_memory_bytes = ctx.controller->peak_memory();
  stats.seconds = ctx.watch.seconds();
  stats.lp_scaling_active = ctx.lp_scaling_active;
  stats.lp_refactorizations = ctx.lp_stats.refactorizations;
  stats.lp_pivot_rejections = ctx.lp_stats.pivot_rejections;
  stats.lp_fill_ratio = ctx.lp_stats.fill_ratio();
  stats.lp_primal_phase1_iterations =
      ctx.lp_stats.primal_phase1_iterations;
  stats.lp_primal_phase2_iterations =
      ctx.lp_stats.primal_phase2_iterations;
  stats.lp_dual_iterations = ctx.lp_stats.dual_iterations;
  stats.lp_dual_solves =
      ctx.lp_stats.dual_solves - ctx.root_dual_solves.load();
  stats.lp_dual_fallbacks =
      ctx.lp_stats.dual_fallbacks - ctx.root_dual_fallbacks.load();
  stats.lp_bound_flips =
      ctx.lp_stats.bound_flips + ctx.lp_stats.dual_bound_flips;
  stats.lp_rows_deleted = ctx.lp_stats.rows_deleted;
  stats.lp_peak_rows = ctx.lp_stats.peak_rows;
  stats.lp_devex_resets = ctx.lp_stats.devex_resets;
  stats.lp_perturbation_cleanup_pivots =
      ctx.lp_stats.perturbation_cleanup_pivots;
  stats.lp_cutoff_stops = ctx.lp_stats.cutoff_stops;
  stats.lp_rays_certified = ctx.lp_stats.rays_certified;
  stats.lp_recovery_refactorize = ctx.lp_stats.recovery_refactorize;
  stats.lp_recovery_tighten = ctx.lp_stats.recovery_tighten;
  stats.lp_recovery_cold = ctx.lp_stats.recovery_cold;
  stats.lp_recovery_exhausted = ctx.lp_stats.recovery_exhausted;
  stats.lp_aborted_solves = ctx.lp_stats.aborted_solves;
  stats.lp_refactor_update_cap = ctx.lp_stats.refactor_update_cap;
  stats.lp_refactor_u_growth = ctx.lp_stats.refactor_u_growth;
  stats.lp_refactor_stability = ctx.lp_stats.refactor_stability;
  stats.lp_refactor_delete_rows = ctx.lp_stats.refactor_delete_rows;
  stats.lp_refactor_certify = ctx.lp_stats.refactor_certify;
  stats.lp_refactor_dual_ray = ctx.lp_stats.refactor_dual_ray;
  stats.lp_refactor_refresh = ctx.lp_stats.refactor_refresh;
  stats.lp_refactor_set_basis = ctx.lp_stats.refactor_set_basis;
  stats.lp_set_basis_cached = ctx.lp_stats.set_basis_cached;
  stats.cuts_clique_separated = ctx.clique_separated.load();
  stats.cuts_cover_separated = ctx.cover_separated.load();
  if (ctx.cut_pool != nullptr) {
    for (const Cut& c : ctx.cut_pool->applied()) {
      switch (c.cut_class) {
        case CutClass::kClique: ++stats.cuts_clique_applied; break;
        case CutClass::kCover: ++stats.cuts_cover_applied; break;
      }
    }
    stats.cuts_aged_out = ctx.cut_pool->aged_out();
  }
  stats.rc_fixed_incumbent = ctx.rc_fixed_incumbent;

  // Final checkpoint: any early stop persists the complete frontier —
  // take() returned every worker's local node to the pool before exit, so
  // the post-join pool IS the set of unexplored regions. A natural
  // completion instead removes a leftover snapshot: resuming from it would
  // redo work the finished proof already covers.
  if (!opt.checkpoint_path.empty() && !ctx.root_unbounded.load()) {
    if (stats.termination != util::StopReason::kNone)
      write_checkpoint(ctx, fingerprint, stats);
    else
      std::remove(opt.checkpoint_path.c_str());
  }

  // End-of-solve accounting teardown: release the open nodes and zero the
  // cut-pool gauge (workers already released their LP cut rows when they
  // retired). Whatever remains accounted is a reserve/release imbalance —
  // reported in the stats instead of silently leaked.
  for (const Node& open : ctx.pool) ctx.controller->release(node_bytes(open));
  if (ctx.cut_pool != nullptr) ctx.update_cut_pool_bytes(0);
  stats.memory_unreleased_bytes = ctx.controller->memory_used();

  if (ctx.root_unbounded.load()) {
    sol.status = SolveStatus::kUnbounded;
    return;
  }

  const bool exhausted = ctx.exhausted.load();
  const double cutoff = ctx.cutoff.load();

  // Final bound: min over open nodes, dropped nodes and, if exhausted, the
  // incumbent.
  double best_bound = exhausted ? cutoff : lp::kInfinity;
  for (const Node& open : ctx.pool)
    best_bound = std::min(best_bound, open.parent_bound);
  best_bound = std::min(best_bound, ctx.dropped_bound);
  if (ctx.pool.empty() && exhausted) best_bound = cutoff;
  stats.best_bound = best_bound;

  if (!ctx.incumbent.empty()) {
    sol.values = std::move(ctx.incumbent);
    sol.objective = cutoff;
    const bool proven = exhausted ||
                        (std::isfinite(best_bound) &&
                         (ctx.integral_obj ? best_bound >= cutoff - 0.5
                                           : best_bound >= cutoff - kBoundEps));
    sol.status = proven ? SolveStatus::kOptimal
                        : limit_status(stats.termination,
                                       SolveStatus::kFeasible);
    if (sol.status == SolveStatus::kOptimal) stats.best_bound = cutoff;
  } else if (exhausted && !std::isfinite(opt.initial_cutoff) &&
             !(restored != nullptr && std::isfinite(restored->cutoff))) {
    // A restored finite cutoff without an incumbent means the interrupted
    // run was itself seeded — regions at or above that seed were pruned,
    // so "no solution below the seed" is the strongest honest claim.
    sol.status = SolveStatus::kInfeasible;
  } else {
    // Either a limit was hit, or a seeded cutoff pruned everything (the
    // problem may still be feasible at or above the seed).
    sol.status =
        limit_status(stats.termination, SolveStatus::kNoSolutionFound);
  }
}

/// Audit stage (ON by default): no proof leaves the solver unbacked.
///  (a) The incumbent is re-verified against the ORIGINAL pre-presolve
///      model (presolve/probing/fixing all preserve variable indices, so
///      the mapping is the identity). A failing incumbent is DROPPED — an
///      infeasible "solution" is never handed out.
///  (b) The root dual bound is recomputed on a FRESH factorization of the
///      final root LP (cuts + globally valid fixings as the search left
///      them), so LU-update drift cannot survive into the reported
///      certificate. A recomputed bound that comes in BELOW the recorded
///      root bound means the root certificate was corrupted: a kOptimal
///      claim resting on it is downgraded to kFeasible.
void audit(const SearchContext& ctx, const Model& original, Root& root,
           Solution& sol) {
  const double audit_start = ctx.watch.seconds();
  sol.stats.audit_ran = true;
  bool incumbent_dropped = false;
  if (!sol.values.empty()) {
    const double viol = original.max_violation(sol.values, true);
    const double audit_obj = original.objective_value(sol.values);
    sol.stats.audit_max_violation = viol;
    if (viol <= 10 * kActivityEps &&
        std::abs(audit_obj - sol.objective) <=
            1e-6 * std::max(1.0, std::abs(audit_obj))) {
      sol.stats.audit_incumbent_ok = true;
      sol.objective = audit_obj;  // report the re-verified objective
    } else {
      util::log_warn() << "exit audit: incumbent failed re-verification "
                          "(violation "
                       << viol << ", objective " << audit_obj << " vs "
                       << sol.objective << "); solution dropped";
      sol.values.clear();
      sol.objective = lp::kInfinity;
      incumbent_dropped = true;
      sol.stats.audit_downgraded = true;
      sol.status =
          limit_status(sol.stats.termination, SolveStatus::kNoSolutionFound);
      sol.stats.best_bound = -lp::kInfinity;  // claims rested on the drop
    }
  }
  // (b) Certified root bound. Skipped when the incumbent was dropped:
  // the reduced model's incumbent-driven rc fixings were conditioned on
  // it, so its root LP certifies nothing about the original model.
  if (!incumbent_dropped) {
    SimplexSolver& audit_lp = *root.solver;
    audit_lp.set_controller(nullptr);  // the audit itself always finishes
    audit_lp.set_max_iterations(lp::SimplexOptions{}.max_iterations);
    // Booked here: the worker stats were folded before the audit ran.
    ++sol.stats.lp_refactor_refresh;
    if (audit_lp.refresh_factorization()) ++sol.stats.lp_refactorizations;
    const LpResult alp = audit_lp.solve();
    sol.stats.audit_lp_iterations = alp.iterations;
    const double recorded = sol.stats.root_cut_bound;
    // Integral bounds are ceil'ed integers: any disagreement is a whole
    // unit. Continuous bounds get a relative drift tolerance.
    const double drift_tol =
        ctx.integral_obj ? 0.5
                         : std::max(1e-6, 1e-9 * std::abs(recorded));
    if (alp.status == LpStatus::kOptimal) {
      const double cert = ctx.node_bound(alp.objective);
      sol.stats.audit_root_bound = cert;
      if (std::isfinite(recorded) && cert < recorded - drift_tol) {
        // Fresh factors disagree with the bound the search pruned with.
        util::log_warn() << "exit audit: recomputed root bound " << cert
                         << " below recorded " << recorded
                         << "; optimality proof not certified";
        if (sol.status == SolveStatus::kOptimal) {
          sol.status = SolveStatus::kFeasible;
          sol.stats.audit_downgraded = true;
        }
        sol.stats.best_bound = std::min(sol.stats.best_bound, cert);
      } else {
        sol.stats.audit_bound_ok = true;
        // The certified bound can only strengthen a non-proven claim.
        if (sol.status != SolveStatus::kOptimal) {
          const double glob =
              sol.values.empty() ? cert : std::min(sol.objective, cert);
          sol.stats.best_bound =
              std::isfinite(sol.stats.best_bound)
                  ? std::max(sol.stats.best_bound, glob)
                  : glob;
        }
      }
    } else if (sol.status == SolveStatus::kOptimal) {
      // The audit could not recompute the bound at all (numerical wall):
      // the proof is unbacked — downgrade rather than overclaim.
      util::log_warn() << "exit audit: root LP re-solve failed (status "
                       << static_cast<int>(alp.status)
                       << "); optimality claim downgraded";
      sol.status = SolveStatus::kFeasible;
      sol.stats.audit_downgraded = true;
    }
  }
  sol.stats.audit_seconds = ctx.watch.seconds() - audit_start;
  sol.stats.seconds = ctx.watch.seconds();
}

/// The fraction of the root gap (final objective - first root LP bound)
/// that the root cut loop closed; 0 without an incumbent.
double root_gap_closed(const Solution& sol) {
  const Stats& s = sol.stats;
  if (!sol.has_solution() || !std::isfinite(s.root_lp_bound) ||
      !std::isfinite(s.root_cut_bound) ||
      sol.objective - s.root_lp_bound <= kIntEps)
    return 0.0;
  return std::clamp((s.root_cut_bound - s.root_lp_bound) /
                        (sol.objective - s.root_lp_bound),
                    0.0, 1.0);
}
}  // namespace

Solver::Solver(Options options) : options_(std::move(options)) {}

Solution Solver::solve_impl(const Model& input,
                            const SolveCheckpoint* snapshot) const {
  Solution sol;
  SearchContext ctx;
  ctx.options = &options_;
  // One controller governs every phase of this solve: the deadline, the
  // node budget, the memory budget, and the caller's cancel flag are all
  // checked from the same latch, so the first reason to stop wins and is
  // reported unchanged as the termination status.
  util::SolveController controller;
  controller.set_deadline(options_.time_limit_seconds);
  controller.set_node_budget(options_.node_limit);
  controller.set_memory_budget(options_.memory_limit_bytes);
  controller.set_cancel_flag(options_.cancel_flag);
  ctx.controller = &controller;
  const auto stop = [&](SolveStatus status) {
    sol.status = status;
    sol.stats.seconds = ctx.watch.seconds();
    return sol;
  };
  double mark = 0.0;
  const auto lap = [&] {  // seconds since the previous stage boundary
    const double now = ctx.watch.seconds();
    const double phase = now - mark;
    mark = now;
    return phase;
  };

  Input in;
  if (const Exit exit = sanitize(options_, input, snapshot, in, sol.stats))
    return stop(*exit);
  Presolved pre;
  if (const Exit exit = presolve_stage(options_, in.model, pre, sol.stats))
    return stop(*exit);
  seed_search(ctx, pre, in.restored);
  sol.stats.presolve_seconds = lap();

  CutPool pool(std::max(kMaxPoolCuts, options_.max_cuts_per_round));
  Root root;
  if (const Exit exit = root_stage(ctx, pre.reduced, pool, root, sol.stats))
    return stop(*exit);
  sol.stats.root_cut_seconds = lap();

  PseudocostStore pseudocosts(pre.model.num_variables());
  ctx.pseudocosts = &pseudocosts;
  if (const Exit exit =
          strong_branch(ctx, pre.reduced, root, in.restored, sol.stats))
    return stop(*exit);
  sol.stats.strong_branch_seconds = lap();

  restore(ctx, pre.reduced, pool, in.restored, root.bound);
  ctx.num_workers = resolve_num_threads(options_.num_threads);
  sol.stats.threads = ctx.num_workers;
  search(ctx, pre.reduced, in.fingerprint, sol.stats);
  sol.stats.search_seconds = lap();

  reduce(ctx, in.restored, in.fingerprint, sol);
  if (options_.exit_audit && sol.status != SolveStatus::kUnbounded)
    audit(ctx, in.model, root, sol);
  sol.stats.root_gap_closed = root_gap_closed(sol);
  return sol;
}

Solution Solver::solve(const Model& original) const {
  if (options_.resume_path.empty()) return solve_impl(original, nullptr);
  std::optional<SolveCheckpoint> ck = load_checkpoint(options_.resume_path);
  if (ck) return solve_impl(original, &*ck);
  // Distinguish "no snapshot yet" (a fresh job: plain cold start) from a
  // present-but-unreadable file (torn write, truncation, corruption):
  // only the latter counts as a rejected resume.
  bool existed = false;
  if (std::FILE* f = std::fopen(options_.resume_path.c_str(), "rb")) {
    std::fclose(f);
    existed = true;
    util::log_warn() << "resume: snapshot " << options_.resume_path
                     << " unreadable (bad frame or checksum); cold start";
  }
  Solution sol = solve_impl(original, nullptr);
  if (existed) ++sol.stats.resume_rejected;
  return sol;
}

Solution Solver::resume(const Model& original,
                        const SolveCheckpoint& snapshot) const {
  return solve_impl(original, &snapshot);
}

}  // namespace advbist::ilp
