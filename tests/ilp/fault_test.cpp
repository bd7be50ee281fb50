// Fault-injection and solve-lifecycle hardening tests.
//
// A deterministic FaultInjector schedule forces factorization failures,
// perturbed LU-update diagonals, refused node/cut allocations and
// spontaneous cancellations into real solves of the paper's fig1/tseng
// formulations. Under EVERY schedule the contract is the same:
//   * no crash (the CI fault job additionally runs this file under
//     ASan/UBSan),
//   * any returned incumbent is feasible for the ORIGINAL model and never
//     better than the clean proven optimum,
//   * kOptimal is never returned without an audit-verified certificate,
//   * the reported best_bound stays a valid lower bound.
//
// The deadline tests pin the hardened termination path: a solve given a
// short deadline returns promptly with an honest kTimeLimit status for any
// thread count, and a pre-flipped cancel flag (the SIGINT path) returns
// kCancelled.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <vector>

#include "core/formulation.hpp"
#include "hls/benchmarks.hpp"
#include "ilp/solver.hpp"
#include "lp/model.hpp"
#include "util/fault_injector.hpp"
#include "util/solve_controller.hpp"
#include "util/stopwatch.hpp"

namespace advbist::ilp {
namespace {

/// RAII guard so a test's injector never leaks into later tests.
class ScopedInjector {
 public:
  explicit ScopedInjector(util::FaultInjector* fi) {
    util::FaultInjector::install(fi);
  }
  ~ScopedInjector() { util::FaultInjector::install(nullptr); }
};

struct Instance {
  lp::Model model;
  std::vector<int> priority;
};

Instance bist_instance(const char* name) {
  const hls::Benchmark bench = hls::benchmark_by_name(name);
  core::FormulationOptions fo;
  fo.include_bist = true;
  fo.k = 2;
  const core::Formulation f(bench.dfg, bench.modules, fo);
  return Instance{f.model(), f.branch_priorities()};
}

/// The clean proven optimum of an instance (no faults, no limits): the
/// reference every faulted run is checked against.
double clean_optimum(const Instance& inst) {
  Options opt;
  opt.branch_priority = inst.priority;
  const Solution s = Solver(opt).solve(inst.model);
  EXPECT_EQ(s.status, SolveStatus::kOptimal);
  return s.objective;
}

/// The invariants every solve must satisfy regardless of injected faults.
void expect_contract(const Instance& inst, const Solution& s,
                     double optimum) {
  // Statuses must come from the honest set.
  switch (s.status) {
    case SolveStatus::kOptimal:
    case SolveStatus::kFeasible:
    case SolveStatus::kInfeasible:
    case SolveStatus::kNoSolutionFound:
    case SolveStatus::kTimeLimit:
    case SolveStatus::kCancelled:
    case SolveStatus::kMemoryLimit:
      break;
    default:
      FAIL() << "unexpected status " << to_string(s.status);
  }
  // These instances are feasible: an infeasibility claim would be a lie.
  EXPECT_NE(s.status, SolveStatus::kInfeasible);
  if (!s.values.empty()) {
    // Any incumbent handed out must satisfy the ORIGINAL model and cannot
    // beat the true optimum.
    EXPECT_LE(inst.model.max_violation(s.values, true), 1e-6);
    EXPECT_NEAR(inst.model.objective_value(s.values), s.objective,
                1e-6 * std::max(1.0, std::abs(s.objective)));
    EXPECT_GE(s.objective, optimum - 1e-6);
  }
  if (s.status == SolveStatus::kOptimal) {
    // Never kOptimal without an audit-verified certificate.
    EXPECT_TRUE(s.stats.audit_ran);
    EXPECT_TRUE(s.stats.audit_incumbent_ok);
    EXPECT_TRUE(s.stats.audit_bound_ok);
    EXPECT_FALSE(s.stats.audit_downgraded);
    EXPECT_NEAR(s.objective, optimum, 1e-6);
  }
  // The reported dual bound must stay a valid lower bound on the optimum.
  if (std::isfinite(s.stats.best_bound))
    EXPECT_LE(s.stats.best_bound, optimum + 1e-6);
}

TEST(FaultInjection, EveryScheduleKeepsTheSolveContractOnFig1) {
  const Instance inst = bist_instance("fig1");
  const double optimum = clean_optimum(inst);

  struct Schedule {
    util::FaultSite site;
    std::uint32_t period;
    double deadline;  // 0 = run to completion
  };
  const Schedule schedules[] = {
      {util::FaultSite::kFactorSingular, 3, 0.0},
      {util::FaultSite::kFactorSingular, 7, 0.0},
      {util::FaultSite::kEtaPerturb, 5, 0.0},
      // Perturbing every other update is a torture schedule: the solver spends
      // its time re-certifying conclusions and cold-restarting genuinely
      // singular bases, so completing the proof is not the point — staying
      // honest under sustained corruption within a bounded run is.
      {util::FaultSite::kEtaPerturb, 2, 5.0},
      {util::FaultSite::kNodeAlloc, 4, 0.0},
      {util::FaultSite::kCutAlloc, 2, 0.0},
      {util::FaultSite::kCancel, 50, 0.0},
  };
  for (const Schedule& sched : schedules) {
    for (const std::uint64_t seed : {1ull, 42ull}) {
      util::FaultInjector fi(seed);
      fi.set_period(sched.site, sched.period);
      ScopedInjector guard(&fi);
      Options opt;
      opt.branch_priority = inst.priority;
      if (sched.deadline > 0.0) opt.time_limit_seconds = sched.deadline;
      const Solution s = Solver(opt).solve(inst.model);
      SCOPED_TRACE(std::string("site ") + util::to_string(sched.site) +
                   " period " + std::to_string(sched.period) + " seed " +
                   std::to_string(seed));
      expect_contract(inst, s, optimum);
      // A perturbed update diagonal fails the Forrest–Tomlin stability
      // check, and the recovery ladder refactorizes the basis.
      if (sched.site == util::FaultSite::kEtaPerturb &&
          fi.fired(sched.site) > 0)
        EXPECT_GT(s.stats.lp_recovery_refactorize, 0);
      if (sched.site == util::FaultSite::kCancel && fi.fired(sched.site) > 0)
        EXPECT_TRUE(s.status == SolveStatus::kCancelled ||
                    s.status == SolveStatus::kOptimal);
    }
  }
}

TEST(FaultInjection, ForcedSingularFactorizationsClimbTheRecoveryLadder) {
  const Instance inst = bist_instance("fig1");
  const double optimum = clean_optimum(inst);
  util::FaultInjector fi(7);
  fi.set_period(util::FaultSite::kFactorSingular, 2);
  ScopedInjector guard(&fi);
  Options opt;
  opt.branch_priority = inst.priority;
  const Solution s = Solver(opt).solve(inst.model);
  expect_contract(inst, s, optimum);
  // The schedule fired (period 2 on every refactorization), so the ladder
  // must have run — and recovered without giving the proof up.
  EXPECT_GT(fi.fired(util::FaultSite::kFactorSingular), 0);
  EXPECT_GT(s.stats.lp_recovery_refactorize + s.stats.lp_recovery_tighten +
                s.stats.lp_recovery_cold,
            0);
}

TEST(FaultInjection, RefusedAllocationsForfeitTheProofHonestly) {
  const Instance inst = bist_instance("fig1");
  const double optimum = clean_optimum(inst);
  util::FaultInjector fi(11);
  fi.set_period(util::FaultSite::kNodeAlloc, 2);
  ScopedInjector guard(&fi);
  Options opt;
  opt.branch_priority = inst.priority;
  const Solution s = Solver(opt).solve(inst.model);
  expect_contract(inst, s, optimum);
  if (s.stats.dropped_nodes > 0 && s.status == SolveStatus::kOptimal) {
    // Dropped subtrees forfeit tree exhaustion; optimality may then only
    // be claimed through a bound-meets-incumbent proof, which the audit
    // re-certified (expect_contract checked audit_bound_ok above).
    EXPECT_TRUE(std::isfinite(s.stats.best_bound));
  }
}

TEST(SolveLifecycle, DeadlineIsHonoredAcrossThreadCountsOnPaulin) {
  const Instance inst = bist_instance("paulin");
  const double deadline = 0.05;
  for (const int threads : {1, 2, 4}) {
    Options opt;
    opt.branch_priority = inst.priority;
    opt.num_threads = threads;
    opt.time_limit_seconds = deadline;
    util::Stopwatch watch;
    const Solution s = Solver(opt).solve(inst.model);
    const double elapsed = watch.seconds();
    SCOPED_TRACE(threads);
    // paulin cannot be solved in 50ms: the deadline must trip and be
    // reported honestly. The generous wall-clock cap absorbs sanitizer
    // and loaded-CI slowdowns; the tight 2x acceptance bound is checked
    // in the Release benchmark runs.
    EXPECT_EQ(s.status, SolveStatus::kTimeLimit);
    EXPECT_EQ(s.stats.termination, util::StopReason::kTimeLimit);
    EXPECT_LT(elapsed, 2.0);
    if (!s.values.empty())
      EXPECT_LE(inst.model.max_violation(s.values, true), 1e-6);
    // The abandoned search still reports a valid finite lower bound taken
    // over every unexplored node (satellite: no bound is discarded).
    EXPECT_TRUE(std::isfinite(s.stats.best_bound));
  }
}

TEST(SolveLifecycle, PreFlippedCancelFlagReturnsCancelled) {
  const Instance inst = bist_instance("tseng");
  std::atomic<bool> cancel{true};  // as if SIGINT arrived immediately
  Options opt;
  opt.branch_priority = inst.priority;
  opt.cancel_flag = &cancel;
  util::Stopwatch watch;
  const Solution s = Solver(opt).solve(inst.model);
  EXPECT_EQ(s.status, SolveStatus::kCancelled);
  EXPECT_EQ(s.stats.termination, util::StopReason::kCancelled);
  EXPECT_LT(watch.seconds(), 5.0);
}

TEST(SolveLifecycle, NodeLimitFoldsUnexploredBoundsIntoBestBound) {
  const Instance inst = bist_instance("fig1");
  const double optimum = clean_optimum(inst);
  Options opt;
  opt.branch_priority = inst.priority;
  opt.node_limit = 5;
  const Solution s = Solver(opt).solve(inst.model);
  EXPECT_EQ(s.stats.termination, util::StopReason::kNodeLimit);
  // Legacy statuses are preserved for the node budget.
  EXPECT_TRUE(s.status == SolveStatus::kFeasible ||
              s.status == SolveStatus::kNoSolutionFound ||
              s.status == SolveStatus::kOptimal);
  EXPECT_TRUE(std::isfinite(s.stats.best_bound));
  EXPECT_LE(s.stats.best_bound, optimum + 1e-6);
}

TEST(SolveLifecycle, TinyMemoryBudgetStopsWithHonestStatus) {
  const Instance inst = bist_instance("fig1");
  const double optimum = clean_optimum(inst);
  Options opt;
  opt.branch_priority = inst.priority;
  opt.memory_limit_bytes = 1;  // trips at the first accounted node
  const Solution s = Solver(opt).solve(inst.model);
  expect_contract(inst, s, optimum);
  EXPECT_EQ(s.stats.termination, util::StopReason::kMemoryLimit);
  EXPECT_TRUE(s.status == SolveStatus::kMemoryLimit ||
              s.status == SolveStatus::kOptimal)
      << to_string(s.status);
  EXPECT_GT(s.stats.peak_memory_bytes, 0u);
}

TEST(SolveLifecycle, ShortDeadlineResultIsValidForEverySeedAndThreadCount) {
  // Deadline determinism in the sense the lifecycle can promise it: the
  // interrupted result is not bitwise-identical across thread counts (the
  // race decides which nodes were explored), but every (status, bound,
  // incumbent) triple must independently satisfy the solve contract.
  const Instance inst = bist_instance("tseng");
  const double optimum = clean_optimum(inst);
  for (const int threads : {1, 2, 4}) {
    Options opt;
    opt.branch_priority = inst.priority;
    opt.num_threads = threads;
    opt.time_limit_seconds = 0.02;
    const Solution s = Solver(opt).solve(inst.model);
    SCOPED_TRACE(threads);
    expect_contract(inst, s, optimum);
    EXPECT_TRUE(s.status == SolveStatus::kTimeLimit ||
                s.status == SolveStatus::kOptimal)
        << to_string(s.status);
  }
}

TEST(SolveLifecycle, ExitAuditVerifiesTheSerialOptimaOfThePaperInstances) {
  for (const char* name : {"fig1", "tseng"}) {
    const Instance inst = bist_instance(name);
    Options opt;
    opt.branch_priority = inst.priority;
    const Solution s = Solver(opt).solve(inst.model);
    SCOPED_TRACE(name);
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    EXPECT_TRUE(s.stats.audit_ran);
    EXPECT_TRUE(s.stats.audit_incumbent_ok);
    EXPECT_TRUE(s.stats.audit_bound_ok);
    EXPECT_FALSE(s.stats.audit_downgraded);
    EXPECT_LE(s.stats.audit_max_violation, 1e-6);
    // Audit cost must be a rounding error next to the search itself.
    EXPECT_LE(s.stats.audit_seconds, 0.5);
  }
}

TEST(SolveLifecycle, DisablingTheAuditSkipsIt) {
  const Instance inst = bist_instance("fig1");
  Options opt;
  opt.branch_priority = inst.priority;
  opt.exit_audit = false;
  const Solution s = Solver(opt).solve(inst.model);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_FALSE(s.stats.audit_ran);
  EXPECT_EQ(s.stats.audit_lp_iterations, 0);
}

}  // namespace
}  // namespace advbist::ilp
