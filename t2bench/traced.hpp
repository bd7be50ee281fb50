// The traced run: the same job as run_job, made from the public calls
// core::Synthesizer makes internally, each wrapped in a span; and the LP
// replay that times the simplex kernels on the job's own ILP model.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/formulation.hpp"
#include "lp/model.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace t2bench {

struct TracedJob {
  JobResult result;
  /// The parsed design and the formulation built on it (null when the job
  /// threw before building it); the LP replay runs on its model.
  std::unique_ptr<hls::ParsedDesign> design;
  std::unique_ptr<core::Formulation> formulation;
  /// Area of the baseline design that seeded the cutoff (-1: none).
  int cutoff_area = -1;
};

/// Parses `dfg_text`, builds the formulation, runs the baselines, solves and
/// decodes exactly as core::Synthesizer does, with one span per call and
/// the solver's phase clocks as child spans of the solve span. Checks the
/// output like run_job.
TracedJob run_job_traced(const Workload& workload, const Job& job,
                         const std::string& dfg_text, Trace& trace, int job_id);

/// Kernel timings collected by lp_replay, summed over jobs.
struct ReplayStats {
  std::vector<double> resolve_us;  ///< one per warm solve_dual() re-solve
  std::vector<double> refactor_us;
  std::vector<double> ftran_us;
  std::vector<double> btran_us;
  long long resolve_pivots = 0;
  double resolve_s = 0.0;
  double cold_solve_s = 0.0;
};

/// From outside the solver, on `model`: one cold SimplexSolver::solve, then
/// seeded dives of set_variable_bounds + solve_dual, timing a refresh of
/// the factorization and one FTRAN and one BTRAN on every fourth basis.
void lp_replay(const lp::Model& model, std::uint64_t seed, Trace& trace,
               int job_id, ReplayStats& out);

}  // namespace t2bench
