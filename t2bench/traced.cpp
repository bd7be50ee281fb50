#include "traced.hpp"

#include <optional>
#include <stdexcept>

#include "baselines/baselines.hpp"
#include "bist/bist_design.hpp"
#include "core/formulation.hpp"

namespace t2bench {

namespace baselines = advbist::baselines;
namespace bist = advbist::bist;

TracedJob run_job_traced(const Workload& workload, const Job& job,
                         const std::string& dfg_text, Trace& trace,
                         int job_id) {
  TracedJob out;
  JobResult& result = out.result;
  const core::SynthesizerOptions opt = synth_options(workload);
  const Scope job_span(trace, "job", job_id);
  const double job_start = trace.now();
  try {
    {
      const Scope s(trace, "hls.parse", job_id);
      out.design = std::make_unique<hls::ParsedDesign>(
          hls::parse_dfg_text(dfg_text));
    }
    const hls::ParsedDesign& design = *out.design;

    // Synthesizer::synthesize_reference / synthesize_bist.
    core::FormulationOptions fo;
    fo.include_bist = job.k > 0;
    fo.k = job.k > 0 ? job.k : 1;
    fo.num_registers = opt.num_registers;
    fo.symmetry_reduction = opt.symmetry_reduction;
    fo.commutative_swaps = opt.commutative_swaps;
    fo.cost = opt.cost;
    {
      const Scope s(trace, "core.formulation", job_id);
      out.formulation = std::make_unique<core::Formulation>(
          design.dfg, design.modules, fo);
    }
    const core::Formulation& formulation = *out.formulation;

    // Synthesizer::run: seed the cutoff with the cheapest baseline design
    // that fits the formulation's register budget.
    ilp::Options so = opt.solver;
    so.branch_priority = formulation.branch_priorities();
    std::optional<baselines::BaselineResult> seed;
    std::vector<int> baseline_areas;
    if (job.k > 0) {
      for (const char* method : kBaselineMethods) {
        const Scope s(trace, std::string("baselines.") + method, job_id);
        try {
          baselines::BaselineResult candidate = baselines::run_baseline(
              method, design.dfg, design.modules, job.k, opt.cost);
          baseline_areas.push_back(candidate.area.total());
          if (candidate.registers.num_registers() !=
              formulation.num_registers())
            continue;
          if (!seed || candidate.area.total() < seed->area.total())
            seed = std::move(candidate);
        } catch (const std::exception&) {
          baseline_areas.push_back(-1);
        }
      }
      if (seed) {
        out.cutoff_area = seed->area.total();
        const bist::AreaBreakdown& a = seed->area;
        so.initial_cutoff = a.total() - formulation.objective_offset() -
                            a.constant_tpg_transistors +
                            static_cast<double>(a.constant_tpgs) *
                                opt.cost.constant_tpg_penalty();
      }
    }

    ilp::Solution solution;
    {
      const Scope s(trace, "ilp.solve", job_id);
      const double start = trace.now();
      solution = ilp::Solver(so).solve(formulation.model());
      // The solver's own phase clocks, laid end to end in phase order.
      double t = start;
      const ilp::Stats& st = solution.stats;
      for (const auto& [name, seconds] :
           {std::pair{"ilp.presolve", st.presolve_seconds},
            {"ilp.root_cut", st.root_cut_seconds},
            {"ilp.strong_branch", st.strong_branch_seconds},
            {"ilp.search", st.search_seconds},
            {"ilp.audit", st.audit_seconds}}) {
        trace.add(name, t, t + seconds, job_id);
        t += seconds;
      }
    }
    result.status = solution.status;
    result.stats = solution.stats;
    result.best_bound =
        solution.stats.best_bound + formulation.objective_offset();

    // core.decode covers building the returned design either way.
    core::DecodedDesign decoded;
    {
      const Scope s(trace, "core.decode", job_id);
      if (solution.has_solution()) {
        result.objective =
            solution.objective + formulation.objective_offset();
        decoded = formulation.decode(solution);
      } else if (seed) {
        // The seed design stands: proven optimal by the exhausted search,
        // or the fallback of a limited one.
        const bool hit_limit =
            solution.stats.termination != advbist::util::StopReason::kNone;
        result.status = hit_limit ? ilp::SolveStatus::kFeasible
                                  : ilp::SolveStatus::kOptimal;
        result.objective = seed->area.total();
        decoded.registers = seed->registers;
        decoded.ports = seed->ports;
        decoded.bist = seed->bist;
        decoded.datapath = seed->datapath;
        decoded.area = seed->area;
      } else {
        throw std::runtime_error("synthesis failed: " +
                                 ilp::to_string(solution.status));
      }
    }
    result.area = decoded.area.total();
    result.seconds = trace.now() - job_start;
    const Scope s(trace, "bist.validate", job_id);
    check_job(workload, job, decoded, baseline_areas, result);
  } catch (const std::exception& e) {
    result.seconds = trace.now() - job_start;
    result.ok = false;
    result.error = std::string("threw: ") + e.what();
  }
  return out;
}

}  // namespace t2bench
