// Ablation B: the paper's core claim — performing system register, BIST
// register and interconnection assignment CONCURRENTLY beats the sequential
// flow (register assignment first, BIST retrofitted onto the fixed
// allocation). The sequential flow here fixes x[v][r] to the area-optimal
// reference assignment and lets the ILP do only BIST + interconnect.
#include <cstdio>

#include "bench_common.hpp"
#include "bist/bist_design.hpp"
#include "core/formulation.hpp"
#include "ilp/solver.hpp"

int main() {
  using namespace advbist;
  std::printf("Ablation B: concurrent vs sequential assignment (k = max)\n\n");
  util::TextTable table;
  table.add_row({"Ckt", "concurrent", "sequential", "penalty(%)"});
  for (const hls::Benchmark& b : bench::selected_benchmarks()) {
    const int k = b.modules.num_modules();
    const core::Synthesizer synth(b.dfg, b.modules,
                                  bench::default_synth_options());
    const core::SynthesisResult concurrent = synth.synthesize_bist(k);

    // Sequential: pin registers to the reference-optimal assignment.
    const core::SynthesisResult ref = synth.synthesize_reference();
    core::FormulationOptions fo;
    fo.include_bist = true;
    fo.k = k;
    fo.fix_registers = &ref.design.registers;
    const core::Formulation seq_form(b.dfg, b.modules, fo);
    ilp::Options so = bench::solver_options();
    so.branch_priority = seq_form.branch_priorities();
    const ilp::Solution seq_sol = ilp::Solver(so).solve(seq_form.model());
    if (!seq_sol.has_solution()) {
      table.add_row({b.dfg.name(),
                     std::to_string(concurrent.design.area.total()),
                     "infeasible", "-"});
      continue;
    }
    const core::DecodedDesign seq = seq_form.decode(seq_sol);
    const double penalty = 100.0 *
                           (seq.area.total() - concurrent.design.area.total()) /
                           concurrent.design.area.total();
    table.add_row({b.dfg.name(),
                   bench::overhead_cell(concurrent.design.area.total(),
                                        concurrent.hit_limit),
                   std::to_string(seq.area.total()),
                   util::format_fixed(penalty, 1)});
    std::fflush(stdout);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "A positive penalty means the sequential flow pays extra area — the\n"
      "quantified value of the paper's concurrent ILP. A NEGATIVE penalty\n"
      "can only appear when the concurrent solve is budget-limited ('*'):\n"
      "the pinned sequential ILP is far smaller and solves to optimality\n"
      "within ITS restricted space first. With proven-optimal concurrent\n"
      "solves the penalty is never negative (asserted in\n"
      "Synthesizer.SequentialFlowNeverBeatsConcurrent); raise\n"
      "the time limit (ADVBIST_BENCH_OPTS=time=S) to see it.\n");
  return 0;
}
