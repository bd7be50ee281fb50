// Shared body of IlpSolver.CutoffStopsKeepEveryProof (1 thread) and
// ParallelSolver.CutoffStopsKeepEveryProof (2 threads): the Table-2 rows
// fig1, tseng and paulin at k = 1 and 2, solved through the synthesizer
// (baseline-seeded cutoff, branch priorities), must prove their pinned
// areas and pass the exit audit while node re-solves stop at the prune
// limit on certified bounds. A row proven at its root node has no node
// re-solve to stop, so the stop count is required of every row with more
// than one node and of all rows together.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "core/synthesizer.hpp"
#include "hls/benchmarks.hpp"

namespace advbist::ilp {

inline void expect_cutoff_stops_keep_every_proof(int threads) {
  struct Row {
    const char* circuit;
    int k;
    int area;
  };
  const Row rows[] = {{"fig1", 1, 1236},  {"fig1", 2, 1056},
                      {"tseng", 1, 2036}, {"tseng", 2, 1856},
                      {"paulin", 1, 2632}, {"paulin", 2, 2112}};
  long long stops = 0;
  for (const Row& row : rows) {
    SCOPED_TRACE(std::string(row.circuit) + " k=" + std::to_string(row.k));
    const hls::Benchmark b = hls::benchmark_by_name(row.circuit);
    core::SynthesizerOptions opt;
    opt.solver.time_limit_seconds = 120.0;
    opt.solver.num_threads = threads;
    const core::SynthesisResult r =
        core::Synthesizer(b.dfg, b.modules, opt).synthesize_bist(row.k);
    ASSERT_EQ(r.status, SolveStatus::kOptimal);
    EXPECT_EQ(r.design.area.total(), row.area);
    EXPECT_TRUE(r.solver_stats.audit_incumbent_ok);
    EXPECT_TRUE(r.solver_stats.audit_bound_ok);
    if (r.nodes > 1) EXPECT_GT(r.solver_stats.lp_cutoff_stops, 0);
    stops += r.solver_stats.lp_cutoff_stops;
  }
  EXPECT_GT(stops, 0);
}

}  // namespace advbist::ilp
