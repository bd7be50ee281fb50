// ADVBIST synthesis driver: reference (non-BIST) synthesis plus one optimal
// BIST design per k-test session, exactly the experiment loop behind the
// paper's Tables 2 and 3.
#pragma once

#include <optional>
#include <vector>

#include "core/formulation.hpp"
#include "hls/benchmarks.hpp"
#include "ilp/solver.hpp"

namespace advbist::core {

struct SynthesisResult {
  DecodedDesign design;
  ilp::SolveStatus status = ilp::SolveStatus::kNoSolutionFound;
  double objective = 0.0;     ///< ILP objective + offset (transistors)
  double best_bound = 0.0;    ///< proven lower bound (+ offset)
  /// The formulation's constant objective term (the register area): add
  /// it to a bound in solver_stats to read it in transistors.
  double objective_offset = 0.0;
  double seconds = 0.0;
  long long nodes = 0;
  bool hit_limit = false;     ///< the paper's "*" marker (time/node limit)
  /// Full branch & bound counters (LP iterations, factorization/fill stats).
  ilp::Stats solver_stats;
  /// True when the ILP hit its limit before any incumbent and the result is
  /// the seeding heuristic's design instead.
  bool from_heuristic_fallback = false;
  /// False for a "no design within the limit" result: the ILP hit its
  /// limit before any incumbent and no fitting baseline could stand in
  /// (the reference never has one). `design` is then empty, `objective` 0,
  /// and `best_bound` the proven lower bound.
  bool has_design = false;

  [[nodiscard]] bool is_optimal() const {
    return status == ilp::SolveStatus::kOptimal;
  }
};

struct SynthesizerOptions {
  /// Time/node limits, branch & bound threads (solver.num_threads) etc.
  /// Every synthesis call runs its ILP with these settings.
  ilp::Options solver;
  bist::CostModel cost = bist::CostModel::paper_8bit();
  bool symmetry_reduction = true;
  bool commutative_swaps = true;
  int num_registers = -1;         ///< -1: minimum (max crossing)
  /// Seed the branch & bound with the best baseline heuristic's cost as an
  /// upper bound (prunes aggressively; the optimum is never cut off).
  bool seed_with_baselines = true;
};

class Synthesizer {
 public:
  Synthesizer(const hls::Dfg& dfg, const hls::ModuleAllocation& alloc,
              SynthesizerOptions options = {});

  /// Area-optimal plain datapath (the paper's reference circuit).
  [[nodiscard]] SynthesisResult synthesize_reference() const;

  /// Area-optimal BIST datapath for a k-test session.
  [[nodiscard]] SynthesisResult synthesize_bist(int k) const;

  /// The full Table-2 row set: k = 1..N (N = number of modules).
  [[nodiscard]] std::vector<SynthesisResult> synthesize_all_sessions() const;

 private:
  /// The formulation options both entry points share; the caller sets
  /// include_bist and k.
  [[nodiscard]] FormulationOptions formulation_options() const;
  [[nodiscard]] SynthesisResult run(const Formulation& formulation,
                                    int k_for_seed) const;

  const hls::Dfg& dfg_;
  const hls::ModuleAllocation& alloc_;
  SynthesizerOptions opt_;
};

}  // namespace advbist::core
