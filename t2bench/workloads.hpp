// Table-2 benchmark workloads: the job lists, the seeded input permutation
// and the output check every job must pass.
//
// A job is one `core::Synthesizer` call on one circuit: the reference
// synthesis (k = 0) or the BIST synthesis for k test sessions, exactly the
// calls `advbist sweep` makes. Its input is the built-in circuit written out
// with `hls::to_dfg_text`, with the `input`, `unit` and `op` lines shuffled
// by the seed, and read back with `hls::parse_dfg_text`: the same design,
// with the ILP's columns and rows in a different order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/synthesizer.hpp"
#include "hls/dfg_parser.hpp"

namespace t2bench {

namespace core = advbist::core;
namespace hls = advbist::hls;
namespace ilp = advbist::ilp;
namespace lp = advbist::lp;

struct Job {
  std::string circuit;
  int k = 0;  ///< test sessions; 0 = the reference (plain) synthesis
};

/// Every solve runs on one thread, under a 60 s cap that no job reaches.
struct Workload {
  std::string name;
  std::vector<Job> jobs;
  /// Node budget per solve (<0: none); 1 stops after the root node.
  long long node_limit = -1;
  /// Every job must end kOptimal, audit-verified, with the expected area.
  bool proof = false;
};

/// The named workload; throws std::invalid_argument for an unknown name.
Workload workload_by_name(const std::string& name);

/// The circuit's dfg text with its `input`, `unit` and `op` lines shuffled
/// by `perm_seed` (0 keeps the canonical order).
std::string permuted_dfg_text(const std::string& circuit,
                              std::uint64_t perm_seed);

/// Permutation seed of `circuit` in pass `pass` of a run at `seed`. Pass 0
/// of seed 0 is the canonical order; every other pair is a fresh shuffle.
std::uint64_t permutation_seed(std::uint64_t seed, int pass,
                               const std::string& circuit);

core::SynthesizerOptions synth_options(const Workload& workload);

/// Proven-optimal area of a job at HEAD (the reference areas of all seven
/// circuits, the BIST areas of the proof jobs), or -1 when none is pinned.
/// An optimum cannot depend on the line order, so it holds for every seed.
int expected_area(const Job& job);

/// What the benchmark keeps of one job.
struct JobResult {
  double seconds = 0.0;  ///< wall clock of the synthesis call
  bool ok = true;
  std::string error;  ///< the first check the job failed (empty when ok)
  int area = 0;
  double objective = 0.0;
  double best_bound = 0.0;
  ilp::SolveStatus status = ilp::SolveStatus::kNoSolutionFound;
  ilp::Stats stats;
};

/// Runs one job through `core::Synthesizer` and checks its output.
JobResult run_job(const Workload& workload, const Job& job,
                  const hls::ParsedDesign& design);

/// The baseline methods, in the order `core::Synthesizer` tries them.
inline constexpr const char* kBaselineMethods[] = {"ADVAN", "BITS", "RALLOC"};

/// Area of each baseline design that exists for this job (-1 where the
/// heuristic has none); parallel to kBaselineMethods.
std::vector<int> baseline_areas(const hls::ParsedDesign& design, int k);

/// The output check behind `failed`. A job fails when its datapath fails
/// the benchmark's own `bist::validate_bist_design`, its recomputed area
/// differs from the reported one, a baseline (ADVAN/BITS/RALLOC) beats it,
/// or — on the proof workloads — the solve did not end kOptimal with both
/// audit checks passed, or the area differs from `expected_area`. Records
/// the first failure in `result`.
void check_job(const Workload& workload, const Job& job,
               const core::DecodedDesign& decoded,
               const std::vector<int>& baselines, JobResult& result);

/// Mean area overhead (%) of the workload's BIST jobs over each circuit's
/// proven reference area; `results` is parallel to `workload.jobs`.
double mean_overhead_pct(const Workload& workload,
                         const std::vector<JobResult>& results);

}  // namespace t2bench
