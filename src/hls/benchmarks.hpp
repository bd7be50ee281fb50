// The benchmark circuits of the paper's Section 4, plus the Fig. 1 running
// example.
//
// tseng and paulin are reconstructed from their classic published structure
// (Tseng/Siewiorek's example and the Paulin/HAL differential-equation
// solver). The four filters (fir6, iir3, dct4, wavelet6) were produced by
// HYPER in the paper; the exact netlists were never published, so we build
// DFGs for the same algorithms and schedule/bind them to match the shape
// parameters reported in Table 3: register count R and module count N
// (= the maximal number of test sessions).
//
// All schedules and bindings are fixed (deterministic), mirroring the
// paper's setup where "the six data flow graphs used in the experiment
// employed the same scheduling and the same module assignment for all four
// BIST systems".
#pragma once

#include <string>
#include <vector>

#include "hls/allocation.hpp"
#include "hls/dfg.hpp"

namespace advbist::hls {

struct Benchmark {
  Dfg dfg;
  ModuleAllocation modules;
  /// Paper-reported shape (Table 3) for validation & reporting.
  int paper_registers = 0;
  int paper_max_sessions = 0;
  int paper_ref_mux_inputs = 0;
  int paper_ref_area = 0;
};

/// Fig. 1: 4 operations, 8 variables, 3 registers, 2 modules.
Benchmark make_fig1();

/// Tseng/Siewiorek-style example: R=5, N=3 (add, sub, mul).
Benchmark make_tseng();
/// Paulin (HAL differential equation): R=5, N=4 (2 mul, sub-ALU, add-ALU).
Benchmark make_paulin();
/// 6th-order (7-tap) FIR filter: R=7, N=3 (2 mul, adder).
Benchmark make_fir6();
/// 3rd-order IIR filter: R=6, N=3 (2 mul, ALU).
Benchmark make_iir3();
/// 4-point DCT: R=6, N=4 (2 mul, 2 ALU).
Benchmark make_dct4();
/// 6-tap wavelet analysis filter: R=7, N=3 (2 mul, ALU).
Benchmark make_wavelet6();

/// All six Table-2/Table-3 circuits in paper order.
std::vector<Benchmark> all_benchmarks();

/// Lookup by paper name ("tseng", "paulin", "fir6", "iir3", "dct4",
/// "wavelet6", "fig1"); throws on unknown name.
Benchmark benchmark_by_name(const std::string& name);

}  // namespace advbist::hls
