// Shared plumbing for the bench harnesses: environment-tunable solver
// options and result-row formatting. Every bench binary regenerates one of
// the paper's tables or figures (see DESIGN.md section 5).
//
// Environment knobs:
//   ADVBIST_BENCH_OPTS   solver options as "key=value ..." tokens, with the
//                        keys and ranges of advbist's solver flags
//                        (ilp::set_option), applied over each bench's own
//                        defaults; a bad token exits 2. The paper-table
//                        benches default to time=20 threads=1 (the paper
//                        used a 24 CPU-hour cap — entries that hit the
//                        limit are marked with "*" exactly like Table 2's
//                        dct4 row)
//   ADVBIST_CIRCUITS     comma-separated circuit filter (default: all six)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/synthesizer.hpp"
#include "hls/benchmarks.hpp"
#include "ilp/solver.hpp"
#include "util/table.hpp"

namespace advbist::bench {

/// ilp::set_option, exiting 2 with the reason when it refuses the value.
inline void set_or_exit(ilp::Options& opt, std::string_view key,
                        std::string_view value) {
  const std::string error = ilp::set_option(opt, key, value);
  if (error.empty()) return;
  std::fprintf(stderr, "bench: %s\n", error.c_str());
  std::exit(2);
}

/// `defaults` with the ADVBIST_BENCH_OPTS tokens applied over them.
inline ilp::Options with_bench_opts(ilp::Options defaults) {
  const char* env = std::getenv("ADVBIST_BENCH_OPTS");
  std::istringstream tokens(env != nullptr ? env : "");
  for (std::string token; tokens >> token;) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "bench: ADVBIST_BENCH_OPTS token '%s' is not "
                   "key=value\n", token.c_str());
      std::exit(2);
    }
    set_or_exit(defaults, token.substr(0, eq), token.substr(eq + 1));
  }
  return defaults;
}

/// The paper-table benches' solver options: 20 s per solve, serial, then
/// ADVBIST_BENCH_OPTS.
inline ilp::Options solver_options() {
  ilp::Options o;
  o.time_limit_seconds = 20.0;
  o.num_threads = 1;
  return with_bench_opts(o);
}

/// Splits a comma-separated env value (`fallback` when unset/empty).
inline std::vector<std::string> split_csv(const char* env,
                                          const char* fallback) {
  const std::string list = env != nullptr && *env != '\0' ? env : fallback;
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::string item =
        list.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

inline std::vector<hls::Benchmark> selected_benchmarks() {
  std::vector<hls::Benchmark> picked;
  for (const std::string& name :
       split_csv(std::getenv("ADVBIST_CIRCUITS"), ""))
    picked.push_back(hls::benchmark_by_name(name));
  if (picked.empty()) return hls::all_benchmarks();
  return picked;
}

inline core::SynthesizerOptions default_synth_options() {
  core::SynthesizerOptions o;
  o.solver = solver_options();
  return o;
}

/// "33.8" or "33.8*" when the solve hit its limit (the paper's marker).
inline std::string overhead_cell(double percent, bool hit_limit) {
  return util::format_fixed(percent, 1) + (hit_limit ? "*" : "");
}

}  // namespace advbist::bench
