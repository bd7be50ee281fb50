// Regenerates Table 2: ADVBIST area overhead (%) and processing time for
// every k-test session of every circuit. Entries marked "*" hit the solve
// budget (the paper marked its 24-CPU-hour cap the same way on dct4).
//
// Paper values for comparison (overhead %):
//   tseng    33.8 28.2 25.7 -        paulin 37.5 28.1 25.3 25.3
//   fir6     30.1 21.2 15.3 -        iir3   23.6 17.3 16.3 -
//   dct4     23.3* 24.9* 45.5* 28.3* wavelet6 13.9 11.3 11.3 -
#include <cstdio>

#include "bench_common.hpp"
#include "bist/bist_design.hpp"
#include "util/stopwatch.hpp"

int main() {
  using namespace advbist;
  std::printf("Table 2: Performance of the proposed method ADVBIST\n");
  std::printf("(solve budget %.0fs per ILP; '*' = budget hit, incumbent "
              "reported; set ADVBIST_BENCH_OPTS=time=S to change)\n\n",
              bench::solver_options().time_limit_seconds);

  util::TextTable table;
  table.add_row({"Ckt", "", "k=1", "k=2", "k=3", "k=4"});
  for (const hls::Benchmark& b : bench::selected_benchmarks()) {
    const core::Synthesizer synth(b.dfg, b.modules,
                                  bench::default_synth_options());
    const core::SynthesisResult ref = synth.synthesize_reference();
    std::vector<std::string> overhead_row = {b.dfg.name(), "overhead"};
    std::vector<std::string> time_row = {"", "time"};
    for (int k = 1; k <= 4; ++k) {
      if (k > b.modules.num_modules()) {
        overhead_row.push_back("-");
        time_row.push_back("-");
        continue;
      }
      const core::SynthesisResult r = synth.synthesize_bist(k);
      overhead_row.push_back(bench::overhead_cell(
          bist::overhead_percent(r.design.area, ref.design.area),
          r.hit_limit));
      time_row.push_back(util::format_duration(r.seconds));
      std::fflush(stdout);
    }
    table.add_row(overhead_row);
    table.add_row(time_row);
    table.add_separator();
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Notes: overhead %% is measured against this repo's own ILP-optimal\n"
      "reference circuits, as the paper measures against its references.\n"
      "Reconstructed netlists are leaner than HYPER's (fewer mux inputs),\n"
      "so absolute %% differs; the paper's shape — overhead decreasing with\n"
      "k, every circuit synthesizable at every k — is the reproduced "
      "claim.\n");
  return 0;
}
