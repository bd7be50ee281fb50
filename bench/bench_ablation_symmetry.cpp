// Ablation A: the two symmetry reductions behind
// SynthesizerOptions::symmetry_reduction, on versus off.
//   - Section 3.5: an arbitrary pre-assignment of one maximal clique of
//     pairwise-incompatible variables is isomorphism-free and removes the
//     register relabelings.
//   - The session-ordering rows (symsess_): sessions are numbered in order of
//     their lowest module, which removes the k! session relabelings (k >= 2).
// This bench measures their effect on branch & bound nodes and wall-clock
// time; '*' marks a solve that hit its limit.
#include <cstdio>
#include <utility>

#include "bench_common.hpp"
#include "util/stopwatch.hpp"

int main() {
  using namespace advbist;
  std::printf("Ablation A: clique pinning + session ordering (symmetry "
              "reduction on/off)\n\n");
  util::TextTable table;
  table.add_row({"Ckt", "k", "nodes(on)", "time(on)", "area(on)", "nodes(off)",
                 "time(off)", "area(off)"});
  const std::pair<const char*, int> rows[] = {
      {"fig1", 1},  {"fig1", 2},   {"tseng", 1}, {"tseng", 2},
      {"tseng", 3}, {"paulin", 1}, {"paulin", 2}};
  for (const auto& [name, k] : rows) {
    const hls::Benchmark b = hls::benchmark_by_name(name);
    core::SynthesizerOptions on = bench::default_synth_options();
    core::SynthesizerOptions off = bench::default_synth_options();
    off.symmetry_reduction = false;
    std::vector<std::string> cells = {name, std::to_string(k)};
    for (const core::SynthesizerOptions& o : {on, off}) {
      const core::SynthesisResult r =
          core::Synthesizer(b.dfg, b.modules, o).synthesize_bist(k);
      const std::string star = r.hit_limit ? "*" : "";
      cells.push_back(std::to_string(r.nodes) + star);
      cells.push_back(util::format_duration(r.seconds) + star);
      cells.push_back(std::to_string(r.design.area.total()) + star);
    }
    table.add_row(cells);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Both runs must agree on area when optimal (relabeled designs\n"
              "are isomorphic); the reductions should cut nodes/time.\n");
  return 0;
}
