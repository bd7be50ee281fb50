// Regenerates Table 2: ADVBIST area overhead (%) and processing time for
// every k-test session of every circuit. Entries marked "*" hit the solve
// budget (the paper marked its 24-CPU-hour cap the same way on dct4).
//
// It also writes the Table-2 record BENCH_table2.json, which
// bench/run_bench.sh merges over its thread passes and gates on
// (bench/gate.py, docs/solver.md §4–5). The record has one row per
// (circuit, k, threads), k = 0 being the reference, from the same
// core::Synthesizer path `advbist synth` runs, plus six generated-corpus
// rows pushed through the file frontend (MPS write -> defensive reader ->
// sanitizer -> solve).
//
// Environment (ADVBIST_BENCH_OPTS and ADVBIST_CIRCUITS: bench_common.hpp):
//   ADVBIST_BENCH_OUT   output directory for BENCH_table2.json (default .);
//                       ckpt-interval=S gives each BIST solve a snapshot
//                       file there, so checkpoint_seconds records the
//                       writer overhead
//   ADVBIST_GIT_COMMIT  commit hash recorded in the JSON (default unknown)
//
// Paper values for comparison (overhead %):
//   tseng    33.8 28.2 25.7 -        paulin 37.5 28.1 25.3 25.3
//   fir6     30.1 21.2 15.3 -        iir3   23.6 17.3 16.3 -
//   dct4     23.3* 24.9* 45.5* 28.3* wavelet6 13.9 11.3 11.3 -
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bist/bist_design.hpp"
#include "lp/instance_gen.hpp"
#include "lp/mps_reader.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace advbist;

/// A finite value as a JSON number, anything else as null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

const char* json_bool(bool b) { return b ? "true" : "false"; }

bool audit_verified(const ilp::Stats& st) {
  return st.audit_ran && st.audit_incumbent_ok && st.audit_bound_ok;
}

std::string circuit_row(const std::string& circuit, int k, int threads,
                        const core::SynthesisResult& r) {
  const ilp::Stats& st = r.solver_stats;
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"circuit\": \"%s\", \"k\": %d, \"threads\": %d, \"status\": \"%s\", "
      "\"area\": %d, \"bound\": %s, \"nodes\": %lld, \"seconds\": %.4f, "
      "\"hit_limit\": %s, \"from_heuristic_fallback\": %s, "
      "\"audit_verified\": %s, \"checkpoint_seconds\": %.4f, "
      "\"checkpoints\": %d}",
      circuit.c_str(), k, threads, ilp::to_string(r.status).c_str(),
      r.design.area.total(), json_number(r.best_bound).c_str(), r.nodes,
      r.seconds, json_bool(r.hit_limit), json_bool(r.from_heuristic_fallback),
      json_bool(audit_verified(st)), st.checkpoint_seconds,
      st.checkpoints_written);
  return buf;
}

/// Seeded random 0/1 instances pushed through the full untrusted-instance
/// frontend (generator -> write_mps -> defensive reader -> sanitizer gate
/// -> solve), so the record covers the file path end to end. The instances
/// are feasible by construction (planted assignment): an "infeasible"
/// status is a frontend or solver bug, and the gate catches the status
/// change. The last instance is the badly-scaled variant that exercises
/// LP scaling. Returns false when a round-trip fails to parse.
bool generated_rows(const std::string& out_dir, int threads,
                    std::vector<std::string>& rows) {
  constexpr int kCount = 6;
  for (int g = 0; g < kCount; ++g) {
    lp::GenOptions gopt;
    gopt.seed = 100 + static_cast<std::uint64_t>(g);
    gopt.num_vars = 40;
    gopt.num_rows = 60;
    gopt.badly_scaled = g == kCount - 1;
    const std::string gname = lp::instance_name(gopt);
    const std::string mps_path = out_dir + "/" + gname + ".mps";
    {
      std::ofstream mps(mps_path, std::ios::trunc);
      mps << lp::write_mps(lp::generate_instance(gopt), gname);
    }
    const lp::ReadResult rr = lp::read_model_file(mps_path);
    std::remove(mps_path.c_str());
    if (!rr.ok) {
      std::fprintf(stderr, "%s: frontend parse failed: %s\n", gname.c_str(),
                   rr.error.to_string().c_str());
      return false;
    }
    ilp::Options defaults;
    defaults.node_limit = 1000;
    defaults.time_limit_seconds = 60.0;
    const ilp::Solution s =
        ilp::Solver(bench::with_bench_opts(defaults)).solve(rr.model);
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"model\": \"%s\", \"threads\": %d, \"status\": \"%s\", "
        "\"objective\": %s, \"bound\": %s, \"nodes\": %lld, "
        "\"seconds\": %.4f, \"audit_verified\": %s, \"scaling\": %s, "
        "\"sanitizer\": \"%s\"}",
        gname.c_str(), threads, ilp::to_string(s.status).c_str(),
        s.has_solution() ? json_number(s.objective).c_str() : "null",
        json_number(s.stats.best_bound).c_str(), s.stats.nodes,
        s.stats.seconds, json_bool(audit_verified(s.stats)),
        json_bool(s.stats.lp_scaling_active), s.stats.sanitizer_class.c_str());
    rows.push_back(buf);
    std::printf("%-18s nodes=%lld t=%.2fs scaling=%d sanitizer=%s (%s)\n",
                gname.c_str(), s.stats.nodes, s.stats.seconds,
                s.stats.lp_scaling_active ? 1 : 0,
                s.stats.sanitizer_class.c_str(),
                ilp::to_string(s.status).c_str());
  }
  return true;
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

}  // namespace

int main() {
  const ilp::Options options = bench::solver_options();
  const std::string out_dir = env_or("ADVBIST_BENCH_OUT", ".");
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int threads =
      options.num_threads > 0 ? options.num_threads : std::max(1, hw);

  std::printf("Table 2: Performance of the proposed method ADVBIST\n");
  std::printf("(solve budget %.0fs per ILP; '*' = budget hit, incumbent "
              "reported; set ADVBIST_BENCH_OPTS=time=S to change)\n\n",
              options.time_limit_seconds);

  std::vector<std::string> rows;
  util::TextTable table;
  table.add_row({"Ckt", "", "k=1", "k=2", "k=3", "k=4"});
  for (const hls::Benchmark& b : bench::selected_benchmarks()) {
    const std::string& name = b.dfg.name();
    core::SynthesizerOptions so = bench::default_synth_options();
    const core::SynthesisResult ref =
        core::Synthesizer(b.dfg, b.modules, so).synthesize_reference();
    rows.push_back(circuit_row(name, 0, threads, ref));
    std::vector<std::string> overhead_row = {
        name + (ref.hit_limit ? " (ref*)" : ""), "overhead"};
    std::vector<std::string> time_row = {"", "time"};
    for (int k = 1; k <= 4; ++k) {
      if (k > b.modules.num_modules()) {
        overhead_row.push_back("-");
        time_row.push_back("-");
        continue;
      }
      // One snapshot path per solve, removed afterwards: the writer's
      // overhead lands in checkpoint_seconds, never in a later resume.
      if (options.checkpoint_interval_seconds > 0)
        so.solver.checkpoint_path =
            out_dir + "/bench_ckpt_" + name + "_k" + std::to_string(k) +
            ".tmp";
      const core::SynthesisResult r =
          core::Synthesizer(b.dfg, b.modules, so).synthesize_bist(k);
      if (!so.solver.checkpoint_path.empty())
        std::remove(so.solver.checkpoint_path.c_str());
      rows.push_back(circuit_row(name, k, threads, r));
      overhead_row.push_back(
          r.has_design && ref.has_design
              ? bench::overhead_cell(
                    bist::overhead_percent(r.design.area, ref.design.area),
                    r.hit_limit)
              : "-*");
      time_row.push_back(util::format_duration(r.seconds));
      std::fflush(stdout);
    }
    table.add_row(overhead_row);
    table.add_row(time_row);
    table.add_separator();
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Notes: overhead %% is measured against this repo's own ILP reference\n"
      "circuits, as the paper measures against its references. A circuit\n"
      "marked '(ref*)' had its reference ILP hit the budget, so its\n"
      "overhead is relative to the best reference found, not a proven\n"
      "optimum. Reconstructed netlists are leaner than HYPER's (fewer mux\n"
      "inputs), so absolute %% differs; the paper's shape — overhead\n"
      "decreasing with k, every circuit synthesizable at every k — is the\n"
      "reproduced claim.\n\n");

  std::vector<std::string> generated;
  if (!generated_rows(out_dir, threads, generated)) return 1;

  const std::string path = out_dir + "/BENCH_table2.json";
  std::ofstream out(path);
  out << "{\n  \"commit\": \"" << env_or("ADVBIST_GIT_COMMIT", "unknown")
      << "\",\n  \"hardware_concurrency\": " << hw
      << ",\n  \"time_limit\": " << options.time_limit_seconds
      << ",\n  \"rows\": [\n";
  const auto write_rows = [&out](const std::vector<std::string>& v) {
    for (std::size_t i = 0; i < v.size(); ++i)
      out << "    " << v[i] << (i + 1 < v.size() ? ",\n" : "\n");
  };
  write_rows(rows);
  out << "  ],\n  \"generated\": [\n";
  write_rows(generated);
  out << "  ]\n}\n";
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
