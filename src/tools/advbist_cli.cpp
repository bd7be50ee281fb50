// advbist — command-line front end.
//
//   advbist synth   <circuit|file.dfg> [--k N] [--verilog out.v] [solver flags]
//   advbist sweep   <circuit|file.dfg> [solver flags]  # all k
//   advbist compare <circuit|file.dfg> [solver flags]  # vs heuristics
//   advbist print   <circuit>                          # dump .dfg text
//   advbist solve   <file.mps|file.lp> [solver flags]
//                   # solve an untrusted MPS / CPLEX-LP instance directly:
//                   # defensive reader -> sanitizer gate -> branch & cut.
//                   # A malformed file is a typed parse error with its
//                   # line:column; non-finite data is an honest "invalid
//                   # model" — never a crash, never a wrong proof.
//   advbist submit  <dir> <circuit|file.dfg|file.mps|file.lp> [--job ID]
//                                      [--k N] [--time S]
//                                      [--threads N] [--nodes N]
//   advbist serve   <dir> [--queue N] [--retries N] [--time S] [--threads N]
//                         [--ckpt-interval S] [--watch] [--poll S]
//                         [--mem-limit MB] [--seed X]
//
// Solver flags are shared by every command that solves (synth, sweep,
// compare, solve) and parsed by one parser: every value is validated, and a
// bad or missing one exits 2 with usage before any solve starts.
//
//   --time S       wall-clock limit in seconds (default 20)
//   --threads N    branch & bound worker threads (default 1, 0 = one per
//                  hardware thread); parallel solves prove the same optimum
//   --nodes N      node limit (default unlimited)
//
// LP knobs:
//   --refactor N   pivots between basis refactorizations (default 50)
//   --mtol X       Markowitz threshold-pivoting tolerance in (0,1]
//                  (default 0.1; larger = more stable, more fill)
//   --row-age N    delete a cut row after its slack stayed basic for N
//                  consecutive re-solves (default 40, 0 = never delete)
//   --scale 0|1    geometric-mean + equilibration scaling of the worker LPs
//                  (default 1). Factors are powers of two, so unscaling is
//                  bit-exact and well-scaled models (all nonzeros within
//                  [2^-6, 2^6]) skip the transform entirely — the built-in
//                  benchmarks solve bit-identically either way.
//
// Cut-and-bound knobs:
//   --cuts 0|1       master cut switch (default 1); 0 silences both
//                    separator classes (clique, cover)
//   --cut-rounds N   root separation rounds (default 8)
//   --cut-interval N in-tree separation every N nodes, 0 = off (default 16)
//   --max-cuts N     cuts applied per separation round (default 64)
//   --probing 0|1    binary probing presolve (default 1)
//   --rcfix 0|1      reduced-cost fixing (default 1)
//
// Branching knobs:
//   --strong-branch N  fractional root variables probed by strong branching
//                      to seed the shared pseudocosts (default 12, 0 = off)
//   --rel-probes N     global budget of in-tree reliability probes: bounded
//                      dual-simplex strong branching at nodes whose pick is
//                      still below the pseudocost reliability threshold,
//                      allowance decaying with depth (default 64, 0 = off)
//
// Solve-lifecycle knobs:
//   --mem-limit MB   cooperative memory budget for the node + cut pools;
//                    soft pressure sheds cuts/diving, the hard limit stops
//                    the solve with an honest "memory limit" status (0 = off)
//   --no-audit       skip the exit audit (incumbent re-verification against
//                    the original model + fresh-factorization bound
//                    recertification; ON by default)
//
// Checkpoint/resume knobs:
//   --checkpoint F     write a crash-safe solve snapshot to F on any early
//                      stop (deadline, ^C/SIGTERM, memory/node limit); a
//                      natural completion removes F instead
//   --resume F         resume a solve from snapshot F; an invalid or stale
//                      snapshot degrades to a cold start (counted), never
//                      a wrong proof
//   --ckpt-interval S  with --checkpoint: also snapshot every S seconds
//                      from a dedicated writer thread
//
// SIGINT (Ctrl-C) and SIGTERM cancel the solve cooperatively: the search
// stops at the next controller poll and reports the best incumbent + bound
// found so far with status "cancelled" instead of dying mid-proof (with
// --checkpoint the frontier is snapshotted on the way out). In serve mode
// SIGTERM/SIGINT drains: the in-flight job checkpoints, queued jobs stay
// pending on disk, and a restarted serve resumes all of them.
//
// The full knob/stat reference lives in docs/solver.md.
//
// <circuit> is a built-in benchmark name (fig1, tseng, paulin, fir6, iir3,
// dct4, wavelet6); anything containing '.' is read as a .dfg text file.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "baselines/baselines.hpp"
#include "bist/verilog.hpp"
#include "core/serve.hpp"
#include "core/synthesizer.hpp"
#include "hls/benchmarks.hpp"
#include "hls/dfg_parser.hpp"
#include "lp/mps_reader.hpp"

using namespace advbist;

namespace {

// SIGINT/SIGTERM flip this flag; the solve controller polls it from every
// layer (an atomic store is all the handler does — async-signal-safe). In
// serve mode the same flag is the drain request.
std::atomic<bool> g_cancel{false};

void handle_cancel_signal(int) {
  g_cancel.store(true, std::memory_order_relaxed);
}

hls::ParsedDesign load_design(const std::string& spec) {
  if (spec.find('.') == std::string::npos) {
    const hls::Benchmark b = hls::benchmark_by_name(spec);
    return hls::ParsedDesign{b.dfg, b.modules};
  }
  std::ifstream in(spec);
  if (!in) throw std::invalid_argument("cannot open " + spec);
  std::ostringstream text;
  text << in.rdbuf();
  return hls::parse_dfg_text(text.str());
}

int usage() {
  std::fprintf(stderr,
               "usage: advbist <synth|sweep|compare|print> "
               "<circuit|file.dfg> [--k N] [--verilog out.v] [solver flags]\n"
               "       advbist solve <file.mps|file.lp> [solver flags]\n"
               "       advbist submit <dir> <circuit|file.dfg|file.mps"
               "|file.lp> [--job ID] "
               "[--k N] [--time S] [--threads N] [--nodes N]\n"
               "       advbist serve <dir> [--queue N] [--retries N] "
               "[--time S] [--threads N] [--ckpt-interval S] [--watch] "
               "[--poll S] [--mem-limit MB] [--seed X]\n"
               "solver flags: [--time S] [--threads N] [--nodes N] "
               "[--refactor N] [--mtol X] [--row-age N] [--scale 0|1] "
               "[--cuts 0|1] [--cut-rounds N] [--cut-interval N] "
               "[--max-cuts N] [--probing 0|1] [--rcfix 0|1] "
               "[--strong-branch N] [--rel-probes N] [--mem-limit MB] "
               "[--no-audit] [--checkpoint F] [--resume F] "
               "[--ckpt-interval S]\n");
  return 2;
}

/// Parses a whole decimal integer in [lo, hi].
bool parse_int(const char* text, long long lo, long long hi, long long& out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < lo || v > hi)
    return false;
  out = v;
  return true;
}

/// Parses a whole finite decimal number.
bool parse_real(const char* text, double& out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v)) return false;
  out = v;
  return true;
}

enum class FlagParse { kNotSolverFlag, kTaken, kBad };

/// Offers argv[i] to the solver-flag parser shared by synth, sweep, compare
/// and solve. kTaken leaves `i` on the last argument consumed; kBad has
/// already said what the flag wants.
FlagParse parse_solver_flag(int argc, char** argv, int& i, ilp::Options& opt) {
  const std::string flag = argv[i];
  if (flag == "--no-audit") {
    opt.exit_audit = false;
    return FlagParse::kTaken;
  }
  using IntSetter = void (*)(ilp::Options&, long long);
  static const struct {
    const char* name;
    long long min;
    long long max;
    IntSetter set;
  } kIntFlags[] = {
      {"--threads", 0, INT_MAX,
       [](ilp::Options& o, long long v) {
         o.num_threads = static_cast<int>(v);
       }},
      {"--nodes", 0, LLONG_MAX,
       [](ilp::Options& o, long long v) { o.node_limit = v; }},
      {"--refactor", 1, INT_MAX,
       [](ilp::Options& o, long long v) {
         o.lp_refactor_every = static_cast<int>(v);
       }},
      {"--row-age", 0, INT_MAX,
       [](ilp::Options& o, long long v) {
         o.lp_row_age_limit = static_cast<int>(v);
       }},
      {"--strong-branch", 0, INT_MAX,
       [](ilp::Options& o, long long v) {
         o.strong_branch_vars = static_cast<int>(v);
       }},
      {"--rel-probes", 0, INT_MAX,
       [](ilp::Options& o, long long v) {
         o.reliability_probe_budget = static_cast<int>(v);
       }},
      {"--cut-rounds", 0, INT_MAX,
       [](ilp::Options& o, long long v) {
         o.cut_rounds = static_cast<int>(v);
       }},
      {"--cut-interval", 0, INT_MAX,
       [](ilp::Options& o, long long v) {
         o.cut_node_interval = static_cast<int>(v);
       }},
      {"--max-cuts", 1, INT_MAX,
       [](ilp::Options& o, long long v) {
         o.max_cuts_per_round = static_cast<int>(v);
       }},
      {"--mem-limit", 0, 1LL << 30,  // MB
       [](ilp::Options& o, long long v) {
         o.memory_limit_bytes = static_cast<std::size_t>(v) * 1024 * 1024;
       }},
      // 0|1 switches. --cuts 0 turns off both separator classes, which
      // also idles the root cut loop and in-tree separation.
      {"--cuts", 0, 1,
       [](ilp::Options& o, long long v) {
         o.use_clique_cuts = v == 1;
         o.use_cover_cuts = v == 1;
       }},
      {"--probing", 0, 1,
       [](ilp::Options& o, long long v) { o.use_probing = v == 1; }},
      {"--rcfix", 0, 1,
       [](ilp::Options& o, long long v) { o.use_rc_fixing = v == 1; }},
      {"--scale", 0, 1,
       [](ilp::Options& o, long long v) { o.lp_scaling = v == 1; }},
  };
  const bool is_string = flag == "--checkpoint" || flag == "--resume";
  const bool is_real =
      flag == "--time" || flag == "--mtol" || flag == "--ckpt-interval";
  const auto* int_flag = std::find_if(
      std::begin(kIntFlags), std::end(kIntFlags),
      [&](const auto& f) { return flag == f.name; });
  const bool is_int = int_flag != std::end(kIntFlags);
  if (!is_string && !is_real && !is_int) return FlagParse::kNotSolverFlag;
  if (i + 1 >= argc) {
    std::fprintf(stderr, "advbist: %s wants a value\n", flag.c_str());
    return FlagParse::kBad;
  }
  const char* value = argv[++i];
  if (is_string) {
    (flag == "--checkpoint" ? opt.checkpoint_path : opt.resume_path) = value;
    return FlagParse::kTaken;
  }
  if (is_int) {
    long long v = 0;
    if (!parse_int(value, int_flag->min, int_flag->max, v)) {
      std::fprintf(stderr, "advbist: %s wants an integer in [%lld, %lld]\n",
                   flag.c_str(), int_flag->min, int_flag->max);
      return FlagParse::kBad;
    }
    int_flag->set(opt, v);
    return FlagParse::kTaken;
  }
  double v = 0.0;
  const bool parsed = parse_real(value, v);
  if (flag == "--time") {
    if (!parsed || v <= 0.0) {
      std::fprintf(stderr, "advbist: --time wants seconds > 0\n");
      return FlagParse::kBad;
    }
    opt.time_limit_seconds = v;
  } else if (flag == "--mtol") {
    if (!parsed || v <= 0.0 || v > 1.0) {
      std::fprintf(stderr, "advbist: --mtol wants a value in (0, 1]\n");
      return FlagParse::kBad;
    }
    opt.lp_markowitz_tol = v;
  } else {
    if (!parsed || v < 0.0) {
      std::fprintf(stderr, "advbist: --ckpt-interval wants seconds >= 0\n");
      return FlagParse::kBad;
    }
    opt.checkpoint_interval_seconds = v;
  }
  return FlagParse::kTaken;
}

int cmd_submit(int argc, char** argv) {
  const std::string dir = argv[2];
  if (argc < 4) return usage();
  core::JobSpec spec;
  spec.circuit = argv[3];
  for (int i = 4; i < argc; ++i) {
    if (i + 1 >= argc) return usage();
    const char* value = argv[i + 1];
    long long n = 0;
    if (std::strcmp(argv[i], "--job") == 0) {
      spec.id = value;
    } else if (std::strcmp(argv[i], "--k") == 0) {
      if (!parse_int(value, 1, INT_MAX, n)) return usage();
      spec.k = static_cast<int>(n);
    } else if (std::strcmp(argv[i], "--time") == 0) {
      if (!parse_real(value, spec.time_limit) || spec.time_limit <= 0)
        return usage();
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      if (!parse_int(value, 0, INT_MAX, n)) return usage();
      spec.threads = static_cast<int>(n);
    } else if (std::strcmp(argv[i], "--nodes") == 0) {
      if (!parse_int(value, 0, LLONG_MAX, spec.node_limit)) return usage();
    } else {
      return usage();
    }
    ++i;
  }
  if (spec.id.empty()) {
    // Default id: circuit + session count, with path characters flattened.
    spec.id = spec.circuit + "-k" + std::to_string(spec.k);
    for (char& c : spec.id)
      if (c == '/' || c == '\\') c = '_';
  }
  if (!core::submit_job(dir, spec)) {
    std::fprintf(stderr, "advbist: submit failed (bad job id or spool dir)\n");
    return 1;
  }
  std::printf("submitted %s (circuit %s, k=%d) to %s\n", spec.id.c_str(),
              spec.circuit.c_str(), spec.k, dir.c_str());
  return 0;
}

int cmd_serve(int argc, char** argv) {
  core::ServeOptions so;
  so.dir = argv[2];
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--watch") == 0) {
      so.watch = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[i + 1];
    long long n = 0;
    if (std::strcmp(argv[i], "--queue") == 0) {
      if (!parse_int(value, 1, INT_MAX, n)) return usage();
      so.queue_capacity = static_cast<int>(n);
    } else if (std::strcmp(argv[i], "--retries") == 0) {
      if (!parse_int(value, 0, INT_MAX, n)) return usage();
      so.max_retries = static_cast<int>(n);
    } else if (std::strcmp(argv[i], "--time") == 0) {
      if (!parse_real(value, so.default_time_limit) ||
          so.default_time_limit <= 0)
        return usage();
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      if (!parse_int(value, 0, INT_MAX, n)) return usage();
      so.default_threads = static_cast<int>(n);
    } else if (std::strcmp(argv[i], "--ckpt-interval") == 0) {
      if (!parse_real(value, so.checkpoint_interval_seconds) ||
          so.checkpoint_interval_seconds < 0)
        return usage();
    } else if (std::strcmp(argv[i], "--poll") == 0) {
      if (!parse_real(value, so.poll_seconds) || so.poll_seconds <= 0)
        return usage();
    } else if (std::strcmp(argv[i], "--mem-limit") == 0) {
      if (!parse_int(value, 0, 1LL << 30, n)) return usage();
      so.solver.memory_limit_bytes = static_cast<std::size_t>(n) * 1024 * 1024;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      char* end = nullptr;
      so.backoff.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage();
    } else {
      return usage();
    }
    ++i;
  }
  so.drain = &g_cancel;
  std::signal(SIGINT, handle_cancel_signal);
  std::signal(SIGTERM, handle_cancel_signal);
  const core::ServeStats st = core::serve(so);
  for (const core::JobOutcome& o : st.outcomes)
    std::printf("job %s: %s area=%d attempts=%d%s%s%s\n", o.id.c_str(),
                o.status.c_str(), o.area, o.attempts,
                o.resumed ? " resumed" : "", o.verified ? " verified" : "",
                o.from_cache ? " cached" : "");
  std::printf(
      "serve: %d completed, %d failed, %d malformed, %lld shed%s, "
      "%d retries, %d cache hits, %d resumed, %d checkpoints, "
      "%d snapshots rejected%s\n",
      st.jobs_completed, st.jobs_failed, st.jobs_malformed, st.jobs_shed,
      st.memory_pressure_shed ? " (memory pressure)" : "", st.retries,
      st.cache_hits, st.resumed_jobs, st.checkpoints_written,
      st.resume_rejected, st.drained ? ", drained" : "");
  return (st.jobs_failed > 0 || st.jobs_malformed > 0) ? 1 : 0;
}

// advbist solve <file.mps|file.lp>: the untrusted-instance path. The
// defensive reader parses the file (typed line:column errors, hard caps),
// the sanitizer gate inside the solver classifies/repairs the model, and
// the branch & cut runs with scaling on by default. Exit codes: 0 solve
// ran (any honest status), 2 parse error, 3 sanitizer-rejected model.
int cmd_solve(int argc, char** argv) {
  const std::string path = argv[2];
  ilp::Options opt;
  opt.time_limit_seconds = 20.0;
  for (int i = 3; i < argc; ++i)
    if (parse_solver_flag(argc, argv, i, opt) != FlagParse::kTaken)
      return usage();

  const lp::ReadResult rr = lp::read_model_file(path);
  if (!rr.ok) {
    std::fprintf(stderr, "advbist: %s: %s\n", path.c_str(),
                 rr.error.to_string().c_str());
    return 2;
  }
  int integers = 0;
  for (int v = 0; v < rr.model.num_variables(); ++v)
    if (rr.model.variable(v).type == lp::VarType::kInteger) ++integers;
  std::printf("%s: %s, %d rows, %d cols (%d integer), %s%s%s\n",
              rr.name.empty() ? path.c_str() : rr.name.c_str(),
              rr.format.c_str(), rr.model.num_constraints(),
              rr.model.num_variables(), integers,
              rr.maximize ? "maximize" : "minimize",
              rr.num_ranges > 0 ? ", ranges expanded" : "",
              rr.crossed_bounds > 0 ? ", crossed bounds" : "");

  opt.cancel_flag = &g_cancel;
  std::signal(SIGINT, handle_cancel_signal);
  std::signal(SIGTERM, handle_cancel_signal);
  const ilp::Solver solver(opt);
  const ilp::Solution r = solver.solve(rr.model);
  const ilp::Stats& st = r.stats;

  if (st.sanitizer_class != "clean" || st.sanitizer_proven_infeasible)
    std::printf(
        "sanitizer: %s%s (%lld duplicates merged, %lld zero coeffs dropped, "
        "%lld vacuous rows, %lld contradictory rows, %lld crossed bounds), "
        "fingerprint %016llx\n",
        st.sanitizer_class.c_str(),
        st.sanitizer_proven_infeasible ? " [proven infeasible]" : "",
        st.sanitizer_duplicates_merged, st.sanitizer_zero_coeffs_dropped,
        st.sanitizer_vacuous_rows_dropped, st.sanitizer_contradictory_rows,
        st.sanitizer_crossed_bounds,
        static_cast<unsigned long long>(st.sanitizer_fingerprint));
  if (st.lp_scaling_active)
    std::printf("scaling: active (power-of-two geometric-mean + "
                "equilibration; solutions reported unscaled)\n");

  const auto user_value = [&](double z) {
    return (rr.maximize ? -z : z) + rr.objective_offset;
  };
  if (r.has_solution())
    std::printf("%s: objective %.10g (bound %.10g), %lld nodes, %lld LP "
                "iterations, %.2fs\n",
                ilp::to_string(r.status).c_str(), user_value(r.objective),
                user_value(st.best_bound), st.nodes, st.lp_iterations,
                st.seconds);
  else
    std::printf("%s: %lld nodes, %lld LP iterations, %.2fs\n",
                ilp::to_string(r.status).c_str(), st.nodes, st.lp_iterations,
                st.seconds);
  if (st.audit_ran)
    std::printf("audit: incumbent %s, bound %s (max violation %.2g)%s\n",
                st.audit_incumbent_ok ? "verified" : "not verified",
                st.audit_bound_ok ? "certified" : "uncertified",
                st.audit_max_violation,
                st.audit_downgraded ? " [claim downgraded]" : "");
  return r.status == ilp::SolveStatus::kInvalidModel ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  if (cmd == "submit" || cmd == "serve" || cmd == "solve") {
    try {
      if (cmd == "submit") return cmd_submit(argc, argv);
      if (cmd == "serve") return cmd_serve(argc, argv);
      return cmd_solve(argc, argv);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "advbist: %s\n", e.what());
      return 1;
    }
  }
  const std::string spec = argv[2];
  core::SynthesizerOptions options;
  options.solver.time_limit_seconds = 20.0;
  int k = 1;
  std::string verilog_path;
  for (int i = 3; i < argc; ++i) {
    const FlagParse p = parse_solver_flag(argc, argv, i, options.solver);
    if (p == FlagParse::kTaken) continue;
    if (p == FlagParse::kBad || i + 1 >= argc) return usage();
    if (std::strcmp(argv[i], "--k") == 0) {
      long long v = 0;
      if (!parse_int(argv[i + 1], 1, INT_MAX, v)) {
        std::fprintf(stderr, "advbist: --k wants an integer >= 1\n");
        return usage();
      }
      k = static_cast<int>(v);
    } else if (std::strcmp(argv[i], "--verilog") == 0) {
      verilog_path = argv[i + 1];
    } else {
      return usage();
    }
    ++i;
  }

  try {
    const hls::ParsedDesign design = load_design(spec);
    if (cmd == "print") {
      std::fputs(hls::to_dfg_text(design.dfg, design.modules).c_str(), stdout);
      return 0;
    }

    options.solver.cancel_flag = &g_cancel;
    std::signal(SIGINT, handle_cancel_signal);
    std::signal(SIGTERM, handle_cancel_signal);
    const core::Synthesizer synth(design.dfg, design.modules, options);
    const core::SynthesisResult ref = synth.synthesize_reference();
    std::printf("%s: %d registers, %d modules, reference area %d%s\n",
                design.dfg.name().c_str(), ref.design.area.num_registers,
                design.modules.num_modules(), ref.design.area.total(),
                ref.hit_limit ? " (budget hit)" : "");

    auto report = [&](const core::SynthesisResult& r, int sessions) {
      std::printf(
          "k=%d: area %d (+%.1f%%) T=%d S=%d B=%d C=%d mux=%d %s (%s, %lld "
          "nodes)\n",
          sessions, r.design.area.total(),
          bist::overhead_percent(r.design.area, ref.design.area),
          r.design.area.tpgs, r.design.area.srs, r.design.area.bilbos,
          r.design.area.cbilbos, r.design.area.mux_inputs,
          r.hit_limit ? "*" : "", ilp::to_string(r.status).c_str(), r.nodes);
      const ilp::Stats& st = r.solver_stats;
      if (st.lp_refactorizations > 0)
        std::printf(
            "     lp: %lld iterations (%lld phase-1 / %lld phase-2 / %lld "
            "dual), %lld refactorizations (%lld sparse, "
            "%lld dense fallbacks), fill %.3f, %lld pivot rejections, %d "
            "threads\n",
            st.lp_iterations, st.lp_primal_phase1_iterations,
            st.lp_primal_phase2_iterations, st.lp_dual_iterations,
            st.lp_refactorizations,
            st.lp_sparse_refactorizations, st.lp_sparse_fallbacks,
            st.lp_fill_ratio, st.lp_pivot_rejections, st.threads);
      if (st.lp_dual_solves > 0)
        std::printf(
            "     dual: %lld re-solves (%lld fell back to primal), %lld "
            "bound flips, %lld pricing resets, %lld cut rows aged out of the "
            "LPs (peak %d rows)\n",
            st.lp_dual_solves, st.lp_dual_fallbacks, st.lp_bound_flips,
            st.lp_devex_resets, st.lp_rows_deleted, st.lp_peak_rows);
      if (st.strong_branch_probed > 0)
        std::printf(
            "     branching: %d strong-branch probes seeded the shared "
            "pseudocosts (%d variables fixed by infeasible probes)\n",
            st.strong_branch_probed, st.strong_branch_fixed);
      if (st.reliability_probed > 0)
        std::printf(
            "     reliability: %lld in-tree probes on unreliable pseudocosts "
            "(%d variables fixed, %d bounds tightened)\n",
            st.reliability_probed, st.reliability_fixed,
            st.reliability_tightened);
      if (st.cuts_clique_applied + st.cuts_cover_applied > 0 ||
          st.probing_fixed > 0 || st.rc_fixed_root + st.rc_fixed_incumbent > 0)
        std::printf(
            "     cuts: %d clique + %d cover applied (%lld/%lld separated, "
            "%lld aged out), probing fixed %d of %d probed, rc fixed %d+%d, "
            "root gap closed %.0f%%\n",
            st.cuts_clique_applied, st.cuts_cover_applied,
            st.cuts_clique_separated, st.cuts_cover_separated,
            st.cuts_aged_out, st.probing_fixed, st.probing_probed,
            st.rc_fixed_root, st.rc_fixed_incumbent,
            100.0 * st.root_gap_closed);
      if (st.termination != util::StopReason::kNone)
        std::printf("     stopped: %s (presolve %.2fs, root cuts %.2fs, "
                    "strong branch %.2fs, search %.2fs)%s%s\n",
                    util::to_string(st.termination), st.presolve_seconds,
                    st.root_cut_seconds, st.strong_branch_seconds,
                    st.search_seconds, st.shed_cuts ? ", cuts shed" : "",
                    st.shed_diving ? ", diving shed" : "");
      if (st.peak_memory_bytes > 0 && st.termination != util::StopReason::kNone)
        std::printf("     memory: peak %.1f MB accounted\n",
                    static_cast<double>(st.peak_memory_bytes) / (1024 * 1024));
      const long long recoveries =
          st.lp_recovery_refactorize + st.lp_recovery_tighten +
          st.lp_recovery_dense + st.lp_recovery_cold;
      if (recoveries > 0 || st.lp_recovery_exhausted > 0)
        std::printf(
            "     lp recovery: %lld refactorize / %lld tighten / %lld dense "
            "/ %lld cold restarts (%lld exhausted, %lld aborted solves)\n",
            st.lp_recovery_refactorize, st.lp_recovery_tighten,
            st.lp_recovery_dense, st.lp_recovery_cold,
            st.lp_recovery_exhausted, st.lp_aborted_solves);
      if (st.resumed || st.resume_rejected > 0 || st.checkpoints_written > 0)
        std::printf(
            "     checkpoint: %s%d frontier nodes restored, %d snapshots "
            "written (%.3fs), %d rejected\n",
            st.resumed ? "resumed, " : "", static_cast<int>(st.restored_nodes),
            st.checkpoints_written, st.checkpoint_seconds,
            st.resume_rejected);
      if (st.audit_ran)
        std::printf(
            "     audit: incumbent %s, bound %s (root bound %.6g, max "
            "violation %.2g, %lld LP iterations, %.3fs)%s\n",
            st.audit_incumbent_ok ? "verified" : "not verified",
            st.audit_bound_ok ? "certified" : "uncertified",
            st.audit_root_bound, st.audit_max_violation,
            st.audit_lp_iterations,
            st.audit_seconds, st.audit_downgraded ? " [claim downgraded]" : "");
    };

    if (cmd == "synth") {
      const core::SynthesisResult r = synth.synthesize_bist(k);
      report(r, k);
      if (!verilog_path.empty()) {
        bist::VerilogOptions vo;
        vo.module_name = design.dfg.name() + "_bist";
        std::ofstream out(verilog_path);
        out << bist::export_verilog(design.dfg, design.modules,
                                    r.design.datapath, r.design.bist, vo);
        std::printf("wrote %s\n", verilog_path.c_str());
      }
      return 0;
    }
    if (cmd == "sweep") {
      for (int s = 1; s <= design.modules.num_modules(); ++s)
        report(synth.synthesize_bist(s), s);
      return 0;
    }
    if (cmd == "compare") {
      const int sessions = design.modules.num_modules();
      report(synth.synthesize_bist(sessions), sessions);
      for (const char* method : {"ADVAN", "RALLOC", "BITS"}) {
        const auto r = baselines::run_baseline(method, design.dfg,
                                               design.modules, sessions,
                                               bist::CostModel::paper_8bit());
        std::printf("%-7s area %d (+%.1f%%) T=%d S=%d B=%d C=%d mux=%d\n",
                    method, r.area.total(),
                    bist::overhead_percent(r.area, ref.design.area),
                    r.area.tpgs, r.area.srs, r.area.bilbos, r.area.cbilbos,
                    r.area.mux_inputs);
      }
      return 0;
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "advbist: %s\n", e.what());
    return 1;
  }
}
