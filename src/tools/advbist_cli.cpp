// advbist — command-line front end: Table-2 synthesis of built-in
// circuits and .dfg files (synth, sweep, compare, print), direct solves of
// MPS / CPLEX-LP files (solve), and the spool-dir job queue (submit,
// serve). usage() lists the commands and every solver flag; the solver
// flags come from the option table in src/ilp/options.cpp, and
// docs/solver.md documents each of them.
//
// SIGINT and SIGTERM cancel a solve cooperatively: it reports the best
// incumbent and bound found so far with status "cancelled" (snapshotted
// with --checkpoint). In serve mode they drain: the running job
// checkpoints, every unfinished job stays pending on disk, and a restarted
// serve resumes all of them.
#include <atomic>
#include <cerrno>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>

#include "baselines/baselines.hpp"
#include "bist/verilog.hpp"
#include "core/serve.hpp"
#include "core/synthesizer.hpp"
#include "hls/dfg_parser.hpp"
#include "lp/mps_reader.hpp"
#include "util/table.hpp"

using namespace advbist;

namespace {

// SIGINT/SIGTERM flip this flag; the solve controller polls it from every
// layer (an atomic store is all the handler does — async-signal-safe). In
// serve mode the same flag is the drain request.
std::atomic<bool> g_cancel{false};

void handle_cancel_signal(int) {
  g_cancel.store(true, std::memory_order_relaxed);
}

int usage() {
  std::fprintf(stderr,
               "usage: advbist <synth|sweep|compare|print> <circuit|file.dfg> "
               "[--k N] [--verilog out.v] [--checkpoint F] [--resume F] "
               "[solver flags]\n"
               "       advbist solve <file.mps|file.lp> [--checkpoint F] "
               "[--resume F] [solver flags]\n"
               "       advbist submit <dir> <circuit|file.dfg|file.mps"
               "|file.lp> [--job ID] [--k N] [solver flags]\n"
               "       advbist serve <dir> [--retries N] [--watch] "
               "[--poll S] [solver flags]\n"
               "solver flags (a serve job file takes them as key=value "
               "lines):\n");
  for (const ilp::OptionKey& k : ilp::option_keys())
    std::fprintf(stderr, "  --%-13s %-3s  %s\n", k.key, k.arg, k.help);
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

/// Hands each `--key value` pair of argv[first..] to `take(key, value)`,
/// which returns "" when it accepts the pair and otherwise says why not.
/// `switch_key` names the one key that takes no value (serve's --watch).
/// Prints the first complaint and returns false.
template <typename Take>
bool parse_flags(int argc, char** argv, int first, const Take& take,
                 std::string_view switch_key = {}) {
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string error;
    if (arg.size() < 3 || arg.substr(0, 2) != "--") {
      error = "unexpected argument '" + std::string(arg) + "'";
    } else if (arg.substr(2) == switch_key) {
      error = take(switch_key, "");
    } else if (i + 1 >= argc) {
      error = std::string(arg) + " wants a value";
    } else {
      error = take(arg.substr(2), argv[++i]);
    }
    if (!error.empty()) {
      std::fprintf(stderr, "advbist: %s\n", error.c_str());
      return false;
    }
  }
  return true;
}

/// --checkpoint and --resume of the single-solve commands. Paths stay out
/// of the option table, so a serve job file can never name a file.
std::string take_solver_flag(ilp::Options& opt, std::string_view key,
                             const char* value) {
  if (key == "checkpoint") {
    opt.checkpoint_path = value;
  } else if (key == "resume") {
    opt.resume_path = value;
  } else {
    return ilp::set_option(opt, key, value);
  }
  return "";
}

/// --k: BIST test sessions.
std::string take_sessions(const char* value, int& k) {
  long long v = 0;
  if (!parse_int(value, 1, INT_MAX, v)) return "k wants an integer >= 1";
  k = static_cast<int>(v);
  return "";
}

int cmd_submit(int argc, char** argv) {
  const std::string dir = argv[2];
  if (argc < 4) return usage();
  core::JobSpec spec;
  spec.circuit = argv[3];
  ilp::Options check;
  const auto take = [&](std::string_view key,
                        const char* value) -> std::string {
    if (key == "job") {
      spec.id = value;
      return "";
    }
    if (key == "k") return take_sessions(value, spec.k);
    std::string error = ilp::set_option(check, key, value);
    if (error.empty()) spec.options.emplace_back(key, value);
    return error;
  };
  if (!parse_flags(argc, argv, 4, take)) return usage();
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
  const auto take = [&](std::string_view key,
                        const char* value) -> std::string {
    long long n = 0;
    if (key == "watch") {
      so.watch = true;
    } else if (key == "retries") {
      if (!parse_int(value, 0, INT_MAX, n))
        return "retries wants an integer >= 0";
      so.max_retries = static_cast<int>(n);
    } else if (key == "poll") {
      char* end = nullptr;
      so.poll_seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(so.poll_seconds > 0) ||
          !std::isfinite(so.poll_seconds))
        return "poll wants seconds > 0";
    } else {
      return ilp::set_option(so.solver, key, value);
    }
    return "";
  };
  if (!parse_flags(argc, argv, 3, take, "watch")) return usage();
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
      "serve: %d completed, %d failed, %d malformed, %d retries, "
      "%d cache hits, %d resumed, %d checkpoints, %d snapshots rejected%s\n",
      st.jobs_completed, st.jobs_failed, st.jobs_malformed, st.retries,
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
  const auto take = [&](std::string_view key, const char* value) {
    return take_solver_flag(opt, key, value);
  };
  if (!parse_flags(argc, argv, 3, take)) return usage();

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
  const auto take = [&](std::string_view key,
                        const char* value) -> std::string {
    if (key == "k") return take_sessions(value, k);
    if (key == "verilog") {
      verilog_path = value;
      return "";
    }
    return take_solver_flag(options.solver, key, value);
  };
  if (!parse_flags(argc, argv, 3, take)) return usage();

  try {
    const hls::ParsedDesign design = hls::load_design(spec);
    if (cmd == "print") {
      std::fputs(hls::to_dfg_text(design.dfg, design.modules).c_str(), stdout);
      return 0;
    }
    if (cmd == "synth" && k > design.modules.num_modules()) {
      std::fprintf(stderr, "advbist: k wants an integer in [1, %d]\n",
                   design.modules.num_modules());
      return usage();
    }

    options.solver.cancel_flag = &g_cancel;
    std::signal(SIGINT, handle_cancel_signal);
    std::signal(SIGTERM, handle_cancel_signal);
    const core::Synthesizer synth(design.dfg, design.modules, options);
    // The k=0 reference is a printed result of sweep and compare only;
    // synth would spend a second solve (under the same --time) on it just
    // for the overhead percentage, so its rows go without one.
    core::SynthesisResult ref;
    if (cmd == "synth") {
      std::printf("%s: %d modules\n", design.dfg.name().c_str(),
                  design.modules.num_modules());
    } else {
      ref = synth.synthesize_reference();
      const std::string ref_limit =
          ref.hit_limit ? " (budget hit, bound " +
                              util::format_fixed(ref.best_bound, 0) + ")"
                        : "";
      if (ref.has_design)
        std::printf("%s: %d registers, %d modules, reference area %d%s\n",
                    design.dfg.name().c_str(), ref.design.area.num_registers,
                    design.modules.num_modules(), ref.design.area.total(),
                    ref_limit.c_str());
      else
        std::printf(
            "%s: %d modules, no reference design within the limit%s\n",
            design.dfg.name().c_str(), design.modules.num_modules(),
            ref_limit.c_str());
    }
    // " (+x%)" against the reference area, or nothing without a reference.
    const auto overhead = [&](const bist::AreaBreakdown& area) {
      return ref.has_design
                 ? " (+" +
                       util::format_fixed(
                           bist::overhead_percent(area, ref.design.area), 1) +
                       "%)"
                 : std::string();
    };

    auto report = [&](const core::SynthesisResult& r, int sessions) {
      if (!r.has_design) {
        std::printf("k=%d: no design within the limit * (%s, %lld nodes, "
                    "bound %s)\n",
                    sessions, ilp::to_string(r.status).c_str(), r.nodes,
                    util::format_fixed(r.best_bound, 0).c_str());
      } else {
        // A limit-hit row is only bounded: print its bound and gap with it.
        const std::string limit =
            r.hit_limit
                ? ", bound " + util::format_fixed(r.best_bound, 0) + ", gap " +
                      util::format_fixed(100.0 * (r.objective - r.best_bound) /
                                             r.objective,
                                         1) +
                      "%"
                : "";
        std::printf(
            "k=%d: area %d%s T=%d S=%d B=%d C=%d mux=%d %s (%s, %lld "
            "nodes%s)\n",
            sessions, r.design.area.total(), overhead(r.design.area).c_str(),
            r.design.area.tpgs, r.design.area.srs, r.design.area.bilbos,
            r.design.area.cbilbos, r.design.area.mux_inputs,
            r.hit_limit ? "*" : "", ilp::to_string(r.status).c_str(), r.nodes,
            limit.c_str());
      }
      const ilp::Stats& st = r.solver_stats;
      if (st.lp_refactorizations > 0)
        std::printf(
            "     lp: %lld iterations (%lld phase-1 / %lld phase-2 / %lld "
            "dual), %lld refactorizations, fill %.3f, %lld pivot "
            "rejections, %d threads\n",
            st.lp_iterations, st.lp_primal_phase1_iterations,
            st.lp_primal_phase2_iterations, st.lp_dual_iterations,
            st.lp_refactorizations, st.lp_fill_ratio, st.lp_pivot_rejections,
            st.threads);
      if (st.lp_refactorizations > 0)
        std::printf(
            "     refactor causes: %lld update cap, %lld U growth, %lld "
            "stability, %lld row deletions, %lld infeasibility "
            "certifications, %lld dual rays, %lld audit refreshes, %lld "
            "basis restores (+%lld from cached factors)\n",
            st.lp_refactor_update_cap, st.lp_refactor_u_growth,
            st.lp_refactor_stability, st.lp_refactor_delete_rows,
            st.lp_refactor_certify, st.lp_refactor_dual_ray,
            st.lp_refactor_refresh, st.lp_refactor_set_basis,
            st.lp_set_basis_cached);
      if (st.lp_dual_solves > 0)
        std::printf(
            "     dual: %lld re-solves (%lld fell back to primal), %lld "
            "bound flips, %lld pricing resets, %lld perturbation cleanup "
            "pivots, %lld cutoff stops, %lld rays certified in place, %lld "
            "cut rows aged out of the LPs (peak %d rows)\n",
            st.lp_dual_solves, st.lp_dual_fallbacks, st.lp_bound_flips,
            st.lp_devex_resets, st.lp_perturbation_cleanup_pivots,
            st.lp_cutoff_stops, st.lp_rays_certified, st.lp_rows_deleted,
            st.lp_peak_rows);
      if (st.strong_branch_probed > 0)
        std::printf(
            "     branching: %d strong-branch probes seeded the shared "
            "pseudocosts (%d variables fixed by infeasible probes)\n",
            st.strong_branch_probed, st.strong_branch_fixed);
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
      std::printf("     phases: presolve %.2fs, root cuts %.2fs, strong "
                  "branch %.2fs, search %.2fs, audit %.2fs\n",
                  st.presolve_seconds, st.root_cut_seconds,
                  st.strong_branch_seconds, st.search_seconds,
                  st.audit_seconds);
      if (st.termination != util::StopReason::kNone)
        std::printf("     stopped: %s%s%s\n", util::to_string(st.termination),
                    st.shed_cuts ? ", cuts shed" : "",
                    st.shed_diving ? ", diving shed" : "");
      if (st.peak_memory_bytes > 0 && st.termination != util::StopReason::kNone)
        std::printf("     memory: peak %.1f MB accounted\n",
                    static_cast<double>(st.peak_memory_bytes) / (1024 * 1024));
      const long long recoveries =
          st.lp_recovery_refactorize + st.lp_recovery_tighten +
          st.lp_recovery_cold;
      if (recoveries > 0 || st.lp_recovery_exhausted > 0)
        std::printf(
            "     lp recovery: %lld refactorize / %lld tighten / %lld cold "
            "restarts (%lld exhausted, %lld aborted solves)\n",
            st.lp_recovery_refactorize, st.lp_recovery_tighten,
            st.lp_recovery_cold, st.lp_recovery_exhausted,
            st.lp_aborted_solves);
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
            st.audit_root_bound + r.objective_offset, st.audit_max_violation,
            st.audit_lp_iterations,
            st.audit_seconds, st.audit_downgraded ? " [claim downgraded]" : "");
    };

    if (cmd == "synth") {
      const core::SynthesisResult r = synth.synthesize_bist(k);
      report(r, k);
      if (!verilog_path.empty()) {
        if (!r.has_design) {
          std::fprintf(stderr, "advbist: no design to write to %s\n",
                       verilog_path.c_str());
          return 1;
        }
        bist::VerilogOptions vo;
        vo.module_name = design.dfg.name() + "_bist";
        std::ofstream out(verilog_path);
        out << bist::export_verilog(design.dfg, design.modules,
                                    r.design.datapath, r.design.bist, vo);
        out.close();
        if (!out) {
          std::fprintf(stderr, "advbist: cannot write %s\n",
                       verilog_path.c_str());
          return 1;
        }
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
        std::printf("%-7s area %d%s T=%d S=%d B=%d C=%d mux=%d\n", method,
                    r.area.total(), overhead(r.area).c_str(), r.area.tpgs,
                    r.area.srs, r.area.bilbos, r.area.cbilbos,
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
