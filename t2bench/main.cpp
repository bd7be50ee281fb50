// t2bench: the Table-2 benchmark program.
//
//   t2bench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out F]
//
// One process, one closed-loop client: the workload's jobs run one at a
// time through core::Synthesizer, each only after the previous returned.
// With --trace 0 the job list runs pass after pass, each pass under fresh
// seeded orders, until S seconds have passed; the end-to-end metrics are
// taken over the passes. With --trace 1 one untraced pass is followed by
// the traced replica of the same pass and the LP replay; the per-layer
// metrics come from those, and the spans go to F. Every output is checked.
// Per-job lines go to stderr; the last line of stdout is one JSON object.
// See t2bench/README.md for the workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "calibration.hpp"
#include "core/formulation.hpp"
#include "traced.hpp"
#include "util/stopwatch.hpp"
#include "workloads.hpp"

namespace {

using namespace t2bench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[i + 1];
    std::size_t used = 0;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value, &used);
      have_seed = used == value.size();
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value, &used);
      if (used != value.size()) a.seconds = 0.0;
    } else if (flag == "--trace") {
      a.trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || !(a.seconds > 0) || a.trace < 0)
    throw std::invalid_argument(
        "usage: t2bench --workload NAME --seed N --seconds S --trace 0|1 "
        "[--trace-out FILE]");
  return a;
}

/// Each job's dfg text for one pass: every circuit shuffled once.
std::vector<std::string> pass_texts(const Workload& w, std::uint64_t seed,
                                    int pass) {
  std::map<std::string, std::string> by_circuit;
  std::vector<std::string> texts;
  for (const Job& job : w.jobs) {
    auto it = by_circuit.find(job.circuit);
    if (it == by_circuit.end())
      it = by_circuit
               .emplace(job.circuit,
                        permuted_dfg_text(job.circuit,
                                          permutation_seed(seed, pass,
                                                           job.circuit)))
               .first;
    texts.push_back(it->second);
  }
  return texts;
}

/// Set-up of one pass: shuffle and parse every circuit, build every job's
/// ILP model.
std::vector<hls::ParsedDesign> set_up(const Workload& w, std::uint64_t seed,
                                      int pass) {
  std::vector<hls::ParsedDesign> designs;
  for (const std::string& text : pass_texts(w, seed, pass))
    designs.push_back(hls::parse_dfg_text(text));
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    core::FormulationOptions fo;
    fo.include_bist = w.jobs[i].k > 0;
    fo.k = std::max(w.jobs[i].k, 1);
    const core::Formulation f(designs[i].dfg, designs[i].modules, fo);
    if (f.model().num_variables() == 0)
      throw std::runtime_error("empty model for " + w.jobs[i].circuit);
  }
  return designs;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void log_job(const char* tag, int pass, const Job& job, const JobResult& r) {
  std::fprintf(stderr,
               "%s %d %-8s k=%d %8.3fs area %d bound %.1f nodes %lld lp %lld "
               "%s%s%s\n",
               tag, pass, job.circuit.c_str(), job.k, r.seconds, r.area,
               r.best_bound, r.stats.nodes, r.stats.lp_iterations,
               ilp::to_string(r.status).c_str(), r.ok ? "" : " FAILED: ",
               r.error.c_str());
}

struct Tally {
  long long attempted = 0;
  long long failed = 0;
  void add(const JobResult& r) {
    ++attempted;
    failed += r.ok ? 0 : 1;
  }
};

std::vector<JobResult> run_pass(const Workload& w, std::uint64_t seed,
                                int pass, Tally& tally, Calibration& cal) {
  const std::vector<hls::ParsedDesign> designs = set_up(w, seed, pass);
  std::vector<JobResult> results;
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    cal.sample();
    results.push_back(run_job(w, w.jobs[i], designs[i]));
    log_job("pass", pass, w.jobs[i], results.back());
    tally.add(results.back());
  }
  return results;
}

class Metrics {
 public:
  void add(const char* name, double value, const char* unit) {
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  json_.empty() ? "" : ", ", name, value, unit);
    json_ += buf;
  }
  void print(const Tally& tally) const {
    std::printf(
        "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
        "\"metrics\": {%s}}\n",
        tally.failed == 0 ? "true" : "false", tally.attempted, tally.failed,
        json_.c_str());
  }

 private:
  std::string json_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// --trace 0: the end-to-end metrics.
// ---------------------------------------------------------------------------
void run_untraced(const Workload& w, const Args& args) {
  Calibration cal;
  // Set-up is timed several times and reported as the median.
  std::vector<double> setup_times;
  for (int rep = 0; rep < 25; ++rep) {
    cal.sample();
    const advbist::util::Stopwatch watch;
    (void)set_up(w, args.seed, 0);
    setup_times.push_back(watch.seconds());
  }

  Tally tally;
  std::vector<double> overheads, bound_pcts;
  std::vector<std::vector<double>> job_seconds(w.jobs.size());
  const advbist::util::Stopwatch watch;
  int passes = 0;
  for (; passes == 0 || watch.seconds() < args.seconds; ++passes) {
    const std::vector<JobResult> results =
        run_pass(w, args.seed, passes, tally, cal);
    for (std::size_t i = 0; i < results.size(); ++i) {
      job_seconds[i].push_back(results[i].seconds);
      bound_pcts.push_back(100.0 *
                           ratio(results[i].best_bound, results[i].objective));
    }
    overheads.push_back(mean_overhead_pct(w, results));
  }

  // Each job's median time over the run's orders: a median, unlike a mean,
  // is not dragged by the one order in twenty whose tree blows up. Times
  // are in calibrated seconds (calibration.hpp).
  double wall = 0.0, slowest = 0.0;
  for (const std::vector<double>& seconds : job_seconds) {
    wall += median(seconds);
    slowest = std::max(slowest, median(seconds));
  }
  std::fprintf(stderr,
               "%d passes in %.1fs; job medians %.4fs raw; calibration "
               "kernel %.3fms\n",
               passes, watch.seconds(), wall, 1e3 * cal.seconds());
  Metrics m;
  m.add("wall_s", cal.calibrate(wall), "s");
  m.add("slowest_job_s", cal.calibrate(slowest), "s");
  m.add("bound_pct", mean(bound_pcts), "%");
  m.add("overhead_pct", mean(overheads), "%");
  m.add("ok_frac", 1.0 - ratio(tally.failed, tally.attempted), "ratio");
  m.add("peak_rss_mb", peak_rss_mb(), "MiB");
  m.add("setup_s", cal.calibrate(median(setup_times)), "s");
  m.print(tally);
}

// ---------------------------------------------------------------------------
// --trace 1: the per-layer metrics.
// ---------------------------------------------------------------------------
void run_traced(const Workload& w, const Args& args) {
  Tally tally;
  Calibration cal;
  const std::vector<JobResult> plain = run_pass(w, args.seed, 0, tally, cal);
  const std::vector<std::string> texts = pass_texts(w, args.seed, 0);

  Trace trace;
  std::vector<TracedJob> traced;
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    traced.push_back(run_job_traced(w, w.jobs[i], texts[i], trace,
                                    static_cast<int>(i)));
    JobResult& r = traced.back().result;
    // A serial solve is deterministic: the replica must retrace the
    // product path node for node.
    if (r.ok &&
        (r.stats.nodes != plain[i].stats.nodes ||
         r.stats.lp_iterations != plain[i].stats.lp_iterations ||
         r.objective != plain[i].objective)) {
      r.ok = false;
      r.error = "traced replica diverged from the synthesizer";
    }
    log_job("traced", 0, w.jobs[i], r);
    tally.add(r);
  }
  const double trace_end = trace.now();
  ReplayStats replay;
  for (std::size_t i = 0; i < traced.size(); ++i)
    if (traced[i].formulation)
      lp_replay(traced[i].formulation->model(), args.seed, trace,
                static_cast<int>(i), replay);

  // Per-layer self time, and how much of each job its layer spans cover.
  const std::vector<Span>& spans = trace.spans();
  const std::vector<double> self = trace.self_times();
  std::map<std::string, double> layer_self, call_total;
  double min_coverage = 1.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string& name = spans[i].name;
    layer_self[name.substr(0, name.find('.'))] += self[i];
    call_total[name] += spans[i].end - spans[i].start;
    if (name == "job")
      min_coverage = std::min(
          min_coverage, 1.0 - ratio(self[i], spans[i].end - spans[i].start));
  }
  if (!args.trace_out.empty() && !trace.write(args.trace_out))
    throw std::runtime_error("cannot write " + args.trace_out);

  ilp::Stats sum;
  double fill = 0.0, gap_closed = 0.0, cutoff_gap = 0.0, plain_wall = 0.0,
         traced_wall = 0.0;
  long long rows = 0, cols = 0, separated = 0, applied = 0, recoveries = 0;
  int cutoffs = 0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const ilp::Stats& s = traced[i].result.stats;
    sum.nodes += s.nodes;
    sum.lp_iterations += s.lp_iterations;
    sum.lp_dual_iterations += s.lp_dual_iterations;
    sum.lp_primal_phase1_iterations +=
        s.lp_primal_phase1_iterations + s.lp_primal_phase2_iterations;
    sum.lp_refactorizations += s.lp_refactorizations;
    sum.lp_dual_solves += s.lp_dual_solves;
    sum.lp_dual_fallbacks += s.lp_dual_fallbacks;
    sum.lp_pivot_rejections += s.lp_pivot_rejections;
    sum.lp_peak_rows = std::max(sum.lp_peak_rows, s.lp_peak_rows);
    sum.reliability_probed += s.reliability_probed;
    sum.dropped_nodes += s.dropped_nodes;
    sum.strong_branch_probed += s.strong_branch_probed;
    sum.seconds += s.seconds;
    sum.search_seconds += s.search_seconds;
    sum.root_cut_seconds += s.root_cut_seconds;
    sum.audit_seconds += s.audit_seconds;
    sum.presolve_seconds += s.presolve_seconds;
    sum.strong_branch_seconds += s.strong_branch_seconds;
    recoveries += s.lp_recovery_refactorize + s.lp_recovery_tighten +
                  s.lp_recovery_dense + s.lp_recovery_cold;
    fill += s.lp_fill_ratio / static_cast<double>(traced.size());
    gap_closed += s.root_gap_closed / static_cast<double>(traced.size());
    separated += s.cuts_clique_separated + s.cuts_cover_separated +
                 s.cuts_gomory_separated + s.cuts_odd_cycle_separated;
    applied += s.cuts_clique_applied + s.cuts_cover_applied +
               s.cuts_gomory_applied + s.cuts_odd_cycle_applied;
    if (traced[i].formulation) {
      rows += traced[i].formulation->model().num_constraints();
      cols += traced[i].formulation->model().num_variables();
    }
    if (traced[i].cutoff_area > 0 && traced[i].result.area > 0) {
      cutoff_gap += 100.0 * (traced[i].cutoff_area - traced[i].result.area) /
                    traced[i].result.area;
      ++cutoffs;
    }
    plain_wall += plain[i].seconds;
    traced_wall += traced[i].result.seconds;
  }
  std::fprintf(stderr, "traced jobs %.3fs, LP replay %.3fs\n", traced_wall,
               trace.now() - trace_end);

  Metrics m;
  m.add("lp.iterations", sum.lp_iterations, "count");
  m.add("lp.dual_iterations", sum.lp_dual_iterations, "count");
  m.add("lp.primal_iterations", sum.lp_primal_phase1_iterations, "count");
  m.add("lp.refactorizations", sum.lp_refactorizations, "count");
  m.add("lp.pivots_per_refactor",
        ratio(sum.lp_iterations, sum.lp_refactorizations), "count");
  m.add("lp.dual_solves", sum.lp_dual_solves, "count");
  m.add("lp.dual_fallback_ratio",
        ratio(sum.lp_dual_fallbacks, sum.lp_dual_solves), "ratio");
  m.add("lp.pivot_rejections", sum.lp_pivot_rejections, "count");
  m.add("lp.fill_ratio", fill, "ratio");
  m.add("lp.recoveries", recoveries, "count");
  m.add("lp.peak_rows", sum.lp_peak_rows, "count");
  m.add("lp.us_per_iteration", 1e6 * ratio(sum.seconds, sum.lp_iterations),
        "us");
  m.add("lp.replay.resolve_us.p50", quantile(replay.resolve_us, 0.5), "us");
  m.add("lp.replay.resolve_us.p99", quantile(replay.resolve_us, 0.99), "us");
  m.add("lp.replay.us_per_pivot",
        1e6 * ratio(replay.resolve_s, replay.resolve_pivots), "us");
  m.add("lp.replay.refactor_us.p50", quantile(replay.refactor_us, 0.5), "us");
  m.add("lp.replay.ftran_us.p50", quantile(replay.ftran_us, 0.5), "us");
  m.add("lp.replay.btran_us.p50", quantile(replay.btran_us, 0.5), "us");
  m.add("lp.replay.cold_solve_s", replay.cold_solve_s, "s");
  m.add("ilp.search_s", sum.search_seconds, "s");
  m.add("ilp.nodes", sum.nodes, "count");
  m.add("ilp.nodes_per_s", ratio(sum.nodes, sum.search_seconds), "1/s");
  m.add("ilp.rel_probes", sum.reliability_probed, "count");
  m.add("ilp.dropped_nodes", sum.dropped_nodes, "count");
  m.add("ilp.root_cut_s", sum.root_cut_seconds, "s");
  m.add("ilp.cuts_applied", applied, "count");
  m.add("ilp.cut_apply_ratio", ratio(applied, separated), "ratio");
  m.add("ilp.root_gap_closed", gap_closed, "ratio");
  m.add("ilp.audit_s", sum.audit_seconds, "s");
  m.add("ilp.presolve_s", sum.presolve_seconds, "s");
  m.add("ilp.strong_branch_s", sum.strong_branch_seconds, "s");
  m.add("ilp.sb_probes", sum.strong_branch_probed, "count");
  m.add("baselines.cutoff_gap_pct", ratio(cutoff_gap, cutoffs), "%");
  m.add("hls.parse_s", call_total["hls.parse"], "s");
  m.add("core.formulation_s", call_total["core.formulation"], "s");
  m.add("core.model_rows", rows, "count");
  m.add("core.model_cols", cols, "count");
  m.add("baselines.s", layer_self["baselines"], "s");
  m.add("core.decode_s", call_total["core.decode"], "s");
  m.add("bist.validate_s", call_total["bist.validate"], "s");
  for (const char* layer : {"hls", "core", "baselines", "ilp", "lp", "bist"})
    m.add((std::string(layer) + ".self_s").c_str(), layer_self[layer], "s");
  m.add("trace.uncovered_s", layer_self["job"], "s");
  m.add("trace.coverage_pct", 100.0 * min_coverage, "%");
  m.add("machine.cal_ms", 1e3 * cal.seconds(), "ms");
  m.add("trace.overhead_pct", 100.0 * (ratio(traced_wall, plain_wall) - 1.0),
        "%");
  m.print(tally);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Workload w = workload_by_name(args.workload);
    if (args.trace == 1)
      run_traced(w, args);
    else
      run_untraced(w, args);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "t2bench: %s\n", e.what());
    return 2;
  }
}
