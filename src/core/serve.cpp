#include "core/serve.hpp"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <thread>

#include "core/synthesizer.hpp"
#include "hls/dfg_parser.hpp"
#include "lp/mps_reader.hpp"
#include "lp/sanitizer.hpp"
#include "util/logging.hpp"
#include "util/snapshot.hpp"

namespace advbist::core {

namespace fs = std::filesystem;

namespace {

bool valid_job_id(const std::string& id) {
  if (id.empty() || id.size() > 128) return false;
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

bool has_suffix(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Untrusted-model jobs: circuit points at an instance file instead of a
/// design; the job runs the ILP solver directly behind the reader +
/// sanitizer gate.
bool is_model_job(const std::string& circuit) {
  return has_suffix(circuit, ".mps") || has_suffix(circuit, ".lp");
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// reason.json for a quarantined job: what was rejected and exactly where.
std::string reason_json(const std::string& id, const std::string& kind,
                        const std::string& detail,
                        const lp::ParseError* parse,
                        const lp::ModelDiagnostics* diag) {
  std::ostringstream out;
  out << "{\n  \"id\": \"" << json_escape(id) << "\",\n"
      << "  \"kind\": \"" << json_escape(kind) << "\",\n"
      << "  \"detail\": \"" << json_escape(detail) << "\"";
  if (parse != nullptr) {
    out << ",\n  \"parse\": {\"line\": " << parse->line
        << ", \"column\": " << parse->column << ", \"message\": \""
        << json_escape(parse->message) << "\"}";
  }
  if (diag != nullptr) {
    out << ",\n  \"sanitizer\": {"
        << "\"class\": \"" << lp::to_string(diag->cls) << "\""
        << ", \"proven_infeasible\": "
        << (diag->proven_infeasible ? "true" : "false")
        << ", \"nonfinite_values\": " << diag->nonfinite_values
        << ", \"duplicate_terms_merged\": " << diag->duplicate_terms_merged
        << ", \"zero_coeffs_dropped\": " << diag->zero_coeffs_dropped
        << ", \"vacuous_rows_dropped\": " << diag->vacuous_rows_dropped
        << ", \"contradictory_rows\": " << diag->contradictory_rows
        << ", \"crossed_bounds\": " << diag->crossed_bounds
        << ", \"invalid_indices\": " << diag->invalid_indices
        << ", \"fingerprint\": " << diag->fingerprint()
        << ", \"first_issue\": \"" << json_escape(diag->first_issue) << "\"}";
  }
  out << "\n}\n";
  return out.str();
}

/// Cache key: hash of the canonical .dfg text plus the session count — the
/// same (circuit, k) pair always produces the same formulation, so this IS
/// a model hash, computed without building the ILP.
std::string cache_key(const hls::ParsedDesign& design, int k) {
  std::string canon = hls::to_dfg_text(design.dfg, design.modules);
  canon += "\nk=" + std::to_string(k);
  const std::uint64_t h = util::fnv1a64(
      reinterpret_cast<const unsigned char*>(canon.data()), canon.size());
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string format_result(const JobOutcome& o) {
  std::ostringstream out;
  out << "id=" << o.id << "\n"
      << "status=" << o.status << "\n"
      << "objective=" << o.objective << "\n"
      << "bound=" << o.best_bound << "\n"
      << "area=" << o.area << "\n"
      << "nodes=" << o.nodes << "\n"
      << "attempts=" << o.attempts << "\n"
      << "resumed=" << (o.resumed ? 1 : 0) << "\n"
      << "verified=" << (o.verified ? 1 : 0) << "\n"
      << "cached=" << (o.from_cache ? 1 : 0) << "\n";
  return out.str();
}

bool drain_requested(const ServeOptions& opt) {
  return opt.drain != nullptr && opt.drain->load(std::memory_order_relaxed);
}

/// Sleeps `seconds`, waking early (returning true) if drain is raised.
bool interruptible_sleep(const ServeOptions& opt, double seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (drain_requested(opt)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return drain_requested(opt);
}

/// The pending job id that sorts first, or nullopt when jobs/ holds none.
/// The spool is the queue: serve runs jobs in this name order.
std::optional<std::string> first_pending(const fs::path& jobs_dir) {
  std::optional<std::string> first;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(jobs_dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& p = entry.path();
    if (p.extension() != ".job") continue;
    std::string id = p.stem().string();
    if (!first || id < *first) first = std::move(id);
  }
  return first;
}

/// One solve attempt of a job: the outcome fields its kind fills in
/// (status, objective, bound, area, nodes), whether the solve proved
/// optimality, and the solver's stats.
struct Attempt {
  JobOutcome outcome;
  bool optimal = false;
  ilp::Stats stats;
};

/// A job whose input loaded: its result-cache key and one solve attempt
/// under the given solver options.
struct LoadedJob {
  std::string key;
  std::function<Attempt(const ilp::Options&)> attempt;
};

/// Circuit jobs: a built-in or .dfg design synthesized at the job's k.
/// A circuit that does not load is quarantined (nullopt).
template <typename Quarantine>
std::optional<LoadedJob> load_circuit_job(const JobSpec& spec,
                                          const Quarantine& quarantine) {
  hls::ParsedDesign design;
  try {
    design = hls::load_design(spec.circuit);
  } catch (const std::exception& e) {
    util::log_warn() << "serve: job " << spec.id << ": " << e.what();
    JobOutcome bad;
    bad.status = "bad-circuit";
    quarantine(spec, std::move(bad),
               reason_json(spec.id, "bad-circuit", e.what(), nullptr,
                           nullptr));
    return std::nullopt;
  }
  LoadedJob job;
  job.key = cache_key(design, spec.k);
  job.attempt = [design = std::move(design), k = spec.k](
                    const ilp::Options& solver) {
    SynthesizerOptions sopt;
    sopt.solver = solver;
    const Synthesizer synth(design.dfg, design.modules, sopt);
    const SynthesisResult r = synth.synthesize_bist(k);
    Attempt a;
    a.outcome.status = ilp::to_string(r.status);
    a.outcome.objective = r.objective;
    a.outcome.best_bound = r.best_bound;
    a.outcome.area = r.design.area.total();
    a.outcome.nodes = r.nodes;
    a.optimal = r.is_optimal();
    a.stats = r.solver_stats;
    return a;
  };
  return job;
}

/// Untrusted-model jobs: an .mps/.lp instance solved by the ILP solver
/// directly, behind the defensive reader and the sanitizer gate. A file
/// that does not parse or that the gate rejects is quarantined; a model the
/// gate proves infeasible is finished with that verdict. Both return
/// nullopt.
template <typename Finish, typename Quarantine>
std::optional<LoadedJob> load_model_job(const JobSpec& spec,
                                        const Finish& finish,
                                        const Quarantine& quarantine) {
  lp::ReadResult rr = lp::read_model_file(spec.circuit);
  if (!rr.ok) {
    util::log_warn() << "serve: job " << spec.id << ": " << spec.circuit
                     << ": " << rr.error.to_string();
    JobOutcome bad;
    bad.status = "parse-error";
    quarantine(spec, std::move(bad),
               reason_json(spec.id, "parse-error", spec.circuit, &rr.error,
                           nullptr));
    return std::nullopt;
  }
  lp::SanitizeResult san = lp::sanitize_model(rr.model);
  if (san.diag.cls == lp::ModelClass::kRejected) {
    util::log_warn() << "serve: job " << spec.id << ": sanitizer rejected ("
                     << san.diag.first_issue << ")";
    JobOutcome bad;
    bad.status = ilp::to_string(ilp::SolveStatus::kInvalidModel);
    quarantine(spec, std::move(bad),
               reason_json(spec.id, "invalid-model", san.diag.summary(),
                           nullptr, &san.diag));
    return std::nullopt;
  }
  if (san.diag.proven_infeasible) {
    // Decidable before any solve: an honest completed verdict, not a
    // failure (the file parsed fine; its model just has no feasible point).
    JobOutcome o;
    o.status = ilp::to_string(ilp::SolveStatus::kInfeasible);
    finish(spec, std::move(o), /*failed=*/false);
    return std::nullopt;
  }

  // Cache key: hash of the canonical MPS serialization of the SANITIZED
  // model (formatting/comment-invariant) mixed with the repair
  // fingerprint, so a repaired model never aliases the clean model with
  // identical post-repair bytes.
  std::string canon = lp::write_mps(san.model, "CACHE");
  canon += "\nsan=" + std::to_string(san.diag.fingerprint());
  const std::uint64_t h = util::fnv1a64(
      reinterpret_cast<const unsigned char*>(canon.data()), canon.size());
  char keybuf[20];
  std::snprintf(keybuf, sizeof keybuf, "%016llx",
                static_cast<unsigned long long>(h));
  LoadedJob job;
  job.key = keybuf;
  // The objective the user asked about: the reader folded OBJSENSE MAX by
  // negating the objective, and the offset lives outside the model.
  job.attempt = [model = std::move(san.model), maximize = rr.maximize,
                 offset = rr.objective_offset](const ilp::Options& solver) {
    const auto user_value = [&](double z) {
      return (maximize ? -z : z) + offset;
    };
    const ilp::Solution r = ilp::Solver(solver).solve(model);
    Attempt a;
    a.outcome.status = ilp::to_string(r.status);
    if (r.has_solution()) a.outcome.objective = user_value(r.objective);
    a.outcome.best_bound = user_value(r.stats.best_bound);
    a.outcome.nodes = r.stats.nodes;
    a.optimal = r.is_optimal();
    a.stats = r.stats;
    return a;
  };
  return job;
}

/// Serves one loaded job: a verified optimum already cached under its key
/// answers it without a solve; otherwise attempts run until one finishes.
/// Each attempt resumes from the job's checkpoint (the solver treats a
/// missing file as a cold start), so an immediate retry makes monotone
/// progress. An attempt that throws quarantines the job as a solve-error.
/// Returns false when a drain interrupted the job — it then stays pending
/// on disk and the caller stops the serve loop.
template <typename Finish, typename Quarantine>
bool run_job(const ServeOptions& options, const JobSpec& spec,
             const LoadedJob& job, ServeStats& stats,
             const fs::path& cache_dir, const Finish& finish,
             const Quarantine& quarantine) {
  const fs::path cache_path = cache_dir / (job.key + ".result");
  if (std::optional<JobOutcome> hit = read_result_file(cache_path.string())) {
    hit->from_cache = true;
    hit->attempts = 0;
    ++stats.cache_hits;
    finish(spec, std::move(*hit), /*failed=*/false);
    return true;
  }

  bool job_resumed = false;
  bool left_pending = false;
  int attempt = 0;
  while (true) {
    if (drain_requested(options)) {
      left_pending = true;
      break;
    }
    ++attempt;
    Attempt a;
    try {
      a = job.attempt(job_solver_options(options, spec));
    } catch (const std::exception& e) {
      util::log_warn() << "serve: job " << spec.id << ": " << e.what();
      JobOutcome bad;
      bad.status = "solve-error";
      bad.attempts = attempt;
      bad.resumed = job_resumed;
      quarantine(spec, std::move(bad),
                 reason_json(spec.id, "solve-error", e.what(), nullptr,
                             nullptr));
      break;
    }
    const ilp::Stats& st = a.stats;
    stats.checkpoints_written += st.checkpoints_written;
    stats.resume_rejected += st.resume_rejected;
    if (st.resumed) job_resumed = true;
    JobOutcome& outcome = a.outcome;
    outcome.attempts = attempt;
    outcome.resumed = job_resumed;
    outcome.verified = st.audit_incumbent_ok;

    if (drain_requested(options) ||
        st.termination == util::StopReason::kCancelled) {
      // The solve checkpointed its frontier on the way out; the job
      // stays pending on disk for the restarted serve to resume.
      left_pending = true;
      break;
    }
    if (st.termination == util::StopReason::kNone) {
      finish(spec, outcome, /*failed=*/false);
      if (a.optimal && st.audit_incumbent_ok)
        util::write_file_atomic(cache_path.string(), format_result(outcome));
      if (st.memory_unreleased_bytes > 0)
        util::log_warn() << "serve: job " << spec.id << " left "
                         << st.memory_unreleased_bytes
                         << " bytes accounted at teardown";
      break;
    }
    if (attempt > options.max_retries) {
      finish(spec, std::move(outcome), /*failed=*/true);
      break;
    }
    ++stats.retries;
  }
  if (job_resumed) ++stats.resumed_jobs;
  return !left_pending;
}

}  // namespace

bool submit_job(const std::string& dir, const JobSpec& spec) {
  if (!valid_job_id(spec.id) || spec.circuit.empty() || spec.k < 1)
    return false;
  std::error_code ec;
  fs::create_directories(fs::path(dir) / "jobs", ec);
  if (ec) return false;
  std::ostringstream out;
  out << "circuit=" << spec.circuit << "\n"
      << "k=" << spec.k << "\n";
  ilp::Options check;
  for (const auto& [key, value] : spec.options) {
    if (!ilp::set_option(check, key, value).empty()) return false;
    out << key << "=" << value << "\n";
  }
  return util::write_file_atomic(
      (fs::path(dir) / "jobs" / (spec.id + ".job")).string(), out.str());
}

std::optional<JobSpec> parse_job_file(const std::string& path,
                                      const std::string& id) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  JobSpec spec;
  spec.id = id;
  ilp::Options check;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = line.substr(0, eq);
    const std::string val = line.substr(eq + 1);
    if (key == "circuit") {
      spec.circuit = val;
    } else if (key == "k") {
      char* end = nullptr;
      spec.k = static_cast<int>(std::strtol(val.c_str(), &end, 10));
      if (end == nullptr || *end != '\0' || spec.k < 1) return std::nullopt;
    } else if (ilp::set_option(check, key, val).empty()) {
      spec.options.emplace_back(key, val);
    } else {
      return std::nullopt;  // unknown keys are malformed, not ignored
    }
  }
  if (spec.circuit.empty()) return std::nullopt;
  return spec;
}

ilp::Options job_solver_options(const ServeOptions& options,
                                const JobSpec& spec) {
  ilp::Options o = options.solver;
  // parse_job_file accepted every override, so none can fail here.
  for (const auto& [key, value] : spec.options)
    static_cast<void>(ilp::set_option(o, key, value));
  const std::string ck =
      (fs::path(options.dir) / "ckpt" / (spec.id + ".ck")).string();
  o.checkpoint_path = ck;
  o.resume_path = ck;
  o.cancel_flag = options.drain;
  return o;
}

std::optional<JobOutcome> read_result_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  JobOutcome o;
  std::string line;
  bool saw_status = false;
  while (std::getline(in, line)) {
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    const std::string val = line.substr(eq + 1);
    if (key == "id") o.id = val;
    else if (key == "status") { o.status = val; saw_status = true; }
    else if (key == "objective") o.objective = std::atof(val.c_str());
    else if (key == "bound") o.best_bound = std::atof(val.c_str());
    else if (key == "area") o.area = std::atoi(val.c_str());
    else if (key == "nodes") o.nodes = std::atoll(val.c_str());
    else if (key == "attempts") o.attempts = std::atoi(val.c_str());
    else if (key == "resumed") o.resumed = val == "1";
    else if (key == "verified") o.verified = val == "1";
    else if (key == "cached") o.from_cache = val == "1";
  }
  if (!saw_status) return std::nullopt;
  return o;
}

ServeStats serve(const ServeOptions& options) {
  ServeStats stats;
  const fs::path root(options.dir);
  const fs::path jobs_dir = root / "jobs";
  const fs::path ckpt_dir = root / "ckpt";
  const fs::path done_dir = root / "done";
  const fs::path failed_dir = root / "failed";
  const fs::path cache_dir = root / "cache";
  std::error_code ec;
  for (const fs::path& d :
       {jobs_dir, ckpt_dir, done_dir, failed_dir, cache_dir})
    fs::create_directories(d, ec);

  const auto finish = [&](const JobSpec& spec, JobOutcome outcome,
                          bool failed) {
    outcome.id = spec.id;
    const fs::path dest =
        (failed ? failed_dir : done_dir) / (spec.id + ".result");
    util::write_file_atomic(dest.string(), format_result(outcome));
    fs::remove(jobs_dir / (spec.id + ".job"), ec);
    fs::remove(ckpt_dir / (spec.id + ".ck"), ec);  // no stale state behind
    (failed ? stats.jobs_failed : stats.jobs_completed) += 1;
    stats.outcomes.push_back(std::move(outcome));
  };

  // Quarantine: the job is rejected before any solve attempt, or because
  // an attempt threw. The reason lands machine-readable in
  // failed/<id>.reason.json and the offending spec is preserved next to it
  // (finish() removes the pending copy).
  const auto quarantine = [&](const JobSpec& spec, JobOutcome outcome,
                              const std::string& reason) {
    util::write_file_atomic((failed_dir / (spec.id + ".reason.json")).string(),
                            reason);
    std::error_code copy_ec;
    fs::copy_file(jobs_dir / (spec.id + ".job"),
                  failed_dir / (spec.id + ".job"),
                  fs::copy_options::overwrite_existing, copy_ec);
    ++stats.jobs_quarantined;
    finish(spec, std::move(outcome), /*failed=*/true);
  };

  while (true) {
    if (drain_requested(options)) {
      stats.drained = true;
      break;
    }

    const std::optional<std::string> next = first_pending(jobs_dir);
    if (!next) {
      if (!options.watch) break;
      if (interruptible_sleep(options, options.poll_seconds)) {
        stats.drained = true;
        break;
      }
      continue;
    }

    const std::string job_path = (jobs_dir / (*next + ".job")).string();
    if (!fs::exists(job_path)) continue;  // raced away (e.g. manual removal)
    const std::optional<JobSpec> parsed = parse_job_file(job_path, *next);
    if (!parsed) {
      JobOutcome bad;
      bad.status = "malformed";
      JobSpec stub;
      stub.id = *next;
      quarantine(stub, std::move(bad),
                 reason_json(*next, "malformed-spec",
                             "unparseable job spec file", nullptr, nullptr));
      ++stats.jobs_malformed;
      --stats.jobs_failed;  // malformed is its own counter, not a retry loss
      continue;
    }
    const JobSpec& spec = *parsed;

    const std::optional<LoadedJob> job =
        is_model_job(spec.circuit) ? load_model_job(spec, finish, quarantine)
                                   : load_circuit_job(spec, quarantine);
    if (!job) continue;
    if (!run_job(options, spec, *job, stats, cache_dir, finish, quarantine)) {
      stats.drained = true;
      break;
    }
  }
  return stats;
}

}  // namespace advbist::core
