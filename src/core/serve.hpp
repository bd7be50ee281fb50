// advbist serve: a crash-safe batch/daemon front end over the synthesizer.
//
// Jobs live as plain-text spec files in a spool directory — submitting is
// an atomic file drop, so producers never need the daemon alive:
//
//   <dir>/jobs/<id>.job      pending specs (circuit=, k=, option overrides)
//   <dir>/ckpt/<id>.ck       the job's latest solve checkpoint
//   <dir>/done/<id>.result   completed jobs (text key=value report)
//   <dir>/failed/<id>.result jobs that exhausted their retries or were
//                            quarantined (with <id>.reason.json + spec)
//   <dir>/cache/<hex>.result audit-verified optimal results by model hash
//
// The spool directory is the only queue. Each pass scans jobs/ and runs
// the first pending id in name order, one job at a time, so a batch runs in
// sorted-id order and a job submitted mid-run whose id sorts first runs
// next. A job that stops on a limit is retried at once, resuming from its
// checkpoint, so every retry makes monotone progress instead of starting
// over. An attempt that throws quarantines the job (kind solve-error) and
// the serve moves on. Results of audit-verified optimal solves are cached
// by model hash; a later job for the same model is answered from the cache
// without solving.
//
// Drain (SIGTERM in the CLI): the drain flag cancels the running solve
// cooperatively — the solver checkpoints its frontier on the way out — and
// the engine exits leaving every unfinished job pending on disk. A
// restarted serve picks them up and resumes from their checkpoints.
#pragma once

#include <atomic>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ilp/solver.hpp"

namespace advbist::core {

struct JobSpec {
  std::string id;        ///< spool file stem; [A-Za-z0-9._-] only
  /// Built-in benchmark name, .dfg file path, or an untrusted .mps/.lp
  /// model file. Model jobs bypass the synthesizer and run the branch&cut
  /// solver directly behind the defensive reader + sanitizer gate; a file
  /// that fails either is QUARANTINED: the job fails immediately with a
  /// machine-readable <id>.reason.json (parse position or sanitizer
  /// diagnostics) written next to the preserved spec in failed/.
  std::string circuit;
  int k = 1;             ///< BIST test sessions
  /// Solver option overrides, applied in order over ServeOptions::solver:
  /// every spec-file line other than circuit= and k=, with the keys and
  /// ranges of ilp::set_option (time, threads, nodes, cuts, ...).
  std::vector<std::pair<std::string, std::string>> options;
};

/// One line of the serve outcome ledger (also what the result files hold).
struct JobOutcome {
  std::string id;
  std::string status;     ///< ilp::to_string of the final solve status
  double objective = 0.0;
  double best_bound = 0.0;
  int area = 0;
  long long nodes = 0;
  int attempts = 0;       ///< solve attempts actually run (0 on cache hit)
  bool resumed = false;   ///< some attempt restored a checkpoint
  bool verified = false;  ///< exit audit verified the incumbent
  bool from_cache = false;
};

struct ServeStats {
  int jobs_completed = 0;
  int jobs_failed = 0;     ///< exhausted retries or quarantined (failed/);
                           ///< malformed specs count only below
  int jobs_malformed = 0;  ///< unparseable spec files (moved to failed/)
  /// Jobs quarantined — malformed spec, unreadable circuit, model-file
  /// parse error, sanitizer-rejected model, or an attempt that threw
  /// (solve-error). Each left a <id>.reason.json and its spec in failed/;
  /// none consumed a retry.
  int jobs_quarantined = 0;
  int retries = 0;
  int cache_hits = 0;
  int resumed_jobs = 0;
  int resume_rejected = 0;      ///< snapshots rejected across all attempts
  int checkpoints_written = 0;  ///< snapshot files written across all attempts
  bool drained = false;         ///< exited via the drain flag
  std::vector<JobOutcome> outcomes;
};

struct ServeOptions {
  std::string dir;           ///< spool root (created if missing)
  int max_retries = 3;       ///< immediate retries after the first attempt
  bool watch = false;        ///< keep polling after the spool drains
  double poll_seconds = 0.2; ///< watch-mode scan interval
  std::atomic<bool>* drain = nullptr;  ///< cooperative drain (SIGTERM)
  /// Solver options of every job, before the job's own overrides.
  ilp::Options solver = [] {
    ilp::Options o;
    o.time_limit_seconds = 10.0;
    return o;
  }();
};

/// Writes `spec` to <dir>/jobs/<id>.job atomically (temp + rename).
/// Returns false on an invalid id, an option override ilp::set_option
/// rejects, or an I/O failure.
bool submit_job(const std::string& dir, const JobSpec& spec);

/// Parses a spool spec file. Returns nullopt when the file is missing a
/// circuit, has a bad k, an option override ilp::set_option rejects, or is
/// otherwise malformed.
[[nodiscard]] std::optional<JobSpec> parse_job_file(const std::string& path,
                                                   const std::string& id);

/// The solver options of one attempt at `spec`: ServeOptions::solver, then
/// the job's overrides, then the job's checkpoint file <dir>/ckpt/<id>.ck
/// (written on an early stop, resumed from by the next attempt) and the
/// drain flag as the cancel flag.
[[nodiscard]] ilp::Options job_solver_options(const ServeOptions& options,
                                              const JobSpec& spec);

/// Reads a done/failed/cache result file back into an outcome.
[[nodiscard]] std::optional<JobOutcome> read_result_file(
    const std::string& path);

/// Runs the serve loop until the spool drains (watch=false), or until the
/// drain flag is raised. Returns the ledger of everything it did.
ServeStats serve(const ServeOptions& options);

}  // namespace advbist::core
