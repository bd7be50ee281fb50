// Serve-engine hardening tests: name-order runs off the spool,
// retry-with-resume, result caching, drain-and-restart, and quarantine of
// jobs that cannot be solved.
//
// Everything runs against a real spool directory under the test temp dir
// and real solves of the small paper instances, because the contract under
// test is end-to-end: no job is ever lost (completed, failed, or still
// pending on disk), retries make monotone progress via checkpoints, and a
// drained serve can be restarted to finish exactly what was left.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>

#include "core/serve.hpp"

namespace advbist::core {
namespace {

namespace fs = std::filesystem;

/// Fresh spool dir per test.
std::string make_spool(const char* name) {
  const std::string dir = testing::TempDir() + "spool_" + name;
  fs::remove_all(dir);
  return dir;
}

ServeOptions base_options(const std::string& dir) {
  ServeOptions so;
  so.dir = dir;
  so.solver.time_limit_seconds = 30.0;
  return so;
}

TEST(Serve, SubmitParseRoundTrip) {
  const std::string dir = make_spool("roundtrip");
  JobSpec spec;
  spec.id = "my-job_1";
  spec.circuit = "fig1";
  spec.k = 2;
  spec.options = {{"time", "1.5"}, {"threads", "2"}, {"nodes", "77"},
                  {"cuts", "0"}};
  ASSERT_TRUE(submit_job(dir, spec));
  const auto back =
      parse_job_file(dir + "/jobs/my-job_1.job", "my-job_1");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->circuit, "fig1");
  EXPECT_EQ(back->k, 2);
  EXPECT_EQ(back->options, spec.options);

  // The overrides apply over the serve defaults, in order.
  ServeOptions so = base_options(dir);
  so.solver.lp_refactor_every = 7;
  const ilp::Options opt = job_solver_options(so, *back);
  EXPECT_EQ(opt.time_limit_seconds, 1.5);
  EXPECT_EQ(opt.num_threads, 2);
  EXPECT_EQ(opt.node_limit, 77);
  EXPECT_FALSE(opt.use_clique_cuts);
  EXPECT_FALSE(opt.use_cover_cuts);
  EXPECT_EQ(opt.lp_refactor_every, 7);
  EXPECT_EQ(opt.checkpoint_path, opt.resume_path);
  EXPECT_NE(opt.checkpoint_path.find("my-job_1.ck"), std::string::npos);

  JobSpec bad = spec;
  bad.id = "evil/../path";
  EXPECT_FALSE(submit_job(dir, bad));
  bad.id = "bad-option";
  bad.options = {{"refactor", "0"}};
  EXPECT_FALSE(submit_job(dir, bad));

  // A value the option table refuses, or a key it does not know, makes the
  // spec malformed: serve quarantines the job instead of guessing.
  for (const char* line : {"refactor=0", "bogus=1"}) {
    const std::string path = dir + "/jobs/hand.job";
    {
      std::ofstream out(path);
      out << "circuit=fig1\nk=1\n" << line << "\n";
    }
    EXPECT_FALSE(parse_job_file(path, "hand").has_value()) << line;
  }
}

TEST(Serve, EarlierSpoolFilesParseUnchanged) {
  const std::string dir = make_spool("legacy");
  fs::create_directories(dir + "/jobs");
  const std::string path = dir + "/jobs/old.job";
  {
    std::ofstream out(path);
    out << "circuit=tseng\nk=2\ntime=1e+06\nthreads=2\nnodes=500\n";
  }
  const auto spec = parse_job_file(path, "old");
  ASSERT_TRUE(spec.has_value());
  const ilp::Options opt = job_solver_options(base_options(dir), *spec);
  EXPECT_EQ(opt.time_limit_seconds, 1e6);
  EXPECT_EQ(opt.num_threads, 2);
  EXPECT_EQ(opt.node_limit, 500);
}

TEST(Serve, BatchCompletesVerifiedAndCachesOptima) {
  const std::string dir = make_spool("batch");
  for (int k = 1; k <= 2; ++k) {
    JobSpec spec;
    spec.id = "fig1-k" + std::to_string(k);
    spec.circuit = "fig1";
    spec.k = k;
    ASSERT_TRUE(submit_job(dir, spec));
  }
  const ServeStats st = serve(base_options(dir));
  EXPECT_EQ(st.jobs_completed, 2);
  EXPECT_EQ(st.jobs_failed, 0);
  ASSERT_EQ(st.outcomes.size(), 2u);
  for (const JobOutcome& o : st.outcomes) {
    EXPECT_EQ(o.status, "optimal");
    EXPECT_TRUE(o.verified);
    const auto file = read_result_file(dir + "/done/" + o.id + ".result");
    ASSERT_TRUE(file.has_value()) << o.id;
    EXPECT_EQ(file->status, "optimal");
    EXPECT_EQ(file->area, o.area);
  }
  // The spool drained: no pending jobs, no leftover checkpoints.
  EXPECT_TRUE(fs::is_empty(dir + "/jobs"));
  EXPECT_TRUE(fs::is_empty(dir + "/ckpt"));

  // Re-submitting the same model under a new id is answered from the cache
  // without a solve.
  JobSpec again;
  again.id = "fig1-k2-again";
  again.circuit = "fig1";
  again.k = 2;
  ASSERT_TRUE(submit_job(dir, again));
  const ServeStats st2 = serve(base_options(dir));
  EXPECT_EQ(st2.jobs_completed, 1);
  EXPECT_EQ(st2.jobs_failed, 0);
  EXPECT_EQ(st2.cache_hits, 1);
  ASSERT_EQ(st2.outcomes.size(), 1u);
  EXPECT_TRUE(st2.outcomes[0].from_cache);
  EXPECT_EQ(st2.outcomes[0].attempts, 0);
  EXPECT_EQ(st2.outcomes[0].area, st.outcomes[1].area);
}

TEST(Serve, RetriesResumeFromCheckpointsUntilTheProofCompletes) {
  const std::string dir = make_spool("retry");
  JobSpec spec;
  spec.id = "tseng-k2";
  spec.circuit = "tseng";
  spec.k = 2;
  spec.options = {{"nodes", "60"}};  // far below the full proof: forces retries
  ASSERT_TRUE(submit_job(dir, spec));
  ServeOptions so = base_options(dir);
  so.max_retries = 100;
  const ServeStats st = serve(so);
  ASSERT_EQ(st.jobs_completed, 1);
  ASSERT_EQ(st.outcomes.size(), 1u);
  const JobOutcome& o = st.outcomes[0];
  EXPECT_EQ(o.status, "optimal");
  EXPECT_TRUE(o.verified);
  EXPECT_GT(o.attempts, 1);
  EXPECT_TRUE(o.resumed);
  EXPECT_GT(st.retries, 0);
  EXPECT_GT(st.checkpoints_written, 0);
  EXPECT_EQ(st.resume_rejected, 0);
}

TEST(Serve, DrainCheckpointsInFlightAndRestartFinishes) {
  const std::string dir = make_spool("drain");
  JobSpec spec;
  spec.id = "tseng-k2";
  spec.circuit = "tseng";
  spec.k = 2;
  ASSERT_TRUE(submit_job(dir, spec));

  std::atomic<bool> drain{false};
  ServeOptions so = base_options(dir);
  so.drain = &drain;
  std::thread trigger([&drain] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    drain.store(true);
  });
  const ServeStats st = serve(so);
  trigger.join();

  if (st.jobs_completed == 1) {
    // The solve beat the drain trigger on this machine — the interesting
    // path was not exercised, but nothing was lost either.
    EXPECT_TRUE(fs::is_empty(dir + "/jobs"));
    return;
  }
  // Drained mid-job: the job is still pending, its checkpoint exists.
  EXPECT_TRUE(st.drained);
  EXPECT_EQ(st.jobs_failed, 0);
  EXPECT_TRUE(fs::exists(dir + "/jobs/tseng-k2.job"));
  EXPECT_TRUE(fs::exists(dir + "/ckpt/tseng-k2.ck"));

  // A restarted serve resumes the checkpoint and finishes the proof.
  const ServeStats st2 = serve(base_options(dir));
  ASSERT_EQ(st2.jobs_completed, 1);
  EXPECT_EQ(st2.resumed_jobs, 1);
  ASSERT_EQ(st2.outcomes.size(), 1u);
  EXPECT_EQ(st2.outcomes[0].status, "optimal");
  EXPECT_TRUE(st2.outcomes[0].verified);
  EXPECT_TRUE(st2.outcomes[0].resumed);
  EXPECT_TRUE(fs::is_empty(dir + "/jobs"));
}

TEST(Serve, MalformedAndBadCircuitSpecsFailCleanly) {
  const std::string dir = make_spool("malformed");
  fs::create_directories(dir + "/jobs");
  {
    std::ofstream out(dir + "/jobs/garbage.job");
    out << "not a job file at all\n";
  }
  JobSpec bad;
  bad.id = "ghost";
  bad.circuit = "no-such-circuit";
  ASSERT_TRUE(submit_job(dir, bad));
  const ServeStats st = serve(base_options(dir));
  EXPECT_EQ(st.jobs_completed, 0);
  EXPECT_EQ(st.jobs_malformed, 1);
  EXPECT_EQ(st.jobs_failed, 1);  // the bad-circuit job
  EXPECT_TRUE(fs::exists(dir + "/failed/garbage.result"));
  EXPECT_TRUE(fs::exists(dir + "/failed/ghost.result"));
  EXPECT_TRUE(fs::is_empty(dir + "/jobs"));  // nothing left behind
}

TEST(Serve, ThrowingJobIsQuarantinedAndTheSpoolDrains) {
  const std::string dir = make_spool("throwing");
  // fig1 has 2 modules, so k=3 makes the formulation throw on the first
  // attempt. Its id sorts first: the healthy job must still run after it.
  JobSpec bad;
  bad.id = "a-too-many-sessions";
  bad.circuit = "fig1";
  bad.k = 3;
  ASSERT_TRUE(submit_job(dir, bad));
  JobSpec good;
  good.id = "b-healthy";
  good.circuit = "fig1";
  good.k = 1;
  ASSERT_TRUE(submit_job(dir, good));

  const ServeStats st = serve(base_options(dir));
  EXPECT_EQ(st.jobs_completed, 1);
  EXPECT_EQ(st.jobs_failed, 1);
  EXPECT_EQ(st.jobs_quarantined, 1);
  EXPECT_EQ(st.retries, 0);
  ASSERT_EQ(st.outcomes.size(), 2u);  // the ledger runs in name order
  EXPECT_EQ(st.outcomes[0].id, bad.id);
  EXPECT_EQ(st.outcomes[0].status, "solve-error");
  EXPECT_EQ(st.outcomes[0].attempts, 1);
  EXPECT_EQ(st.outcomes[1].id, good.id);
  EXPECT_EQ(st.outcomes[1].status, "optimal");
  EXPECT_TRUE(st.outcomes[1].verified);

  std::ifstream in(dir + "/failed/a-too-many-sessions.reason.json");
  ASSERT_TRUE(in.good());
  const std::string reason((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  EXPECT_NE(reason.find("\"kind\": \"solve-error\""), std::string::npos)
      << reason;
  EXPECT_NE(reason.find("more sub-test sessions than modules"),
            std::string::npos)
      << reason;
  EXPECT_TRUE(fs::exists(dir + "/failed/a-too-many-sessions.job"));
  const auto failed =
      read_result_file(dir + "/failed/a-too-many-sessions.result");
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->status, "solve-error");
  const auto done = read_result_file(dir + "/done/b-healthy.result");
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->status, "optimal");
  EXPECT_TRUE(fs::is_empty(dir + "/jobs"));
  EXPECT_TRUE(fs::is_empty(dir + "/ckpt"));
}

const std::string kCorpus = ADVBIST_SOURCE_DIR "/tests/lp/corpus";

TEST(Serve, ModelJobCompletesVerifiedAndIsCached) {
  const std::string dir = make_spool("model");
  JobSpec spec;
  spec.id = "knapsack";
  spec.circuit = kCorpus + "/valid/knapsack.lp";
  ASSERT_TRUE(submit_job(dir, spec));
  const ServeStats st = serve(base_options(dir));
  EXPECT_EQ(st.jobs_completed, 1);
  EXPECT_EQ(st.jobs_failed, 0);
  ASSERT_EQ(st.outcomes.size(), 1u);
  EXPECT_EQ(st.outcomes[0].status, "optimal");
  EXPECT_TRUE(st.outcomes[0].verified);
  EXPECT_NEAR(st.outcomes[0].objective, 12.0, 1e-6);  // the LP's maximum
  EXPECT_EQ(st.outcomes[0].attempts, 1);
  const auto file = read_result_file(dir + "/done/knapsack.result");
  ASSERT_TRUE(file.has_value());
  EXPECT_EQ(file->status, "optimal");
  EXPECT_TRUE(fs::is_empty(dir + "/jobs"));

  // The same file under a new id is answered from the cache.
  spec.id = "knapsack-again";
  ASSERT_TRUE(submit_job(dir, spec));
  const ServeStats st2 = serve(base_options(dir));
  EXPECT_EQ(st2.jobs_completed, 1);
  EXPECT_EQ(st2.cache_hits, 1);
  ASSERT_EQ(st2.outcomes.size(), 1u);
  EXPECT_TRUE(st2.outcomes[0].from_cache);
  EXPECT_EQ(st2.outcomes[0].attempts, 0);
  EXPECT_NEAR(st2.outcomes[0].objective, 12.0, 1e-6);
}

TEST(Serve, UnparseableModelJobIsQuarantined) {
  const std::string dir = make_spool("badmodel");
  JobSpec spec;
  spec.id = "bad-sense";
  spec.circuit = kCorpus + "/malformed/bad_sense.mps";
  ASSERT_TRUE(submit_job(dir, spec));
  const ServeStats st = serve(base_options(dir));
  EXPECT_EQ(st.jobs_completed, 0);
  EXPECT_EQ(st.jobs_failed, 1);
  EXPECT_EQ(st.jobs_quarantined, 1);
  std::ifstream in(dir + "/failed/bad-sense.reason.json");
  ASSERT_TRUE(in.good());
  const std::string reason((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  EXPECT_NE(reason.find("\"kind\": \"parse-error\""), std::string::npos)
      << reason;
  EXPECT_TRUE(fs::exists(dir + "/failed/bad-sense.job"));  // spec kept
  EXPECT_TRUE(fs::exists(dir + "/failed/bad-sense.result"));
  EXPECT_TRUE(fs::is_empty(dir + "/jobs"));
}

TEST(Serve, ExhaustedRetriesMoveTheJobToFailedWithItsBestEffort) {
  const std::string dir = make_spool("failing");
  JobSpec spec;
  spec.id = "tseng-hopeless";
  spec.circuit = "tseng";
  spec.k = 2;
  spec.options = {{"nodes", "2"}};  // can never finish in one attempt
  ASSERT_TRUE(submit_job(dir, spec));
  ServeOptions so = base_options(dir);
  so.max_retries = 1;
  const ServeStats st = serve(so);
  EXPECT_EQ(st.jobs_completed, 0);
  EXPECT_EQ(st.jobs_failed, 1);
  EXPECT_EQ(st.retries, 1);
  const auto file =
      read_result_file(dir + "/failed/tseng-hopeless.result");
  ASSERT_TRUE(file.has_value());
  EXPECT_EQ(file->attempts, 2);  // first attempt + one retry
  EXPECT_TRUE(fs::is_empty(dir + "/jobs"));
}

}  // namespace
}  // namespace advbist::core
