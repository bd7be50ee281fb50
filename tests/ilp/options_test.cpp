// The option table (ilp::option_keys / ilp::set_option): the one parser
// behind the CLI's solver flags, serve job-file overrides and the benches'
// ADVBIST_BENCH_OPTS. Pins every key's range, what each key sets, the
// malformed flags CI feeds the CLI, and that docs/solver.md §1 documents
// exactly the table's keys.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <regex>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/serve.hpp"
#include "ilp/solver.hpp"

namespace advbist::ilp {
namespace {

std::string real_text(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool accepts(const OptionKey& k, const std::string& value) {
  Options o;
  return set_option(o, k.key, value).empty();
}

TEST(OptionTable, EveryKeyAcceptsItsRangeEndsAndRejectsOneStepPast) {
  for (const OptionKey& k : option_keys()) {
    SCOPED_TRACE(k.key);
    ASSERT_TRUE((k.set_int != nullptr) != (k.set_real != nullptr));
    std::string lo, hi, below, above;
    if (k.set_int != nullptr) {
      lo = std::to_string(k.min);
      hi = std::to_string(k.max);
      below = std::to_string(k.min - 1);  // every min is >= 0
      above = std::to_string(static_cast<unsigned long long>(k.max) + 1);
    } else {
      lo = real_text(k.lo);
      hi = real_text(k.hi);
      below = real_text(std::nextafter(k.lo, -HUGE_VAL));
      above = real_text(std::nextafter(k.hi, HUGE_VAL));
    }
    EXPECT_TRUE(accepts(k, lo)) << lo;
    EXPECT_TRUE(accepts(k, hi)) << hi;
    EXPECT_FALSE(accepts(k, below)) << below;
    EXPECT_FALSE(accepts(k, above)) << above;
    EXPECT_FALSE(accepts(k, "abc"));
    EXPECT_FALSE(accepts(k, ""));
    EXPECT_FALSE(accepts(k, lo + "x"));
    Options o;
    const std::string why = set_option(o, k.key, "abc");
    EXPECT_EQ(why.rfind(std::string(k.key) + " wants ", 0), 0u) << why;
  }
  Options o;
  EXPECT_EQ(set_option(o, "bogus", "1"), "unknown option 'bogus'");
  // A removed knob is unknown like any other (in-tree reliability probing).
  EXPECT_EQ(set_option(o, "rel-probes", "64"),
            "unknown option 'rel-probes'");
  EXPECT_FALSE(set_option(o, "", "1").empty());
  EXPECT_FALSE(set_option(o, "--time", "1").empty());  // keys have no dashes
}

TEST(OptionTable, EachKeySetsItsField) {
  using Check = std::function<bool(const Options&)>;
  const std::vector<std::tuple<const char*, const char*, Check>> cases = {
      {"time", "2.5",
       [](const Options& o) { return o.time_limit_seconds == 2.5; }},
      {"threads", "0", [](const Options& o) { return o.num_threads == 0; }},
      {"nodes", "77", [](const Options& o) { return o.node_limit == 77; }},
      {"refactor", "7",
       [](const Options& o) { return o.lp_refactor_every == 7; }},
      {"mtol", "0.5",
       [](const Options& o) { return o.lp_markowitz_tol == 0.5; }},
      {"row-age", "0",
       [](const Options& o) { return o.lp_row_age_limit == 0; }},
      {"scale", "0", [](const Options& o) { return !o.lp_scaling; }},
      {"cuts", "0",
       [](const Options& o) {
         return !o.use_clique_cuts && !o.use_cover_cuts;
       }},
      {"cut-rounds", "3", [](const Options& o) { return o.cut_rounds == 3; }},
      {"cut-interval", "0",
       [](const Options& o) { return o.cut_node_interval == 0; }},
      {"max-cuts", "5",
       [](const Options& o) { return o.max_cuts_per_round == 5; }},
      {"probing", "0", [](const Options& o) { return !o.use_probing; }},
      {"rcfix", "0", [](const Options& o) { return !o.use_rc_fixing; }},
      {"strong-branch", "0",
       [](const Options& o) { return o.strong_branch_vars == 0; }},
      {"mem-limit", "3",
       [](const Options& o) {
         return o.memory_limit_bytes == 3u * 1024 * 1024;
       }},
      {"audit", "0", [](const Options& o) { return !o.exit_audit; }},
      {"ckpt-interval", "0.25",
       [](const Options& o) { return o.checkpoint_interval_seconds == 0.25; }},
  };
  ASSERT_EQ(cases.size(), option_keys().size());
  for (const auto& [key, value, check] : cases) {
    Options o;
    EXPECT_FALSE(check(o)) << key << ": the case must change the default";
    EXPECT_EQ(set_option(o, key, value), "") << key;
    EXPECT_TRUE(check(o)) << key << "=" << value;
  }
  // Switches set back to 1 as well.
  Options o;
  ASSERT_EQ(set_option(o, "cuts", "0"), "");
  ASSERT_EQ(set_option(o, "cuts", "1"), "");
  EXPECT_TRUE(o.use_clique_cuts && o.use_cover_cuts);
}

TEST(OptionTable, RejectionLeavesOptionsUntouched) {
  Options o;
  EXPECT_NE(set_option(o, "refactor", "0"), "");
  EXPECT_NE(set_option(o, "time", "-1"), "");
  EXPECT_EQ(o.lp_refactor_every, Options{}.lp_refactor_every);
  EXPECT_EQ(o.time_limit_seconds, Options{}.time_limit_seconds);
}

// The malformed flags the CI fuzz-smoke job feeds `advbist`, one unit case
// each: the 13 solver flags go through the table (a dangling flag reaches
// it as an empty value), and --k, a per-command argument rather than a
// solver option, goes through the job-file reader's k check.
TEST(OptionTable, RejectsWhatTheCliRejected) {
  const std::pair<const char*, const char*> flags[] = {
      {"time", "abc"},     {"time", "nan"},      {"threads", "-1"},
      {"mtol", "2"},       {"cuts", "2"},        {"max-cuts", "0"},
      {"refactor", ""},    {"row-age", "x"},     {"time", "abc"},
      {"refactor", "0"},   {"cut-rounds", "-1"}, {"nodes", "1e3"},
      {"bogus", "1"},
  };
  for (const auto& [key, value] : flags) {
    Options o;
    EXPECT_NE(set_option(o, key, value), "") << key << " " << value;
  }
  const std::string path = testing::TempDir() + "options_test_k.job";
  for (const char* k : {"abc", "0"}) {
    {
      std::ofstream out(path);
      out << "circuit=fig1\nk=" << k << "\n";
    }
    EXPECT_FALSE(core::parse_job_file(path, "k").has_value()) << "k=" << k;
  }
  std::filesystem::remove(path);
}

/// The `--flags` named in the CLI column of docs/solver.md §1's
/// `ilp::Options` tables.
std::set<std::string> documented_flags() {
  std::ifstream in(ADVBIST_SOURCE_DIR "/docs/solver.md");
  EXPECT_TRUE(in.good());
  std::set<std::string> flags;
  const std::regex flag("--([a-z][a-z-]*)");
  bool in_section = false;
  bool in_table = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("## ", 0) == 0) in_section = line.rfind("## 1.", 0) == 0;
    if (!in_section) continue;
    if (line.rfind("| `ilp::Options` field", 0) == 0) {
      in_table = true;
      continue;
    }
    if (line.empty() || line[0] != '|') in_table = false;
    if (!in_table) continue;
    // Second cell: "| field | CLI | meaning |" (escaped pipes are "\|").
    const std::size_t a = line.find(" | ");
    const std::size_t b = line.find(" | ", a + 3);
    if (a == std::string::npos || b == std::string::npos) continue;
    const std::string cli = line.substr(a + 3, b - a - 3);
    for (std::sregex_iterator it(cli.begin(), cli.end(), flag), end;
         it != end; ++it)
      flags.insert((*it)[1]);
  }
  return flags;
}

TEST(OptionTable, MatchesTheDocumentedFlags) {
  std::set<std::string> documented = documented_flags();
  // CLI-only: paths stay out of the table, so a job file never names one.
  EXPECT_EQ(documented.erase("checkpoint"), 1u);
  EXPECT_EQ(documented.erase("resume"), 1u);
  std::set<std::string> keys;
  for (const OptionKey& k : option_keys()) keys.insert(k.key);
  EXPECT_EQ(keys, documented);
}

}  // namespace
}  // namespace advbist::ilp
