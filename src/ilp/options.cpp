// The option table: every key the CLI, serve job files and the bench
// harness may set on ilp::Options, with its range, its setter and its help
// line. set_option() is the only place a solver knob is read from text.
#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdio>
#include <limits>
#include <type_traits>

#include "ilp/solver.hpp"

namespace advbist::ilp {

namespace {

constexpr double kPositive = std::numeric_limits<double>::denorm_min();
constexpr double kFinite = std::numeric_limits<double>::max();

/// What a key accepts, for the rejection message.
std::string wants(const OptionKey& k) {
  if (k.set_int != nullptr) {
    if (k.min == 0 && k.max == 1) return "0 or 1";
    if (k.max >= INT_MAX) return "an integer >= " + std::to_string(k.min);
    return "an integer in [" + std::to_string(k.min) + ", " +
           std::to_string(k.max) + "]";
  }
  std::string text = k.lo == kPositive ? "a number > 0" : "a number >= 0";
  if (k.hi < kFinite) {
    char hi[32];
    std::snprintf(hi, sizeof hi, "%g", k.hi);
    text += std::string(" and <= ") + hi;
  }
  return text;
}

/// Setter of a plain Options field (the value is already in range).
template <auto field, typename V>
void assign(Options& o, V v) {
  o.*field = static_cast<std::remove_reference_t<decltype(o.*field)>>(v);
}

OptionKey integer(const char* key, const char* arg, long long min,
                  long long max, const char* help,
                  void (*set)(Options&, long long)) {
  return {.key = key, .arg = arg, .help = help, .set_int = set, .min = min,
          .max = max};
}

OptionKey real(const char* key, const char* arg, double lo, double hi,
               const char* help, void (*set)(Options&, double)) {
  return {.key = key, .arg = arg, .help = help, .set_real = set, .lo = lo,
          .hi = hi};
}

}  // namespace

const std::vector<OptionKey>& option_keys() {
  static const std::vector<OptionKey> keys = {
      real("time", "S", kPositive, kFinite,
           "wall-clock limit per solve in seconds (CLI 20, serve 10)",
           assign<&Options::time_limit_seconds>),
      integer("threads", "N", 0, INT_MAX,
              "tree-search workers (default 1, 0 = one per hardware thread)",
              assign<&Options::num_threads>),
      integer("nodes", "N", 0, LLONG_MAX,
              "branch & bound node limit (default unlimited)",
              assign<&Options::node_limit>),
      integer("refactor", "N", 1, INT_MAX,
              "cap on LU updates between refactorizations (default 100)",
              assign<&Options::lp_refactor_every>),
      real("mtol", "X", kPositive, 1.0,
           "Markowitz threshold-pivoting tolerance in (0,1] (default 0.1)",
           assign<&Options::lp_markowitz_tol>),
      integer("row-age", "N", 0, INT_MAX,
              "delete a cut row after N slack-basic re-solves (default 40, "
              "0 = never)",
              assign<&Options::lp_row_age_limit>),
      integer("scale", "0|1", 0, 1,
              "power-of-two equilibration scaling of the LPs (default 1)",
              assign<&Options::lp_scaling>),
      // --cuts 0 turns off both separator classes, which also idles the
      // root cut loop and in-tree separation.
      integer("cuts", "0|1", 0, 1,
              "clique and cover cut separation (default 1)",
              [](Options& o, long long v) {
                o.use_clique_cuts = o.use_cover_cuts = v == 1;
              }),
      integer("cut-rounds", "N", 0, INT_MAX,
              "root separation rounds (default 8)",
              assign<&Options::cut_rounds>),
      integer("cut-interval", "N", 0, INT_MAX,
              "in-tree separation every N nodes (default 16, 0 = root only)",
              assign<&Options::cut_node_interval>),
      integer("max-cuts", "N", 1, INT_MAX,
              "cuts applied per separation round (default 64)",
              assign<&Options::max_cuts_per_round>),
      integer("probing", "0|1", 0, 1, "root binary probing (default 1)",
              assign<&Options::use_probing>),
      integer("rcfix", "0|1", 0, 1, "reduced-cost fixing (default 1)",
              assign<&Options::use_rc_fixing>),
      integer("strong-branch", "N", 0, INT_MAX,
              "root strong-branching candidates (default 12, 0 = off)",
              assign<&Options::strong_branch_vars>),
      integer("mem-limit", "MB", 0, 1LL << 30,
              "node + cut pool memory budget (default 0 = unlimited)",
              [](Options& o, long long v) {
                o.memory_limit_bytes = static_cast<std::size_t>(v) << 20;
              }),
      integer("audit", "0|1", 0, 1,
              "exit audit of the incumbent and root bound (default 1)",
              assign<&Options::exit_audit>),
      real("ckpt-interval", "S", 0.0, kFinite,
           "with a checkpoint file: also snapshot every S seconds "
           "(default 0 = off)",
           assign<&Options::checkpoint_interval_seconds>),
  };
  return keys;
}

std::string set_option(Options& options, std::string_view key,
                       std::string_view value) {
  const std::vector<OptionKey>& keys = option_keys();
  const auto it =
      std::find_if(keys.begin(), keys.end(),
                   [&](const OptionKey& k) { return key == k.key; });
  if (it == keys.end()) return "unknown option '" + std::string(key) + "'";
  const char* first = value.data();
  const char* last = first + value.size();
  if (it->set_int != nullptr) {
    long long v = 0;
    const auto [end, ec] = std::from_chars(first, last, v);
    if (ec == std::errc() && end == last && v >= it->min && v <= it->max) {
      it->set_int(options, v);
      return "";
    }
  } else {
    double v = 0.0;
    const auto [end, ec] = std::from_chars(first, last, v);
    if (ec == std::errc() && end == last && v >= it->lo && v <= it->hi) {
      it->set_real(options, v);
      return "";
    }
  }
  return std::string(key) + " wants " + wants(*it);
}

}  // namespace advbist::ilp
