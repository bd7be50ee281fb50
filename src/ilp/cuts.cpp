#include "ilp/cuts.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "ilp/conflict_graph.hpp"
#include "ilp/tolerances.hpp"

namespace advbist::ilp {

using lp::ConstraintDef;
using lp::Model;
using lp::Sense;
using lp::Term;
using lp::VarType;

double Cut::activity(const std::vector<double>& x) const {
  double a = 0.0;
  for (const Term& t : terms) a += t.coeff * x[t.var];
  return a;
}

Cut clique_cut_from_literals(const std::vector<int>& literals) {
  // sum of true literals <= 1: a positive literal contributes +x, a
  // complement literal contributes (1 - x), i.e. -x on the left and -1 off
  // the right-hand side.
  Cut cut;
  cut.cut_class = CutClass::kClique;
  cut.rhs = 1.0;
  cut.terms.reserve(literals.size());
  for (const int l : literals) {
    if (ConflictGraph::lit_val(l)) {
      cut.terms.push_back(Term{ConflictGraph::lit_var(l), 1.0});
    } else {
      cut.terms.push_back(Term{ConflictGraph::lit_var(l), -1.0});
      cut.rhs -= 1.0;
    }
  }
  std::sort(cut.terms.begin(), cut.terms.end(),
            [](const Term& a, const Term& b) { return a.var < b.var; });
  return cut;
}

namespace {

/// One complemented knapsack item: weight * y <= capacity with
/// y = x (complemented == false) or y = 1 - x (complemented == true).
struct KnapItem {
  int var;
  double weight;      // > 0
  double ystar;       // fractional value of y at the LP point
  bool complemented;
};

/// Builds the cover cut over the chosen items (plus the lifted extension)
/// back in x-space.
Cut build_cover_cut(const std::vector<KnapItem>& items,
                    const std::vector<int>& chosen, int cover_size) {
  Cut cut;
  cut.cut_class = CutClass::kCover;
  cut.rhs = static_cast<double>(cover_size) - 1.0;
  cut.terms.reserve(chosen.size());
  for (const int idx : chosen) {
    const KnapItem& it = items[idx];
    if (it.complemented) {
      // y = 1 - x: +y becomes -x and shifts the rhs.
      cut.terms.push_back(Term{it.var, -1.0});
      cut.rhs -= 1.0;
    } else {
      cut.terms.push_back(Term{it.var, 1.0});
    }
  }
  std::sort(cut.terms.begin(), cut.terms.end(),
            [](const Term& a, const Term& b) { return a.var < b.var; });
  return cut;
}

/// Separates cover cuts for one knapsack side sum w_j y_j <= cap.
void separate_knapsack(const std::vector<KnapItem>& items, double cap,
                       double min_violation, std::vector<Cut>& out,
                       std::vector<double>& viol_out) {
  double total = 0.0;
  for (const KnapItem& it : items) total += it.weight;
  if (cap < -kActivityEps) return;    // infeasible row; presolve's business
  if (total <= cap + kIntEps) return;  // no cover exists

  // Greedy cover: take items by ascending (1 - y*)/w — cheapest violation
  // mass per unit of weight — until the weight passes the capacity.
  std::vector<int> order(items.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return (1.0 - items[a].ystar) / items[a].weight <
           (1.0 - items[b].ystar) / items[b].weight;
  });
  std::vector<int> cover;
  double cover_weight = 0.0;
  for (const int idx : order) {
    cover.push_back(idx);
    cover_weight += items[idx].weight;
    if (cover_weight > cap + kIntEps) break;
  }
  if (cover_weight <= cap + kIntEps) return;  // numerical dust

  // Minimalize: drop members (largest violation contribution 1 - y* first)
  // while the remainder still overflows the capacity. Every drop both
  // raises the violation and shrinks max weight, strengthening the lift.
  std::vector<int> by_slack(cover);
  std::stable_sort(by_slack.begin(), by_slack.end(), [&](int a, int b) {
    return 1.0 - items[a].ystar > 1.0 - items[b].ystar;
  });
  std::vector<char> dropped(items.size(), 0);
  for (const int idx : by_slack) {
    if (cover_weight - items[idx].weight > cap + kIntEps) {
      cover_weight -= items[idx].weight;
      dropped[idx] = 1;
    }
  }
  std::vector<int> minimal;
  for (const int idx : cover)
    if (!dropped[idx]) minimal.push_back(idx);
  if (minimal.size() < 2) return;  // single-item covers are bound changes

  double lhs = 0.0, max_weight = 0.0;
  for (const int idx : minimal) {
    lhs += items[idx].ystar;
    max_weight = std::max(max_weight, items[idx].weight);
  }
  const int cover_size = static_cast<int>(minimal.size());

  // Lift by extension: any variable at least as heavy as the cover's
  // heaviest member joins at coefficient 1 — any cover_size-subset of the
  // extended set outweighs the cover, so the <= cover_size - 1 bound
  // holds. The comparison is exact: admitting a weight even epsilon below
  // the cover maximum would void that argument.
  std::vector<int> chosen(minimal);
  std::vector<char> in_cover(items.size(), 0);
  for (const int idx : minimal) in_cover[idx] = 1;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (in_cover[i] || items[i].weight < max_weight) continue;
    chosen.push_back(static_cast<int>(i));
    lhs += items[i].ystar;
  }

  const double violation = lhs - (static_cast<double>(cover_size) - 1.0);
  if (violation <= min_violation) return;
  out.push_back(build_cover_cut(items, chosen, cover_size));
  viol_out.push_back(violation);
}

}  // namespace

std::vector<Cut> separate_cover_cuts(const Model& model,
                                     const std::vector<bool>& skip_row,
                                     const std::vector<double>& x,
                                     double min_violation, int max_cuts) {
  std::vector<Cut> cuts;
  std::vector<double> violations;
  if (max_cuts <= 0) return cuts;

  std::vector<KnapItem> items;
  for (int c = 0; c < model.num_constraints(); ++c) {
    if (!skip_row.empty() && skip_row[c]) continue;
    const ConstraintDef& row = model.constraint(c);
    if (row.terms.size() < 2) continue;

    // A row yields up to two knapsacks: the <= side as-is and the >= side
    // negated. Build each by complementing negative weights so all weights
    // are positive; fixed and non-binary variables disqualify only through
    // fixed values (folded into the capacity) — a free non-binary term
    // makes the row unusable for cover logic.
    for (const int side : {0, 1}) {
      if (side == 0 && row.sense == Sense::kGreaterEqual) continue;
      if (side == 1 && row.sense == Sense::kLessEqual) continue;
      const double sign = side == 0 ? 1.0 : -1.0;
      double cap = sign * row.rhs;
      items.clear();
      bool usable = true;
      for (const Term& t : row.terms) {
        const auto& v = model.variable(t.var);
        const double a = sign * t.coeff;
        const bool binary = v.type == VarType::kInteger && v.lower >= 0.0 &&
                            v.upper <= 1.0 && v.lower < v.upper;
        if (!binary) {
          if (v.lower == v.upper) {
            cap -= a * v.lower;  // fixed: constant contribution
            continue;
          }
          usable = false;
          break;
        }
        if (a > 0.0) {
          items.push_back(KnapItem{t.var, a, x[t.var], false});
        } else if (a < 0.0) {
          // a*x = a - a*(1-x): complement flips the weight positive.
          items.push_back(KnapItem{t.var, -a, 1.0 - x[t.var], true});
          cap -= a;
        }
      }
      if (!usable || items.size() < 2) continue;
      separate_knapsack(items, cap, min_violation, cuts, violations);
    }
  }

  // Best violation first, capped.
  std::vector<int> order(cuts.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return violations[a] > violations[b];
  });
  if (static_cast<int>(order.size()) > max_cuts) order.resize(max_cuts);
  std::vector<Cut> best;
  best.reserve(order.size());
  for (const int idx : order) best.push_back(std::move(cuts[idx]));
  return best;
}

// ---------------------------------------------------------------------------
// CutPool
// ---------------------------------------------------------------------------

std::uint64_t CutPool::hash_cut(const Cut& cut) {
  // FNV-1a over the sorted terms and the rhs bit patterns.
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const Term& t : cut.terms) {
    mix(static_cast<std::uint64_t>(t.var));
    std::uint64_t bits;
    std::memcpy(&bits, &t.coeff, sizeof(bits));
    mix(bits);
  }
  std::uint64_t bits;
  std::memcpy(&bits, &cut.rhs, sizeof(bits));
  mix(bits);
  return h;
}

bool CutPool::add(Cut cut) {
  const std::uint64_t h = hash_cut(cut);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (hashes_[i] != h) continue;
    const Cut& other = entries_[i].cut;
    if (other.terms.size() == cut.terms.size() &&
        std::abs(other.rhs - cut.rhs) < kBoundEps &&
        std::equal(other.terms.begin(), other.terms.end(), cut.terms.begin(),
                   [](const Term& a, const Term& b) {
                     return a.var == b.var &&
                            std::abs(a.coeff - b.coeff) < kBoundEps;
                   })) {
      entries_[i].lives = 3;  // re-separated: the cut is active again
      return false;
    }
  }
  if (static_cast<int>(entries_.size()) >= max_size_) {
    // Evict the unapplied entry with the fewest lives left.
    int victim = -1;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].applied) continue;
      if (victim < 0 || entries_[i].lives < entries_[victim].lives)
        victim = static_cast<int>(i);
    }
    if (victim < 0) return false;  // every pooled cut is an LP row already
    // Capacity replacement, deliberately not counted in aged_out_: that
    // stat tracks inactivity evictions only.
    entries_[victim] = Entry{std::move(cut), 3, false};
    hashes_[victim] = h;
    return true;
  }
  entries_.push_back(Entry{std::move(cut), 3, false});
  hashes_.push_back(h);
  return true;
}

bool CutPool::restore_applied(Cut cut) {
  const std::uint64_t h = hash_cut(cut);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (hashes_[i] != h) continue;
    Entry& e = entries_[i];
    if (e.cut.terms.size() == cut.terms.size() &&
        std::abs(e.cut.rhs - cut.rhs) < kBoundEps &&
        std::equal(e.cut.terms.begin(), e.cut.terms.end(), cut.terms.begin(),
                   [](const Term& a, const Term& b) {
                     return a.var == b.var &&
                            std::abs(a.coeff - b.coeff) < kBoundEps;
                   })) {
      if (e.applied) return false;
      e.applied = true;
      applied_.push_back(e.cut);
      return true;
    }
  }
  // Applied entries are never evicted (they live as LP rows), so restoring
  // past max_size_ is deliberate — the rows existed in the interrupted run.
  entries_.push_back(Entry{cut, 3, true});
  hashes_.push_back(h);
  applied_.push_back(std::move(cut));
  return true;
}

std::vector<Cut> CutPool::take_violated(const std::vector<double>& x,
                                        double min_violation, int max_cuts) {
  struct Candidate {
    double efficacy;  // violation / ||a||: distance the cut pushes the point
    int index;
  };
  std::vector<Candidate> candidates;
  for (std::size_t i = 0; i < entries_.size();) {
    Entry& e = entries_[i];
    if (e.applied) {
      ++i;
      continue;
    }
    const double v = e.cut.violation(x);
    if (v > min_violation) {
      double norm2 = 0.0;
      for (const Term& t : e.cut.terms) norm2 += t.coeff * t.coeff;
      candidates.push_back(
          Candidate{v / std::sqrt(std::max(norm2, 1.0)),
                    static_cast<int>(i)});
      ++i;
    } else if (--e.lives <= 0) {
      // Aged out. Swap-remove: recorded candidate indices stay valid (they
      // are all < i and only position i and the tail change); the entry
      // brought forward is unvisited, so i does not advance.
      entries_[i] = std::move(entries_.back());
      entries_.pop_back();
      hashes_[i] = hashes_.back();
      hashes_.pop_back();
      ++aged_out_;
    } else {
      ++i;
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.efficacy > b.efficacy;
                   });

  // Greedy efficacy-ordered selection with an orthogonality filter: a cut
  // whose variable support mostly repeats an already-taken cut's adds a
  // near-parallel (and degeneracy-feeding) row for little extra bound, so
  // it stays pooled for a later round instead.
  std::vector<Cut> taken;
  std::vector<const Cut*> kept;
  for (const Candidate& c : candidates) {
    if (static_cast<int>(taken.size()) >= max_cuts) break;
    const Cut& cut = entries_[c.index].cut;
    bool parallel = false;
    for (const Cut* k : kept) {
      std::size_t overlap = 0, ai = 0, bi = 0;
      while (ai < cut.terms.size() && bi < k->terms.size()) {
        if (cut.terms[ai].var == k->terms[bi].var) {
          ++overlap;
          ++ai;
          ++bi;
        } else if (cut.terms[ai].var < k->terms[bi].var) {
          ++ai;
        } else {
          ++bi;
        }
      }
      const std::size_t smaller = std::min(cut.terms.size(), k->terms.size());
      if (overlap * 10 >= smaller * 8) {  // >= 80% of the smaller support
        parallel = true;
        break;
      }
    }
    if (parallel) continue;
    entries_[c.index].applied = true;
    applied_.push_back(cut);
    taken.push_back(cut);
    kept.push_back(&entries_[c.index].cut);  // entries_ is stable here
  }
  return taken;
}

int CutPool::num_pooled() const { return static_cast<int>(entries_.size()); }

std::size_t CutPool::approx_bytes() const {
  std::size_t bytes = entries_.capacity() * sizeof(Entry) +
                      hashes_.capacity() * sizeof(std::uint64_t) +
                      applied_.capacity() * sizeof(Cut);
  for (const Entry& e : entries_)
    bytes += e.cut.terms.capacity() * sizeof(lp::Term);
  for (const Cut& c : applied_)
    bytes += c.terms.capacity() * sizeof(lp::Term);
  return bytes;
}

}  // namespace advbist::ilp
