// Solve-state checkpoints: everything a branch & cut search needs to
// continue after an interruption, in a versioned, checksummed snapshot
// file (util/snapshot.hpp).
//
// A checkpoint captures the state that is expensive to re-derive and
// GLOBALLY valid — i.e. independent of which subtree any worker happened
// to be in:
//   * the incumbent (values + objective) and the cutoff in effect,
//   * the open-node frontier (bound-change deltas + inherited LP bounds,
//     plus the pseudocost bookkeeping each node carries),
//   * the globally tightened variable bounds (presolve + probing + strong
//     branching + reduced-cost fixing, as broadcast to every worker),
//   * the applied rows of the shared cut pool (all cuts are globally
//     valid <=-rows by construction),
//   * the shared pseudocost store, and
//   * the dropped-node bound (a prior forfeited proof must stay
//     forfeited after resume).
//
// Soundness of resume rests on cutoff monotonicity: the cutoff only ever
// decreases, so every region pruned before capture had bound >= the cutoff
// at prune time >= the cutoff at capture = the restored incumbent's
// objective. The restored frontier + incumbent therefore cover ALL
// unexplored solution space. The solver still re-verifies the restored
// incumbent against the pre-presolve model and fingerprint-matches the
// snapshot before trusting any of it — a corrupt or stale snapshot
// degrades to a cold start (counted in Stats::resume_rejected), never a
// wrong proof.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lp/model.hpp"

namespace advbist::ilp {

/// One open node of the frontier: the type the search pool holds, so a
/// checkpoint copies the pool as it is.
struct CheckpointNode {
  /// Bounds [lower, upper] on variable `var`.
  struct Change {
    int var = -1;
    double lower = 0.0;
    double upper = 0.0;
  };
  std::vector<Change> changes;  ///< bound deltas relative to root bounds
  double parent_bound = 0.0;    ///< LP bound inherited from the parent
  int depth = 0;
  // Pseudocost bookkeeping: the branching that created this node. When its
  // LP is solved, the observed objective degradation per unit of bound
  // movement feeds the branching-variable statistics.
  int branch_var = -1;       ///< variable branched on (-1: root)
  bool branch_up = false;    ///< true: the x >= ceil child
  double branch_dist = 0.0;  ///< |bound movement| of the branching
  double parent_obj = 0.0;   ///< parent's raw LP objective
};

/// One applied cut row (globally valid <=-row).
struct CheckpointCut {
  std::vector<lp::Term> terms;
  double rhs = 0.0;
  std::uint8_t cut_class = 0;  ///< CutClass as its underlying value
};

/// One variable's shared pseudocost history (only nonzero entries stored).
struct CheckpointPseudocost {
  int var = -1;
  double up_sum = 0.0, down_sum = 0.0;
  int up_cnt = 0, down_cnt = 0;
};

struct SolveCheckpoint {
  std::uint64_t model_fingerprint = 0;
  int num_variables = 0;
  // --- incumbent + cutoff ---
  bool has_incumbent = false;
  double incumbent_objective = 0.0;
  std::vector<double> incumbent;  ///< empty unless has_incumbent
  /// Cutoff in effect at capture. May be finite WITHOUT an incumbent when
  /// the interrupted solve was seeded (Options::initial_cutoff); the
  /// resumed solve treats it the same way — prune against it, but never
  /// claim infeasibility from exhaustion alone.
  double cutoff = lp::kInfinity;
  // --- proof bookkeeping ---
  double dropped_bound = lp::kInfinity;  ///< min bound over dropped nodes
  long long nodes_explored = 0;          ///< informational (stats line)
  // --- globally valid restrictions ---
  std::vector<double> global_lb, global_ub;
  // --- search state ---
  std::vector<CheckpointNode> frontier;
  std::vector<CheckpointCut> cuts;
  std::vector<CheckpointPseudocost> pseudocosts;
};

/// Order-sensitive structural hash of a model (variables: bounds,
/// objective, type; constraints: terms, sense, rhs — names excluded).
/// Checkpoint validation ties a snapshot to the model it came from; the
/// serve result cache keys on the same value.
[[nodiscard]] std::uint64_t model_fingerprint(const lp::Model& model);

[[nodiscard]] std::vector<unsigned char> serialize(const SolveCheckpoint& ck);
/// Structural decode only (every field bounds-checked; nullopt on any
/// truncation or malformed count). Semantic validation — fingerprint,
/// incumbent feasibility, index ranges — is the solver's resume gate.
[[nodiscard]] std::optional<SolveCheckpoint> deserialize(
    const std::vector<unsigned char>& bytes);

/// Atomic save under the snapshot framing. Returns false on I/O failure
/// (the solve is never failed over a checkpoint write; it is logged and
/// counted instead).
bool save_checkpoint(const std::string& path, const SolveCheckpoint& ck);
/// Loads + frame-validates + decodes; nullopt on any mismatch.
[[nodiscard]] std::optional<SolveCheckpoint> load_checkpoint(
    const std::string& path);

}  // namespace advbist::ilp
