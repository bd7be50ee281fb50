// Deterministic fault injection for the solve-lifecycle hardening tests.
//
// The LP kernel and the branch & bound driver carry cheap hook points
// (factorization declared singular, a Forrest–Tomlin updated U diagonal
// perturbed, a node/cut allocation refused, a spontaneous cancellation),
// and the snapshot writer carries one more (a torn write).
// With no injector active every hook is a single pointer load; with one
// active, each visit to a hook fires on a deterministic seeded schedule —
// hash(seed, site, visit counter) — so "the factorization went singular on
// its 12th rebuild" replays exactly under the same seed, independent of
// wall clock.
//
// Activation, in priority order:
//  1. install(&injector) — the test-suite hook (tests own the object).
//  2. ADVBIST_FAULT_SEED in the environment — builds a process-wide
//     injector whose per-site periods come from ADVBIST_FAULT_SINGULAR,
//     ADVBIST_FAULT_ETA, ADVBIST_FAULT_NODE_ALLOC, ADVBIST_FAULT_CUT_ALLOC,
//     ADVBIST_FAULT_CANCEL and ADVBIST_FAULT_SNAPSHOT (mean visits between
//     fires; 0/unset disables that site). Used by the CI fault-injection
//     sweep.
//  3. Otherwise active() is null and every hook is inert.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace advbist::util {

enum class FaultSite : int {
  kFactorSingular = 0,  ///< sparse refactorization reports singular
  kEtaPerturb,          ///< updated U diagonal perturbed (residual drift)
  kNodeAlloc,           ///< node-pool publish refused (node dropped)
  kCutAlloc,            ///< cut-pool add refused (cut discarded)
  kCancel,              ///< spontaneous cancellation request
  // --- service-layer site (checkpoint hardening) ---
  kSnapshotTorn,        ///< snapshot write torn (payload truncated mid-write)
  kNumSites,
};

[[nodiscard]] const char* to_string(FaultSite site);

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed) : seed_(seed) {}

  /// Mean visits between fires at `site` (0 disables the site).
  void set_period(FaultSite site, std::uint32_t period);

  /// One hook-point visit: true when the seeded schedule fires here.
  /// Thread-safe; the per-site visit counter is atomic.
  bool fire(FaultSite site);

  /// Relative magnitude for kEtaPerturb fires (deterministic per fire,
  /// in [1e-7, 1e-6]): large enough to register as residual drift, small
  /// enough that the recovery ladder restores the correct answer.
  [[nodiscard]] double perturbation() const;

  /// Fires recorded at `site` so far (test assertions / stats lines).
  [[nodiscard]] long long fired(FaultSite site) const;

  /// The process-wide injector: the one installed by install(), else one
  /// configured from the ADVBIST_FAULT_* environment at first use, else
  /// null (inert hooks).
  static FaultInjector* active();

  /// Test hook: installs `injector` (caller keeps ownership) as the active
  /// one; nullptr restores the environment-configured default. Call only
  /// while no solve is running.
  static void install(FaultInjector* injector);

 private:
  struct Site {
    std::uint32_t period = 0;
    std::atomic<std::uint64_t> visits{0};
    std::atomic<long long> fires{0};
  };

  std::uint64_t seed_;
  std::array<Site, static_cast<int>(FaultSite::kNumSites)> sites_;
};

}  // namespace advbist::util
