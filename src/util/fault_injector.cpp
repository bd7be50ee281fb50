#include "util/fault_injector.hpp"

#include <cstdlib>

namespace advbist::util {

namespace {

/// splitmix64 finalizer: a cheap, well-mixed 64-bit hash.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint32_t env_period(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return 0;
  const long p = std::strtol(v, nullptr, 10);
  return p > 0 ? static_cast<std::uint32_t>(p) : 0;
}

/// Environment-configured process-wide injector (built once, leaked on
/// purpose: it must outlive every solve in the process).
FaultInjector* env_injector() {
  static FaultInjector* injector = [] {
    const char* seed_str = std::getenv("ADVBIST_FAULT_SEED");
    if (seed_str == nullptr) return static_cast<FaultInjector*>(nullptr);
    auto* fi = new FaultInjector(
        static_cast<std::uint64_t>(std::strtoull(seed_str, nullptr, 10)));
    fi->set_period(FaultSite::kFactorSingular,
                   env_period("ADVBIST_FAULT_SINGULAR"));
    fi->set_period(FaultSite::kEtaPerturb, env_period("ADVBIST_FAULT_ETA"));
    fi->set_period(FaultSite::kNodeAlloc,
                   env_period("ADVBIST_FAULT_NODE_ALLOC"));
    fi->set_period(FaultSite::kCutAlloc,
                   env_period("ADVBIST_FAULT_CUT_ALLOC"));
    fi->set_period(FaultSite::kCancel, env_period("ADVBIST_FAULT_CANCEL"));
    fi->set_period(FaultSite::kSnapshotTorn,
                   env_period("ADVBIST_FAULT_SNAPSHOT"));
    return fi;
  }();
  return injector;
}

std::atomic<FaultInjector*> g_installed{nullptr};

}  // namespace

const char* to_string(FaultSite site) {
  switch (site) {
    case FaultSite::kFactorSingular: return "factor-singular";
    case FaultSite::kEtaPerturb: return "eta-perturb";
    case FaultSite::kNodeAlloc: return "node-alloc";
    case FaultSite::kCutAlloc: return "cut-alloc";
    case FaultSite::kCancel: return "cancel";
    case FaultSite::kSnapshotTorn: return "snapshot-torn";
    case FaultSite::kNumSites: break;
  }
  return "?";
}

void FaultInjector::set_period(FaultSite site, std::uint32_t period) {
  sites_[static_cast<int>(site)].period = period;
}

bool FaultInjector::fire(FaultSite site) {
  Site& s = sites_[static_cast<int>(site)];
  if (s.period == 0) return false;
  const std::uint64_t visit =
      s.visits.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t h =
      mix64(seed_ ^ (static_cast<std::uint64_t>(site) << 48) ^ visit);
  if (h % s.period != 0) return false;
  s.fires.fetch_add(1, std::memory_order_relaxed);
  return true;
}

double FaultInjector::perturbation() const {
  const Site& s = sites_[static_cast<int>(FaultSite::kEtaPerturb)];
  const std::uint64_t h =
      mix64(seed_ ^ 0xe7a0e7a0ULL ^ s.fires.load(std::memory_order_relaxed));
  // [1e-7, 1e-6), sign alternating with the hash.
  const double mag = 1e-7 * (1.0 + 9.0 * (static_cast<double>(h >> 11) /
                                          9007199254740992.0));
  return (h & 1) != 0 ? mag : -mag;
}

long long FaultInjector::fired(FaultSite site) const {
  return sites_[static_cast<int>(site)].fires.load(std::memory_order_relaxed);
}

FaultInjector* FaultInjector::active() {
  FaultInjector* installed = g_installed.load(std::memory_order_acquire);
  return installed != nullptr ? installed : env_injector();
}

void FaultInjector::install(FaultInjector* injector) {
  g_installed.store(injector, std::memory_order_release);
}

}  // namespace advbist::util
