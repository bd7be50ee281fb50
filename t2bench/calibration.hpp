// Machine-speed calibration for the end-to-end times.
//
// On a shared virtual machine the same job list runs up to ~30% slower or
// faster from one minute to the next (neighbours on the host; no hardware
// counters are exposed to measure cycles instead). The benchmark therefore
// runs this fixed kernel before every job and reports times scaled to a
// machine on which the kernel takes kReferenceSeconds:
//
//   calibrated = measured * kReferenceSeconds / mean(kernel time in the run)
//
// The kernel is frozen benchmark code, not advbist code, so a change to the
// product moves the calibrated times exactly as it moves the measured ones.
// It is a sparse forward + backward triangular solve pair over a fixed
// random factor, the access pattern of the simplex FTRAN/BTRAN that
// dominates the solve, sized to stay in the same cache levels as the
// built-in circuits' LPs. Measured on a 4-vCPU Xeon VM, normalizing by it
// cut the run-to-run spread of one seed's job-list time from ~9% to ~3%.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <vector>

#include "util/rng.hpp"

namespace t2bench {

class Calibration {
 public:
  /// Kernel time of the machine the calibrated times are expressed for.
  static constexpr double kReferenceSeconds = 0.005;

  Calibration() {
    advbist::util::Rng rng(777);
    start_.push_back(0);
    for (int j = 0; j < kSize; ++j) {
      for (int k = 0; k < kPerColumn && j + 1 < kSize; ++k) {
        row_.push_back(rng.next_int(j + 1, kSize - 1));
        value_.push_back(0.1 * rng.next_double());
      }
      start_.push_back(static_cast<int>(row_.size()));
    }
  }

  /// Runs the kernel once and records its time.
  void sample() {
    std::vector<double> x(kSize);
    double check = 0.0;
    const auto begin = std::chrono::steady_clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      std::fill(x.begin(), x.end(), 0.0);
      x[rep % 97] = 1.0;
      x[(rep * 7) % 401] = -0.5;
      for (int j = 0; j < kSize; ++j) {  // L x = b, column-oriented
        const double xj = x[j];
        if (xj == 0.0) continue;
        for (int k = start_[j]; k < start_[j + 1]; ++k)
          x[row_[k]] -= value_[k] * xj;
      }
      for (int j = kSize - 1; j >= 0; --j) {  // L' y = x, row-oriented
        double s = x[j];
        for (int k = start_[j]; k < start_[j + 1]; ++k)
          s -= value_[k] * x[row_[k]];
        x[j] = s;
      }
      check += x[kSize - 1];
    }
    total_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            begin)
                  .count();
    ++samples_;
    if (check == 1e300) std::abort();  // keeps the kernel observable
  }

  /// Mean kernel time so far.
  [[nodiscard]] double seconds() const {
    return samples_ > 0 ? total_ / samples_ : kReferenceSeconds;
  }
  /// `measured` seconds expressed on the reference machine.
  [[nodiscard]] double calibrate(double measured) const {
    return measured * kReferenceSeconds / seconds();
  }

 private:
  static constexpr int kSize = 800;
  static constexpr int kPerColumn = 6;
  static constexpr int kReps = 600;
  std::vector<int> start_, row_;
  std::vector<double> value_;
  double total_ = 0.0;
  int samples_ = 0;
};

}  // namespace t2bench
