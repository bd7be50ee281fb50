// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around each call it makes into a layer (hls, core,
// baselines, ilp, lp, bist) and written out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace t2bench {

struct Span {
  std::string name;  ///< "<layer>.<call>", e.g. "ilp.solve"
  double start = 0.0;  ///< seconds since the trace began
  double end = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 at the top
  int job = -1;     ///< job the span belongs to
};

class Trace {
 public:
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  /// Opens a span under the innermost open one.
  int begin(const std::string& name, int job) {
    spans_.push_back({name, now(), 0.0, open_.empty() ? -1 : open_.back(), job});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end() {
    spans_[open_.back()].end = now();
    open_.pop_back();
  }

  /// Records a finished span measured by someone else (the solver's own
  /// phase clocks) under the innermost open span.
  void add(const std::string& name, double start, double end, int job) {
    spans_.push_back({name, start, end, open_.empty() ? -1 : open_.back(), job});
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Span duration minus the part of it its direct children cover.
  [[nodiscard]] std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end - spans_[i].start;
    for (const Span& s : spans_)
      if (s.parent >= 0) self[s.parent] -= s.end - s.start;
    return self;
  }

  /// Writes one JSON object per span (jsonl).
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                   "\"end\": %.9f, \"parent\": %d, \"job\": %d}\n",
                   i, s.name.c_str(), s.start, s.end, s.parent, s.job);
    }
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Trace& trace, const std::string& name, int job) : trace_(trace) {
    trace_.begin(name, job);
  }
  ~Scope() { trace_.end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Trace& trace_;
};

}  // namespace t2bench
