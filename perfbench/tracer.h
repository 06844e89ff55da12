// tracer.h — in-memory spans recorded around calls into the library.
//
// The benchmark's traced run wraps every call into a library layer in a
// span (name, start, end, parent, iteration). Spans stay in memory and
// are written out once, when the run ends. Nothing inside the library is
// instrumented: spans are opened and closed by the benchmark's own code.
#pragma once

#include <chrono>
#include <cstddef>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;  ///< "<layer>.<call>", or "iteration" / "setup" roots
  double start = 0;  ///< seconds since the tracer was created
  double end = 0;
  int parent = -1;     ///< index of the parent span, -1 for a root
  int iteration = -1;  ///< iteration id the span belongs to (-1: set-up)

  [[nodiscard]] double seconds() const { return end - start; }
  /// The layer a span belongs to: its name up to the first '.'.
  [[nodiscard]] std::string layer() const {
    return name.substr(0, name.find('.'));
  }
};

/// Thread-safe span store. Opening and closing take a mutex, so spans
/// may be recorded from concurrently running cells.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  /// Opens a span and returns its id.
  int open(std::string name, int parent, int iteration);
  void close(int id);

  [[nodiscard]] std::vector<Span> spans() const;

  /// A span's duration minus the part of its interval that its direct
  /// children cover (overlapping children count once).
  [[nodiscard]] double self_seconds(int id) const;

  /// Writes every span as one JSON object per line.
  void write_jsonl(std::ostream& out) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mutex_;  // guards spans_
  std::vector<Span> spans_;
};

/// Total length of the union of the [start, end) intervals.
[[nodiscard]] double covered_seconds(
    std::vector<std::pair<double, double>> intervals);

/// Where a call's span goes: the tracer (null when tracing is off), the
/// parent span and the iteration id.
struct SpanScope {
  Tracer* tracer = nullptr;
  int parent = -1;
  int iteration = -1;
};

/// Runs `fn`, inside a span named `name` when tracing is on.
template <typename Fn>
decltype(auto) traced(const SpanScope& scope, const char* name, Fn&& fn) {
  if (scope.tracer == nullptr) return fn();
  struct Closer {
    Tracer* tracer;
    int id;
    ~Closer() { tracer->close(id); }
  } closer{scope.tracer,
           scope.tracer->open(name, scope.parent, scope.iteration)};
  return fn();
}

}  // namespace perfbench
