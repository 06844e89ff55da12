#include "tracer.h"

#include <algorithm>
#include <iomanip>

namespace perfbench {

int Tracer::open(std::string name, int parent, int iteration) {
  const double start = seconds_between(epoch_, Clock::now());
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), start, start, parent, iteration});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int id) {
  const double end = seconds_between(epoch_, Clock::now());
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = end;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

double Tracer::self_seconds(int id) const {
  std::vector<std::pair<double, double>> covered;
  Span self;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    self = spans_[static_cast<std::size_t>(id)];
    for (const Span& span : spans_) {
      if (span.parent == id) {
        covered.emplace_back(std::max(span.start, self.start),
                             std::min(span.end, self.end));
      }
    }
  }
  return self.seconds() - covered_seconds(std::move(covered));
}

void Tracer::write_jsonl(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto flags = out.flags();
  out << std::setprecision(9);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << span.name
        << "\", \"start\": " << span.start << ", \"end\": " << span.end
        << ", \"parent\": " << span.parent
        << ", \"iteration\": " << span.iteration << "}\n";
  }
  out.flags(flags);
}

double covered_seconds(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0;
  double reach = -1e300;
  for (const auto& [start, end] : intervals) {
    if (end <= reach || end <= start) continue;
    total += end - std::max(start, reach);
    reach = end;
  }
  return total;
}

}  // namespace perfbench
