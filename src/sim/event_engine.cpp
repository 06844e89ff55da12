#include "sim/event_engine.h"

#include <algorithm>
#include <limits>

#include "util/error.h"

namespace cl {

RateProfile::RateProfile(std::vector<RatePhase> phases)
    : phases_(std::move(phases)) {
  CL_EXPECTS(!phases_.empty());
  double prev = -1;
  double max_rate = 0;
  for (const RatePhase& phase : phases_) {
    CL_EXPECTS(phase.start_s >= 0);
    CL_EXPECTS(phase.start_s > prev);
    CL_EXPECTS(phase.rate_per_s >= 0);
    prev = phase.start_s;
    max_rate = std::max(max_rate, phase.rate_per_s);
  }
  CL_EXPECTS(max_rate > 0);
}

RateProfile RateProfile::constant(double rate_per_s) {
  return RateProfile({{0.0, rate_per_s}});
}

double RateProfile::rate_at(double t) const {
  if (t < phases_.front().start_s) return 0.0;
  // Linear scan from the back: profiles are a handful of phases.
  for (std::size_t i = phases_.size(); i-- > 0;) {
    if (t >= phases_[i].start_s) return phases_[i].rate_per_s;
  }
  return 0.0;
}

double RateProfile::expected_arrivals(double horizon_s) const {
  double sum = 0;
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const double begin = std::min(phases_[i].start_s, horizon_s);
    const double end = i + 1 < phases_.size()
                           ? std::min(phases_[i + 1].start_s, horizon_s)
                           : horizon_s;
    if (end > begin) sum += phases_[i].rate_per_s * (end - begin);
  }
  return sum;
}

double RateProfile::next_arrival(double now, double limit_s, Rng& rng) const {
  constexpr double kNever = std::numeric_limits<double>::infinity();
  // The phase covering `now`; before the first phase, its start.
  const auto after = std::upper_bound(
      phases_.begin(), phases_.end(), now,
      [](double t, const RatePhase& phase) { return t < phase.start_s; });
  std::size_t i = after == phases_.begin()
                      ? 0
                      : static_cast<std::size_t>(after - phases_.begin()) - 1;
  double t = std::max(now, phases_.front().start_s);
  while (t < limit_s) {
    const double end = i + 1 < phases_.size() ? phases_[i + 1].start_s : kNever;
    if (phases_[i].rate_per_s > 0) {
      const double candidate = t + rng.exponential(phases_[i].rate_per_s);
      if (candidate < end) return candidate < limit_s ? candidate : kNever;
    }
    if (i + 1 == phases_.size()) break;
    t = end;
    ++i;
  }
  return kNever;
}

}  // namespace cl
