#include "ext/live.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace cl {

Trace generate_live_event(const Metro& metro, const LiveEventConfig& config,
                          std::uint64_t seed) {
  CL_EXPECTS(config.viewers >= 1);
  CL_EXPECTS(config.event_start_s >= 0);
  CL_EXPECTS(config.join_jitter_s > 0);
  CL_EXPECTS(config.mean_watch_s > 0);
  CL_EXPECTS(config.span_days > 0 && config.span_days <= kMaxTraceDays);

  Rng rng(seed ^ 0xbf58476d1ce4e5b9ULL);
  const DiscreteSampler bitrate_sampler(std::vector<double>(
      config.bitrate_mix.begin(), config.bitrate_mix.end()));
  const double span_s = config.span_days * 86400.0;
  const double mu = std::log(config.mean_watch_s) -
                    0.5 * config.watch_sigma * config.watch_sigma;

  Trace trace;
  trace.span = Seconds{span_s};
  trace.metro_name = metro.name();
  trace.sessions.reserve(config.viewers);
  for (std::uint32_t u = 0; u < config.viewers; ++u) {
    SessionRecord s;
    s.user = u;
    s.household = u;
    s.content = config.content_id;
    s.isp = metro.sample_isp(rng);
    s.exp = metro.place_user(s.isp, rng).exp;
    s.bitrate = kAllBitrateClasses[bitrate_sampler(rng)];
    s.start = config.event_start_s +
              rng.exponential(1.0 / config.join_jitter_s);
    s.duration = rng.lognormal(mu, config.watch_sigma);
    // A joiner whose jitter lands past the span never starts watching —
    // drop the session rather than clamping it to the final second
    // (clamping piled every late joiner onto one artificial burst at
    // span−1, the apply_preload pathology). The rng draws above already
    // happened, so every other viewer's placement is unchanged.
    if (s.start >= span_s) continue;
    if (s.end() > span_s) s.duration = span_s - s.start;
    trace.sessions.push_back(s);
  }
  std::sort(trace.sessions.begin(), trace.sessions.end(),
            [](const SessionRecord& a, const SessionRecord& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.user < b.user;
            });
  trace.validate();
  return trace;
}

namespace {

/// Mutable state of one flash-crowd viewer across its watching phases.
struct Viewer {
  std::uint32_t isp = 0;
  std::uint32_t exp = 0;
  BitrateClass bitrate = BitrateClass::kMobile;
  double segment_start = 0;     ///< start of the current watching phase
  double remaining_s = 0;       ///< watch time still owed
  double stop_time = 0;         ///< scheduled end of the current phase
  bool stop_is_failure = false; ///< the scheduled stop is a churn failure
  bool active = false;
  /// Stop events carry the epoch they were scheduled under; a bitrate
  /// shift re-tags the viewer so the superseded stop is ignored on pop.
  std::uint32_t epoch = 0;
};

/// One scheduled scenario event.
struct GenEvent {
  enum Kind : std::uint8_t { kArrival = 0, kStop = 1, kResume = 2,
                             kShift = 3 };
  Kind kind = kArrival;
  std::uint32_t viewer = 0;
  std::uint32_t epoch = 0;
};

}  // namespace

std::vector<std::string> flash_crowd_preset_names() {
  return {"ramp", "spike"};
}

FlashCrowdConfig flash_crowd_preset(const std::string& name,
                                    std::uint32_t viewers,
                                    double event_start_s, double span_days) {
  CL_EXPECTS(viewers >= 1);
  CL_EXPECTS(event_start_s >= 1800);
  CL_EXPECTS(span_days > 0 && span_days <= kMaxTraceDays);
  CL_EXPECTS(event_start_s < span_days * 86400.0);
  const double v = static_cast<double>(viewers);
  const double e = event_start_s;
  FlashCrowdConfig config;
  config.span_days = span_days;
  // λ is 0 before a profile's first phase, so neither preset lists a zero
  // phase at t = 0: at e = 1800 the ramp's first step starts there.
  if (name == "spike") {
    // Premiere/kickoff: 5 % warm-up trickle over the 10 minutes before,
    // 85 % of the audience inside 3 minutes, 10 % stragglers over the
    // next 10 minutes — then silence.
    config.arrivals = RateProfile({{e - 600.0, 0.05 * v / 600.0},
                                   {e, 0.85 * v / 180.0},
                                   {e + 180.0, 0.10 * v / 600.0},
                                   {e + 780.0, 0.0}});
    config.churn = {1.2, 0.8, 30.0};
    config.shift_time_s = e + 300.0;
    config.shift_fraction = 0.25;
  } else if (name == "ramp") {
    // Pre-game tune-in: three rising 10-minute steps carrying 15/30/45 %
    // of the audience, then a 10 % tail over the first 15 minutes.
    config.arrivals = RateProfile({{e - 1800.0, 0.15 * v / 600.0},
                                   {e - 1200.0, 0.30 * v / 600.0},
                                   {e - 600.0, 0.45 * v / 600.0},
                                   {e, 0.10 * v / 900.0},
                                   {e + 900.0, 0.0}});
    config.churn = {0.5, 0.7, 45.0};
  } else {
    throw InvalidArgument("unknown flash-crowd preset '" + name +
                          "' (valid: ramp, spike)");
  }
  return config;
}

Trace generate_flash_crowd(const Metro& metro, const FlashCrowdConfig& config,
                           std::uint64_t seed) {
  CL_EXPECTS(config.mean_watch_s > 0);
  CL_EXPECTS(config.span_days > 0 && config.span_days <= kMaxTraceDays);
  CL_EXPECTS(config.churn.failure_rate_per_hour >= 0);
  CL_EXPECTS(config.churn.rejoin_probability >= 0 &&
             config.churn.rejoin_probability <= 1);
  CL_EXPECTS(config.churn.mean_rejoin_delay_s > 0);
  CL_EXPECTS(config.shift_fraction >= 0 && config.shift_fraction <= 1);

  Rng rng(seed ^ 0xd1b54a32d192ed03ULL);
  const DiscreteSampler bitrate_sampler(std::vector<double>(
      config.bitrate_mix.begin(), config.bitrate_mix.end()));
  const double span_s = config.span_days * 86400.0;
  const double mu = std::log(config.mean_watch_s) -
                    0.5 * config.watch_sigma * config.watch_sigma;
  const double failure_rate_s = config.churn.failure_rate_per_hour / 3600.0;

  Trace trace;
  trace.span = Seconds{span_s};
  trace.metro_name = metro.name();
  trace.sessions.reserve(static_cast<std::size_t>(
      config.arrivals.expected_arrivals(span_s) * 1.25) + 16);

  std::vector<Viewer> viewers;
  EventQueue<GenEvent> queue;

  // One watching phase becomes one SessionRecord; crossing the span
  // clamps, a phase that never enters the span emits nothing.
  const auto emit_segment = [&](std::uint32_t v, double end_time) {
    const Viewer& w = viewers[v];
    const double end = std::min(end_time, span_s);
    const double duration = end - w.segment_start;
    if (duration <= 0 || w.segment_start >= span_s) return;
    SessionRecord s;
    s.user = v;
    s.household = v;
    s.content = config.content_id;
    s.isp = w.isp;
    s.exp = w.exp;
    s.bitrate = w.bitrate;
    s.start = w.segment_start;
    s.duration = duration;
    trace.sessions.push_back(s);
  };

  // Opens a watching phase at `t` and schedules its end: the remaining
  // watch time, or an earlier churn failure (one hazard draw per phase,
  // consumed whether or not it strikes first).
  const auto begin_segment = [&](std::uint32_t v, double t) {
    Viewer& w = viewers[v];
    w.active = true;
    w.segment_start = t;
    double until_stop = w.remaining_s;
    bool fail = false;
    if (failure_rate_s > 0) {
      const double until_failure = rng.exponential(failure_rate_s);
      if (until_failure < until_stop) {
        until_stop = until_failure;
        fail = true;
      }
    }
    w.stop_time = t + until_stop;
    w.stop_is_failure = fail;
    ++w.epoch;
    queue.push(w.stop_time, {GenEvent::kStop, v, w.epoch});
  };

  const double first = config.arrivals.next_arrival(0.0, span_s, rng);
  if (first < span_s) queue.push(first, {GenEvent::kArrival, 0, 0});
  if (config.shift_time_s >= 0 && config.shift_fraction > 0 &&
      config.shift_time_s < span_s) {
    queue.push(config.shift_time_s, {GenEvent::kShift, 0, 0});
  }

  while (!queue.empty()) {
    const auto scheduled = queue.pop();
    const double t = scheduled.time;
    const GenEvent& ev = scheduled.payload;
    switch (ev.kind) {
      case GenEvent::kArrival: {
        // Chain the next arrival first so the arrival stream's rng draws
        // stay contiguous regardless of what this viewer does.
        const double next = config.arrivals.next_arrival(t, span_s, rng);
        if (next < span_s) queue.push(next, {GenEvent::kArrival, 0, 0});
        const auto v = static_cast<std::uint32_t>(viewers.size());
        Viewer w;
        w.isp = metro.sample_isp(rng);
        w.exp = metro.place_user(w.isp, rng).exp;
        w.bitrate = kAllBitrateClasses[bitrate_sampler(rng)];
        w.remaining_s = rng.lognormal(mu, config.watch_sigma);
        viewers.push_back(w);
        begin_segment(v, t);
        break;
      }
      case GenEvent::kStop: {
        Viewer& w = viewers[ev.viewer];
        if (!w.active || ev.epoch != w.epoch) break;  // superseded by a shift
        emit_segment(ev.viewer, t);
        w.remaining_s -= t - w.segment_start;
        w.active = false;
        if (w.stop_is_failure && w.remaining_s > 1.0) {
          // Both draws are consumed whether or not the viewer rejoins, so
          // a rejection never perturbs later viewers' placements.
          const bool rejoin = rng.bernoulli(config.churn.rejoin_probability);
          const double delay =
              rng.exponential(1.0 / config.churn.mean_rejoin_delay_s);
          if (rejoin && t + delay < span_s) {
            queue.push(t + delay, {GenEvent::kResume, ev.viewer, 0});
          }
        }
        break;
      }
      case GenEvent::kResume: {
        if (t < span_s) begin_segment(ev.viewer, t);
        break;
      }
      case GenEvent::kShift: {
        // One bernoulli per viewer in id order — active or not — so the
        // draw positions are stable under any churn history.
        for (std::uint32_t v = 0; v < viewers.size(); ++v) {
          const bool downgrade = rng.bernoulli(config.shift_fraction);
          Viewer& w = viewers[v];
          if (!downgrade || !w.active ||
              w.bitrate == BitrateClass::kMobile) {
            continue;
          }
          emit_segment(v, t);
          w.remaining_s -= t - w.segment_start;
          w.segment_start = t;
          w.bitrate = kAllBitrateClasses[index(w.bitrate) - 1];
          // The phase's end (and failure outcome) is unchanged — re-tag
          // the pending stop under a fresh epoch, no new draws.
          ++w.epoch;
          queue.push(w.stop_time, {GenEvent::kStop, v, w.epoch});
        }
        break;
      }
    }
  }

  std::sort(trace.sessions.begin(), trace.sessions.end(),
            [](const SessionRecord& a, const SessionRecord& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.user < b.user;
            });
  trace.validate();
  return trace;
}

}  // namespace cl
