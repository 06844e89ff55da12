#include "trace/synthetic.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/parallel.h"

namespace cl {

namespace {

/// Content `id`'s own RNG stream: its output depends on nothing else, so
/// items can be generated in any order on any worker.
Rng content_rng(std::uint64_t seed, std::size_t id) {
  return Rng(seed ^ (0x517cc1b727220a95ULL * (id + 1)));
}

/// Users per build_users chunk, at least: below two chunks' worth the
/// table fills serially and no stream jumps.
constexpr std::size_t kMinUserChunk = std::size_t{1} << 16;

/// The trace's session order: start time, then content, then user.
bool start_order(const SessionRecord& a, const SessionRecord& b) {
  if (a.start != b.start) return a.start < b.start;
  if (a.content != b.content) return a.content < b.content;
  return a.user < b.user;
}

/// Storage for session records that nothing initializes: each record is
/// constructed by the fill that owns it, so its pages are first touched
/// by the fill workers, in parallel, and not by a serial zero-fill.
struct RawRecords {
  struct Free {
    void operator()(SessionRecord* p) const { ::operator delete(p); }
  };
  std::unique_ptr<SessionRecord, Free> data;
  std::size_t size = 0;

  explicit RawRecords(std::size_t n)
      : data(static_cast<SessionRecord*>(
            ::operator new(n * sizeof(SessionRecord)))),
        size(n) {}
};

/// Sessions per sort_by_start time bucket, on average.
constexpr std::size_t kSessionsPerBucket = 64;

/// Sorts `records` into `sorted` (already as many records) in
/// start_order, freeing `records` once scattered. A stable scatter into
/// equal-width time buckets of ≈ kSessionsPerBucket sessions on average
/// (the bucket is monotone in the start time, so bucket order is already
/// sorted order) splits the sort into small independent per-bucket
/// sorts, which run concurrently. The result is the one sorted order,
/// whatever the thread count.
void sort_by_start(RawRecords records, std::vector<SessionRecord>& sorted,
                   double span_s, unsigned threads) {
  const std::size_t n = records.size;
  const SessionRecord* sessions = records.data.get();
  CL_EXPECTS(sorted.size() == n);
  CL_EXPECTS(span_s > 0);
  const std::size_t buckets = std::max<std::size_t>(1, n / kSessionsPerBucket);
  const double width = span_s / static_cast<double>(buckets);
  const double last = static_cast<double>(buckets - 1);
  const auto bucket_of = [width, last](const SessionRecord& s) {
    return static_cast<std::size_t>(
        std::min(last, std::floor(s.start / width)));
  };

  // Stable counting scatter, one input chunk per worker: chunk c's
  // sessions of bucket k land after those of every earlier chunk.
  const unsigned chunks = resolve_threads(threads, n);
  std::vector<std::vector<std::size_t>> cursor(
      chunks, std::vector<std::size_t>(buckets, 0));
  parallel_shards(n, chunks, [&](unsigned c, std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++cursor[c][bucket_of(sessions[i])];
  });
  std::vector<std::size_t> bucket(buckets + 1, 0);
  for (std::size_t k = 0; k < buckets; ++k) {
    std::size_t at = bucket[k];
    for (unsigned c = 0; c < chunks; ++c) {
      const std::size_t count = cursor[c][k];
      cursor[c][k] = at;
      at += count;
    }
    bucket[k + 1] = at;
  }
  parallel_shards(n, chunks, [&](unsigned c, std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      sorted[cursor[c][bucket_of(sessions[i])]++] = sessions[i];
    }
  });
  records.data.reset();

  // Buckets are as wide as each other in time, not in sessions (the
  // diurnal peak holds ~30x the trough's), so the sorts shard over
  // sorted positions: a shard sorts the buckets that begin in its range.
  parallel_shards(n, threads, [&](unsigned, std::size_t pb, std::size_t pe) {
    for (auto k = static_cast<std::size_t>(
             std::lower_bound(bucket.begin(), bucket.end() - 1, pb) -
             bucket.begin());
         k < buckets && bucket[k] < pe; ++k) {
      std::sort(sorted.begin() + static_cast<std::ptrdiff_t>(bucket[k]),
                sorted.begin() + static_cast<std::ptrdiff_t>(bucket[k + 1]),
                start_order);
    }
  });
}

}  // namespace

std::array<double, 24> TraceConfig::default_diurnal() {
  // Catch-up TV: overnight trough, daytime shoulder, strong evening peak.
  return {0.40, 0.25, 0.15, 0.10, 0.10, 0.15, 0.30, 0.50,
          0.70, 0.80, 0.90, 1.00, 1.10, 1.00, 1.00, 1.10,
          1.30, 1.70, 2.30, 3.00, 3.20, 2.80, 1.80, 0.90};
}

TraceConfig TraceConfig::london_month_scaled(double days) {
  TraceConfig config;
  config.days = days;
  config.users = 30000;
  config.exemplar_views = {100000, 10000, 1000};
  // "Top episodes" head: the few hundred popular broadcast episodes that
  // dominate a catch-up month.
  double views = 300000;
  for (int i = 0; i < 28; ++i) {
    config.exemplar_views.push_back(views);
    views *= 0.90;
  }
  // Mid/long tail calibrated so the median catalogue item saves ~1-2 %
  // (paper Fig. 3) while the aggregate stays in the Fig. 4 band.
  config.catalogue_tail = 500;
  config.tail_views = 1200000;
  config.bitrate_mix = {0.08, 0.72, 0.15, 0.05};
  return config;
}

TraceConfig TraceConfig::london_month_paper(double days) {
  // The 1:1 month replicates the scaled month's catalogue *shape* ~6x:
  // the same per-item view tiers, six items at each tier instead of one.
  // Per-swarm capacities — the only trace statistic the savings results
  // consume (DESIGN.md §1) — are therefore distributed exactly as in the
  // calibrated scaled config, so the Fig. 4 band carries over; what grows
  // is the extensive side: 3.3 M users producing ~23.5 M sessions
  // (Table I), with "a few hundred popular episodes" (3 exemplars +
  // 168 head items, ~17 M sessions) dominating the month as in the BBC
  // workload.
  TraceConfig config;
  config.days = days;
  config.users = 3300000;  // Table I: 3.3 M users, households_ratio 0.45
  config.exemplar_views = {100000, 10000, 1000};
  double views = 300000;
  for (int i = 0; i < 28; ++i) {
    for (int k = 0; k < 6; ++k) config.exemplar_views.push_back(views);
    views *= 0.90;
  }
  config.catalogue_tail = 3000;   // 6 x the scaled 500-item tail
  config.tail_views = 6400000;    // total lands at ~23.5 M sessions/month
  config.bitrate_mix = {0.08, 0.72, 0.15, 0.05};
  return config;
}

TraceGenerator::UserTable TraceGenerator::build_users(
    const TraceConfig& config, const Metro& metro) {
  const std::size_t n = config.users;
  const auto households = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::lround(
             config.households_ratio * static_cast<double>(config.users))));
  const double sigma = config.user_activity_sigma;
  CL_EXPECTS(sigma >= 0);
  const double skew = config.taste_skew;
  // Three streams: placement (3 draws a user: ISP, exchange point,
  // household), activity (rng.lognormal's 2 uniforms) and taste (1
  // uniform). Each chunk of users jumps all three to its first user and
  // writes the profiles and both sampler weights in one pass. Only
  // placement may draw more (uniform_index rejects a draw with probability
  // < bound/2⁶⁴), so it is the stream fill_in_chunks checks; the other
  // two draw exactly their share. The arrays are reserved on the calling
  // thread, so their memory does not stay behind in the workers' malloc
  // arenas; zeroing them is each page's first touch, which three workers
  // share. Tail is reserved before head: in the reverse order, glibc kept
  // 25 MB of the freed paper-scale arrays resident once a second
  // generator was destroyed.
  std::vector<UserProfile> profiles;
  std::vector<double> head;
  std::vector<double> tail;
  profiles.reserve(n);
  tail.reserve(n);
  head.reserve(n);
  parallel_for_dynamic(3, config.threads, [&](std::size_t array) {
    if (array == 0) {
      profiles.resize(n);
    } else {
      (array == 1 ? head : tail).resize(n);
    }
  });
  fill_in_chunks(
      Rng(config.seed ^ 0x5a5a5a5a5a5a5a5aULL), n, 3, config.threads,
      kMinUserChunk, [&](Rng& placement, std::size_t begin, std::size_t end) {
        Rng activity_rng(config.seed ^ 0xa5a5a5a5a5a5a5a5ULL);
        activity_rng.discard(2 * std::uint64_t{begin});
        Rng taste_rng(config.seed ^ 0x3c3c3c3c3c3c3c3cULL);
        taste_rng.discard(begin);
        for (std::size_t u = begin; u < end; ++u) {
          UserProfile& profile = profiles[u];
          profile.isp = metro.sample_isp(placement);
          profile.exp = metro.place_user(profile.isp, placement).exp;
          profile.household =
              static_cast<std::uint32_t>(placement.uniform_index(households));
          const double activity = activity_rng.lognormal(0, sigma);
          const double mainstream = taste_rng.uniform();
          // The epsilon keeps every user reachable from every tier.
          head[u] = activity * (std::pow(mainstream, skew) + 1e-9);
          tail[u] = activity * (std::pow(1.0 - mainstream, skew) + 1e-9);
        }
      });
  // Each sampler's prefix sum is serial; build the two side by side.
  std::optional<DiscreteSampler> head_sampler;
  std::optional<DiscreteSampler> tail_sampler;
  parallel_for_dynamic(2, config.threads, [&](std::size_t side) {
    if (side == 0) {
      head_sampler.emplace(std::move(head));
    } else {
      tail_sampler.emplace(std::move(tail));
    }
  });
  return {std::move(profiles), std::move(*head_sampler),
          std::move(*tail_sampler)};
}

TraceGenerator::TraceGenerator(TraceConfig config, const Metro& metro)
    : config_([&] {
        CL_EXPECTS(config.days >= 1 && config.days <= kMaxTraceDays);
        CL_EXPECTS(config.users >= 1);
        CL_EXPECTS(config.households_ratio > 0 &&
                   config.households_ratio <= 1);
        CL_EXPECTS(config.watch_mean_fraction > 0 &&
                   config.watch_mean_fraction <= 1);
        CL_EXPECTS(config.watch_sigma >= 0);
        CL_EXPECTS(config.taste_skew >= 0);
        return std::move(config);
      }()),
      metro_(&metro),
      catalogue_(config_.exemplar_views, config_.catalogue_tail,
                 config_.tail_views, config_.zipf_exponent),
      users_(build_users(config_, metro)),
      hour_sampler_(std::vector<double>(config_.diurnal.begin(),
                                        config_.diurnal.end())),
      bitrate_sampler_(std::vector<double>(config_.bitrate_mix.begin(),
                                           config_.bitrate_mix.end())) {}

Trace TraceGenerator::generate() {
  // Slot pre-pass: every item's session count is the first draw of its
  // own stream, so the prefix sum fixes where each item's sessions go
  // before any session exists.
  const std::size_t contents = catalogue_.size();
  std::vector<std::size_t> slot(contents + 1, 0);
  for (std::size_t id = 0; id < contents; ++id) {
    Rng rng = content_rng(config_.seed, id);
    slot[id + 1] =
        slot[id] + session_count(static_cast<std::uint32_t>(id), rng);
  }
  // Items claimed one at a time balance the few huge head items against
  // the long tail; each worker redraws the count and constructs the item's
  // slot. The sorted rows must be a std::vector (Trace::sessions): it is
  // reserved here, on the calling thread, so its memory stays in this
  // thread's malloc arena, and value-initialized by task 0 while the other
  // workers fill.
  const std::size_t total = slot.back();
  RawRecords sessions(total);
  Trace trace;
  trace.sessions.reserve(total);
  parallel_for_dynamic(contents + 1, config_.threads, [&](std::size_t task) {
    if (task == 0) {
      trace.sessions.resize(total);
      return;
    }
    const std::size_t id = task - 1;
    const auto content_id = static_cast<std::uint32_t>(id);
    Rng rng = content_rng(config_.seed, id);
    const std::size_t count = session_count(content_id, rng);
    fill_content_sessions(content_id, rng, sessions.data.get() + slot[id],
                          count);
  });
  sort_by_start(std::move(sessions), trace.sessions, config_.span().value(),
                config_.threads);
  trace.span = config_.span();
  trace.metro_name = metro_->name();  // empty for unnamed custom metros
  trace.validate();
  return trace;
}

Trace TraceGenerator::generate_content(std::uint32_t content_id) {
  CL_EXPECTS(content_id < catalogue_.size());
  Rng rng = content_rng(config_.seed, content_id);
  const std::size_t count = session_count(content_id, rng);
  RawRecords sessions(count);
  fill_content_sessions(content_id, rng, sessions.data.get(), count);
  Trace trace;
  trace.sessions.resize(count);
  sort_by_start(std::move(sessions), trace.sessions, config_.span().value(),
                config_.threads);
  trace.span = config_.span();
  trace.metro_name = metro_->name();
  trace.validate();
  return trace;
}

std::size_t TraceGenerator::session_count(std::uint32_t content_id,
                                          Rng& rng) const {
  const double expected = catalogue_.item(content_id).expected_views_per_month *
                          config_.days / 30.0;
  return static_cast<std::size_t>(rng.poisson(expected));
}

void TraceGenerator::fill_content_sessions(std::uint32_t content_id, Rng& rng,
                                           SessionRecord* out,
                                           std::size_t count) const {
  const ContentInfo& info = catalogue_.item(content_id);
  const auto whole_days =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(config_.days));
  const double span_s = config_.span().value();
  // Watch fraction ~ LogNormal(mu, sigma) with mean watch_mean_fraction.
  const double mu = std::log(config_.watch_mean_fraction) -
                    0.5 * config_.watch_sigma * config_.watch_sigma;
  // Head (exemplar) contents draw mainstream viewers; the tail draws
  // niche viewers (see TraceConfig::taste_skew).
  const DiscreteSampler& user_sampler =
      content_id < catalogue_.exemplar_count() ? users_.head_sampler
                                               : users_.tail_sampler;
  // Sessions go in batches. The first loop takes each session's draws in
  // stream order, keeping the user draw as its uniform; the second
  // resolves the batch's users. At paper scale each user costs cache
  // misses into the 26 MB CDF and then the 40 MB profile table, and the
  // batch's users are independent, so their misses overlap instead of
  // stalling the stream one session at a time.
  constexpr std::size_t kBatch = 32;
  std::array<double, kBatch> user_u;
  std::array<BitrateClass, kBatch> bitrate;
  std::array<double, kBatch> start;
  std::array<double, kBatch> duration;
  for (std::size_t first = 0; first < count; first += kBatch) {
    const std::size_t batch = std::min(kBatch, count - first);
    for (std::size_t i = 0; i < batch; ++i) {
      user_u[i] = rng.uniform();
      bitrate[i] = kAllBitrateClasses[bitrate_sampler_(rng)];
      const double day = static_cast<double>(rng.uniform_index(whole_days));
      const double hour = static_cast<double>(hour_sampler_(rng));
      double at = day * 86400.0 + hour * 3600.0 + rng.uniform(0.0, 3600.0);
      const double fraction =
          std::clamp(rng.lognormal(mu, config_.watch_sigma), 0.05, 1.0);
      double watched = info.nominal_length.value() * fraction;
      if (at >= span_s) at = span_s - 1.0;
      if (at + watched > span_s) watched = span_s - at;
      start[i] = at;
      duration[i] = watched;
    }
    for (std::size_t i = 0; i < batch; ++i) {
      const auto user =
          static_cast<std::uint32_t>(user_sampler.find(user_u[i]));
      const UserProfile& profile = users_.profiles[user];
      std::construct_at(out + first + i,
                        SessionRecord{.user = user,
                                      .household = profile.household,
                                      .content = content_id,
                                      .isp = profile.isp,
                                      .exp = profile.exp,
                                      .bitrate = bitrate[i],
                                      .start = start[i],
                                      .duration = duration[i]});
    }
  }
}

}  // namespace cl
