// synthetic.h — calibrated synthetic workload generator.
//
// Substitute for the proprietary BBC iPlayer trace (see DESIGN.md §2). The
// paper's results depend on the trace only through per-swarm arrival rates
// and durations, catalogue popularity skew, and the ISP/bitrate partition —
// all of which this generator controls directly:
//
//  * catalogue: pinned exemplar items (Fig. 2's ~100 K / ~10 K / ~1 K views
//    per month) + a Zipf tail (Fig. 3's head/tail skew);
//  * arrivals: per-content Poisson processes modulated by a TV-like
//    diurnal profile (evening peak);
//  * users: ISP by market share, uniform exchange-point placement,
//    log-normally skewed per-user activity, shared-IP households;
//  * sessions: device-driven bitrate mix (modal 1.5 Mbps), watch time as a
//    truncated log-normal fraction of the programme length.
//
// Everything is driven by one seed; identical configs produce identical
// traces on every platform.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "topology/placement.h"
#include "trace/bitrate.h"
#include "trace/catalogue.h"
#include "trace/session.h"
#include "util/rng.h"

namespace cl {

/// All knobs of the synthetic workload.
struct TraceConfig {
  std::uint64_t seed = 20130901;  ///< master seed (epoch of the paper trace)
  double days = 30;               ///< trace span in days

  /// Registry name of the metro the workload should be placed on
  /// (topology/metro_registry.h). Advisory: TraceGenerator takes the
  /// actual Metro by reference and stamps *its* name into the trace;
  /// callers (CLI, benches) resolve this field through the registry
  /// before constructing the generator.
  std::string metro = "london_top5";

  /// Worker threads for the user table and generate(). Every content item
  /// has its own deterministic RNG stream and a slot fixed by the session
  /// counts of the items before it; workers claim items one at a time and
  /// fill their slots, then sort the time buckets concurrently. The user
  /// table fills in contiguous chunks of at least 2¹⁶ users, one per
  /// worker, each jumping the three user streams (Rng::discard) to its
  /// first user. The resulting trace is bit-identical for every thread
  /// count. 0 = all hardware threads.
  unsigned threads = 1;

  std::uint32_t users = 60000;     ///< population (scaled-down London)
  double households_ratio = 0.45;  ///< IP addresses per user (Table I)
  double user_activity_sigma = 1.0;  ///< log-normal skew of per-user demand

  /// Taste heterogeneity: each user gets a mainstreamness m ~ U(0,1);
  /// head-content sessions pick users with weight ∝ activity·m^skew and
  /// tail sessions with weight ∝ activity·(1−m)^skew. 0 disables (every
  /// user then has the same expected popularity mix). This is what makes
  /// the per-user carbon distribution of Fig. 6 bimodal: mainstream
  /// viewers live in large swarms, niche viewers don't.
  double taste_skew = 2.0;

  /// Pinned monthly view counts for exemplar items (ids 0..k-1); defaults
  /// to the paper's popular / medium / unpopular tiers.
  std::vector<double> exemplar_views{100000, 10000, 1000};
  std::size_t catalogue_tail = 8000;  ///< number of Zipf-tail items
  double tail_views = 300000;         ///< monthly views over the tail
  double zipf_exponent = 0.9;         ///< tail popularity skew

  /// Device mix over bitrate classes (mobile/sd/hd/fullhd); the SD class is
  /// modal as in the paper.
  std::array<double, kBitrateClasses> bitrate_mix{0.25, 0.40, 0.25, 0.10};

  /// Mean fraction of the programme length a session watches, and the
  /// log-normal sigma of that fraction (truncated to [0.05, 1]).
  double watch_mean_fraction = 0.7;
  double watch_sigma = 0.5;

  /// Hourly arrival-rate weights (local time); defaults to a catch-up-TV
  /// evening-peaked profile.
  std::array<double, 24> diurnal = default_diurnal();

  [[nodiscard]] static std::array<double, 24> default_diurnal();

  /// The calibrated scaled-down London month used by the aggregate
  /// experiments (Figs. 3, 4, 6 and the Table I bench).
  ///
  /// Calibration targets (see EXPERIMENTS.md):
  ///  * contents 0..2 are the Fig. 2 exemplars (100 K / 10 K / 1 K monthly
  ///    views, as in the paper);
  ///  * contents 3..30 form the "top episodes" head — a geometric ladder
  ///    from 300 K views (the BBC workload concentrates most traffic in a
  ///    few hundred popular episodes), followed by a 500-item mid/long
  ///    tail;
  ///  * the bitrate mix concentrates on the 1.5 Mbps modal rate the paper
  ///    reports for BBC iPlayer (72 % of sessions);
  ///  * with these, the simulated daily aggregate savings of the largest
  ///    ISP land in the paper's Fig. 4 band (~0.27 Valancius, ~0.18
  ///    Baliga).
  [[nodiscard]] static TraceConfig london_month_scaled(double days = 30);

  /// The full 1:1 paper-scale London month: 3.3 M users, ~23.5 M sessions
  /// (Table I). The Fig. 2 exemplars and the top-episode head keep the
  /// same absolute monthly views as the scaled config — per-swarm
  /// capacities, not the population, carry the savings results — while
  /// the long tail grows to the full catalogue's breadth so the session
  /// total matches the paper. Generate once with `cl generate --preset
  /// paper --format binary` and reload the .cltrace in seconds; see
  /// ROADMAP "Paper-scale workload".
  [[nodiscard]] static TraceConfig london_month_paper(double days = 30);

  /// Trace span in seconds.
  [[nodiscard]] Seconds span() const { return Seconds::from_days(days); }
};

/// Static profile of one generated user: the fields its sessions carry.
/// A user's activity and taste position (TraceConfig::taste_skew) only
/// feed the head/tail user-sampling weights, so they are folded into those
/// and not kept here.
struct UserProfile {
  std::uint32_t household = 0;
  std::uint32_t isp = 0;
  std::uint32_t exp = 0;
};
static_assert(sizeof(UserProfile) == 12,
              "the 3.3 M-user paper table is 12 bytes a user");

/// Generates traces from a TraceConfig over a Metro's ISP topologies.
class TraceGenerator {
 public:
  TraceGenerator(TraceConfig config, const Metro& metro);

  /// Generates the full trace, sessions sorted by (start, content, user).
  ///
  /// A pre-pass draws each content item's session count (the first draw
  /// of its RNG stream) and prefix-sums the counts into slots; workers
  /// then claim items from an atomic cursor and construct each item's
  /// sessions in its slot of an uninitialized array, resolving users in
  /// batches so their cache misses overlap. One more cursor task
  /// value-initializes the output rows meanwhile. The filled array is
  /// scattered stably into time buckets of ≈ 64 sessions (the bucket is
  /// monotone in the start time) and the buckets are sorted
  /// concurrently. Every step's
  /// output is independent of the thread count, so the trace is too.
  [[nodiscard]] Trace generate();

  /// Generates only the sessions of one content item — cheaper when an
  /// experiment (Fig. 2) needs a single swarm.
  [[nodiscard]] Trace generate_content(std::uint32_t content_id);

  [[nodiscard]] const TraceConfig& config() const { return config_; }
  [[nodiscard]] const Catalogue& catalogue() const { return catalogue_; }
  [[nodiscard]] const std::vector<UserProfile>& users() const {
    return users_.profiles;
  }

 private:
  /// The user population and the two taste-weighted samplers over it.
  struct UserTable {
    std::vector<UserProfile> profiles;
    DiscreteSampler head_sampler;  ///< for head (exemplar) contents
    DiscreteSampler tail_sampler;  ///< for tail contents
  };

  [[nodiscard]] static UserTable build_users(const TraceConfig& config,
                                             const Metro& metro);

  /// Draws content `content_id`'s session count: the first draw of its
  /// RNG stream `rng`.
  [[nodiscard]] std::size_t session_count(std::uint32_t content_id,
                                          Rng& rng) const;

  /// Constructs content `content_id`'s sessions in out[0, count), which
  /// may be uninitialized storage, drawing from `rng` right after
  /// session_count().
  void fill_content_sessions(std::uint32_t content_id, Rng& rng,
                             SessionRecord* out, std::size_t count) const;

  TraceConfig config_;
  const Metro* metro_;
  Catalogue catalogue_;
  UserTable users_;
  DiscreteSampler hour_sampler_;
  DiscreteSampler bitrate_sampler_;
};

}  // namespace cl
