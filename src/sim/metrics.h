// metrics.h — result types produced by the hybrid-CDN simulator.
#pragma once

#include <cstdint>
#include <vector>

#include "energy/accounting.h"
#include "sim/sim_config.h"
#include "sim/swarm_key.h"
#include "util/units.h"

namespace cl {

/// One user's byte totals (drives the Fig. 6 carbon-credit ledger).
struct UserTraffic {
  std::uint32_t user = 0;
  Bits downloaded;  ///< all useful bytes the user streamed
  Bits uploaded;    ///< bytes the user served to peers
};

/// Per-swarm outcome.
struct SwarmResult {
  SwarmKey key;
  std::size_t sessions = 0;
  /// Measured swarm capacity: total watch seconds / trace span — the
  /// empirical counterpart of c = u·r.
  double capacity = 0;
  TrafficBreakdown traffic;
};

/// Full simulation outcome.
///
/// The parallel simulator sweeps disjoint swarm subsets into per-chunk
/// partials (sim/swarm_sweep.h's ChunkPartial), folds them in ascending
/// swarm-key order (util/parallel.h's fixed-chunk discipline) and builds
/// one SimResult from the fold, so the result is bit-identical for every
/// SimConfig::threads value.
struct SimResult {
  SimConfig config;
  Seconds span;
  TrafficBreakdown total;

  /// One entry per swarm (empty unless config.collect_swarms).
  std::vector<SwarmResult> swarms;

  /// hourly[hour][isp] traffic (empty unless config.collect_hourly).
  /// Hour h covers trace time [h·3600, (h+1)·3600); hour-of-day is
  /// h mod 24 (traces start at local midnight). This is the grid the
  /// carbon-intensity subsystem (src/carbon/) weights by the grid's
  /// gCO₂/kWh at consumption time.
  std::vector<std::vector<TrafficBreakdown>> hourly;

  /// Per-user byte totals (empty unless config.collect_per_user): the
  /// settled column, ascending user id, one entry per user with a
  /// window-crossing session. A chunk partial lists each user its swarms
  /// touched once, summed from 0 in the order the sweep settled them
  /// (sim/swarm_sweep.h); the simulator's fold concatenates the lists
  /// and settle_users() folds them into the column.
  std::vector<UserTraffic> users;

  /// Bits the overload model (SimConfig::overload) bounced back to the
  /// CDN: peer transfers exceeding the warm members' aggregate upload
  /// capacity in their window. The bounced bits are already re-accounted
  /// as server bits in `total` / `hourly` — these fields record how much
  /// moved, so the spill phase of a flash crowd is observable. Zero when
  /// the overload model is off.
  Bits overload_spill;

  /// Per-hour spill (config.overload && collect_hourly; padded to the
  /// span's hour count like `hourly`, empty otherwise).
  std::vector<Bits> hourly_spill;

  /// System-wide offload fraction G achieved by the run.
  [[nodiscard]] double offload() const { return total.offload_fraction(); }

  /// The [day][isp] view of `hourly`: 24 consecutive hour rows summed
  /// per day (a trailing partial day keeps its partial sum). Empty when
  /// `hourly` is empty.
  [[nodiscard]] std::vector<std::vector<TrafficBreakdown>> daily_grid() const;

  /// Folds the concatenated chunk lists in `users` into the settled
  /// column: ascending user id, one entry per user, each user's totals
  /// summed from 0 over their entries in list order — ((0 + c₀) + c₁) + …
  /// over the chunks, the same sums at every thread count.
  /// HybridSimulator::run calls it once, after the last chunk's fold.
  void settle_users();
};

/// End-to-end savings of one swarm under an energy model (Eq. 1 evaluated
/// on simulated traffic).
[[nodiscard]] double swarm_savings(const SwarmResult& swarm,
                                   const EnergyAccountant& accountant);

/// Aggregate daily savings per ISP: savings[day][isp] (days × isps), under
/// one energy model, computed over the day-collapsed view of the hourly
/// grid (SimResult::daily_grid). Entries with no traffic are 0.
[[nodiscard]] std::vector<std::vector<double>> daily_savings(
    const SimResult& result, const EnergyAccountant& accountant);

}  // namespace cl
