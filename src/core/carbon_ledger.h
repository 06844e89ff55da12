// carbon_ledger.h — the per-user carbon credit ledger (paper Section V,
// Fig. 6).
//
// Converts a simulation's per-user byte totals into carbon credit
// transfers: each user earns PUE·γs per uploaded bit (the server energy
// their uploads displaced) and owes l·γm per bit their modem moved. The
// normalised balance is the per-user CCT of Eq. 13; users with CCT >= 0
// stream carbon-free.
//
// The ledger reads SimResult::users, the simulator's settled per-user
// column, in order: its entries come out in ascending user id with no
// sort, and median_cct selects rather than sorts.
#pragma once

#include <cstdint>
#include <vector>

#include "carbon/intensity_curve.h"
#include "energy/energy_params.h"
#include "sim/metrics.h"

namespace cl {

/// One user's ledger entry.
struct LedgerEntry {
  std::uint32_t user = 0;
  Bits downloaded;
  Bits uploaded;
  double cct = 0;  ///< normalised balance; >= 0 means carbon-free streaming
};

/// One hour's system-wide byte flows (summed across ISPs): the temporal
/// resolution of the ledger's intensity-weighted metrics.
struct HourFlow {
  Bits delivered;  ///< all useful bits streamed during the hour
  Bits peer;       ///< bits delivered by peers (== bits uploaded by users)
};

/// Per-user carbon accounting for one simulation run under one energy
/// model.
class CarbonLedger {
 public:
  /// Requires `result` to have been produced with collect_per_user = true
  /// (its `users` is the settled, user-ordered column).
  /// When the result also carries the hourly grid (collect_hourly), the
  /// ledger retains per-hour system flows and can weight its totals by a
  /// grid carbon-intensity curve (the gCO₂ methods below).
  CarbonLedger(const SimResult& result, EnergyParams params);

  [[nodiscard]] const EnergyParams& params() const { return params_; }
  /// One entry per user, ascending user id (the column's order).
  [[nodiscard]] const std::vector<LedgerEntry>& entries() const {
    return entries_;
  }

  /// All per-user CCT values (same order as entries()).
  [[nodiscard]] std::vector<double> cct_values() const;

  /// Fraction of users with CCT >= 0 (carbon-neutral or positive) — the
  /// paper's ">70 % of users become carbon positive" metric.
  [[nodiscard]] double fraction_carbon_free() const;

  /// Median per-user CCT: quantile_sorted(sorted CCTs, 0.5), bit for
  /// bit, found by selection in O(n) instead of a full sort. 0 when the
  /// ledger is empty.
  [[nodiscard]] double median_cct() const;

  /// Total credits issued by the CDN: PUE·γs · (all uploaded bits).
  [[nodiscard]] Energy total_credits() const;

  /// Total user-side energy: l·γm · (all downloaded + uploaded bits).
  [[nodiscard]] Energy total_user_energy() const;

  /// System-wide CCT: Eq. 13 evaluated on the aggregate byte flows.
  [[nodiscard]] double system_cct() const;

  // --- intensity-weighted metrics (need the hourly flows) ---

  /// Per-hour system flows retained from the simulation's hourly grid
  /// (empty when the result was produced without collect_hourly).
  [[nodiscard]] const std::vector<HourFlow>& hourly_flows() const {
    return hourly_flows_;
  }

  /// Absolute credits issued, in grams of CO₂: each hour's PUE·γs·U_h
  /// weighted by the grid intensity at that hour. Throws
  /// cl::InvalidArgument when no hourly flows were collected.
  [[nodiscard]] double total_credits_gco2(const IntensityCurve& curve) const;

  /// Absolute user-side consumption, in grams of CO₂: each hour's
  /// l·γm·(D_h + U_h) weighted by the grid intensity at that hour.
  [[nodiscard]] double total_user_gco2(const IntensityCurve& curve) const;

  /// Intensity-weighted system CCT: Eq. 13 with every hour's credit and
  /// consumption weighted by the intensity at that hour —
  /// (Σ I_h·PUE·γs·U_h − Σ I_h·l·γm·(D_h+U_h)) / Σ I_h·l·γm·(D_h+U_h).
  /// Under a flat curve the weights cancel and this equals system_cct()
  /// (up to summation order). 0 when nothing was consumed.
  [[nodiscard]] double weighted_system_cct(const IntensityCurve& curve) const;

 private:
  void require_hourly_flows() const;

  EnergyParams params_;
  std::vector<LedgerEntry> entries_;
  std::vector<HourFlow> hourly_flows_;
};

}  // namespace cl
