// carbon_credits — the carbon credit transfer scheme end to end.
//
// Simulates a scaled London month, opens a per-user carbon ledger under
// both energy models, and shows who streams carbon-free, who doesn't and
// why (niche content = small swarms = few credits). Finishes by weighting
// the same ledger with London's paired grid-intensity curve (uk_2018) to
// express the balance in grams of CO₂ rather than kWh.
//
// Usage:  ./build/examples/carbon_credits
#include <algorithm>
#include <iostream>
#include <vector>

#include "carbon/intensity_curve.h"
#include "core/analyzer.h"
#include "core/carbon_ledger.h"
#include "core/report.h"
#include "trace/synthetic.h"
#include "util/table.h"

int main() {
  using namespace cl;
  const Metro metro = Metro::london_top5();
  TraceGenerator gen(TraceConfig::london_month_scaled(/*days=*/10), metro);
  const Trace trace = gen.generate();

  const Analyzer analyzer(metro, SimConfig{});
  const SimResult result = HybridSimulator(metro, analyzer.sim_config())
                               .run(TraceView::from_trace(trace));

  for (const EnergyParams& params : analyzer.models()) {
    const CarbonLedger ledger(result, params);
    std::cout << "\n== " << params.name << " ==\n";
    print_ledger_summary(std::cout, ledger);

    // The best and worst balances illustrate the paper's point: heavy
    // sharers of popular content offset far more than they consume, while
    // niche-content viewers keep their full footprint. The entries are
    // in user order; ties on CCT go to the lower user id.
    const auto& entries = ledger.entries();
    std::vector<LedgerEntry> top(std::min<std::size_t>(3, entries.size()));
    std::partial_sort_copy(entries.begin(), entries.end(), top.begin(),
                           top.end(),
                           [](const LedgerEntry& a, const LedgerEntry& b) {
                             return a.cct != b.cct ? a.cct > b.cct
                                                   : a.user < b.user;
                           });
    TextTable table({"user", "downloaded (GB)", "uploaded (GB)", "CCT"});
    std::cout << "top sharers:\n";
    for (const auto& e : top) {
      table.add_row({std::to_string(e.user), fmt(e.downloaded.gigabytes(), 2),
                     fmt(e.uploaded.gigabytes(), 2), fmt(e.cct, 3)});
    }
    table.print(std::cout);
    std::size_t negative = 0;
    for (const auto& e : entries) {
      if (e.cct < 0) ++negative;
    }
    std::cout << "users still carbon negative: " << negative << " of "
              << entries.size()
              << " (they mostly watch niche items with tiny swarms)\n";

    // Grams, not joules: weight each hour's flows by the intensity of
    // the grid the metro runs on (uk_2018 is London's pairing).
    const IntensityCurve& grid =
        IntensityRegistry::instance().default_for_metro(metro.name());
    std::cout << "under the " << grid.name() << " grid ("
              << grid.mean() << " gCO2/kWh daily mean):\n";
    print_ledger_carbon(std::cout, ledger, grid);
  }
  return 0;
}
