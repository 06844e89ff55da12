#include "ext/edge_cache.h"

#include "energy/cost_functions.h"
#include "util/error.h"

namespace cl {

LruSet::LruSet(std::size_t capacity) : capacity_(capacity) {
  CL_EXPECTS(capacity >= 1);
}

bool LruSet::touch(std::uint32_t key) {
  if (const auto it = map_.find(key); it != map_.end()) {
    order_.splice(order_.begin(), order_, it->second);
    return true;
  }
  if (map_.size() >= capacity_) {
    map_.erase(order_.back());
    order_.pop_back();
  }
  order_.push_front(key);
  map_[key] = order_.begin();
  return false;
}

EdgeCacheSimulator::EdgeCacheSimulator(const Metro& metro,
                                       SimConfig sim_config,
                                       EdgeCacheConfig cache_config)
    : metro_(&metro), sim_config_(sim_config), cache_config_(cache_config) {
  CL_EXPECTS(cache_config_.capacity_per_exp >= 1);
}

EdgeCacheOutcome EdgeCacheSimulator::run(const Trace& trace) const {
  EdgeCacheOutcome outcome;
  std::unordered_map<std::uint64_t, LruSet> caches;
  Trace misses;
  misses.span = trace.span;
  for (const auto& s : trace.sessions) {
    const std::uint64_t exp_key =
        (static_cast<std::uint64_t>(s.isp) << 32) | s.exp;
    auto [it, inserted] = caches.try_emplace(
        exp_key, cache_config_.capacity_per_exp);
    if (it->second.touch(s.content)) {
      ++outcome.hits;
      outcome.cache_bits += s.volume();
    } else {
      ++outcome.misses;
      misses.sessions.push_back(s);
    }
  }
  if (cache_config_.misses_use_p2p) {
    outcome.miss_sim = HybridSimulator(*metro_, sim_config_)
                           .run(TraceView::from_trace(misses,
                                                      sim_config_.threads));
  } else {
    // Pure CDN for misses: all bytes from the server.
    outcome.miss_sim.config = sim_config_;
    outcome.miss_sim.span = misses.span;
    outcome.miss_sim.total.server = misses.total_volume();
  }
  return outcome;
}

EnergyPerBit EdgeCacheSimulator::cache_psi(const EnergyParams& params) {
  const double exp_leg =
      params.gamma_p2p_at(LocalityLevel::kExchangePoint).value() / 2.0;
  return EnergyPerBit{params.pue * (params.gamma_server.value() + exp_leg) +
                      params.loss * params.gamma_modem.value()};
}

Energy EdgeCacheSimulator::total_energy(const EdgeCacheOutcome& outcome,
                                        const EnergyParams& params) {
  const EnergyAccountant accountant{CostFunctions(params)};
  return accountant.hybrid(outcome.miss_sim.total).total() +
         cache_psi(params) * outcome.cache_bits;
}

double EdgeCacheSimulator::savings(const EdgeCacheOutcome& outcome,
                                   const EnergyParams& params) {
  const EnergyAccountant accountant{CostFunctions(params)};
  const Bits useful = outcome.miss_sim.total.total() + outcome.cache_bits;
  const double baseline = accountant.baseline(useful).total().value();
  if (baseline <= 0) return 0.0;
  return 1.0 - total_energy(outcome, params).value() / baseline;
}

}  // namespace cl
