#include "sim/matcher.h"

#include <algorithm>
#include <unordered_map>

#include "util/error.h"

namespace cl {

namespace {

constexpr std::uint64_t exp_key(const ActivePeer& a) {
  return (static_cast<std::uint64_t>(a.isp) << 32) | a.exp;
}

constexpr std::uint64_t pop_key(const ActivePeer& a) {
  return (static_cast<std::uint64_t>(a.isp) << 32) | a.pop;
}

}  // namespace

void ExistenceMatcher::allocate(std::span<const ActivePeer> actives,
                                std::size_t seed_index,
                                const SimConfig& config,
                                std::vector<PeerAllocation>& out) const {
  const std::size_t n = actives.size();
  CL_EXPECTS(n == 0 || seed_index < n);
  out.assign(n, PeerAllocation{});
  if (n == 0) return;
  const double dt = config.window.value();
  const double ratio = std::min(config.q_over_beta, 1.0);

  std::unordered_map<std::uint64_t, std::uint32_t> cnt_exp, cnt_pop;
  std::unordered_map<std::uint32_t, std::uint32_t> cnt_isp;
  cnt_exp.reserve(n);
  cnt_pop.reserve(n);
  for (const auto& a : actives) {
    ++cnt_exp[exp_key(a)];
    ++cnt_pop[pop_key(a)];
    ++cnt_isp[a.isp];
  }

  std::unordered_map<std::uint64_t, double> dem_exp, dem_pop;
  std::unordered_map<std::uint32_t, double> dem_core;
  double dem_cross = 0;

  for (std::size_t i = 0; i < n; ++i) {
    const auto& a = actives[i];
    const double demand = a.beta * dt;
    out[i].server_bits = demand;
    if (n < 2 || i == seed_index) continue;
    const double d = ratio * demand;
    if (d <= 0) continue;
    if (cnt_exp[exp_key(a)] >= 2) {
      out[i].peer_bits[index(LocalityLevel::kExchangePoint)] = d;
      dem_exp[exp_key(a)] += d;
    } else if (cnt_pop[pop_key(a)] >= 2) {
      out[i].peer_bits[index(LocalityLevel::kPop)] = d;
      dem_pop[pop_key(a)] += d;
    } else if (cnt_isp[a.isp] >= 2) {
      out[i].peer_bits[index(LocalityLevel::kCore)] = d;
      dem_core[a.isp] += d;
    } else {
      // Only reachable when the swarm spans ISPs (ablation mode).
      out[i].cross_isp_bits = d;
      dem_cross += d;
    }
    out[i].server_bits -= d;
  }

  // Attribute uploads evenly across the members of each serving bucket
  // (see DESIGN.md §9, "Per-user bytes on the count route": totals are
  // exact, the per-user split is the symmetric-swarm approximation).
  for (std::size_t j = 0; j < n; ++j) {
    const auto& a = actives[j];
    double up = 0;
    if (const auto it = dem_exp.find(exp_key(a)); it != dem_exp.end()) {
      up += it->second / cnt_exp[exp_key(a)];
    }
    if (const auto it = dem_pop.find(pop_key(a)); it != dem_pop.end()) {
      up += it->second / cnt_pop[pop_key(a)];
    }
    if (const auto it = dem_core.find(a.isp); it != dem_core.end()) {
      up += it->second / cnt_isp[a.isp];
    }
    if (dem_cross > 0) up += dem_cross / static_cast<double>(n);
    out[j].upload_bits = up;
  }
}

void CapacityMatcher::allocate(std::span<const ActivePeer> actives,
                               std::size_t seed_index,
                               const SimConfig& config,
                               std::vector<PeerAllocation>& out) const {
  const std::size_t n = actives.size();
  CL_EXPECTS(n == 0 || seed_index < n);
  out.assign(n, PeerAllocation{});
  if (n == 0) return;
  const double dt = config.window.value();

  std::vector<double> budget(n);
  for (std::size_t j = 0; j < n; ++j) {
    budget[j] = config.q_over_beta * actives[j].beta * dt;
  }

  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_exp, by_pop;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> by_isp;
  for (std::size_t j = 0; j < n; ++j) {
    const auto& a = actives[j];
    by_exp[exp_key(a)].push_back(static_cast<std::uint32_t>(j));
    by_pop[pop_key(a)].push_back(static_cast<std::uint32_t>(j));
    by_isp[a.isp].push_back(static_cast<std::uint32_t>(j));
  }

  for (std::size_t i = 0; i < n; ++i) {
    const auto& a = actives[i];
    const double demand = a.beta * dt;
    if (n < 2 || i == seed_index) {
      out[i].server_bits = demand;
      continue;
    }
    double need = demand;
    auto pull = [&](const std::vector<std::uint32_t>& candidates,
                    auto&& skip, double& sink) {
      for (std::uint32_t j : candidates) {
        if (need <= 0) break;
        if (j == i || skip(actives[j])) continue;
        const double take = std::min(need, budget[j]);
        if (take <= 0) continue;
        budget[j] -= take;
        need -= take;
        out[j].upload_bits += take;
        sink += take;
      }
    };
    // Closest-first: own ExP, then own PoP (other ExPs), then own ISP
    // (other PoPs), then — only for ISP-spanning swarms — other ISPs.
    pull(by_exp[exp_key(a)], [](const ActivePeer&) { return false; },
         out[i].peer_bits[index(LocalityLevel::kExchangePoint)]);
    pull(by_pop[pop_key(a)],
         [&](const ActivePeer& b) { return exp_key(b) == exp_key(a); },
         out[i].peer_bits[index(LocalityLevel::kPop)]);
    pull(by_isp[a.isp],
         [&](const ActivePeer& b) { return pop_key(b) == pop_key(a); },
         out[i].peer_bits[index(LocalityLevel::kCore)]);
    if (!config.isp_friendly) {
      for (std::size_t j = 0; j < n && need > 0; ++j) {
        if (j == i || actives[j].isp == a.isp) continue;
        const double take = std::min(need, budget[j]);
        if (take <= 0) continue;
        budget[j] -= take;
        need -= take;
        out[j].upload_bits += take;
        out[i].cross_isp_bits += take;
      }
    }
    out[i].server_bits = need;
  }
}

std::unique_ptr<Matcher> make_matcher(MatcherKind kind) {
  switch (kind) {
    case MatcherKind::kExistence:
      return std::make_unique<ExistenceMatcher>();
    case MatcherKind::kCapacity:
      return std::make_unique<CapacityMatcher>();
  }
  throw InvalidArgument("unknown matcher kind");
}

}  // namespace cl
