#include "sim/metrics.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <utility>

namespace cl {

std::vector<std::vector<TrafficBreakdown>> SimResult::daily_grid() const {
  std::vector<std::vector<TrafficBreakdown>> days;
  days.reserve((hourly.size() + 23) / 24);
  for (std::size_t h = 0; h < hourly.size(); ++h) {
    const std::size_t day = h / 24;
    if (day >= days.size()) days.resize(day + 1);
    auto& row = days[day];
    if (row.size() < hourly[h].size()) row.resize(hourly[h].size());
    for (std::size_t i = 0; i < hourly[h].size(); ++i) {
      row[i] += hourly[h][i];
    }
  }
  return days;
}

void SimResult::settle_users() {
  // Stable order by user id, so one user's entries keep their list
  // (chunk) order: an LSD radix sort over the user-id bits that differ
  // between some two entries, at most kDigitBits per pass.
  constexpr unsigned kDigitBits = 11;
  std::uint32_t differ = 0;
  for (const UserTraffic& u : users) differ |= u.user ^ users[0].user;
  if (differ != 0) {
    const auto lo = static_cast<unsigned>(std::countr_zero(differ));
    const auto hi = static_cast<unsigned>(std::bit_width(differ));
    const unsigned passes = (hi - lo + kDigitBits - 1) / kDigitBits;
    const unsigned width = (hi - lo + passes - 1) / passes;
    const std::uint32_t mask = (std::uint32_t{1} << width) - 1;
    std::vector<UserTraffic> scratch(users.size());
    std::vector<std::size_t> count;
    for (unsigned shift = lo; shift < hi; shift += width) {
      const auto digit = [shift, mask](const UserTraffic& u) {
        return static_cast<std::size_t>((u.user >> shift) & mask);
      };
      count.assign(std::size_t{mask} + 1, 0);
      for (const UserTraffic& u : users) ++count[digit(u)];
      std::size_t at = 0;
      for (std::size_t& bucket : count) at += std::exchange(bucket, at);
      for (const UserTraffic& u : users) scratch[count[digit(u)]++] = u;
      users.swap(scratch);
    }
  }
  // Fold each user's run in place.
  std::size_t settled = 0;
  for (std::size_t i = 0; i < users.size();) {
    UserTraffic sum;
    sum.user = users[i].user;
    for (; i < users.size() && users[i].user == sum.user; ++i) {
      sum.downloaded += users[i].downloaded;
      sum.uploaded += users[i].uploaded;
    }
    users[settled++] = sum;
  }
  users.resize(settled);
}

double swarm_savings(const SwarmResult& swarm,
                     const EnergyAccountant& accountant) {
  return accountant.savings(swarm.traffic);
}

std::vector<std::vector<double>> daily_savings(
    const SimResult& result, const EnergyAccountant& accountant) {
  const auto daily = result.daily_grid();
  std::vector<std::vector<double>> out;
  out.reserve(daily.size());
  for (const auto& day : daily) {
    std::vector<double> row;
    row.reserve(day.size());
    for (const auto& traffic : day) {
      row.push_back(accountant.savings(traffic));
    }
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace cl
