#include "check.h"

#include <bit>
#include <cmath>
#include <fstream>
#include <sstream>

#include "util/error.h"

namespace perfbench {

namespace {

[[nodiscard]] bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

[[nodiscard]] bool near(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

/// The lanes of one traffic breakdown, in a fixed order.
[[nodiscard]] std::vector<double> lanes(const cl::TrafficBreakdown& t) {
  std::vector<double> out{t.server.value()};
  for (const cl::Bits& level : t.peer) out.push_back(level.value());
  out.push_back(t.cross_isp.value());
  return out;
}

void compare_lanes(const std::string& where, const cl::TrafficBreakdown& got,
                   const cl::TrafficBreakdown& ref,
                   std::vector<std::string>& failures) {
  const std::vector<double> g = lanes(got);
  const std::vector<double> r = lanes(ref);
  for (std::size_t lane = 0; lane < g.size(); ++lane) {
    if (!same_bits(g[lane], r[lane])) {
      std::ostringstream message;
      message.precision(17);
      message << where << " lane " << lane << ": " << g[lane]
              << " != reference " << r[lane];
      failures.push_back(message.str());
      return;
    }
  }
}

void compare_sims(const std::string& label, const cl::SimResult& got,
                  const cl::SimResult& ref,
                  std::vector<std::string>& failures) {
  compare_lanes(label + " total", got.total, ref.total, failures);
  if (!same_bits(got.overload_spill.value(), ref.overload_spill.value())) {
    failures.push_back(label + " overload_spill differs from the reference");
  }
  if (got.hourly.size() != ref.hourly.size() ||
      got.hourly_spill.size() != ref.hourly_spill.size()) {
    failures.push_back(label + " hourly grid shape differs from the reference");
    return;
  }
  for (std::size_t h = 0; h < got.hourly.size(); ++h) {
    if (got.hourly[h].size() != ref.hourly[h].size()) {
      failures.push_back(label + " hourly row " + std::to_string(h) +
                         " has a different ISP count");
      return;
    }
    for (std::size_t isp = 0; isp < got.hourly[h].size(); ++isp) {
      compare_lanes(label + " hourly[" + std::to_string(h) + "][" +
                        std::to_string(isp) + "]",
                    got.hourly[h][isp], ref.hourly[h][isp], failures);
    }
  }
  for (std::size_t h = 0; h < got.hourly_spill.size(); ++h) {
    if (!same_bits(got.hourly_spill[h].value(), ref.hourly_spill[h].value())) {
      failures.push_back(label + " hourly_spill[" + std::to_string(h) +
                         "] differs from the reference");
    }
  }
}

}  // namespace

std::uint64_t hash_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw cl::IoError("cannot read " + path);
  std::uint64_t hash = 14695981039346656037ull;
  std::vector<char> buffer(1 << 20);
  while (in) {
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    const auto n = static_cast<std::size_t>(in.gcount());
    for (std::size_t i = 0; i < n; ++i) {
      hash = (hash ^ static_cast<unsigned char>(buffer[i])) * 1099511628211ull;
    }
  }
  return hash;
}

std::vector<std::string> check_invariants(const std::string& label,
                                          const cl::SimResult& result) {
  std::vector<std::string> failures;
  const double offload = result.offload();
  if (!(offload >= 0 && offload <= 1)) {
    failures.push_back(label + " offload " + std::to_string(offload) +
                       " outside [0, 1]");
  }
  if (!result.hourly.empty()) {
    cl::TrafficBreakdown sum;
    for (const auto& row : result.hourly) {
      for (const auto& cell : row) sum += cell;
    }
    const std::vector<double> s = lanes(sum);
    const std::vector<double> t = lanes(result.total);
    for (std::size_t lane = 0; lane < s.size(); ++lane) {
      if (!near(s[lane], t[lane])) {
        failures.push_back(label + " hourly grid lane " +
                           std::to_string(lane) + " does not sum to total");
        break;
      }
    }
  }
  if (!result.hourly_spill.empty()) {
    double spill = 0;
    for (const cl::Bits& hour : result.hourly_spill) spill += hour.value();
    if (!near(spill, result.overload_spill.value())) {
      failures.push_back(label + " hourly spill does not sum to overload_spill");
    }
  }
  return failures;
}

std::vector<std::string> check_output(Output& got, const Output& reference,
                                      const std::vector<Band>& bands) {
  std::vector<std::string> failures;
  if (got.sims.size() != reference.sims.size() ||
      got.values.size() != reference.values.size() ||
      got.texts.size() != reference.texts.size()) {
    failures.push_back("output shape differs from the reference");
    return failures;
  }
  for (std::size_t i = 0; i < got.sims.size(); ++i) {
    const auto& [label, sim] = got.sims[i];
    compare_sims(label, sim, reference.sims[i].second, failures);
    for (std::string& failure : check_invariants(label, sim)) {
      failures.push_back(std::move(failure));
    }
  }
  for (std::size_t i = 0; i < got.values.size(); ++i) {
    const auto& [name, value] = got.values[i];
    if (name != reference.values[i].first ||
        !same_bits(value, reference.values[i].second)) {
      std::ostringstream message;
      message.precision(17);
      message << name << " = " << value << " != reference "
              << reference.values[i].second;
      failures.push_back(message.str());
    }
  }
  for (std::size_t i = 0; i < got.texts.size(); ++i) {
    if (got.texts[i] != reference.texts[i]) {
      failures.push_back(got.texts[i].first + " differs from the reference");
    }
  }
  for (const Band& band : bands) {
    bool found = false;
    for (const auto& [name, value] : got.values) {
      if (name != band.value) continue;
      found = true;
      if (!(value >= band.low && value <= band.high)) {
        std::ostringstream message;
        message << name << " = " << value << " outside [" << band.low << ", "
                << band.high << "]";
        failures.push_back(message.str());
      }
    }
    if (!found) failures.push_back(band.value + " missing from the output");
  }
  if (!reference.file.empty()) {
    got.file_hash = got.file.empty() ? 0 : hash_file(got.file);
    if (got.file_hash != reference.file_hash) {
      failures.push_back("written .cltrace hash differs from the reference");
    }
  }
  return failures;
}

}  // namespace perfbench
