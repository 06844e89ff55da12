#include "sim/hybrid_sim.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/swarm_sweep.h"
#include "trace/swarm_index.h"
#include "util/error.h"
#include "util/parallel.h"

namespace cl {

namespace {

/// One swarm to sweep: its key and its sessions, at storage positions
/// base + indices[k]. The span points into the trace's persisted swarm
/// index, the grouping map built below, or — when storage is swarm-major
/// and `base` is the group's first position — one shared identity
/// 0, 1, ..., all of which outlive the sweep.
struct SwarmEntry {
  SwarmKey key;
  std::uint32_t base = 0;  // session positions are 32-bit, like order
  std::span<const std::uint32_t> indices;
};

/// Swarm list from a persisted full-key index (a Trace's swarm_index or
/// a TraceView's groups/order) — no hashing, no re-sorting, and the
/// spans are ranges straight into the (possibly mmap'd) order block. An
/// empty `order` means swarm-major storage: each group is one contiguous
/// slice of the columns, swept through `identity`. Only valid when the
/// config keys swarms by the full (content, ISP, bitrate) tuple, i.e.
/// the index's own partition.
std::vector<SwarmEntry> swarms_from_index(
    std::span<const SwarmIndexGroup> groups,
    std::span<const std::uint32_t> order,
    std::vector<std::uint32_t>& identity) {
  if (order.empty()) {
    std::uint64_t largest = 0;
    for (const SwarmIndexGroup& group : groups) {
      largest = std::max(largest, group.count);
    }
    identity.resize(largest);
    std::iota(identity.begin(), identity.end(), std::uint32_t{0});
  }
  std::vector<SwarmEntry> swarms;
  swarms.reserve(groups.size());
  for (const SwarmIndexGroup& group : groups) {
    SwarmEntry& swarm = swarms.emplace_back();
    swarm.key.content = group.content;
    swarm.key.isp = group.isp;
    swarm.key.bitrate = group.bitrate;
    if (order.empty()) {
      swarm.base = static_cast<std::uint32_t>(group.begin);
      swarm.indices = std::span<const std::uint32_t>(identity).first(
          group.count);
    } else {
      swarm.indices = order.subspan(group.begin, group.count);
    }
  }
  return swarms;
}

/// Swarm list via hash grouping by `key_of(i)` (relaxed keys, or traces
/// without an index) of storage positions [0, n), taken in start order:
/// through `time_order` when storage is not start order, so each swarm
/// lists its sessions in start order whatever the storage. `groups` is
/// an out-parameter purely to own the index vectors the returned spans
/// point into.
template <typename KeyOf>
std::vector<SwarmEntry> swarms_by_grouping(
    std::size_t n, std::span<const std::uint32_t> time_order, KeyOf&& key_of,
    std::unordered_map<SwarmKey, std::vector<std::uint32_t>>& groups) {
  groups.reserve(1024);
  for (std::size_t t = 0; t < n; ++t) {
    const auto i = static_cast<std::uint32_t>(
        time_order.empty() ? t : time_order[t]);
    groups[key_of(i)].push_back(i);
  }
  // Deterministic sweep order (unordered_map order is
  // implementation-defined and would perturb floating-point accumulation).
  // Lexicographic (content, isp, bitrate) — the swarm index's order, and
  // identical to ascending packed() keys for every real topology.
  std::vector<SwarmEntry> swarms;
  swarms.reserve(groups.size());
  for (const auto& [key, indices] : groups) {
    SwarmEntry& swarm = swarms.emplace_back();
    swarm.key = key;
    swarm.indices = indices;
  }
  std::sort(swarms.begin(), swarms.end(),
            [](const SwarmEntry& a, const SwarmEntry& b) {
              if (a.key.content != b.key.content) {
                return a.key.content < b.key.content;
              }
              if (a.key.isp != b.key.isp) return a.key.isp < b.key.isp;
              return a.key.bitrate < b.key.bitrate;
            });
  return swarms;
}

/// The sweep-ordered swarm list of storage positions [0, n). Under the
/// paper's full (content, ISP, bitrate) partition a trace that carries
/// its swarm index (every `.cltrace`) is listed straight from it;
/// relaxed partitions (cross-ISP / mixed-bitrate ablations) and
/// index-less traces group by `key_of(i)` through a hash map. Both emit
/// the same key order and list each swarm's sessions in start order, so
/// results are bit-identical between them. `owned` and `identity` keep
/// what the spans point into alive.
template <typename KeyOf>
std::vector<SwarmEntry> list_swarms(
    const SimConfig& config, std::span<const SwarmIndexGroup> groups,
    std::span<const std::uint32_t> order,
    std::span<const std::uint32_t> time_order, std::size_t n, KeyOf&& key_of,
    std::unordered_map<SwarmKey, std::vector<std::uint32_t>>& owned,
    std::vector<std::uint32_t>& identity) {
  const bool swarm_major = !time_order.empty();
  if (config.isp_friendly && config.split_by_bitrate && !groups.empty() &&
      (swarm_major || order.size() == n)) {
    return swarms_from_index(groups, order, identity);
  }
  return swarms_by_grouping(n, time_order, key_of, owned);
}

/// Sweeps the key-ordered swarm list on config.threads workers, in the
/// chunks of sweep_chunk_bounds: sweep_one(sweep, entry, acc) sweeps one
/// swarm with the worker's reusable SwarmSweep (scratch buffers +
/// matcher) into its chunk's ChunkPartial, and the calling thread folds
/// the partials in ascending swarm-key order — bit-identical results at
/// every thread count (the util/parallel.h contract, with each reduce
/// index one chunk). The fold sums the totals and the spill,
/// appends the swarm rows and the per-user lists, and adds each chunk's
/// flat hourly block (SwarmSweep::finish_chunk) into one flat
/// [hours][isps] grid sized up front to the span (traffic-free cells
/// stay zero), the overload spill likewise per hour. The one SimResult
/// is built from the folded partial at the end: the per-user lists
/// settle once into the user-ordered column and the grid becomes
/// SimResult::hourly. Both are timed as part of the merge.
template <typename SweepOne>
SimResult sweep_swarms(const Metro& metro, const SimConfig& config,
                       Seconds span, const std::vector<SwarmEntry>& swarms,
                       SweepKernelTiming* kernel_timing,
                       ReduceTiming* reduce_timing, SweepOne&& sweep_one) {
  const std::size_t isps = metro.isp_count();
  const std::size_t hours =
      config.collect_hourly ? hour_count(span.value()) : 0;
  // The merged grid, [hour][isp] row-major, and the per-hour spill. Only
  // the calling thread folds into them (util/parallel.h).
  std::vector<TrafficBreakdown> grid(hours * isps);
  std::vector<Bits> grid_spill(config.overload ? hours : 0);
  std::vector<std::size_t> sessions(swarms.size());
  for (std::size_t i = 0; i < swarms.size(); ++i) {
    sessions[i] = swarms[i].indices.size();
  }
  const std::vector<std::size_t> bounds = sweep_chunk_bounds(sessions);
  ChunkPartial merged = parallel_chunked_reduce_stateful(
      bounds.size() - 1, config.threads,
      [&] { return SwarmSweep(metro, config, kernel_timing); },
      [] { return ChunkPartial{}; },
      [&](SwarmSweep& sweep, ChunkPartial& acc, std::size_t chunk,
          std::size_t) {
        for (std::size_t i = bounds[chunk]; i < bounds[chunk + 1]; ++i) {
          sweep_one(sweep, swarms[i], acc);
        }
        sweep.finish_chunk(acc);
      },
      [&](ChunkPartial& total, const ChunkPartial& chunk) {
        total.total += chunk.total;
        total.overload_spill += chunk.overload_spill;
        total.swarms.insert(total.swarms.end(), chunk.swarms.begin(),
                            chunk.swarms.end());
        total.users.insert(total.users.end(), chunk.users.begin(),
                           chunk.users.end());
        const std::size_t at = chunk.first_hour * isps;
        CL_ENSURES(at + chunk.hourly.size() <= grid.size());
        for (std::size_t i = 0; i < chunk.hourly.size(); ++i) {
          grid[at + i] += chunk.hourly[i];
        }
        if (!chunk.hourly_spill.empty()) {
          CL_ENSURES(chunk.first_hour + chunk.hourly_spill.size() <=
                     grid_spill.size());
          for (std::size_t h = 0; h < chunk.hourly_spill.size(); ++h) {
            grid_spill[chunk.first_hour + h] += chunk.hourly_spill[h];
          }
        }
      },
      /*chunk_len=*/1, reduce_timing);
  const auto settle_start = std::chrono::steady_clock::now();
  SimResult result;
  result.config = config;
  result.span = span;
  result.total = merged.total;
  result.overload_spill = merged.overload_spill;
  result.swarms = std::move(merged.swarms);
  result.users = std::move(merged.users);
  result.settle_users();
  if (config.collect_hourly) {
    result.hourly.resize(hours);
    for (std::size_t h = 0; h < hours; ++h) {
      const auto row = grid.begin() + static_cast<std::ptrdiff_t>(h * isps);
      result.hourly[h].assign(row, row + static_cast<std::ptrdiff_t>(isps));
    }
    result.hourly_spill = std::move(grid_spill);
  }
  if (reduce_timing != nullptr) {
    reduce_timing->merge_seconds += std::chrono::duration<double>(
        std::chrono::steady_clock::now() - settle_start).count();
  }
  return result;
}

[[noreturn]] void metro_mismatch(const Metro& metro,
                                 const std::string& trace_metro,
                                 std::uint32_t isp, std::uint32_t exp) {
  const std::string metro_label =
      metro.name().empty() ? std::string("<unnamed>") : metro.name();
  throw InvalidArgument(
      "trace does not fit metro '" + metro_label + "': session has isp " +
      std::to_string(isp) + ", exp " + std::to_string(exp) +
      (trace_metro.empty()
           ? std::string()
           : " (trace was generated for metro '" + trace_metro + "')"));
}

}  // namespace

std::vector<std::size_t> sweep_chunk_bounds(
    std::span<const std::size_t> sessions) {
  std::size_t total = 0;
  for (const std::size_t n : sessions) total += n + kSweepSwarmWeight;
  const std::size_t target =
      (total + kSweepChunkCount - 1) / kSweepChunkCount;
  std::vector<std::size_t> bounds{0};
  std::size_t weight = 0;  // of the open chunk
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const std::size_t w = sessions[i] + kSweepSwarmWeight;
    if (weight > 0 && w >= target) {
      bounds.push_back(i);
      weight = 0;
    }
    weight += w;
    if (weight >= target) {
      bounds.push_back(i + 1);
      weight = 0;
    }
  }
  if (weight > 0) bounds.push_back(sessions.size());
  return bounds;
}

HybridSimulator::HybridSimulator(const Metro& metro, SimConfig config)
    : metro_(&metro), config_(config) {
  CL_EXPECTS(config_.window.value() > 0);
  CL_EXPECTS(config_.q_over_beta >= 0);
}

SimResult HybridSimulator::run(const TraceView& view,
                               SimPhaseTiming* timing) const {
  using Clock = std::chrono::steady_clock;
  const auto group_start = Clock::now();
  // A trace replayed against the wrong metro (e.g. a London trace whose
  // 345 exchange-point ids overflow the sparser us_sparse trees) would
  // only surface as an opaque contract failure deep inside a sweep — or
  // worse, not at all when the ids happen to fit. Check the whole trace
  // against this metro's shape up front, column-wise; one O(n) pass is
  // noise next to the sweep itself. The pass is branch-free flag
  // accumulation (no early exit) so the compiler can vectorize it —
  // tools/check_vectorization.py gates the remark — and the rare failing
  // trace pays one scalar rescan for the error message.
  const std::span<const std::uint32_t> isp = view.isp();
  const std::span<const std::uint32_t> exp = view.exp();
  const auto isp_count = static_cast<std::uint32_t>(metro_->isp_count());
  std::vector<std::uint32_t> exp_limit(isp_count);
  for (std::uint32_t a = 0; a < isp_count; ++a) {
    exp_limit[a] = metro_->isp(a).exchange_points();
  }
  std::uint32_t max_isp = 0;
  // [vec:metro-fit-isp]
  for (std::size_t i = 0; i < view.size(); ++i) {
    max_isp = std::max(max_isp, isp[i]);
  }
  bool fits = max_isp < isp_count || view.size() == 0;
  if (fits) {
    std::uint32_t bad = 0;
    // [vec:metro-fit-exp]
    for (std::size_t i = 0; i < view.size(); ++i) {
      bad |= exp[i] >= exp_limit[isp[i]] ? 1u : 0u;
    }
    fits = bad == 0;
  }
  if (!fits) {
    // Name the first misfit in start order, whatever the storage order.
    for (std::size_t t = 0; t < view.size(); ++t) {
      const std::size_t i = view.position_of(t);
      if (isp[i] >= isp_count || exp[i] >= exp_limit[isp[i]]) {
        metro_mismatch(*metro_, view.metro_name(), isp[i], exp[i]);
      }
    }
  }

  const std::span<const std::uint32_t> content = view.content();
  const std::span<const std::uint8_t> bitrate = view.bitrate();
  std::unordered_map<SwarmKey, std::vector<std::uint32_t>> groups;
  std::vector<std::uint32_t> identity;
  const std::vector<SwarmEntry> swarms = list_swarms(
      config_, view.groups(), view.order(), view.time_order(), view.size(),
      [&](std::uint32_t i) {
        SwarmKey key;
        key.content = content[i];
        if (config_.isp_friendly) key.isp = isp[i];
        if (config_.split_by_bitrate) key.bitrate = bitrate[i];
        return key;
      },
      groups, identity);
  const auto group_end = Clock::now();

  ReduceTiming reduce_timing;
  SweepKernelTiming kernel_timing;
  SimResult result = sweep_swarms(
      *metro_, config_, view.span(), swarms,
      timing != nullptr ? &kernel_timing : nullptr,
      timing != nullptr ? &reduce_timing : nullptr,
      [&](SwarmSweep& sweep, const SwarmEntry& swarm, ChunkPartial& acc) {
        sweep.sweep(swarm.key, swarm.indices, view, acc, swarm.base);
      });
  if (timing != nullptr) {
    timing->group_seconds =
        std::chrono::duration<double>(group_end - group_start).count();
    timing->sweep_seconds = reduce_timing.work_seconds;
    timing->merge_seconds = reduce_timing.merge_seconds;
    timing->sweep_gather1_seconds = kernel_timing.gather1_seconds.load();
    timing->sweep_gather2_seconds = kernel_timing.gather2_seconds.load();
    timing->sweep_events_seconds = kernel_timing.events_seconds.load();
    timing->sweep_allocate_seconds = kernel_timing.allocate_seconds.load();
    timing->count_stretches = kernel_timing.count_stretches.load();
    timing->per_peer_stretches = kernel_timing.per_peer_stretches.load();
    timing->overload_split_stretches =
        kernel_timing.overload_split_stretches.load();
    timing->chunks = reduce_timing.chunks;
    timing->peak_backlog = reduce_timing.peak_backlog;
  }
  return result;
}

SimResult HybridSimulator::run_rows(const Trace& trace) const {
  for (const SessionRecord& s : trace.sessions) {
    if (s.isp >= metro_->isp_count() ||
        s.exp >= metro_->isp(s.isp).exchange_points()) {
      metro_mismatch(*metro_, trace.metro_name, s.isp, s.exp);
    }
  }

  std::unordered_map<SwarmKey, std::vector<std::uint32_t>> groups;
  std::vector<std::uint32_t> identity;
  const std::vector<SwarmEntry> swarms = list_swarms(
      config_, trace.swarm_index.groups, trace.swarm_index.order, {},
      trace.sessions.size(),
      [&](std::uint32_t i) {
        return swarm_key_for(trace.sessions[i], config_);
      },
      groups, identity);
  return sweep_swarms(
      *metro_, config_, trace.span, swarms, nullptr, nullptr,
      [&](SwarmSweep& sweep, const SwarmEntry& swarm, ChunkPartial& acc) {
        sweep.sweep_rows(swarm.key, swarm.indices, trace, acc);
      });
}

}  // namespace cl
