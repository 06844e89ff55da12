#include "sim/hybrid_sim.h"

#include <algorithm>
#include <chrono>
#include <cmath>
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

/// Swarms per reduction chunk, as a function of the swarm count alone —
/// never the thread count — so chunk boundaries, and therefore the merged
/// floating-point result, are identical at every --threads value. Much
/// smaller than util/parallel.h's kReduceChunk: swarm sizes follow the
/// catalogue's Zipf skew, so small chunks are needed to load-balance the
/// popular head. Small simulations (e.g. one content item pre-filtered to
/// one ISP — a Fig. 2 dot) drop to single-swarm chunks so even they can
/// engage several workers.
std::size_t swarms_per_chunk(std::size_t swarms) {
  return std::clamp<std::size_t>(swarms / 64, 1, 8);
}

/// One swarm to sweep: its key plus a view of the session indices. The
/// span points into either the trace's persisted swarm index or the
/// grouping map built below — both outlive the sweep.
using SwarmEntry = std::pair<SwarmKey, std::span<const std::uint32_t>>;

/// Swarm list from a persisted full-key index (a Trace's swarm_index or
/// a TraceView's groups/order) — no hashing, no re-sorting, and the
/// spans are ranges straight into the (possibly mmap'd) order block.
/// Only valid when the config keys swarms by the full (content, ISP,
/// bitrate) tuple, i.e. the index's own partition.
std::vector<SwarmEntry> swarms_from_index(
    std::span<const SwarmIndexGroup> groups,
    std::span<const std::uint32_t> order) {
  std::vector<SwarmEntry> swarms;
  swarms.reserve(groups.size());
  for (const SwarmIndexGroup& group : groups) {
    SwarmKey key;
    key.content = group.content;
    key.isp = group.isp;
    key.bitrate = group.bitrate;
    swarms.emplace_back(key, order.subspan(group.begin, group.count));
  }
  return swarms;
}

/// Swarm list via hash grouping of sessions [0, n) by `key_of(i)`
/// (relaxed keys, or traces without an index). `groups` is an
/// out-parameter purely to own the index vectors the returned spans
/// point into.
template <typename KeyOf>
std::vector<SwarmEntry> swarms_by_grouping(
    std::size_t n, KeyOf&& key_of,
    std::unordered_map<SwarmKey, std::vector<std::uint32_t>>& groups) {
  groups.reserve(1024);
  for (std::uint32_t i = 0; i < n; ++i) groups[key_of(i)].push_back(i);
  // Deterministic sweep order (unordered_map order is
  // implementation-defined and would perturb floating-point accumulation).
  // Lexicographic (content, isp, bitrate) — the swarm index's order, and
  // identical to ascending packed() keys for every real topology.
  std::vector<SwarmEntry> swarms;
  swarms.reserve(groups.size());
  for (const auto& [key, indices] : groups) {
    swarms.emplace_back(key, std::span<const std::uint32_t>(indices));
  }
  std::sort(swarms.begin(), swarms.end(),
            [](const SwarmEntry& a, const SwarmEntry& b) {
              if (a.first.content != b.first.content) {
                return a.first.content < b.first.content;
              }
              if (a.first.isp != b.first.isp) return a.first.isp < b.first.isp;
              return a.first.bitrate < b.first.bitrate;
            });
  return swarms;
}

/// The sweep-ordered swarm list of sessions [0, n). Under the paper's
/// full (content, ISP, bitrate) partition a trace that carries its swarm
/// index (every `.cltrace`) is listed straight from it; relaxed
/// partitions (cross-ISP / mixed-bitrate ablations) and index-less
/// traces group by `key_of(i)` through a hash map. Both emit the same
/// key order, so results are bit-identical between them. `owned` keeps
/// the grouped index vectors alive.
template <typename KeyOf>
std::vector<SwarmEntry> list_swarms(
    const SimConfig& config, std::span<const SwarmIndexGroup> groups,
    std::span<const std::uint32_t> order, std::size_t n, KeyOf&& key_of,
    std::unordered_map<SwarmKey, std::vector<std::uint32_t>>& owned) {
  if (config.isp_friendly && config.split_by_bitrate && !groups.empty() &&
      order.size() == n) {
    return swarms_from_index(groups, order);
  }
  return swarms_by_grouping(n, key_of, owned);
}

/// Sweeps the key-ordered swarm list on config.threads workers:
/// sweep_one(sweep, entry, acc) sweeps one swarm with the worker's
/// reusable SwarmSweep (scratch buffers + matcher) into its chunk's
/// SimResult partial, and partials merge in ascending swarm-key order —
/// bit-identical results at every thread count (the util/parallel.h
/// contract). Partials start with an empty hourly grid; sweeps grow it
/// only for the hours their swarms touch (a month of per-chunk full
/// grids would cost O(chunks × hours × isps) up front), and the merged
/// grid is padded to the full [hours][isps] shape at the end (traffic-free
/// cells stay zero), the overload spill vector to the same hour count.
template <typename SweepOne>
SimResult sweep_swarms(const Metro& metro, const SimConfig& config,
                       Seconds span, const std::vector<SwarmEntry>& swarms,
                       SweepKernelTiming* kernel_timing,
                       ReduceTiming* reduce_timing, SweepOne&& sweep_one) {
  SimResult result = parallel_chunked_reduce_stateful(
      swarms.size(), config.threads,
      [&] { return SwarmSweep(metro, config, kernel_timing); },
      [&] {
        SimResult partial;
        partial.config = config;
        partial.span = span;
        return partial;
      },
      [&](SwarmSweep& sweep, SimResult& acc, std::size_t begin,
          std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          sweep_one(sweep, swarms[i], acc);
        }
      },
      [](SimResult& merged, const SimResult& chunk) { merged.merge(chunk); },
      swarms_per_chunk(swarms.size()), reduce_timing);
  if (config.collect_hourly) {
    const auto hours = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(span.value() / 3600.0)));
    if (result.hourly.size() < hours) result.hourly.resize(hours);
    for (auto& hour : result.hourly) {
      if (hour.size() < metro.isp_count()) hour.resize(metro.isp_count());
    }
    if (config.overload && result.hourly_spill.size() < hours) {
      result.hourly_spill.resize(hours);
    }
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
    for (std::size_t i = 0; i < view.size(); ++i) {
      if (isp[i] >= isp_count || exp[i] >= exp_limit[isp[i]]) {
        metro_mismatch(*metro_, view.metro_name(), isp[i], exp[i]);
      }
    }
  }

  const std::span<const std::uint32_t> content = view.content();
  const std::span<const std::uint8_t> bitrate = view.bitrate();
  std::unordered_map<SwarmKey, std::vector<std::uint32_t>> groups;
  const std::vector<SwarmEntry> swarms = list_swarms(
      config_, view.groups(), view.order(), view.size(),
      [&](std::uint32_t i) {
        SwarmKey key;
        key.content = content[i];
        if (config_.isp_friendly) key.isp = isp[i];
        if (config_.split_by_bitrate) key.bitrate = bitrate[i];
        return key;
      },
      groups);
  const auto group_end = Clock::now();

  ReduceTiming reduce_timing;
  SweepKernelTiming kernel_timing;
  SimResult result = sweep_swarms(
      *metro_, config_, view.span(), swarms,
      timing != nullptr ? &kernel_timing : nullptr,
      timing != nullptr ? &reduce_timing : nullptr,
      [&](SwarmSweep& sweep, const SwarmEntry& swarm, SimResult& acc) {
        sweep.sweep(swarm.first, swarm.second, view, acc);
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
  }
  return result;
}

SimResult HybridSimulator::run(const Trace& trace) const {
  return run(TraceView::from_trace(trace, config_.threads));
}

SimResult HybridSimulator::run_rows(const Trace& trace) const {
  for (const SessionRecord& s : trace.sessions) {
    if (s.isp >= metro_->isp_count() ||
        s.exp >= metro_->isp(s.isp).exchange_points()) {
      metro_mismatch(*metro_, trace.metro_name, s.isp, s.exp);
    }
  }

  std::unordered_map<SwarmKey, std::vector<std::uint32_t>> groups;
  const std::vector<SwarmEntry> swarms = list_swarms(
      config_, trace.swarm_index.groups, trace.swarm_index.order,
      trace.sessions.size(),
      [&](std::uint32_t i) {
        return swarm_key_for(trace.sessions[i], config_);
      },
      groups);
  return sweep_swarms(
      *metro_, config_, trace.span, swarms, nullptr, nullptr,
      [&](SwarmSweep& sweep, const SwarmEntry& swarm, SimResult& acc) {
        sweep.sweep_rows(swarm.first, swarm.second, trace, acc);
      });
}

}  // namespace cl
