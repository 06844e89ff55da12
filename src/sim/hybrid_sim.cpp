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

/// Swarm list from the view's persisted full-key index — no hashing, no
/// re-sorting, and the spans are column ranges straight into the
/// (possibly mmap'd) order block. Only valid when the config keys swarms
/// by the full (content, ISP, bitrate) tuple, i.e. the index's own
/// partition.
std::vector<SwarmEntry> swarms_from_index(const TraceView& view) {
  const std::span<const SwarmIndexGroup> groups = view.groups();
  const std::span<const std::uint32_t> order = view.order();
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

/// Swarm list via hash grouping over the key columns (relaxed keys, or
/// traces without an index). `groups` is an out-parameter purely to own
/// the index vectors the returned spans point into.
std::vector<SwarmEntry> swarms_by_grouping(
    const TraceView& view, const SimConfig& config,
    std::unordered_map<SwarmKey, std::vector<std::uint32_t>>& groups) {
  const std::span<const std::uint32_t> content = view.content();
  const std::span<const std::uint32_t> isp = view.isp();
  const std::span<const std::uint8_t> bitrate = view.bitrate();
  groups.reserve(1024);
  for (std::uint32_t i = 0; i < view.size(); ++i) {
    SwarmKey key;
    key.content = content[i];
    if (config.isp_friendly) key.isp = isp[i];
    if (config.split_by_bitrate) key.bitrate = bitrate[i];
    groups[key].push_back(i);
  }
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

/// Pads the hourly grid of a collect_hourly result to the full
/// [hours][isps] shape (traffic-free cells stay zero), and the overload
/// spill vector to the same hour count when the overload model ran.
void pad_hourly(SimResult& result, double span_seconds,
                std::size_t isp_count) {
  const auto hours = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(span_seconds / 3600.0)));
  if (result.hourly.size() < hours) result.hourly.resize(hours);
  for (auto& hour : result.hourly) {
    if (hour.size() < isp_count) hour.resize(isp_count);
  }
  if (result.config.overload && result.hourly_spill.size() < hours) {
    result.hourly_spill.resize(hours);
  }
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

  // Partials start with an empty hourly grid; sweeps grow it only for the
  // hours their swarms actually touch (a month of per-chunk full grids
  // would cost O(chunks × hours × isps) up-front), and run() pads the
  // merged result to the full [hours][isps] shape at the end.
  const auto make_partial = [&] {
    SimResult partial;
    partial.config = config_;
    partial.span = view.span();
    return partial;
  };

  // Under the paper's full (content, ISP, bitrate) partition, a trace
  // loaded from the binary columnar format already carries its swarms in
  // sweep order — consume the index instead of re-grouping. Relaxed
  // partitions (cross-ISP / mixed-bitrate ablations) and index-less
  // traces group through a hash map as before; both paths emit the same
  // key order, so results are bit-identical between them.
  const bool index_usable =
      config_.isp_friendly && config_.split_by_bitrate && view.has_index();
  std::unordered_map<SwarmKey, std::vector<std::uint32_t>> groups;
  const std::vector<SwarmEntry> swarms =
      index_usable ? swarms_from_index(view)
                   : swarms_by_grouping(view, config_, groups);
  const auto group_end = Clock::now();

  // Shard the key-ordered swarm list across workers: each worker reuses
  // one SwarmSweep (scratch buffers + matcher) for every swarm it sweeps,
  // each fixed-size chunk accumulates into its own SimResult partial,
  // and partials merge in ascending swarm-key order —
  // bit-identical results at every thread count (the util/parallel.h
  // contract).
  ReduceTiming reduce_timing;
  SweepKernelTiming kernel_timing;
  SweepKernelTiming* kernel_sink = timing != nullptr ? &kernel_timing : nullptr;
  SimResult result = parallel_chunked_reduce_stateful(
      swarms.size(), config_.threads,
      [&] { return SwarmSweep(*metro_, config_, kernel_sink); }, make_partial,
      [&](SwarmSweep& sweep, SimResult& acc, std::size_t begin,
          std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          sweep.sweep(swarms[i].first, swarms[i].second, view, acc);
        }
      },
      [](SimResult& merged, const SimResult& chunk) { merged.merge(chunk); },
      swarms_per_chunk(swarms.size()),
      timing != nullptr ? &reduce_timing : nullptr);

  if (config_.collect_hourly) {
    pad_hourly(result, view.span().value(), metro_->isp_count());
  }
  if (timing != nullptr) {
    timing->group_seconds =
        std::chrono::duration<double>(group_end - group_start).count();
    timing->sweep_seconds = reduce_timing.work_seconds;
    timing->merge_seconds = reduce_timing.merge_seconds;
    timing->sweep_gather1_seconds = kernel_timing.gather1_seconds.load();
    timing->sweep_gather2_seconds = kernel_timing.gather2_seconds.load();
    timing->sweep_events_seconds = kernel_timing.events_seconds.load();
    timing->sweep_allocate_seconds = kernel_timing.allocate_seconds.load();
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

  const auto make_partial = [&] {
    SimResult partial;
    partial.config = config_;
    partial.span = trace.span;
    return partial;
  };

  const bool index_usable =
      config_.isp_friendly && config_.split_by_bitrate &&
      !trace.swarm_index.empty() &&
      trace.swarm_index.order.size() == trace.sessions.size();
  std::unordered_map<SwarmKey, std::vector<std::uint32_t>> groups;
  std::vector<SwarmEntry> swarms;
  if (index_usable) {
    swarms.reserve(trace.swarm_index.groups.size());
    for (const SwarmIndexGroup& group : trace.swarm_index.groups) {
      SwarmKey key;
      key.content = group.content;
      key.isp = group.isp;
      key.bitrate = group.bitrate;
      swarms.emplace_back(
          key, std::span<const std::uint32_t>(
                   trace.swarm_index.order.data() + group.begin, group.count));
    }
  } else {
    groups.reserve(1024);
    for (std::uint32_t i = 0; i < trace.sessions.size(); ++i) {
      groups[swarm_key_for(trace.sessions[i], config_)].push_back(i);
    }
    swarms.reserve(groups.size());
    for (const auto& [key, indices] : groups) {
      swarms.emplace_back(key, std::span<const std::uint32_t>(indices));
    }
    std::sort(swarms.begin(), swarms.end(),
              [](const SwarmEntry& a, const SwarmEntry& b) {
                if (a.first.content != b.first.content) {
                  return a.first.content < b.first.content;
                }
                if (a.first.isp != b.first.isp) {
                  return a.first.isp < b.first.isp;
                }
                return a.first.bitrate < b.first.bitrate;
              });
  }

  SimResult result = parallel_chunked_reduce_stateful(
      swarms.size(), config_.threads,
      [&] { return SwarmSweep(*metro_, config_); }, make_partial,
      [&](SwarmSweep& sweep, SimResult& acc, std::size_t begin,
          std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          sweep.sweep_rows(swarms[i].first, swarms[i].second, trace, acc);
        }
      },
      [](SimResult& merged, const SimResult& chunk) { merged.merge(chunk); },
      swarms_per_chunk(swarms.size()));

  if (config_.collect_hourly) {
    pad_hourly(result, trace.span.value(), metro_->isp_count());
  }
  return result;
}

}  // namespace cl
