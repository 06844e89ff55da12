#include "trace/trace_view.h"

#include <bit>
#include <cstdint>
#include <utility>

#include "trace/bitrate.h"
#include "trace/swarm_index.h"
#include "trace/trace_binary.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/serialize.h"
#include "util/simd.h"

namespace cl {

namespace {

[[noreturn]] void corrupt(const std::string& what) {
  throw ParseError("corrupt .cltrace file: " + what);
}

template <typename T>
bool aligned_for(const unsigned char* p) {
  return reinterpret_cast<std::uintptr_t>(p) % alignof(T) == 0;
}

/// True when the mapped payload blocks can be aliased as typed columns:
/// the host is little-endian (the on-disk byte order) and every
/// fixed-width block pointer is naturally aligned (guaranteed in
/// practice: blocks are 64-byte aligned within the file and the mapping
/// is at least page/16-byte aligned — this is the check, not the hope).
bool can_alias_columns(const MappedTrace& m) {
  if constexpr (std::endian::native != std::endian::little) {
    return false;
  }
  for (const std::size_t id : {0u, 1u, 2u, 3u, 4u, 12u}) {
    if (!aligned_for<std::uint32_t>(m.raw_block(id))) return false;
  }
  for (const std::size_t id : {6u, 7u}) {
    if (!aligned_for<double>(m.raw_block(id))) return false;
  }
  return true;
}

}  // namespace

/// Owned SoA backing: one vector per session column plus the index
/// order. Engaged by from_trace and by the from_mapped fallback.
struct TraceView::Columns {
  std::vector<std::uint32_t> user, household, content, isp, exp;
  std::vector<std::uint8_t> bitrate;
  std::vector<double> start, duration;
  std::vector<std::uint32_t> order;
};

TraceView TraceView::from_trace(const Trace& trace, unsigned threads) {
  const std::size_t n = trace.sessions.size();
  auto columns = std::make_shared<Columns>();
  columns->user.resize(n);
  columns->household.resize(n);
  columns->content.resize(n);
  columns->isp.resize(n);
  columns->exp.resize(n);
  columns->bitrate.resize(n);
  columns->start.resize(n);
  columns->duration.resize(n);
  parallel_shards(n, threads, [&](unsigned, std::size_t begin,
                                  std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const SessionRecord& s = trace.sessions[i];
      columns->user[i] = s.user;
      columns->household[i] = s.household;
      columns->content[i] = s.content;
      columns->isp[i] = s.isp;
      columns->exp[i] = s.exp;
      columns->bitrate[i] = static_cast<std::uint8_t>(s.bitrate);
      columns->start[i] = s.start;
      columns->duration[i] = s.duration;
    }
  });
  columns->order = trace.swarm_index.order;

  TraceView view;
  view.user_ = columns->user;
  view.household_ = columns->household;
  view.content_ = columns->content;
  view.isp_ = columns->isp;
  view.exp_ = columns->exp;
  view.bitrate_ = columns->bitrate;
  view.start_ = columns->start;
  view.duration_ = columns->duration;
  view.order_ = columns->order;
  view.groups_ = std::make_shared<const std::vector<SwarmIndexGroup>>(
      trace.swarm_index.groups);
  view.span_ = trace.span;
  view.metro_name_ = trace.metro_name;
  view.columns_ = std::move(columns);
  return view;
}

TraceView TraceView::from_mapped(MappedTrace mapped, unsigned threads) {
  if (!can_alias_columns(mapped)) {
    // Big-endian or pathologically aligned mapping: decode once into SoA
    // buffers through the checked row loader (the slow, always-correct
    // road — unreachable on every platform CI covers).
    const Trace trace = mapped.to_trace(threads);
    return from_trace(trace, threads);
  }

  const auto shared =
      std::make_shared<const MappedTrace>(std::move(mapped));
  const MappedTrace& m = *shared;
  const std::size_t n = m.size();

  TraceView view;
  view.metro_name_ = m.metro_name();  // validates the name block
  view.span_ = m.span();
  // The aliasing casts below are why `.cltrace` payload blocks are
  // little-endian and 64-byte aligned (trace/trace_binary.h): the mmap'd
  // bytes are read-only and only ever accessed through these column
  // types.
  view.user_ = {reinterpret_cast<const std::uint32_t*>(m.raw_block(0)), n};
  view.household_ = {reinterpret_cast<const std::uint32_t*>(m.raw_block(1)),
                     n};
  view.content_ = {reinterpret_cast<const std::uint32_t*>(m.raw_block(2)), n};
  view.isp_ = {reinterpret_cast<const std::uint32_t*>(m.raw_block(3)), n};
  view.exp_ = {reinterpret_cast<const std::uint32_t*>(m.raw_block(4)), n};
  view.bitrate_ = {m.raw_block(5), n};
  view.start_ = {reinterpret_cast<const double*>(m.raw_block(6)), n};
  view.duration_ = {reinterpret_cast<const double*>(m.raw_block(7)), n};
  // Block 12 is the time order of a swarm-major (v3) file and the index
  // order of a start-order one.
  const std::span<const std::uint32_t> block12 = {
      reinterpret_cast<const std::uint32_t*>(m.raw_block(12)), n};
  const bool swarm_major = m.swarm_major();
  if (swarm_major) {
    view.time_order_ = block12;
  } else {
    view.order_ = block12;
  }

  // Field-level validation, column-wise — the same checks to_trace()
  // performs on materialized rows (bitrate range, session invariants),
  // without building a single SessionRecord. Shard boundaries overlap by
  // one element so the ordering check of a start-order file covers every
  // adjacent pair; a swarm-major file's orders are check_swarm_major's.
  const double span_limit = view.span_.value() + 1e-6;
  parallel_shards(n, threads, [&](unsigned, std::size_t begin,
                                  std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (view.bitrate_[i] >= kBitrateClasses) {
        throw ParseError("corrupt .cltrace file: bitrate class out of "
                         "range: " + std::to_string(view.bitrate_[i]));
      }
      const double start = view.start_[i];
      const double duration = view.duration_[i];
      if (!(duration >= 0) || !(start >= 0) ||
          !(start + duration <= span_limit) ||
          (!swarm_major && i > 0 && !(start >= view.start_[i - 1]))) {
        corrupt("session " + std::to_string(i) +
                " violates the trace invariants (ordering, non-negative "
                "duration, inside the span)");
      }
    }
  });

  // Decode the group table (tiny: one entry per swarm) and check the
  // index against the key columns: the same checks to_trace() runs.
  auto groups =
      std::make_shared<const std::vector<SwarmIndexGroup>>(m.index_groups());
  struct ColumnKeys {
    const std::uint32_t* content;
    const std::uint32_t* isp;
    const std::uint8_t* bitrate;
    const double* start;
    void prefetch(std::uint32_t s) const {
      simd::prefetch(content + s);
      simd::prefetch(isp + s);
      simd::prefetch(bitrate + s);
    }
    void prefetch_start(std::uint32_t s) const { simd::prefetch(start + s); }
    bool matches(std::size_t, std::uint32_t s,
                 const SwarmIndexGroup& group) const {
      return content[s] == group.content && isp[s] == group.isp &&
             bitrate[s] == group.bitrate;
    }
    double start_of(std::uint32_t s) const { return start[s]; }
  };
  const ColumnKeys keys{view.content_.data(), view.isp_.data(),
                        view.bitrate_.data(), view.start_.data()};
  try {
    if (swarm_major) {
      check_swarm_major(*groups, view.time_order_, n, keys, threads);
    } else {
      check_swarm_index(*groups, view.order_, n, keys, threads);
    }
  } catch (const ParseError& e) {
    corrupt(e.what());
  }

  view.groups_ = std::move(groups);
  view.mapped_ = shared;
  return view;
}

TraceView TraceView::open_binary(const std::string& path, unsigned threads) {
  return from_mapped(MappedTrace(path), threads);
}

SessionRecord TraceView::session(std::size_t t) const {
  CL_EXPECTS(t < size());
  const std::size_t i = position_of(t);
  SessionRecord s;
  s.user = user_[i];
  s.household = household_[i];
  s.content = content_[i];
  s.isp = isp_[i];
  s.exp = exp_[i];
  s.bitrate = static_cast<BitrateClass>(bitrate_[i]);
  s.start = start_[i];
  s.duration = duration_[i];
  return s;
}

}  // namespace cl
