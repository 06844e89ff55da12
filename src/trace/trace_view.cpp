#include "trace/trace_view.h"

#include <bit>
#include <cstdint>
#include <type_traits>
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

/// Block `id` of `m` as a column of m.size() elements of T. Aliased
/// zero-copy when `alias` — the cast is why `.cltrace` payload blocks
/// are little-endian and 64-byte aligned (trace/trace_binary.h); the
/// mmap'd bytes are read-only and only ever accessed through these
/// column types. Otherwise (big-endian host, misaligned mapping) decoded
/// once into `owned`, and the checks that follow run on that copy.
template <typename T>
std::span<const T> column(const MappedTrace& m, std::size_t id, bool alias,
                          std::vector<T>& owned, unsigned threads) {
  const unsigned char* bytes = m.raw_block(id);
  if (alias) return {reinterpret_cast<const T*>(bytes), m.size()};
  owned.resize(m.size());
  parallel_shards(owned.size(), threads, [&](unsigned, std::size_t begin,
                                             std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if constexpr (std::is_same_v<T, double>) {
        owned[i] = load_f64_le(bytes + 8 * i);
      } else if constexpr (sizeof(T) == 4) {
        owned[i] = load_u32_le(bytes + 4 * i);
      } else {
        owned[i] = bytes[i];
      }
    }
  });
  return owned;
}

}  // namespace

/// Owned SoA backing: one vector per session column plus `order`, the
/// index order of from_trace or block 12 of the from_mapped fallback.
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
  const auto shared = std::make_shared<const MappedTrace>(std::move(mapped));
  const MappedTrace& m = *shared;
  const std::size_t n = m.size();
  const bool swarm_major = m.swarm_major();
  const bool alias = can_alias_columns(m);
  auto columns = std::make_shared<Columns>();  // filled unless aliasing

  TraceView view;
  view.metro_name_ = m.metro_name();  // validates the name block
  view.span_ = m.span();
  view.groups_ =
      std::make_shared<const std::vector<SwarmIndexGroup>>(m.index_groups());
  view.user_ = column(m, 0, alias, columns->user, threads);
  view.household_ = column(m, 1, alias, columns->household, threads);
  view.content_ = column(m, 2, alias, columns->content, threads);
  view.isp_ = column(m, 3, alias, columns->isp, threads);
  view.exp_ = column(m, 4, alias, columns->exp, threads);
  view.bitrate_ = column(m, 5, alias, columns->bitrate, threads);
  view.start_ = column(m, 6, alias, columns->start, threads);
  view.duration_ = column(m, 7, alias, columns->duration, threads);
  // Block 12 is the time order of a swarm-major (v3) file and the index
  // order of a start-order one.
  (swarm_major ? view.time_order_ : view.order_) =
      column(m, 12, alias, columns->order, threads);
  if (alias) {
    view.mapped_ = shared;
  } else {
    view.columns_ = std::move(columns);
  }

  // The one payload validation of a `.cltrace` file, column-wise: bitrate
  // range and the session invariants, without building a single
  // SessionRecord. Shard boundaries overlap by one element so the
  // ordering check of a start-order file covers every adjacent pair; a
  // swarm-major file's orders are check_swarm_major's.
  const double span_limit = view.span_.value() + 1e-6;
  parallel_shards(n, threads, [&](unsigned, std::size_t begin,
                                  std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (view.bitrate_[i] >= kBitrateClasses) {
        corrupt("bitrate class out of range: " +
                std::to_string(view.bitrate_[i]));
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

  // Then the index against the key columns: the swarm-major layout of a
  // v3 file, the persisted index order of a v1/v2 one.
  struct ColumnKeys {
    const std::uint32_t* content;
    const std::uint32_t* isp;
    const std::uint8_t* bitrate;
    void prefetch(std::uint32_t s) const {
      simd::prefetch(content + s);
      simd::prefetch(isp + s);
      simd::prefetch(bitrate + s);
    }
    bool matches(std::size_t, std::uint32_t s,
                 const SwarmIndexGroup& group) const {
      return content[s] == group.content && isp[s] == group.isp &&
             bitrate[s] == group.bitrate;
    }
  };
  try {
    if (swarm_major) {
      check_swarm_major(*view.groups_, view.time_order_, view.content_,
                        view.isp_, view.bitrate_, view.start_, threads);
    } else {
      check_swarm_index(*view.groups_, view.order_, n,
                        ColumnKeys{view.content_.data(), view.isp_.data(),
                                   view.bitrate_.data()},
                        threads);
    }
  } catch (const ParseError& e) {
    corrupt(e.what());
  }
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

Trace read_trace_binary_file(const std::string& path, unsigned threads) {
  MappedTrace mapped(path);
  const std::size_t n = mapped.size();
  // The rows are value-initialized before the sharded fill overwrites
  // them: 40 B a session, every page first touched by one thread. That
  // runs on a second worker while the view's column checks run, instead
  // of after them on the calling thread. The storage is reserved here so
  // it stays in the calling thread's malloc arena; n is bounded by the
  // file size, which MappedTrace checked.
  Trace trace;
  trace.sessions.reserve(n);
  trace.swarm_index.order.reserve(n);
  TraceView view;
  parallel_for_dynamic(2, threads, [&](std::size_t task) {
    if (task == 0) {
      view = TraceView::from_mapped(std::move(mapped), threads);
    } else {
      trace.sessions.resize(n);
      trace.swarm_index.order.resize(n);
    }
  });
  trace.span = view.span();
  trace.metro_name = view.metro_name();
  trace.swarm_index.groups.assign(view.groups().begin(), view.groups().end());
  // The index order comes from the file: a v1/v2 file stores it, and a
  // v3 file's is the inverse of its time order (storage position p holds
  // the session of start rank t with time_order[t] = p).
  const bool swarm_major = view.swarm_major();
  const std::span<const std::uint32_t> stored_order = view.order();
  parallel_shards(n, threads, [&](unsigned, std::size_t begin,
                                  std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      trace.sessions[t] = view.session(t);
      if (swarm_major) {
        trace.swarm_index.order[view.position_of(t)] =
            static_cast<std::uint32_t>(t);
      } else {
        trace.swarm_index.order[t] = stored_order[t];
      }
    }
  });
  return trace;
}

}  // namespace cl
