// trace_view.h — columnar, zero-materialization view of a trace.
//
// The simulator's hot loops (sim/swarm_sweep.h) consume *columns*, not
// rows: per-field spans of start times, durations, swarm-key parts and
// user/ISP/ExP ids. A TraceView is the abstraction that hands those
// spans out, backed by one of two storages:
//
//  * zero-copy — the spans alias the mmap'd `.cltrace` column blocks of
//    a MappedTrace directly (the blocks are little-endian and 64-byte
//    aligned exactly so this cast is legal); nothing is decoded per
//    session, nothing is materialized. This is the default for binary
//    traces on little-endian hosts.
//  * owned SoA — the spans point into column vectors transposed once
//    from a row-structured Trace (CSV loads, generated or filtered
//    traces), or decoded from the mapped blocks on big-endian/misaligned
//    hosts.
//
// Ownership and lifetime: a TraceView *shares* its backing (the mapped
// file or the SoA buffers) via shared_ptr, so views are cheap to copy,
// safe to move, and every span a view handed out stays valid for as
// long as any copy of that view lives. The one thing a view never does
// is keep a `Trace&` alive — from_trace() copies the columns out, so
// the source Trace may be destroyed immediately afterwards.
//
// Storage order vs time order: the columns are in the order the backing
// stores them. An owned view and a v1/v2 file store start order, and
// order() is the swarm-key-sorted permutation of positions. A v3 file
// stores swarm-major: group g is positions [begin, begin + count) of
// every column, so order() is the identity and is left empty, and
// time_order() maps start order to storage. session(i) always returns
// the i-th session in start order.
//
// from_mapped is the one place where `.cltrace` payload bytes are
// checked (MappedTrace checks only the header and the block directory):
// bitrate range, the session ordering/span invariants, and the swarm
// index (check_swarm_index) or swarm-major layout (check_swarm_major),
// as column passes, without materializing a SessionRecord. The rows
// reader, read_trace_binary_file, builds its Trace from that validated
// view, so both readers accept and refuse the same files with the same
// messages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "trace/session.h"
#include "trace/trace_mmap.h"
#include "util/units.h"

namespace cl {

/// Columnar view of a trace: per-field spans plus the swarm index.
class TraceView {
 public:
  /// An empty view (no sessions, no index).
  TraceView() = default;

  /// Transposes a row-structured Trace into owned SoA columns (sharded
  /// across `threads` workers; 0 = all hardware threads). The returned
  /// view is self-contained — `trace` may die right after this returns.
  /// Trusts its input: field invariants are the loader's responsibility
  /// (HybridSimulator::run checks only the metro fit).
  [[nodiscard]] static TraceView from_trace(const Trace& trace,
                                            unsigned threads = 1);

  /// Wraps a mapped `.cltrace` zero-copy (taking ownership of the
  /// mapping), falling back to a one-shot decode of the session columns
  /// and block 12 into owned buffers on hosts where the blocks cannot be
  /// aliased (big-endian, misaligned mapping). Either way a v3 file keeps
  /// its swarm-major storage and the columns go through the same checks:
  /// bitrates, the session invariants and the swarm index
  /// (check_swarm_index, or check_swarm_major for v3). Throws
  /// cl::ParseError on corrupt payloads, every message prefixed
  /// "corrupt .cltrace file:".
  [[nodiscard]] static TraceView from_mapped(MappedTrace mapped,
                                             unsigned threads = 1);

  /// Maps `path` and wraps it. Throws cl::IoError / cl::ParseError like
  /// MappedTrace and from_mapped.
  [[nodiscard]] static TraceView open_binary(const std::string& path,
                                             unsigned threads = 1);

  [[nodiscard]] std::size_t size() const { return start_.size(); }
  [[nodiscard]] bool empty() const { return start_.empty(); }

  // Per-session columns, each of size() elements, in storage order.
  [[nodiscard]] std::span<const std::uint32_t> user() const { return user_; }
  [[nodiscard]] std::span<const std::uint32_t> household() const {
    return household_;
  }
  [[nodiscard]] std::span<const std::uint32_t> content() const {
    return content_;
  }
  [[nodiscard]] std::span<const std::uint32_t> isp() const { return isp_; }
  [[nodiscard]] std::span<const std::uint32_t> exp() const { return exp_; }
  [[nodiscard]] std::span<const std::uint8_t> bitrate() const {
    return bitrate_;
  }
  [[nodiscard]] std::span<const double> start() const { return start_; }
  [[nodiscard]] std::span<const double> duration() const { return duration_; }

  /// Total covered duration (epoch 0 .. span), like Trace::span.
  [[nodiscard]] Seconds span() const { return span_; }
  /// Metro registry name recorded in the trace, or empty when unknown.
  [[nodiscard]] const std::string& metro_name() const { return metro_name_; }

  /// Swarm index: groups ascend by (content, isp, bitrate). order() is
  /// the grouped permutation of storage positions; it is empty when the
  /// trace carries no index (the simulator falls back to hash grouping)
  /// and when storage is already swarm-major (then group g's sessions are
  /// positions [begin, begin + count)).
  [[nodiscard]] std::span<const SwarmIndexGroup> groups() const {
    return groups_ ? std::span<const SwarmIndexGroup>(*groups_)
                   : std::span<const SwarmIndexGroup>();
  }
  [[nodiscard]] std::span<const std::uint32_t> order() const { return order_; }
  [[nodiscard]] bool has_index() const {
    return groups_ && !groups_->empty() &&
           (swarm_major() || order_.size() == size());
  }

  /// True when the columns are stored swarm-major (a v3 `.cltrace`).
  [[nodiscard]] bool swarm_major() const { return !time_order_.empty(); }
  /// time_order()[t] is the storage position of the t-th session in
  /// start order; empty when storage is already in start order.
  [[nodiscard]] std::span<const std::uint32_t> time_order() const {
    return time_order_;
  }
  /// Storage position of the t-th session in start order.
  [[nodiscard]] std::size_t position_of(std::size_t t) const {
    return time_order_.empty() ? t : time_order_[t];
  }

  /// True when the session columns alias an mmap'd file (nothing owned
  /// beyond the decoded group table).
  [[nodiscard]] bool zero_copy() const { return mapped_ != nullptr; }

  /// Materializes the i-th session in start order from the columns
  /// (tests, spot reads — not a hot-path API).
  [[nodiscard]] SessionRecord session(std::size_t i) const;

 private:
  /// Owned SoA backing (from_trace, or the from_mapped fallback).
  struct Columns;

  std::shared_ptr<const Columns> columns_;
  std::shared_ptr<const MappedTrace> mapped_;
  std::shared_ptr<const std::vector<SwarmIndexGroup>> groups_;

  std::span<const std::uint32_t> user_, household_, content_, isp_, exp_;
  std::span<const std::uint8_t> bitrate_;
  std::span<const double> start_, duration_;
  std::span<const std::uint32_t> order_, time_order_;
  Seconds span_;
  std::string metro_name_;
};

/// Loads a `.cltrace` file into a Trace: opens the validated view
/// (TraceView::open_binary), then fills the rows in start order and the
/// swarm index from it, sharded across `threads` workers (0 = all
/// hardware threads). A v3 file yields the same rows and index as the
/// v2 file of the same trace. Throws like TraceView::open_binary.
[[nodiscard]] Trace read_trace_binary_file(const std::string& path,
                                           unsigned threads = 1);

}  // namespace cl
