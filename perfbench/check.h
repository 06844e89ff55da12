// check.h — the output check behind `failed_share`.
//
// Every timed iteration produces an Output; the benchmark compares it
// with a reference Output that the same workload produced at 1 thread
// during set-up. The check is the benchmark's own (it uses no test-only
// library entry point), and each rule below fails the iteration by
// itself:
//
//  * every traffic lane of `total`, `overload_spill`, the hourly grid,
//    the hourly spill and every named scalar (aggregate savings, ledger
//    and schedule figures) is bit-identical to the reference, and every
//    rendered record (an experiment cell's metrics) is byte-identical;
//  * the hourly grid sums to `total`, and Σ hourly_spill equals
//    `overload_spill` (to a relative 1e-9: the two sums fold in
//    different orders);
//  * the offload fraction lies in [0, 1];
//  * named scalars stay inside their workload's bands (the Fig. 4
//    savings band on the paper workloads);
//  * a written `.cltrace` hashes equal to the reference file.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/metrics.h"

namespace perfbench {

/// What one iteration produced, in the form the check compares.
struct Output {
  std::vector<std::pair<std::string, cl::SimResult>> sims;
  std::vector<std::pair<std::string, double>> values;
  std::vector<std::pair<std::string, std::string>> texts;  ///< rendered records
  std::string file;             ///< written `.cltrace` ("" when none)
  std::uint64_t file_hash = 0;  ///< filled in by the check (reference: set-up)
};

/// A closed interval a named scalar must fall into.
struct Band {
  std::string value;
  double low = 0;
  double high = 0;
};

/// 64-bit FNV-1a over the file's bytes. Throws cl::IoError when the file
/// cannot be read.
[[nodiscard]] std::uint64_t hash_file(const std::string& path);

/// The invariants one result must satisfy on its own (no reference).
[[nodiscard]] std::vector<std::string> check_invariants(
    const std::string& label, const cl::SimResult& result);

/// Checks `got` against `reference` and the bands. Hashes `got.file`
/// when set (storing the hash in `got.file_hash`). Returns one message
/// per failed rule; empty means the iteration passed.
[[nodiscard]] std::vector<std::string> check_output(
    Output& got, const Output& reference, const std::vector<Band>& bands);

}  // namespace perfbench
