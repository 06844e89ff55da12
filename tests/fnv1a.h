// fnv1a.h — FNV-1a 64-bit digest shared by the byte-pinning tests.
//
// A pinned digest turns "these bytes did not change" into one integer
// compare: generated traces, the golden `.cltrace` files, CLI reports
// and experiment-cell metrics are each pinned this way.
#pragma once

#include <cstdint>
#include <string>

namespace cl::test {

/// FNV-1a 64 (offset 0xcbf29ce484222325, prime 0x100000001b3).
inline std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace cl::test
