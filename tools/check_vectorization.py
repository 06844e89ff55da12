#!/usr/bin/env python3
"""Vectorization drift gate for the sweep's auto-vectorized loops.

Two sweep kernels are hand-vectorized with the VF64 lane wrapper
(sim/sweep_kernels.h: upload_shares and fold_traffic). Every other hot
loop — the window-bounds stripe fold among them — leans on the
auto-vectorizer. Auto-vectorization is fragile: an innocent-looking edit
(a new branch, an escaping pointer, a call the compiler can't inline)
silently drops a loop back to scalar code and nobody notices until a
bench regresses. This gate makes that drift loud.

How it works:

  1. Hot loops that must stay auto-vectorized carry a marker comment on
     the line directly above the `for`:  `// [vec:NAME]`.
  2. This script compiles the sweep translation units with GCC's
     `-fopt-info-vec-optimized` remarks, `-DCL_SIMD_FORCE_SCALAR=1` (so
     no intrinsic code is in play — the gate checks what the compiler
     vectorizes on its own) and `-march=x86-64-v4`
     (the widest x86-64 baseline: the gate asks "is the loop shape
     vectorizable", independent of the host CPU — nothing is executed).
  3. Every marker must be matched by a `loop vectorized` remark within
     MATCH_WINDOW lines below it, and every name in ALLOWLIST must have
     a marker in the sources — so deleting a marked loop (or the marker)
     fails too, instead of silently shrinking the gate.

Exit codes: 0 ok, 1 drift found, 2 usage/environment error.
"""

import argparse
import re
import subprocess
import sys
from pathlib import Path

# Translation units the gate compiles.
TRANSLATION_UNITS = [
    "src/sim/swarm_sweep.cpp",
    "src/sim/hybrid_sim.cpp",
]

# Files scanned for [vec:NAME] markers: the TUs plus the kernel header
# they include (remarks carry the header's own path/line).
MARKER_FILES = TRANSLATION_UNITS + [
    "src/sim/sweep_kernels.h",
]

# Every loop the gate enforces. A name listed here without a marker in
# the sources is an error; a marker in the sources that is not listed
# here is also an error (keep the two in lockstep on purpose).
ALLOWLIST = {
    "metro-fit-isp",       # hybrid_sim.cpp: trace/metro fit, ISP max-reduce
    "metro-fit-exp",       # hybrid_sim.cpp: trace/metro fit, ExP bound check
    "watch-stripe-fold",   # sweep_kernels.h: stripe-8 accumulator fold
    "rows-watch-fold",     # swarm_sweep.cpp: sweep_rows' stripe fold
}

MARKER_RE = re.compile(r"//\s*\[vec:([a-z0-9-]+)\]")
REMARK_RE = re.compile(
    r"^(?P<file>[^\s:]+):(?P<line>\d+):\d+:\s+optimized:.*loop vectorized")

# A remark must land within this many lines below its marker comment.
MATCH_WINDOW = 4

FLAGS = [
    "-std=c++20",
    "-O3",
    "-march=x86-64-v4",
    "-DCL_SIMD_FORCE_SCALAR=1",
    "-ffp-contract=off",
    "-fopt-info-vec-optimized",
    "-Isrc",
    "-c",
    "-o",
    "/dev/null",
]


def find_markers(root: Path) -> dict[str, tuple[str, int]]:
    """name -> (relative file, 1-based line of the marker comment)."""
    markers: dict[str, tuple[str, int]] = {}
    for rel in MARKER_FILES:
        path = root / rel
        if not path.is_file():
            sys.exit(f"error: marker file missing: {rel}")
        for lineno, text in enumerate(path.read_text().splitlines(), 1):
            for name in MARKER_RE.findall(text):
                if name in markers:
                    sys.exit(f"error: duplicate marker [vec:{name}] "
                             f"({markers[name][0]} and {rel}:{lineno})")
                markers[name] = (rel, lineno)
    return markers


def collect_remarks(root: Path, compiler: str,
                    verbose: bool) -> set[tuple[str, int]]:
    """(relative file, line) of every 'loop vectorized' remark."""
    remarks: set[tuple[str, int]] = set()
    for tu in TRANSLATION_UNITS:
        cmd = [compiler, *FLAGS, tu]
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: compile failed: {' '.join(cmd)}")
        for line in proc.stderr.splitlines():
            match = REMARK_RE.match(line)
            if match:
                remarks.add((match.group("file"), int(match.group("line"))))
                if verbose:
                    print(f"  remark: {line}")
    return remarks


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compiler", default="g++",
                        help="GCC-compatible compiler to probe (default g++)")
    parser.add_argument("--verbose", action="store_true",
                        help="print every vectorization remark seen")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    markers = find_markers(root)

    unknown = set(markers) - ALLOWLIST
    missing_marker = ALLOWLIST - set(markers)
    if unknown:
        print("error: markers not in the allowlist (add them to "
              "tools/check_vectorization.py):")
        for name in sorted(unknown):
            rel, line = markers[name]
            print(f"  [vec:{name}] at {rel}:{line}")
    if missing_marker:
        print("error: allowlisted loops with no [vec:...] marker in the "
              "sources (loop deleted, or marker dropped?):")
        for name in sorted(missing_marker):
            print(f"  [vec:{name}]")
    if unknown or missing_marker:
        return 1

    remarks = collect_remarks(root, args.compiler, args.verbose)

    failed = []
    for name in sorted(ALLOWLIST):
        rel, line = markers[name]
        hit = any((rel, line + off) in remarks
                  for off in range(1, MATCH_WINDOW + 1))
        status = "ok" if hit else "DEVECTORIZED"
        print(f"  [vec:{name}] {rel}:{line} ... {status}")
        if not hit:
            failed.append(name)

    if failed:
        print(f"\nerror: {len(failed)} marked loop(s) no longer "
              "auto-vectorize. Either restore the vectorizable shape, or "
              "hand-vectorize the loop in sim/sweep_kernels.h and update "
              "the allowlist.")
        return 1
    print(f"OK: all {len(ALLOWLIST)} marked loops vectorize "
          "(forced-scalar build, -march=x86-64-v4)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
