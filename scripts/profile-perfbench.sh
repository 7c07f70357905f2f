#!/bin/sh
# Profile one perfbench workload with gprof.
#
# Usage: scripts/profile-perfbench.sh <workload> [seconds]
#   workload  pipelined-echo | session-churn | sealed-state
#   seconds   run length, default 10
#
# Configures perfbench (Release, as perfbench/run.py does) into
# build-gprof/ with -pg, builds it, and runs it once from inside that
# directory with run.py's arguments: seed 1, --trace 0 and a temporary
# --state-dir. gmon.out lands in build-gprof/, and the script prints
# gprof's flat profile (gprof -b -p): self time, call count and time
# per call for every function. Grep it, e.g. case-insensitively for
# `compress` (the SHA-1/SHA-256 compression functions, including the
# `sha256CompressShaNi` kernel), `mont` or `hmacSha256`.
#
# Two gprof traps:
#   - it drops compiler clones (symbols with a '.', such as
#     `[clone .isra.0]`) and books their time and calls under the
#     symbol just before them in the binary. The Montgomery kernels
#     are not such a clone. On a CPU with ADX and BMI2 the 16- and
#     32-limb products run in the assembly bodies `mintcbMontMulAdx16`,
#     `mintcbMontSqrAdx16`, `mintcbMontMulAdx32` and
#     `mintcbMontSqrAdx32`, listed by name with their self time but no
#     call count (they are not built with -pg); use
#     `crypto::montCounts()` for counts. The portable body is inlined
#     into `BigNum::montExp<16>`, `<32>` and `<0>`, which gprof lists
#     by name, one call per modular exponentiation, and `<0>` always
#     runs it;
#   - it splits a callee's time among its callers by call count, so
#     read the call counts, not the inherited times.
#
# The script only reads perfbench/; it edits nothing there.

set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 <workload> [seconds]" >&2
    exit 2
fi
workload=$1
seconds=${2:-10}

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="$repo_root/build-gprof"

if [ ! -f "$build_dir/CMakeCache.txt" ]; then
    cmake -S "$repo_root/perfbench" -B "$build_dir" \
        -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >&2
fi
cmake --build "$build_dir" --target perfbench -j 4 >&2

state_dir=$(mktemp -d "${TMPDIR:-/tmp}/perfbench-gprof-XXXXXX")
trap 'rm -rf "$state_dir"' EXIT INT TERM

cd "$build_dir"
rm -f gmon.out
./perfbench --workload "$workload" --seed 1 --seconds "$seconds" \
    --trace 0 --state-dir "$state_dir/state" >&2
gprof -b -p ./perfbench gmon.out
