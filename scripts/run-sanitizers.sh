#!/bin/sh
# Sanitizer job for mintcb: configure, build, and run the full test
# suite under the tested MINTCB_SANITIZE configurations.
#
#   address,undefined  -- the default job; catches lifetime bugs in the
#                         observer wiring and UB in the codecs. The
#                         root CMakeLists.txt adds float-cast-overflow
#                         and -fno-sanitize-recover, so any UBSan
#                         "runtime error" aborts its test and fails
#                         the job instead of only being printed.
#   thread             -- opt-in second job (SANITIZERS="... thread");
#                         guards the sharded worker pool and the net
#                         layer (gateway reactor thread vs client
#                         threads), plus the gtest/benchmark harnesses.
#
# Each configuration builds into build-<name>/ (slashes from commas) so
# sanitized trees never collide with the developer build/.
#
# The sanitized trees keep the default RelWithDebInfo build type but
# drop its -DNDEBUG (-O2 -g only), so every assert() in src/ -- e.g.
# Result::value() on an error, the BigNum/RSA preconditions -- runs
# here even though the developer build compiles them out.
#
# Usage: scripts/run-sanitizers.sh [ctest-args...]
#   SANITIZERS="address,undefined thread" scripts/run-sanitizers.sh
#   scripts/run-sanitizers.sh -L verify     # only the verify label

set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
sanitizers=${SANITIZERS:-"address,undefined"}
jobs=$(nproc 2>/dev/null || echo 2)

for config in $sanitizers; do
    build_dir="$repo_root/build-$(echo "$config" | tr ',' '-')san"
    echo "== MINTCB_SANITIZE=$config -> $build_dir =="
    cmake -B "$build_dir" -S "$repo_root" \
        -DMINTCB_SANITIZE="$config" \
        -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g" >/dev/null
    cmake --build "$build_dir" -j "$jobs"
    (cd "$build_dir" && ctest --output-on-failure -j "$jobs" "$@")
done
echo "run-sanitizers: all configurations passed"
