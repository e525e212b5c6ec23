#!/usr/bin/env bash
# Capture every serving artifact of the closed-loop, open-loop, fault
# and sharded serving benches, for byte-identity checks across
# refactors.
#
# Usage: tools/serving_golden.sh <build-dir> <out-dir>
#
# Runs bench_serving (the closed-loop submit-then-drain table) and
# bench_serving_{online,overload,multi,faults,chaos,sharded} from
# <build-dir>, each in a fresh scratch working directory, and keeps its
# stdout (<out-dir>/<bench>/stdout.txt) together with every BENCH_* and
# TRACE_* file it writes (<out-dir>/<bench>/). About 30 s in Release.
# Every modeled number these benches print or write is deterministic,
# so two captures of the same code are byte-identical at any
# HECTOR_THREADS; compare two captures with
#
#   diff -r <out-a> <out-b>
#
# e.g. the parent commit's build against the change's build, or one
# build at HECTOR_THREADS=1 against HECTOR_THREADS=4.
#
# The committed BENCH_serving_{multi,overload}.json at the repository
# root are NOT an oracle: they are already stale (resident_bytes has
# moved, and the resilience and signature gauges are missing).
# Compare against a capture from the baseline build on the same host.
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 <build-dir> <out-dir>" >&2
    exit 2
fi
build=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)

for bench in bench_serving bench_serving_{online,overload,multi,faults,chaos,sharded}; do
    exe="$build/$bench"
    if [ ! -x "$exe" ]; then
        echo "serving_golden: missing $exe" >&2
        exit 1
    fi
    dest="$out/$bench"
    work="$out/.work_$bench"
    rm -rf "$dest" "$work"
    mkdir -p "$dest" "$work"
    (cd "$work" && "$exe" > "$dest/stdout.txt")
    find "$work" -maxdepth 1 -type f \( -name 'BENCH_*' -o -name 'TRACE_*' \) \
        -exec mv {} "$dest/" \;
    rm -rf "$work"
done
