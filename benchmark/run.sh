#!/usr/bin/env bash
# Build the benchmark offline and run it pinned to one CPU.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one measured run (BENCHMARK.json contract)
#   benchmark/run.sh [--seed N] [--rounds R] [--seconds S] [--trace 1] [--selfcheck]   the whole suite
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

build_t0=$(date +%s.%N)
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
export VOPP_HOSTBENCH_BUILD_S
VOPP_HOSTBENCH_BUILD_S=$(echo "$(date +%s.%N) $build_t0" | awk '{printf "%.3f", $1 - $2}')

bin="${CARGO_TARGET_DIR:-benchmark/target}/release/vopp-hostbench"

# One allocator arena. glibc otherwise hands each of the 16 to 128 node
# threads whichever arena is uncontended at that instant, which makes peak RSS
# a race (+-17 % run to run on serve16) and a third higher; the simulator runs
# one thread at a time, so several arenas buy it nothing (README "Method").
export MALLOC_ARENA_MAX=1

# One runnable simulator thread exists at any instant, so one CPU is enough;
# pinning removes cross-core handoff noise (README "Method"). The highest
# allowed CPU is chosen because CPU 0 usually serves the host's interrupts.
if command -v taskset >/dev/null 2>&1; then
  cpu=$(awk '/^Cpus_allowed_list:/ {n = split($2, a, /[,-]/); print a[n]}' /proc/self/status)
  exec taskset -c "$cpu" "$bin" "$@"
fi
exec "$bin" "$@"
