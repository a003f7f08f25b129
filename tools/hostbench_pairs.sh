#!/usr/bin/env bash
# Alternating pairs of host-benchmark runs of two checkouts of this repository.
#
#   tools/hostbench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED0 N
#
# Builds each checkout's benchmark offline into its benchmark/target, then
# runs N pairs: pair i runs both checkouts' vopp-hostbench on workload
# WORKLOAD at seed SEED0 + i for BENCHMARK.json's run_seconds with
# `--trace 0`, the parent first in even pairs and the change first in odd
# ones. Every run starts in its own checkout, pinned to one CPU with one
# malloc arena, as benchmark/run.sh does.
#
# Prints every run's end-to-end metrics, then per metric each side's median
# and quartiles, the change in the median and the number of pairs the change
# won ("better" as BENCHMARK.json says). Quartiles are Python's
# statistics.quantiles, the benchmark's own method. Exits 1 if any run is not
# `"correct":true`, or, naming its PID, if another vopp-hostbench is running
# when a run is due to start.
set -euo pipefail

if [ $# -ne 5 ]; then
  sed -n '2,18p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
seed0=$4
pairs=$5
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$change/BENCHMARK.json")
[ "$pairs" -ge 2 ] || { echo "N must be at least 2" >&2; exit 2; }

for dir in "$parent" "$change"; do
  env -u CARGO_TARGET_DIR cargo build --release --offline --quiet \
    --manifest-path "$dir/benchmark/Cargo.toml"
done

export MALLOC_ARENA_MAX=1
pin=()
if command -v taskset >/dev/null 2>&1; then
  cpu=$(awk '/^Cpus_allowed_list:/ {n = split($2, a, /[,-]/); print a[n]}' /proc/self/status)
  pin=(taskset -c "$cpu")
else
  echo "warning: taskset not found, runs are not pinned" >&2
fi

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

# One run of one side: prints its end-to-end metrics and appends
# "side seed result-object" to $runs. A second benchmark run sharing the
# CPU distorts both (the calibration spin slows far more than compute), so
# the script stops if another vopp-hostbench is running.
run() {
  local side=$1 dir=$2 seed=$3 result other
  if other=$(pgrep -x vopp-hostbench); then
    echo "another vopp-hostbench is running (PID $(echo $other)); stopping" >&2
    exit 1
  fi
  result=$(cd "$dir" && "${pin[@]}" benchmark/target/release/vopp-hostbench \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
  echo "$side $seed $result" >>"$runs"
  python3 -c 'import json, sys
r = json.loads(sys.argv[3])
m = " ".join(k + "=" + format(v["value"], ".6g") for k, v in r["metrics"].items())
print(sys.argv[1], "seed", sys.argv[2], "correct=" + str(r["correct"]), m)' "$side" "$seed" "$result"
}

for ((i = 0; i < pairs; i++)); do
  seed=$((seed0 + i))
  if ((i % 2 == 0)); then
    run parent "$parent" "$seed"
    run change "$change" "$seed"
  else
    run change "$change" "$seed"
    run parent "$parent" "$seed"
  fi
done

python3 - "$runs" "$change/BENCHMARK.json" "$workload" <<'PY'
import json, statistics, sys

runs_path, contract_path, workload = sys.argv[1:]
metrics = json.load(open(contract_path))["end_to_end"]
runs = {"parent": {}, "change": {}}
correct = True
for line in open(runs_path):
    side, seed, result = line.split(" ", 2)
    result = json.loads(result)
    correct &= result["correct"]
    runs[side][int(seed)] = result
seeds = sorted(runs["parent"])

def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3

rows = [("metric", "parent median [quartiles]", "change median [quartiles]", "change", "change better")]
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    a = [runs["parent"][s]["metrics"][name]["value"] for s in seeds]
    b = [runs["change"][s]["metrics"][name]["value"] for s in seeds]
    (am, aq1, aq3), (bm, bq1, bq3) = summary(a), summary(b)
    won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    delta = (bm - am) / am * 100 if am else 0.0
    rows.append((name, f"{am:.6g} [{aq1:.6g}, {aq3:.6g}]", f"{bm:.6g} [{bq1:.6g}, {bq3:.6g}]",
                 f"{delta:+.2f}%", f"{won}/{len(seeds)}"))
widths = [max(len(r[i]) for r in rows) for i in range(5)]
print(f"\n{workload}: {len(seeds)} pairs, seeds {seeds[0]}-{seeds[-1]}")
for r in rows:
    print("  ".join(c.ljust(w) if i == 0 else c.rjust(w) for i, (c, w) in enumerate(zip(r, widths))))
fails = {side: sum(r["failed"] for r in rs.values()) for side, rs in runs.items()}
print(f"failed cells: parent {fails['parent']}, change {fails['change']}; every run correct: {correct}")
sys.exit(0 if correct else 1)
PY
