#!/usr/bin/env bash
# Measures the benchmark's run-to-run spread, to set and check the bounds in
# BENCHMARK.json. Runs every workload N times (default 5) in alternating
# order, run i with seed i, through bench/run.sh (the first run builds, the
# rest reuse the build), then prints each summary metric's median, first
# and third quartiles, and relative IQR: the quartile distance as a share
# of the median, with quartiles as Python's statistics.quantiles gives them.
#
#   bash bench/repeat.sh [N] [seconds] [trace]
#
# Run it from the repository root. Summary lines are kept in
# .bench_build/repeat/results.jsonl.
set -euo pipefail

n=${1:-5}
seconds=${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
trace=${3:-0}
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
out=.bench_build/repeat
mkdir -p "$out"
results="$out/results.jsonl"
: >"$results"

for ((i = 1; i <= n; i++)); do
	order=$workloads
	if ((i % 2 == 0)); then
		order=$(echo "$workloads" | tr ' ' '\n' | tac | tr '\n' ' ')
	fi
	for w in $order; do
		line=$(bash bench/run.sh --workload "$w" --seed "$i" --seconds "$seconds" --trace "$trace" 2>"$out/stderr.log" | tail -n 1)
		echo "{\"workload\": \"$w\", \"seed\": $i, \"result\": $line}" >>"$results"
		echo "run $i $w: $line" | cut -c1-160 >&2
	done
done

python3 - "$results" <<'EOF'
import json, statistics, sys
runs = {}
for line in open(sys.argv[1]):
    r = json.loads(line)
    runs.setdefault(r["workload"], []).append(r["result"])
for w, results in runs.items():
    bad = sum(1 for r in results if not r["correct"] or r["failed"])
    print(f"\n{w}: {len(results)} runs, {bad} with failed ops")
    print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'rel_iqr':>8}")
    for name in sorted(results[0]["metrics"]):
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0], 0, vals[0])
        rel = (q3 - q1) / med if med else 0.0
        print(f"  {name:24} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.4f}")
EOF
