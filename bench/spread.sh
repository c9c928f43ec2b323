#!/usr/bin/env bash
# Runs every workload RUNS times (default 10), each time with another
# seed, and prints for each end-to-end metric its median and its spread:
# the distance between the first and third quartile (Python's
# statistics.quantiles(values, n=4)) as a share of the median. This is
# the check the benchmark contract applies; a bound in BENCHMARK.json
# should be at least three times the spread seen here. Below each
# workload's gated metrics come the timings as clocked and the cost of
# the oracle check they were adjusted by; the medians of the latter over
# a run of this script are what checkNsPerByte in run.go is set to.
#
#   bash bench/spread.sh [RUNS] [SECONDS] [FIRST_SEED]
set -euo pipefail
runs="${1:-10}"
seconds="${2:-$(python3 -c 'import json;print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
first="${3:-1}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out/spread"
rm -rf "$out"
mkdir -p "$out"
for wl in wide_cold deep_cold hot_mixed churn_durable; do
	for ((i = 0; i < runs; i++)); do
		bash "$here/run.sh" --workload "$wl" --seed $((first + i)) --seconds "$seconds" --trace 0 > /dev/null
		cp "$here/out/result-$wl-e2e.json" "$out/$wl-$((first + i)).json"
	done
done
python3 - "$out" <<'PY'
import json, statistics, sys, pathlib
out = pathlib.Path(sys.argv[1])
print(f"{'workload':14} {'metric':20} {'median':>12} {'spread':>8}  ok runs")
for wl in ("wide_cold", "deep_cold", "hot_mixed", "churn_durable"):
    runs = [json.loads(p.read_text()) for p in sorted(out.glob(wl + "-*.json"))]
    ok = sum(1 for r in runs if r["correct"])
    # the gated metrics, then the notes they were derived from
    for kind, names in (("metrics", sorted(runs[0]["metrics"])),
                        ("notes", ["query_qps", "query_p50_ms", "setup_clocked_s", "check_ns_per_byte"])):
        for name in names:
            vals = [r[kind][name]["value"] for r in runs]
            q = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            mark = "" if kind == "metrics" else "  (note)"
            print(f"{wl:14} {name:20} {med:12.5g} {(q[2]-q[0])/med:8.2%}  {ok}/{len(runs)}{mark}")
PY
