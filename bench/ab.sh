#!/usr/bin/env bash
# A/B two commits with identical benchmark code: exports both refs with
# `git archive` into temporary directories, overlays THIS checkout's
# bench/ on each (a change that claims a gain may not edit the
# benchmark), then runs them in alternating order and prints the
# -compare table. Ten pairs are the minimum for a "better" verdict.
#
#   bash bench/ab.sh <refA> <refB> [PAIRS] [SEED]
#
# Use the same ref twice for an A/A run: every timing must come out
# "unchanged" and every count "identical".
set -euo pipefail
refA="${1:?usage: ab.sh <refA> <refB> [pairs] [seed]}"
refB="${2:?usage: ab.sh <refA> <refB> [pairs] [seed]}"
pairs="${3:-10}"
seed="${4:-1}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
work="$(mktemp -d "${TMPDIR:-/tmp}/osrbench-ab.XXXXXX")"
trap 'rm -rf "$work"' EXIT
for side in A B; do
	ref="refA"; [ "$side" = B ] && ref="refB"
	mkdir -p "$work/$side"
	git -C "$root" archive "${!ref}" | tar -x -C "$work/$side"
	rm -rf "$work/$side/bench"
	cp -R "$here" "$work/$side/bench"
	rm -rf "$work/$side/bench/out"
	cp "$root/BENCHMARK.json" "$work/$side/BENCHMARK.json"
done
seconds="$(python3 -c 'import json;print(json.load(open("'"$root"'/BENCHMARK.json"))["run_seconds"])')"
results="$here/out/ab"
mkdir -p "$results"
files=()
for ((i = 1; i <= pairs; i++)); do
	order="A B"; ((i % 2 == 0)) && order="B A"
	for side in $order; do
		(cd "$work/$side" && bash bench/run.sh -seed "$seed" -seconds "$seconds" > "$results/$side-$i.log")
		cp "$work/$side/bench/out/result-seed$seed.json" "$results/$side-$i.json"
	done
	files+=("$results/A-$i.json" "$results/B-$i.json")
done
bash "$here/run.sh" -compare "${files[@]}"
