#!/usr/bin/env bash
# Same-machine performance A/B of two checkouts of this repository:
#
#   bash .github/perf-ab.sh BASE_DIR HEAD_DIR OUT_DIR
#
# Runs perfbench's sweep-graph workload (seed 1, untraced) at both
# checkouts in 5 pairs, alternating which side goes first, and appends
# each run's result line to OUT_DIR/base.jsonl or OUT_DIR/head.jsonl;
# then one pair each, base first, of sweep-write (into
# OUT_DIR/base-write.jsonl and OUT_DIR/head-write.jsonl), trace-resume
# (OUT_DIR/base-resume.jsonl, OUT_DIR/head-resume.jsonl) and serve-cells
# (OUT_DIR/base-cells.jsonl, OUT_DIR/head-cells.jsonl). The run length
# and the kinsts_per_s and alloc_mb bounds are read from
# HEAD_DIR/BENCHMARK.json. It fails when any run exits non-zero (a
# failed output check), when the head loses every sweep-graph pair and
# its median kinsts_per_s is below the base's by more than its bound, or
# when the head's alloc_mb on any of the four workloads is above the
# base's by more than its bound (alloc_mb varies by well under its bound
# between runs, so the sweep-graph medians and the one pair of each other
# workload decide). summary.json also lists both sides' peak_rss_mb,
# op_mean_ms and setup_s for every pair of every workload, under
# "spread"; no gate reads them, they collect the run-to-run spread of
# metrics a single CI run cannot resolve. A base that has no
# perfbench/run.sh is skipped with a notice.
set -euo pipefail
[ $# -eq 3 ] || { echo "usage: $0 BASE_DIR HEAD_DIR OUT_DIR" >&2; exit 2; }
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
mkdir -p "$3"
out=$(cd "$3" && pwd)
pairs=5

if [ ! -f "$base/perfbench/run.sh" ]; then
	echo "::notice::perf-ab skipped: the base has no perfbench/run.sh"
	exit 0
fi
seconds=$(jq -er '.run_seconds' "$head/BENCHMARK.json")
bound=$(jq -er '.end_to_end[] | select(.name == "kinsts_per_s") | .bound' "$head/BENCHMARK.json")
alloc_bound=$(jq -er '.end_to_end[] | select(.name == "alloc_mb") | .bound' "$head/BENCHMARK.json")
echo "perf-ab: sweep-graph, $pairs pairs of ${seconds}s runs, kinsts_per_s bound $bound, alloc_mb bound $alloc_bound; then one sweep-write, one trace-resume and one serve-cells pair"

for f in base head base-write head-write base-resume head-resume base-cells head-cells; do
	: > "$out/$f.jsonl"
done

# run SIDE DIR PAIR [WORKLOAD]: one perfbench run (sweep-graph unless
# named; sweep-write's files end in -write, trace-resume's in -resume,
# serve-cells' in -cells); its last output line is the result.
run() {
	local workload=${4:-sweep-graph} suffix=
	[ "$workload" = sweep-graph ] || suffix=-${workload#*-}
	local log="$out/$1$suffix-$3.log"
	if ! (cd "$2" && bash perfbench/run.sh --workload "$workload" --seed 1 --seconds "$seconds" --trace 0) > "$log" 2>&1; then
		tail -n 20 "$log" >&2
		echo "::error::perf-ab: the $1 $workload run of pair $3 failed"
		exit 1
	fi
	tail -n 1 "$log" >> "$out/$1$suffix.jsonl"
	echo "$workload pair $3 $1: $(tail -n 1 "$log" | jq -r '"\(.metrics.kinsts_per_s.value) kinst/s, \(.metrics.alloc_mb.value) MB"')"
}
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run base "$base" "$i"
		run head "$head" "$i"
	else
		run head "$head" "$i"
		run base "$base" "$i"
	fi
done
run base "$base" 1 sweep-write
run head "$head" 1 sweep-write
run base "$base" 1 trace-resume
run head "$head" 1 trace-resume
run base "$base" 1 serve-cells
run head "$head" 1 serve-cells

jq -n --argjson bound "$bound" --argjson alloc_bound "$alloc_bound" \
	--slurpfile b "$out/base.jsonl" --slurpfile h "$out/head.jsonl" \
	--slurpfile bw "$out/base-write.jsonl" --slurpfile hw "$out/head-write.jsonl" \
	--slurpfile br "$out/base-resume.jsonl" --slurpfile hr "$out/head-resume.jsonl" \
	--slurpfile bc "$out/base-cells.jsonl" --slurpfile hc "$out/head-cells.jsonl" '
	def median: sort | if length % 2 == 1 then .[length / 2 | floor] else (.[length / 2 - 1] + .[length / 2]) / 2 end;
	def spread: map({peak_rss_mb: .metrics.peak_rss_mb.value, op_mean_ms: .metrics.op_mean_ms.value, setup_s: .metrics.setup_s.value});
	($b | map(.metrics.kinsts_per_s.value)) as $base
	| ($h | map(.metrics.kinsts_per_s.value)) as $head
	| {base: $base, head: $head, base_median: ($base | median), head_median: ($head | median),
	   head_wins: ([range($base | length) | select($head[.] >= $base[.])] | length), bound: $bound,
	   base_alloc_mb_median: ($b | map(.metrics.alloc_mb.value) | median),
	   head_alloc_mb_median: ($h | map(.metrics.alloc_mb.value) | median), alloc_bound: $alloc_bound,
	   base_write_alloc_mb: $bw[0].metrics.alloc_mb.value, head_write_alloc_mb: $hw[0].metrics.alloc_mb.value,
	   base_resume_alloc_mb: $br[0].metrics.alloc_mb.value, head_resume_alloc_mb: $hr[0].metrics.alloc_mb.value,
	   base_cells_alloc_mb: $bc[0].metrics.alloc_mb.value, head_cells_alloc_mb: $hc[0].metrics.alloc_mb.value,
	   spread: {"sweep-graph": {base: ($b | spread), head: ($h | spread)},
	            "sweep-write": {base: ($bw | spread), head: ($hw | spread)},
	            "trace-resume": {base: ($br | spread), head: ($hr | spread)},
	            "serve-cells": {base: ($bc | spread), head: ($hc | spread)}}}
	| .regressed = (.head_wins == 0 and .head_median < .base_median * (1 - $bound))
	| .alloc_regressed = (.head_alloc_mb_median > .base_alloc_mb_median * (1 + $alloc_bound))
	| .write_alloc_regressed = (.head_write_alloc_mb > .base_write_alloc_mb * (1 + $alloc_bound))
	| .resume_alloc_regressed = (.head_resume_alloc_mb > .base_resume_alloc_mb * (1 + $alloc_bound))
	| .cells_alloc_regressed = (.head_cells_alloc_mb > .base_cells_alloc_mb * (1 + $alloc_bound))' > "$out/summary.json"
cat "$out/summary.json"
status=0
if jq -e '.regressed' "$out/summary.json" > /dev/null; then
	echo "::error::perf-ab: the head lost all $pairs pairs and its median kinsts_per_s is more than $bound below the base's"
	status=1
fi
if jq -e '.alloc_regressed' "$out/summary.json" > /dev/null; then
	echo "::error::perf-ab: the head's median alloc_mb is more than $alloc_bound above the base's"
	status=1
fi
if jq -e '.write_alloc_regressed' "$out/summary.json" > /dev/null; then
	echo "::error::perf-ab: the head's sweep-write alloc_mb is more than $alloc_bound above the base's"
	status=1
fi
if jq -e '.resume_alloc_regressed' "$out/summary.json" > /dev/null; then
	echo "::error::perf-ab: the head's trace-resume alloc_mb is more than $alloc_bound above the base's"
	status=1
fi
if jq -e '.cells_alloc_regressed' "$out/summary.json" > /dev/null; then
	echo "::error::perf-ab: the head's serve-cells alloc_mb is more than $alloc_bound above the base's"
	status=1
fi
exit "$status"
