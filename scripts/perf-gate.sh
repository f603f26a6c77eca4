#!/usr/bin/env bash
# Gates a change on the repository benchmark (perfbench) against a base
# revision measured on the same host. Run from anywhere in the repository:
#
#   make perf-gate BASE=<rev>        # or: bash scripts/perf-gate.sh <rev>
#
# BASE is checked out into a temporary git worktree. Every workload named
# in BENCHMARK.json then runs PAIRS times on each side, with each tree's
# own `bash perfbench/run.sh --trace 0`. Round i runs one pair of every
# workload on seed i, base first in odd rounds and head first in even
# ones. Spreading each workload's pairs over the whole gate, with the two
# runs of a pair back to back, keeps a burst of load from a neighbour on
# the host from landing on several runs of one workload, or on one side
# only. The gate fails when
#   - a run gives no result, or a head run is not correct;
#   - head's failed/attempted share on a workload exceeds base's;
#   - for a metric both sides report, head's median is worse than base's
#     by more than the metric's bound in BENCHMARK.json's end_to_end list.
# Raw outputs and the report stay in .bench_build/perf-gate.
set -euo pipefail

# Fixed so that every gate is run the same way; BASE is the only input.
readonly PAIRS=7
readonly RUN_SECONDS=8

if [ $# -ne 1 ] || [ -z "$1" ]; then
	echo "usage: make perf-gate BASE=<rev>, or bash scripts/perf-gate.sh <rev>" >&2
	exit 2
fi
head_tree=$(git rev-parse --show-toplevel)
base_rev=$(git -C "$head_tree" rev-parse --verify --quiet "$1^{commit}") ||
	{ echo "perf-gate: unknown revision $1" >&2; exit 2; }
out="$head_tree/.bench_build/perf-gate"
rm -rf "$out"
mkdir -p "$out"

base_tree=$(mktemp -d "${TMPDIR:-/tmp}/perf-gate-base.XXXXXX")
cleanup() {
	git -C "$head_tree" worktree remove --force "$base_tree" 2>/dev/null || rm -rf "$base_tree"
	git -C "$head_tree" worktree prune
}
trap cleanup EXIT
git -C "$head_tree" worktree add --quiet --detach "$base_tree" "$base_rev"

# run SIDE TREE WORKLOAD SEED appends the run's result line, tagged with
# side, workload and seed, to runs.jsonl.
run() {
	local log="$out/$3.$1.seed$4"
	(cd "$2" && bash perfbench/run.sh --workload "$3" --seed "$4" \
		--seconds "$RUN_SECONDS" --trace 0) >"$log.out" 2>"$log.err" || true
	local result
	result=$(tail -n 1 "$log.out" | jq -c --arg side "$1" --arg w "$3" --argjson seed "$4" \
		'select(type == "object" and has("correct")) + {side: $side, workload: $w, seed: $seed}' \
		2>/dev/null) || result=
	if [ -z "$result" ]; then
		echo "perf-gate: the $1 run of $3 on seed $4 gave no result; see $log.err" >&2
		tail -n 5 "$log.err" >&2
		exit 1
	fi
	echo "$result" >>"$out/runs.jsonl"
	echo "perf-gate: $1 $3 seed $4: $(echo "$result" | jq -c '{correct, attempted, failed, ops_per_s: .metrics.ops_per_s.value}')"
}

echo "perf-gate: base $base_rev, head $(git -C "$head_tree" rev-parse HEAD) plus its working tree"
workloads=$(jq -r '.workloads[].name' "$head_tree/BENCHMARK.json")
for seed in $(seq 1 "$PAIRS"); do
	for w in $workloads; do
		if [ $((seed % 2)) -eq 1 ]; then
			run base "$base_tree" "$w" "$seed"
			run head "$head_tree" "$w" "$seed"
		else
			run head "$head_tree" "$w" "$seed"
			run base "$base_tree" "$w" "$seed"
		fi
	done
done

# One line per check; a line starting with FAIL fails the gate.
jq -rs --slurpfile bench "$head_tree/BENCHMARK.json" '
	def median: sort | if length % 2 == 1 then .[length / 2 | floor]
		else (.[length / 2 - 1] + .[length / 2]) / 2 end;
	def sig: if . == 0 then 0 else pow(10; 3 - (fabs | log10 | floor)) as $s | . * $s | round / $s end;
	def share: (map(.failed) | add) / ([map(.attempted) | add, 1] | max);
	group_by(.workload)[]
	| .[0].workload as $w
	| map(select(.side == "base")) as $base
	| map(select(.side == "head")) as $head
	| ($head[] | select(.correct != true)
		| "FAIL \($w): head run on seed \(.seed) is not correct (\(.failed) of \(.attempted) ops failed)"),
	  (($base | share) as $b | ($head | share) as $h
		| "\(if $h > $b then "FAIL" else "ok  " end) \($w) failed share: base \($b | sig), head \($h | sig)"),
	  ($bench[0].end_to_end[] | . as $m
		| [$base[].metrics[$m.name].value // empty] as $bv
		| [$head[].metrics[$m.name].value // empty] as $hv
		| select(($bv | length) > 0 and ($hv | length) > 0)
		| ($bv | median) as $b | ($hv | median) as $h
		| (if $m.better == "higher" then $h < $b * (1 - $m.bound) else $h > $b * (1 + $m.bound) end) as $worse
		| "\(if $worse then "FAIL" else "ok  " end) \($w) \($m.name): base \($b | sig), head \($h | sig) \($m.unit), \($m.better) is better, bound \($m.bound * 100)%")
' "$out/runs.jsonl" | tee "$out/report.txt"

if fails=$(grep '^FAIL' "$out/report.txt"); then
	echo "perf-gate: $(echo "$fails" | wc -l) check(s) failed against $base_rev:" >&2
	echo "$fails" >&2
	exit 1
fi
echo "perf-gate: every check passed against $base_rev ($PAIRS pairs of ${RUN_SECONDS} s runs per workload)"
