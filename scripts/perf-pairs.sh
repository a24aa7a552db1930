#!/usr/bin/env bash
# Interleaved before/after pairs of one benchmark workload.
#
#   make perf-pairs BASE=<rev> WORKLOAD=fig2-paper PAIRS=10 SEED=1
#   BASE=HEAD~1 WORKLOAD=fig2-paper bash scripts/perf-pairs.sh
#
# Builds revision BASE in a git worktree under .bench_build/pairs/ and runs
# `bash perfbench/run.sh --trace 0` there ("base") and in this checkout
# ("head", the working tree as it stands), PAIRS times each. Pair i runs
# seed SEED+i-1 on both sides, and which side runs first alternates from
# pair to pair, so slow drift of the host's speed falls on both sides
# alike. Any run that prints correct:false or failed>0 fails the script.
#
# Prints each pair's end-to-end metrics, then per metric each side's median
# and quartiles (nearest rank), the median change, the |median difference|
# against base's interquartile range, and how many pairs head won (all are
# lower-is-better). Run logs stay in .bench_build/pairs/logs/; the worktree
# is removed on exit.
#
# Optional: PAIRS (default 10), SEED (default 1), RUN_SECONDS (perfbench
# --seconds, default 30). Local only: the host's noise is the thing being
# averaged out, so this is not a CI step.
set -euo pipefail

base=${BASE:?set BASE to the revision to compare against}
workload=${WORKLOAD:?set WORKLOAD to a workload of BENCHMARK.json}
pairs=${PAIRS:-10}
seed=${SEED:-1}
run_seconds=${RUN_SECONDS:-30}
# The end_to_end metrics of BENCHMARK.json.
metrics=(wall_s cpu_s setup_s peak_rss_mib op_p50_ms)

root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify "$base^{commit}")
pairs_dir="$root/.bench_build/pairs"
wt="$pairs_dir/base"
logs="$pairs_dir/logs"
mkdir -p "$logs"

cleanup() {
	git -C "$root" worktree remove --force "$wt" 2>/dev/null || true
	git -C "$root" worktree prune
}
cleanup
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$wt" "$rev"

# run SIDE DIR PAIR SEED: one untraced run, its result line kept in
# $logs/SIDE-PAIR.json.
run() {
	local side=$1 dir=$2 pair=$3 s=$4
	local log="$logs/$side-$pair.log"
	if ! (cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$s" \
		--seconds "$run_seconds" --trace 0) >"$log" 2>&1; then
		echo "perf-pairs: $side run of pair $pair failed; see $log" >&2
		tail -n 20 "$log" >&2
		exit 1
	fi
	local line
	line=$(tail -n 1 "$log")
	if [[ $line != *'"correct":true'* || $line != *'"failed":0,'* ]]; then
		echo "perf-pairs: $side run of pair $pair is not correct: $line" >&2
		exit 1
	fi
	printf '%s\n' "$line" >"$logs/$side-$pair.json"
}

# value SIDE PAIR NAME: a metric's value from a kept result line.
value() {
	grep -o "\"$3\":{\"value\":[^,}]*" "$logs/$1-$2.json" | sed 's/.*://'
}

# stats: reads numbers, prints "median q1 q3" (nearest-rank quartiles).
stats() {
	sort -g | awk '{ x[NR] = $1 }
		function rank(q,  r) { r = int(q * NR); if (r < q * NR) r++; if (r < 1) r = 1; return r }
		END {
			med = NR % 2 ? x[(NR + 1) / 2] : (x[NR / 2] + x[NR / 2 + 1]) / 2
			printf "%.6g %.6g %.6g\n", med, x[rank(0.25)], x[rank(0.75)]
		}'
}

echo "perf-pairs: $workload, base $(git -C "$root" rev-parse --short "$rev") vs head (working tree), $pairs pairs from seed $seed"
for ((i = 1; i <= pairs; i++)); do
	s=$((seed + i - 1))
	if ((i % 2)); then
		first=base
		run base "$wt" "$i" "$s"
		run head "$root" "$i" "$s"
	else
		first=head
		run head "$root" "$i" "$s"
		run base "$wt" "$i" "$s"
	fi
	row="pair $i seed $s ($first first):"
	for m in "${metrics[@]}"; do
		row+=" $m $(value base "$i" "$m") -> $(value head "$i" "$m");"
	done
	echo "$row"
done

echo
printf '%-13s %-30s %-30s %8s %-22s %s\n' metric "base median [q1, q3]" "head median [q1, q3]" change "|median diff| vs IQR" "head wins"
for m in "${metrics[@]}"; do
	wins=0
	for ((i = 1; i <= pairs; i++)); do
		if awk -v b="$(value base "$i" "$m")" -v h="$(value head "$i" "$m")" 'BEGIN { exit !(h < b) }'; then
			wins=$((wins + 1))
		fi
	done
	read -r bmed bq1 bq3 < <(for ((i = 1; i <= pairs; i++)); do value base "$i" "$m"; done | stats)
	read -r hmed hq1 hq3 < <(for ((i = 1; i <= pairs; i++)); do value head "$i" "$m"; done | stats)
	change=$(awk -v b="$bmed" -v h="$hmed" 'BEGIN { if (b == 0) print "n/a"; else printf "%+.1f%%", 100 * (h - b) / b }')
	vs_iqr=$(awk -v b="$bmed" -v h="$hmed" -v lo="$bq1" -v hi="$bq3" \
		'BEGIN { d = b - h; if (d < 0) d = -d; printf "%.4g %s %.4g", d, (d > hi - lo ? ">" : "<="), hi - lo }')
	printf '%-13s %-30s %-30s %8s %-22s %d/%d\n' "$m" "$bmed [$bq1, $bq3]" "$hmed [$hq1, $hq3]" "$change" "$vs_iqr" "$wins" "$pairs"
done
