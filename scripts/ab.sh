#!/bin/bash
# Alternated parent-vs-change runs of the repository benchmark.
#
#   scripts/ab.sh <parent-ref> <workload|all> <pairs> [benchmark args...]
#
# `git archive`s <parent-ref> into a temporary directory under .bench_build/
# (so, like run.sh, it writes only inside this checkout), then runs
# `bash benchmark/run.sh -workload W -seed i` once from that tree and once
# from this working tree for i = 1..pairs, flipping which side goes first
# every pair (a shared host drifts; alternation puts the drift on both
# sides). Prints, per metric, q1 / median / q3 of each side, the change of the
# median, and in how many pairs the change was better (ties count for
# neither; direction from BENCHMARK.json). Extra arguments go to the benchmark
# on both sides, e.g. `-trace 1` for the per-layer table. The workload `all`
# runs every workload BENCHMARK.json declares in turn and prints one table per
# workload on stdout (progress goes to stderr), which is what a claim has to
# show. Exits non-zero if any run of any workload fails the benchmark's
# correctness gate.
#
# benchmark/run.sh -aa alternates repeats of ONE binary (run-to-run spread);
# this alternates TWO trees (a claim).
set -eu
if [ $# -lt 3 ]; then
	echo "usage: $0 <parent-ref> <workload|all> <pairs> [benchmark args...]" >&2
	exit 2
fi
ref=$1 workloads=$2 pairs=$3
shift 3
root=$(cd "$(dirname "$0")/.." && pwd)
if [ "$workloads" = all ]; then
	workloads=$(awk -F'"' '/"workloads":/ {w=1} /"end_to_end":/ {w=0} w && /"name":/ {print $4}' "$root/BENCHMARK.json")
fi
mkdir -p "$root/.bench_build"
tmp=$(mktemp -d "$root/.bench_build/ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$root" archive "$ref" | tar -x -C "$tmp/parent"

# run <side> <dir> <seed>: one benchmark run; appends "side seed metric value"
# rows to $tmp/rows and the gate's verdict to $tmp/gate.
run() {
	local side=$1 dir=$2 seed=$3 line status=0
	shift 3
	line=$(cd "$dir" && bash benchmark/run.sh -workload "$workload" -seed "$seed" "$@" 2>"$tmp/stderr" | tail -n 1) || status=$?
	if [ $status -ne 0 ] || ! grep -q '"correct":true' <<<"$line" || ! grep -q '"failed":0,' <<<"$line"; then
		echo "$workload $side seed $seed: FAILED (exit $status) ${line:0:120}" | tee -a "$tmp/gate" >&2
		tail -n 5 "$tmp/stderr" >&2
		return
	fi
	grep -o '"[A-Za-z0-9_.]*":{"value":[^,}]*' <<<"$line" |
		sed -e 's/^"//' -e 's/":{"value":/ /' -e "s/^/$side $seed /" >>"$tmp/rows"
	echo "  $workload $side seed $seed ok" >&2
}

# table: the per-metric comparison of one workload, from $tmp/rows.
table() {
	echo "== $workload: parent $ref vs working tree, $pairs alternated pairs${*:+ ($*)}"
	printf '%-36s %-32s %-32s %9s %6s\n' metric 'parent q1/median/q3' 'change q1/median/q3' 'd median' wins
	sort -k3,3 -k1,1 -k4,4g "$tmp/rows" | awk -v betterfile="$tmp/better" '
	function quart(a, n, q,   pos, lo, frac) { # linear interpolation over a sorted 1..n
		pos = 1 + (n - 1) * q; lo = int(pos); frac = pos - lo
		return lo >= n ? a[n] : a[lo] + frac * (a[lo + 1] - a[lo])
	}
	function fmt(v) { return v >= 1000 ? sprintf("%.0f", v) : sprintf("%.4g", v) }
	function flush(   i, s, wins, n, dm) {
		if (metric == "") return
		for (s in seedseen) if ((("parent " s) in val) && (("change " s) in val)) {
			n++
			d = val["change " s] - val["parent " s]
			if (better[metric] == "lower") d = -d
			if (d > 0) wins++
		}
		pm = quart(p, np, .5); cm = quart(c, nc, .5)
		dm = pm != 0 ? sprintf("%+.1f%%", 100 * (cm - pm) / pm) : "n/a"
		printf "%-36s %-32s %-32s %9s %3d/%-3d\n", metric,
			fmt(quart(p, np, .25)) " / " fmt(pm) " / " fmt(quart(p, np, .75)),
			fmt(quart(c, nc, .25)) " / " fmt(cm) " / " fmt(quart(c, nc, .75)), dm, wins, n
		delete p; delete c; delete val; delete seedseen; np = nc = 0
	}
	BEGIN { while ((getline line < betterfile) > 0) { split(line, f, " "); better[f[1]] = f[2] } }
	$3 != metric { flush(); metric = $3 }
	{ if ($1 == "parent") p[++np] = $4; else c[++nc] = $4; val[$1 " " $2] = $4; seedseen[$2] = 1 }
	END { flush() }'
}

# "name better" pairs, end-to-end and per-layer alike.
awk -F'"' '/"name":/ {n=$4} /"better":/ {print n, $4}' "$root/BENCHMARK.json" >"$tmp/better"

for workload in $workloads; do
	: >"$tmp/rows"
	for i in $(seq 1 "$pairs"); do
		if [ $((i % 2)) -eq 1 ]; then
			run parent "$tmp/parent" "$i" "$@"
			run change "$root" "$i" "$@"
		else
			run change "$root" "$i" "$@"
			run parent "$tmp/parent" "$i" "$@"
		fi
	done
	table "$@"
done
if [ -s "$tmp/gate" ]; then
	echo "runs that failed the correctness gate:" >&2
	cat "$tmp/gate" >&2
	exit 1
fi
