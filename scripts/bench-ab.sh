#!/bin/sh
# Interleaved A/B run of perfbench: the working tree against a base revision.
#
#   sh scripts/bench-ab.sh BASE WORKLOAD [PAIRS] [SECONDS]
#   make bench-ab BASE=HEAD~1 WORKLOAD=offline-paper PAIRS=10
#
# Checks BASE out into a scratch git worktree (removed on exit), then runs
# `sh perfbench/run.sh --workload WORKLOAD --seed i --seconds SECONDS` on
# both sides for i = 1..PAIRS. Each side builds from its own sources. The
# side that runs first alternates from pair to pair, so a drift of the host
# over the session weighs on both sides alike. For each end-to-end metric
# it prints each side's median and quartiles, the change of the medians,
# the number of pairs the working tree won (better per BENCHMARK.json), and
# whether the median moved by more than the base's interquartile range.
# Run it from anywhere inside the checkout; it needs only git, sh and awk.
set -eu

usage="usage: sh scripts/bench-ab.sh BASE WORKLOAD [PAIRS] [SECONDS]"
base=${1:-}
workload=${2:-}
pairs=${3:-10}
seconds=${4:-20}
if [ -z "$base" ] || [ -z "$workload" ]; then
	echo "$usage" >&2
	exit 2
fi
case "$pairs$seconds" in
*[!0-9]*)
	echo "bench-ab: PAIRS and SECONDS must be positive integers" >&2
	exit 2
	;;
esac
if [ "$pairs" -lt 1 ] || [ "$seconds" -lt 1 ]; then
	echo "bench-ab: PAIRS and SECONDS must be positive integers" >&2
	exit 2
fi

root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify --quiet "$base^{commit}") || {
	echo "bench-ab: $base is not a commit" >&2
	exit 2
}
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-ab.XXXXXX")
cleanup() {
	git -C "$root" worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM
git -C "$root" worktree add --detach --quiet "$tmp/base" "$rev"
if [ ! -f "$tmp/base/perfbench/run.sh" ]; then
	echo "bench-ab: $base has no perfbench/run.sh" >&2
	exit 2
fi

# run_side SIDE DIR PAIR appends "SIDE PAIR METRIC VALUE" lines for the
# run's JSON result line to $tmp/results; a failed run appends nothing and
# its log tail goes to stderr.
run_side() {
	log="$tmp/$1-$3.log"
	if (cd "$2" && sh perfbench/run.sh --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0) >"$log" 2>&1; then
		status=ok
	else
		status=failed
	fi
	json=$(tail -n 1 "$log")
	case "$json" in
	'{"correct":true'*) ;;
	*)
		echo "bench-ab: $1 pair $3 $status, incorrect or without a result; log tail:" >&2
		tail -n 20 "$log" >&2
		return 0
		;;
	esac
	printf '%s\n' "$json" | grep -o '"[A-Za-z0-9_.]*":{"value":[^,}]*' |
		sed 's/^"\([^"]*\)":{"value":\(.*\)$/\1 \2/' |
		while read -r name value; do
			echo "$1 $3 $name $value"
		done >>"$tmp/results"
	echo "$1 pair $3 done"
}

: >"$tmp/results"
i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run_side base "$tmp/base" "$i"
		run_side head "$root" "$i"
	else
		run_side head "$root" "$i"
		run_side base "$tmp/base" "$i"
	fi
	i=$((i + 1))
done

# Metric directions: each "name" line in BENCHMARK.json is followed by its
# "better" line.
sed -n -e 's/.*"name": *"\([^"]*\)".*/name \1/p' -e 's/.*"better": *"\([^"]*\)".*/better \1/p' "$root/BENCHMARK.json" |
	awk '$1 == "name" { n = $2 } $1 == "better" { print n, $2 }' >"$tmp/better"

echo
echo "bench-ab: $workload, base $(git -C "$root" rev-parse --short "$rev") vs working tree, $pairs pairs x ${seconds}s"
awk '
function sortv(a, n,    i, j, x) {
	for (i = 2; i <= n; i++) {
		x = a[i]
		for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]
		a[j + 1] = x
	}
}
# q returns the p-quantile of the sorted a[1..n] (linear interpolation).
function q(a, n, p,    h, lo) {
	if (n == 0) return "nan"
	h = (n - 1) * p + 1
	lo = int(h)
	if (lo >= n) return a[n]
	return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
FNR == NR { better[$1] = $2; next }
{
	v[$3, $1, $2] = $4 + 0
	if (!($3 in seen)) { seen[$3] = 1; names[++nm] = $3 }
	if ($2 + 0 > maxp) maxp = $2 + 0
}
END {
	printf "%-16s %30s %30s %9s %6s %s\n", "metric", "base median [q1, q3]", "head median [q1, q3]", "change", "wins", "beyond base IQR"
	for (m = 1; m <= nm; m++) {
		name = names[m]
		nb = 0; nh = 0; wins = 0; both = 0
		delete b; delete h
		for (p = 1; p <= maxp; p++) {
			hb = ((name, "base", p) in v); hh = ((name, "head", p) in v)
			if (hb) b[++nb] = v[name, "base", p]
			if (hh) h[++nh] = v[name, "head", p]
			if (hb && hh) {
				both++
				x = v[name, "base", p]; y = v[name, "head", p]
				if ((better[name] == "lower" && y < x) || (better[name] != "lower" && y > x)) wins++
			}
		}
		sortv(b, nb); sortv(h, nh)
		mb = q(b, nb, 0.5); mh = q(h, nh, 0.5)
		change = (mb != 0 && nb && nh) ? sprintf("%+.1f%%", 100 * (mh - mb) / mb) : "n/a"
		iqr = q(b, nb, 0.75) - q(b, nb, 0.25)
		beyond = (nb && nh) ? ((mh - mb > iqr || mb - mh > iqr) ? "yes" : "no") : "n/a"
		bs = sprintf("%.4g [%.4g, %.4g]", mb, q(b, nb, 0.25), q(b, nb, 0.75))
		hs = sprintf("%.4g [%.4g, %.4g]", mh, q(h, nh, 0.25), q(h, nh, 0.75))
		printf "%-16s %30s %30s %9s %6s %s\n", name, bs, hs, change, wins "/" both, beyond
	}
}' "$tmp/better" "$tmp/results"
