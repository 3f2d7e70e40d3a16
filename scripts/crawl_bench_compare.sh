#!/bin/sh
# Paired runs of the crawl benchmark (bench/) on a base revision and on
# the working tree: builds both once, runs them alternately — swapping
# which side goes first each pair, so drift on a shared box does not
# favour one — and judges every pair with `bench -compare` against the
# bounds in BENCHMARK.json. Reports and logs land in bench/out/compare/.
#
#   scripts/crawl_bench_compare.sh <base-rev> [pairs] [bench flags...]
set -eu

base=${1:?usage: crawl_bench_compare.sh <base-rev> [pairs] [bench flags...]}
pairs=${2:-3}
shift
[ $# -gt 0 ] && shift

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
cleanup() {
	git -C "$root" worktree remove --force "$tmp/base" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT

git -C "$root" worktree add --detach "$tmp/base" "$base" >/dev/null
(cd "$tmp/base" && go build -o "$tmp/bench.base" ./bench)
(cd "$root" && go build -o "$tmp/bench.head" ./bench)

out=$root/bench/out/compare
mkdir -p "$out"
worse=0
i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
	for side in $order; do
		dir=$root
		[ "$side" = base ] && dir=$tmp/base
		echo "pair $i/$pairs: $side"
		(cd "$dir" && "$tmp/bench.$side" -out "$out/$side-$i" "$@") >"$out/$side-$i.log"
	done
	(cd "$root" && "$tmp/bench.head" -compare "$out/base-$i/report.json" "$out/head-$i/report.json") || worse=1
	i=$((i + 1))
done
exit $worse
