#!/bin/sh
# reach.sh reports which non-test statements of the library the project's
# owners run: the eight benchmark workloads (traced, 2 s each),
# `benchrunner -exp all`, the examples, the harness test binary and the REPL
# session in cmd/enrichdb/testdata/reach.txt. Each owner is built with
# coverage over every package outside cmd/, examples/ and benchmark/ (plus
# its own main package, without which a binary writes no counters), run at
# smoke scale with every output under a temp dir, and the merged counters
# are printed as unreached statements per package, every wholly unreached
# function, and one total. The owners run at GOMAXPROCS=2, so a box with
# more cores takes the same worker-count paths as the one that set CI's
# bound.
#
# Usage: make reach, or sh scripts/reach.sh from the repository root.
set -eu
GO=${GO:-go}
repo=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bin" "$tmp/cov" "$tmp/run"

pkgs=$($GO list ./... | awk '!/\/(cmd|examples)\/|\/benchmark$/ {printf "%s%s", sep, $0; sep = ","}')

build() { # build <binary> <main package>
	$GO build -cover -coverpkg="$pkgs,$2" -o "$tmp/bin/$1" "$2" 2>"$tmp/build.log" ||
		{ cat "$tmp/build.log" >&2; exit 1; }
}
build benchmark ./benchmark
build benchrunner ./cmd/benchrunner
build enrichdb ./cmd/enrichdb
for ex in examples/*/; do
	ex=${ex%/}
	build "${ex#examples/}" "./$ex"
done
$GO test -c -cover -coverpkg="$pkgs" -o "$tmp/bin/harness.test" ./internal/harness 2>"$tmp/build.log" ||
	{ cat "$tmp/build.log" >&2; exit 1; }

run() { # run <log name> <command...>: a failing owner fails the report
	name=$1
	shift
	echo "reach: running $name" >&2
	(cd "$tmp/run" && GOCOVERDIR="$tmp/cov" GOMAXPROCS=2 "$@") >"$tmp/$name.log" 2>&1 ||
		{ tail -n 30 "$tmp/$name.log" >&2; echo "reach: $name failed" >&2; exit 1; }
}
run benchmark "$tmp/bin/benchmark" -seconds 2 -trace 1 -out "$tmp/run/out"
run benchrunner "$tmp/bin/benchrunner" -exp all
for ex in examples/*/; do
	ex=${ex%/}
	run "${ex#examples/}" "$tmp/bin/${ex#examples/}"
done
run harness "$tmp/bin/harness.test" -test.count=1 -test.gocoverdir="$tmp/cov"
run repl "$tmp/bin/enrichdb" -tweets 300 -images 100 <"$repo/cmd/enrichdb/testdata/reach.txt"
if grep -q '^error:\|> error:' "$tmp/repl.log"; then
	grep 'error:' "$tmp/repl.log" >&2
	echo "reach: the REPL script answered an error" >&2
	exit 1
fi

# One line per library block, reached if any owner reached it.
$GO tool covdata textfmt -i="$tmp/cov" -o "$tmp/all.out"
{
	echo "mode: set"
	awk 'NR > 1 && $1 !~ /^enrichdb\/(cmd|examples|benchmark)\// {
		n[$1] = $2
		if ($3 > 0) hit[$1] = 1
	}
	END { for (b in n) print b, n[b], (b in hit) ? 1 : 0 }' "$tmp/all.out" | sort
} >"$tmp/reach.out"

echo "unreached statements per package:"
awk 'NR > 1 {
	pkg = $1
	sub(/:.*/, "", pkg)
	sub(/\/[^\/]*$/, "", pkg)
	all[pkg] += $2
	if ($3 == 0) un[pkg] += $2
}
END { for (p in all) printf "  %-34s %5d of %5d\n", p, un[p], all[p] }' "$tmp/reach.out" | sort
IFS=,
for p in $pkgs; do
	grep -q "^$p/[^/]*:" "$tmp/reach.out" || echo "  $p: linked by no owner, not counted"
done
unset IFS
echo "wholly unreached functions:"
$GO tool cover -func="$tmp/reach.out" | awk '$NF == "0.0%" {printf "  %s %s\n", $1, $2}'
awk 'NR > 1 {all += $2; if ($3 == 0) un += $2} END {printf "unreached statements: %d of %d\n", un, all}' "$tmp/reach.out"
