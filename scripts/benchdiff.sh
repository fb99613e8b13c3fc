#!/usr/bin/env bash
# benchdiff.sh — guard the packed-engine speedups against regression.
#
# Runs the zero-alloc hot-path benchmarks (BenchmarkEngineStep,
# BenchmarkMatrixEngineStep at n=64..1024; BenchmarkTrialHotPath/batched,
# one n=64 row per built-in family plus random-tree at n=256 and 1024
# and block-leader at n=256)
# plus the exact-solver matrix (BenchmarkSolver/n5/{full,parallel};
# DESIGN.md §3i) and compares the best observed ns/op of each against
# the committed baseline in scripts/bench-baseline.txt. The check fails
# when
#
#   - a benchmark whose baseline records 0 allocs/op allocates — the
#     0 allocs/op contract of the batched pipeline (DESIGN.md §3d, §3g)
#     is absolute; benchmarks with a non-zero allocs baseline (the
#     solver builds its tables per run; min-gain allocates its
#     arborescence scratch per round) are exempt, or
#   - any benchmark runs more than BENCHDIFF_TOLERANCE percent slower
#     than its baseline ns/op (default 10).
#
# Minimum-over-samples estimates the floor of a benchmark: scheduler and
# thermal noise only ever inflates a sample, so with enough samples both
# the baseline and the check converge on comparable numbers. A check
# pass that fails the tolerance is therefore retried with fresh samples
# merged in (up to BENCHDIFF_PASSES passes) and only a persistent
# slowdown fails — a genuinely regressed benchmark never gets faster
# with more samples, while a noisy spike does.
#
# Usage:
#
#   ./scripts/benchdiff.sh            # check against the baseline
#   ./scripts/benchdiff.sh -update    # re-measure and rewrite the baseline
#
# Knobs (environment):
#
#   BENCHDIFF_TOLERANCE   percent slowdown allowed vs. baseline (default 10;
#                         raise on noisy shared runners)
#   BENCHDIFF_COUNT       samples per benchmark per pass (default 5)
#   BENCHDIFF_PASSES      max sampling passes before a tolerance failure
#                         sticks (default 3; allocs always fail fast)
#   BENCHDIFF_BENCHTIME   go test -benchtime per sample (default 0.25s)
#
# The baseline records ns/op floors of the machine it was measured on;
# comparisons only mean something on comparable hardware, so re-run with
# -update when the reference machine changes. The allocs/op check is
# machine-independent and always enforced for baseline-zero entries.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=scripts/bench-baseline.txt
TOLERANCE=${BENCHDIFF_TOLERANCE:-10}
COUNT=${BENCHDIFF_COUNT:-5}
PASSES=${BENCHDIFF_PASSES:-3}
BENCHTIME=${BENCHDIFF_BENCHTIME:-0.25s}

update=false
case "${1:-}" in
-update | --update) update=true ;;
"") ;;
*)
	echo "usage: $0 [-update]" >&2
	exit 2
	;;
esac

raw=$(mktemp)
report=$(mktemp)
trap 'rm -f "$raw" "$report"' EXIT

# run_benches appends raw `go test -bench` lines for the guarded set.
run_benches() {
	go test -run='^$' -bench='^(BenchmarkEngineStep|BenchmarkMatrixEngineStep)$' \
		-benchmem -benchtime="$BENCHTIME" -count="$COUNT" ./internal/core
	go test -run='^$' -bench='^BenchmarkTrialHotPath$/^batched$' \
		-benchmem -benchtime="$BENCHTIME" -count="$COUNT" .
	go test -run='^$' -bench='^BenchmarkSolver$/^n5$/^(full|parallel)$' \
		-benchmem -benchtime="$BENCHTIME" -count="$COUNT" ./internal/gamesolver
}

# normalize reduces accumulated bench output to "name ns_per_op allocs"
# with the minimum ns/op (and maximum allocs/op) per name across all
# samples, the GOMAXPROCS suffix stripped so baselines survive
# core-count changes.
normalize() {
	awk '
		$1 ~ /^Benchmark/ {
			name = $1
			sub(/-[0-9]+$/, "", name)
			ns = ""; allocs = 0
			for (i = 2; i < NF; i++) {
				if ($(i + 1) == "ns/op") ns = $i
				if ($(i + 1) == "allocs/op") allocs = $i
			}
			if (ns == "") next
			if (!(name in best) || ns + 0 < best[name] + 0) best[name] = ns
			if (allocs + 0 > worstAllocs[name] + 0) worstAllocs[name] = allocs + 0
			if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
		}
		END {
			for (i = 1; i <= n; i++) {
				name = order[i]
				printf "%s %s %d\n", name, best[name], worstAllocs[name] + 0
			}
		}
	'
}

# compare prints a verdict table for "name ns allocs" lines on stdin and
# exits 1 on an alloc or tolerance failure, 2 on an alloc failure only.
compare() {
	awk -v tol="$TOLERANCE" -v baseline="$BASELINE" '
		BEGIN {
			while ((getline line <baseline) > 0) {
				if (line ~ /^#/ || line == "") continue
				split(line, f, " ")
				base[f[1]] = f[2] + 0
				baseAllocs[f[1]] = f[3] + 0
				nbase++
			}
			if (nbase == 0) {
				print "benchdiff: baseline " baseline " has no entries" >"/dev/stderr"
				exit 1
			}
		}
		{
			name = $1; ns = $2 + 0; allocs = $3 + 0
			# The zero-alloc contract binds exactly the benchmarks whose
			# baseline is allocation-free; allocating benchmarks (the
			# solver) are guarded by the ns/op tolerance alone.
			if (allocs > 0 && (name in base) && baseAllocs[name] == 0) {
				printf "FAIL %-45s %d allocs/op (hot path must be allocation-free)\n", name, allocs
				allocFail = 1
			}
			if (!(name in base)) {
				printf "NEW  %-45s %12.1f ns/op (no baseline entry; run -update)\n", name, ns
				failed = 1
				next
			}
			delta = (ns - base[name]) / base[name] * 100
			status = "ok  "
			if (delta > tol) { status = "FAIL"; failed = 1 }
			printf "%s %-45s %12.1f ns/op  baseline %12.1f  %+7.1f%% (tol %s%%)\n",
				status, name, ns, base[name], delta, tol
			covered[name] = 1
		}
		END {
			for (name in base)
				if (!(name in covered)) {
					printf "FAIL %-45s missing from current run (stale baseline entry?)\n", name
					failed = 1
				}
			if (allocFail) exit 2
			exit failed
		}
	'
}

if $update; then
	echo "benchdiff: measuring baseline (count=$COUNT x $PASSES passes, benchtime=$BENCHTIME)..." >&2
	for _ in $(seq "$PASSES"); do
		run_benches >>"$raw"
	done
	current=$(normalize <"$raw")
	if [ -z "$current" ]; then
		echo "benchdiff: no benchmark output — did the benchmarks move?" >&2
		exit 1
	fi
	{
		echo "# Benchmark floors for scripts/benchdiff.sh (best ns/op of $((COUNT * PASSES)) samples at $BENCHTIME)."
		echo "# Regenerate on the reference machine with: ./scripts/benchdiff.sh -update"
		echo "# Columns: name  ns/op  allocs/op"
		echo "$current"
	} >"$BASELINE"
	echo "benchdiff: baseline rewritten: $BASELINE" >&2
	exit 0
fi

if [ ! -f "$BASELINE" ]; then
	echo "benchdiff: no baseline at $BASELINE — run '$0 -update' on the reference machine first" >&2
	exit 1
fi

for pass in $(seq "$PASSES"); do
	echo "benchdiff: sampling pass $pass/$PASSES (count=$COUNT, benchtime=$BENCHTIME)..." >&2
	run_benches >>"$raw"
	current=$(normalize <"$raw")
	if [ -z "$current" ]; then
		echo "benchdiff: no benchmark output — did the benchmarks move?" >&2
		exit 1
	fi
	rc=0
	echo "$current" | compare >"$report" || rc=$?
	if [ "$rc" -eq 0 ]; then
		cat "$report"
		exit 0
	fi
	if [ "$rc" -eq 2 ]; then
		break # an allocation never goes away with more samples
	fi
done
cat "$report"
echo "benchdiff: regression persisted across $pass sampling pass(es)" >&2
exit 1
