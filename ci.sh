#!/bin/sh
# ci.sh — the repository's full verification gate.
# Formatting, vet, build, determinism lint, tests, and a short race pass.
set -eu

cd "$(dirname "$0")"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== amolint"
# Every rule, the escape gate included: the hot path's compiler-reported
# heap sites are pinned in ESCAPES.baseline. An escapes finding means a
# change introduced (or removed) a heap allocation on the hot path: audit
# the sites it names, then regenerate the baseline deliberately with
# go run ./cmd/amolint -write-escapes and commit it.
go run ./cmd/amolint ./...

echo "== go test"
go test ./...

echo "== benchmark module"
# bench/ is its own module (replace amosim => ../), so the root's vet,
# build and test above never reach it: vet it and run its smoke,
# determinism and attribution tests here.
(cd bench && go vet ./... && go test ./...)

echo "== go test -race (short)"
# internal/proc's spin and remote LL/SC loops send messages from event
# context, and its spin-path and LL/SC-path pins run them on 2 shards of
# the parallel kernel.
go test -race -short ./internal/sim/... ./internal/machine/... ./internal/syncprim/... ./internal/chaos/... ./internal/proc

echo "== process carriers -race"
# Process carriers (iter.Pull coroutines) are resumed from parallel shard
# workers and stopped from the coordinator; the both-kernel process tests
# exercise that hand-off, repeated under the race detector.
go test -race -count=3 -run 'Process|Shutdown|Spawn|Deadlock' ./internal/sim

echo "== sweep engine and differential matrix -race"
# The parallel sweep path and the parallel event kernel must be race-clean:
# the engine package's own tests, then the differential matrix and the
# barrier, lock and per-backend Table 2 comparisons that share its check
# (Workers 1 vs 4 and sequential vs parallel kernel, on every backend) under
# the race detector: determinism and race-freedom are the same promise
# here. -short skips the rows that only the full tier-1 run pays for. The
# traffic-grid and chaos kernel comparisons race in the stages around this.
go test -race ./internal/sweep/...
go test -race -short -run 'TestDifferentialMatrix|TestEngine|TestTableByteIdenticalAcrossWorkersPerBackend' .

echo "== combining primitives -race"
# The Combining mechanism class (cohort lock + cluster barrier) and its
# chaos differential under the race detector, plus the pinned-digest table
# (every mechanism × backend × squeeze, Combining included).
go test -race -run 'TestCombining|TestPinnedDigests' ./internal/syncprim ./internal/chaos .

echo "== open-loop traffic -race (short)"
# The open-loop traffic harness: the arrival process, the latency
# histogram, the irregular workloads across mechanisms/backends, the
# traffic-enabled chaos trials, and the root-level traffic sweep tests
# (the 64-CPU traffic grid across workers and kernels among them) under the
# race detector.
go test -race -short ./internal/traffic/... ./internal/stats/...
go test -race -short -run 'TestTraffic' ./internal/workload ./internal/chaos .

echo "== fuzz smoke"
# Each native fuzz target gets a short randomized run on top of its
# checked-in corpus. Targets are named individually: -fuzz requires an
# unambiguous match within a package. A target whose corpus directory is
# missing or empty is skipped (with a notice) rather than treated as a
# CI failure — an empty corpus means the seeds were deliberately pruned,
# not that the code regressed.
fuzz_smoke() {
	pkg=$1
	target=$2
	corpus="$pkg/testdata/fuzz/$target"
	if [ -z "$(ls -A "$corpus" 2>/dev/null)" ]; then
		echo "fuzz smoke: skipping $target (no corpus in $corpus)"
		return 0
	fi
	go test -fuzz="^${target}\$" -fuzztime=10s "./$pkg"
}
fuzz_smoke internal/isa FuzzAMOEncodeDecode
fuzz_smoke internal/syncprim FuzzParseMechanism
fuzz_smoke internal/syncprim FuzzParseLockKind
fuzz_smoke internal/chaos FuzzChaosTrial
fuzz_smoke internal/config FuzzConfig

echo "== chaos smoke"
# A hostile-level fault-injection run must exit 0 and finish
# invariant-clean — on the default machine, on both alternative
# memory-system backends, and on the parallel kernel. Each run's output goes
# to a file first: under set -e a failing run stops CI, which it would not
# do at the head of a pipe.
chaos_smoke() {
	go run ./cmd/amosim -primitive barrier -mech AMO -procs 16 -chaos-seed 1 -chaos-level 2 "$@" >"$tmp/chaos"
	grep -q "invariants clean" "$tmp/chaos"
}
chaos_smoke
chaos_smoke -backend syncron
chaos_smoke -backend dsm
chaos_smoke -engine parallel -shards 4

echo "== metrics smoke"
# The -metrics writer is self-verifying: it fails unless the JSON document
# round-trips byte-identically and the window's cycle attribution conserves.
# Machine.Metrics assembles each backend's node section itself, so the
# barrier runs on all three.
go run ./cmd/amosim -primitive barrier -mech AMO -procs 16 -metrics "$tmp/metrics.json" >/dev/null
go run ./cmd/amosim -primitive barrier -mech AMO -procs 16 -backend syncron -metrics "$tmp/metrics.json" >/dev/null
go run ./cmd/amosim -primitive barrier -mech AMO -procs 16 -backend dsm -metrics "$tmp/metrics.json" >/dev/null
go run ./cmd/amosim -primitive ticket -mech LLSC -procs 8 -metrics "$tmp/metrics.json" >/dev/null

echo "== amotables determinism"
# One CLI run end to end: Table 2 at -workers 1 on the sequential kernel
# and at -workers 4 on the parallel kernel must print the same bytes, and
# every -progress line must carry the [pdes:4] tag, so the diff cannot
# pass with the kernel flags lost before they reach the sweep points. The
# differential matrix in tier-1 checks the machines' shard counts and
# covers the other experiments and scales.
go run ./cmd/amotables -only table2 -procs 8,16 -episodes 2 -warmup 1 -workers 1 >"$tmp/seq"
go run ./cmd/amotables -only table2 -procs 8,16 -episodes 2 -warmup 1 -workers 4 -engine parallel -shards 4 -progress >"$tmp/par" 2>"$tmp/progress"
diff -u "$tmp/seq" "$tmp/par"
if [ ! -s "$tmp/progress" ] || grep -v -F '[pdes:4]' "$tmp/progress" >&2; then
	echo "amotables: -progress lines above lack the [pdes:4] tag" >&2
	exit 1
fi

echo "== bench drift gates"
# Regenerate every checked-in BENCH_<name>.json and compare it against the
# baseline: plain fields must match exactly; Host* fields are host
# measurements, held within 20% of the baseline only where the document
# tags them. On a deliberate modeling change, regenerate with
#     go run ./cmd/amotables -bench NAME > BENCH_NAME.json
# and commit the updated document.
for b in metrics hotpath pdes crossover traffic; do
	echo "-- $b"
	go run ./cmd/amotables -bench "$b" -gate "BENCH_$b.json" >/dev/null
done

echo "== hot path: zero-alloc regression tests"
# The pooled event, message, AMU (the dsm agent's atomic unit included),
# directory-transaction, home-memory, dsm load/store, touched-set cache,
# spin re-check and reload, and remote LL/SC loop paths are pinned at
# exactly 0 allocs/op.
go test -run 'ZeroAlloc' ./internal/sim ./internal/network ./internal/core ./internal/directory ./internal/memsys ./internal/dsm ./internal/cache ./internal/proc

echo "CI PASS"
