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
go test -race -short ./internal/sim/... ./internal/machine/... ./internal/syncprim/... ./internal/chaos/...

echo "== process carriers -race"
# Process carriers (iter.Pull coroutines) are resumed from parallel shard
# workers and stopped from the coordinator; the both-kernel process tests
# exercise that hand-off, repeated under the race detector.
go test -race -count=3 -run 'Process|Cond|Await|Shutdown|Spawn|Deadlock' ./internal/sim

echo "== sweep engine -race"
# The parallel sweep path must be race-clean: the engine package's own
# tests plus a real multi-worker table sweep through the root package.
go test -race ./internal/sweep/...
go test -race -run 'TestTableByteIdenticalAcrossWorkers|TestBenchMetricsByteIdenticalAcrossWorkers' .

echo "== parallel event kernel -race"
# The parallel discrete-event kernel's differential matrix (sequential vs
# parallel results across backends and shard counts) under the race
# detector: determinism and race-freedom are the same promise here.
go test -race -run 'TestEngine' .

echo "== combining primitives -race"
# The Combining mechanism class (cohort lock + cluster barrier) and its
# chaos differential under the race detector, plus the pinned-digest table
# (every mechanism × backend × squeeze, Combining included).
go test -race -run 'TestCombining|TestPinnedDigests' ./internal/syncprim ./internal/chaos .

echo "== open-loop traffic -race (short)"
# The open-loop traffic harness: the arrival process, the latency
# histogram, the irregular workloads across mechanisms/backends, the
# traffic-enabled chaos trials, and the root-level byte-identity matrix
# (worker counts and kernels) under the race detector.
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
go run ./cmd/amosim -primitive barrier -mech AMO -procs 16 -metrics "$tmp/metrics.json" >/dev/null
go run ./cmd/amosim -primitive ticket -mech LLSC -procs 8 -metrics "$tmp/metrics.json" >/dev/null

echo "== parallel sweep determinism"
# The parallel runner must emit byte-identical stdout to the sequential
# path on a real experiment.
go run ./cmd/amotables -only table2 -procs 4,8,16 -episodes 2 -warmup 1 -workers 1 >"$tmp/seq"
go run ./cmd/amotables -only table2 -procs 4,8,16 -episodes 2 -warmup 1 -workers 4 >"$tmp/par"
diff -u "$tmp/seq" "$tmp/par"

echo "== parallel event kernel determinism"
# The parallel discrete-event kernel must emit byte-identical stdout to the
# sequential kernel on the same table (shards=4 needs >= 4 nodes, so the
# sweep starts at 8 processors).
go run ./cmd/amotables -only table2 -procs 8,16 -episodes 2 -warmup 1 >"$tmp/seq"
go run ./cmd/amotables -only table2 -procs 8,16 -episodes 2 -warmup 1 -engine parallel -shards 4 >"$tmp/par"
diff -u "$tmp/seq" "$tmp/par"

echo "== crossover determinism"
# The crossover experiment (AMO vs combining vs conventional, all three
# backends) must emit byte-identical stdout on the sequential and parallel
# event kernels at its CI scales. The 1024/4096 flagship scales are a
# manual run: amotables -only crossover.
go run ./cmd/amotables -only crossover -procs 64,256 >"$tmp/seq"
go run ./cmd/amotables -only crossover -procs 64,256 -engine parallel -shards 4 >"$tmp/par"
diff -u "$tmp/seq" "$tmp/par"

echo "== traffic determinism"
# The open-loop traffic table (sojourn percentiles by offered rate) must
# emit byte-identical stdout on the sequential and parallel event kernels.
go run ./cmd/amotables -only traffic -procs 8 -traffic-requests 120 >"$tmp/seq"
go run ./cmd/amotables -only traffic -procs 8 -traffic-requests 120 -engine parallel -shards 4 >"$tmp/par"
diff -u "$tmp/seq" "$tmp/par"

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
# The pooled event, message and AMU paths are pinned at exactly 0 allocs/op.
go test -run 'ZeroAlloc' ./internal/sim ./internal/network ./internal/core

echo "CI PASS"
