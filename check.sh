#!/usr/bin/env bash
# check.sh - the tier-1 verification gate, with teeth.
#
#   build      the whole module compiles
#   vet        stdlib static analysis
#   race test  the full suite under the race detector (the layer
#              fan-out's bit-identity and contended-pool tests run here)
#   hostbench  the host-time benchmark module's own tests in -short
#              mode, which check the sim-cnn logits against the
#              committed golden hashes (hostbench/golden_simcnn.txt)
#   lint       albireo-lint: the type-aware module rules
#              (hotpath-alloc-proof, lock-order,
#              map-iteration-determinism) plus determinism,
#              obs-determinism, unit-safety, float-equality,
#              exit-hygiene, goroutine-hygiene (see README.md); the
#              JSON report lands in lint.out, archived by CI
#   bench      one-iteration smoke over every benchmark (catches bench
#              bit-rot; output lands in bench.out, archived by CI)
#   alloc gate the hot-path benchmarks at a fixed iteration count, five
#              runs each, parsed into BENCH_core.json (median ns/op and
#              its MAD, archived by CI) and checked against the
#              committed bench_baseline.json: the build fails if any
#              run of a hot benchmark regresses its allocs/op
#   serve gate open-loop tail-latency sweep (cmd/albireo-loadgen) in
#              virtual time, parsed into BENCH_serve.json (archived by
#              CI) and checked against the committed
#              bench_serve_baseline.json: the build fails if any
#              (pool, rate) point's p99 regresses
#   loadgen selftest
#              the same harness run twice from a fixed seed must emit
#              byte-identical artifacts (the determinism the serve
#              gate stands on)
#   fault demo smoke-run of the detect -> quarantine -> remap
#              walkthrough (examples/faulttolerance)
#   fleet      load-generator sweep through a 2-chip fleet with a
#              detuned worker serving degraded (metrics in fleet.out,
#              archived by CI)
#   health     per-worker BIST scan of the default pool (report lands
#              in health.out, archived by CI)
#   journal    record a seeded sweep into a hash-chained journal, then
#              albireo-replay verifies the chain and re-executes the
#              history bit-for-bit (log in journal.out, archived by CI)
#
# CI runs exactly this script; run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> hostbench tests (sim-cnn golden hashes)"
(cd hostbench && go test -short ./...)

echo "==> albireo-lint ./... (JSON report in lint.out)"
go run ./cmd/albireo-lint -json lint.out ./...

echo "==> bench smoke (1 iteration, output in bench.out)"
go test -bench=. -benchtime=1x -run='^$' ./... | tee bench.out

echo "==> hot-path alloc gate (output in BENCH_core.json)"
# Fixed -benchtime keeps allocs/op deterministic: the one-time weight
# program compile amortizes over exactly 50 iterations, so the gate
# compares like against like, and every one of the five runs must pass
# it. ns/op is reported as the median with its MAD but never gated.
go test -run '^$' -bench '^BenchmarkFunctional' -benchmem -benchtime 50x -count 5 . |
	go run ./cmd/albireo-bench -json BENCH_core.json -baseline bench_baseline.json

echo "==> serve tail-latency gate (output in BENCH_serve.json)"
# Virtual-time sweep: the artifact is a pure function of the flags and
# seed, so p99 can be gated as strictly as allocs/op.
go run ./cmd/albireo-loadgen -json BENCH_serve.json -baseline bench_serve_baseline.json

echo "==> loadgen determinism selftest"
go run ./cmd/albireo-loadgen -selftest

echo "==> fault-management demo smoke (detect -> quarantine -> remap)"
go run ./examples/faulttolerance

echo "==> fleet serve smoke (degraded 2-chip pool, output in fleet.out)"
go run ./cmd/albireo-serve -addr "" -sweeps 1 -sweep-batch 1 -size 8 -pool 2 -detune "0,0,4,2,0.4" | tee fleet.out

echo "==> sharded fleet smoke (kernel-group fan-out, journaled + replayed, output in shard.out)"
# Every layer fans out across both chips and merges; the replay proves
# the sharded serving history is bit-exact end to end.
rm -rf shardjournal.d
go run ./cmd/albireo-serve -addr "" -sweeps 1 -sweep-batch 1 -size 8 -pool 2 \
	-shard -journal shardjournal.d | tee shard.out
go run ./cmd/albireo-replay -journal shardjournal.d | tee -a shard.out
rm -rf shardjournal.d

echo "==> BIST health report (output in health.out)"
go run ./cmd/albireo-serve -addr "" -sweeps 0 -bist | tee health.out

echo "==> journal record/verify/replay gate (output in journal.out)"
# Record a seeded degraded-pool sweep, then prove the chain verifies
# and the whole serving history replays bit-for-bit on a pool rebuilt
# from nothing but the journal header.
rm -rf journal.d
go run ./cmd/albireo-serve -addr "" -sweeps 1 -sweep-batch 1 -size 8 -pool 2 \
	-detune "0,0,4,2,0.4" -journal journal.d | tee journal.out
go run ./cmd/albireo-replay -journal journal.d -verify | tee -a journal.out
go run ./cmd/albireo-replay -journal journal.d | tee -a journal.out
rm -rf journal.d

echo "check.sh: all gates passed"
