#!/usr/bin/env bash
# Tier-1 verification plus the concurrency checks for the data-parallel
# training engine and the serving daemon: vet, the full test suite (with
# coverage gates), the race detector over the packages that share state
# across goroutines (including prefetchd's session/batcher machinery), and
# bounded fuzz runs of the binary trace decoder, the metrics snapshot
# parser, the int8/f16 quantizers the distilled tables are packed with,
# and the daemon's wire-protocol request decoder.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build"
go build ./...

# The tensor kernels have an amd64 assembly path and a build-tagged
# portable file; only a cross build compiles the latter on an amd64 host.
echo "== go build (GOARCH=arm64)"
GOARCH=arm64 go build ./...

# gc on arm64 fuses x*y + z into one FMADD unless the product is converted
# explicitly, which would move the bits of exp64/tanh64/log1p64. Every
# fused instruction the compiler emits for act.go must sit on a math.FMA
# line (log1p64 has none, so it must show no fused instruction at all).
# Later runs replay the -S listing from the build cache.
echo "== no implicit multiply-add fusion in act.go (GOARCH=arm64 -S)"
fused_lines=$(GOARCH=arm64 go build -gcflags=-S ./internal/tensor/ 2>&1 |
  grep -oE 'act\.go:[0-9]+\)[[:space:]]+FN?M(ADD|SUB)[DS]' | cut -d: -f2 | cut -d')' -f1 | sort -un || true)
if [ -z "$fused_lines" ]; then
  echo "act.go: no fused instruction found; the math.FMA steps of exp64 should show"
  exit 1
fi
bad=""
for ln in $fused_lines; do
  sed -n "${ln}p" internal/tensor/act.go | grep -q 'math\.FMA' || bad="$bad $ln"
done
if [ -n "$bad" ]; then
  echo "act.go: gc fused a multiply-add outside math.FMA at line(s)$bad on arm64"
  exit 1
fi
echo "act.go: fused instructions only on math.FMA lines ($(echo $fused_lines | wc -w) lines)"

# The exact matmul kernels, Adam's update and the LSTM cell's backward
# (train_amd64.s) round each product and each sum on its own, as their Go
# loops do, so their assembly must hold no fused multiply-add. This is the
# only check of the AVX-512 file on a host without AVX-512F, where the
# tests cannot run it. act_amd64.s is exempt: its fused steps are part of
# exp64's contract.
echo "== no fused multiply-add in the float32 assembly"
if grep -nE 'VF(N?MADD|N?MSUB)' internal/tensor/avx2_amd64.s internal/tensor/avx512_amd64.s internal/tensor/train_amd64.s; then
  echo "float32 assembly: fused multiply-add found (each term must be VMULPS then VADDPS)"
  exit 1
fi

# testdata holds analyzer fixtures: inputs to the analyzers, not code the
# build compiles.
echo "== gofmt"
unformatted=$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.bench_build/*' -exec gofmt -l {} +)
if [ -n "$unformatted" ]; then
  printf 'gofmt: needs formatting:\n%s\n' "$unformatted"
  exit 1
fi

echo "== go vet"
go vet ./...

# vetvoyager enforces the invariants go vet cannot see: deterministic map
# iteration in determinism-critical packages, tape-arena *Mat lifetimes,
# float32-only hot kernels, per-worker rand streams, ReportAllocs on every
# benchmark, mixed atomic/plain access, dropped serialization errors,
# hot-path allocations, and WaitGroup/ticker leaks. It prints per-analyzer
# finding counts and exits non-zero on any unsuppressed finding.
echo "== vetvoyager"
go run ./cmd/vetvoyager ./...

# Self-check: the analyzers, CFG builder, and fixpoint engine must them-
# selves be clean under the full suite (the loader's dir/... patterns get
# exercised here too). A separate invocation so a finding inside the
# framework is attributed to it rather than lost in the module-wide sweep.
echo "== vetvoyager self-check (internal/analysis/...)"
go run ./cmd/vetvoyager internal/analysis/...

echo "== go test (with coverage profile)"
cover_out="$(mktemp)"
trap 'rm -f "$cover_out"' EXIT
go test -coverprofile="$cover_out" ./...

# Coverage gates. The metrics package backs the differential guarantees
# (metrics-on == metrics-off bit-identical), so it carries a hard floor;
# the repo-wide total must not regress below the recorded baseline
# (scripts/coverage_baseline.txt — raise it when coverage improves).
echo "== coverage gates"
total=$(go tool cover -func="$cover_out" | awk '/^total:/ {sub(/%/, "", $3); print $3}')
baseline=$(cat scripts/coverage_baseline.txt)
awk -v t="$total" -v b="$baseline" 'BEGIN {
  if (t + 0 < b + 0) { printf "coverage: repo-wide %.1f%% < baseline %.1f%%\n", t, b; exit 1 }
  printf "coverage: repo-wide %.1f%% (baseline %.1f%%)\n", t, b }'
for gate in internal/metrics:90 internal/tracing:90 internal/serve:85 internal/serve/quality:90; do
  pkg="${gate%:*}"; floor="${gate#*:}"
  pcov=$(go test -cover "./$pkg/" | awk 'match($0, /coverage: [0-9.]+%/) {
    s = substr($0, RSTART + 10, RLENGTH - 11); print s }')
  awk -v m="$pcov" -v p="$pkg" -v f="$floor" 'BEGIN {
    if (m + 0 < f + 0) { printf "coverage: %s %.1f%% < %d%% floor\n", p, m, f; exit 1 }
    printf "coverage: %s %.1f%% (floor %d%%)\n", p, m, f }'
done

# Bench smoke: the newest BENCH_pr<N>.json must not record a serial matmul
# slowdown (the PR-5 regression class) or a >10% predict-path slowdown
# (serial fp32 or int8-quantized inference) against its baseline chain. This
# parses the committed report (fast) rather than re-benching; regenerate
# with `go run ./cmd/experiments -bench -workers -1` after kernel changes.
echo "== bench smoke (matmul_256 + predict paths vs baseline chain)"
go run ./cmd/experiments -bench-check

echo "== allocation regression (tape arena steady state, metrics + tracing hot paths)"
go test -run 'TestSteadyStateAllocBudget' ./internal/voyager/
go test -run 'TestArenaSteadyStateAllocationFree' ./internal/tensor/
go test -run 'TestHotPathAllocFree' ./internal/metrics/
go test -run 'TestNilTracerAllocFree' ./internal/tracing/

# The portable path, run rather than only compiled: on 386 the scalar
# activations and Go kernels take every call, with math.FMA in software.
echo "== go test (GOARCH=386: tensor, nn)"
GOARCH=386 go test ./internal/tensor/ ./internal/nn/

# tensor owns its exp and log1p (act.go), so no value may move when
# math.Exp takes its non-FMA amd64 path: the activation and loss-term
# tests, the golden constants and the pinned candidate scores must hold
# with GODEBUG turning FMA off for package math.
echo "== go test (GODEBUG=cpu.fma=off: activations, loss terms, goldens, scores)"
GODEBUG=cpu.fma=off go test -count=1 -run 'TestExp64|TestTanh64|TestExpAVX2|TestActivationRows|TestLog1p|TestBCETermRow' ./internal/tensor/
GODEBUG=cpu.fma=off go test -count=1 -run 'TestGoldenEquivalenceFixedSeed|TestSigmoid64PinnedBits' ./internal/voyager/

# The loss-term assembly against bceTerm at every non-negative float32 bit
# pattern (the sign does not matter), split over GOMAXPROCS goroutines:
# about 40 s on 2 CPUs.
echo "== loss-term kernel, full float32 range"
go test -run '^$' -bench '^BenchmarkBCETermRowFullRange$' -benchtime 1x ./internal/tensor/

echo "== go test -race (tensor, nn, metrics, tracing, voyager, trace, quality)"
go test -race ./internal/tensor/ ./internal/nn/ ./internal/trace/ ./internal/metrics/ ./internal/tracing/ ./internal/serve/quality/
# The full voyager suite under -race takes ~10 min of end-to-end training;
# the concurrency surface is the parallel engine and the page/offset fork,
# so race-check the tests that exercise sharded TrainBatch/PredictBatch,
# one e2e training run, and the golden and offline-shape runs whose chains
# run concurrently on child tapes.
go test -race -run 'Parallel|Deterministic|Workers|LearnsCycleWith|GoldenEquivalence|Fork' ./internal/voyager/
# prefetchd's concurrency surface: many connection handlers against one
# batcher per CPU, the session table under contention with the eviction
# janitor, and the 100x start/stop goroutine-leak cycle. The golden
# differentials re-train the fixture under -race (slow), so race-check the
# contention, leak, batching-invariance, batcher-policy and per-batcher
# trace-track tests specifically.
echo "== go test -race (serve: contention, leaks, batching invariance, batchers)"
go test -race -run 'Concurrent|StartStop|Invariance|CloseIsIdempotent|Batcher|CrossProcess' ./internal/serve/
# The state the inference workers share: concurrent PredictTokenBatch calls
# on one model's workers, the batchers' turn, and the first batch that
# builds the replicas and starts the other batchers. Ten runs each, since
# one clean -race run says little about a schedule (~45 s).
echo "== go test -race -count=10 (inference workers, batcher turn and start)"
go test -race -count=10 -run 'TestInferenceWorkersConcurrentMatchPredictAt' ./internal/voyager/
go test -race -count=10 -run 'TestBatchersStartOnFirstModelBatch|TestBatcherCoalescesQueuedRows' ./internal/serve/
# Tape.Fork's children: two concurrent chains, each on its own child tape
# with its own transpose cache, merged by the join into the parent's
# inputs, against one interleaved tape and against hashes the single-tape
# model produced (~25 s).
echo "== go test -race -count=10 (fork: child tapes, join merge, transpose caches)"
go test -race -count=10 -run 'TestForkMatchesInterleavedTape|TestForkChildTransposeCaches|TestNestedRunTasksParallelNoDeadlock' ./internal/tensor/
go test -race -count=10 -run 'TestForkOfflineShapeBitIdentical' ./internal/voyager/

echo "== fuzz trace.Read + metrics.ParseSnapshot + quant converters + serve decoder (bounded)"
go test -run=NONE -fuzz=FuzzRead -fuzztime=10s ./internal/trace/
go test -run=NONE -fuzz=FuzzParseSnapshot -fuzztime=10s ./internal/metrics/
go test -run=NONE -fuzz='^FuzzQ8Quantize$' -fuzztime=10s ./internal/tensor/quant/
go test -run=NONE -fuzz='^FuzzF16RoundTrip$' -fuzztime=10s ./internal/tensor/quant/
go test -run=NONE -fuzz='^FuzzDecodeRequest$' -fuzztime=10s ./internal/serve/

# A traced end-to-end run: the exported timeline must round-trip through the
# validator (cmd/tracecheck), and two same-seed logical-clock runs must
# produce byte-identical files — the span tracer's reproducibility claim,
# checked on a real binary rather than a unit test.
echo "== traced run: validate + byte-compare two same-seed logical exports"
trace_dir="$(mktemp -d)"
trap 'rm -f "$cover_out"; rm -rf "$trace_dir"' EXIT
for i in 1 2; do
  go run ./cmd/voyager -bench pr -n 3000 -epoch 1000 -passes 1 -hidden 16 \
    -trace-out "$trace_dir/t$i.json" -trace-clock logical \
    -provenance "$trace_dir/p$i.json" > /dev/null
done
go run ./cmd/tracecheck "$trace_dir/t1.json"
cmp "$trace_dir/t1.json" "$trace_dir/t2.json"
cmp "$trace_dir/p1.json" "$trace_dir/p2.json"
echo "trace: validated, byte-identical across runs"

echo "verify: OK"
