GO ?= go
COVER_MAX_DROP ?= 1.0
BENCH_ONLINE = 'BenchmarkFeedbackIngest|BenchmarkModelSwap|BenchmarkTeacherInfer|BenchmarkStudentInfer|BenchmarkDistillCycle|BenchmarkDartInfer|BenchmarkTabularSwap|BenchmarkPolicyDecision|BenchmarkQuantRowAccum'
BENCH_WIRE = 'BenchmarkWireCodec|BenchmarkWireAccessBinary'
BENCH_ROUTER = 'BenchmarkRouterAccess|BenchmarkDirectAccess'

FUZZTIME ?= 30s

.PHONY: build test short race vet lint bench bench-ci bench-serve bench-update cover cover-update docs-lint fuzz ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## short: quick signal — small pipeline fixtures via -short
short:
	$(GO) test -short ./...

## race: the race-detector pass CI runs; -short keeps the heavy pipeline
## fixture out of the (≈10x slower) instrumented build
race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

## lint: gofmt drift is an error (CI runs this as a separate job, plus
## pinned staticcheck + govulncheck when the tools are installed)
lint: vet
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi

## bench: the parallel-engine benchmark grid recorded in BENCH_par.json
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkMatMul|BenchmarkHierarchyQueryBatch' -benchmem \
		./internal/mat ./internal/tabular

## bench-ci: perf-regression gate — run every gated benchmark, then check
## the output against the gate table of cmd/dart-benchcheck (BENCH_par.json
## and BENCH_serve.json baselines within 1.5x, exact allocs/op, and same-run
## ratio bars; see its package comment). -benchmem feeds the allocs gates;
## -count 3 because the checker keeps each benchmark's minimum, filtering
## scheduler noise. The online benchmarks run at -cpu 1, the GOMAXPROCS
## their baseline was recorded at: par.For allocates per extra worker, so
## BenchmarkDartInferQuant's allocs/op grows with -cpu.
bench-ci:
	$(GO) test -run '^$$' -bench 'BenchmarkMatMul|BenchmarkHierarchyQueryBatch' -benchtime 5x -count 3 -benchmem \
		./internal/mat ./internal/tabular > bench-ci.out || { cat bench-ci.out; exit 1; }
	$(GO) test -run '^$$' -bench $(BENCH_ONLINE) -benchtime 50ms -count 3 -benchmem -cpu 1 \
		./internal/online >> bench-ci.out || { cat bench-ci.out; exit 1; }
	$(GO) test -run '^$$' -bench $(BENCH_WIRE) -benchtime 100ms -count 3 -benchmem \
		./internal/serve >> bench-ci.out || { cat bench-ci.out; exit 1; }
	$(GO) test -run '^$$' -bench $(BENCH_ROUTER) -benchtime 100ms -count 3 -benchmem \
		./internal/route >> bench-ci.out || { cat bench-ci.out; exit 1; }
	@cat bench-ci.out
	$(GO) run ./cmd/dart-benchcheck -baseline BENCH_par.json -serve-baseline BENCH_serve.json bench-ci.out

## bench-serve: regenerate the serving-throughput report in BENCH_serve.json.
## The "report" section is the JSON-wire replay baseline the binary protocol's
## 5x speedup gate compares against; the "online"/"binary" bench sections are
## preserved (bench-update refreshes everything).
bench-serve:
	$(GO) run ./cmd/dart-serve -replay -sessions 8 -n 20000 -prefetcher stride -verify \
		-proto json -json BENCH_serve.json

## bench-update: regenerate every serving baseline in one step — the JSON-wire
## replay report, the DARTWIRE1 replay throughput (same workload over binary
## framing; the pair feeds the ≥5x wire-speedup gate), the routed replay (same
## workload through a 3-backend dart-router, verified bit-identical), and every
## BENCH_serve.json section bench-ci gates, from one pass over the online, wire
## and router benchmarks
bench-update: bench-serve
	$(GO) run ./cmd/dart-serve -replay -sessions 8 -n 20000 -prefetcher stride -verify \
		-proto binary -json BENCH_serve.json
	$(GO) run ./cmd/dart-router -spawn 3 -replay -sessions 8 -n 20000 -prefetcher stride -verify \
		-proto binary -json BENCH_serve.json
	$(GO) test -run '^$$' -bench $(BENCH_ONLINE) -benchtime 2s -benchmem -cpu 1 \
		./internal/online > bench-update.out || { cat bench-update.out; exit 1; }
	$(GO) test -run '^$$' -bench $(BENCH_WIRE) -benchtime 2s -benchmem \
		./internal/serve >> bench-update.out || { cat bench-update.out; exit 1; }
	$(GO) test -run '^$$' -bench $(BENCH_ROUTER) -benchtime 1s -benchmem \
		./internal/route >> bench-update.out || { cat bench-update.out; exit 1; }
	@cat bench-update.out
	$(GO) run ./cmd/dart-benchcheck -write BENCH_serve.json bench-update.out

## cover: coverage ratchet — total statement coverage may not drop more than
## COVER_MAX_DROP points below the committed COVERAGE.txt baseline
cover:
	$(GO) test -short -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out > coverage-func.txt
	$(GO) run ./cmd/dart-covercheck -baseline COVERAGE.txt -max-drop $(COVER_MAX_DROP) coverage-func.txt

## docs-lint: documentation gate — every relative link in docs/ and the
## READMEs must resolve, and every wire verb must be documented in
## docs/PROTOCOL.md
docs-lint:
	$(GO) run ./cmd/dart-doccheck -root .

## fuzz: timed coverage-guided fuzzing of the CSV trace reader, of the
## nearest-prototype kernel against its scalar reference, and of the
## DARTWIRE1 access-request decoder, FUZZTIME each (the per-PR tier replays
## the committed corpora as ordinary tests; nightly runs 5m)
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzScanner -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzNearest -fuzztime $(FUZZTIME) ./internal/mat
	$(GO) test -run '^$$' -fuzz FuzzDecodeAccessRequest -fuzztime $(FUZZTIME) ./internal/serve

## cover-update: ratchet the committed baseline up to the measured value
cover-update:
	$(GO) test -short -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out > coverage-func.txt
	$(GO) run ./cmd/dart-covercheck -write -baseline COVERAGE.txt coverage-func.txt

ci: vet build test race docs-lint
