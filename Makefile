GO ?= go

.PHONY: ci fmt vet nogob build cross test race bench-module fuzz-smoke deadsurface bench bench-profile bench-pool bench-coldstart bench-window

## ci: the full gate — formatting, vet, no gob, build, a cross-build for an
## architecture without the assembly leaf, tests, the race suite over
## the concurrency-sensitive packages, the benchmark module (its own go.mod,
## so ./... does not reach it) and ten seconds of each fuzz target. Run
## before every push; .github/workflows/ci.yml runs these same targets, so a
## new package, fuzz target or build line is added here and nowhere else.
## Speed is held by the benchmark (BENCHMARK.json, bench/), which compares;
## the bench-* targets below run benchmarks for a reader — what bench/ has no
## probe for — and compare nothing, so they are not part of the gate.
ci: fmt vet nogob build cross test race bench-module fuzz-smoke

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

## nogob: encoding/gob left the module with the last two files written in it
## (checkpoints and noise files are the artifact container of
## internal/tensor/serialize.go, the wire is frames); no file may import it
## again.
nogob:
	@out=$$(grep -rl '"encoding/gob"' --include='*.go' .); if [ -n "$$out" ]; then \
		echo "encoding/gob imported by:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

## cross: build for an architecture without the assembly leaf of the direct
## kernel (internal/tensor/leaf_amd64.s), and vet the two packages above it
## there: the file set every non-amd64 build gets is proven to compile on
## every push. Pure Go, nothing to download. (On amd64 the tests run the Go
## leaf beside the vector one; the guard-page test runs in `test` and `race`
## wherever the OS is Linux. Neither needs a tag.)
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor/... ./internal/nn/...

## test: the tier-1 suite in a shuffled order, so a test that passes only
## after another one fails here (a failing package prints its -test.shuffle
## seed, to replay the order).
test:
	$(GO) test -shuffle=on ./...

## deadsurface: run the dead-surface gate alone and print what it sees — the
## identifiers no non-test file references, internal/tools/deadsurface/allow.txt
## by category, and the identifiers only bench/ calls. `test` runs the same
## gate, so a new unlisted hit fails `ci` there.
deadsurface:
	$(GO) test -count=1 -run '^TestDeadSurface$$' -v ./internal/tools/deadsurface

## race: the race suite over the concurrency-sensitive packages; three more
## rounds of the training tests (runs sharing one Split: its lazily compiled
## training plan, a Collect's activation cache; pre-training, whose backward
## fans out and writes every sample's weight gradients); and of the root
## package the cold-start and lazy-materialisation tests (the first users of
## a System share one sync.Once) and the edge-step test (Classify, a ConnectEdge
## client and a ConnectPool handle share one System's monitor) — the whole
## root package under -race is too slow for a gate. Twenty rounds of the
## buffer-reuse tests: proof-ring and span-ring slots keep their storage and
## hand it to the next batch or span, and a relayed request's watch is poked
## from another connection's goroutine (DESIGN §5l) — a buffer still read
## after it was handed on is a data race the detector sees only when the two
## accesses meet; and of the kept MaxDelay timer, whose goroutine takes its
## owner's lock from outside every request (sched.Flusher).
race:
	$(GO) test -race ./internal/sched/... ./internal/splitrt/... ./internal/tensor/... ./internal/nn/... ./internal/core/... ./internal/experiments/... ./internal/obs/... ./internal/audit/... ./internal/model/... ./internal/data/... ./cmd/shredder/...
	$(GO) test -race -count=3 -run 'TrainPlan|TrainNoise|Collect' ./internal/nn ./internal/core
	$(GO) test -race -count=3 -run 'Train' ./internal/model
	$(GO) test -race -count=20 -run 'RingReuse|ProofReuse|SnapshotStable|RelayWatch|StaleFire|WarmQueued' ./internal/sched ./internal/audit ./internal/obs ./internal/splitrt
	$(GO) test -race -run 'ColdStart|Materiali|EdgeStep' .

## bench-module: vet and test bench/, which builds against this module's
## splitrt API — a change that breaks it should fail here, not in the driver.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

## fuzz-smoke: run each fuzz target of a trust boundary — the wire's three
## frame targets, the coded payload a request frame carries and the packed
## levels it decodes to, the two files a cold start reads, weights and
## noise, the audit record and inclusion proof a client replays, and the
## ledger file an audited server reopens, and the narrow float form a dense
## frame payload takes — for ten seconds from the package's seeds.
fuzz-smoke:
	for f in FuzzReadFrame FuzzDecodeRequest FuzzDecodeResponse; do \
		$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime 10s ./internal/splitrt || exit 1; done
	for f in FuzzDecodeCoded FuzzDequantizePacked; do \
		$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime 10s ./internal/quantize || exit 1; done
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 10s ./internal/nn
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeNarrow$$' -fuzztime 10s ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeNoiseSource$$' -fuzztime 10s ./internal/core
	for f in FuzzUnmarshalRecord FuzzVerifyProof FuzzOpenFileLedger; do \
		$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime 10s ./internal/audit || exit 1; done

bench:
	$(GO) test -run '^$$' -bench 'BenchmarkCloudServerThroughput|BenchmarkServeBatched' -benchtime 200x .

## bench-profile: run the per-layer profiler overhead benchmark (detached
## hooks cost one atomic load per range pass).
bench-profile:
	$(GO) test -run '^$$' -bench BenchmarkProfileOverhead -benchtime 50x .

## bench-pool: run the fleet-serving benchmark (hedged p99 under a slowed
## backend should stay below the injected latency).
bench-pool:
	$(GO) test -run '^$$' -bench BenchmarkPoolServe -benchtime 50x .

## bench-coldstart: time a cold start on a warm weight cache — NewSystem,
## LoadNoise, ServeCloud, ConnectEdge, the first Classify — at LeNet conv2
## (stored noise) and SVHN conv0 (fitted noise); run it on two checkouts in
## turn to compare a start-up change in alternating pairs.
bench-coldstart:
	$(GO) test -run '^$$' -bench BenchmarkColdStart -benchtime 100x .

## bench-window: run the sliding-window overhead benchmark (windows derive
## from snapshots, they add no per-observation work).
bench-window:
	$(GO) test -run '^$$' -bench BenchmarkWindowOverhead -benchtime 50000x ./internal/obs/
